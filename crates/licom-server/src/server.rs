//! The serving engine: an instance table, a worker pool, and the job
//! API (`submit` / `status` / `cancel` / streamed events).
//!
//! ## Execution model
//!
//! Workers are plain OS threads contending on one mutex-protected
//! scheduler. A worker claims up to `batch_size` jobs (stride order),
//! releases the lock, and steps each claimed instance for a slice of
//! `slice_steps` model steps. Every job's execution space is capped at
//! one worker's part of the host's cores (`max(1, cores / workers)`), so
//! the kernels a slice launches on `Threads`/`DeviceSim`/`SwAthread` draw
//! on the process executor without oversubscribing the cores the other
//! workers use — the multi-tenant analogue of the paper's
//! many-instances-per-node ensemble configuration.
//!
//! ## Isolation
//!
//! Every instance owns a private solo world (mailboxes, pools, traffic),
//! its own checkpoint-ring directory, its own `Timers`, and a profiling
//! [`InstanceKey`](kokkos_rs::profiling::InstanceKey) — the only shared
//! mutable state is the scheduler and the (atomic) metrics. The
//! isolation tests assert the strong version of this: N instances
//! interleaved on the shared executor finish bitwise identical to the same
//! specs run sequentially.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::instance::Instance;
use crate::job::{JobEvent, JobId, JobSpec, JobStatus, SubmitError};
use crate::metrics::ServerMetrics;
use crate::scheduler::Scheduler;

/// Engine knobs. Defaults serve hundreds of tiny instances on a laptop.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads stepping instances (outer concurrency); each job's
    /// execution space gets `max(1, cores / workers)` cores.
    pub workers: usize,
    /// Model steps per scheduling slice. Larger amortizes scheduling;
    /// smaller tightens fairness granularity and cancel latency.
    pub slice_steps: u64,
    /// Jobs a worker claims per scheduler visit (batched stepping).
    pub batch_size: usize,
    /// Global bound on slice-queued jobs; beyond it `submit` returns
    /// [`SubmitError::Backpressure`].
    pub queue_capacity: usize,
    /// Per-tenant bound on in-flight (queued + running) jobs; beyond it
    /// `submit` returns [`SubmitError::QuotaExceeded`].
    pub tenant_quota: usize,
    /// Base directory for per-instance checkpoint rings.
    pub ckpt_base: PathBuf,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            slice_steps: 2,
            batch_size: 4,
            queue_capacity: 4096,
            tenant_quota: 1024,
            ckpt_base: std::env::temp_dir().join(format!("licom-server-{}", std::process::id())),
        }
    }
}

/// Returned by [`Server::submit`]: the job id plus the ordered event
/// stream ([`JobEvent`]); the sender hangs up after the terminal event.
pub struct JobHandle {
    pub id: JobId,
    pub events: Receiver<JobEvent>,
}

struct JobEntry {
    spec: JobSpec,
    /// `Some` when parked between slices; taken by the stepping worker.
    instance: Option<Box<Instance>>,
    steps_done: u64,
    cancel: Arc<AtomicBool>,
    tx: Sender<JobEvent>,
}

struct Inner {
    sched: Scheduler,
    jobs: HashMap<JobId, JobEntry>,
    status: HashMap<JobId, JobStatus>,
    next_id: JobId,
    next_instance: u64,
    draining: bool,
}

struct Shared {
    cfg: ServerConfig,
    metrics: ServerMetrics,
    state: Mutex<Inner>,
    cv: Condvar,
}

/// See module docs.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    pub fn start(cfg: ServerConfig) -> Server {
        std::fs::create_dir_all(&cfg.ckpt_base).expect("create checkpoint base dir");
        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            metrics: ServerMetrics::new(),
            state: Mutex::new(Inner {
                sched: Scheduler::new(),
                jobs: HashMap::new(),
                status: HashMap::new(),
                next_id: 1,
                next_instance: 0,
                draining: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("licom-serve-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Admit a job or refuse with a backpressure signal. Never blocks.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let shared = &self.shared;
        spec.space = spec.space.partitioned(shared.cfg.workers.max(1));
        let mut st = shared.state.lock();
        if st.draining {
            return Err(SubmitError::ShuttingDown);
        }
        if st.sched.tenant_in_flight(&spec.tenant) >= shared.cfg.tenant_quota {
            shared.metrics.rejected_quota.fetch_add(1, Relaxed);
            return Err(SubmitError::QuotaExceeded {
                tenant: spec.tenant.clone(),
                quota: shared.cfg.tenant_quota,
            });
        }
        if st.sched.queued() >= shared.cfg.queue_capacity {
            shared.metrics.rejected_backpressure.fetch_add(1, Relaxed);
            return Err(SubmitError::Backpressure {
                capacity: shared.cfg.queue_capacity,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let (tx, rx) = channel();
        let weight = spec.priority.weight();
        st.sched.admit(&spec.tenant, id, weight);
        st.jobs.insert(
            id,
            JobEntry {
                spec,
                instance: None,
                steps_done: 0,
                cancel: Arc::new(AtomicBool::new(false)),
                tx,
            },
        );
        st.status.insert(id, JobStatus::Queued);
        shared.metrics.jobs_submitted.fetch_add(1, Relaxed);
        drop(st);
        shared.cv.notify_one();
        Ok(JobHandle { id, events: rx })
    }

    /// Current status; statuses of finished jobs are retained.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.state.lock().status.get(&id).cloned()
    }

    /// Request cancellation. Returns `false` if the job is unknown or
    /// already terminal. Cancellation is observed at the next step
    /// boundary; a queued job is cancelled without ever building its
    /// instance.
    pub fn cancel(&self, id: JobId) -> bool {
        let st = self.shared.state.lock();
        match st.jobs.get(&id) {
            Some(e) => {
                e.cancel.store(true, Relaxed);
                true
            }
            None => false,
        }
    }

    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Per-tenant delivered model steps (fair-share measurement).
    pub fn tenant_steps(&self) -> Vec<(String, u64)> {
        self.shared.state.lock().sched.tenant_steps()
    }

    /// Aggregate + per-instance Prometheus exposition. Aggregate
    /// counters come out as `licom_server_counter_total{name=...}`,
    /// step-latency quantiles as `licom_server_step_latency_ns`, and
    /// every live instance contributes
    /// `licom_step_total{instance="m17",tenant="a"}`.
    pub fn render_prometheus(&self) -> String {
        let mut out = kokkos_profiling::render_named_counters(
            "licom_server_counter_total",
            "Aggregate serving counters.",
            &self.shared.metrics.counter_table(),
        );
        let (p50, p95, p99) = self.shared.metrics.latency_percentiles_ns();
        out.push_str(
            "# HELP licom_server_step_latency_ns Step latency quantiles over all instances.\n\
             # TYPE licom_server_step_latency_ns gauge\n",
        );
        for (q, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
            out.push_str(&format!(
                "licom_server_step_latency_ns{{quantile=\"{q}\"}} {v}\n"
            ));
        }
        let st = self.shared.state.lock();
        let mut rows: Vec<(String, String, u64)> = st
            .jobs
            .values()
            .filter_map(|e| {
                e.instance
                    .as_ref()
                    .map(|i| (i.name.clone(), i.tenant.clone(), i.steps_taken()))
            })
            .collect();
        rows.sort();
        out.push_str(
            "# HELP licom_step_total Model steps taken, per live instance.\n\
             # TYPE licom_step_total counter\n",
        );
        for (name, tenant, steps) in rows {
            out.push_str(&format!(
                "licom_step_total{{instance=\"{name}\",tenant=\"{tenant}\"}} {steps}\n"
            ));
        }
        // Scheduler occupancy gauges: queue depth and running jobs per
        // tenant, plus worker occupancy — the saturation signals that
        // make the fairness counters above interpretable.
        let gauges = st.sched.tenant_gauges();
        let depth: Vec<(&str, u64)> = gauges.iter().map(|(n, q, _)| (n.as_str(), *q)).collect();
        let running: Vec<(&str, u64)> = gauges.iter().map(|(n, _, r)| (n.as_str(), *r)).collect();
        drop(st);
        out.push_str(&kokkos_profiling::render_named_gauges(
            "licom_sched_queue_depth",
            "Jobs queued for a slice, per tenant.",
            "tenant",
            &depth,
        ));
        out.push_str(&kokkos_profiling::render_named_gauges(
            "licom_tenant_running",
            "Jobs claimed or stepping (admitted minus queued), per tenant.",
            "tenant",
            &running,
        ));
        out.push_str(&kokkos_profiling::render_gauge(
            "licom_workers_busy",
            "Workers currently stepping a claimed batch.",
            self.shared.metrics.workers_busy.load(Relaxed),
        ));
        out
    }

    /// Full labeled shard for one parked instance — traffic, named
    /// counters and phase seconds, every sample tagged
    /// `{instance=...,tenant=...}`. `None` while a worker holds the
    /// instance or before it is built.
    pub fn render_instance_shard(&self, id: JobId) -> Option<String> {
        let st = self.shared.state.lock();
        let inst = st.jobs.get(&id)?.instance.as_ref()?;
        Some(kokkos_profiling::render_prometheus_labeled(
            &inst.traffic(),
            &inst.counters(),
            &inst.phase_seconds(),
            &[("instance", &inst.name), ("tenant", &inst.tenant)],
        ))
    }

    /// Stop admitting new jobs; already-admitted work keeps running.
    /// Subsequent `submit` calls return [`SubmitError::ShuttingDown`].
    pub fn drain(&self) {
        {
            let mut st = self.shared.state.lock();
            st.draining = true;
        }
        self.shared.cv.notify_all();
    }

    /// Drain: stop admitting, run every queued job to a terminal state,
    /// then join the workers.
    pub fn join(mut self) -> ServerMetricsSnapshot {
        self.drain();
        for h in self.workers.drain(..) {
            h.join().expect("worker panicked");
        }
        let m = &self.shared.metrics;
        let (p50, p95, p99) = m.latency_percentiles_ns();
        ServerMetricsSnapshot {
            jobs_submitted: m.jobs_submitted.load(Relaxed),
            jobs_completed: m.jobs_completed.load(Relaxed),
            jobs_cancelled: m.jobs_cancelled.load(Relaxed),
            jobs_failed: m.jobs_failed.load(Relaxed),
            rejected_quota: m.rejected_quota.load(Relaxed),
            rejected_backpressure: m.rejected_backpressure.load(Relaxed),
            steps_total: m.steps_total.load(Relaxed),
            mean_step_ns: m.step_latency.mean_ns(),
            p50_step_ns: p50,
            p95_step_ns: p95,
            p99_step_ns: p99,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped (not joined) server still drains cleanly.
        {
            let mut st = self.shared.state.lock();
            st.draining = true;
        }
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Plain-value summary returned by [`Server::join`] for experiment
/// binaries and gates.
#[derive(Debug, Clone)]
pub struct ServerMetricsSnapshot {
    pub jobs_submitted: u64,
    pub jobs_completed: u64,
    pub jobs_cancelled: u64,
    pub jobs_failed: u64,
    pub rejected_quota: u64,
    pub rejected_backpressure: u64,
    pub steps_total: u64,
    pub mean_step_ns: f64,
    pub p50_step_ns: u64,
    pub p95_step_ns: u64,
    pub p99_step_ns: u64,
}

/// What a worker decided about a job after stepping its slice.
enum SliceEnd {
    Requeue,
    Completed { checksum: u64, steps: u64 },
    Cancelled { steps_done: u64 },
    Failed { reason: String },
}

/// Everything a worker pulls out of the job table to step a slice
/// outside the lock: id, spec, the (possibly not-yet-built) instance,
/// steps done so far, the cancel flag, and the event channel.
type ClaimedJob = (
    JobId,
    JobSpec,
    Option<Box<Instance>>,
    u64,
    Arc<AtomicBool>,
    Sender<JobEvent>,
);

fn worker_loop(shared: &Shared) {
    loop {
        // Claim up to batch_size jobs under the lock.
        let mut claimed: Vec<ClaimedJob> = Vec::new();
        {
            let mut st = shared.state.lock();
            loop {
                for _ in 0..shared.cfg.batch_size {
                    let Some(id) = st.sched.pick() else { break };
                    let e = st.jobs.get_mut(&id).expect("picked job exists");
                    claimed.push((
                        id,
                        e.spec.clone(),
                        e.instance.take(),
                        e.steps_done,
                        Arc::clone(&e.cancel),
                        e.tx.clone(),
                    ));
                }
                if !claimed.is_empty() {
                    break;
                }
                if st.draining && st.jobs.is_empty() {
                    return;
                }
                shared.cv.wait(&mut st);
            }
        }

        shared.metrics.workers_busy.fetch_add(1, Relaxed);
        for (id, spec, instance, steps_before, cancel, tx) in claimed {
            let (instance, end) =
                step_slice(shared, id, &spec, instance, steps_before, &cancel, &tx);

            let mut st = shared.state.lock();
            let steps_now = instance.as_ref().map_or(steps_before, |i| i.steps_taken());
            // Fairness ledger: only *forward* progress counts (a rollback
            // slice can deliver negative raw delta).
            let delta = steps_now.saturating_sub(steps_before);
            st.sched.credit_steps(&spec.tenant, delta);
            shared.metrics.slices_total.fetch_add(1, Relaxed);
            match end {
                SliceEnd::Requeue => {
                    let e = st.jobs.get_mut(&id).expect("sliced job exists");
                    e.instance = instance;
                    e.steps_done = steps_now;
                    st.status.insert(
                        id,
                        JobStatus::Running {
                            steps_done: steps_now,
                        },
                    );
                    let _ = tx.send(JobEvent::Progress {
                        steps_done: steps_now,
                    });
                    st.sched.requeue(&spec.tenant, id, spec.priority.weight());
                    drop(st);
                    shared.cv.notify_one();
                }
                terminal => {
                    st.jobs.remove(&id);
                    st.sched.retire(&spec.tenant, 0);
                    let (status, event) = match terminal {
                        SliceEnd::Completed { checksum, steps } => {
                            shared.metrics.jobs_completed.fetch_add(1, Relaxed);
                            (
                                JobStatus::Completed { checksum, steps },
                                JobEvent::Completed { checksum, steps },
                            )
                        }
                        SliceEnd::Cancelled { steps_done } => {
                            shared.metrics.jobs_cancelled.fetch_add(1, Relaxed);
                            (
                                JobStatus::Cancelled { steps_done },
                                JobEvent::Cancelled { steps_done },
                            )
                        }
                        SliceEnd::Failed { reason } => {
                            shared.metrics.jobs_failed.fetch_add(1, Relaxed);
                            (
                                JobStatus::Failed {
                                    reason: reason.clone(),
                                },
                                JobEvent::Failed { reason },
                            )
                        }
                        SliceEnd::Requeue => unreachable!(),
                    };
                    st.status.insert(id, status);
                    let _ = tx.send(event);
                    let draining = st.draining;
                    drop(instance); // checkpoint dir cleanup outside map
                    drop(st);
                    if draining {
                        shared.cv.notify_all();
                    }
                }
            }
        }
        shared.metrics.workers_busy.fetch_sub(1, Relaxed);
    }
}

/// Step one claimed job for a slice; returns the (possibly just-built)
/// instance and the slice verdict. Runs without the scheduler lock.
fn step_slice(
    shared: &Shared,
    id: JobId,
    spec: &JobSpec,
    instance: Option<Box<Instance>>,
    steps_before: u64,
    cancel: &AtomicBool,
    tx: &Sender<JobEvent>,
) -> (Option<Box<Instance>>, SliceEnd) {
    // Cancelled while queued: never build the model.
    if cancel.load(Relaxed) {
        return (
            instance,
            SliceEnd::Cancelled {
                steps_done: steps_before,
            },
        );
    }
    let mut inst = match instance {
        Some(i) => i,
        None => {
            let name = {
                let mut st = shared.state.lock();
                st.next_instance += 1;
                format!("m{}", st.next_instance)
            };
            let built = Box::new(Instance::build(name, spec, &shared.cfg.ckpt_base));
            let _ = tx.send(JobEvent::Started {
                instance: built.name.clone(),
            });
            built
        }
    };
    // The black box records why this instance is running now: which job
    // the scheduler picked and where it stood when the slice began.
    inst.flight_note(
        mpi_sim::flight::FlightEventKind::SchedDecision,
        id,
        inst.steps_taken(),
        0,
    );

    for _ in 0..shared.cfg.slice_steps {
        if inst.steps_taken() >= spec.steps {
            break;
        }
        if cancel.load(Relaxed) {
            let steps_done = inst.steps_taken();
            return (Some(inst), SliceEnd::Cancelled { steps_done });
        }
        let t0 = Instant::now();
        match inst.step_once(cancel) {
            Ok(outcome) => {
                let ns = t0.elapsed().as_nanos() as u64;
                if let Some(step) = outcome.rolled_back_to {
                    shared.metrics.rollbacks_total.fetch_add(1, Relaxed);
                    let _ = tx.send(JobEvent::RolledBack { to_step: step });
                    continue; // a rollback is not a step
                }
                shared.metrics.step_latency.record(ns);
                shared.metrics.steps_total.fetch_add(1, Relaxed);
                if outcome.checkpointed {
                    shared.metrics.checkpoints_total.fetch_add(1, Relaxed);
                    let _ = tx.send(JobEvent::Checkpointed {
                        at_step: inst.steps_taken(),
                    });
                }
            }
            Err(reason) => {
                // Job failure is a dump trigger: the guard/drift edge
                // inside try_step may already have claimed this
                // instance's bundle, in which case this is a no-op.
                inst.flight_note(
                    mpi_sim::flight::FlightEventKind::JobFail,
                    id,
                    inst.steps_taken(),
                    0,
                );
                inst.dump_flight("job-fail");
                return (Some(inst), SliceEnd::Failed { reason });
            }
        }
    }

    if inst.steps_taken() >= spec.steps {
        let end = SliceEnd::Completed {
            checksum: inst.checksum(),
            steps: inst.steps_taken(),
        };
        (Some(inst), end)
    } else {
        (Some(inst), SliceEnd::Requeue)
    }
}
