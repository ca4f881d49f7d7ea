//! Ensemble serving: `licom-server` with two workers, fed by seeded
//! `traffic-gen` jobs. Timed traffic runs on the Serial space (see
//! README.md for why); the traced run also serves one batch on Threads.
//!
//! Two phases. An open loop submits each job at its generated arrival
//! time (bursty Poisson) and times it from that due time to its terminal
//! event. A saturating batch submits every job at t = 0 and measures
//! completed steps per second. Every job must reach exactly one terminal
//! event, and each `Completed` checksum must equal a reference run of the
//! same grid and step count.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::TryRecvError;
use std::time::{Duration, Instant};

use kokkos_rs::Space;
use licom_server::{
    generate, grid_mix, Instance, JobEvent, JobHandle, JobSpec, Server, ServerConfig,
    ServerMetricsSnapshot, TrafficConfig,
};

use crate::spans;
use crate::stats::quantile;

pub const WORKERS: usize = 2;
/// Steps per job, inclusive range.
pub const STEPS: (u64, u64) = (4, 10);
/// `traffic-gen` arrivals per second outside bursts. With the burst
/// shape below `traffic-gen` realises about 100 jobs/s (≈700 steps/s),
/// about a third of the Serial capacity of two workers, while the bursts
/// (320 jobs/s ≈ 2200 steps/s) exceed it.
pub const BASE_RATE: f64 = 80.0;
pub const BURST_FACTOR: f64 = 4.0;
/// Burst cadence: the first tenth of every period arrives at
/// `BURST_FACTOR` × the base rate. A short period puts many bursts into
/// one run. The base rate is high enough that an arrival lands in nearly
/// every burst, so each window holds about the same number of jobs, and
/// about two jobs in three arrive outside bursts.
pub const BURST_PERIOD_S: f64 = 0.25;
pub const BURST_FRACTION: f64 = 0.1;
/// Saturating batches per cycle, and jobs per batch. Small batches keep
/// few instances alive at once, so a batch's working set stays small
/// next to the shared last-level cache.
pub const BATCHES_PER_CYCLE: usize = 4;
pub const BATCH_JOBS: usize = 24;
/// Fixed traffic seed and size of the traced batch whose counts must
/// repeat exactly across runs.
pub const CANONICAL_SEED: u64 = 0x5eed_1ab5;
pub const CANONICAL_JOBS: usize = 48;

/// Key of a reference checksum: grid extents and step count.
pub type RefKey = (usize, usize, usize, u64);
/// Reference checksum per grid and step count.
pub type Refs = HashMap<RefKey, u64>;

fn grid_key(spec: &JobSpec, steps: u64) -> RefKey {
    (spec.cfg.nx, spec.cfg.ny, spec.cfg.nz, steps)
}

/// Reference checksums for every traffic grid and step count, from
/// single instances stepped on the Serial space (checksums do not depend
/// on the space).
pub fn references(dir: &Path) -> Refs {
    let mut refs = HashMap::new();
    let never = AtomicBool::new(false);
    for (g, cfg) in grid_mix().into_iter().enumerate() {
        let spec = JobSpec {
            cfg,
            ..JobSpec::small("reference", Space::serial(), STEPS.1)
        };
        let mut inst = Instance::build(format!("ref{g}"), &spec, dir);
        for n in 1..=STEPS.1 {
            inst.step_once(&never).expect("reference run steps cleanly");
            if n >= STEPS.0 {
                refs.insert(grid_key(&spec, n), inst.checksum());
            }
        }
    }
    refs
}

fn traffic(seed: u64, jobs: usize, space: Space) -> TrafficConfig {
    TrafficConfig {
        seed,
        jobs,
        base_rate: BASE_RATE,
        steps: STEPS,
        space,
        // One job in eight writes a checkpoint ring.
        checkpoint_per_256: 32,
        burst_period: BURST_PERIOD_S,
        burst_factor: BURST_FACTOR,
        burst_fraction: BURST_FRACTION,
        ..TrafficConfig::default()
    }
}

fn server(dir: &Path) -> Server {
    spans::api("Server::start", || {
        Server::start(ServerConfig {
            workers: WORKERS,
            ckpt_base: dir.to_path_buf(),
            ..ServerConfig::default()
        })
    })
}

/// One job as the client saw it.
struct Tracked {
    key: RefKey,
    due: Instant,
    submitted: Instant,
    handle: Option<JobHandle>,
    started: Option<Instant>,
    terminal: Option<Instant>,
    terminals: u32,
    disconnected: bool,
    problem: Option<String>,
}

impl Tracked {
    /// Drain the job's event stream without blocking.
    fn poll(&mut self, refs: &Refs) {
        let Some(h) = &self.handle else { return };
        loop {
            match h.events.try_recv() {
                Ok(ev) => {
                    let now = Instant::now();
                    if self.terminals > 0 {
                        self.problem = Some(format!("event after terminal: {ev:?}"));
                    }
                    match ev {
                        JobEvent::Started { .. } => self.started = Some(now),
                        JobEvent::Completed { checksum, steps } => {
                            self.terminals += 1;
                            self.terminal = Some(now);
                            let want = refs.get(&(self.key.0, self.key.1, self.key.2, steps));
                            if steps != self.key.3 || want != Some(&checksum) {
                                self.problem = Some(format!(
                                    "completed {steps} steps with checksum {checksum:#x}, \
                                     reference {want:?} for {:?}",
                                    self.key
                                ));
                            }
                        }
                        JobEvent::Cancelled { .. } | JobEvent::Failed { .. } => {
                            self.terminals += 1;
                            self.terminal = Some(now);
                            self.problem = Some(format!("terminal event {ev:?}"));
                        }
                        _ => {}
                    }
                }
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    return;
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.handle.is_none() || self.disconnected
    }

    /// The job's failure, if any: refused, no or several terminal
    /// events, or a wrong result.
    fn failure(&self) -> Option<String> {
        if self.handle.is_none() {
            return Some("submission refused".into());
        }
        if self.terminals != 1 {
            return Some(format!("{} terminal events", self.terminals));
        }
        self.problem.clone()
    }
}

/// Result of one serving phase.
pub struct Phase {
    pub jobs: usize,
    pub failures: Vec<String>,
    /// Due time → terminal event, ms; failed jobs excluded.
    pub turnaround_ms: Vec<f64>,
    /// Submission → `Started`, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Server start → first `Started`, seconds.
    pub first_start_s: f64,
    /// First submission → last terminal event, seconds.
    pub span_s: f64,
    /// Mean of sampled busy workers over the pool size.
    pub worker_busy_frac: f64,
    /// Submission minus due time, ms (how late the generator ran).
    pub lateness_ms: Vec<f64>,
    pub snapshot: ServerMetricsSnapshot,
    pub slices_total: u64,
    pub checkpoints_total: u64,
}

impl Phase {
    pub fn steps_per_s(&self) -> f64 {
        self.snapshot.steps_total as f64 / self.span_s.max(1e-9)
    }

    /// Job turnaround at quantile `q`, counting a failed job as slower
    /// than every completed one (then the phase's span stands in).
    pub fn turnaround_quantile_ms(&self, q: f64) -> f64 {
        let mut v = self.turnaround_ms.clone();
        v.resize(self.jobs, f64::INFINITY);
        let x = quantile(&v, q);
        if x.is_finite() {
            x
        } else {
            self.span_s * 1e3
        }
    }
}

/// Serve `schedule` (due offsets in seconds, with specs): submit each job
/// when due and poll every event stream until all jobs are terminal.
fn serve(dir: &Path, schedule: Vec<(f64, JobSpec)>, refs: &Refs) -> Phase {
    let _ = std::fs::remove_dir_all(dir);
    let t_start = Instant::now();
    let srv = server(dir);
    let t0 = Instant::now();
    let mut tracked: Vec<Tracked> = Vec::with_capacity(schedule.len());
    let mut pending = schedule.into_iter().peekable();
    let mut first_start: Option<Instant> = None;
    let mut busy_samples = 0u64;
    let mut busy_sum = 0u64;
    loop {
        let now = Instant::now();
        while let Some((at, _)) = pending.peek() {
            let due = t0 + Duration::from_secs_f64(*at);
            if due > now {
                break;
            }
            let (_, spec) = pending.next().expect("peeked");
            let key = grid_key(&spec, spec.steps);
            let handle = spans::api("Server::submit", || srv.submit(spec)).ok();
            tracked.push(Tracked {
                key,
                due,
                submitted: Instant::now(),
                handle,
                started: None,
                terminal: None,
                terminals: 0,
                disconnected: false,
                problem: None,
            });
        }
        for t in tracked.iter_mut().filter(|t| !t.done()) {
            t.poll(refs);
            if first_start.is_none() {
                first_start = t.started;
            }
        }
        busy_sum += srv.metrics().workers_busy.load(Ordering::Relaxed);
        busy_samples += 1;
        if pending.peek().is_none() && tracked.iter().all(Tracked::done) {
            break;
        }
        let next_due = pending.peek().map(|(at, _)| {
            (t0 + Duration::from_secs_f64(*at)).saturating_duration_since(Instant::now())
        });
        std::thread::sleep(next_due.map_or(Duration::from_millis(1), |d| {
            d.min(Duration::from_millis(1))
        }));
    }
    let last_terminal = tracked
        .iter()
        .filter_map(|t| t.terminal)
        .max()
        .unwrap_or(t0);
    let slices_total = srv.metrics().slices_total.load(Ordering::Relaxed);
    let checkpoints_total = srv.metrics().checkpoints_total.load(Ordering::Relaxed);
    let snapshot = spans::api("Server::join", || srv.join());
    let _ = std::fs::remove_dir_all(dir);

    let first_submit = tracked.iter().map(|t| t.submitted).min().unwrap_or(t0);
    let mut phase = Phase {
        jobs: tracked.len(),
        failures: Vec::new(),
        turnaround_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        first_start_s: first_start.map_or(0.0, |s| s.duration_since(t_start).as_secs_f64()),
        span_s: last_terminal.duration_since(first_submit).as_secs_f64(),
        worker_busy_frac: busy_sum as f64 / (busy_samples.max(1) * WORKERS as u64) as f64,
        lateness_ms: Vec::new(),
        snapshot,
        slices_total,
        checkpoints_total,
    };
    for t in &tracked {
        phase
            .lateness_ms
            .push(t.submitted.duration_since(t.due).as_secs_f64() * 1e3);
        if let Some(f) = t.failure() {
            phase.failures.push(f);
            continue;
        }
        let end = t.terminal.expect("one terminal event");
        phase
            .turnaround_ms
            .push(end.duration_since(t.due).as_secs_f64() * 1e3);
        if let Some(s) = t.started {
            phase
                .queue_wait_ms
                .push(s.duration_since(t.submitted).as_secs_f64() * 1e3);
        }
    }
    phase
}

/// Open loop: the arrivals `traffic-gen` produces for `seed` within
/// `window_s` seconds, each submitted at its due time.
pub fn open_loop(dir: &Path, seed: u64, window_s: f64, refs: &Refs) -> Phase {
    // Arrivals never come faster than the burst rate; generate more if a
    // schedule still ends inside the window (a longer schedule with the
    // same seed starts with the same arrivals).
    let mut jobs = (window_s * BASE_RATE * BURST_FACTOR).ceil() as usize + 16;
    let arrivals = loop {
        let a = generate(&traffic(seed, jobs, Space::serial()));
        if a.last().is_none_or(|last| last.at_seconds >= window_s) {
            break a;
        }
        jobs *= 2;
    };
    let schedule = arrivals
        .into_iter()
        .take_while(|a| a.at_seconds < window_s)
        .map(|a| (a.at_seconds, a.spec))
        .collect();
    serve(dir, schedule, refs)
}

/// Saturating batch: `jobs` generated jobs on `space`, all due at t = 0.
pub fn batch(dir: &Path, seed: u64, jobs: usize, space: Space, refs: &Refs) -> Phase {
    let schedule = generate(&traffic(seed, jobs, space))
        .into_iter()
        .map(|a| (0.0, a.spec))
        .collect();
    serve(dir, schedule, refs)
}
