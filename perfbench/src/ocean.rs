//! Model workloads: repeated short episodes of a 2-rank `licom` world on
//! every execution space.
//!
//! Each episode starts from a fresh `Model::new` and stays shorter than
//! the grid's guard horizon (the default-options model trips
//! `StepError::Guard` after a grid-dependent number of steps; see
//! README.md). One round runs one episode per space in a seeded order;
//! the four spaces' checksums must agree bitwise at the end of it.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use kokkos_rs::Space;
use licom::model::{Model, ModelOptions, StepError};
use mpi_sim::{ReduceOp, TrafficSnapshot, World};
use ocean_grid::{ModelConfig, Resolution};

use crate::spans;
use licom_server::Rng;

use crate::stats::shuffle;

pub const RANKS: usize = 2;
pub const SPACES: [&str; 4] = ["serial", "threads", "devicesim", "swathread"];
/// Phase buckets reported per step, built from the model's phase timers.
pub const PHASES: [&str; 6] = [
    "barotropic",
    "advection",
    "canuto",
    "momentum",
    "vmix",
    "halo",
];

pub fn make_space(name: &str) -> Space {
    match name {
        "swathread" => Space::sw_athread_with(sunway_sim::CgConfig::bench()),
        other => Space::from_name(other).expect("known execution space"),
    }
}

fn bucket(timer: &str) -> Option<&'static str> {
    match timer {
        "barotropic" => Some("barotropic"),
        "advection_tracer" | "hdiff" => Some("advection"),
        "canuto" => Some("canuto"),
        "momentum" | "update_uv" => Some("momentum"),
        "vmix_momentum" | "vmix_tracer" => Some("vmix"),
        t if t.starts_with("halo") => Some("halo"),
        _ => None,
    }
}

/// One model workload's grid and episode shape.
#[derive(Clone)]
pub struct Grid {
    pub cfg: ModelConfig,
    /// Steps run after `Model::new` and charged to set-up.
    pub warmup: usize,
    /// Timed steps per episode.
    pub timed: usize,
    /// Step cap for the guard-horizon probe.
    pub horizon_cap: usize,
}

/// 60×36×6: little work per launch.
pub fn launch_bound() -> Grid {
    Grid {
        cfg: Resolution::Coarse100km.config().scaled_down(6, 6),
        warmup: 2,
        timed: 20,
        horizon_cap: 400,
    }
}

/// 90×54×30: about 12× the work per launch; spills the L2.
pub fn compute_bound() -> Grid {
    Grid {
        cfg: Resolution::Coarse100km.config().scaled_down(4, 30),
        warmup: 2,
        timed: 16,
        horizon_cap: 240,
    }
}

pub fn options(flight_dir: &Path) -> ModelOptions {
    ModelOptions {
        flight_dir: Some(flight_dir.to_path_buf()),
        ..ModelOptions::default()
    }
}

/// `(on-CPU ns, run-queue wait ns)` of the calling thread.
fn schedstat() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SwCounters {
    pub cycles: u64,
    pub dma_bytes: u64,
    pub stall_cycles: u64,
    pub busy_cycles: u64,
    pub ldm_high_water: u64,
}

fn sw_counters(space: &Space) -> Option<SwCounters> {
    match space {
        Space::SwAthread(sw) => {
            let c = sw.counters();
            Some(SwCounters {
                cycles: c.kernel_cycles,
                dma_bytes: c.totals.dma_get_bytes + c.totals.dma_put_bytes,
                stall_cycles: c.totals.dma_stall_cycles,
                busy_cycles: c.kernel_cycles_mean * sw.config().num_cpes as u64,
                ldm_high_water: c.totals.ldm_high_water,
            })
        }
        _ => None,
    }
}

struct Snap {
    traffic: TrafficSnapshot,
    phases: Vec<(&'static str, f64)>,
    halo_wait_ns: u64,
    halo_inflight_ns: u64,
    sched: Option<(u64, u64)>,
    sw: Option<SwCounters>,
    device_launches: u64,
}

impl Snap {
    fn take(m: &Model) -> Snap {
        Snap {
            traffic: m.comm().traffic(),
            phases: m.timers.phase_seconds(),
            halo_wait_ns: m.halo_wait_ns(),
            halo_inflight_ns: m.halo_inflight_ns(),
            sched: schedstat(),
            sw: sw_counters(&m.space),
            device_launches: match &m.space {
                Space::DeviceSim(d) => d.launches(),
                _ => 0,
            },
        }
    }
}

/// What one rank saw over the timed window of one episode.
#[derive(Debug, Clone)]
pub struct RankRecord {
    pub tid: u64,
    /// Timed window, in [`spans::now_ns`] time.
    pub window: (u64, u64),
    pub step_ns: Vec<u64>,
    pub checksum: u64,
    /// Seconds per phase bucket over the window.
    pub phases: BTreeMap<&'static str, f64>,
    pub halo_wait_ns: u64,
    pub halo_inflight_ns: u64,
    pub sched: Option<(u64, u64)>,
    /// World-wide point-to-point messages, bytes and halo retries.
    pub msgs: u64,
    pub bytes: u64,
    pub retries: u64,
    pub sw: Option<SwCounters>,
    pub device_launches: u64,
    pub error: Option<String>,
}

impl RankRecord {
    pub fn window_ns(&self) -> u64 {
        self.window.1.saturating_sub(self.window.0).max(1)
    }
}

#[derive(Debug, Clone)]
pub struct Episode {
    pub space: &'static str,
    /// World spawn + `Model::new` + warm-up, to the start of the window.
    pub setup_s: f64,
    pub timed: usize,
    pub ranks: Vec<RankRecord>,
}

fn describe(e: &StepError) -> String {
    let kind = match e {
        StepError::Halo(_) => "halo",
        StepError::Guard(_) => "guard",
        StepError::Drift(_) => "drift",
    };
    format!("{kind}: {e}")
}

pub fn episode(grid: &Grid, space: &'static str, opts: &ModelOptions) -> Episode {
    let t_spawn = Instant::now();
    let (cfg, warmup, timed, opts) = (grid.cfg.clone(), grid.warmup, grid.timed, opts.clone());
    let out: Vec<(Instant, RankRecord)> = World::run(RANKS, move |comm| {
        let tid = spans::set_rank(comm.rank());
        let mut m = spans::api("Model::new", || {
            Model::new(comm, cfg.clone(), make_space(space), opts.clone())
        });
        let mut error = None;
        for _ in 0..warmup {
            if let Err(e) = spans::api("Model::step", || m.try_step()) {
                error = Some(describe(&e));
                break;
            }
        }
        // Both ranks snapshot the world counters between two barriers,
        // so no message of the window can land before either snapshot.
        comm.barrier();
        let ready = Instant::now();
        let s0 = Snap::take(&m);
        comm.barrier();
        let w0 = spans::now_ns();
        let mut step_ns = Vec::with_capacity(timed);
        if error.is_none() {
            for _ in 0..timed {
                let t = Instant::now();
                let r = spans::api("Model::step", || m.try_step());
                step_ns.push(t.elapsed().as_nanos() as u64);
                if let Err(e) = r {
                    error = Some(describe(&e));
                    break;
                }
            }
        }
        let w1 = spans::now_ns();
        comm.barrier();
        let s1 = Snap::take(&m);
        let mut phases: BTreeMap<&'static str, f64> = PHASES.iter().map(|p| (*p, 0.0)).collect();
        for (name, secs) in &s1.phases {
            let before = s0
                .phases
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, s)| *s);
            if let Some(b) = bucket(name) {
                *phases.get_mut(b).expect("bucket listed in PHASES") += secs - before;
            }
        }
        let sw = match (s0.sw, s1.sw) {
            (Some(a), Some(b)) => Some(SwCounters {
                cycles: b.cycles - a.cycles,
                dma_bytes: b.dma_bytes - a.dma_bytes,
                stall_cycles: b.stall_cycles - a.stall_cycles,
                busy_cycles: b.busy_cycles - a.busy_cycles,
                ldm_high_water: b.ldm_high_water,
            }),
            _ => None,
        };
        let record = RankRecord {
            tid,
            window: (w0, w1),
            step_ns,
            checksum: m.checksum(),
            phases,
            halo_wait_ns: s1.halo_wait_ns - s0.halo_wait_ns,
            halo_inflight_ns: s1.halo_inflight_ns - s0.halo_inflight_ns,
            sched: s0
                .sched
                .zip(s1.sched)
                .map(|(a, b)| (b.0.saturating_sub(a.0), b.1.saturating_sub(a.1))),
            msgs: s1.traffic.p2p_messages - s0.traffic.p2p_messages,
            bytes: s1.traffic.p2p_bytes - s0.traffic.p2p_bytes,
            retries: s1.traffic.halo_retries - s0.traffic.halo_retries,
            sw,
            device_launches: s1.device_launches - s0.device_launches,
            error,
        };
        (ready, record)
    });
    let ready = out.iter().map(|(r, _)| *r).max().expect("world has ranks");
    Episode {
        space,
        setup_s: ready.duration_since(t_spawn).as_secs_f64(),
        timed,
        ranks: out.into_iter().map(|(_, r)| r).collect(),
    }
}

/// One episode per space, in a seeded order.
pub fn round(grid: &Grid, opts: &ModelOptions, rng: &mut Rng) -> Vec<Episode> {
    let mut order = SPACES;
    shuffle(rng, &mut order);
    order.iter().map(|sp| episode(grid, sp, opts)).collect()
}

/// Problems with a round: failed steps, or checksums that differ
/// between spaces on any rank.
pub fn check_round(eps: &[Episode]) -> Vec<String> {
    let mut problems = Vec::new();
    for e in eps {
        for (rank, r) in e.ranks.iter().enumerate() {
            if let Some(err) = &r.error {
                problems.push(format!("{} rank {rank}: step failed: {err}", e.space));
            }
        }
    }
    let first = &eps[0];
    for e in &eps[1..] {
        for (rank, (a, b)) in first.ranks.iter().zip(&e.ranks).enumerate() {
            if a.checksum != b.checksum {
                problems.push(format!(
                    "rank {rank}: checksum {} {:#018x} != {} {:#018x}",
                    first.space, a.checksum, e.space, b.checksum
                ));
            }
        }
    }
    problems
}

/// Steps a fresh Serial model completes before its first failed step
/// (capped at `cap`), with the failure. Ranks agree on stopping through
/// an allreduce after every step, so a guard trip on one rank stops both.
pub fn stable_steps(cfg: &ModelConfig, cap: usize, opts: &ModelOptions) -> (u64, Option<String>) {
    let (cfg, opts) = (cfg.clone(), opts.clone());
    let out = World::run(RANKS, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        for n in 0..cap as u64 {
            let r = m.try_step();
            let bad = comm.allreduce_f64(f64::from(u8::from(r.is_err())), ReduceOp::Max);
            if bad > 0.5 {
                return (
                    n,
                    Some(
                        r.err()
                            .map_or_else(|| "peer failed".into(), |e| describe(&e)),
                    ),
                );
            }
        }
        (cap as u64, None)
    });
    out.into_iter()
        .find(|(_, e)| e.as_ref().is_some_and(|e| e != "peer failed"))
        .unwrap_or((cap as u64, None))
}
