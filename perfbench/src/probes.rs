//! Direct probes into single layers, run only in the traced run.

use std::path::Path;
use std::time::Instant;

use halo_exchange::FoldKind;
use kokkos_rs::{parallel_for_1d, Functor1D, RangePolicy, Space, View, View1};
use licom::checkpoint::CheckpointManager;
use licom::model::{Model, ModelOptions};
use mpi_sim::flight::{self, FlightEventKind};
use mpi_sim::World;
use ocean_grid::ModelConfig;

use crate::ocean::{make_space, RANKS, SPACES};
use crate::spans::{self, Kind, Span};
use crate::stats::median;

/// Seconds per call of `f`, median of `reps` timed batches of `n` calls.
fn per_call(reps: usize, n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    median(&samples)
}

struct Empty;

impl Functor1D for Empty {
    fn operator(&self, _i: usize) {}
}
kokkos_rs::register_for_1d!(perfbench_empty, Empty);

/// Items per empty launch: sixteen default tiles, so the host pool and
/// the simulated core group both dispatch (a single tile runs inline).
const EMPTY_ITEMS: usize = 16 * 256;

/// Microseconds per launch of an empty functor, per execution space.
pub fn launch_overhead_us() -> Vec<(&'static str, f64)> {
    perfbench_empty();
    SPACES
        .iter()
        .map(|&name| {
            let space = make_space(name);
            let policy = RangePolicy::new(EMPTY_ITEMS);
            let f = Empty;
            for _ in 0..100 {
                parallel_for_1d(&space, policy, &f);
            }
            let s = per_call(5, 400, || parallel_for_1d(&space, policy, &f));
            (name, s * 1e6)
        })
        .collect()
}

struct StreamCopy {
    src: View1<f64>,
    dst: View1<f64>,
}

impl Functor1D for StreamCopy {
    fn operator(&self, i: usize) {
        self.dst.set_at(i, self.src.at(i));
    }
}

/// Elements per STREAM array: 640 MiB each, 1280 MiB for the pair —
/// four times a 300 MiB last-level cache.
const STREAM_ELEMS: usize = 80 << 20;

/// STREAM copy through a Threads-space kernel, GB/s counting one read
/// and one write per element; median of three passes after a first-touch
/// pass.
pub fn stream_copy_gbps() -> f64 {
    let src: View1<f64> = View::host("stream_src", [STREAM_ELEMS]);
    let dst: View1<f64> = View::host("stream_dst", [STREAM_ELEMS]);
    for i in (0..STREAM_ELEMS).step_by(512) {
        src.set_at(i, i as f64);
    }
    let space = Space::threads();
    let f = StreamCopy { src, dst };
    let policy = RangePolicy::new(STREAM_ELEMS);
    parallel_for_1d(&space, policy, &f);
    let secs = per_call(3, 1, || parallel_for_1d(&space, policy, &f));
    assert_eq!(f.dst.at(STREAM_ELEMS - 512), (STREAM_ELEMS - 512) as f64);
    (2 * 8 * STREAM_ELEMS) as f64 / secs / 1e9
}

/// Nanoseconds of `halo:pack` region time per byte sent, through
/// `Halo3D::exchange` of a model temperature field on each space. Needs
/// span recording on; the recorded spans move to `sink`.
pub fn halo_pack_ns_per_byte(
    cfg: &ModelConfig,
    opts: &ModelOptions,
    sink: &mut Vec<Span>,
) -> Vec<(&'static str, f64)> {
    const EXCHANGES: usize = 40;
    SPACES
        .iter()
        .map(|&name| {
            let (cfg, opts) = (cfg.clone(), opts.clone());
            let out = World::run(RANKS, move |comm| {
                let tid = spans::set_rank(comm.rank());
                let m = Model::new(comm, cfg.clone(), make_space(name), opts.clone());
                let field = m.state.t[m.state.cur()].clone();
                comm.barrier();
                let b0 = comm.traffic().p2p_bytes;
                comm.barrier();
                let w0 = spans::now_ns();
                for k in 0..EXCHANGES as u64 {
                    m.halo3().exchange(&field, FoldKind::Scalar, 9000 + 16 * k);
                }
                let w1 = spans::now_ns();
                comm.barrier();
                (tid, w0, w1, comm.traffic().p2p_bytes - b0)
            });
            let spans = spans::drain();
            let bytes = out[0].3;
            let pack_ns: u64 = spans
                .iter()
                .filter(|s| s.kind == Kind::Region && s.name == "halo:pack")
                .filter(|s| {
                    out.iter().any(|&(tid, w0, w1, _)| {
                        s.tid == tid && s.start_ns >= w0 && s.start_ns < w1
                    })
                })
                .map(|s| s.dur_ns)
                .sum();
            sink.extend(spans);
            (name, pack_ns as f64 / bytes.max(1) as f64)
        })
        .collect()
}

/// `mpi-sim` ping-pong between two ranks: one-way latency of an 8-byte
/// message in µs and bandwidth of a 1 MiB message in GB/s.
pub fn pingpong() -> (f64, f64) {
    fn round_trips(len: usize, n: usize) -> f64 {
        let out = World::run(2, move |comm| {
            let peer = 1 - comm.rank();
            let mut x = 0.0;
            let mut trip = |comm: &mpi_sim::Comm| {
                if comm.rank() == 0 {
                    comm.send_into(peer, 7, len, |b| b[0] = x);
                    x = comm.recv_into(peer, 8, |b| b[0]) + 1.0;
                } else {
                    let v = comm.recv_into(peer, 7, |b| b[0]);
                    comm.send_into(peer, 8, len, |b| b[0] = v);
                }
            };
            for _ in 0..n / 10 {
                trip(comm);
            }
            comm.barrier();
            let t = Instant::now();
            for _ in 0..n {
                trip(comm);
            }
            t.elapsed().as_secs_f64() / n as f64
        });
        out[0]
    }
    let small = median(&(0..5).map(|_| round_trips(1, 2000)).collect::<Vec<_>>());
    let big_len = (1 << 20) / 8;
    let big = median(&(0..5).map(|_| round_trips(big_len, 40)).collect::<Vec<_>>());
    (small / 2.0 * 1e6, 2.0 * (big_len * 8) as f64 / big / 1e9)
}

/// Checkpoint probe on the Serial space: bytes one save writes across
/// both ranks, and median save and restore times in ms.
pub fn checkpoint(cfg: &ModelConfig, opts: &ModelOptions, dir: &Path) -> (u64, f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let (cfg, opts, d) = (cfg.clone(), opts.clone(), dir.to_path_buf());
    let out = World::run(RANKS, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        m.step();
        let mut ck = CheckpointManager::new(&d, 2);
        ck.save(&m).expect("checkpoint save");
        comm.barrier();
        let bytes: u64 = std::fs::read_dir(&d)
            .expect("checkpoint dir")
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|md| md.len())
            .sum();
        comm.barrier();
        let save: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                spans::api("CheckpointManager::save", || ck.save(&m)).expect("checkpoint save");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let restore: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                spans::api("CheckpointManager::restore_latest_collective", || {
                    ck.restore_latest_collective(&mut m)
                })
                .expect("checkpoint restore");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        (bytes, median(&save), median(&restore))
    });
    let _ = std::fs::remove_dir_all(dir);
    out[0]
}

/// Nanoseconds per `flight::record` call, armed and disabled.
pub fn flight_record_ns() -> (f64, f64) {
    const N: usize = 200_000;
    let out = World::run(1, |comm| {
        let mut i = 0u64;
        let mut rec = || {
            i += 1;
            flight::record(FlightEventKind::KernelBegin, i, 0, 0);
        };
        let disabled = per_call(5, N, &mut rec);
        let _scope = kokkos_profiling::flight::arm(comm, 4096);
        let armed = per_call(5, N, &mut rec);
        (armed * 1e9, disabled * 1e9)
    });
    out[0]
}
