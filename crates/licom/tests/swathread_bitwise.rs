//! SwAthread bitwise identity: the LDM-tiled, DMA double-buffered CPE
//! dispatch path must reproduce the Serial reference bit-for-bit — for
//! every core-group geometry (CPE count and LDM size drive the Eq. 1/2
//! tile choice, so sweeping configs sweeps tile sizes), with the overlap
//! engine's split schedule on top, and through fault-injected
//! rollback-and-replay. Tiling is a performance knob, never a results
//! knob.
#![allow(clippy::field_reassign_with_default)]

use kokkos_rs::executor;
use licom::checkpoint::{CheckpointManager, RecoveryPolicy};
use licom::model::{Model, ModelOptions};
use mpi_sim::RetryPolicy;
use mpi_sim::{FaultKind, FaultPlan, FaultRule, MatchSpec, World};
use ocean_grid::Resolution;
use proptest::prelude::*;
use sunway_sim::CgConfig;

fn cfg() -> ocean_grid::ModelConfig {
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

/// Core-group geometries spanning the tiling space: tiny LDM (many small
/// tiles, latency-bound), full 256 kB LDM (large tiles), and an uneven
/// 3-CPE cluster (ragged tile-to-CPE assignment, and ragged CPE-to-slot
/// assignment whenever the launch's share gives it two slots).
fn cg_configs() -> Vec<(&'static str, CgConfig)> {
    let mut uneven = CgConfig::test_small();
    uneven.num_cpes = 3;
    uneven.ldm_bytes = 8 * 1024;
    vec![
        ("test_small", CgConfig::test_small()),
        ("bench_full_ldm", CgConfig::bench()),
        ("uneven_3cpe", uneven),
    ]
}

/// Checksums of `steps` steps on `ranks` ranks, and the executor
/// workers the ranks' launches claimed in total.
fn run_checksums(
    ranks: usize,
    space: kokkos_rs::Space,
    overlap: bool,
    steps: usize,
) -> (Vec<u64>, u64) {
    let out = World::run(ranks, move |comm| {
        let mut opts = ModelOptions::default();
        opts.overlap = overlap;
        let claimed = executor::claimed_by_this_thread();
        let mut m = Model::new(comm, cfg(), space.clone(), opts);
        m.run_steps(steps);
        (m.checksum(), executor::claimed_by_this_thread() - claimed)
    });
    let claimed = out.iter().map(|r| r.1).sum();
    (out.into_iter().map(|r| r.0).collect(), claimed)
}

/// Tentpole acceptance: every CG geometry (hence every tile schedule)
/// equals Serial bitwise, dense and with the overlap engine's split
/// kernels + carried exchanges on top. A lone rank owns every core, so
/// its launches deal the CPEs onto `min(num_cpes, cores)` slots run by
/// executor workers; three ranks on a host of fewer than six cores get
/// one slot each.
#[test]
fn swathread_matches_serial_across_cg_geometries() {
    for ranks in [3, 1] {
        for overlap in [false, true] {
            let (want, _) = run_checksums(ranks, kokkos_rs::Space::serial(), overlap, 3);
            for (name, cg) in cg_configs() {
                let space = kokkos_rs::Space::sw_athread_with(cg);
                let (got, claimed) = run_checksums(ranks, space, overlap, 3);
                assert_eq!(
                    want, got,
                    "SwAthread({name}) diverged from Serial ({ranks} ranks, overlap={overlap})"
                );
                if ranks == 1 && executor::cores() > 1 {
                    assert!(claimed > 0, "SwAthread({name}) never used a pooled slot");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized grid scale, depth and step count: whatever tiles the
    /// dispatcher picks for the geometry, SwAthread equals Serial
    /// bitwise. Divisors keep 3 ranks dividing the column count.
    #[test]
    fn prop_swathread_is_bitwise(
        div_ix in 0usize..3,
        levels in 4usize..7,
        steps in 1usize..3,
    ) {
        let div = [6usize, 8, 10][div_ix];
        let c = Resolution::Coarse100km.config().scaled_down(div, levels);
        let run = |space: kokkos_rs::Space| -> Vec<u64> {
            let c = c.clone();
            World::run(3, move |comm| {
                let mut m =
                    Model::new(comm, c.clone(), space.clone(), ModelOptions::default());
                m.run_steps(steps);
                m.checksum()
            })
        };
        let want = run(kokkos_rs::Space::serial());
        let got = run(kokkos_rs::Space::sw_athread_with(CgConfig::test_small()));
        prop_assert_eq!(want, got);
    }
}

/// SwAthread under fault injection: an unrecoverable message drop forces
/// rollback to the last CRC-verified checkpoint and replay *through the
/// CPE dispatch path*. The replayed tile schedules must regenerate the
/// clean Serial result exactly — LDM tiling composes with recovery.
#[test]
fn swathread_rollback_replay_matches_serial() {
    let run = |space: kokkos_rs::Space, plan: Option<FaultPlan>, dir_tag: &str| -> Vec<u64> {
        let dir = std::env::temp_dir().join(format!("licom_swathread_fault_{dir_tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (sums, _traffic) = World::run_faulted(3, plan.unwrap_or_default(), {
            let dir = dir.clone();
            move |comm| {
                let mut opts = ModelOptions::default();
                opts.retry = RetryPolicy::test_small();
                let mut mgr = CheckpointManager::new(&dir, 3);
                let mut m = Model::new(comm, cfg(), space.clone(), opts);
                let policy = RecoveryPolicy {
                    checkpoint_every: 3,
                    max_rollbacks: 8,
                };
                m.run_steps_resilient(6, &mut mgr, &policy)
                    .expect("fault plan must be survivable");
                m.checksum()
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
        sums
    };
    let clean_serial = run(kokkos_rs::Space::serial(), None, "clean_serial");

    let rollback = FaultPlan::new(17).rule(
        FaultRule::new(
            FaultKind::Drop { recoverable: false },
            MatchSpec::any().src(0).epochs(4, 5),
        )
        .max_hits(1),
    );
    let space = kokkos_rs::Space::sw_athread_with(CgConfig::test_small());
    assert_eq!(
        clean_serial,
        run(space, Some(rollback), "rollback"),
        "SwAthread rollback/replay diverged from clean Serial"
    );
}
