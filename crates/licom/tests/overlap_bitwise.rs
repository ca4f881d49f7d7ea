//! Overlap-engine bitwise identity: interior/rim kernel splits plus the
//! carried (begin/poll/finish) halo exchanges must reproduce the dense
//! blocking schedule bit-for-bit — on every execution space, across rank
//! counts and grid scales, and under injected communication faults with
//! rollback-and-replay recovery.
#![allow(clippy::field_reassign_with_default, clippy::type_complexity)]

use licom::checkpoint::{CheckpointManager, RecoveryPolicy};
use licom::model::{Model, ModelOptions};
use mpi_sim::RetryPolicy;
use mpi_sim::{FaultKind, FaultPlan, FaultRule, MatchSpec, World};
use ocean_grid::Resolution;
use proptest::prelude::*;

fn cfg() -> ocean_grid::ModelConfig {
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

/// Golden per-rank `Model::checksum()` after 3 steps of `cfg()` on 3 ranks
/// (px = 3: ranks 0 and 2 fold onto each other, rank 1 onto itself),
/// recorded with the separate 2-D and 3-D halo engines that preceded the
/// single `Halo` engine, on x86_64-linux-gnu (the model calls libm, so
/// other targets may differ in the last bits).
const CHECKSUM_3_RANKS: [u64; 3] = [
    0x1888_d02f_f514_9193,
    0xfc03_17eb_f409_6a33,
    0xec26_4b5f_4ed0_5581,
];

fn spaces() -> Vec<(&'static str, fn() -> kokkos_rs::Space)> {
    vec![
        ("Serial", || kokkos_rs::Space::serial()),
        ("Threads", || kokkos_rs::Space::threads()),
        ("DeviceSim", || kokkos_rs::Space::device_sim()),
        ("SwAthread", || {
            kokkos_rs::Space::sw_athread_with(sunway_sim::CgConfig::test_small())
        }),
    ]
}

/// Tentpole acceptance: overlap=true (split kernels, carried exchanges,
/// batched barotropic pipeline) equals overlap=false (dense blocking
/// schedule) bitwise on all four execution spaces, multi-rank. Every
/// converted kernel — advection y-pass, tracer hdiff, momentum tendency,
/// barotropic eta/velocity substeps — runs inside this step.
#[test]
fn overlap_matches_dense_bitwise_on_all_spaces() {
    for (name, mk) in spaces() {
        let checksums = |overlap: bool| -> Vec<u64> {
            World::run(3, move |comm| {
                let mut opts = ModelOptions::default();
                opts.overlap = overlap;
                let mut m = Model::new(comm, cfg(), mk(), opts);
                m.run_steps(3);
                m.checksum()
            })
        };
        let dense = checksums(false);
        assert_eq!(
            dense,
            checksums(true),
            "overlap diverged from dense on {name}"
        );
        assert_eq!(
            dense, CHECKSUM_3_RANKS,
            "{name} moved off the recorded checksum"
        );
    }
}

/// Single rank exercises the fold-self / closed-boundary early-Done path
/// of the split-phase exchange (no neighbours to wait on).
#[test]
fn overlap_matches_dense_bitwise_single_rank() {
    let checksum = |overlap: bool| -> u64 {
        World::run(1, move |comm| {
            let mut opts = ModelOptions::default();
            opts.overlap = overlap;
            let mut m = Model::new(comm, cfg(), kokkos_rs::Space::serial(), opts);
            m.run_steps(4);
            m.checksum()
        })
        .pop()
        .unwrap()
    };
    assert_eq!(checksum(false), checksum(true));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized grid scale, depth, and step count: the split schedule
    /// must stay bitwise identical to the dense one. Divisors are chosen
    /// so 3 ranks always divide the column count (360/d).
    #[test]
    fn prop_overlap_split_is_bitwise(
        div_ix in 0usize..3,
        levels in 4usize..7,
        steps in 1usize..4,
        ranks_ix in 0usize..2,
    ) {
        let div = [6usize, 8, 10][div_ix];
        let ranks = [1usize, 3][ranks_ix];
        let c = Resolution::Coarse100km.config().scaled_down(div, levels);
        let run = |overlap: bool| -> Vec<u64> {
            let c = c.clone();
            World::run(ranks, move |comm| {
                let mut opts = ModelOptions::default();
                opts.overlap = overlap;
                let mut m = Model::new(comm, c.clone(), kokkos_rs::Space::serial(), opts);
                m.run_steps(steps);
                m.checksum()
            })
        };
        prop_assert_eq!(run(false), run(true));
    }
}

/// Overlap mode under fault injection: a recoverable drop (healed by
/// escrow resend inside the retry loop) and an unrecoverable drop
/// (rollback to the last CRC-verified checkpoint, then replay) on the
/// overlap-engine tag range must both converge to the clean dense
/// checksum. FrameSeq stamping makes replayed split-phase traffic
/// bit-identical, so recovery composes with carried exchanges.
#[test]
fn overlap_survives_faults_bitwise() {
    let run = |overlap: bool, plan: Option<FaultPlan>, dir_tag: &str| -> Vec<u64> {
        let dir = std::env::temp_dir().join(format!("licom_overlap_fault_{dir_tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (sums, _traffic) = World::run_faulted(3, plan.unwrap_or_default(), {
            let dir = dir.clone();
            move |comm| {
                let mut opts = ModelOptions::default();
                opts.overlap = overlap;
                opts.retry = RetryPolicy::test_small();
                let mut mgr = CheckpointManager::new(&dir, 3);
                let mut m = Model::new(comm, cfg(), kokkos_rs::Space::serial(), opts);
                let policy = RecoveryPolicy {
                    checkpoint_every: 3,
                    max_rollbacks: 8,
                };
                m.run_steps_resilient(8, &mut mgr, &policy)
                    .expect("fault plan must be survivable");
                m.checksum()
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
        sums
    };
    let clean_dense = run(false, None, "clean_dense");

    // Recoverable drops aimed at the overlap tag range (barotropic 500s,
    // velocity/tracer/asselin 800s).
    let recoverable = FaultPlan::new(7).rule(
        FaultRule::new(
            FaultKind::Drop { recoverable: true },
            MatchSpec::any().src(1).tags(500, 870).epochs(2, 4),
        )
        .max_hits(2),
    );
    assert_eq!(
        clean_dense,
        run(true, Some(recoverable), "recoverable"),
        "overlap + recoverable drop diverged from clean dense"
    );

    // Unrecoverable drop: forces rollback-and-replay through the overlap
    // schedule. The replayed steps must reproduce the clean result.
    let rollback = FaultPlan::new(13).rule(
        FaultRule::new(
            FaultKind::Drop { recoverable: false },
            MatchSpec::any().src(0).tags(500, 870).epochs(5, 6),
        )
        .max_hits(1),
    );
    assert_eq!(
        clean_dense,
        run(true, Some(rollback), "rollback"),
        "overlap + rollback/replay diverged from clean dense"
    );
}
