//! Workspace-level integration tests: the whole stack through the
//! `licomkpp` facade — portability, determinism, decomposition
//! invariance, and the paper-headline numbers.
#![allow(clippy::field_reassign_with_default)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use licomkpp::grid::{Bathymetry, Resolution};
use licomkpp::kokkos::profiling as kprof;
use licomkpp::kokkos::{KernelId, KernelInfo, ProfilingHooks, Space};
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::World;

fn small_cfg() -> licomkpp::grid::ModelConfig {
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

// Golden `Model::checksum()` values after 3 steps of `small_cfg()`,
// recorded with the separate 2-D and 3-D halo engines that preceded the
// single `Halo` engine. Every execution space and every halo option
// reproduced them, so a halo bug that all spaces share still shows here.
// The model calls libm (`sin`/`cos`/`exp`); the values were recorded on
// x86_64-linux-gnu and other targets may differ in the last bits.

/// One rank: px = 1, so the zonal wrap and the north fold are self-copies.
const CHECKSUM_1_RANK: u64 = 0x0b64_9b14_eb4b_adda;
/// Three ranks, px = 3: ranks 0 and 2 are each other's fold partner,
/// rank 1 folds onto itself.
const CHECKSUM_3_RANKS: [u64; 3] = [
    0x1888_d02f_f514_9193,
    0xfc03_17eb_f409_6a33,
    0xec26_4b5f_4ed0_5581,
];

/// The wet-fraction bench's "land70" world: a rectangular basin that
/// leaves 67% of `small_cfg()`'s columns dry on one rank (44–78% per rank
/// on three).
fn land70_basin() -> Bathymetry {
    Bathymetry::Basin {
        lon0: 72.0,
        lon1: 288.0,
        lat0: -45.0,
        lat1: 45.0,
        depth: 4000.0,
    }
}

/// Golden checksums of the land70 basin after 3 steps of `small_cfg()`,
/// recorded (x86_64-linux-gnu) when the dense masked launches still
/// existed and matched the wet-list launches bitwise on all four spaces.
const CHECKSUM_LAND70_1_RANK: u64 = 0x1550_4b6f_d8d0_5c58;
const CHECKSUM_LAND70_3_RANKS: [u64; 3] = [
    0x4b7a_a55c_326c_b088,
    0x53f4_9831_0a7a_e957,
    0xe04e_ade2_8ce4_236c,
];

#[test]
fn facade_full_pipeline_runs() {
    let cfg = small_cfg();
    World::run(1, |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::threads(), ModelOptions::default());
        let stats = m.run_days(0.1);
        assert!(stats.sypd > 0.0);
        assert!(!m.state.has_nan());
    });
}

#[test]
fn two_fresh_models_are_deterministic() {
    let cfg = small_cfg();
    let run = || {
        World::run(1, |comm| {
            let mut m = Model::new(comm, cfg.clone(), Space::serial(), ModelOptions::default());
            m.run_steps(4);
            m.checksum()
        })
        .pop()
        .unwrap()
    };
    assert_eq!(run(), run(), "same config must reproduce bitwise");
}

#[test]
fn all_four_backends_bitwise_identical_through_facade() {
    let cfg = small_cfg();
    let mut sums = Vec::new();
    for name in ["Serial", "Threads", "DeviceSim"] {
        let cfg = cfg.clone();
        let space = Space::from_name(name).unwrap();
        sums.push(
            World::run(1, move |comm| {
                let mut m = Model::new(comm, cfg.clone(), space.clone(), ModelOptions::default());
                m.run_steps(3);
                m.checksum()
            })
            .pop()
            .unwrap(),
        );
    }
    // SwAthread with a small simulated CG.
    {
        let cfg = cfg.clone();
        let space = Space::sw_athread_with(licomkpp::sunway::CgConfig::test_small());
        sums.push(
            World::run(1, move |comm| {
                let mut m = Model::new(comm, cfg.clone(), space.clone(), ModelOptions::default());
                m.run_steps(3);
                m.checksum()
            })
            .pop()
            .unwrap(),
        );
    }
    assert!(
        sums.iter().all(|&s| s == sums[0]),
        "backends diverged: {sums:x?}"
    );
    assert_eq!(sums[0], CHECKSUM_1_RANK, "moved off the recorded checksum");
}

#[test]
fn pooled_launches_match_serial_bitwise() {
    // A lone rank gets every core, and at 90 x 54 x 6 each 3-D launch
    // spans ~29k iterations, past the size under which host launches run
    // inline: Threads and DeviceSim tiles run on executor workers here,
    // which `small_cfg()`'s ~7k-iteration launches and the 3-rank goldens
    // (one core per rank on small hosts) never do.
    let cfg = Resolution::Coarse100km.config().scaled_down(4, 6);
    for overlap in [false, true] {
        let run = |space: Space| {
            let cfg = cfg.clone();
            World::run(1, move |comm| {
                let mut opts = ModelOptions::default();
                opts.overlap = overlap;
                let claimed = licomkpp::kokkos::executor::claimed_by_this_thread();
                let mut m = Model::new(comm, cfg.clone(), space.clone(), opts);
                m.run_steps(3);
                let claimed = licomkpp::kokkos::executor::claimed_by_this_thread() - claimed;
                (m.checksum(), claimed)
            })
            .pop()
            .unwrap()
        };
        let (want, _) = run(Space::serial());
        for space in [Space::threads(), Space::device_sim()] {
            let name = space.name();
            let (got, claimed) = run(space);
            assert_eq!(got, want, "{name} diverged from Serial (overlap={overlap})");
            if licomkpp::kokkos::executor::cores() > 1 {
                assert!(claimed > 0, "{name} never handed a launch to a worker");
            }
        }
    }
}

#[test]
fn halo_options_reproduce_recorded_checksums() {
    // The halo switches the paper's ablations need change the schedule,
    // never a bit: blocking vs overlapped, batched vs per-field messages,
    // and both strip buffer orders, with and without a remote fold partner.
    type Tweak = fn(&mut ModelOptions);
    let variants: [(&str, Tweak); 4] = [
        ("default", |_| {}),
        ("overlap=false", |o| o.overlap = false),
        ("overlap=false batched_halo=false", |o| {
            o.overlap = false;
            o.batched_halo = false;
        }),
        ("HorizontalMajor", |o| {
            o.halo_strategy = licomkpp::halo::Strategy3D::HorizontalMajor
        }),
    ];
    for (name, set) in variants {
        for (ranks, want) in [(1, &[CHECKSUM_1_RANK][..]), (3, &CHECKSUM_3_RANKS[..])] {
            let mut opts = ModelOptions::default();
            set(&mut opts);
            let sums = World::run(ranks, move |comm| {
                let mut m = Model::new(comm, small_cfg(), Space::serial(), opts.clone());
                m.run_steps(3);
                m.checksum()
            });
            assert_eq!(sums, want, "{name} on {ranks} rank(s): {sums:x?}");
        }
    }
}

#[test]
fn land70_basin_reproduces_recorded_checksums_on_all_backends() {
    // The hot masked kernels launch only over packed wet-point lists, so
    // a land-heavy world is where a wrong list would show. The goldens
    // were recorded while a dense masked launch still existed, with the
    // dense and wet-list paths equal on every space and rank count.
    type MakeSpace = fn() -> Space;
    let spaces: [(&str, MakeSpace); 4] = [
        ("Serial", Space::serial),
        ("Threads", Space::threads),
        ("DeviceSim", Space::device_sim),
        ("SwAthread", || {
            Space::sw_athread_with(licomkpp::sunway::CgConfig::test_small())
        }),
    ];
    for (name, mk) in spaces {
        for (ranks, want) in [
            (1, &[CHECKSUM_LAND70_1_RANK][..]),
            (3, &CHECKSUM_LAND70_3_RANKS[..]),
        ] {
            let sums = World::run(ranks, move |comm| {
                let mut opts = ModelOptions::default();
                opts.bathymetry = land70_basin();
                let mut m = Model::new(comm, small_cfg(), mk(), opts);
                m.run_steps(3);
                m.checksum()
            });
            assert_eq!(sums, want, "land70 on {name}, {ranks} rank(s): {sums:x?}");
        }
    }
}

#[test]
fn decomposition_does_not_change_global_physics() {
    // 1-rank vs 3-rank global heat content after identical steps.
    let cfg = small_cfg();
    let heat = |ranks: usize| {
        let cfg = cfg.clone();
        World::run(ranks, move |comm| {
            let mut m = Model::new(comm, cfg.clone(), Space::serial(), ModelOptions::default());
            m.run_steps(3);
            m.global_heat_content()
        })
        .pop()
        .unwrap()
    };
    let h1 = heat(1);
    let h3 = heat(3);
    assert!(
        ((h1 - h3) / h1).abs() < 1e-12,
        "decomposition changed heat content: {h1} vs {h3}"
    );
}

#[test]
fn aquaplanet_and_basin_worlds_run() {
    for bathy in [
        Bathymetry::Flat(4000.0),
        Bathymetry::Basin {
            lon0: 40.0,
            lon1: 320.0,
            lat0: -50.0,
            lat1: 60.0,
            depth: 3000.0,
        },
    ] {
        let mut opts = ModelOptions::default();
        opts.bathymetry = bathy;
        let cfg = small_cfg();
        World::run(1, move |comm| {
            let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
            m.run_steps(4);
            assert!(!m.state.has_nan());
        });
    }
}

#[test]
fn paper_headline_claims_hold_in_projection() {
    use licomkpp::perf::{project, Machine, ProblemSpec, SunwayVariant};
    let km1 = ProblemSpec::from_config(&Resolution::Km1.config());
    // >1 SYPD at 1 km on both machines — the Gordon Bell headline.
    let orise = project(&km1, &Machine::orise(), 16_000, SunwayVariant::Optimized);
    let sunway = project(
        &km1,
        &Machine::sunway_cg(),
        590_250,
        SunwayVariant::Optimized,
    );
    assert!(orise.sypd > 1.0, "ORISE {}", orise.sypd);
    assert!(sunway.sypd > 1.0, "Sunway {}", sunway.sypd);
    assert!(orise.sypd > sunway.sypd, "ORISE must win (paper §VII-D)");
}

#[test]
fn timers_capture_the_papers_kernel_profile() {
    // The halo-update-heavy barotropic phase must be a dominant cost and
    // advection_tracer must lead the 3-D kernels (§V-C2).
    // Each timer opens a profiling region of its name; the kernel
    // iterations launched inside those regions weigh the phases the same
    // on a loaded host as on an idle one, which their wall-clock seconds
    // do not.
    let cfg = small_cfg();
    World::run(1, |comm| {
        let work = Arc::new(RegionWork::default());
        let key = kprof::next_instance_key();
        kprof::register_instance_hooks(key, work.clone());
        let scope = kprof::enter_instance(key);
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), ModelOptions::default());
        m.run_steps(10);
        drop(scope);
        kprof::unregister_instance_hooks(key);
        let barotropic = m.timers.seconds("barotropic");
        let advection = m.timers.seconds("advection_tracer");
        let eos = m.timers.seconds("eos");
        assert!(barotropic > 0.0 && advection > 0.0 && eos > 0.0);
        assert!(
            work.items("barotropic") > work.items("eos"),
            "barotropic (the halo bottleneck) should outweigh pointwise EOS"
        );
        assert_eq!(m.timers.calls("advection_tracer"), 10);
    });
}

/// Kernel iterations launched while each profiling region was open. A
/// kernel counts toward every region around it, as nested region timers
/// do.
#[derive(Default)]
struct RegionWork {
    open: Mutex<Vec<&'static str>>,
    items: Mutex<HashMap<&'static str, u64>>,
}

impl RegionWork {
    fn items(&self, region: &str) -> u64 {
        self.items.lock().unwrap().get(region).copied().unwrap_or(0)
    }

    fn add(&self, n: u64) {
        let mut items = self.items.lock().unwrap();
        for &region in self.open.lock().unwrap().iter() {
            *items.entry(region).or_default() += n;
        }
    }
}

impl ProfilingHooks for RegionWork {
    fn begin_parallel_for(&self, _: KernelId, info: &KernelInfo) {
        self.add(info.work_items);
    }
    fn begin_parallel_reduce(&self, _: KernelId, info: &KernelInfo) {
        self.add(info.work_items);
    }
    fn push_region(&self, name: &'static str) {
        self.open.lock().unwrap().push(name);
    }
    fn pop_region(&self, _: &'static str) {
        self.open.lock().unwrap().pop();
    }
}
