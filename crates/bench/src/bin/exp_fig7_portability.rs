//! Fig. 7 — single-node performance portability at 100-km resolution.
//!
//! Part 1 *measures* the real mini-model on all four `kokkos-rs`
//! execution spaces (same binary, same state, runtime backend switch) and
//! verifies the results are **bitwise identical** — portability as a
//! correctness property. `Serial` plays the Fortran-baseline role.
//!
//! Part 2 *projects* the paper's four platforms with the calibrated
//! machine models, reproducing the Kokkos-vs-Fortran speedups
//! (7.08× / 11.42× / 11.45× / 1.03×).

use bench::{banner, deviation_pct};
use licom::model::{Model, ModelOptions};
use mpi_sim::World;
use ocean_grid::Resolution;
use perf_model::{calibration, project, Machine, ProblemSpec, SunwayVariant};

fn main() {
    banner("Fig. 7 (measured): one model binary on four execution spaces");
    // 100-km config scaled /4 so the Sunway-simulated backend finishes
    // quickly; every backend runs the identical configuration.
    let cfg = Resolution::Coarse100km.config().scaled_down(4, 12);
    println!(
        "grid {} x {} x {}, dt {}/{} s\n",
        cfg.nx, cfg.ny, cfg.nz, cfg.dt_barotropic, cfg.dt_baroclinic
    );
    println!(
        "{:<12} {:>12} {:>12} {:>18}",
        "space", "SYPD", "vs Serial", "state checksum"
    );
    let mut reference: Option<u64> = None;
    let mut serial_sypd = None;
    for name in ["Serial", "Threads", "DeviceSim", "SwAthread"] {
        let cfg = cfg.clone();
        let space = if name == "SwAthread" {
            // Small simulated CG so the cycle-accounted backend runs in
            // seconds; results are independent of CG size.
            kokkos_rs::Space::sw_athread_with(sunway_sim::CgConfig {
                num_cpes: 16,
                ..sunway_sim::CgConfig::default()
            })
        } else {
            kokkos_rs::Space::from_name(name).unwrap()
        };
        let (sypd, checksum, gflops) = World::run(1, move |comm| {
            let mut m = Model::new(comm, cfg.clone(), space.clone(), ModelOptions::default());
            m.run_steps(2); // warm-up
            if let kokkos_rs::Space::SwAthread(sw) = &space {
                sw.reset_counters();
            }
            let stats = m.run_days(0.02);
            // Simulated achieved FLOP rate — the analogue of the paper's
            // "14.12 GFLOPS with LICOMK++ ... on a single SW26010 Pro".
            let gflops = m.sunway_counters().map(|c| c.achieved_flops(2.25e9) / 1e9);
            (stats.sypd, m.checksum(), gflops)
        })
        .pop()
        .unwrap();
        let base = *serial_sypd.get_or_insert(sypd);
        println!(
            "{:<12} {:>12.2} {:>11.2}x {:>18x}{}",
            name,
            sypd,
            sypd / base,
            checksum,
            gflops
                .map(|g| format!("   [{g:.1} simulated GFLOPS]"))
                .unwrap_or_default()
        );
        match &reference {
            None => reference = Some(checksum),
            Some(r) => assert_eq!(*r, checksum, "{name} diverged bitwise!"),
        }
    }
    println!("\nAll four backends produced bitwise-identical prognostic state.");

    banner("Fig. 7 (projected): paper platforms, Kokkos vs Fortran");
    let c100 = ProblemSpec::from_config(&Resolution::Coarse100km.config());
    // (platform, kokkos machine+devices, fortran machine+devices,
    //  paper kokkos / fortran SYPD, paper speedup)
    type Case = (&'static str, Machine, usize, Machine, usize, f64, f64, f64);
    let cases: &[Case] = &[
        // (platform, kokkos machine, devices, fortran machine, devices,
        //  paper kokkos SYPD, paper fortran SYPD, paper speedup)
        (
            "GPU workstation",
            Machine::v100(),
            4,
            Machine::v100_fortran_host(),
            1,
            317.73,
            44.9,
            7.08,
        ),
        (
            "ORISE node",
            Machine::orise(),
            4,
            Machine::orise_fortran_host(),
            1,
            180.56,
            15.8,
            11.42,
        ),
        (
            "New Sunway proc",
            Machine::sunway_cg(),
            6,
            Machine::sunway_mpe_fortran(),
            1,
            22.22,
            1.94,
            11.45,
        ),
        (
            "Taishan server",
            Machine::taishan(),
            1,
            Machine::taishan_fortran(),
            1,
            63.01,
            61.2,
            1.03,
        ),
    ];
    println!(
        "{:<17} {:>12} {:>12} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "platform", "Kokkos model", "paper", "dev %", "Fortran mdl", "paper", "speedup", "paper"
    );
    for (name, km, kd, fm, fd, paper_k, paper_f, paper_speedup) in cases {
        let ks = c100
            .clone()
            .with_multiplier(calibration::cost_multiplier("O(100 km)", km.name));
        let fs = c100
            .clone()
            .with_multiplier(calibration::cost_multiplier("O(100 km)", fm.name));
        let k = project(&ks, km, *kd, SunwayVariant::Optimized);
        let f = project(&fs, fm, *fd, SunwayVariant::Optimized);
        println!(
            "{:<17} {:>12.2} {:>12.2} {:>7.0}% {:>12.2} {:>12.2} {:>9.2}x {:>9.2}x",
            name,
            k.sypd,
            paper_k,
            deviation_pct(k.sypd, *paper_k),
            f.sypd,
            paper_f,
            k.sypd / f.sypd,
            paper_speedup
        );
    }
    println!("\npaper GFLOPS note: 14.12 GFLOPS on one SW26010 Pro at 100 km;");
    let s = ProblemSpec::from_config(&Resolution::Coarse100km.config())
        .with_multiplier(calibration::cost_multiplier("O(100 km)", "SW26010 Pro CG"));
    let p = project(&s, &Machine::sunway_cg(), 6, SunwayVariant::Optimized);
    let (flops_pt, _) = s.per_point_cost();
    let gflops = s.wet_points() * flops_pt * s.cost_multiplier / p.t_step / 6.0 / 1e9;
    println!("model: {gflops:.1} GFLOPS per processor equivalent.");
}
