//! Ablation — each optimization of §V, measured on the real model, plus
//! the full-scale optimized-vs-original projection (§VII-C: 2.7× at
//! 2 km, 3.9× at 1 km on Sunway).
//!
//! Measured locally (wall-clock of the real mini-model / simulated-Sunway
//! cycle counts):
//!
//! 1. **canuto load balancing** (Fig. 4): rectangle launch vs packed
//!    wet-column list — CPE busy-cycle balance from the simulated CG
//!    counters, plus wall time;
//! 2. **3-D halo transposes** (Fig. 5): horizontal-major vs transpose
//!    strategy, identical results, message volume unchanged;
//! 3. **batched pack/unpack**: message count reduction;
//! 4. **communication overlap**: wall time with/without.

use bench::banner;
use halo_exchange::Strategy3D;
use licom::model::{CanutoMode, Model, ModelOptions};
use mpi_sim::World;
use ocean_grid::Resolution;
use perf_model::{project, Machine, ProblemSpec, SunwayVariant};

fn timed(
    cfg: &ocean_grid::ModelConfig,
    ranks: usize,
    opts: ModelOptions,
    steps: usize,
) -> (f64, u64, u64) {
    let cfg = cfg.clone();
    let out = World::run_traced(ranks, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), kokkos_rs::Space::serial(), opts.clone());
        m.run_steps(2);
        let t0 = std::time::Instant::now();
        m.run_steps(steps);
        (t0.elapsed().as_secs_f64(), m.checksum())
    });
    let (results, traffic) = out;
    let wall = results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    (wall, results[0].1, traffic.p2p_messages)
}

fn main() {
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 10);
    let steps = 6;

    banner("Ablation 1 (Fig. 4): canuto load balancing across MPI ranks");
    // The paper's Fig. 4: ranks at sea-land boundaries hold very
    // different ocean-column counts. The cross-rank balancer ships
    // surplus columns' (N², S²) inputs to under-loaded ranks. We run a
    // 6-rank world on the Earth-like planet and report the imbalance the
    // balancer sees and removes — with bitwise-identical coefficients.
    {
        let cfg = cfg.clone();
        let reports = World::run(6, move |comm| {
            let opts = ModelOptions {
                canuto_mode: CanutoMode::List,
                ..ModelOptions::default()
            };
            let m = Model::new(comm, cfg.clone(), kokkos_rs::Space::serial(), opts);
            let c = m.state.cur();
            let fields = licom::canuto::CanutoFields {
                rho: m.state.rho.clone(),
                u: m.state.u[c].clone(),
                v: m.state.v[c].clone(),
                km: m.state.km.clone(),
                kh: m.state.kh.clone(),
                kmt: m.grid.kmt.clone(),
                z_t: m.grid.z_t.clone(),
                nz: m.grid.nz,
            };
            let wet: Vec<i32> = m.grid.wet_columns.to_vec();
            licom::canuto::balanced_cross_rank(comm, &fields, &wet, m.grid.pi)
        });
        println!(
            "{:>6} {:>14} {:>10} {:>10}",
            "rank", "wet columns", "sent", "received"
        );
        for (r, rep) in reports.iter().enumerate() {
            println!(
                "{:>6} {:>14} {:>10} {:>10}",
                r, rep.local_columns, rep.columns_sent, rep.columns_received
            );
        }
        println!(
            "wet-column imbalance (max/mean): {:.2} before -> {:.2} after balancing",
            reports[0].imbalance_before, reports[0].imbalance_after
        );
    }
    // Wall time of the two launch shapes on the host (land columns cost
    // real work in the rectangle launch).
    for mode in [CanutoMode::Rect, CanutoMode::List] {
        let opts = ModelOptions {
            canuto_mode: mode,
            ..ModelOptions::default()
        };
        let (wall, checksum, _) = timed(&cfg, 1, opts, steps);
        println!("{mode:?} launch: {wall:.3} s / {steps} steps (checksum {checksum:x})");
    }
    println!("(identical checksums across all canuto modes)");

    banner("Ablation 2 (Fig. 5): 3-D halo strategy");
    for strategy in [Strategy3D::HorizontalMajor, Strategy3D::Transpose] {
        let opts = ModelOptions {
            halo_strategy: strategy,
            ..ModelOptions::default()
        };
        let (wall, checksum, msgs) = timed(&cfg, 4, opts, steps);
        println!(
            "{strategy:?}: {:.3} s / {steps} steps, {msgs} messages, checksum {checksum:x}",
            wall
        );
    }
    println!("(bitwise-identical results; the transpose pays off on strided-DMA");
    println!(" hardware — see the Criterion bench `halo` and the projection below)");

    banner("Ablation 3: batched multi-field halo messages");
    for batched in [false, true] {
        let opts = ModelOptions {
            batched_halo: batched,
            overlap: false,
            ..ModelOptions::default()
        };
        let (wall, checksum, msgs) = timed(&cfg, 4, opts, steps);
        println!(
            "batched={batched}: {msgs} messages, {:.3} s, checksum {checksum:x}",
            wall
        );
    }

    banner("Ablation 4: communication/computation overlap");
    for overlap in [false, true] {
        let opts = ModelOptions {
            overlap,
            ..ModelOptions::default()
        };
        let (wall, checksum, _) = timed(&cfg, 4, opts, steps);
        println!("overlap={overlap}: {:.3} s, checksum {checksum:x}", wall);
    }

    banner("Ablation 5 (SS V-C2): LDM-scratch team launch for the implicit solves");
    // Run the vertical solves through TeamPolicy on the simulated CG: the
    // tridiagonal work arrays live in LDM. Identical results; the
    // simulated counters show the LDM residency.
    for team in [false, true] {
        let cfg = cfg.clone();
        let (checksum, ldm_high_water) = World::run(1, move |comm| {
            let opts = ModelOptions {
                vmix_team: team,
                ..ModelOptions::default()
            };
            let space = kokkos_rs::Space::sw_athread_with(sunway_sim::CgConfig {
                num_cpes: 16,
                ..sunway_sim::CgConfig::default()
            });
            let mut m = Model::new(comm, cfg.clone(), space.clone(), opts);
            m.run_steps(2);
            let hw = m
                .sunway_counters()
                .map(|c| c.totals.ldm_high_water)
                .unwrap_or(0);
            (m.checksum(), hw)
        })
        .pop()
        .unwrap();
        println!("vmix_team={team}: checksum {checksum:x}, peak LDM residency {ldm_high_water} B");
    }
    println!("(identical checksums; the team launch stages its work arrays in LDM)");

    banner("Full-scale projection: optimized vs original (paper 2.7x / 3.9x)");
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>10} {:>10}",
        "config", "Sunway CGs", "optimized", "original", "speedup", "paper"
    );
    for (res, devices, paper) in [
        (Resolution::Km2FullDepth, 576_000usize, 2.7),
        (Resolution::Km1, 590_250, 3.9),
    ] {
        let spec = ProblemSpec::from_config(&res.config());
        let m = Machine::sunway_cg();
        let opt = project(&spec, &m, devices, SunwayVariant::Optimized);
        let orig = project(&spec, &m, devices, SunwayVariant::Original);
        println!(
            "{:<12} {:>12} {:>11.3} SYPD {:>11.3} SYPD {:>9.2}x {:>9.1}x",
            res.config().name,
            devices,
            opt.sypd,
            orig.sypd,
            opt.sypd / orig.sypd,
            paper
        );
        println!(
            "{:<12} original-time breakdown: serial pack {:.1}%, compute {:.1}%, network {:.1}%",
            "",
            100.0 * orig.t_serial / orig.t_step,
            100.0 * (orig.t_compute3d + orig.t_compute2d) / orig.t_step,
            100.0 * (orig.t_net_bw + orig.t_net_lat) / orig.t_step
        );
    }
}
