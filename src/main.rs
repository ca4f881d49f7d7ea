//! `licomkpp` — command-line driver for the LICOMK++ reproduction.
//!
//! ```text
//! licomkpp run [--config 100km|10km|2km|1km] [--scale N] [--nz N]
//!              [--backend serial|threads|devicesim|swathread]
//!              [--ranks N] [--days D] [--bathy earth|aqua]
//!              [--restart-dir DIR]        resume if present, save at end
//!                                         (a one-slot checkpoint ring)
//!              [--history FILE.csv]       daily global diagnostics
//! licomkpp project [--config ...] [--machine orise|sunway|v100|taishan]
//!                  [--devices a,b,c]      full-scale SYPD projection
//! licomkpp info                           build/backends/config summary
//! ```

use std::collections::HashMap;
use std::path::PathBuf;

use licomkpp::grid::{Bathymetry, Resolution};
use licomkpp::kokkos::Space;
use licomkpp::model::{CheckpointManager, Model, ModelOptions};
use licomkpp::mpi::World;
use licomkpp::perf::{calibration, project, Machine, ProblemSpec, SunwayVariant};

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let val = args.get(i + 1).cloned().unwrap_or_default();
            out.insert(key.to_string(), val);
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn resolution(name: &str) -> Resolution {
    match name {
        "100km" => Resolution::Coarse100km,
        "10km" => Resolution::Eddy10km,
        "2km" => Resolution::Km2FullDepth,
        "1km" => Resolution::Km1,
        other => {
            eprintln!("unknown config '{other}' (100km|10km|2km|1km)");
            std::process::exit(2);
        }
    }
}

fn cmd_run(flags: HashMap<String, String>) {
    let res = resolution(flags.get("config").map(String::as_str).unwrap_or("100km"));
    let scale: usize = flags.get("scale").and_then(|s| s.parse().ok()).unwrap_or(4);
    let nz: usize = flags.get("nz").and_then(|s| s.parse().ok()).unwrap_or(12);
    let ranks: usize = flags.get("ranks").and_then(|s| s.parse().ok()).unwrap_or(1);
    let days: f64 = flags
        .get("days")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let backend = flags
        .get("backend")
        .map(String::as_str)
        .unwrap_or("threads");
    let Some(space_name) = Space::from_name(backend).map(|s| s.name()) else {
        eprintln!("unknown backend '{backend}'");
        std::process::exit(2);
    };
    let mut opts = ModelOptions::default();
    if flags.get("bathy").map(String::as_str) == Some("aqua") {
        opts.bathymetry = Bathymetry::Flat(4000.0);
    }
    let restart_dir = flags.get("restart-dir").map(PathBuf::from);
    let history = flags.get("history").map(PathBuf::from);
    let cfg = res.config().scaled_down(scale, nz);
    println!(
        "LICOMK++ run: {} scaled to {}x{}x{}, backend {}, {ranks} rank(s), {days} day(s)",
        cfg.name, cfg.nx, cfg.ny, cfg.nz, space_name
    );
    World::run(ranks, move |comm| {
        // Each rank builds its own space: on SwAthread that is its own
        // core group, as each MPI rank drives its own CG on Sunway.
        let space = Space::from_name(backend).expect("backend name checked above");
        let mut m = Model::new(comm, cfg.clone(), space, opts.clone());
        // Restarts are a one-slot checkpoint ring: every field is
        // CRC-verified and all ranks agree on the step they resume from.
        if let Some(dir) = &restart_dir {
            match CheckpointManager::new(dir, 1).restore_latest_collective(&mut m) {
                Ok(step) => {
                    if comm.rank() == 0 {
                        println!("resumed from {dir:?} at step {step}");
                    }
                }
                Err(e) => {
                    if comm.rank() == 0 {
                        println!("no restart loaded ({e}); starting fresh");
                    }
                }
            }
        }
        let stats = if let Some(hpath) = &history {
            // Sample the history once per simulated day.
            let mut h = licomkpp::model::history::HistoryWriter::create(&m, hpath)
                .expect("history create failed");
            let per_day = m.cfg.steps_per_day();
            let whole_days = days.floor() as usize;
            let t0 = std::time::Instant::now();
            for _ in 0..whole_days.max(1) {
                m.run_steps(per_day);
                h.sample(&m).expect("history write failed");
            }
            let wall = t0.elapsed().as_secs_f64();
            let sim_days = (whole_days.max(1) * per_day) as f64 * m.cfg.dt_baroclinic / 86_400.0;
            licomkpp::model::StepStats {
                steps: (whole_days.max(1) * per_day) as u64,
                simulated_days: sim_days,
                wall_seconds: wall,
                sypd: (sim_days / 365.0) / (wall / 86_400.0),
            }
        } else {
            m.run_days(days)
        };
        if let Some(dir) = &restart_dir {
            CheckpointManager::new(dir, 1)
                .save(&m)
                .expect("restart write failed");
        }
        if comm.rank() == 0 {
            let d = m.diagnostics();
            println!(
                "\n{:.3} SYPD ({} steps in {:.2} s wall)",
                stats.sypd, stats.steps, stats.wall_seconds
            );
            println!(
                "mean SST {:.2} C, max |u| {:.3} m/s, KE {:.3e}",
                d.mean_sst, d.max_speed, d.kinetic_energy
            );
            println!("\nper-kernel timers:\n{}", m.timers.report());
        }
        assert!(!m.state.has_nan(), "non-finite state at end of run");
    });
}

fn cmd_project(flags: HashMap<String, String>) {
    let res = resolution(flags.get("config").map(String::as_str).unwrap_or("1km"));
    let machine = match flags.get("machine").map(String::as_str).unwrap_or("orise") {
        "sunway" => Machine::sunway_cg(),
        "v100" => Machine::v100(),
        "taishan" => Machine::taishan(),
        _ => Machine::orise(),
    };
    let devices: Vec<usize> = flags
        .get("devices")
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![4000, 8000, 16000]);
    let cfg = res.config();
    let spec = ProblemSpec::from_config(&cfg)
        .with_multiplier(calibration::cost_multiplier(&cfg.name, machine.name));
    println!("projection: {} on {}", cfg.name, machine.name);
    println!("{:>10} {:>10} {:>14}", "devices", "SYPD", "t/step (ms)");
    for d in devices {
        let p = project(&spec, &machine, d, SunwayVariant::Optimized);
        println!("{:>10} {:>10.3} {:>14.2}", d, p.sypd, p.t_step * 1e3);
    }
}

fn cmd_info() {
    println!("licomkpp {} — LICOMK++ reproduction", licomkpp::VERSION);
    println!("\nexecution spaces:");
    for (name, desc) in licomkpp::kokkos::supported_backends() {
        println!("  {name:<12} {desc}");
    }
    println!("\nconfigurations (Table III):");
    for r in Resolution::ALL {
        let c = r.config();
        println!(
            "  {:<12} {} x {} x {} ({:.1e} pts)",
            c.name,
            c.nx,
            c.ny,
            c.nz,
            c.grid_points() as f64
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(parse_flags(&args[1..])),
        Some("project") => cmd_project(parse_flags(&args[1..])),
        Some("info") | None => cmd_info(),
        Some(other) => {
            eprintln!("unknown command '{other}' (run|project|info)");
            std::process::exit(2);
        }
    }
}
