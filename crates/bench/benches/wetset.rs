//! Wet-fraction sweep of the packed active-set launches for the hot
//! kernels — EOS (3-D cells + pressure columns), implicit vertical mixing
//! (tracer columns), and the z-advection pass — at nominal 0% / 35% / 70%
//! land fractions, on Serial and Threads.
//!
//! The launches skip land points entirely, so their time should scale
//! with the wet fraction. Measured land fractions per world are printed
//! on stderr at startup; results feed the EXPERIMENTS.md wet-fraction
//! table.
#![allow(clippy::field_reassign_with_default)]

use criterion::{criterion_group, criterion_main, Criterion};
use kokkos_rs::{parallel_for_list, ListPolicy, Space, View, View2};
use licom::advect::{FunctorAdvectZ, FunctorAdvectZList};
use licom::eos::{
    compute_density_pressure_active, FunctorEos, FunctorEosList, FunctorPressure,
    FunctorPressureList,
};
use licom::model::{Model, ModelOptions};
use licom::vmix::{FunctorVmixImplicit, FunctorVmixList};
use mpi_sim::World;
use ocean_grid::{Bathymetry, Resolution};
use std::time::Duration;

/// Nominal-land-fraction worlds: an aquaplanet and two rectangular
/// basins sized so land covers ~35% / ~70% of the grid.
fn worlds() -> Vec<(&'static str, Bathymetry)> {
    vec![
        ("land00", Bathymetry::Flat(4000.0)),
        (
            "land35",
            Bathymetry::Basin {
                lon0: 18.0,
                lon1: 342.0,
                lat0: -65.0,
                lat1: 65.0,
                depth: 4000.0,
            },
        ),
        (
            "land70",
            Bathymetry::Basin {
                lon0: 72.0,
                lon1: 288.0,
                lat0: -45.0,
                lat1: 45.0,
                depth: 4000.0,
            },
        ),
    ]
}

/// Build a 60×36×10 single-rank model on the given world and spin it up
/// for a couple of steps so the benched kernels see non-trivial fields.
fn build_model(bathy: Bathymetry) -> Model {
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 10);
    let mut opts = ModelOptions::default();
    opts.bathymetry = bathy;
    World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        m.run_steps(2);
        m
    })
    .pop()
    .unwrap()
}

fn bench_wetset(c: &mut Criterion) {
    let spaces = [("Serial", Space::serial()), ("Threads", Space::threads())];
    for (world, bathy) in worlds() {
        let m = build_model(bathy);
        let g = &m.grid;
        let land = 1.0 - g.wet.cols_own.indices.len() as f64 / (g.ny * g.nx) as f64;
        eprintln!("{world}: measured land fraction (owned T columns) = {land:.3}");

        // The same policies the model builds once in `Model::new`.
        let cells_pad = ListPolicy::new(g.wet.cells3_pad.indices.clone());
        let cols_pad = ListPolicy::new(g.wet.cols_pad.indices.clone())
            .with_cost_prefix(g.wet.cols_pad.cost_prefix.clone());
        let cols = ListPolicy::new(g.wet.cols_own.indices.clone())
            .with_cost_prefix(g.wet.cols_own.cost_prefix.clone());
        let zero2: View2<f64> = View::host("bench_zero2", [g.pj, g.pi]);

        let mk_eos = || FunctorEos {
            t: m.state.t[0].clone(),
            s: m.state.s[0].clone(),
            rho: m.state.rho.clone(),
        };
        let mk_p = || FunctorPressure {
            rho: m.state.rho.clone(),
            eta: zero2.clone(),
            pressure: m.state.pressure.clone(),
            dz: g.dz.clone(),
            kmt: g.kmt.clone(),
            nz: g.nz,
        };
        // dt = 0 keeps repeated in-place application numerically inert
        // while running the full instruction mix.
        let mk_vmix = || FunctorVmixImplicit {
            q: m.state.t[0].clone(),
            kcoef: m.state.kh.clone(),
            mask: g.kmt.clone(),
            dz: g.dz.clone(),
            z_t: g.z_t.clone(),
            dt: 0.0,
            nz: g.nz,
        };
        let mk_az = || FunctorAdvectZ {
            q: m.state.work.adv_tmp.clone(),
            q1: m.state.work.adv_tmp.clone(),
            w: m.state.w.clone(),
            kmt: g.kmt.clone(),
            dz: g.dz.clone(),
            dt: 0.0,
            nz: g.nz,
            limited: true,
        };

        let mut grp = c.benchmark_group(format!("wetset_eos_{world}"));
        grp.sample_size(20);
        grp.warm_up_time(Duration::from_millis(500));
        grp.measurement_time(Duration::from_secs(4));
        for (sname, space) in &spaces {
            grp.bench_function(format!("active_{sname}"), |b| {
                b.iter(|| {
                    compute_density_pressure_active(
                        space,
                        &cells_pad,
                        &cols_pad,
                        FunctorEosList { f: mk_eos() },
                        FunctorPressureList {
                            f: mk_p(),
                            pi: g.pi,
                        },
                    )
                })
            });
        }
        grp.finish();

        let mut grp = c.benchmark_group(format!("wetset_vmix_{world}"));
        grp.sample_size(20);
        grp.warm_up_time(Duration::from_millis(500));
        grp.measurement_time(Duration::from_secs(4));
        for (sname, space) in &spaces {
            let fl = FunctorVmixList {
                f: mk_vmix(),
                pi: g.pi,
            };
            grp.bench_function(format!("active_{sname}"), |b| {
                b.iter(|| parallel_for_list(space, &cols, &fl))
            });
        }
        grp.finish();

        let mut grp = c.benchmark_group(format!("wetset_advect_z_{world}"));
        grp.sample_size(20);
        grp.warm_up_time(Duration::from_millis(500));
        grp.measurement_time(Duration::from_secs(4));
        for (sname, space) in &spaces {
            let fl = FunctorAdvectZList {
                f: mk_az(),
                pi: g.pi,
            };
            grp.bench_function(format!("active_{sname}"), |b| {
                b.iter(|| parallel_for_list(space, &cols, &fl))
            });
        }
        grp.finish();
    }
}

criterion_group!(benches, bench_wetset);
criterion_main!(benches);
