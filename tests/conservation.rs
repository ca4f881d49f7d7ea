//! Physics invariants across crates: tracer conservation and shape
//! preservation of the two-step advection inside the assembled model,
//! and stability of long-ish runs.
#![allow(clippy::field_reassign_with_default)]

use licomkpp::grid::{Bathymetry, ModelConfig};
use licomkpp::halo::FoldKind;
use licomkpp::kokkos::Space;
use licomkpp::model::advect::{advect_tracer, FunctorDiagnoseW, FunctorDiagnoseWList};
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::World;

fn basin_cfg(nx: usize, ny: usize, nz: usize) -> (ModelConfig, ModelOptions) {
    let cfg = ModelConfig {
        name: "basin".into(),
        nx,
        ny,
        nz,
        dt_barotropic: 2.0,
        dt_baroclinic: 20.0,
        dt_tracer: 20.0,
        full_depth: false,
    };
    let mut opts = ModelOptions::default();
    opts.bathymetry = Bathymetry::Basin {
        lon0: 60.0,
        lon1: 300.0,
        lat0: -45.0,
        lat1: 45.0,
        depth: 3000.0,
    };
    (cfg, opts)
}

/// Advect a tracer blob with the model's own machinery in a closed basin
/// and verify exact conservation and bound preservation.
#[test]
fn advection_conserves_and_preserves_bounds_in_closed_basin() {
    let (cfg, opts) = basin_cfg(36, 20, 6);
    World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        // Spin up a flow first so velocities are nontrivial.
        m.run_steps(20);
        let g = &m.grid;
        let c = m.state.cur();
        // Paint a bounded blob into the tracer field (values in [0, 1]).
        let q: licomkpp::kokkos::View3<f64> =
            licomkpp::kokkos::View::host("blob", [g.nz, g.pj, g.pi]);
        for k in 0..g.nz {
            for jl in 0..g.pj {
                for il in 0..g.pi {
                    // Blob below the surface layer: interface 0 carries
                    // the free-surface dilution flux, so only interior
                    // interfaces (which telescope exactly) see the blob.
                    let v =
                        if (8..14).contains(&jl) && (10..18).contains(&il) && (2..5).contains(&k) {
                            1.0
                        } else {
                            0.0
                        };
                    q.set_at(k, jl, il, v);
                }
            }
        }
        let total = |f: &licomkpp::kokkos::View3<f64>| -> f64 {
            let mut s = 0.0;
            for k in 0..g.nz {
                for jl in 2..2 + g.ny {
                    for il in 2..2 + g.nx {
                        if g.kmt.at(jl, il) as usize > k {
                            s += f.at(k, jl, il) * g.dz.at(k) * g.dxt.at(jl) * g.dyt;
                        }
                    }
                }
            }
            s
        };
        let before = total(&q);
        // Diagnose w from the spun-up flow over the owned wet columns,
        // then advect several steps.
        let wet_cols = licomkpp::kokkos::ListPolicy::new(g.wet.cols_own.indices.clone());
        let w = FunctorDiagnoseWList {
            f: FunctorDiagnoseW {
                u: m.state.u[c].clone(),
                v: m.state.v[c].clone(),
                w: m.state.w.clone(),
                kmt: g.kmt.clone(),
                dxt: g.dxt.clone(),
                dyt: g.dyt,
                dz: g.dz.clone(),
                nz: g.nz,
            },
            pi: g.pi,
        };
        licomkpp::kokkos::parallel_for_list(&m.space, &wet_cols, &w);
        let out: licomkpp::kokkos::View3<f64> =
            licomkpp::kokkos::View::host("blob_out", [g.nz, g.pj, g.pi]);
        for _ in 0..5 {
            // Exchange blob halos with the model's halo engine.
            m.halo3().exchange(&q, FoldKind::Scalar, 900);
            advect_tracer(
                &m.space,
                &m.grid,
                &q,
                &out,
                &m.state.work.adv_tmp,
                &m.state.work.adv_flux,
                &m.state.u[c],
                &m.state.v[c],
                &m.state.w,
                cfg.dt_tracer,
                true,
                &wet_cols,
                licomkpp::model::advect::TmpExchange::Blocking(&|tmp| {
                    m.halo3().exchange(tmp, FoldKind::Scalar, 910);
                    Ok(())
                }),
            )
            .unwrap();
            // Copy back.
            q.copy_from_slice(out.as_slice());
        }
        let after = total(&q);
        assert!(
            ((after - before) / before).abs() < 1e-6,
            "closed-basin advection must conserve: {before} -> {after}"
        );
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for k in 0..g.nz {
            for jl in 2..2 + g.ny {
                for il in 2..2 + g.nx {
                    if g.kmt.at(jl, il) as usize > k {
                        let v = q.at(k, jl, il);
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
            }
        }
        // Dimension splitting makes each 1-D pass see a (slightly)
        // divergent velocity, so bounds are preserved only up to the
        // per-pass compressibility O(dt * |du/dx|) — a few 1e-5 here.
        // A genuinely unlimited scheme overshoots by O(0.1).
        assert!(lo >= -1e-4, "undershoot {lo}");
        assert!(hi <= 1.0 + 1e-3, "overshoot {hi}");
    });
}

/// A longer basin run stays finite and energetically sane.
#[test]
fn hundred_step_basin_run_is_stable() {
    let (cfg, opts) = basin_cfg(30, 16, 5);
    World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        m.run_steps(100);
        assert!(!m.state.has_nan());
        let d = m.diagnostics();
        assert!(d.max_speed < 5.0, "runaway speed {}", d.max_speed);
        assert!(d.mean_sst > -2.0 && d.mean_sst < 35.0);
    });
}

/// Salt content drifts only through the (intentional) surface restoring,
/// not through numerics: with a basin at the restoring target, drift is
/// tiny over many steps.
#[test]
fn salt_inventory_drift_is_bounded() {
    let (cfg, opts) = basin_cfg(30, 16, 5);
    World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        let before = m.diagnostics().salt_content;
        m.run_steps(50);
        let after = m.diagnostics().salt_content;
        let rel = ((after - before) / before).abs();
        assert!(rel < 1e-3, "salt inventory drifted {rel:.2e} in 50 steps");
    });
}
