//! Classic solid-body-rotation benchmark for the two-step
//! shape-preserving advection: a Gaussian blob carried once around a
//! rotation center must come back where it started, conserved and
//! bounded, and the limited scheme must beat pure upstream on peak
//! retention and L2 error.

use halo_exchange::{FoldKind, Halo, Strategy3D, HALO as H};
use kokkos_rs::{ListPolicy, Space, View, View3};
use licom::advect::{advect_tracer, FunctorDiagnoseW, FunctorDiagnoseWList};
use licom::localgrid::LocalGrid;
use mpi_sim::{CartComm, World};
use ocean_grid::{Bathymetry, GlobalGrid};

const N: usize = 40;
const DX: f64 = 10_000.0; // uniform 10 km Cartesian-ish grid

struct Setup {
    grid: LocalGrid,
    halo: Halo,
}

fn setup(comm: &mpi_sim::Comm) -> Setup {
    let global = GlobalGrid::build(N, N, 2, &Bathymetry::Flat(4000.0), false);
    let cart = CartComm::new(comm.clone(), 1, 1, true);
    let halo = Halo::new(&cart, N, N).with_strategy(Strategy3D::Transpose);
    let grid = LocalGrid::build(&global, &halo);
    // Make the metric uniform so solid-body rotation is exact geometry.
    for jl in 0..grid.pj {
        grid.dxt.set_at(jl, DX);
    }
    let mut grid = grid;
    grid.dyt = DX;
    // Uniform 2000 m layers: the default stretched levels give a 5 m
    // surface layer whose vertical CFL would be violated by even the
    // tiny spurious w of the taper band.
    grid.dz.set_at(0, 2000.0);
    grid.dz.set_at(1, 2000.0);
    grid.z_t.set_at(0, 1000.0);
    grid.z_t.set_at(1, 3000.0);
    Setup { halo, grid }
}

fn gaussian(j: f64, i: f64, cj: f64, ci: f64) -> f64 {
    let r2 = ((j - cj).powi(2) + (i - ci).powi(2)) / 9.0;
    (-r2).exp()
}

/// Run one full revolution; return (field, mass0, mass1).
fn revolve(limited: bool) -> (Vec<f64>, f64, f64, Vec<f64>) {
    World::run(1, move |comm| {
        let s = setup(comm);
        let g = &s.grid;
        let d3 = [2, g.pj, g.pi];
        let q: View3<f64> = View::host("q", d3);
        let tmp: View3<f64> = View::host("tmp", d3);
        let out: View3<f64> = View::host("out", d3);
        let flux: View3<f64> = View::host("flux", d3);
        let u: View3<f64> = View::host("u", d3);
        let v: View3<f64> = View::host("v", d3);
        let w: View3<f64> = View::host("w", [3, g.pj, g.pi]);

        // Rotation center at the domain center; blob off-center.
        let (c, blob) = (
            N as f64 / 2.0 - 0.5 + H as f64,
            N as f64 / 2.0 - 0.5 + H as f64 - 8.0,
        );
        let omega = 1.0e-5; // rad/s
                            // Taper the rotation smoothly to rest near the domain edges so
                            // the periodic seam and tripolar fold see zero flow (the solid
                            // body is not globally periodic); the blob orbits inside the
                            // rigidly rotating core.
        let taper1 = |p: f64, lo: f64, hi: f64| -> f64 {
            let d = (p - lo).min(hi - p);
            (d / 6.0).clamp(0.0, 1.0).powi(2)
        };
        for jl in 0..g.pj {
            for il in 0..g.pi {
                let tp = taper1(jl as f64, H as f64, (H + N) as f64 - 1.0)
                    * taper1(il as f64, H as f64, (H + N) as f64 - 1.0);
                for k in 0..2 {
                    q.set_at(k, jl, il, gaussian(jl as f64, il as f64, c, blob));
                    // Corner (jl, il) sits at (+1/2, +1/2) from the center.
                    let y = (jl as f64 + 0.5 - c) * DX;
                    let x = (il as f64 + 0.5 - c) * DX;
                    u.set_at(k, jl, il, -omega * y * tp);
                    v.set_at(k, jl, il, omega * x * tp);
                }
            }
        }
        let initial = q.to_vec();
        // Diagnose w (solid body is divergence-free → w ≈ 0).
        let wet_cols = ListPolicy::new(g.wet.cols_own.indices.clone());
        let wf = FunctorDiagnoseWList {
            f: FunctorDiagnoseW {
                u: u.clone(),
                v: v.clone(),
                w: w.clone(),
                kmt: g.kmt.clone(),
                dxt: g.dxt.clone(),
                dyt: g.dyt,
                dz: g.dz.clone(),
                nz: 2,
            },
            pi: g.pi,
        };
        kokkos_rs::parallel_for_list(&Space::serial(), &wet_cols, &wf);
        // In the rigid core the discrete divergence vanishes exactly; the
        // edge taper leaves a small residual w there. This test isolates
        // the *horizontal* rotation, so zero w (the z-pass and the
        // surface dilution flux are covered by the conservation tests).
        w.fill(0.0);
        // dz-weighted mass over BOTH layers: vertical advection moves
        // tracer between them, only the column total is conserved.
        let mass = |f: &View3<f64>| -> f64 {
            let mut m = 0.0;
            for jl in H..H + g.ny {
                for il in H..H + g.nx {
                    for k in 0..2 {
                        m += f.at(k, jl, il) * g.dz.at(k);
                    }
                }
            }
            m
        };
        let mass0 = mass(&q);
        // Full revolution: omega * dt * steps = 2π; CFL ≈ omega*R*dt/dx.
        let dt = 2000.0; // max CFL ≈ 1e-5 * 20e4 m * 2000 / 1e4 = 0.4
        let steps = (2.0 * std::f64::consts::PI / (omega * dt)).round() as usize;
        for _ in 0..steps {
            s.halo.exchange(&q, FoldKind::Scalar, 0);
            advect_tracer(
                &Space::serial(),
                g,
                &q,
                &out,
                &tmp,
                &flux,
                &u,
                &v,
                &w,
                dt,
                limited,
                &wet_cols,
                licom::advect::TmpExchange::Blocking(&|t| {
                    s.halo.exchange(t, FoldKind::Scalar, 10);
                    Ok(())
                }),
            )
            .unwrap();
            q.copy_from_slice(out.as_slice());
        }
        let mass1 = mass(&q);
        (q.to_vec(), mass0, mass1, initial)
    })
    .pop()
    .unwrap()
}

fn l2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[test]
fn solid_body_rotation_returns_the_blob() {
    let (limited, m0, m1, initial) = revolve(true);
    let (upstream, _, _, _) = revolve(false);

    // Conservation (interior only; the blob never touches boundaries).
    assert!(((m1 - m0) / m0).abs() < 1e-6, "mass drift {m0} -> {m1}");
    // Bounds: no new extrema beyond tiny compressibility slack.
    let max = limited.iter().cloned().fold(f64::MIN, f64::max);
    let min = limited.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max <= 1.0 + 1e-3, "overshoot {max}");
    assert!(min >= -1e-3, "undershoot {min}");

    // Accuracy: the limited scheme must beat pure upstream by a clear
    // margin after a full revolution.
    let err_limited = l2(&limited, &initial);
    let err_upstream = l2(&upstream, &initial);
    assert!(
        err_limited < 0.8 * err_upstream,
        "limited {err_limited} vs upstream {err_upstream}"
    );
    // Peak retention: the two-step scheme keeps a recognizable blob.
    let peak = max;
    assert!(peak > 0.35, "blob too diffused: peak {peak}");
}
