//! Two-step shape-preserving tracer advection (Yu 1994) —
//! `advection_tracer`, the paper's hottest kernel (§V-C2).
//!
//! The scheme is dimension-split (x → y → z). Each 1-D pass computes
//! flux-form face transports in two conceptual steps:
//!
//! 1. a **monotone upstream** face value (the "shape-preserving"
//!    predictor), then
//! 2. a **limited anti-diffusive correction** — a van-Leer-limited
//!    second-order increment scaled by `(1 − CFL)` — which restores
//!    second-order accuracy wherever the profile is smooth without
//!    creating new extrema (the TVD property tested by the proptests).
//!
//! With `limited = false` only step 1 runs (the diffusive reference the
//! two-step scheme improves on). Fluxes are length-weighted, so each pass
//! conserves the tracer integral exactly in closed basins; the vertical
//! velocity is diagnosed from continuity so the z-pass telescopes to the
//! (zero-flux) surface and bottom boundaries.
//!
//! The kernel reads 3 fields over a ±2 stencil with heavy branching —
//! precisely the "very low computation-to-memory access ratio and
//! severely scattered memory access" profile the paper optimizes with
//! architecture-specific code; the `cost()` hooks carry that profile into
//! the Sunway cycle model.

use kokkos_rs::{
    parallel_for_2d, parallel_for_3d, parallel_for_list, Functor2D, Functor3D, FunctorList,
    IterCost, ListPolicy, MDRangePolicy2, MDRangePolicy3, Space, View1, View2, View3,
};

use halo_exchange::{FoldKind, Halo, HaloError, StepGraph, HALO as H};

use crate::localgrid::LocalGrid;

/// How [`advect_tracer`] refreshes the intermediate field's halos between
/// the x and y passes.
pub enum TmpExchange<'a> {
    /// Blocking refresh — the dense reference schedule.
    Blocking(&'a dyn Fn(&View3<f64>) -> Result<(), HaloError>),
    /// Split-phase refresh: post the exchange after the x pass, compute
    /// the interior rows of the y-pass flux while messages are in flight
    /// (driven by a [`StepGraph`]), then finish and sweep the boundary
    /// rim rows. Bitwise identical to [`TmpExchange::Blocking`]: the rim
    /// and interior partitions are disjoint and each flux cell's inputs
    /// are the same in either schedule.
    Overlap { halo: &'a Halo, tag_base: u64 },
}

/// Van Leer limiter φ(r); φ(r)·dq is evaluated safely for tiny dq.
#[inline]
fn van_leer(r: f64) -> f64 {
    (r + r.abs()) / (1.0 + r.abs())
}

/// Limited face value for donor-cell `qc` with downwind `qd`, upwind
/// `qu` (behind the donor), local CFL `c`.
#[inline]
fn face_value(qu: f64, qc: f64, qd: f64, c: f64, limited: bool) -> f64 {
    if !limited {
        return qc;
    }
    let dq = qd - qc;
    if dq.abs() < 1e-30 {
        return qc;
    }
    let r = (qc - qu) / dq;
    qc + 0.5 * van_leer(r) * (1.0 - c) * dq
}

/// Zonal face transports `F = uf · q_face · dy` at the **east** face of
/// each cell. Iterates `i ∈ 0..nx+1` mapped to `il = i + H - 1` so the
/// west face of the first owned cell is included.
pub struct FunctorFluxX {
    pub q: View3<f64>,
    pub u: View3<f64>,
    pub flux: View3<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dt: f64,
    pub limited: bool,
}

impl Functor3D for FunctorFluxX {
    fn operator(&self, k: usize, j: usize, i: usize) {
        let jl = j + H;
        let il = i + H - 1;
        let ki = k as i32;
        if self.kmt.at(jl, il) <= ki || self.kmt.at(jl, il + 1) <= ki {
            self.flux.set_at(k, jl, il, 0.0);
            return;
        }
        // Face velocity from the two adjacent B-grid corners.
        let uf = 0.5 * (self.u.at(k, jl, il) + self.u.at(k, jl - 1, il));
        let c = (uf.abs() * self.dt / self.dxt.at(jl)).min(1.0);
        let qf = if uf >= 0.0 {
            face_value(
                self.q.at(k, jl, il - 1),
                self.q.at(k, jl, il),
                self.q.at(k, jl, il + 1),
                c,
                self.limited,
            )
        } else {
            face_value(
                self.q.at(k, jl, il + 2),
                self.q.at(k, jl, il + 1),
                self.q.at(k, jl, il),
                c,
                self.limited,
            )
        };
        self.flux.set_at(k, jl, il, uf * qf * self.dyt);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 25,
            bytes: 88,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_flux_x, FunctorFluxX);

/// Apply the zonal flux divergence: `q1 = q − dt (Fe − Fw) / area`.
pub struct FunctorApplyX {
    pub q: View3<f64>,
    pub q1: View3<f64>,
    pub flux: View3<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dt: f64,
}

impl Functor3D for FunctorApplyX {
    fn operator(&self, k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let q = self.q.at(k, jl, il);
        if self.kmt.at(jl, il) <= k as i32 {
            self.q1.set_at(k, jl, il, q);
            return;
        }
        let area = self.dxt.at(jl) * self.dyt;
        let div = self.flux.at(k, jl, il) - self.flux.at(k, jl, il - 1);
        self.q1.set_at(k, jl, il, q - self.dt * div / area);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 6,
            bytes: 48,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_apply_x, FunctorApplyX);

/// Meridional face transports `F = vf · q_face · dx_face` at the
/// **north** face; `j ∈ 0..ny+1` maps to `jl = j + H - 1`.
pub struct FunctorFluxY {
    pub q: View3<f64>,
    pub v: View3<f64>,
    pub flux: View3<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dt: f64,
    pub limited: bool,
}

impl Functor3D for FunctorFluxY {
    fn operator(&self, k: usize, j: usize, i: usize) {
        let jl = j + H - 1;
        let il = i + H;
        let ki = k as i32;
        if self.kmt.at(jl, il) <= ki || self.kmt.at(jl + 1, il) <= ki {
            self.flux.set_at(k, jl, il, 0.0);
            return;
        }
        let vf = 0.5 * (self.v.at(k, jl, il) + self.v.at(k, jl, il - 1));
        let c = (vf.abs() * self.dt / self.dyt).min(1.0);
        let qf = if vf >= 0.0 {
            face_value(
                self.q.at(k, jl - 1, il),
                self.q.at(k, jl, il),
                self.q.at(k, jl + 1, il),
                c,
                self.limited,
            )
        } else {
            face_value(
                self.q.at(k, jl + 2, il),
                self.q.at(k, jl + 1, il),
                self.q.at(k, jl, il),
                c,
                self.limited,
            )
        };
        let dx_face = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
        self.flux.set_at(k, jl, il, vf * qf * dx_face);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 27,
            bytes: 88,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_flux_y, FunctorFluxY);

/// Apply the meridional flux divergence.
pub struct FunctorApplyY {
    pub q: View3<f64>,
    pub q1: View3<f64>,
    pub flux: View3<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dt: f64,
}

impl Functor3D for FunctorApplyY {
    fn operator(&self, k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let q = self.q.at(k, jl, il);
        if self.kmt.at(jl, il) <= k as i32 {
            self.q1.set_at(k, jl, il, q);
            return;
        }
        let area = self.dxt.at(jl) * self.dyt;
        let div = self.flux.at(k, jl, il) - self.flux.at(k, jl - 1, il);
        self.q1.set_at(k, jl, il, q - self.dt * div / area);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 6,
            bytes: 48,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_apply_y, FunctorApplyY);

/// Diagnose the interface vertical velocity from continuity, bottom-up:
/// `w(k) = w(k+1) − dz_k · div_h(k)`, `w(nz) = 0`. Column-wise.
pub struct FunctorDiagnoseW {
    pub u: View3<f64>,
    pub v: View3<f64>,
    pub w: View3<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dz: View1<f64>,
    pub nz: usize,
}

impl FunctorDiagnoseW {
    #[inline]
    fn face_u(&self, k: usize, jl: usize, il: usize) -> f64 {
        // East face of (jl, il); zero if either side dry.
        let ki = k as i32;
        if self.kmt.at(jl, il) <= ki || self.kmt.at(jl, il + 1) <= ki {
            0.0
        } else {
            0.5 * (self.u.at(k, jl, il) + self.u.at(k, jl - 1, il))
        }
    }

    #[inline]
    fn face_v(&self, k: usize, jl: usize, il: usize) -> f64 {
        // North face of (jl, il).
        let ki = k as i32;
        if self.kmt.at(jl, il) <= ki || self.kmt.at(jl + 1, il) <= ki {
            0.0
        } else {
            0.5 * (self.v.at(k, jl, il) + self.v.at(k, jl, il - 1))
        }
    }
}

impl FunctorDiagnoseW {
    /// Diagnose one column at **padded** indices (shared by the dense and
    /// active-set launches). Land columns only re-zero `w`, which nothing
    /// else writes — so the active-set launch can skip them bitwise-safely.
    fn column(&self, jl: usize, il: usize) {
        let kmt = self.kmt.at(jl, il) as usize;
        for k in kmt..=self.nz {
            self.w.set_at(k, jl, il, 0.0);
        }
        if kmt == 0 {
            return;
        }
        let area = self.dxt.at(jl) * self.dyt;
        let mut w = 0.0; // bottom interface of deepest wet layer
        self.w.set_at(kmt, jl, il, 0.0);
        for k in (0..kmt).rev() {
            let fe = self.face_u(k, jl, il) * self.dyt;
            let fw = self.face_u(k, jl, il - 1) * self.dyt;
            let dxn = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
            let dxs = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl - 1));
            let fn_ = self.face_v(k, jl, il) * dxn;
            let fs = self.face_v(k, jl - 1, il) * dxs;
            let div = (fe - fw + fn_ - fs) / area;
            w -= self.dz.at(k) * div;
            self.w.set_at(k, jl, il, w);
        }
    }
}

impl Functor2D for FunctorDiagnoseW {
    fn operator(&self, j: usize, i: usize) {
        self.column(j + H, i + H);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 20 * self.nz as u64,
            bytes: 120 * self.nz as u64,
        }
    }
}

kokkos_rs::register_for_2d!(kernel_diagnose_w, FunctorDiagnoseW);

/// Active-set continuity diagnosis: entry `idx` is a packed wet T column.
pub struct FunctorDiagnoseWList {
    pub f: FunctorDiagnoseW,
    pub pi: usize,
}

impl FunctorList for FunctorDiagnoseWList {
    fn operator(&self, _n: usize, idx: u32) {
        let packed = idx as usize;
        self.f.column(packed / self.pi, packed % self.pi);
    }

    fn cost(&self) -> IterCost {
        self.f.cost()
    }
}

kokkos_rs::register_for_list!(kernel_diagnose_w_list, FunctorDiagnoseWList);

/// Vertical pass: limited upstream fluxes through interfaces and the
/// divergence update, column-wise (the column loop *is* the stencil, so
/// one functor does both steps).
pub struct FunctorAdvectZ {
    pub q: View3<f64>,
    pub q1: View3<f64>,
    pub w: View3<f64>,
    pub kmt: View2<i32>,
    pub dz: View1<f64>,
    pub dt: f64,
    pub nz: usize,
    pub limited: bool,
}

impl FunctorAdvectZ {
    /// One column at **padded** indices. As used by [`advect_tracer`] the
    /// pass is in place (`q` and `q1` alias), so the land/below-`kmt`
    /// copy-through is the identity — the active-set launch skips it.
    fn column(&self, jl: usize, il: usize) {
        let kmt = self.kmt.at(jl, il) as usize;
        for k in kmt..self.nz {
            self.q1.set_at(k, jl, il, self.q.at(k, jl, il));
        }
        if kmt == 0 {
            return;
        }
        // Interface fluxes f[k], k = 0..=kmt; f[kmt] (bottom) is zero.
        // w > 0 is upward: donor is the layer below the interface
        // (layer k). The surface interface carries the free-surface
        // dilution flux w(0)·q(0): without it, persistent surface
        // convergence (rising η) pumps tracer into a fixed-thickness top
        // layer with nothing to balance it, and coastal cells warm
        // secularly. With it, the fixed control volume exchanges tracer
        // with the moving surface at the surface value — bounded and
        // zero-mean under oscillating η.
        let mut f = [0.0f64; 257];
        assert!(kmt < 257, "column deeper than supported 256 levels");
        f[0] = self.w.at(0, jl, il) * self.q.at(0, jl, il);
        for (k, fk) in f.iter_mut().enumerate().take(kmt).skip(1) {
            let w = self.w.at(k, jl, il);
            let c = (w.abs() * self.dt / self.dz.at(k)).min(1.0);
            let qf = if w >= 0.0 {
                // Donor layer k (below interface k); upwind is k+1.
                let qu = if k + 1 < kmt {
                    self.q.at(k + 1, jl, il)
                } else {
                    self.q.at(k, jl, il)
                };
                face_value(
                    qu,
                    self.q.at(k, jl, il),
                    self.q.at(k - 1, jl, il),
                    c,
                    self.limited,
                )
            } else {
                // Donor layer k-1 (above); upwind is k-2.
                let qu = if k >= 2 {
                    self.q.at(k - 2, jl, il)
                } else {
                    self.q.at(k - 1, jl, il)
                };
                face_value(
                    qu,
                    self.q.at(k - 1, jl, il),
                    self.q.at(k, jl, il),
                    c,
                    self.limited,
                )
            };
            *fk = w * qf;
        }
        for k in 0..kmt {
            // d(q)/dt = -(f[k] - f[k+1]) / dz  (f positive upward).
            let q = self.q.at(k, jl, il);
            let dq = -self.dt * (f[k] - f[k + 1]) / self.dz.at(k);
            self.q1.set_at(k, jl, il, q + dq);
        }
    }
}

impl Functor2D for FunctorAdvectZ {
    fn operator(&self, j: usize, i: usize) {
        self.column(j + H, i + H);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 30 * self.nz as u64,
            bytes: 80 * self.nz as u64,
        }
    }
}

kokkos_rs::register_for_2d!(kernel_advect_z, FunctorAdvectZ);

/// Active-set vertical pass: entry `idx` is a packed wet T column. Only
/// valid when the pass is in place (`q` aliases `q1`), as in
/// [`advect_tracer`] — see [`FunctorAdvectZ::column`].
pub struct FunctorAdvectZList {
    pub f: FunctorAdvectZ,
    pub pi: usize,
}

impl FunctorList for FunctorAdvectZList {
    fn operator(&self, _n: usize, idx: u32) {
        let packed = idx as usize;
        self.f.column(packed / self.pi, packed % self.pi);
    }

    fn cost(&self) -> IterCost {
        self.f.cost()
    }
}

kokkos_rs::register_for_list!(kernel_advect_z_list, FunctorAdvectZList);

/// Register this module's functors.
pub fn register() {
    kernel_flux_x();
    kernel_apply_x();
    kernel_flux_y();
    kernel_apply_y();
    kernel_diagnose_w();
    kernel_diagnose_w_list();
    kernel_advect_z();
    kernel_advect_z_list();
}

/// Full dimension-split advection of tracer `q` over `dt`, writing
/// `q_out`. `w` must already be diagnosed ([`FunctorDiagnoseW`]).
/// Requires valid halos on `q`, `u`, `v`. Uses `tmp` as the intermediate
/// field and `flux` as face-transport scratch. `exchange` refreshes the
/// intermediate field's halos between the x and y passes (the y-stencil
/// reads `tmp` at `j±2`, which the x-pass does not compute in the halo
/// rows); with [`TmpExchange::Overlap`] that refresh overlaps the
/// interior y-pass flux rows, which read no `tmp` ghost row.
///
/// `wet_cols` (packed owned wet T columns) routes the column-local z pass
/// through the active-set launch; the x/y passes stay dense because their
/// apply steps copy `q → q1` on land — a real write into the scratch
/// field that skipping would lose.
#[allow(clippy::too_many_arguments)]
pub fn advect_tracer(
    space: &Space,
    g: &LocalGrid,
    q: &View3<f64>,
    q_out: &View3<f64>,
    tmp: &View3<f64>,
    flux: &View3<f64>,
    u: &View3<f64>,
    v: &View3<f64>,
    w: &View3<f64>,
    dt: f64,
    limited: bool,
    wet_cols: Option<&ListPolicy>,
    exchange: TmpExchange<'_>,
) -> Result<(), HaloError> {
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    // X pass: q -> tmp.
    {
        let _r = kokkos_rs::profiling::region("adv:xpass");
        let fx = FunctorFluxX {
            q: q.clone(),
            u: u.clone(),
            flux: flux.clone(),
            kmt: g.kmt.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
            dt,
            limited,
        };
        parallel_for_3d(space, MDRangePolicy3::new([nz, ny, nx + 1]), &fx);
        let ax = FunctorApplyX {
            q: q.clone(),
            q1: tmp.clone(),
            flux: flux.clone(),
            kmt: g.kmt.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
            dt,
        };
        parallel_for_3d(space, MDRangePolicy3::new([nz, ny, nx]), &ax);
    }
    // Refresh the intermediate field's halos, then the y pass. The flux
    // stencil reads `tmp` rows `jl-1..=jl+2` (`jl = j + H - 1`) and no
    // east/west ghost column, so flux rows `j ∈ [2, ny-2]` touch owned
    // rows only — they are the interior partition that overlaps the
    // exchange; rows `{0, 1, ny-1, ny}` are the rim swept after it
    // finishes. Either schedule computes every flux cell from identical
    // inputs, so the split is bitwise equal to the dense pass.
    let fy = FunctorFluxY {
        q: tmp.clone(),
        v: v.clone(),
        flux: flux.clone(),
        kmt: g.kmt.clone(),
        dxt: g.dxt.clone(),
        dyt: g.dyt,
        dt,
        limited,
    };
    match exchange {
        TmpExchange::Blocking(exchange_tmp) => {
            {
                let _r = kokkos_rs::profiling::region("adv:halo");
                exchange_tmp(tmp)?;
            }
            let _r = kokkos_rs::profiling::region("adv:ypass");
            parallel_for_3d(space, MDRangePolicy3::new([nz, ny + 1, nx]), &fy);
        }
        TmpExchange::Overlap { halo, tag_base } if ny >= 5 => {
            let _r = kokkos_rs::profiling::region("adv:ypass-overlap");
            let mut pend = Some(halo.begin(&[(tmp, FoldKind::Scalar)], tag_base)?);
            let mut graph = StepGraph::new();
            let comm = graph.comm(
                |blocking| {
                    if blocking {
                        match pend.take() {
                            Some(p) => p.finish().map(|()| true),
                            None => Ok(true),
                        }
                    } else {
                        pend.as_mut().map_or(Ok(true), |p| p.poll())
                    }
                },
                &[],
            );
            let interior = graph.compute(
                || {
                    parallel_for_3d(
                        space,
                        MDRangePolicy3::new([nz, ny - 3, nx]).with_offset([0, 2, 0]),
                        &fy,
                    );
                    Ok(())
                },
                &[],
            );
            graph.compute(
                || {
                    parallel_for_3d(space, MDRangePolicy3::new([nz, 2, nx]), &fy);
                    parallel_for_3d(
                        space,
                        MDRangePolicy3::new([nz, 2, nx]).with_offset([0, ny - 1, 0]),
                        &fy,
                    );
                    Ok(())
                },
                &[comm, interior],
            );
            graph.run()?;
        }
        TmpExchange::Overlap { halo, tag_base } => {
            // Too narrow to carve an interior: finish, then dense pass.
            halo.begin(&[(tmp, FoldKind::Scalar)], tag_base)?.finish()?;
            let _r = kokkos_rs::profiling::region("adv:ypass");
            parallel_for_3d(space, MDRangePolicy3::new([nz, ny + 1, nx]), &fy);
        }
    }
    {
        let _r = kokkos_rs::profiling::region("adv:ypass");
        let ay = FunctorApplyY {
            q: tmp.clone(),
            q1: q_out.clone(),
            flux: flux.clone(),
            kmt: g.kmt.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
            dt,
        };
        parallel_for_3d(space, MDRangePolicy3::new([nz, ny, nx]), &ay);
    }
    // Z pass in place on q_out (column-local, no halo needed).
    let _r = kokkos_rs::profiling::region("adv:zpass");
    let az = FunctorAdvectZ {
        q: q_out.clone(),
        q1: q_out.clone(),
        w: w.clone(),
        kmt: g.kmt.clone(),
        dz: g.dz.clone(),
        dt,
        nz,
        limited,
    };
    match wet_cols {
        Some(cols) => parallel_for_list(space, cols, &FunctorAdvectZList { f: az, pi: g.pi }),
        None => parallel_for_2d(space, MDRangePolicy2::new([ny, nx]), &az),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn van_leer_limiter_properties() {
        assert_eq!(van_leer(-1.0), 0.0); // extremum → pure upstream
        assert_eq!(van_leer(0.0), 0.0);
        assert!((van_leer(1.0) - 1.0).abs() < 1e-12); // smooth → centered
        for r in [-10.0, -0.5, 0.3, 1.0, 7.0] {
            let p = van_leer(r);
            assert!((0.0..=2.0).contains(&p), "φ({r}) = {p}");
        }
    }

    #[test]
    fn face_value_reduces_to_upstream_when_unlimited_flag_off() {
        assert_eq!(face_value(1.0, 2.0, 5.0, 0.1, false), 2.0);
    }

    #[test]
    fn face_value_bounded_by_neighbors() {
        // The corrected face value stays between donor and downwind.
        for (qu, qc, qd) in [(0.0, 1.0, 2.0), (3.0, 2.0, 0.0), (1.0, 1.0, 1.0)] {
            for c in [0.0, 0.3, 0.9] {
                let f = face_value(qu, qc, qd, c, true);
                let (lo, hi) = (qc.min(qd), qc.max(qd));
                assert!(f >= lo - 1e-12 && f <= hi + 1e-12);
            }
        }
    }

    /// 1-D periodic advection with the same face logic: the update must
    /// never create values outside the initial [min, max] (shape
    /// preservation), for any velocity within CFL. `flux` is caller-owned
    /// scratch (east face of cell i), sized `q.len()` — hoisted out so
    /// repeated applications don't reallocate per call (the same
    /// steady-state discipline as the model's `Workspace`).
    fn advect_1d(q: &[f64], u: f64, c: f64, limited: bool, flux: &mut [f64]) -> Vec<f64> {
        let n = q.len();
        assert_eq!(flux.len(), n);
        let get = |i: i64| q[i.rem_euclid(n as i64) as usize];
        for i in 0..n as i64 {
            let qf = if u >= 0.0 {
                face_value(get(i - 1), get(i), get(i + 1), c, limited)
            } else {
                face_value(get(i + 2), get(i + 1), get(i), c, limited)
            };
            flux[i as usize] = u * qf;
        }
        (0..n)
            .map(|i| {
                let fw = flux[(i + n - 1) % n];
                q[i] - (c / u.abs().max(1e-30)) * (flux[i] - fw) * u.signum().abs()
            })
            .collect()
    }

    proptest! {
        #[test]
        fn prop_1d_advection_preserves_bounds(
            vals in proptest::collection::vec(-10.0f64..10.0, 8..40),
            c in 0.01f64..0.95,
            positive in proptest::bool::ANY,
            limited in proptest::bool::ANY,
        ) {
            let u = if positive { 1.0 } else { -1.0 };
            let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
            let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
            let mut q = vals.clone();
            let mut flux = vec![0.0; q.len()];
            for _ in 0..5 {
                q = advect_1d(&q, u, c, limited, &mut flux);
                for &x in &q {
                    prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9,
                        "new extremum {x} outside [{lo}, {hi}]");
                }
            }
        }

        #[test]
        fn prop_1d_advection_conserves_mass(
            vals in proptest::collection::vec(-5.0f64..5.0, 8..30),
            c in 0.05f64..0.9,
        ) {
            let total: f64 = vals.iter().sum();
            let mut flux = vec![0.0; vals.len()];
            let q = advect_1d(&vals, 1.0, c, true, &mut flux);
            let total2: f64 = q.iter().sum();
            prop_assert!((total - total2).abs() < 1e-9 * (1.0 + total.abs()));
        }
    }

    #[test]
    fn two_step_is_less_diffusive_than_upstream() {
        // Advect a smooth bump one full revolution; the limited scheme
        // must retain more of the peak than pure upstream.
        let n = 50;
        let q0: Vec<f64> = (0..n)
            .map(|i| (-((i as f64 - 12.0) / 4.0).powi(2)).exp())
            .collect();
        let c = 0.5;
        let steps = (n as f64 / c) as usize; // one revolution
        let run = |limited: bool| {
            let mut q = q0.clone();
            let mut flux = vec![0.0; n];
            for _ in 0..steps {
                q = advect_1d(&q, 1.0, c, limited, &mut flux);
            }
            q.iter().cloned().fold(f64::MIN, f64::max)
        };
        let peak_two_step = run(true);
        let peak_upstream = run(false);
        assert!(
            peak_two_step > peak_upstream + 0.05,
            "two-step peak {peak_two_step} vs upstream {peak_upstream}"
        );
        assert!(peak_two_step <= 1.0 + 1e-9, "no overshoot");
    }
}
