//! Baroclinic momentum: the B-grid 3-D momentum tendency and the
//! leapfrog/Asselin machinery.
//!
//! Tendency terms at velocity corners (all masked by `kmu`):
//! baroclinic pressure gradient, Coriolis, centered horizontal advection
//! of momentum, free-slip Laplacian viscosity (evaluated at the old time
//! level, as leapfrog stability requires), and quadratic bottom drag.
//! Wind stress is added separately ([`crate::forcing`]); the surface
//! (barotropic) pressure gradient lives in the split-explicit solver and
//! its window average re-enters through [`FunctorBtCorrect`], which
//! replaces the depth-mean of the updated 3-D velocity with the
//! barotropic transport (mode consistency).
//!
//! Vertical momentum advection is neglected (a documented fidelity
//! simplification — it is dynamically subdominant at these scales and
//! does not change the kernel's computational profile).

use kokkos_rs::{Functor2D, Functor3D, FunctorList, IterCost, View1, View2, View3};
use ocean_grid::RHO0;

use halo_exchange::HALO as H;

use crate::constants::{ASSELIN, BOTTOM_DRAG};

/// The model's heavyweight 3-D stencil kernel: full momentum tendency.
pub struct FunctorMomentumTend {
    pub u_cur: View3<f64>,
    pub v_cur: View3<f64>,
    pub u_old: View3<f64>,
    pub v_old: View3<f64>,
    /// Baroclinic hydrostatic pressure at T cells.
    pub pressure: View3<f64>,
    pub ut: View3<f64>,
    pub vt: View3<f64>,
    pub kmu: View2<i32>,
    pub fcor: View1<f64>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dz: View1<f64>,
    /// Horizontal viscosity (m²/s), resolution-adaptive.
    pub visc: f64,
}

impl FunctorMomentumTend {
    /// Tendency at one point, **padded** indices (shared launch shapes).
    fn at_point(&self, k: usize, jl: usize, il: usize) {
        let ki = k as i32;
        if self.kmu.at(jl, il) <= ki {
            self.ut.set_at(k, jl, il, 0.0);
            self.vt.set_at(k, jl, il, 0.0);
            return;
        }
        let dx_c = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
        let dy = self.dyt;

        // Baroclinic pressure gradient (T cells around the corner).
        let p = &self.pressure;
        let gx = 0.5
            * ((p.at(k, jl, il + 1) - p.at(k, jl, il))
                + (p.at(k, jl + 1, il + 1) - p.at(k, jl + 1, il)))
            / dx_c;
        let gy = 0.5
            * ((p.at(k, jl + 1, il) - p.at(k, jl, il))
                + (p.at(k, jl + 1, il + 1) - p.at(k, jl, il + 1)))
            / dy;

        let f = self.fcor.at(jl);
        let u = self.u_cur.at(k, jl, il);
        let v = self.v_cur.at(k, jl, il);

        // Wet-neighbor helper for free-slip viscosity and advection:
        // returns the neighbor value, or the center value if dry.
        let nb = |field: &View3<f64>, jn: usize, inn: usize, center: f64| -> f64 {
            if self.kmu.at(jn, inn) > ki {
                field.at(k, jn, inn)
            } else {
                center
            }
        };

        let u_e = nb(&self.u_cur, jl, il + 1, u);
        let u_w = nb(&self.u_cur, jl, il - 1, u);
        let u_n = nb(&self.u_cur, jl + 1, il, u);
        let u_s = nb(&self.u_cur, jl - 1, il, u);
        let v_e = nb(&self.v_cur, jl, il + 1, v);
        let v_w = nb(&self.v_cur, jl, il - 1, v);
        let v_n = nb(&self.v_cur, jl + 1, il, v);
        let v_s = nb(&self.v_cur, jl - 1, il, v);

        // Centered horizontal advection.
        let adv_u = u * (u_e - u_w) / (2.0 * dx_c) + v * (u_n - u_s) / (2.0 * dy);
        let adv_v = u * (v_e - v_w) / (2.0 * dx_c) + v * (v_n - v_s) / (2.0 * dy);

        // Free-slip Laplacian viscosity at the old level.
        let uo = self.u_old.at(k, jl, il);
        let vo = self.v_old.at(k, jl, il);
        let uo_e = nb(&self.u_old, jl, il + 1, uo);
        let uo_w = nb(&self.u_old, jl, il - 1, uo);
        let uo_n = nb(&self.u_old, jl + 1, il, uo);
        let uo_s = nb(&self.u_old, jl - 1, il, uo);
        let vo_e = nb(&self.v_old, jl, il + 1, vo);
        let vo_w = nb(&self.v_old, jl, il - 1, vo);
        let vo_n = nb(&self.v_old, jl + 1, il, vo);
        let vo_s = nb(&self.v_old, jl - 1, il, vo);
        let lap_u = (uo_e - 2.0 * uo + uo_w) / (dx_c * dx_c) + (uo_n - 2.0 * uo + uo_s) / (dy * dy);
        let lap_v = (vo_e - 2.0 * vo + vo_w) / (dx_c * dx_c) + (vo_n - 2.0 * vo + vo_s) / (dy * dy);

        let mut du = -gx / RHO0 + f * v - adv_u + self.visc * lap_u;
        let mut dv = -gy / RHO0 - f * u - adv_v + self.visc * lap_v;

        // Quadratic bottom drag on the deepest wet layer (old level).
        if ki == self.kmu.at(jl, il) - 1 {
            let speed = (uo * uo + vo * vo).sqrt();
            let fac = BOTTOM_DRAG * speed / self.dz.at(k);
            du -= fac * uo;
            dv -= fac * vo;
        }

        self.ut.set_at(k, jl, il, du);
        self.vt.set_at(k, jl, il, dv);
    }
}

impl Functor3D for FunctorMomentumTend {
    fn operator(&self, k: usize, j: usize, i: usize) {
        self.at_point(k, j + H, i + H);
    }

    fn cost(&self) -> IterCost {
        // The genuine hotspot: ~80 flops over ~25 stencil reads.
        IterCost {
            flops: 80,
            bytes: 220,
        }
    }
}

/// Active-set momentum tendency: entry `idx` is a packed wet velocity
/// cell `(k·pj + jl)·pi + il` (`k < kmu`). Dry cells keep the tendency
/// views' initial zeros — exactly what the cell operator writes, and
/// `ut`/`vt` are consumed only where `kmu > k` — so the skip is bitwise
/// neutral.
pub struct FunctorMomentumTendList {
    pub f: FunctorMomentumTend,
    pub pj: usize,
    pub pi: usize,
}

impl FunctorList for FunctorMomentumTendList {
    fn operator(&self, _n: usize, idx: u32) {
        let idx = idx as usize;
        let il = idx % self.pi;
        let rest = idx / self.pi;
        self.f.at_point(rest / self.pj, rest % self.pj, il);
    }

    fn cost(&self) -> IterCost {
        self.f.cost()
    }
}

kokkos_rs::register_for_list!(kernel_momentum_tend_list, FunctorMomentumTendList);

/// Leapfrog update `new = old + dt2 · tend`, masked.
pub struct FunctorLeapfrog3D {
    pub old: View3<f64>,
    pub new: View3<f64>,
    pub tend: View3<f64>,
    pub mask: View2<i32>,
    pub dt2: f64,
}

impl Functor3D for FunctorLeapfrog3D {
    fn operator(&self, k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        if self.mask.at(jl, il) <= k as i32 {
            self.new.set_at(k, jl, il, 0.0);
            return;
        }
        self.new.set_at(
            k,
            jl,
            il,
            self.old.at(k, jl, il) + self.dt2 * self.tend.at(k, jl, il),
        );
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 2,
            bytes: 36,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_leapfrog_3d, FunctorLeapfrog3D);

/// Asselin filter on a 3-D leapfrog triple.
pub struct FunctorAsselin3D {
    pub old: View3<f64>,
    pub cur: View3<f64>,
    pub new: View3<f64>,
}

impl Functor3D for FunctorAsselin3D {
    fn operator(&self, k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let c = self.cur.at(k, jl, il);
        self.cur.set_at(
            k,
            jl,
            il,
            c + ASSELIN * (self.old.at(k, jl, il) - 2.0 * c + self.new.at(k, jl, il)),
        );
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 5,
            bytes: 40,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_asselin_3d, FunctorAsselin3D);

/// Mode-consistency correction: replace the depth-mean of the updated
/// 3-D velocity with the barotropic window average.
pub struct FunctorBtCorrect {
    pub u: View3<f64>,
    pub v: View3<f64>,
    pub ubt: View2<f64>,
    pub vbt: View2<f64>,
    pub kmu: View2<i32>,
    pub dz: View1<f64>,
}

impl FunctorBtCorrect {
    /// One corner at **padded** indices (shared launch shapes).
    fn column(&self, jl: usize, il: usize) {
        let kb = self.kmu.at(jl, il) as usize;
        if kb == 0 {
            return;
        }
        let mut su = 0.0;
        let mut sv = 0.0;
        let mut h = 0.0;
        for k in 0..kb {
            let dz = self.dz.at(k);
            su += self.u.at(k, jl, il) * dz;
            sv += self.v.at(k, jl, il) * dz;
            h += dz;
        }
        let du = self.ubt.at(jl, il) - su / h;
        let dv = self.vbt.at(jl, il) - sv / h;
        for k in 0..kb {
            self.u.set_at(k, jl, il, self.u.at(k, jl, il) + du);
            self.v.set_at(k, jl, il, self.v.at(k, jl, il) + dv);
        }
    }
}

impl Functor2D for FunctorBtCorrect {
    fn operator(&self, j: usize, i: usize) {
        self.column(j + H, i + H);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 300,
            bytes: 2000,
        }
    }
}

/// Active-set mode correction: entry `idx` is a packed wet velocity
/// corner; the column body's dry-corner early-return is the exact
/// complement of the set.
pub struct FunctorBtCorrectList {
    pub f: FunctorBtCorrect,
    pub pi: usize,
}

impl FunctorList for FunctorBtCorrectList {
    fn operator(&self, _n: usize, idx: u32) {
        let packed = idx as usize;
        self.f.column(packed / self.pi, packed % self.pi);
    }

    fn cost(&self) -> IterCost {
        self.f.cost()
    }
}

kokkos_rs::register_for_list!(kernel_bt_correct_list, FunctorBtCorrectList);

/// Register this module's functors.
pub fn register() {
    kernel_momentum_tend_list();
    kernel_leapfrog_3d();
    kernel_asselin_3d();
    kernel_bt_correct_list();
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::View;

    const OMEGA: f64 = 7.292_115e-5;

    fn grid_views(nz: usize, n: usize) -> (View2<i32>, View1<f64>, View1<f64>, View1<f64>) {
        let (pj, pi) = (n + 2 * H, n + 2 * H);
        let kmu: View2<i32> = View::host("kmu", [pj, pi]);
        kmu.fill(nz as i32);
        let fcor: View1<f64> = View::host("fcor", [pj]);
        fcor.fill(2.0 * OMEGA * 0.5); // 30° N
        let dxt: View1<f64> = View::host("dxt", [pj]);
        dxt.fill(100_000.0);
        let dz: View1<f64> = View::host("dz", [nz]);
        dz.fill(50.0);
        (kmu, fcor, dxt, dz)
    }

    fn tend_functor(nz: usize, n: usize) -> FunctorMomentumTend {
        let (pj, pi) = (n + 2 * H, n + 2 * H);
        let d3 = [nz, pj, pi];
        let (kmu, fcor, dxt, dz) = grid_views(nz, n);
        FunctorMomentumTend {
            u_cur: View::host("uc", d3),
            v_cur: View::host("vc", d3),
            u_old: View::host("uo", d3),
            v_old: View::host("vo", d3),
            pressure: View::host("p", d3),
            ut: View::host("ut", d3),
            vt: View::host("vt", d3),
            kmu,
            fcor,
            dxt,
            dyt: 100_000.0,
            dz,
            visc: 1.0e3,
        }
    }

    #[test]
    fn geostrophic_balance_tendency() {
        // A zonal pressure gradient must produce f·v response only: with
        // v chosen geostrophic (v = gx / (ρ0 f)), du/dt ≈ 0.
        let f = tend_functor(1, 4);
        // p increasing eastward: dp/dx = 0.01 Pa/m.
        for jl in 0..f.pressure.dims()[1] {
            for il in 0..f.pressure.dims()[2] {
                f.pressure.set_at(0, jl, il, 0.01 * il as f64 * 100_000.0);
            }
        }
        let fc = f.fcor.at(H);
        let v_geo = 0.01 / (RHO0 * fc);
        f.v_cur.fill(v_geo);
        f.operator(0, 1, 1);
        let du = f.ut.at(0, H + 1, H + 1);
        assert!(du.abs() < 1e-10, "geostrophic residual du/dt = {du}");
    }

    #[test]
    fn coriolis_turns_flow_clockwise_north() {
        let f = tend_functor(1, 4);
        f.u_cur.fill(1.0);
        f.operator(0, 1, 1);
        // Northern hemisphere: eastward flow gets southward acceleration.
        assert!(f.vt.at(0, H + 1, H + 1) < 0.0);
        assert!(
            f.ut.at(0, H + 1, H + 1).abs() < 1e-12,
            "no du for uniform u"
        );
    }

    #[test]
    fn viscosity_damps_a_spike() {
        let f = tend_functor(1, 5);
        f.u_old.set_at(0, H + 2, H + 2, 1.0);
        // u_cur zero → no advection/coriolis; spike must get negative
        // tendency at its center, positive at neighbors.
        f.operator(0, 2, 2);
        assert!(f.ut.at(0, H + 2, H + 2) < 0.0);
        f.operator(0, 2, 1);
        assert!(f.ut.at(0, H + 2, H + 1) > 0.0);
    }

    #[test]
    fn dry_corners_produce_zero_tendency() {
        let f = tend_functor(2, 4);
        f.kmu.set_at(H + 1, H + 1, 0);
        f.u_cur.fill(5.0);
        f.operator(0, 1, 1);
        assert_eq!(f.ut.at(0, H + 1, H + 1), 0.0);
        assert_eq!(f.vt.at(0, H + 1, H + 1), 0.0);
    }

    #[test]
    fn bottom_drag_opposes_old_velocity() {
        let f = tend_functor(2, 4);
        f.u_old.fill(1.0);
        f.operator(1, 1, 1); // bottom layer (kmu-1 == 1)
        let du_bottom = f.ut.at(1, H + 1, H + 1);
        f.operator(0, 1, 1);
        let du_top = f.ut.at(0, H + 1, H + 1);
        assert!(
            du_bottom < du_top,
            "drag must decelerate the bottom layer: {du_bottom} vs {du_top}"
        );
    }

    #[test]
    fn leapfrog_and_asselin() {
        let d3 = [1, 1 + 2 * H, 1 + 2 * H];
        let old: View3<f64> = View::host("o", d3);
        let cur: View3<f64> = View::host("c", d3);
        let new: View3<f64> = View::host("n", d3);
        let tend: View3<f64> = View::host("t", d3);
        let mask: View2<i32> = View::host("m", [1 + 2 * H, 1 + 2 * H]);
        mask.fill(1);
        old.fill(1.0);
        tend.fill(0.5);
        let lf = FunctorLeapfrog3D {
            old: old.clone(),
            new: new.clone(),
            tend,
            mask,
            dt2: 2.0,
        };
        lf.operator(0, 0, 0);
        assert_eq!(new.at(0, H, H), 2.0);
        cur.fill(1.2);
        let asl = FunctorAsselin3D {
            old,
            cur: cur.clone(),
            new,
        };
        asl.operator(0, 0, 0);
        // 1.2 + 0.1*(1 - 2.4 + 2) = 1.26
        assert!((cur.at(0, H, H) - 1.26).abs() < 1e-12);
    }

    #[test]
    fn bt_correct_sets_depth_mean() {
        let nz = 4;
        let d3 = [nz, 1 + 2 * H, 1 + 2 * H];
        let u: View3<f64> = View::host("u", d3);
        let v: View3<f64> = View::host("v", d3);
        for k in 0..nz {
            u.set_at(k, H, H, k as f64); // mean 1.5
        }
        let ubt: View2<f64> = View::host("ubt", [1 + 2 * H, 1 + 2 * H]);
        let vbt: View2<f64> = View::host("vbt", [1 + 2 * H, 1 + 2 * H]);
        ubt.fill(2.0);
        let kmu: View2<i32> = View::host("kmu", [1 + 2 * H, 1 + 2 * H]);
        kmu.fill(nz as i32);
        let dz: View1<f64> = View::host("dz", [nz]);
        dz.fill(25.0);
        let f = FunctorBtCorrect {
            u: u.clone(),
            v,
            ubt,
            vbt,
            kmu,
            dz,
        };
        f.operator(0, 0);
        let mean: f64 = (0..nz).map(|k| u.at(k, H, H)).sum::<f64>() / nz as f64;
        assert!((mean - 2.0).abs() < 1e-12, "depth mean now {mean}");
        // Shear preserved: u(k) − u(0) unchanged.
        assert!((u.at(3, H, H) - u.at(0, H, H) - 3.0).abs() < 1e-12);
    }
}
