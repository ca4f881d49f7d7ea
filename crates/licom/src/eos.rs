//! Equation of state and hydrostatic pressure.
//!
//! The reproduction uses a linearised seawater EOS,
//! `ρ = ρ0 (1 − α(T−T0) + β(S−S0))`, which preserves what the dynamics
//! need — buoyancy gradients driven by temperature and salinity — without
//! the 25-term UNESCO polynomial (a fidelity, not performance, detail).
//! Pressure is the hydrostatic integral of density plus the free-surface
//! contribution `g ρ0 η`.

use kokkos_rs::{
    parallel_for_list, Functor2D, Functor3D, FunctorList, IterCost, ListPolicy, Space, View1,
    View2, View3,
};

use ocean_grid::{GRAVITY, RHO0};

use crate::constants::{ALPHA_T, BETA_S, S_REF, T_REF};

/// Pointwise density from the linearised EOS.
pub struct FunctorEos {
    pub t: View3<f64>,
    pub s: View3<f64>,
    pub rho: View3<f64>,
}

impl FunctorEos {
    /// Shared body at a storage-order offset. All three views are root
    /// `[nz, pj, pi]` Right-layout allocations, so their offsets
    /// coincide and the pointwise EOS never needs `(k, j, i)` at all.
    #[inline(always)]
    fn at_offset(&self, off: usize) {
        let t = self.t.get_linear(off);
        let s = self.s.get_linear(off);
        let rho = RHO0 * (1.0 - ALPHA_T * (t - T_REF) + BETA_S * (s - S_REF));
        self.rho.set_linear(off, rho);
    }
}

impl Functor3D for FunctorEos {
    /// Operates on raw padded indices: the model launches it over the
    /// full padded block so halo cells (whose T/S are exchanged) get
    /// valid density/pressure without an extra halo update.
    fn operator(&self, k: usize, jl: usize, il: usize) {
        self.at_offset(self.t.offset([k, jl, il]));
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 6,
            bytes: 24,
        }
    }
}

/// Active-set EOS: entry `idx` is a packed wet cell `(k·pj + jl)·pi + il`.
/// Density below `kmt` (and on land) is never consumed — `rho` feeds only
/// the pressure integral and the canuto `N²`, both of which stop at the
/// column bottom — so skipping those cells is bitwise neutral.
///
/// The packed index doubles as the storage-order offset of the root
/// `[nz, pj, pi]` state views, so the hot path is division-free.
pub struct FunctorEosList {
    pub f: FunctorEos,
}

impl FunctorList for FunctorEosList {
    fn operator(&self, _n: usize, idx: u32) {
        self.f.at_offset(idx as usize);
    }

    fn cost(&self) -> IterCost {
        self.f.cost()
    }
}

kokkos_rs::register_for_list!(kernel_eos_list, FunctorEosList);

/// Column-wise hydrostatic pressure integral (includes `g ρ0 η`).
pub struct FunctorPressure {
    pub rho: View3<f64>,
    pub eta: View2<f64>,
    pub pressure: View3<f64>,
    pub dz: View1<f64>,
    pub kmt: View2<i32>,
    pub nz: usize,
}

impl Functor2D for FunctorPressure {
    /// Raw padded indices; see [`FunctorEos::operator`].
    fn operator(&self, jl: usize, il: usize) {
        let kmt = self.kmt.at(jl, il) as usize;
        let mut p = GRAVITY * RHO0 * self.eta.at(jl, il);
        let mut prev_rho_dz = 0.0;
        for k in 0..self.nz.min(kmt) {
            let rdz = self.rho.at(k, jl, il) * self.dz.at(k);
            p += GRAVITY * 0.5 * (prev_rho_dz + rdz);
            self.pressure.set_at(k, jl, il, p);
            prev_rho_dz = rdz;
        }
        for k in kmt..self.nz {
            self.pressure.set_at(k, jl, il, p);
        }
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 5 * self.nz as u64,
            bytes: 24 * self.nz as u64,
        }
    }
}

/// Active-set pressure: entry `idx` is a packed wet column `jl·pi + il`.
/// Dry columns keep their initial zero pressure, which is exactly what
/// the column integral would write there (η ≡ 0 in the baroclinic
/// integral), so the skip is bitwise neutral. The set must span the
/// **padded** block — the momentum stencil reads pressure in the halo
/// columns.
pub struct FunctorPressureList {
    pub f: FunctorPressure,
    pub pi: usize,
}

impl FunctorList for FunctorPressureList {
    fn operator(&self, _n: usize, idx: u32) {
        let idx = idx as usize;
        self.f.operator(idx / self.pi, idx % self.pi);
    }

    fn cost(&self) -> IterCost {
        self.f.cost()
    }
}

kokkos_rs::register_for_list!(kernel_pressure_list, FunctorPressureList);

/// Register this module's functors.
pub fn register() {
    kernel_eos_list();
    kernel_pressure_list();
}

/// Density over the packed wet cells, then pressure over the packed wet
/// columns. Both sets span the **padded** block, so pressure halos are
/// valid wherever T/S halos are.
pub fn compute_density_pressure_active(
    space: &Space,
    cells: &ListPolicy,
    cols: &ListPolicy,
    f_eos: FunctorEosList,
    f_p: FunctorPressureList,
) {
    parallel_for_list(space, cells, &f_eos);
    parallel_for_list(space, cols, &f_p);
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_exchange::HALO as H;
    use kokkos_rs::View;

    /// Density and pressure over every cell and column of the padded
    /// block (the model passes the wet subsets).
    fn compute(eos: &FunctorEos, p: &FunctorPressure) {
        let [nz, pj, pi] = eos.t.dims();
        let all = |n: usize| ListPolicy::new(std::sync::Arc::new((0..n as u32).collect()));
        compute_density_pressure_active(
            &Space::serial(),
            &all(nz * pj * pi),
            &all(pj * pi),
            FunctorEosList {
                f: FunctorEos {
                    t: eos.t.clone(),
                    s: eos.s.clone(),
                    rho: eos.rho.clone(),
                },
            },
            FunctorPressureList {
                f: FunctorPressure {
                    rho: p.rho.clone(),
                    eta: p.eta.clone(),
                    pressure: p.pressure.clone(),
                    dz: p.dz.clone(),
                    kmt: p.kmt.clone(),
                    nz,
                },
                pi,
            },
        );
    }

    fn setup(nz: usize, ny: usize, nx: usize) -> (FunctorEos, FunctorPressure) {
        let d3 = [nz, ny + 2 * H, nx + 2 * H];
        let d2 = [ny + 2 * H, nx + 2 * H];
        let t: View3<f64> = View::host("t", d3);
        let s: View3<f64> = View::host("s", d3);
        let rho: View3<f64> = View::host("rho", d3);
        let eta: View2<f64> = View::host("eta", d2);
        let p: View3<f64> = View::host("p", d3);
        let dz: View1<f64> = View::host("dz", [nz]);
        let kmt: View2<i32> = View::host("kmt", d2);
        t.fill(T_REF);
        s.fill(S_REF);
        dz.fill(10.0);
        kmt.fill(nz as i32);
        (
            FunctorEos {
                t: t.clone(),
                s: s.clone(),
                rho: rho.clone(),
            },
            FunctorPressure {
                rho,
                eta,
                pressure: p,
                dz,
                kmt,
                nz,
            },
        )
    }

    #[test]
    fn reference_state_has_reference_density() {
        let (eos, p) = setup(4, 3, 3);
        compute(&eos, &p);
        assert_eq!(eos.rho.at(0, H, H), RHO0);
    }

    #[test]
    fn warm_water_is_lighter_salty_water_heavier() {
        let (eos, p) = setup(2, 2, 2);
        eos.t.set_at(0, H, H, T_REF + 5.0);
        eos.s.set_at(1, H, H, S_REF + 1.0);
        compute(&eos, &p);
        assert!(eos.rho.at(0, H, H) < RHO0);
        assert!(eos.rho.at(1, H, H) > RHO0);
    }

    #[test]
    fn pressure_increases_downward_hydrostatically() {
        let (eos, p) = setup(6, 2, 2);
        compute(&eos, &p);
        let mut prev = 0.0;
        for k in 0..6 {
            let pk = p.pressure.at(k, H, H);
            assert!(pk > prev, "k={k}: {pk} <= {prev}");
            prev = pk;
        }
        // First level: g*rho0*dz/2 within roundoff (eta = 0).
        let want = GRAVITY * RHO0 * 5.0;
        assert!((p.pressure.at(0, H, H) - want).abs() / want < 1e-12);
    }

    #[test]
    fn free_surface_raises_pressure_everywhere() {
        let (eos, p) = setup(3, 2, 2);
        compute(&eos, &p);
        let base = p.pressure.at(2, H, H);
        p.eta.set_at(H, H, 1.0); // 1 m of extra surface height
        compute(&eos, &p);
        let lifted = p.pressure.at(2, H, H);
        assert!((lifted - base - GRAVITY * RHO0).abs() < 1e-6);
    }

    #[test]
    fn land_columns_get_flat_extension() {
        let (eos, p) = setup(4, 2, 2);
        p.kmt.set_at(H, H, 2);
        compute(&eos, &p);
        // Below kmt the pressure is held constant.
        assert_eq!(p.pressure.at(2, H, H), p.pressure.at(1, H, H));
        assert_eq!(p.pressure.at(3, H, H), p.pressure.at(1, H, H));
    }
}
