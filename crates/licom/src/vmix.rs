//! Implicit vertical mixing: tridiagonal solves per column.
//!
//! Vertical diffusion with canuto coefficients is far stiffer than the
//! time step allows explicitly (K ~ 5·10⁻² m²/s over dz ~ 5 m), so — like
//! LICOM — it is applied backward-Euler implicitly:
//!
//! `(I − dt ∂z K ∂z) q' = q`,
//!
//! one tridiagonal system per wet column, solved with the Thomas
//! algorithm in thread-local stack arrays (max 256 levels, enough for the
//! 244-level full-depth configuration).

use kokkos_rs::{Functor2D, FunctorList, IterCost, View1, View2, View3};

use halo_exchange::HALO as H;

/// Maximum supported vertical levels (full-depth config has 244).
pub const MAX_NZ: usize = 256;

/// Solve `(I − dt ∂z K ∂z) q' = q` in place for one field, column-wise.
///
/// `kcoef` holds interface coefficients (`nz+1` levels; interfaces `0`
/// and `kmt` act as zero-flux boundaries). `mask` is `kmt` for tracers or
/// `kmu` for momentum.
pub struct FunctorVmixImplicit {
    pub q: View3<f64>,
    pub kcoef: View3<f64>,
    pub mask: View2<i32>,
    pub dz: View1<f64>,
    pub z_t: View1<f64>,
    pub dt: f64,
    pub nz: usize,
}

impl FunctorVmixImplicit {
    /// Solve one column at **padded** indices (shared by the rectangle
    /// and active-set launches, so both are bitwise identical).
    fn column(&self, jl: usize, il: usize) {
        let kb = self.mask.at(jl, il) as usize;
        if kb == 0 {
            return;
        }
        assert!(kb <= MAX_NZ);
        // Thread-local stack work arrays (the flat-launch shape); the
        // team variant stages the same arrays in LDM scratch instead.
        let mut a = [0.0f64; MAX_NZ];
        let mut b = [0.0f64; MAX_NZ];
        let mut c = [0.0f64; MAX_NZ];
        let mut d = [0.0f64; MAX_NZ];
        solve_column(
            &self.q,
            &self.kcoef,
            &self.dz,
            &self.z_t,
            self.dt,
            jl,
            il,
            kb,
            &mut a[..kb],
            &mut b[..kb],
            &mut c[..kb],
            &mut d[..kb],
        );
    }
}

impl Functor2D for FunctorVmixImplicit {
    fn operator(&self, j: usize, i: usize) {
        self.column(j + H, i + H);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 14 * self.nz as u64,
            bytes: 64 * self.nz as u64,
        }
    }
}

/// Active-set implicit solve: entry `idx` is a packed wet column
/// `jl·pi + il` (against the same mask the solver uses, so the column
/// solve's land early-return is exactly the set's complement).
pub struct FunctorVmixList {
    pub f: FunctorVmixImplicit,
    pub pi: usize,
}

impl FunctorList for FunctorVmixList {
    fn operator(&self, _n: usize, idx: u32) {
        let packed = idx as usize;
        self.f.column(packed / self.pi, packed % self.pi);
    }

    fn cost(&self) -> IterCost {
        self.f.cost()
    }
}

kokkos_rs::register_for_list!(kernel_vmix_list, FunctorVmixList);

/// Register this module's functors.
pub fn register() {
    kernel_vmix_list();
    kernel_vmix_team();
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::View;

    fn setup(nz: usize, k: f64) -> FunctorVmixImplicit {
        let (pj, pi) = (1 + 2 * H, 1 + 2 * H);
        let q: View3<f64> = View::host("q", [nz, pj, pi]);
        let kc: View3<f64> = View::host("kc", [nz + 1, pj, pi]);
        let mask: View2<i32> = View::host("mask", [pj, pi]);
        let dz: View1<f64> = View::host("dz", [nz]);
        let z_t: View1<f64> = View::host("z_t", [nz]);
        kc.fill(k);
        mask.fill(nz as i32);
        dz.fill(10.0);
        for kk in 0..nz {
            z_t.set_at(kk, 5.0 + 10.0 * kk as f64);
        }
        FunctorVmixImplicit {
            q,
            kcoef: kc,
            mask,
            dz,
            z_t,
            dt: 1800.0,
            nz,
        }
    }

    #[test]
    fn uniform_profile_is_fixed_point() {
        let f = setup(10, 1e-2);
        f.q.fill(3.5);
        f.operator(0, 0);
        for k in 0..10 {
            assert!((f.q.at(k, H, H) - 3.5).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn mixing_conserves_column_integral() {
        let f = setup(12, 5e-2);
        for k in 0..12 {
            f.q.set_at(k, H, H, if k < 6 { 10.0 } else { 0.0 });
        }
        let before: f64 = (0..12).map(|k| f.q.at(k, H, H)).sum();
        f.operator(0, 0);
        let after: f64 = (0..12).map(|k| f.q.at(k, H, H)).sum();
        assert!(
            (before - after).abs() < 1e-9 * before.abs(),
            "{before} → {after}"
        );
    }

    #[test]
    fn mixing_smooths_toward_uniform_and_stays_bounded() {
        let f = setup(8, 5e-2);
        for k in 0..8 {
            f.q.set_at(k, H, H, if k == 3 { 100.0 } else { 0.0 });
        }
        for _ in 0..200 {
            f.operator(0, 0);
        }
        let mean = 100.0 / 8.0;
        for k in 0..8 {
            let v = f.q.at(k, H, H);
            assert!((-1e-9..=100.0).contains(&v), "k={k} v={v}");
            assert!((v - mean).abs() < 2.0, "should approach uniform: {v}");
        }
    }

    #[test]
    fn implicit_solve_is_unconditionally_stable() {
        // Monster diffusivity, thin layers: explicit would explode.
        let f = setup(20, 10.0);
        for k in 0..20 {
            f.q.set_at(k, H, H, (k as f64 * 1.7).sin() * 50.0);
        }
        f.operator(0, 0);
        for k in 0..20 {
            assert!(f.q.at(k, H, H).abs() <= 50.0 + 1e-9);
        }
    }

    #[test]
    fn land_columns_untouched() {
        let f = setup(5, 1e-2);
        f.q.fill(7.0);
        f.mask.set_at(H, H, 0);
        f.operator(0, 0);
        assert_eq!(f.q.at(0, H, H), 7.0);
    }

    #[test]
    fn partial_column_respects_kmt() {
        let f = setup(10, 5e-2);
        f.mask.set_at(H, H, 4);
        for k in 0..10 {
            f.q.set_at(k, H, H, if k < 4 { k as f64 } else { -99.0 });
        }
        f.operator(0, 0);
        // Below kmt untouched; above: mixed but conservative over 0..4.
        for k in 4..10 {
            assert_eq!(f.q.at(k, H, H), -99.0);
        }
        let sum: f64 = (0..4).map(|k| f.q.at(k, H, H)).sum();
        assert!((sum - 6.0).abs() < 1e-9);
    }
}

/// Shared tridiagonal column solve used by both launch shapes, so the
/// flat and team variants are bitwise identical.
#[allow(clippy::too_many_arguments)]
fn solve_column(
    q: &View3<f64>,
    kcoef: &View3<f64>,
    dz: &View1<f64>,
    z_t: &View1<f64>,
    dt: f64,
    jl: usize,
    il: usize,
    kb: usize,
    a: &mut [f64],
    b: &mut [f64],
    c: &mut [f64],
    d: &mut [f64],
) {
    for k in 0..kb {
        let dzk = dz.at(k);
        let au = if k > 0 {
            let dzw = z_t.at(k) - z_t.at(k - 1);
            -dt * kcoef.at(k, jl, il) / (dzk * dzw)
        } else {
            0.0
        };
        let cl = if k + 1 < kb {
            let dzw = z_t.at(k + 1) - z_t.at(k);
            -dt * kcoef.at(k + 1, jl, il) / (dzk * dzw)
        } else {
            0.0
        };
        a[k] = au;
        c[k] = cl;
        b[k] = 1.0 - au - cl;
        d[k] = q.at(k, jl, il);
    }
    for k in 1..kb {
        let m = a[k] / b[k - 1];
        b[k] -= m * c[k - 1];
        d[k] -= m * d[k - 1];
    }
    let mut prev = d[kb - 1] / b[kb - 1];
    q.set_at(kb - 1, jl, il, prev);
    for k in (0..kb - 1).rev() {
        prev = (d[k] - c[k] * prev) / b[k];
        q.set_at(k, jl, il, prev);
    }
}

/// Team-policy variant of the implicit solve: the four tridiagonal work
/// arrays live in **team scratch**, which the `SwAthread` backend
/// allocates from the CPE's LDM — the paper's §V-C2 "defining and using
/// local arrays within the functor" strategy. Bitwise identical to
/// [`FunctorVmixImplicit`]; league rank `r` owns column
/// `(r / nx, r % nx)` of the owned block.
pub struct FunctorVmixTeam {
    pub q: View3<f64>,
    pub kcoef: View3<f64>,
    pub mask: View2<i32>,
    pub dz: View1<f64>,
    pub z_t: View1<f64>,
    pub dt: f64,
    pub nz: usize,
    /// Owned interior width (columns per row).
    pub nx: usize,
}

impl FunctorVmixTeam {
    /// Scratch length the policy must request: 4 work arrays of `nz`.
    pub fn scratch_len(nz: usize) -> usize {
        4 * nz
    }
}

impl kokkos_rs::FunctorTeam for FunctorVmixTeam {
    fn operator(&self, league: usize, scratch: &mut [f64]) {
        let (j, i) = (league / self.nx, league % self.nx);
        let (jl, il) = (j + H, i + H);
        let kb = self.mask.at(jl, il) as usize;
        if kb == 0 {
            return;
        }
        assert!(scratch.len() >= 4 * self.nz, "scratch too small");
        let (aa, rest) = scratch.split_at_mut(self.nz);
        let (bb, rest) = rest.split_at_mut(self.nz);
        let (cc, dd) = rest.split_at_mut(self.nz);
        solve_column(
            &self.q,
            &self.kcoef,
            &self.dz,
            &self.z_t,
            self.dt,
            jl,
            il,
            kb,
            aa,
            bb,
            cc,
            dd,
        );
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 14 * self.nz as u64,
            bytes: 64 * self.nz as u64,
        }
    }
}

kokkos_rs::register_team!(kernel_vmix_team, FunctorVmixTeam);

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod team_tests {
    use super::*;
    use kokkos_rs::{parallel_for_list, parallel_for_team, ListPolicy, Space, TeamPolicy, View};

    fn fields(nz: usize, n: usize) -> (View3<f64>, View3<f64>, View2<i32>, View1<f64>, View1<f64>) {
        let (pj, pi) = (n + 2 * H, n + 2 * H);
        let q: View3<f64> = View::from_fn("q", [nz, pj, pi], |[k, j, i]| {
            ((k * 31 + j * 7 + i * 3) as f64).sin() * 10.0
        });
        let kc: View3<f64> = View::host("kc", [nz + 1, pj, pi]);
        kc.fill(2.0e-2);
        let mask: View2<i32> = View::host("m", [pj, pi]);
        mask.fill(nz as i32);
        mask.set_at(H + 1, H + 1, 0); // one land column
        let dz: View1<f64> = View::host("dz", [nz]);
        dz.fill(25.0);
        let z_t: View1<f64> = View::from_fn("zt", [nz], |[k]| 12.5 + 25.0 * k as f64);
        (q, kc, mask, dz, z_t)
    }

    #[test]
    fn team_solve_bitwise_matches_flat_solve() {
        kernel_vmix_team();
        let (nz, n) = (12, 9);
        let (q1, kc, mask, dz, z_t) = fields(nz, n);
        let q2: View3<f64> = View::host("q2", q1.dims());
        q2.copy_from_slice(q1.as_slice());
        // Wet-column list launch, as the model runs it.
        let pi = n + 2 * H;
        let wet: Vec<u32> = (H..H + n)
            .flat_map(|jl| (H..H + n).map(move |il| (jl, il)))
            .filter(|&(jl, il)| mask.at(jl, il) > 0)
            .map(|(jl, il)| (jl * pi + il) as u32)
            .collect();
        parallel_for_list(
            &Space::serial(),
            &ListPolicy::new(std::sync::Arc::new(wet)),
            &FunctorVmixList {
                f: FunctorVmixImplicit {
                    q: q1.clone(),
                    kcoef: kc.clone(),
                    mask: mask.clone(),
                    dz: dz.clone(),
                    z_t: z_t.clone(),
                    dt: 1800.0,
                    nz,
                },
                pi,
            },
        );
        // Team launch on every backend, including simulated LDM scratch.
        for space in [
            Space::serial(),
            Space::threads(),
            Space::sw_athread_with(sunway_sim::CgConfig::test_small()),
        ] {
            let q3: View3<f64> = View::host("q3", q2.dims());
            q3.copy_from_slice(q2.as_slice());
            parallel_for_team(
                &space,
                TeamPolicy::new(n * n, FunctorVmixTeam::scratch_len(nz)),
                &FunctorVmixTeam {
                    q: q3.clone(),
                    kcoef: kc.clone(),
                    mask: mask.clone(),
                    dz: dz.clone(),
                    z_t: z_t.clone(),
                    dt: 1800.0,
                    nz,
                    nx: n,
                },
            );
            let a: Vec<u64> = q1.as_slice().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = q3.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "team variant diverged on {}", space.name());
        }
    }

    #[test]
    fn full_depth_column_fits_ldm() {
        // 244 levels × 4 arrays × 8 B = 7.6 kB — comfortably inside the
        // 256 kB LDM (the paper's full-depth configuration works).
        assert!(FunctorVmixTeam::scratch_len(244) * 8 < 256 * 1024);
    }
}
