//! Split-explicit barotropic (free-surface) solver.
//!
//! The fast external gravity-wave mode is integrated with many small
//! leapfrog substeps (`dt_barotropic`, e.g. 2 s at km scale vs the 20 s
//! baroclinic step — Table III), forced by the depth-mean of the
//! baroclinic tendency. The window-averaged surface height and transport
//! feed back into the 3-D solution (mode splitting). Each substep
//! performs a 2-D halo update of η and the barotropic velocities — this
//! is why the *halo update is the model's serial bottleneck* (§V-D): at
//! km scale there are 10 substeps per baroclinic step, each with its own
//! exchange.
//!
//! Near the tripolar cap the zonal spacing tightens and the explicit
//! substep would violate the gravity-wave CFL; like LICOM (and POP), a
//! zonal **polar filter** smooths the fast fields on the offending rows.

use kokkos_rs::{
    parallel_for_2d, Functor2D, FunctorList, FunctorPair2D, FunctorTriple2D, IterCost,
    MDRangePolicy2, Space, View1, View2,
};
use ocean_grid::GRAVITY;

use halo_exchange::{FoldKind, Halo, HaloError, Pending, HALO as H};

use crate::constants::ASSELIN;
use crate::localgrid::LocalGrid;
use crate::state::State;

/// Depth-mean of a 3-D tendency at B-grid corners, weighted by layer
/// thickness over the corner's active column.
pub struct FunctorDepthMean {
    pub tend: kokkos_rs::View3<f64>,
    pub out: View2<f64>,
    pub kmu: View2<i32>,
    pub dz: View1<f64>,
}

impl FunctorDepthMean {
    /// One corner at **padded** indices (the list launch's body).
    fn column(&self, jl: usize, il: usize) {
        let kb = self.kmu.at(jl, il) as usize;
        if kb == 0 {
            self.out.set_at(jl, il, 0.0);
            return;
        }
        let mut sum = 0.0;
        let mut h = 0.0;
        for k in 0..kb {
            let dz = self.dz.at(k);
            sum += self.tend.at(k, jl, il) * dz;
            h += dz;
        }
        self.out.set_at(jl, il, sum / h);
    }
}

impl Functor2D for FunctorDepthMean {
    fn operator(&self, j: usize, i: usize) {
        self.column(j + H, i + H);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 60,
            bytes: 500,
        }
    }
}

/// Active-set depth mean: entry `idx` is a packed wet velocity corner
/// (`kmu > 0`). Dry corners keep the output's initial zero — exactly what
/// the column body writes there, and nothing else writes `out` — so the skip
/// is bitwise neutral. (The substep kernels [`FunctorBtEta`]/
/// [`FunctorBtVel`] deliberately stay dense: the zonal polar filter and
/// the Asselin filter write land cells unmasked, so their land zeros are
/// real state the next substep's stencils read.)
pub struct FunctorDepthMeanList {
    pub f: FunctorDepthMean,
    pub pi: usize,
}

impl FunctorList for FunctorDepthMeanList {
    fn operator(&self, _n: usize, idx: u32) {
        let packed = idx as usize;
        self.f.column(packed / self.pi, packed % self.pi);
    }

    fn cost(&self) -> IterCost {
        self.f.cost()
    }
}

kokkos_rs::register_for_list!(kernel_depth_mean_list, FunctorDepthMeanList);

/// One leapfrog continuity substep:
/// `η_new = η_old − dt2 · ∇·(H u_bt) / area` on T cells.
pub struct FunctorBtEta {
    pub eta_old: View2<f64>,
    pub eta_new: View2<f64>,
    pub ub: View2<f64>,
    pub vb: View2<f64>,
    pub depth: View2<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dt2: f64,
}

impl FunctorBtEta {
    /// Zonal transport through the east face of `(jl, il)`.
    #[inline]
    fn flux_e(&self, jl: usize, il: usize) -> f64 {
        if self.kmt.at(jl, il) == 0 || self.kmt.at(jl, il + 1) == 0 {
            return 0.0;
        }
        let uf = 0.5 * (self.ub.at(jl, il) + self.ub.at(jl - 1, il));
        let h = self.depth.at(jl, il).min(self.depth.at(jl, il + 1));
        uf * h * self.dyt
    }

    /// Meridional transport through the north face of `(jl, il)`.
    #[inline]
    fn flux_n(&self, jl: usize, il: usize) -> f64 {
        if self.kmt.at(jl, il) == 0 || self.kmt.at(jl + 1, il) == 0 {
            return 0.0;
        }
        let vf = 0.5 * (self.vb.at(jl, il) + self.vb.at(jl, il - 1));
        let h = self.depth.at(jl, il).min(self.depth.at(jl + 1, il));
        let dx_face = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
        vf * h * dx_face
    }
}

impl Functor2D for FunctorBtEta {
    fn operator(&self, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        if self.kmt.at(jl, il) == 0 {
            self.eta_new.set_at(jl, il, 0.0);
            return;
        }
        let area = self.dxt.at(jl) * self.dyt;
        let div = self.flux_e(jl, il) - self.flux_e(jl, il - 1) + self.flux_n(jl, il)
            - self.flux_n(jl - 1, il);
        self.eta_new
            .set_at(jl, il, self.eta_old.at(jl, il) - self.dt2 * div / area);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 30,
            bytes: 180,
        }
    }
}

kokkos_rs::register_for_2d!(kernel_bt_eta, FunctorBtEta);

/// One leapfrog momentum substep at B-grid corners:
/// `u_new = u_old + dt2 (−g ∂η/∂x + f v + Gu)` (and the v analogue).
pub struct FunctorBtVel {
    pub u_old: View2<f64>,
    pub v_old: View2<f64>,
    pub u_cur: View2<f64>,
    pub v_cur: View2<f64>,
    pub eta_cur: View2<f64>,
    pub u_new: View2<f64>,
    pub v_new: View2<f64>,
    pub gu: View2<f64>,
    pub gv: View2<f64>,
    pub fcor: View1<f64>,
    pub kmu: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dt2: f64,
}

impl Functor2D for FunctorBtVel {
    fn operator(&self, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        if self.kmu.at(jl, il) == 0 {
            self.u_new.set_at(jl, il, 0.0);
            self.v_new.set_at(jl, il, 0.0);
            return;
        }
        let dx_c = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
        let e = &self.eta_cur;
        let gx = 0.5
            * ((e.at(jl, il + 1) - e.at(jl, il)) + (e.at(jl + 1, il + 1) - e.at(jl + 1, il)))
            / dx_c;
        let gy = 0.5
            * ((e.at(jl + 1, il) - e.at(jl, il)) + (e.at(jl + 1, il + 1) - e.at(jl, il + 1)))
            / self.dyt;
        let f = self.fcor.at(jl);
        let u = self.u_cur.at(jl, il);
        let v = self.v_cur.at(jl, il);
        self.u_new.set_at(
            jl,
            il,
            self.u_old.at(jl, il) + self.dt2 * (-GRAVITY * gx + f * v + self.gu.at(jl, il)),
        );
        self.v_new.set_at(
            jl,
            il,
            self.v_old.at(jl, il) + self.dt2 * (-GRAVITY * gy - f * u + self.gv.at(jl, il)),
        );
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 28,
            bytes: 150,
        }
    }
}

kokkos_rs::register_for_2d!(kernel_bt_vel, FunctorBtVel);

/// Asselin time filter on a 2-D leapfrog triple:
/// `cur += γ (old − 2 cur + new)`.
pub struct FunctorAsselin2D {
    pub old: View2<f64>,
    pub cur: View2<f64>,
    pub new: View2<f64>,
}

impl Functor2D for FunctorAsselin2D {
    fn operator(&self, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let c = self.cur.at(jl, il);
        self.cur.set_at(
            jl,
            il,
            c + ASSELIN * (self.old.at(jl, il) - 2.0 * c + self.new.at(jl, il)),
        );
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 5,
            bytes: 32,
        }
    }
}

kokkos_rs::register_for_2d!(kernel_asselin_2d, FunctorAsselin2D);

/// Zonal 1-2-1 filter on flagged rows (`rows[jl] != 0`), writing `dst`;
/// identity elsewhere.
pub struct FunctorZonalFilter {
    pub src: View2<f64>,
    pub dst: View2<f64>,
    pub rows: View1<i32>,
}

impl Functor2D for FunctorZonalFilter {
    fn operator(&self, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let v = if self.rows.at(jl) != 0 {
            0.25 * self.src.at(jl, il - 1)
                + 0.5 * self.src.at(jl, il)
                + 0.25 * self.src.at(jl, il + 1)
        } else {
            self.src.at(jl, il)
        };
        self.dst.set_at(jl, il, v);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 4,
            bytes: 40,
        }
    }
}

kokkos_rs::register_for_2d!(kernel_zonal_filter, FunctorZonalFilter);

/// Copy owned cells of a 2-D view.
pub struct FunctorCopy2D {
    pub src: View2<f64>,
    pub dst: View2<f64>,
}

impl Functor2D for FunctorCopy2D {
    fn operator(&self, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        self.dst.set_at(jl, il, self.src.at(jl, il));
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 0,
            bytes: 16,
        }
    }
}

kokkos_rs::register_for_2d!(kernel_copy_2d, FunctorCopy2D);

/// `acc += x` over the full padded block (halos included, so the
/// window-averaged fields inherit valid halos).
pub struct FunctorAccum2D {
    pub acc: View2<f64>,
    pub x: View2<f64>,
}

impl Functor2D for FunctorAccum2D {
    fn operator(&self, j: usize, i: usize) {
        self.acc.set_at(j, i, self.acc.at(j, i) + self.x.at(j, i));
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 1,
            bytes: 24,
        }
    }
}

kokkos_rs::register_for_2d!(kernel_accum_2d, FunctorAccum2D);

/// `dst = src * scale` over the full padded block.
pub struct FunctorScaleAssign2D {
    pub src: View2<f64>,
    pub dst: View2<f64>,
    pub scale: f64,
}

impl Functor2D for FunctorScaleAssign2D {
    fn operator(&self, j: usize, i: usize) {
        self.dst.set_at(j, i, self.src.at(j, i) * self.scale);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 1,
            bytes: 16,
        }
    }
}

kokkos_rs::register_for_2d!(kernel_scale_assign_2d, FunctorScaleAssign2D);

// Fused per-substep launches (kernel fusion): the substep loop issues many
// small 2-D kernels over the same policy, and on the Sunway backend each
// launch pays registry dispatch plus CPE spin-up. Fusing same-shaped
// updates with disjoint write sets into one body keeps results bitwise
// identical (per-cell arithmetic and per-array update order are unchanged)
// while cutting the launch count of the barotropic loop by ~2.5x.

/// η + (u,v) leapfrog updates of one substep in a single launch. Safe to
/// fuse: `FunctorBtVel` reads the `[c]` η level, never the `[n]` level
/// `FunctorBtEta` writes.
type FunctorBtStep = FunctorPair2D<FunctorBtEta, FunctorBtVel>;
/// The three window accumulators (η, u, v) in one launch.
type FunctorAccum3 = FunctorTriple2D<FunctorAccum2D, FunctorAccum2D, FunctorAccum2D>;
/// Asselin filter on all three fields in one launch.
type FunctorAsselin3 = FunctorTriple2D<FunctorAsselin2D, FunctorAsselin2D, FunctorAsselin2D>;
/// Three scaled copies (level init / window averaging) in one launch.
type FunctorScaleAssign3 =
    FunctorTriple2D<FunctorScaleAssign2D, FunctorScaleAssign2D, FunctorScaleAssign2D>;

kokkos_rs::register_for_2d!(kernel_bt_step, FunctorBtStep);
kokkos_rs::register_for_2d!(kernel_accum_3, FunctorAccum3);
kokkos_rs::register_for_2d!(kernel_asselin_3, FunctorAsselin3);
kokkos_rs::register_for_2d!(kernel_scale_assign_3, FunctorScaleAssign3);

fn accum3(accs: &[View2<f64>; 3], xs: [&View2<f64>; 3]) -> FunctorAccum3 {
    FunctorTriple2D {
        a: FunctorAccum2D {
            acc: accs[0].clone(),
            x: xs[0].clone(),
        },
        b: FunctorAccum2D {
            acc: accs[1].clone(),
            x: xs[1].clone(),
        },
        c: FunctorAccum2D {
            acc: accs[2].clone(),
            x: xs[2].clone(),
        },
    }
}

/// Register this module's functors.
pub fn register() {
    kernel_depth_mean_list();
    kernel_bt_eta();
    kernel_bt_vel();
    kernel_asselin_2d();
    kernel_zonal_filter();
    kernel_copy_2d();
    kernel_accum_2d();
    kernel_scale_assign_2d();
    kernel_bt_step();
    kernel_accum_3();
    kernel_asselin_3();
    kernel_scale_assign_3();
}

/// Add the previous substep's `[n]` values into the accumulators over the
/// four **ghost rectangles** of the padded block. The dense schedule
/// accumulates the full padded block right after its blocking exchange;
/// the overlap pipeline accumulates owned cells immediately and settles
/// this ghost "debt" once the deferred exchange finishes. Each acc cell
/// still receives exactly one addition per substep, in substep order, so
/// the result is bitwise identical.
fn flush_ghost_debt(
    space: &Space,
    g: &LocalGrid,
    accs: &[View2<f64>; 3],
    debt: &mut Option<[View2<f64>; 3]>,
) {
    let Some(fields) = debt.take() else { return };
    let rects = [
        MDRangePolicy2::new([H, g.pi]),
        MDRangePolicy2::new([H, g.pi]).with_offset([H + g.ny, 0]),
        MDRangePolicy2::new([g.ny, H]).with_offset([H, 0]),
        MDRangePolicy2::new([g.ny, H]).with_offset([H, H + g.nx]),
    ];
    let f = accum3(accs, [&fields[0], &fields[1], &fields[2]]);
    for r in rects {
        parallel_for_2d(space, r, &f);
    }
}

/// Integrate the barotropic system over one leapfrog window (`2 dt_c`),
/// starting from `state.eta[cur]`, `state.ubt`, `state.vbt`, forced by
/// the depth-mean tendencies `gu`, `gv`. On return `state.eta[new]`,
/// `state.ubt`, `state.vbt` hold the window averages (with valid halos).
/// `Err` means a per-substep halo update stayed unrecoverable after the
/// integrity layer's retries; the barotropic work arrays are then in an
/// undefined state and the caller must roll back.
///
/// With `overlap = false` every substep ends with blocking per-field halo
/// updates — the dense reference schedule. With `overlap = true` the
/// substeps form a software pipeline: the `[n]`-level exchange is posted
/// as one batched split-phase message set and carried into the *next*
/// substep, whose interior cells (reading no ghost) run while it is in
/// flight; the boundary rim runs after `finish()`. The window
/// accumulation follows with an owned-now/ghost-later split (see
/// [`flush_ghost_debt`]). Both schedules are bitwise identical.
#[allow(clippy::too_many_arguments)]
pub fn integrate(
    space: &Space,
    g: &LocalGrid,
    state: &mut State,
    halo: &Halo,
    gu: &View2<f64>,
    gv: &View2<f64>,
    dtb: f64,
    substeps: usize,
    filter_rows: &View1<i32>,
    filter_passes: usize,
    overlap: bool,
) -> Result<(), HaloError> {
    // The pipeline needs an interior to hide the exchange behind.
    let overlap = overlap && g.ny >= 3 && g.nx >= 3;
    let policy = MDRangePolicy2::new([g.ny, g.nx]);
    let full = MDRangePolicy2::new([g.pj, g.pi]);
    // Working triple: indices into state.bt_* (old, cur, new roles).
    let (mut o, mut c, mut n) = (0usize, 1usize, 2usize);
    let init_region = kokkos_rs::profiling::region("bt:init");
    for lev in 0..3 {
        parallel_for_2d(
            space,
            full,
            &FunctorTriple2D {
                a: FunctorScaleAssign2D {
                    src: state.eta[state.cur()].clone(),
                    dst: state.bt_eta[lev].clone(),
                    scale: 1.0,
                },
                b: FunctorScaleAssign2D {
                    src: state.ubt.clone(),
                    dst: state.bt_u[lev].clone(),
                    scale: 1.0,
                },
                c: FunctorScaleAssign2D {
                    src: state.vbt.clone(),
                    dst: state.bt_v[lev].clone(),
                    scale: 1.0,
                },
            },
        );
    }
    // Window accumulators: persistent workspace views, zeroed at entry
    // (a fresh allocation arrived zeroed; `fill` keeps that bitwise).
    let acc_eta = state.work.acc_eta.clone();
    let acc_u = state.work.acc_u.clone();
    let acc_v = state.work.acc_v.clone();
    acc_eta.fill(0.0);
    acc_u.fill(0.0);
    acc_v.fill(0.0);
    drop(init_region);

    // Pipeline state (overlap mode): the previous substep's `[n]`-level
    // exchange still in flight, and the accumulator ghost rectangles owed
    // the previous `[n]` values.
    let mut pend: Option<Pending<'_>> = None;
    let mut debt: Option<[View2<f64>; 3]> = None;

    for step in 0..substeps {
        let _substep = kokkos_rs::profiling::region("bt:substep");
        // First substep is forward Euler (old == cur at entry).
        let dt2 = if step == 0 { dtb } else { 2.0 * dtb };
        let f_eta = FunctorBtEta {
            eta_old: state.bt_eta[o].clone(),
            eta_new: state.bt_eta[n].clone(),
            ub: state.bt_u[c].clone(),
            vb: state.bt_v[c].clone(),
            depth: g.depth.clone(),
            kmt: g.kmt.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
            dt2,
        };
        let f_vel = FunctorBtVel {
            u_old: state.bt_u[o].clone(),
            v_old: state.bt_v[o].clone(),
            u_cur: state.bt_u[c].clone(),
            v_cur: state.bt_v[c].clone(),
            eta_cur: state.bt_eta[c].clone(),
            u_new: state.bt_u[n].clone(),
            v_new: state.bt_v[n].clone(),
            gu: gu.clone(),
            gv: gv.clone(),
            fcor: g.fcor.clone(),
            kmu: g.kmu.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
            dt2,
        };
        // Fused η+velocity substep (see `FunctorBtStep`).
        let f_step = FunctorPair2D { a: f_eta, b: f_vel };
        match pend.take() {
            Some(p) => {
                // The exchange posted last substep covers this substep's
                // `[c]` ghosts. Both stencils have radius 1, so cells at
                // least one row/column inside the owned block read no
                // ghost — run them while the messages are in flight.
                let interior = MDRangePolicy2::new([g.ny - 2, g.nx - 2]).with_offset([1, 1]);
                parallel_for_2d(space, interior, &f_step);
                {
                    let _r = kokkos_rs::profiling::region("bt:halo");
                    p.finish()?;
                }
                flush_ghost_debt(
                    space,
                    g,
                    &[acc_eta.clone(), acc_u.clone(), acc_v.clone()],
                    &mut debt,
                );
                // Boundary rim: the one-cell band around the owned block.
                for rp in [
                    MDRangePolicy2::new([1, g.nx]),
                    MDRangePolicy2::new([1, g.nx]).with_offset([g.ny - 1, 0]),
                    MDRangePolicy2::new([g.ny - 2, 1]).with_offset([1, 0]),
                    MDRangePolicy2::new([g.ny - 2, 1]).with_offset([1, g.nx - 1]),
                ] {
                    parallel_for_2d(space, rp, &f_step);
                }
            }
            None => {
                parallel_for_2d(space, policy, &f_step);
            }
        }
        // Asselin on the middle level, all three fields fused.
        parallel_for_2d(
            space,
            policy,
            &FunctorTriple2D {
                a: FunctorAsselin2D {
                    old: state.bt_eta[o].clone(),
                    cur: state.bt_eta[c].clone(),
                    new: state.bt_eta[n].clone(),
                },
                b: FunctorAsselin2D {
                    old: state.bt_u[o].clone(),
                    cur: state.bt_u[c].clone(),
                    new: state.bt_u[n].clone(),
                },
                c: FunctorAsselin2D {
                    old: state.bt_v[o].clone(),
                    cur: state.bt_v[c].clone(),
                    new: state.bt_v[n].clone(),
                },
            },
        );
        // Halo updates of the new level, then polar filter, then window
        // accumulation. Overlap mode defers whichever exchange comes last
        // (the bare `[n]` update, or the final filter pass's) into `pend`,
        // and accumulates owned cells now / ghost rectangles at `finish`.
        if overlap {
            let (eta, u, v) = (
                state.bt_eta[n].lift(),
                state.bt_u[n].lift(),
                state.bt_v[n].lift(),
            );
            let batch = [
                (&eta, FoldKind::Scalar),
                (&u, FoldKind::Vector),
                (&v, FoldKind::Vector),
            ];
            if filter_passes == 0 {
                let _r = kokkos_rs::profiling::region("bt:halo");
                pend = Some(halo.begin(&batch, 500)?);
            } else {
                {
                    let _r = kokkos_rs::profiling::region("bt:halo");
                    halo.try_exchange(&batch, 500)?;
                }
                let filter_region = kokkos_rs::profiling::region("bt:filter");
                for pass in 0..filter_passes {
                    for field in [&state.bt_eta[n], &state.bt_u[n], &state.bt_v[n]] {
                        parallel_for_2d(
                            space,
                            policy,
                            &FunctorZonalFilter {
                                src: field.clone(),
                                dst: state.work.filter2.clone(),
                                rows: filter_rows.clone(),
                            },
                        );
                        parallel_for_2d(
                            space,
                            policy,
                            &FunctorCopy2D {
                                src: state.work.filter2.clone(),
                                dst: field.clone(),
                            },
                        );
                    }
                    if pass + 1 == filter_passes {
                        pend = Some(halo.begin(&batch, 530)?);
                    } else {
                        halo.try_exchange(&batch, 530)?;
                    }
                }
                drop(filter_region);
            }
            let own = MDRangePolicy2::new([g.ny, g.nx]).with_offset([H, H]);
            parallel_for_2d(
                space,
                own,
                &accum3(
                    &[acc_eta.clone(), acc_u.clone(), acc_v.clone()],
                    [&state.bt_eta[n], &state.bt_u[n], &state.bt_v[n]],
                ),
            );
            debt = Some([
                state.bt_eta[n].clone(),
                state.bt_u[n].clone(),
                state.bt_v[n].clone(),
            ]);
        } else {
            {
                let _r = kokkos_rs::profiling::region("bt:halo");
                halo.try_exchange(&[(&state.bt_eta[n].lift(), FoldKind::Scalar)], 500)?;
                halo.try_exchange(&[(&state.bt_u[n].lift(), FoldKind::Vector)], 510)?;
                halo.try_exchange(&[(&state.bt_v[n].lift(), FoldKind::Vector)], 520)?;
            }
            // Polar filter on the new level.
            let filter_region = kokkos_rs::profiling::region("bt:filter");
            for _ in 0..filter_passes {
                for (field, kind, base) in [
                    (&state.bt_eta[n], FoldKind::Scalar, 530u64),
                    (&state.bt_u[n], FoldKind::Vector, 540),
                    (&state.bt_v[n], FoldKind::Vector, 550),
                ] {
                    parallel_for_2d(
                        space,
                        policy,
                        &FunctorZonalFilter {
                            src: field.clone(),
                            dst: state.work.filter2.clone(),
                            rows: filter_rows.clone(),
                        },
                    );
                    parallel_for_2d(
                        space,
                        policy,
                        &FunctorCopy2D {
                            src: state.work.filter2.clone(),
                            dst: field.clone(),
                        },
                    );
                    halo.try_exchange(&[(&field.lift(), kind)], base)?;
                }
            }
            drop(filter_region);
            // Accumulate window averages (full padded block: halos valid).
            parallel_for_2d(
                space,
                full,
                &accum3(
                    &[acc_eta.clone(), acc_u.clone(), acc_v.clone()],
                    [&state.bt_eta[n], &state.bt_u[n], &state.bt_v[n]],
                ),
            );
        }
        // Rotate (old ← cur ← new ← old).
        let t = o;
        o = c;
        c = n;
        n = t;
    }
    // Drain the pipeline: the final substep's exchange and its
    // accumulator ghost debt.
    if let Some(p) = pend.take() {
        let _r = kokkos_rs::profiling::region("bt:halo");
        p.finish()?;
    }
    flush_ghost_debt(
        space,
        g,
        &[acc_eta.clone(), acc_u.clone(), acc_v.clone()],
        &mut debt,
    );
    let _average = kokkos_rs::profiling::region("bt:average");
    let scale = 1.0 / substeps as f64;
    let nl = state.new_lev();
    parallel_for_2d(
        space,
        full,
        &FunctorTriple2D {
            a: FunctorScaleAssign2D {
                src: acc_eta,
                dst: state.eta[nl].clone(),
                scale,
            },
            b: FunctorScaleAssign2D {
                src: acc_u,
                dst: state.ubt.clone(),
                scale,
            },
            c: FunctorScaleAssign2D {
                src: acc_v,
                dst: state.vbt.clone(),
                scale,
            },
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::{View, View3};

    fn views2(n: usize) -> (usize, usize) {
        (n + 2 * H, n + 2 * H)
    }

    #[test]
    fn bt_eta_flat_state_is_steady() {
        let (pj, pi) = views2(4);
        let f = FunctorBtEta {
            eta_old: View::host("eo", [pj, pi]),
            eta_new: View::host("en", [pj, pi]),
            ub: View::host("ub", [pj, pi]),
            vb: View::host("vb", [pj, pi]),
            depth: View::host("d", [pj, pi]),
            kmt: View::host("k", [pj, pi]),
            dxt: View::host("dx", [pj]),
            dyt: 1.0e5,
            dt2: 100.0,
        };
        f.depth.fill(4000.0);
        f.kmt.fill(5);
        f.dxt.fill(1.0e5);
        f.eta_old.fill(0.3);
        // No flow → continuity keeps eta.
        f.operator(1, 1);
        assert_eq!(f.eta_new.at(H + 1, H + 1), 0.3);
    }

    #[test]
    fn bt_eta_divergence_lowers_surface() {
        let (pj, pi) = views2(4);
        let f = FunctorBtEta {
            eta_old: View::host("eo", [pj, pi]),
            eta_new: View::host("en", [pj, pi]),
            ub: View::host("ub", [pj, pi]),
            vb: View::host("vb", [pj, pi]),
            depth: View::host("d", [pj, pi]),
            kmt: View::host("k", [pj, pi]),
            dxt: View::host("dx", [pj]),
            dyt: 1.0e5,
            dt2: 100.0,
        };
        f.depth.fill(4000.0);
        f.kmt.fill(5);
        f.dxt.fill(1.0e5);
        // Diverging zonal flow around the center cell: u > 0 east of it,
        // u < 0 west (corner velocities).
        for jl in 0..pj {
            for il in 0..pi {
                f.ub.set_at(jl, il, if il >= H + 2 { 0.1 } else { -0.1 });
            }
        }
        f.operator(2, 2); // cell (H+2, H+2): east face +, west face −
        assert!(
            f.eta_new.at(H + 2, H + 2) < 0.0,
            "divergence must lower eta: {}",
            f.eta_new.at(H + 2, H + 2)
        );
    }

    #[test]
    fn bt_vel_pressure_gradient_accelerates_downslope() {
        let (pj, pi) = views2(4);
        let f = FunctorBtVel {
            u_old: View::host("uo", [pj, pi]),
            v_old: View::host("vo", [pj, pi]),
            u_cur: View::host("uc", [pj, pi]),
            v_cur: View::host("vc", [pj, pi]),
            eta_cur: View::host("ec", [pj, pi]),
            u_new: View::host("un", [pj, pi]),
            v_new: View::host("vn", [pj, pi]),
            gu: View::host("gu", [pj, pi]),
            gv: View::host("gv", [pj, pi]),
            fcor: View::host("fc", [pj]),
            kmu: View::host("km", [pj, pi]),
            dxt: View::host("dx", [pj]),
            dyt: 1.0e5,
            dt2: 50.0,
        };
        f.kmu.fill(5);
        f.dxt.fill(1.0e5);
        // eta sloping up to the east: du/dt = -g deta/dx < 0.
        for jl in 0..pj {
            for il in 0..pi {
                f.eta_cur.set_at(jl, il, 0.01 * il as f64);
            }
        }
        f.operator(1, 1);
        let du = f.u_new.at(H + 1, H + 1);
        let expect = -GRAVITY * (0.01 / 1.0e5) * 50.0;
        assert!((du - expect).abs() < 1e-12, "du {du} vs analytic {expect}");
        assert_eq!(f.v_new.at(H + 1, H + 1), 0.0);
    }

    #[test]
    fn zonal_filter_damps_two_grid_wave_and_preserves_mean() {
        let (pj, pi) = views2(8);
        let src: kokkos_rs::View2<f64> = View::host("s", [pj, pi]);
        let dst: kokkos_rs::View2<f64> = View::host("d", [pj, pi]);
        let rows: View1<i32> = View::host("r", [pj]);
        rows.set_at(H + 1, 1);
        for il in 0..pi {
            // 2Δx wave on the flagged row, smooth on others.
            src.set_at(H + 1, il, if il % 2 == 0 { 1.0 } else { -1.0 });
            src.set_at(H + 2, il, 5.0);
        }
        let f = FunctorZonalFilter {
            src: src.clone(),
            dst: dst.clone(),
            rows,
        };
        for j in 0..8 {
            for i in 0..8 {
                f.operator(j, i);
            }
        }
        // 1-2-1 annihilates the 2Δx wave...
        for il in H..H + 8 {
            assert!(dst.at(H + 1, il).abs() < 1e-15);
        }
        // ...and leaves unflagged rows untouched.
        assert_eq!(dst.at(H + 2, H + 3), 5.0);
    }

    #[test]
    fn depth_mean_weights_by_thickness() {
        let (pj, pi) = views2(2);
        let nz = 3;
        let tend: View3<f64> = View::host("t", [nz, pj, pi]);
        let f = FunctorDepthMean {
            tend: tend.clone(),
            out: View::host("o", [pj, pi]),
            kmu: View::host("k", [pj, pi]),
            dz: View::host("dz", [nz]),
        };
        f.kmu.fill(3);
        f.dz.set_at(0, 10.0);
        f.dz.set_at(1, 20.0);
        f.dz.set_at(2, 70.0);
        tend.set_at(0, H, H, 1.0);
        tend.set_at(1, H, H, 2.0);
        tend.set_at(2, H, H, 3.0);
        f.operator(0, 0);
        let want = (10.0 + 40.0 + 210.0) / 100.0;
        assert!((f.out.at(H, H) - want).abs() < 1e-12);
    }

    #[test]
    fn stability_functions_registered() {
        register();
        // Registration is idempotent and names exist.
        let names: Vec<&str> = kokkos_rs::registry::registered_kernels()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert!(names.contains(&"kernel_bt_eta"));
        assert!(names.contains(&"kernel_bt_vel"));
    }
}
