//! `parallel_for` / `parallel_reduce` dispatch.
//!
//! One generic entry point per (pattern, rank); the [`Space`] decides how
//! tiles are executed:
//!
//! * `Serial` — tiles in order, one thread;
//! * `Threads` — tiles on the process executor, within the space's share;
//! * `DeviceSim` — tiles as a block grid on the executor, launch counted;
//! * `SwAthread` — registry lookup → trampoline → simulated CPEs, whose
//!   slots run on the executor too.
//!
//! **Determinism**: for-loops write disjoint elements, so backend choice
//! cannot change results. Reductions always produce one partial per tile
//! and join them in tile order on the launching thread, so their results
//! are bitwise identical across backends and run-to-run.

use crate::functor::IterCost;
use crate::functor::{
    Functor1D, Functor2D, Functor3D, FunctorList, ReduceFunctor1D, ReduceFunctor2D,
    ReduceFunctor3D, ReduceFunctorList, Reducer,
};
use crate::policy::{ListPolicy, MDRangePolicy2, MDRangePolicy3, RangePolicy};
use crate::profiling::{self, PatternKind, PolicyKind};
use crate::registry::{self, KernelKind};
use crate::space::{Space, SwSpace};
use sunway_sim::pipeline::choose_tile_elems;

fn not_registered<F>(kind: &str) -> ! {
    panic!(
        "functor `{}` is not registered for the SwAthread backend; \
         add `{}!(<name>, {});` and call `<name>()` during initialization \
         (the KOKKOS_REGISTER mechanism of paper §V-B)",
        std::any::type_name::<F>(),
        kind,
        std::any::type_name::<F>(),
    )
}

// ---------------------------------------------------------------------------
// Shared host-side tile drivers
// ---------------------------------------------------------------------------
//
// Every host backend runs its tiles through the process executor (the
// `rayon` shim) with the share from `host_share`; Serial is a share-1
// space, so it sweeps the tiles in order on the caller. The SwAthread
// backend dispatches through the registry trampolines in each entry point
// instead, and its core group runs its CPE slots on the same executor.

/// Host launches of fewer iterations run inline on the caller. Measured
/// on a 2-core x86-64 host at share 2: handing a launch to a pool worker
/// costs 3.8–4.2 µs (an empty launch of 64 or 256 tiles), and a 7-point
/// stencil at ~5 ns per iteration first gains from the worker near 4k
/// iterations (−1.6 to +2.9 µs at 4.3k, +4 to +12 µs at 6.5k–8.6k,
/// +18 to +20 µs at 13k). In 1-rank Threads model runs at 45×27×6,
/// 60×36×6 and 90×54×30, a 4096 cut-off was no faster than this one, so
/// launches stay inline up to where the worker's gain is clear of the
/// host's noise.
const INLINE_ITEMS: usize = 8192;

/// The share a host launch of `items` iterations runs with: 1 (inline)
/// below [`INLINE_ITEMS`], else the space's share.
pub(crate) fn host_share(space: &Space, items: usize) -> usize {
    if items < INLINE_ITEMS {
        1
    } else {
        space.share()
    }
}

/// Run `run_tile` over a [`ListPolicy`]'s tiles on a host backend with
/// **cost-weighted scheduling**: the tiles are cut into `share` contiguous
/// parts of equal cumulative cost, not equal tile count. Tile contents
/// never depend on the split, so results stay bitwise identical to the
/// serial sweep.
fn drive_list_tiles(share: usize, policy: &ListPolicy, run_tile: impl Fn(usize) + Sync + Copy) {
    // `run_tile` moves into each part by copy: reached through a
    // reference, its captures would be reloaded per tile.
    rayon::for_each(share, share, move |w| {
        let (lo, hi) = policy.worker_tile_range(w, share);
        (lo..hi).for_each(run_tile);
    });
}

/// Cost-weighted one-partial-per-tile collection for list policies. The
/// parts are contiguous and ascending, so flattening them in part order
/// reproduces the tile order exactly — the reduction join stays
/// deterministic under any share.
fn collect_list_partials(
    share: usize,
    policy: &ListPolicy,
    tile_partial: impl Fn(usize) -> f64 + Sync + Copy,
) -> Vec<f64> {
    let parts: Vec<Vec<f64>> = rayon::map_collect(share, share, move |w| {
        let (lo, hi) = policy.worker_tile_range(w, share);
        (lo..hi).map(tile_partial).collect()
    });
    parts.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------------
// Cost-model-driven tile sizing (SwAthread dense for-launches only)
// ---------------------------------------------------------------------------
//
// On the Sunway backend the tile is the DMA staging unit, so the dispatch
// layer re-tiles dense *for* launches from the functor's `IterCost` and the
// core group's LDM/bandwidth/latency parameters
// ([`sunway_sim::pipeline::choose_tile_elems`]). For-loops write disjoint
// elements, so retiling cannot change results. Reductions and list
// launches keep the caller's tiles untouched: tile geometry is part of
// the deterministic reduction contract (one partial per tile, joined in
// tile order) and of the cost-prefix schedule respectively.

fn sw_retile_1d(sw: &SwSpace, p: RangePolicy, cost: IterCost) -> RangePolicy {
    let t = choose_tile_elems(sw.config(), cost.bytes, p.len());
    p.with_tile(t.max(1))
}

fn sw_retile_2d(sw: &SwSpace, p: MDRangePolicy2, cost: IterCost) -> MDRangePolicy2 {
    let t = choose_tile_elems(sw.config(), cost.bytes, p.extent[0] * p.extent[1]);
    // Keep the caller's row blocking; widen/narrow the streaming (inner)
    // dimension so the tile holds ~the chosen iteration count.
    let w = (t / p.tile[0].max(1)).clamp(1, p.extent[1].max(1));
    p.with_tile([p.tile[0], w])
}

fn sw_retile_3d(sw: &SwSpace, p: MDRangePolicy3, cost: IterCost) -> MDRangePolicy3 {
    let total = p.extent[0] * p.extent[1] * p.extent[2];
    let t = choose_tile_elems(sw.config(), cost.bytes, total);
    let w = (t / (p.tile[0] * p.tile[1]).max(1)).clamp(1, p.extent[2].max(1));
    p.with_tile([p.tile[0], p.tile[1], w])
}

// ---------------------------------------------------------------------------
// parallel_for
// ---------------------------------------------------------------------------

/// 1-D parallel for over `policy` on `space`.
pub fn parallel_for_1d<F: Functor1D + 'static>(space: &Space, policy: RangePolicy, f: &F) {
    let items = policy.len();
    let _span = profiling::begin_kernel(
        space,
        PatternKind::ParallelFor,
        std::any::type_name::<F>(),
        PolicyKind::Range,
        items as u64,
    );
    let total = policy.total_tiles();
    let run_tile = |t: usize| {
        let (lo, hi) = policy.tile_range(t);
        for i in lo..hi {
            f.operator(i);
        }
    };
    match space {
        Space::SwAthread(sw) => {
            let Some(tramp) = registry::lookup_simd(registry::key_of::<F>(), KernelKind::For1D)
            else {
                not_registered::<F>("register_for_1d");
            };
            let cost = f.cost();
            let payload = registry::Payload1D {
                functor: f as *const F as *const (),
                policy: sw_retile_1d(sw, policy, cost),
                cost,
            };
            sw.run(tramp, &payload as *const registry::Payload1D as usize);
        }
        host => rayon::for_each(host_share(host, items), total, run_tile),
    }
}

/// 2-D parallel for; index order `(j, i)`.
pub fn parallel_for_2d<F: Functor2D + 'static>(space: &Space, policy: MDRangePolicy2, f: &F) {
    let items = policy.extent[0] * policy.extent[1];
    let _span = profiling::begin_kernel(
        space,
        PatternKind::ParallelFor,
        std::any::type_name::<F>(),
        PolicyKind::MDRange2,
        items as u64,
    );
    let total = policy.total_tiles();
    let run_tile = |t: usize| {
        let [(j0, j1), (i0, i1)] = policy.tile_bounds(t);
        for j in j0..j1 {
            for i in i0..i1 {
                f.operator(j, i);
            }
        }
    };
    match space {
        Space::SwAthread(sw) => {
            let Some(tramp) = registry::lookup_simd(registry::key_of::<F>(), KernelKind::For2D)
            else {
                not_registered::<F>("register_for_2d");
            };
            let cost = f.cost();
            let payload = registry::Payload2D {
                functor: f as *const F as *const (),
                policy: sw_retile_2d(sw, policy, cost),
                cost,
            };
            sw.run(tramp, &payload as *const registry::Payload2D as usize);
        }
        host => rayon::for_each(host_share(host, items), total, run_tile),
    }
}

/// 3-D parallel for; index order `(k, j, i)`.
pub fn parallel_for_3d<F: Functor3D + 'static>(space: &Space, policy: MDRangePolicy3, f: &F) {
    let items = policy.extent[0] * policy.extent[1] * policy.extent[2];
    let _span = profiling::begin_kernel(
        space,
        PatternKind::ParallelFor,
        std::any::type_name::<F>(),
        PolicyKind::MDRange3,
        items as u64,
    );
    let total = policy.total_tiles();
    let run_tile = |t: usize| {
        let [(k0, k1), (j0, j1), (i0, i1)] = policy.tile_bounds(t);
        for k in k0..k1 {
            for j in j0..j1 {
                for i in i0..i1 {
                    f.operator(k, j, i);
                }
            }
        }
    };
    match space {
        Space::SwAthread(sw) => {
            let Some(tramp) = registry::lookup_simd(registry::key_of::<F>(), KernelKind::For3D)
            else {
                not_registered::<F>("register_for_3d");
            };
            let cost = f.cost();
            let payload = registry::Payload3D {
                functor: f as *const F as *const (),
                policy: sw_retile_3d(sw, policy, cost),
                cost,
            };
            sw.run(tramp, &payload as *const registry::Payload3D as usize);
        }
        host => rayon::for_each(host_share(host, items), total, run_tile),
    }
}

/// Index-list parallel for (active-set iteration): run `f.operator(n,
/// policy.entry(n))` for every list position `n` in the policy's range.
/// Host backends use the cost-weighted tile drivers; SwAthread goes through
/// the registry to [`registry::tramp_for_list`], whose per-CPE tile ranges
/// are cost-weighted the same way.
pub fn parallel_for_list<F: FunctorList + 'static>(space: &Space, policy: &ListPolicy, f: &F) {
    let items = policy.len();
    let _span = profiling::begin_kernel(
        space,
        PatternKind::ParallelFor,
        std::any::type_name::<F>(),
        PolicyKind::List,
        items as u64,
    );
    let run_tile = |t: usize| {
        let (lo, hi) = policy.tile_range(t);
        for n in lo..hi {
            f.operator(n, policy.entry(n));
        }
    };
    match space {
        Space::SwAthread(sw) => {
            let Some(tramp) = registry::lookup_simd(registry::key_of::<F>(), KernelKind::ForList)
            else {
                not_registered::<F>("register_for_list");
            };
            let payload = registry::PayloadList {
                functor: f as *const F as *const (),
                policy: policy as *const ListPolicy,
                cost: f.cost(),
            };
            sw.run(tramp, &payload as *const registry::PayloadList as usize);
        }
        host => drive_list_tiles(host_share(host, items), policy, run_tile),
    }
}

/// Index-list reduction. One partial per tile, joined in tile order —
/// bitwise identical across backends, worker counts and cost weightings.
pub fn parallel_reduce_list<F: ReduceFunctorList + 'static>(
    space: &Space,
    policy: &ListPolicy,
    f: &F,
    op: Reducer,
) -> f64 {
    let items = policy.len();
    let _span = profiling::begin_kernel(
        space,
        PatternKind::ParallelReduce,
        std::any::type_name::<F>(),
        PolicyKind::List,
        items as u64,
    );
    let tile_partial = |t: usize| {
        let (lo, hi) = policy.tile_range(t);
        let mut acc = op.identity();
        for n in lo..hi {
            f.contribute(n, policy.entry(n), &mut acc);
        }
        acc
    };
    let partials: Vec<f64> = match space {
        Space::SwAthread(sw) => {
            let Some(tramp) =
                registry::lookup_simd(registry::key_of::<F>(), KernelKind::ReduceList)
            else {
                not_registered::<F>("register_reduce_list");
            };
            let mut partials = vec![op.identity(); policy.total_tiles()];
            let payload = registry::PayloadReduceList {
                functor: f as *const F as *const (),
                policy: policy as *const ListPolicy,
                cost: f.cost(),
                partials: partials.as_mut_ptr(),
                identity: op.identity(),
            };
            sw.run(
                tramp,
                &payload as *const registry::PayloadReduceList as usize,
            );
            partials
        }
        host => collect_list_partials(host_share(host, items), policy, tile_partial),
    };
    join_partials(&partials, op)
}

// ---------------------------------------------------------------------------
// parallel_reduce
// ---------------------------------------------------------------------------

fn join_partials(partials: &[f64], op: Reducer) -> f64 {
    partials.iter().fold(op.identity(), |a, &b| op.join(a, b))
}

/// 1-D reduction over `policy`. Bitwise identical on every backend.
pub fn parallel_reduce_1d<F: ReduceFunctor1D + 'static>(
    space: &Space,
    policy: RangePolicy,
    f: &F,
    op: Reducer,
) -> f64 {
    let items = policy.len();
    let _span = profiling::begin_kernel(
        space,
        PatternKind::ParallelReduce,
        std::any::type_name::<F>(),
        PolicyKind::Range,
        items as u64,
    );
    let total = policy.total_tiles();
    let tile_partial = |t: usize| {
        let (lo, hi) = policy.tile_range(t);
        let mut acc = op.identity();
        for i in lo..hi {
            f.contribute(i, &mut acc);
        }
        acc
    };
    let partials: Vec<f64> = match space {
        Space::SwAthread(sw) => {
            let Some(tramp) = registry::lookup_simd(registry::key_of::<F>(), KernelKind::Reduce1D)
            else {
                not_registered::<F>("register_reduce_1d");
            };
            let mut partials = vec![op.identity(); total];
            let payload = registry::PayloadReduce1D {
                functor: f as *const F as *const (),
                policy,
                cost: f.cost(),
                partials: partials.as_mut_ptr(),
                identity: op.identity(),
            };
            sw.run(tramp, &payload as *const registry::PayloadReduce1D as usize);
            partials
        }
        host => rayon::map_collect(host_share(host, items), total, tile_partial),
    };
    join_partials(&partials, op)
}

/// 2-D reduction.
pub fn parallel_reduce_2d<F: ReduceFunctor2D + 'static>(
    space: &Space,
    policy: MDRangePolicy2,
    f: &F,
    op: Reducer,
) -> f64 {
    let items = policy.extent[0] * policy.extent[1];
    let _span = profiling::begin_kernel(
        space,
        PatternKind::ParallelReduce,
        std::any::type_name::<F>(),
        PolicyKind::MDRange2,
        items as u64,
    );
    let total = policy.total_tiles();
    let tile_partial = |t: usize| {
        let [(j0, j1), (i0, i1)] = policy.tile_bounds(t);
        let mut acc = op.identity();
        for j in j0..j1 {
            for i in i0..i1 {
                f.contribute(j, i, &mut acc);
            }
        }
        acc
    };
    let partials: Vec<f64> = match space {
        Space::SwAthread(sw) => {
            let Some(tramp) = registry::lookup_simd(registry::key_of::<F>(), KernelKind::Reduce2D)
            else {
                not_registered::<F>("register_reduce_2d");
            };
            let mut partials = vec![op.identity(); total];
            let payload = registry::PayloadReduce2D {
                functor: f as *const F as *const (),
                policy,
                cost: f.cost(),
                partials: partials.as_mut_ptr(),
                identity: op.identity(),
            };
            sw.run(tramp, &payload as *const registry::PayloadReduce2D as usize);
            partials
        }
        host => rayon::map_collect(host_share(host, items), total, tile_partial),
    };
    join_partials(&partials, op)
}

/// 3-D reduction.
pub fn parallel_reduce_3d<F: ReduceFunctor3D + 'static>(
    space: &Space,
    policy: MDRangePolicy3,
    f: &F,
    op: Reducer,
) -> f64 {
    let items = policy.extent[0] * policy.extent[1] * policy.extent[2];
    let _span = profiling::begin_kernel(
        space,
        PatternKind::ParallelReduce,
        std::any::type_name::<F>(),
        PolicyKind::MDRange3,
        items as u64,
    );
    let total = policy.total_tiles();
    let tile_partial = |t: usize| {
        let [(k0, k1), (j0, j1), (i0, i1)] = policy.tile_bounds(t);
        let mut acc = op.identity();
        for k in k0..k1 {
            for j in j0..j1 {
                for i in i0..i1 {
                    f.contribute(k, j, i, &mut acc);
                }
            }
        }
        acc
    };
    let partials: Vec<f64> = match space {
        Space::SwAthread(sw) => {
            let Some(tramp) = registry::lookup_simd(registry::key_of::<F>(), KernelKind::Reduce3D)
            else {
                not_registered::<F>("register_reduce_3d");
            };
            let mut partials = vec![op.identity(); total];
            let payload = registry::PayloadReduce3D {
                functor: f as *const F as *const (),
                policy,
                cost: f.cost(),
                partials: partials.as_mut_ptr(),
                identity: op.identity(),
            };
            sw.run(tramp, &payload as *const registry::PayloadReduce3D as usize);
            partials
        }
        host => rayon::map_collect(host_share(host, items), total, tile_partial),
    };
    join_partials(&partials, op)
}

/// Block until all outstanding work on `space` completes (Kokkos `fence`).
/// All our backends launch synchronously, so this only marks the fence
/// for an attached profiling tool (Kokkos Tools `kokkosp_*_fence`).
pub fn fence(space: &Space) {
    profiling::mark_fence("fence", space.name());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{View, View1, View2, View3};
    use std::sync::Arc;
    use sunway_sim::CgConfig;

    // The paper's Code 1: AXPY.
    struct FunctorAxpy {
        a: f64,
        x: View1<f64>,
        y: View1<f64>,
    }
    impl Functor1D for FunctorAxpy {
        fn operator(&self, i: usize) {
            self.y.set_at(i, self.a * self.x.at(i) + self.y.at(i));
        }
    }
    crate::register_for_1d!(my_axpy, FunctorAxpy);

    struct Stencil2 {
        src: View2<f64>,
        dst: View2<f64>,
    }
    impl Functor2D for Stencil2 {
        fn operator(&self, j: usize, i: usize) {
            let [ny, nx] = self.src.dims();
            let c = self.src.at(j, i);
            let n = if j + 1 < ny { self.src.at(j + 1, i) } else { c };
            let s = if j > 0 { self.src.at(j - 1, i) } else { c };
            let e = if i + 1 < nx { self.src.at(j, i + 1) } else { c };
            let w = if i > 0 { self.src.at(j, i - 1) } else { c };
            self.dst.set_at(j, i, 0.2 * (c + n + s + e + w));
        }
    }
    crate::register_for_2d!(stencil2, Stencil2);

    struct Fill3 {
        v: View3<f64>,
    }
    impl Functor3D for Fill3 {
        fn operator(&self, k: usize, j: usize, i: usize) {
            self.v.set_at(k, j, i, (k * 10000 + j * 100 + i) as f64);
        }
    }
    crate::register_for_3d!(fill3, Fill3);

    struct SumSq {
        x: View1<f64>,
    }
    impl ReduceFunctor1D for SumSq {
        fn contribute(&self, i: usize, acc: &mut f64) {
            *acc += self.x.at(i) * self.x.at(i);
        }
    }
    crate::register_reduce_1d!(sum_sq, SumSq);

    // Active-set iteration: dst slot n gets a value gathered via the
    // packed index — exercises both halves of the (n, idx) pair.
    struct ListScatter {
        src: View1<f64>,
        dst: View1<f64>,
    }
    impl FunctorList for ListScatter {
        fn operator(&self, n: usize, idx: u32) {
            self.dst
                .set_at(n, 2.0 * self.src.at(idx as usize) + n as f64);
        }
    }
    crate::register_for_list!(list_scatter, ListScatter);

    struct ListSum {
        src: View1<f64>,
    }
    impl ReduceFunctorList for ListSum {
        fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
            *acc += self.src.at(idx as usize) * self.src.at(idx as usize);
        }
    }
    crate::register_reduce_list!(list_sum, ListSum);

    struct Max3 {
        v: View3<f64>,
    }
    impl ReduceFunctor3D for Max3 {
        fn contribute(&self, k: usize, j: usize, i: usize, acc: &mut f64) {
            *acc = acc.max(self.v.at(k, j, i));
        }
    }
    crate::register_reduce_3d!(max3, Max3);

    fn all_spaces() -> Vec<Space> {
        vec![
            Space::serial(),
            Space::threads(),
            Space::device_sim(),
            Space::sw_athread_with(CgConfig::test_small()),
        ]
    }

    #[test]
    fn axpy_identical_on_all_backends() {
        my_axpy();
        let n = 1003;
        let mut reference: Option<Vec<f64>> = None;
        for space in all_spaces() {
            let x: View1<f64> = View::host("x", [n]);
            let y: View1<f64> = View::host("y", [n]);
            for i in 0..n {
                x.set_at(i, (i as f64).sin());
                y.set_at(i, (i as f64).cos());
            }
            let f = FunctorAxpy {
                a: 0.31,
                x,
                y: y.clone(),
            };
            parallel_for_1d(&space, RangePolicy::new(n).with_tile(64), &f);
            let got = y.to_vec();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(
                    r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "backend {} diverged bitwise",
                    space.name()
                ),
            }
        }
    }

    #[test]
    fn stencil_2d_identical_on_all_backends() {
        stencil2();
        let (ny, nx) = (37, 53);
        let mut reference: Option<Vec<u64>> = None;
        for space in all_spaces() {
            let src: View2<f64> = View::host("src", [ny, nx]);
            let dst: View2<f64> = View::host("dst", [ny, nx]);
            for j in 0..ny {
                for i in 0..nx {
                    src.set_at(j, i, ((j * 31 + i * 17) as f64).sin());
                }
            }
            let f = Stencil2 {
                src,
                dst: dst.clone(),
            };
            parallel_for_2d(&space, MDRangePolicy2::new([ny, nx]).with_tile([5, 9]), &f);
            let bits: Vec<u64> = dst.to_vec().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "backend {} diverged", space.name()),
            }
        }
    }

    #[test]
    fn for_3d_covers_every_index() {
        fill3();
        for space in all_spaces() {
            let v: View3<f64> = View::host("v", [5, 11, 13]);
            v.fill(-1.0);
            let f = Fill3 { v: v.clone() };
            parallel_for_3d(
                &space,
                MDRangePolicy3::new([5, 11, 13]).with_tile([2, 3, 4]),
                &f,
            );
            for k in 0..5 {
                for j in 0..11 {
                    for i in 0..13 {
                        assert_eq!(
                            v.at(k, j, i),
                            (k * 10000 + j * 100 + i) as f64,
                            "space {}",
                            space.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_1d_bitwise_identical_on_all_backends() {
        sum_sq();
        let n = 4097;
        let x: View1<f64> = View::host("x", [n]);
        for i in 0..n {
            // awkward magnitudes to expose ordering differences
            x.set_at(i, ((i % 97) as f64 + 0.1) * 10f64.powi((i % 7) as i32 - 3));
        }
        let f = SumSq { x };
        let policy = RangePolicy::new(n).with_tile(128);
        let mut bits = Vec::new();
        for space in all_spaces() {
            let s = parallel_reduce_1d(&space, policy, &f, Reducer::Sum);
            bits.push(s.to_bits());
        }
        assert!(
            bits.iter().all(|&b| b == bits[0]),
            "reduction differed across backends: {bits:?}"
        );
    }

    /// Everything the for, list and reduce patterns produce on `space`
    /// for one fixed input, as bits.
    fn pattern_bits(space: &Space, n: usize) -> Vec<u64> {
        let x: View1<f64> = View::host("x", [n]);
        let y: View1<f64> = View::host("y", [n]);
        for i in 0..n {
            x.set_at(i, ((i % 97) as f64 + 0.1) * 10f64.powi((i % 7) as i32 - 3));
            y.set_at(i, (i as f64).cos());
        }
        let axpy = FunctorAxpy {
            a: 0.31,
            x: x.clone(),
            y: y.clone(),
        };
        parallel_for_1d(space, RangePolicy::new(n).with_tile(64), &axpy);
        let dst: View1<f64> = View::host("dst", [n]);
        let policy = skewed_list_policy(n);
        let scatter = ListScatter {
            src: x.clone(),
            dst: dst.clone(),
        };
        parallel_for_list(space, &policy, &scatter);
        let sum = parallel_reduce_1d(
            space,
            RangePolicy::new(n).with_tile(128),
            &SumSq { x: x.clone() },
            Reducer::Sum,
        );
        let list_sum = parallel_reduce_list(space, &policy, &ListSum { src: x }, Reducer::Sum);
        let mut bits: Vec<u64> = y.to_vec().iter().map(|v| v.to_bits()).collect();
        bits.extend(dst.to_vec().iter().map(|v| v.to_bits()));
        bits.extend([sum.to_bits(), list_sum.to_bits()]);
        bits
    }

    #[test]
    fn for_list_and_reduce_are_bitwise_equal_under_shares_one_to_three() {
        my_axpy();
        list_scatter();
        list_sum();
        sum_sq();
        // Large enough that host launches go to the executor.
        let n = 3 * INLINE_ITEMS + 17;
        let reference = pattern_bits(&Space::serial(), n);
        for share in 1..=3 {
            for space in [Space::threads(), Space::device_sim()] {
                let space = space.with_share(share);
                assert_eq!(
                    pattern_bits(&space, n),
                    reference,
                    "{} with share {share} diverged from Serial",
                    space.name()
                );
            }
        }
    }

    #[test]
    fn partitioning_caps_the_share_and_is_idempotent() {
        let cores = rayon::cores();
        let s = Space::threads();
        assert_eq!(s.share(), cores);
        let half = s.partitioned(2);
        assert_eq!(half.share(), (cores / 2).max(1));
        assert_eq!(half.clone().partitioned(2).share(), half.share());
        assert_eq!(half.partitioned(1).share(), (cores / 2).max(1));
        assert_eq!(Space::serial().partitioned(1).share(), 1);
        assert_eq!(Space::device_sim().partitioned(4 * cores).share(), 1);
    }

    #[test]
    fn reduce_3d_max() {
        max3();
        let v: View3<f64> = View::host("v", [4, 6, 8]);
        for k in 0..4 {
            for j in 0..6 {
                for i in 0..8 {
                    v.set_at(k, j, i, -((k + j + i) as f64));
                }
            }
        }
        v.set_at(2, 3, 5, 99.5);
        let f = Max3 { v };
        for space in all_spaces() {
            let m = parallel_reduce_3d(&space, MDRangePolicy3::new([4, 6, 8]), &f, Reducer::Max);
            assert_eq!(m, 99.5, "space {}", space.name());
        }
    }

    fn skewed_list_policy(n: usize) -> ListPolicy {
        // Non-monotone active set with a strongly skewed cost profile.
        let indices: Arc<Vec<u32>> = Arc::new(
            (0..n as u32)
                .map(|i| (i.wrapping_mul(2654435761)) % n as u32)
                .collect(),
        );
        let mut prefix = vec![0u64; n + 1];
        for i in 0..n {
            let w = if i % 11 == 0 { 40 } else { 1 + (i % 3) as u64 };
            prefix[i + 1] = prefix[i] + w;
        }
        ListPolicy::new(indices)
            .with_tile(7) // ragged final tile for n not divisible by 7
            .with_cost_prefix(Arc::new(prefix))
    }

    #[test]
    fn list_for_identical_on_all_backends() {
        list_scatter();
        let n = 997;
        let mut reference: Option<Vec<u64>> = None;
        for space in all_spaces() {
            let src: View1<f64> = View::host("src", [n]);
            let dst: View1<f64> = View::host("dst", [n]);
            for i in 0..n {
                src.set_at(i, (i as f64 * 0.37).sin());
            }
            let f = ListScatter {
                src,
                dst: dst.clone(),
            };
            let policy = skewed_list_policy(n);
            parallel_for_list(&space, &policy, &f);
            let bits: Vec<u64> = dst.to_vec().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "backend {} diverged", space.name()),
            }
        }
    }

    #[test]
    fn list_reduce_bitwise_identical_on_all_backends() {
        list_sum();
        let n = 1361;
        let src: View1<f64> = View::host("src", [n]);
        for i in 0..n {
            src.set_at(i, ((i % 89) as f64 + 0.3) * 10f64.powi((i % 5) as i32 - 2));
        }
        let f = ListSum { src };
        let policy = skewed_list_policy(n);
        let mut bits = Vec::new();
        for space in all_spaces() {
            let s = parallel_reduce_list(&space, &policy, &f, Reducer::Sum);
            bits.push(s.to_bits());
        }
        assert!(
            bits.iter().all(|&b| b == bits[0]),
            "list reduction differed across backends: {bits:?}"
        );
    }

    #[test]
    fn empty_list_is_a_noop_everywhere() {
        list_scatter();
        for space in all_spaces() {
            let src: View1<f64> = View::host("src", [4]);
            let dst: View1<f64> = View::host("dst", [4]);
            let f = ListScatter {
                src,
                dst: dst.clone(),
            };
            let policy = ListPolicy::new(Arc::new(Vec::new()));
            parallel_for_list(&space, &policy, &f);
            assert!(dst.to_vec().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn sunway_list_launch_accounts_tiles() {
        list_scatter();
        let space = Space::sw_athread_with(CgConfig::test_small());
        let n = 200;
        let src: View1<f64> = View::host("src", [n]);
        let dst: View1<f64> = View::host("dst", [n]);
        let f = ListScatter { src, dst };
        let policy = skewed_list_policy(n);
        parallel_for_list(&space, &policy, &f);
        if let Space::SwAthread(sw) = &space {
            let c = sw.counters();
            assert_eq!(c.kernels_launched, 1);
            assert_eq!(
                c.totals.tiles,
                policy.total_tiles() as u64,
                "every tile executed exactly once across the CPEs"
            );
        } else {
            unreachable!()
        }
    }

    #[test]
    #[should_panic(expected = "not registered for the SwAthread backend")]
    fn unregistered_list_functor_panics_on_sunway() {
        struct UnregisteredList;
        impl FunctorList for UnregisteredList {
            fn operator(&self, _n: usize, _idx: u32) {}
        }
        let space = Space::sw_athread_with(CgConfig::test_small());
        let policy = ListPolicy::new(Arc::new(vec![0, 1, 2]));
        parallel_for_list(&space, &policy, &UnregisteredList);
    }

    #[test]
    fn device_sim_counts_list_launches() {
        list_scatter();
        let space = Space::device_sim();
        let src: View1<f64> = View::host("src", [32]);
        let dst: View1<f64> = View::host("dst", [32]);
        let f = ListScatter { src, dst };
        let policy = ListPolicy::new(Arc::new((0..32).collect()));
        for _ in 0..3 {
            parallel_for_list(&space, &policy, &f);
        }
        if let Space::DeviceSim(d) = &space {
            assert_eq!(d.launches(), 3);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn device_sim_counts_launches() {
        my_axpy();
        let space = Space::device_sim();
        let x: View1<f64> = View::host("x", [64]);
        let y: View1<f64> = View::host("y", [64]);
        let f = FunctorAxpy { a: 1.0, x, y };
        for _ in 0..5 {
            parallel_for_1d(&space, RangePolicy::new(64), &f);
        }
        if let Space::DeviceSim(d) = &space {
            assert_eq!(d.launches(), 5);
        } else {
            unreachable!()
        }
    }

    #[test]
    #[should_panic(expected = "not registered for the SwAthread backend")]
    fn unregistered_functor_panics_on_sunway() {
        struct Unregistered {
            v: View1<f64>,
        }
        impl Functor1D for Unregistered {
            fn operator(&self, i: usize) {
                self.v.set_at(i, 0.0);
            }
        }
        let space = Space::sw_athread_with(CgConfig::test_small());
        let f = Unregistered {
            v: View::host("v", [8]),
        };
        parallel_for_1d(&space, RangePolicy::new(8), &f);
    }

    #[test]
    fn sunway_counters_accumulate_over_launches() {
        my_axpy();
        let space = Space::sw_athread_with(CgConfig::test_small());
        let x: View1<f64> = View::host("x", [512]);
        let y: View1<f64> = View::host("y", [512]);
        let f = FunctorAxpy { a: 2.0, x, y };
        parallel_for_1d(&space, RangePolicy::new(512).with_tile(32), &f);
        if let Space::SwAthread(sw) = &space {
            let c = sw.counters();
            assert_eq!(c.kernels_launched, 1);
            assert!(c.totals.flops > 0);
            assert!(c.totals.dma_get_bytes > 0, "DMA staging was accounted");
        } else {
            unreachable!()
        }
    }

    #[test]
    fn empty_policy_is_a_noop_everywhere() {
        my_axpy();
        for space in all_spaces() {
            let x: View1<f64> = View::host("x", [4]);
            let y: View1<f64> = View::host("y", [4]);
            let f = FunctorAxpy {
                a: 5.0,
                x,
                y: y.clone(),
            };
            parallel_for_1d(&space, RangePolicy::range(0, 0), &f);
            assert!(y.to_vec().iter().all(|&v| v == 0.0));
        }
    }
}
