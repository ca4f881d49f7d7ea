//! # kokkos-rs — a Kokkos-like performance-portability layer, with Sunway
//!
//! The enabling substrate of the LICOMK++ reproduction. Mirrors the parts
//! of Kokkos the paper relies on, plus the paper's own contribution — an
//! **Athread backend** for Sunway many-core processors:
//!
//! | Kokkos concept        | Here                                          |
//! |-----------------------|-----------------------------------------------|
//! | `Kokkos::View`        | [`view::View`] — rank-`R` arrays, `LayoutLeft`/`LayoutRight`, shared ownership, `deep_copy`, mirrors |
//! | Execution spaces      | [`space::Space`] — `Serial`, `Threads` (OpenMP-like), `DeviceSim` (CUDA/HIP-like), `SwAthread` (Sunway CPEs) |
//! | Memory spaces         | [`memspace::MemSpace`] — `Host` and `Device`, with H2D/D2H transfer accounting |
//! | `RangePolicy`/`MDRangePolicy` | [`policy`] — incl. the CPE tile mapping of paper Eq. (1)–(2) |
//! | Functors (`operator()`) | [`functor`] traits `Functor1D/2D/3D`, `ReduceFunctor*` |
//! | `KOKKOS_REGISTER_FOR_1D(name, Functor)` | `register_for_1d!` etc. + the linked-list [`registry`] |
//!
//! ## Why a registry at all?
//!
//! The Athread API "supports only C syntax, which does not allow the
//! passage of template parameters to CPE-run kernels" (paper §V-B). Our
//! simulated Athread boundary ([`sunway_sim::CpeKernel`]) is likewise a
//! plain `fn` pointer plus one `usize`. Generic functors therefore cannot
//! be launched directly on CPEs: a concrete trampoline must be
//! **registered** ahead of time (one `register_for_*!` invocation per
//! functor type, the analogue of the paper's `KOKKOS_REGISTER_FOR_1D`
//! macro) and is **matched at launch time** by scanning a linked list —
//! the data structure the paper explicitly selected — optionally
//! accelerated with the SIMD id-scan of `sunway_sim::simd::find_u64`.
//! Launching an unregistered functor on the `SwAthread` space panics with
//! the registration hint, exactly as the C++ version fails to link.
//!
//! ## Determinism contract
//!
//! `parallel_for` over disjoint indices and tile-ordered `parallel_reduce`
//! produce **bitwise identical** results on every execution space. The
//! LICOMK++ integration tests step the full ocean model on all four spaces
//! and assert bitwise equality — portability here is a correctness
//! property, not just a build property.

pub mod functor;
pub mod memspace;
pub mod parallel;
pub mod policy;
pub mod profiling;
pub mod registry;
pub mod space;
pub mod team;
pub mod view;

pub use functor::{
    Functor1D, Functor2D, Functor3D, FunctorList, FunctorPair2D, FunctorTriple2D, IterCost,
    ReduceFunctor1D, ReduceFunctor2D, ReduceFunctor3D, ReduceFunctorList, Reducer,
};
pub use memspace::MemSpace;
pub use parallel::fence;
pub use parallel::{
    parallel_for_1d, parallel_for_2d, parallel_for_3d, parallel_for_list, parallel_reduce_1d,
    parallel_reduce_2d, parallel_reduce_3d, parallel_reduce_list,
};
pub use policy::{ListPolicy, MDRangePolicy2, MDRangePolicy3, RangePolicy};
pub use profiling::{
    DeepCopyInfo, InstanceKey, KernelId, KernelInfo, PatternKind, PolicyKind, ProfilingHooks,
};
pub use space::Space;

/// The process executor every host-parallel launch runs on: its core
/// budget and its counters.
pub mod executor {
    pub use rayon::{claimed_by_this_thread, cores, spawned_workers};
}
pub use team::{parallel_for_team, FunctorTeam, TeamPolicy};
pub use view::{deep_copy, Layout, View, View1, View2, View3, View4};

/// Convenience: the list of all execution-space names this build supports,
/// with their backing programming model — the Rust analogue of the paper's
/// Table I.
pub fn supported_backends() -> Vec<(&'static str, &'static str)> {
    vec![
        ("Serial", "native loop (baseline)"),
        ("Threads", "tiles on the process executor (OpenMP analogue)"),
        (
            "DeviceSim",
            "block/thread grid over pool (CUDA/HIP analogue)",
        ),
        (
            "SwAthread",
            "simulated Sunway CPE cluster (Athread; this work)",
        ),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn four_backends_supported() {
        let b = super::supported_backends();
        assert_eq!(b.len(), 4);
        assert!(b.iter().any(|(n, _)| *n == "SwAthread"));
    }
}
