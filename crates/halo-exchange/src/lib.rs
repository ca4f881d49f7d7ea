//! # halo-exchange — LICOM's halo update engine (paper §V-D)
//!
//! "The halo update process within the model acts as a serial bottleneck
//! according to Amdahl's law" — so the paper rewrites it in C++/Kokkos,
//! eliminates redundant pack/unpack work, overlaps communication with
//! computation, and adds transpose-based 3-D exchanges. This crate is that
//! engine, written against `mpi-sim` + `kokkos-rs` views:
//!
//! * [`halo`] — the one exchange engine, [`Halo`]: the 2-layer halo update
//!   on the tripolar topology (zonal periodicity, closed southern wall,
//!   **north-fold** exchange with zonal mirroring and sign flip for vector
//!   fields, corner fill via the E/W-then-N/S two-phase scheme) over
//!   `[nz, ny, nx]` fields. A 3-D update is the 2-D one extended
//!   point-wise in the vertical, so 2-D fields travel as one-level views
//!   ([`kokkos_rs::View2::lift`]). Two interchangeable buffer orders: the
//!   naive **horizontal-major** pack (the pre-optimization baseline) and
//!   the paper's **transpose** pipeline (Fig. 5: real halo →
//!   vertical-major → exchange → ghost halo → horizontal-major). Several
//!   fields batch into one message per direction (the "redundant
//!   packing" elimination), and every exchange is split-phase
//!   ([`Halo::begin`] → [`Pending::poll`] → [`Pending::finish`]) so
//!   interior compute runs while messages are in flight;
//! * [`transpose`] — the high-performance halo transpose operators;
//! * [`stepgraph`] — a small per-step dependency DAG of compute and comm
//!   tasks whose runner interleaves interior kernels with non-blocking
//!   polls of split-phase exchanges, so posting halos, computing
//!   interiors, and finishing boundary passes overlap by construction.
//!
//! All variants are *bitwise equivalent*; they differ only in access
//! pattern and message count, which the benches measure.

pub mod halo;
pub mod integrity;
pub mod stepgraph;
pub(crate) mod strip;
pub mod transpose;

pub use halo::{FoldKind, Halo, Pending, Strategy3D};
pub use integrity::{FrameFault, FrameSeq, HaloError, IntegrityConfig};
pub use stepgraph::{StepGraph, Task};

/// Halo width (2 ghost + 2 real layers, fixed by LICOM's stencils).
pub const HALO: usize = ocean_grid::decomp::HALO;
