//! Parallel memcpy pack/unpack of halo strips (paper §V-D).
//!
//! A halo strip is a set of contiguous runs:
//!
//! * **HorizontalMajor** — every `(k, j)` row of the strip is `ni`
//!   consecutive elements in both the field and the message buffer, so
//!   pack/unpack is a straight `copy_from_slice` per row.
//! * **Transpose** — every `(j, i)` column is `nz` consecutive elements on
//!   the buffer side (that is the point of the vertical-major ordering);
//!   the field side strides by one horizontal plane per level.
//!
//! [`StripCopy`] expresses one run per iteration as a [`Functor1D`] so the
//! copy dispatches over any kokkos execution space — serial, the rayon
//! pool, or simulated CPEs (it is registered for the SwAthread backend
//! like every other kernel) — or runs inline on the caller when the strip
//! is too small to pay for a launch. Runs are disjoint by construction,
//! which is exactly the Kokkos concurrent-write contract.

use kokkos_rs::functor::{Functor1D, IterCost};
use kokkos_rs::parallel::parallel_for_1d;
use kokkos_rs::policy::RangePolicy;
use kokkos_rs::{Space, View3};

use crate::halo::{Rect, Strategy3D};

/// Which way a [`StripCopy`] moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyDir {
    /// Field → message buffer.
    Pack,
    /// Message buffer → field.
    Unpack,
}

/// One halo-strip copy: the rows × columns of `rect` over `nz` levels of a
/// `(nz, pj, pi)` horizontal-major field, against a buffer in the order
/// given by `order`. Each iteration copies one contiguous run. The side
/// being read is only ever dereferenced through `*const` — the `Unpack`
/// buffer pointer originates from a shared slice and is never written.
struct StripCopy {
    field: *mut f64,
    buf: *mut f64,
    /// Elements per horizontal plane (`pj * pi`).
    plane: usize,
    /// Elements per field row (`pi`).
    row: usize,
    rect: Rect,
    nz: usize,
    dir: CopyDir,
    order: Strategy3D,
}

// SAFETY: the raw pointers target a live field view and a live message
// buffer for the (synchronous) duration of the launch, and every iteration
// touches a disjoint run — the standard Kokkos disjoint-writes contract.
unsafe impl Send for StripCopy {}
unsafe impl Sync for StripCopy {}

impl StripCopy {
    /// Iterations needed: one per contiguous run.
    fn runs(&self) -> usize {
        match self.order {
            Strategy3D::HorizontalMajor => self.nz * self.rect.nj,
            Strategy3D::Transpose => self.rect.nj * self.rect.ni,
        }
    }
}

impl Functor1D for StripCopy {
    fn operator(&self, r: usize) {
        let Rect { i0, nj, ni, .. } = self.rect;
        match self.order {
            Strategy3D::HorizontalMajor => {
                // Run r is field row (k = r / nj, strip row r % nj): `ni`
                // consecutive elements on both sides.
                let (k, jj) = (r / nj, r % nj);
                let foff = k * self.plane + self.rect.row(jj) * self.row + i0;
                let boff = r * ni;
                // SAFETY: `copy` checked the strip against the field's
                // extents and the buffer length against the strip, so both
                // `ni`-runs are in bounds; runs of distinct `r` are disjoint.
                unsafe {
                    let (src, dst) = match self.dir {
                        CopyDir::Pack => (self.field.add(foff), self.buf.add(boff)),
                        CopyDir::Unpack => (self.buf.add(boff), self.field.add(foff)),
                    };
                    std::slice::from_raw_parts_mut(dst, ni)
                        .copy_from_slice(std::slice::from_raw_parts(src as *const f64, ni));
                }
            }
            Strategy3D::Transpose => {
                // Run r is column (strip row r / ni, i = i0 + r % ni): `nz`
                // consecutive elements on the buffer side, one plane apart
                // on the field side.
                let fbase = self.rect.row(r / ni) * self.row + i0 + r % ni;
                let boff = r * self.nz;
                // SAFETY: as above — in bounds by the checks in `copy`, and
                // no other iteration touches column `r`.
                unsafe {
                    for k in 0..self.nz {
                        let (f, b) = (
                            self.field.add(fbase + k * self.plane),
                            self.buf.add(boff + k),
                        );
                        match self.dir {
                            CopyDir::Pack => *b = *f,
                            CopyDir::Unpack => *f = *b,
                        }
                    }
                }
            }
        }
    }

    fn cost(&self) -> IterCost {
        // Pure data movement: one read + one write per element of the run.
        let run = match self.order {
            Strategy3D::HorizontalMajor => self.rect.ni,
            Strategy3D::Transpose => self.nz,
        };
        IterCost {
            flops: 0,
            bytes: 16 * run as u64,
        }
    }
}

kokkos_rs::register_for_1d!(register_strip_copy, StripCopy);

/// Pack `rect` (all levels) of `f` into `out` in `order`: launched over
/// `space` when given, else run inline on the calling thread.
pub(crate) fn pack(
    space: Option<&Space>,
    order: Strategy3D,
    f: &View3<f64>,
    rect: Rect,
    out: &mut [f64],
) {
    copy(
        space,
        order,
        CopyDir::Pack,
        f,
        rect,
        out.as_mut_ptr(),
        out.len(),
    );
}

/// Unpack `buf` into `rect` of `f`, inverse of [`pack`].
pub(crate) fn unpack(
    space: Option<&Space>,
    order: Strategy3D,
    f: &View3<f64>,
    rect: Rect,
    buf: &[f64],
) {
    // The functor only reads the buffer side of an unpack.
    let ptr = buf.as_ptr() as *mut f64;
    copy(space, order, CopyDir::Unpack, f, rect, ptr, buf.len());
}

/// Check `rect` and the buffer against `f`, then run the copy. `buf`
/// points to `buf_len` live elements, written only by [`CopyDir::Pack`].
fn copy(
    space: Option<&Space>,
    order: Strategy3D,
    dir: CopyDir,
    f: &View3<f64>,
    rect: Rect,
    buf: *mut f64,
    buf_len: usize,
) {
    let [nz, pj, pi] = f.dims();
    assert_eq!(
        buf_len,
        nz * rect.nj * rect.ni,
        "strip buffer length mismatch"
    );
    let rows_in = if rect.rev {
        rect.nj <= rect.j0 + 1 && rect.j0 < pj
    } else {
        rect.j0 + rect.nj <= pj
    };
    assert!(rows_in && rect.i0 + rect.ni <= pi, "strip out of bounds");
    assert!(
        f.is_root_view() && f.layout() == kokkos_rs::Layout::Right,
        "strip copy requires a root horizontal-major field"
    );
    // A one-level strip has the same buffer layout in both orders; copy
    // it as horizontal-major rows, its longest contiguous runs.
    let order = if nz == 1 {
        Strategy3D::HorizontalMajor
    } else {
        order
    };
    let func = StripCopy {
        field: f.data_ptr(),
        buf,
        plane: pj * pi,
        row: pi,
        rect,
        nz,
        dir,
        order,
    };
    let n = func.runs();
    match space {
        Some(space) => {
            // One tile per ~1/64th of the runs keeps every backend busy
            // even for the short-row strips (the default 256-run tile
            // would serialize them).
            let tile = (n / 64).clamp(1, 256);
            parallel_for_1d(space, RangePolicy::new(n).with_tile(tile), &func);
        }
        None => (0..n).for_each(|r| func.operator(r)),
    }
}
