//! The halo update on the tripolar block decomposition, for fields of
//! shape `[nz, ny_pad, nx_pad]`. The paper (§V-D) defines the 3-D update
//! as the 2-D one "extended point-wise in the vertical direction", and so
//! does this engine: a 2-D field is a one-level view
//! ([`kokkos_rs::View2::lift`]) and takes the same code path.
//!
//! Layout of one level of a local field (padded views, `H = 2`):
//!
//! ```text
//! rows    [0, H)            south ghost (closed wall or neighbor data)
//! rows    [H, H+ny)         owned; of these [H, H+2) and [H+ny-2, H+ny)
//!                           are the *real halo* sent to neighbors
//! rows    [H+ny, H+ny+2H?)  north ghost (neighbor or fold data)
//! ```
//! and likewise in `i`. The update is two-phase — east/west over owned
//! rows first, then north/south over the **full padded width** — which
//! fills the four corner blocks without diagonal messages (the standard
//! trick; LICOM does the same).
//!
//! The **north fold**: the tripolar seam maps the ghost row above global
//! row `nyg-1-…` onto row `nyg-1-d` *mirrored in longitude*; vector
//! fields additionally flip sign. The fold partner of the block at column
//! `cx` is the block at `px-1-cx` (possibly itself). A clean mirror
//! requires equal block widths, so fold exchanges assert `nxg % px == 0`.
//!
//! Strips travel in one of two interchangeable buffer orders
//! ([`Strategy3D`]): the naive **horizontal-major** gather `(k, j, i)`,
//! whose east/west strips walk memory with stride `nx_pad` (the "data
//! access discontinuity" the paper measured), and the paper's
//! **transpose** order `(j, i, k)` (Fig. 5), which moves the same bytes
//! vertical-major. Both give bitwise identical fields. All levels of a
//! field, and all fields of a batch, travel in one message per direction.
//!
//! Every exchange is split-phase: [`Halo::begin`] posts the east/west
//! strips and returns a [`Pending`] that the caller drives with
//! [`Pending::poll`] between compute launches and [`Pending::finish`] once
//! the ghosts are needed. The blocking [`Halo::try_exchange`] is begin +
//! finish, so the blocking and overlapped paths share one protocol.
//!
//! The exchange is allocation-free in steady state: messages round-trip
//! through the per-rank buffer pools of `mpi-sim`
//! ([`mpi_sim::Comm::send_into`] / [`mpi_sim::Comm::recv_into`]), self
//! paths use persistent scratch, and pack/unpack copy contiguous runs
//! ([`crate::strip`]). The freshly-allocating element-wise implementation
//! survives as [`Halo::exchange_alloc`] — the bitwise-identity reference.

use std::cell::{Cell, RefCell, RefMut};
use std::ops::Range;
use std::time::Instant;

use kokkos_rs::{Space, View3};
use mpi_sim::{CartComm, Comm, Dir, Neighbor};

use crate::integrity::{self, FrameSeq, HaloError, IntegrityConfig};
use crate::strip;
use crate::HALO as H;

/// Below this many elements a strip copy stays on the calling thread: a
/// kernel launch costs on the order of a microsecond, which a host
/// `memcpy` at tens of GB/s spends moving a few thousand f64 — dispatching
/// smaller strips to CPEs (or the thread pool) would pay more in overhead
/// than the copy itself. Kilometer-scale blocks clear this easily; the
/// coarse test grids copy inline.
const STRIP_DISPATCH_MIN: usize = 4096;

/// Tag offsets by direction of travel, added to the caller's tag base.
/// Every offset is below 10 and callers step their bases by 10, so no two
/// exchanges in flight at once share a wire tag.
const T_WEST: u64 = 0;
const T_EAST: u64 = 1;
const T_SOUTH: u64 = 2;
const T_NORTH: u64 = 3;
const T_FOLD: u64 = 4;

/// How a field transforms across the north fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldKind {
    /// Tracers, SSH: copied as-is (mirrored in `i`).
    Scalar,
    /// Velocity components on the B grid: mirrored and sign-flipped.
    Vector,
}

impl FoldKind {
    fn sign(self) -> f64 {
        match self {
            FoldKind::Scalar => 1.0,
            FoldKind::Vector => -1.0,
        }
    }
}

/// Buffer ordering strategy of a halo strip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy3D {
    /// Level-by-level strided gather (baseline).
    HorizontalMajor,
    /// Transpose real/ghost halos to vertical-major around the exchange
    /// (paper Fig. 5).
    Transpose,
}

impl Strategy3D {
    /// Buffer index of level `k`, strip row `r`, strip column `c` in a
    /// strip of `nz` levels × `nr` rows × `nc` columns.
    fn index(self, k: usize, r: usize, c: usize, [nz, nr, nc]: [usize; 3]) -> usize {
        match self {
            Strategy3D::HorizontalMajor => (k * nr + r) * nc + c,
            Strategy3D::Transpose => (r * nc + c) * nz + k,
        }
    }
}

/// A strip of a field: `nj` rows × `ni` columns from `(j0, i0)`, over
/// every level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rect {
    pub j0: usize,
    pub nj: usize,
    /// Rows descend from `j0` (the fold pack order: strip row `d` is the
    /// owned row of global row `nyg-1-d`).
    pub rev: bool,
    pub i0: usize,
    pub ni: usize,
    /// Unpack as the north-fold ghost: mirrored in `i`, signed per
    /// [`FoldKind`].
    pub fold: bool,
}

impl Rect {
    fn new(j0: usize, nj: usize, i0: usize, ni: usize) -> Self {
        Rect {
            j0,
            nj,
            rev: false,
            i0,
            ni,
            fold: false,
        }
    }

    /// Field row of strip row `r`.
    pub(crate) fn row(&self, r: usize) -> usize {
        if self.rev {
            self.j0 - r
        } else {
            self.j0 + r
        }
    }

    /// Elements of this strip in a field of `nz` levels.
    fn len(&self, nz: usize) -> usize {
        nz * self.nj * self.ni
    }
}

/// Element-wise pack of `rect` of `f` into a fresh buffer in `order` —
/// the reference the contiguous-run copies are checked against.
fn pack_ref(order: Strategy3D, f: &View3<f64>, rect: Rect) -> Vec<f64> {
    let nz = f.extent(0);
    let mut buf = vec![0.0; rect.len(nz)];
    for k in 0..nz {
        for r in 0..rect.nj {
            for c in 0..rect.ni {
                buf[order.index(k, r, c, [nz, rect.nj, rect.ni])] =
                    f.at(k, rect.row(r), rect.i0 + c);
            }
        }
    }
    buf
}

/// Element-wise unpack of `buf` into `rect` of `f`, inverse of
/// [`pack_ref`]. A fold ghost strip is mirrored — with equal block widths
/// the partner's padded column `ni-1-c` lands in column `c` — and signed.
fn unpack_ref(order: Strategy3D, f: &View3<f64>, kind: FoldKind, rect: Rect, buf: &[f64]) {
    let nz = f.extent(0);
    assert_eq!(buf.len(), rect.len(nz), "strip buffer length mismatch");
    for k in 0..nz {
        for r in 0..rect.nj {
            for c in 0..rect.ni {
                let bc = if rect.fold { rect.ni - 1 - c } else { c };
                let v = buf[order.index(k, r, bc, [nz, rect.nj, rect.ni])];
                let v = if rect.fold { kind.sign() * v } else { v };
                f.set_at(k, rect.row(r), rect.i0 + c, v);
            }
        }
    }
}

/// One leg of the protocol: peer rank, tag offset, strip.
type Leg = (usize, u64, Rect);

/// One phase of the two-phase update: strips posted to peers, self-copies
/// (single zonal block, self-fold) from real to ghost strips, and strips
/// awaited from peers, each in protocol order.
#[derive(Debug, Clone, Copy, Default)]
struct Phase {
    sends: [Option<Leg>; 2],
    locals: [Option<(Rect, Rect)>; 2],
    recvs: [Option<Leg>; 2],
}

/// Per-rank halo exchange engine for one decomposition.
pub struct Halo {
    cart: CartComm,
    /// Global grid extents.
    pub nxg: usize,
    pub nyg: usize,
    /// This rank's owned block.
    pub x0: usize,
    pub y0: usize,
    pub nx: usize,
    pub ny: usize,
    /// Buffer order of every strip.
    strategy: Strategy3D,
    /// Execution space wide strips pack/unpack on (serial by default; the
    /// model passes its own so staging runs on CPEs).
    space: Space,
    /// Minimum strip elements before pack/unpack leaves the calling thread
    /// ([`STRIP_DISPATCH_MIN`]; tests shrink it to force dispatch).
    strip_dispatch_min: usize,
    /// Persistent scratch for self-copies. Grow-once.
    scratch: RefCell<Vec<f64>>,
    /// End-to-end integrity framing + retry (None = raw strips, the
    /// default — existing byte-count expectations stay exact).
    integrity: Option<IntegrityConfig>,
    /// Current epoch (model step) and per-step exchange ordinal for frame
    /// sequencing. All ranks call the exchanges collectively in the same
    /// order, so sender and receiver agree on both without negotiation.
    epoch: Cell<u64>,
    ordinal: Cell<u64>,
    /// Nanoseconds this rank spent inside receive calls — the wait/unpack
    /// side of every networked strip, including split-phase exchanges
    /// whose begin-to-done span is deliberately not attributed to the halo
    /// phase.
    wait_ns: Cell<u64>,
    /// Nanoseconds of exchange *span* — begin-to-done, which covers
    /// whatever compute ran while the strips were in flight. Concurrent
    /// pending spans sum additively, so this counts comm·seconds in
    /// flight; dividing a step's delta by wall time measures how much
    /// communication the step kept airborne per wall second.
    inflight_ns: Cell<u64>,
}

impl Halo {
    /// Build the engine from the topology. Panics if any block is too
    /// small to carry a 2-wide real halo, or if a fold is present with
    /// unequal block widths.
    pub fn new(cart: &CartComm, nxg: usize, nyg: usize) -> Self {
        let (x0, nx) = cart.local_x(nxg);
        let (y0, ny) = cart.local_y(nyg);
        assert!(nx >= H && ny >= H, "block {nx}x{ny} smaller than halo {H}");
        if matches!(cart.neighbor(Dir::North), Neighbor::Fold(_)) {
            assert_eq!(
                nxg % cart.px(),
                0,
                "north-fold exchange requires equal block widths (nxg % px == 0)"
            );
        }
        Self {
            cart: cart.clone(),
            nxg,
            nyg,
            x0,
            y0,
            nx,
            ny,
            strategy: Strategy3D::Transpose,
            space: Space::serial(),
            strip_dispatch_min: STRIP_DISPATCH_MIN,
            scratch: RefCell::new(Vec::new()),
            integrity: None,
            epoch: Cell::new(0),
            ordinal: Cell::new(0),
            wait_ns: Cell::new(0),
            inflight_ns: Cell::new(0),
        }
    }

    /// Dispatch wide strip pack/unpack over `space` (paper §V-D: halo
    /// staging runs on the CPEs so wide strips stop round-tripping through
    /// MPE memory). Strips smaller than [`STRIP_DISPATCH_MIN`] elements
    /// still copy on the calling thread — launch overhead would dominate.
    pub fn with_space(mut self, space: Space) -> Self {
        // Idempotent; makes the strip kernel launchable on SwAthread.
        strip::register_strip_copy();
        self.space = space;
        self
    }

    /// Order strips by `strategy` (default: [`Strategy3D::Transpose`]).
    pub fn with_strategy(mut self, strategy: Strategy3D) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enable CRC32 frame integrity + bounded retry on every networked
    /// strip (see [`crate::integrity`]).
    pub fn with_integrity(mut self, cfg: IntegrityConfig) -> Self {
        self.integrity = Some(cfg);
        self
    }

    /// Start a new epoch (model step): frame sequencing restarts so a
    /// rolled-back, replayed step regenerates identical frame headers.
    /// Collective — every rank must call it with the same `epoch`.
    pub fn begin_step(&self, epoch: u64) {
        self.epoch.set(epoch);
        self.ordinal.set(0);
    }

    /// Cumulative nanoseconds spent waiting in halo receives (wait +
    /// unpack) on this rank. Monotone; sample before/after a step and
    /// subtract for per-step attribution.
    pub fn halo_wait_ns(&self) -> u64 {
        self.wait_ns.get()
    }

    /// Cumulative exchange-span nanoseconds (see the `inflight_ns` field
    /// docs): comm·time in flight, summed over every exchange.
    pub fn halo_inflight_ns(&self) -> u64 {
        self.inflight_ns.get()
    }

    /// Padded local extents `(ny_pad, nx_pad)` of every field level.
    pub fn padded(&self) -> (usize, usize) {
        (self.ny + 2 * H, self.nx + 2 * H)
    }

    /// Required shape of a field with `nz` levels.
    pub fn shape(&self, nz: usize) -> [usize; 3] {
        let (pj, pi) = self.padded();
        [nz, pj, pi]
    }

    fn check(&self, f: &View3<f64>) {
        let [_, pj, pi] = f.dims();
        assert_eq!((pj, pi), self.padded(), "field shape != padded block");
    }

    /// Claim the next frame sequence for one collective exchange call
    /// (None when integrity is off).
    fn next_seq(&self) -> Option<FrameSeq> {
        self.integrity.as_ref()?;
        let ordinal = self.ordinal.get();
        self.ordinal.set(ordinal + 1);
        Some(FrameSeq {
            epoch: self.epoch.get(),
            ordinal,
        })
    }

    /// Borrow persistent scratch of at least `len` elements (grow-once).
    fn scratch(&self, len: usize) -> RefMut<'_, Vec<f64>> {
        let mut buf = self.scratch.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Where a strip of `elems` elements is copied: launched over the
    /// engine's space when it is worth a kernel, else inline (`None`).
    fn strip_space(&self, elems: usize) -> Option<&Space> {
        (elems >= self.strip_dispatch_min && !matches!(self.space, Space::Serial))
            .then_some(&self.space)
    }

    fn pack(&self, f: &View3<f64>, rect: Rect, out: &mut [f64]) {
        strip::pack(self.strip_space(out.len()), self.strategy, f, rect, out);
    }

    fn unpack(&self, f: &View3<f64>, kind: FoldKind, rect: Rect, buf: &[f64]) {
        if rect.fold {
            // The mirror reverses element order, so there are no
            // contiguous runs to hand a strip kernel, and only `H` ghost
            // rows ever take this path: it stays element-wise.
            unpack_ref(self.strategy, f, kind, rect, buf);
            return;
        }
        strip::unpack(self.strip_space(buf.len()), self.strategy, f, rect, buf);
    }

    /// Send one strip, framed when integrity is on.
    fn send_strip(
        &self,
        comm: &Comm,
        dst: usize,
        tag: u64,
        seq: Option<FrameSeq>,
        len: usize,
        fill: impl FnOnce(&mut [f64]),
    ) {
        let _r = kokkos_rs::profiling::region("halo:pack");
        match seq {
            Some(seq) => integrity::send_framed(comm, dst, tag, seq, len, fill),
            None => comm.send_into(dst, tag, len, fill),
        }
    }

    /// Receive one strip, verifying + retrying when integrity is on.
    fn recv_strip(
        &self,
        comm: &Comm,
        src: usize,
        tag: u64,
        seq: Option<FrameSeq>,
        len: usize,
        unpack: impl Fn(&[f64]),
    ) -> Result<(), HaloError> {
        let _r = kokkos_rs::profiling::region("halo:unpack");
        let t0 = Instant::now();
        let out = match seq {
            Some(seq) => integrity::recv_framed(
                comm,
                self.integrity.as_ref().expect("seq implies integrity"),
                src,
                tag,
                seq,
                len,
                unpack,
            ),
            None => {
                comm.recv_into(src, tag, |buf| unpack(buf));
                Ok(())
            }
        };
        self.wait_ns
            .set(self.wait_ns.get() + t0.elapsed().as_nanos() as u64);
        out
    }

    /// The transfer plan of one exchange: peers, strips and tags of both
    /// phases. Computed in one place so the pooled, split-phase and
    /// allocating paths cannot drift apart — they differ only in
    /// transport, never in protocol.
    fn plan(&self) -> [Phase; 2] {
        let rank = self.cart.comm().rank();
        let (ny, nx) = (self.ny, self.nx);
        let (_, pi) = self.padded();
        let (Neighbor::Interior(west), Neighbor::Interior(east)) =
            (self.cart.neighbor(Dir::West), self.cart.neighbor(Dir::East))
        else {
            unreachable!("zonal neighbors always exist")
        };
        // Column strips over owned rows; row strips over the full padded
        // width (which is how corners propagate).
        let cols = |i0| Rect::new(H, ny, i0, H);
        let rows = |j0| Rect::new(j0, H, 0, pi);
        let mut ew = Phase::default();
        if west == rank {
            // px == 1: the periodic wrap is a local copy.
            ew.locals = [Some((cols(H), cols(H + nx))), Some((cols(nx), cols(0)))];
        } else {
            ew.sends = [
                Some((west, T_WEST, cols(H))),
                Some((east, T_EAST, cols(nx))),
            ];
            ew.recvs = [
                Some((east, T_WEST, cols(H + nx))),
                Some((west, T_EAST, cols(0))),
            ];
        }
        let mut ns = Phase::default();
        if let Neighbor::Interior(s) = self.cart.neighbor(Dir::South) {
            // Southward strip fills the south neighbor's north ghost.
            ns.sends[0] = Some((s, T_SOUTH, rows(H)));
            ns.recvs[1] = Some((s, T_NORTH, rows(0)));
        }
        let fold_real = Rect {
            rev: true,
            ..rows(H + ny - 1)
        };
        let fold_ghost = Rect {
            fold: true,
            ..rows(H + ny)
        };
        match self.cart.neighbor(Dir::North) {
            Neighbor::Interior(n) => {
                ns.sends[1] = Some((n, T_NORTH, rows(ny)));
                ns.recvs[0] = Some((n, T_SOUTH, rows(H + ny)));
            }
            Neighbor::Fold(p) if p == rank => ns.locals[0] = Some((fold_real, fold_ghost)),
            Neighbor::Fold(p) => {
                ns.sends[1] = Some((p, T_FOLD, fold_real));
                ns.recvs[0] = Some((p, T_FOLD, fold_ghost));
            }
            Neighbor::Closed => {}
        }
        [ew, ns]
    }

    // -- the update ---------------------------------------------------------

    /// Split-phase update of `fields` (one message per direction for the
    /// whole batch, fields concatenated in order): posts the east/west
    /// strips and returns the [`Pending`] exchange. Field contents on
    /// completion are bitwise identical to exchanging each field alone.
    ///
    /// At most one pending exchange may be outstanding per `tag_base`; the
    /// caller must finish it within the same epoch it was begun.
    pub fn begin(
        &self,
        fields: &[(&View3<f64>, FoldKind)],
        tag_base: u64,
    ) -> Result<Pending<'_>, HaloError> {
        for (f, _) in fields {
            self.check(f);
        }
        let mut p = Pending {
            h: self,
            fields: fields.iter().map(|(f, k)| ((*f).clone(), *k)).collect(),
            tag_base,
            // An empty batch claims no frame ordinal and sends nothing.
            seq: None,
            plan: self.plan(),
            phase: DONE,
            t0: Instant::now(),
        };
        if !fields.is_empty() {
            p.seq = self.next_seq();
            p.phase = 0;
            p.post();
        }
        Ok(p)
    }

    /// Blocking update: [`Halo::begin`] + [`Pending::finish`]. Surfaces an
    /// unrecoverable strip as a typed [`HaloError`] after the integrity
    /// layer's bounded retries; without integrity it cannot fail.
    pub fn try_exchange(
        &self,
        fields: &[(&View3<f64>, FoldKind)],
        tag_base: u64,
    ) -> Result<(), HaloError> {
        let _r = kokkos_rs::profiling::region("halo:exchange");
        self.begin(fields, tag_base)?.finish()
    }

    /// Blocking update of one field.
    ///
    /// # Panics
    /// If integrity is enabled and a strip is unrecoverable; use
    /// [`Halo::try_exchange`] to handle that as a value.
    pub fn exchange(&self, field: &View3<f64>, kind: FoldKind, tag_base: u64) {
        self.try_exchange(&[(field, kind)], tag_base)
            .unwrap_or_else(|e| panic!("halo exchange failed: {e}"));
    }

    /// The original implementation: element-wise pack/unpack into freshly
    /// allocated message vectors, blocking, unframed. Kept as the
    /// bitwise-identity reference for the pooled path and as the baseline
    /// in the benches.
    pub fn exchange_alloc(&self, fields: &[(&View3<f64>, FoldKind)], tag_base: u64) {
        if fields.is_empty() {
            return;
        }
        for (f, _) in fields {
            self.check(f);
        }
        let comm = self.cart.comm();
        let cat = |rect: Rect| -> Vec<f64> {
            fields
                .iter()
                .flat_map(|(f, _)| pack_ref(self.strategy, f, rect))
                .collect()
        };
        let split = |rect: Rect, buf: &[f64]| {
            let mut off = 0;
            for (f, kind) in fields {
                let n = rect.len(f.extent(0));
                unpack_ref(self.strategy, f, *kind, rect, &buf[off..off + n]);
                off += n;
            }
        };
        for phase in self.plan() {
            for (peer, t, rect) in phase.sends.into_iter().flatten() {
                comm.isend(peer, tag_base + t, cat(rect));
            }
            for (real, ghost) in phase.locals.into_iter().flatten() {
                split(ghost, &cat(real));
            }
            for (peer, t, rect) in phase.recvs.into_iter().flatten() {
                split(rect, &comm.recv::<f64>(peer, tag_base + t));
            }
        }
    }
}

/// [`Pending::phase`] once every ghost cell is filled.
const DONE: usize = 2;

/// A batched halo exchange in flight (see [`Halo::begin`]). Holds clones
/// of the field views — `View` is a shared handle, so the caller keeps
/// using its own handles — and borrows the engine so frame sequencing
/// stays collective.
pub struct Pending<'a> {
    h: &'a Halo,
    fields: Vec<(View3<f64>, FoldKind)>,
    tag_base: u64,
    seq: Option<FrameSeq>,
    plan: [Phase; 2],
    /// The phase whose receives are outstanding, or [`DONE`].
    phase: usize,
    t0: Instant,
}

impl Pending<'_> {
    /// Each field with its segment of a batched message of `rect` strips.
    fn segments(&self, rect: Rect) -> impl Iterator<Item = (&View3<f64>, FoldKind, Range<usize>)> {
        let mut off = 0;
        self.fields.iter().map(move |(f, kind)| {
            let n = rect.len(f.extent(0));
            off += n;
            (f, *kind, off - n..off)
        })
    }

    /// Length of a batched message of `rect` strips.
    fn msg_len(&self, rect: Rect) -> usize {
        self.segments(rect).last().map_or(0, |(_, _, seg)| seg.end)
    }

    /// Post the current phase — sends, then self-copies — and move past
    /// every phase that awaits no receive. The north/south phase is posted
    /// only after the zonal ghosts are fresh: its row strips span the full
    /// padded width.
    fn post(&mut self) {
        let h = self.h;
        let comm = h.cart.comm();
        while self.phase < DONE {
            let phase = self.plan[self.phase];
            for (peer, t, rect) in phase.sends.into_iter().flatten() {
                h.send_strip(
                    comm,
                    peer,
                    self.tag_base + t,
                    self.seq,
                    self.msg_len(rect),
                    |buf| {
                        for (f, _, seg) in self.segments(rect) {
                            h.pack(f, rect, &mut buf[seg]);
                        }
                    },
                );
            }
            for (real, ghost) in phase.locals.into_iter().flatten() {
                let mut scratch = h.scratch(self.msg_len(real));
                for (f, _, seg) in self.segments(real) {
                    h.pack(f, real, &mut scratch[seg]);
                }
                for (f, kind, seg) in self.segments(ghost) {
                    h.unpack(f, kind, ghost, &scratch[seg]);
                }
            }
            if phase.recvs.iter().any(Option::is_some) {
                return;
            }
            self.phase += 1;
        }
        h.inflight_ns
            .set(h.inflight_ns.get() + self.t0.elapsed().as_nanos() as u64);
    }

    fn advance(&mut self, blocking: bool) -> Result<bool, HaloError> {
        let h = self.h;
        let comm = h.cart.comm();
        while self.phase < DONE {
            let recvs = self.plan[self.phase].recvs;
            let tag = |t: u64| self.tag_base + t;
            // Probe without consuming, so `poll` only commits to receives
            // it can satisfy immediately.
            if !blocking
                && !recvs
                    .iter()
                    .flatten()
                    .all(|&(p, t, _)| comm.has_message(p, tag(t)))
            {
                // A dead neighbor can never make the phase ready: surface
                // the typed error instead of letting the caller's drain
                // loop spin on `Ok(false)` forever. Queued pre-death
                // strips still count as arriving (drain-first).
                let dead = recvs
                    .iter()
                    .flatten()
                    .find(|&&(p, t, _)| !comm.is_alive(p) && !comm.has_message(p, tag(t)));
                return match dead {
                    Some(&(src, t, _)) => Err(HaloError::PeerDead { src, tag: tag(t) }),
                    None => Ok(false),
                };
            }
            for (peer, t, rect) in recvs.into_iter().flatten() {
                h.recv_strip(comm, peer, tag(t), self.seq, self.msg_len(rect), |buf| {
                    for (f, kind, seg) in self.segments(rect) {
                        h.unpack(f, kind, rect, &buf[seg]);
                    }
                })?;
            }
            self.phase += 1;
            self.post();
        }
        Ok(true)
    }

    /// Non-blocking progress: consume whatever strips have arrived and
    /// advance the protocol. Returns `Ok(true)` once the exchange is
    /// complete. Never waits — if the next strip has not arrived, it
    /// returns `Ok(false)` immediately.
    pub fn poll(&mut self) -> Result<bool, HaloError> {
        self.advance(false)
    }

    /// Block until the exchange completes.
    pub fn finish(mut self) -> Result<(), HaloError> {
        self.advance(true).map(|_| ())
    }

    /// True once every ghost cell is filled.
    pub fn is_done(&self) -> bool {
        self.phase == DONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::{View, View2};
    use mpi_sim::World;

    const STRATEGIES: [Strategy3D; 2] = [Strategy3D::HorizontalMajor, Strategy3D::Transpose];
    const KINDS: [FoldKind; 2] = [FoldKind::Scalar, FoldKind::Vector];
    /// Every case runs on a 2-D field (a one-level view) and a 3-D one.
    const NZS: [usize; 2] = [1, 4];

    /// Global reference field, defined on owned cells.
    fn g(k: usize, j: usize, i: usize) -> f64 {
        (k * 1_000_000 + j * 1000 + i) as f64 + 0.125
    }

    /// A field of `nz` levels: ghosts poisoned with `ghost`, owned cells
    /// from the global function plus `salt`.
    fn field(h: &Halo, nz: usize, salt: f64, ghost: f64) -> View3<f64> {
        let f: View3<f64> = View::host("f", h.shape(nz));
        f.fill(ghost);
        for k in 0..nz {
            for j in 0..h.ny {
                for i in 0..h.nx {
                    f.set_at(k, H + j, H + i, g(k, h.y0 + j, h.x0 + i) + salt);
                }
            }
        }
        f
    }

    /// Expected value of any padded cell after a full exchange (None =
    /// unspecified: closed southern ghost).
    fn expected(h: &Halo, k: usize, jl: usize, il: usize, kind: FoldKind) -> Option<f64> {
        let (nxg, nyg) = (h.nxg as i64, h.nyg as i64);
        let jg = h.y0 as i64 + jl as i64 - H as i64;
        let ig = h.x0 as i64 + il as i64 - H as i64;
        if jg < 0 {
            return None; // closed southern wall
        }
        if jg < nyg {
            return Some(g(k, jg as usize, ig.rem_euclid(nxg) as usize));
        }
        // North fold: ghost row nyg+d mirrors row nyg-1-d, i -> nxg-1-i.
        let d = jg - nyg;
        let src_i = (nxg - 1 - ig).rem_euclid(nxg) as usize;
        (d < H as i64).then(|| kind.sign() * g(k, (nyg - 1 - d) as usize, src_i))
    }

    fn check_all(h: &Halo, f: &View3<f64>, kind: FoldKind) {
        let [nz, pj, pi] = f.dims();
        for k in 0..nz {
            for jl in 0..pj {
                for il in 0..pi {
                    if let Some(want) = expected(h, k, jl, il, kind) {
                        let got = f.at(k, jl, il);
                        assert_eq!(
                            got, want,
                            "block ({},{}) cell (k={k}, jl={jl}, il={il})",
                            h.x0, h.y0
                        );
                    }
                }
            }
        }
    }

    fn halo(comm: &Comm, px: usize, py: usize, nxg: usize, nyg: usize) -> Halo {
        Halo::new(&CartComm::new(comm.clone(), px, py, true), nxg, nyg)
    }

    /// Exchange once and check every cell, for both strategies and both
    /// field ranks.
    fn run_case(nranks: usize, px: usize, py: usize, nxg: usize, nyg: usize, kind: FoldKind) {
        for strategy in STRATEGIES {
            for nz in NZS {
                World::run(nranks, |comm| {
                    let h = halo(comm, px, py, nxg, nyg).with_strategy(strategy);
                    let f = field(&h, nz, 0.0, -1e30);
                    h.exchange(&f, kind, 100);
                    check_all(&h, &f, kind);
                });
            }
        }
    }

    #[test]
    fn single_rank_periodic_and_fold() {
        run_case(1, 1, 1, 12, 8, FoldKind::Scalar);
        run_case(1, 1, 1, 10, 8, FoldKind::Scalar);
    }

    #[test]
    fn single_rank_vector_fold_flips_sign() {
        run_case(1, 1, 1, 12, 8, FoldKind::Vector);
    }

    #[test]
    fn four_zonal_ranks() {
        run_case(4, 4, 1, 16, 6, FoldKind::Scalar);
    }

    #[test]
    fn two_by_two() {
        run_case(4, 2, 2, 12, 10, FoldKind::Scalar);
    }

    #[test]
    fn two_by_three_vector_fold() {
        run_case(6, 2, 3, 16, 12, FoldKind::Vector);
    }

    #[test]
    fn four_by_three_vector() {
        run_case(12, 4, 3, 24, 12, FoldKind::Vector);
    }

    #[test]
    fn uneven_rows_ok_without_fold_constraint_violation() {
        // ny not divisible by py is fine; only nx % px matters for the fold.
        run_case(6, 2, 3, 8, 11, FoldKind::Scalar);
    }

    #[test]
    #[should_panic(expected = "north-fold exchange requires equal block widths")]
    fn fold_requires_divisible_width() {
        World::run(3, |comm| {
            let _ = halo(comm, 3, 1, 10, 6); // 10 % 3 != 0
        });
    }

    #[test]
    fn south_ghost_untouched() {
        for nz in NZS {
            World::run(2, |comm| {
                let h = halo(comm, 2, 1, 8, 6);
                let f = field(&h, nz, 0.0, 7.5);
                h.exchange(&f, FoldKind::Scalar, 0);
                // Closed wall: the poison value survives in south ghost rows.
                for k in 0..nz {
                    for r in 0..H {
                        for i in 0..h.padded().1 {
                            assert_eq!(f.at(k, r, i), 7.5);
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn repeated_exchanges_are_a_fixpoint() {
        for strategy in STRATEGIES {
            for nz in NZS {
                World::run(4, |comm| {
                    let h = halo(comm, 2, 2, 12, 10).with_strategy(strategy);
                    let f = field(&h, nz, 0.0, 0.0);
                    h.exchange(&f, FoldKind::Scalar, 0);
                    let once = f.to_vec();
                    h.exchange(&f, FoldKind::Scalar, 10);
                    assert_eq!(f.to_vec(), once, "second exchange must be a fixpoint");
                });
            }
        }
    }

    #[test]
    fn strategies_are_bitwise_identical() {
        for nz in NZS {
            let run = |strategy| {
                World::run(4, |comm| {
                    let h = halo(comm, 2, 2, 12, 10).with_strategy(strategy);
                    let f = field(&h, nz, 0.0, 0.0);
                    h.exchange(&f, FoldKind::Vector, 0);
                    f.to_vec()
                })
            };
            assert_eq!(run(Strategy3D::HorizontalMajor), run(Strategy3D::Transpose));
        }
    }

    #[test]
    fn two_dimensional_fields_exchange_as_one_level_views() {
        // A lifted View2 shares storage, so the exchange fills the 2-D
        // field itself, bitwise as a one-level 3-D field.
        World::run(4, |comm| {
            let h = halo(comm, 2, 2, 12, 10);
            let f3 = field(&h, 1, 0.0, -1.0);
            let (pj, pi) = h.padded();
            let f2: View2<f64> = View::host("f2", [pj, pi]);
            f2.copy_from_slice(f3.as_slice());
            h.exchange(&f3, FoldKind::Vector, 0);
            h.exchange(&f2.lift(), FoldKind::Vector, 10);
            assert_eq!(f2.to_vec(), f3.to_vec());
        });
    }

    #[test]
    fn cpe_dispatched_strips_match_serial_bitwise() {
        // Force every strip through the execution-space launch
        // (threshold 0) and require bitwise identity with the inline
        // copies, fold and sign-flip included.
        for space in [
            Space::threads(),
            Space::sw_athread_with(sunway_sim::CgConfig::test_small()),
        ] {
            for strategy in STRATEGIES {
                for nz in NZS {
                    World::run(4, |comm| {
                        let serial = halo(comm, 2, 2, 12, 10).with_strategy(strategy);
                        let mut cpe = halo(comm, 2, 2, 12, 10)
                            .with_strategy(strategy)
                            .with_space(space.clone());
                        cpe.strip_dispatch_min = 0;
                        for kind in KINDS {
                            let a = field(&serial, nz, 0.0, -1e30);
                            let b = field(&cpe, nz, 0.0, -1e30);
                            serial.exchange(&a, kind, 0);
                            cpe.exchange(&b, kind, 10);
                            check_all(&cpe, &b, kind);
                            assert_eq!(
                                a.to_vec(),
                                b.to_vec(),
                                "serial vs {} strips, {strategy:?} {kind:?}",
                                space.name()
                            );
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn pooled_matches_allocating_reference() {
        for strategy in STRATEGIES {
            for nz in NZS {
                World::run(4, |comm| {
                    let h = halo(comm, 2, 2, 12, 10)
                        .with_strategy(strategy)
                        .with_space(Space::threads());
                    for kind in KINDS {
                        // Single field.
                        let (a, b) = (field(&h, nz, 0.0, 0.0), field(&h, nz, 0.0, 0.0));
                        h.exchange(&a, kind, 0);
                        h.exchange_alloc(&[(&b, kind)], 10);
                        assert_eq!(a.to_vec(), b.to_vec(), "{strategy:?} {kind:?}");
                        // Batch with mixed fold kinds.
                        let (p0, p1) = (field(&h, nz, 1.0, 0.0), field(&h, nz, 2.0, 0.0));
                        let (q0, q1) = (field(&h, nz, 1.0, 0.0), field(&h, nz, 2.0, 0.0));
                        h.try_exchange(&[(&p0, kind), (&p1, FoldKind::Scalar)], 20)
                            .unwrap();
                        h.exchange_alloc(&[(&q0, kind), (&q1, FoldKind::Scalar)], 30);
                        assert_eq!(p0.to_vec(), q0.to_vec(), "batched field 0");
                        assert_eq!(p1.to_vec(), q1.to_vec(), "batched field 1");
                    }
                });
            }
        }
    }

    #[test]
    fn steady_state_exchanges_do_not_allocate() {
        // Per-rank pools make miss counts deterministic: more iterations
        // must not add a single allocation beyond the warm-up.
        for nz in NZS {
            let allocs = |iters: u64| {
                let (_, t) = World::run_traced(4, |comm| {
                    let h = halo(comm, 2, 2, 12, 10);
                    let f = field(&h, nz, 0.0, 0.0);
                    for it in 0..iters {
                        h.exchange(&f, FoldKind::Scalar, it * 10);
                    }
                });
                t
            };
            let (warm, long) = (allocs(3), allocs(20));
            assert_eq!(
                warm.pool_allocations, long.pool_allocations,
                "steady-state exchanges must reuse pooled buffers"
            );
            assert!(long.pool_reuses > warm.pool_reuses);
        }
    }

    #[test]
    fn overlapped_compute_matches_blocking() {
        for nz in NZS {
            World::run(4, |comm| {
                let h = halo(comm, 2, 2, 12, 10);
                let (a, b) = (field(&h, nz, 0.0, 0.0), field(&h, nz, 0.0, 0.0));
                h.exchange(&a, FoldKind::Scalar, 0);
                let p = h.begin(&[(&b, FoldKind::Scalar)], 10).unwrap();
                // Interior compute while the strips fly: reads no ghost.
                let interior: f64 = (0..h.nx).map(|i| b.at(nz - 1, 2 * H, H + i)).sum();
                p.finish().unwrap();
                assert!(interior.is_finite());
                assert_eq!(a.to_vec(), b.to_vec(), "overlap must be bitwise equal");
            });
        }
    }

    #[test]
    fn batched_matches_separate_and_saves_messages() {
        for nz in NZS {
            let run = |batched: bool| {
                World::run_traced(4, |comm| {
                    let h = halo(comm, 2, 2, 12, 10);
                    let (u, v) = (field(&h, nz, 0.0, 0.0), field(&h, nz, 0.5, 0.0));
                    if batched {
                        h.try_exchange(&[(&u, FoldKind::Vector), (&v, FoldKind::Scalar)], 0)
                            .unwrap();
                    } else {
                        h.exchange(&u, FoldKind::Vector, 0);
                        h.exchange(&v, FoldKind::Scalar, 10);
                    }
                    (u.to_vec(), v.to_vec())
                })
            };
            let ((separate, t_sep), (batched, t_bat)) = (run(false), run(true));
            assert_eq!(separate, batched, "batched update must be bitwise equal");
            assert!(
                t_bat.p2p_messages < t_sep.p2p_messages,
                "batching must reduce messages: {} vs {}",
                t_bat.p2p_messages,
                t_sep.p2p_messages
            );
            assert_eq!(t_bat.p2p_bytes, t_sep.p2p_bytes, "same payload bytes");
        }
    }

    #[test]
    fn split_phase_batched_matches_blocking_per_field() {
        for strategy in STRATEGIES {
            for nz in NZS {
                World::run(4, |comm| {
                    let h = halo(comm, 2, 2, 12, 10).with_strategy(strategy);
                    for kind in KINDS {
                        let (a1, a2) = (field(&h, nz, 0.5, 0.0), field(&h, nz, 7.0, 0.0));
                        let (b1, b2) = (field(&h, nz, 0.5, 0.0), field(&h, nz, 7.0, 0.0));
                        h.exchange(&a1, kind, 0);
                        h.exchange(&a2, kind, 10);
                        let mut p = h.begin(&[(&b1, kind), (&b2, kind)], 20).unwrap();
                        // Poll a few times (may or may not complete), then finish.
                        for _ in 0..3 {
                            let _ = p.poll().unwrap();
                        }
                        p.finish().unwrap();
                        assert_eq!(a1.to_vec(), b1.to_vec(), "{strategy:?} {kind:?} field 1");
                        assert_eq!(a2.to_vec(), b2.to_vec(), "{strategy:?} {kind:?} field 2");
                    }
                });
            }
        }
    }

    #[test]
    fn pendings_in_flight_at_once_do_not_cross() {
        // Bases 10 apart keep every wire tag distinct, so two exchanges
        // posted back to back and finished in reverse order cannot steal
        // each other's strips.
        for nz in NZS {
            World::run(4, |comm| {
                let h = halo(comm, 2, 2, 12, 10);
                let (a1, a2) = (field(&h, nz, 0.5, 0.0), field(&h, nz, 7.0, 0.0));
                let (b1, b2) = (field(&h, nz, 0.5, 0.0), field(&h, nz, 7.0, 0.0));
                h.exchange(&a1, FoldKind::Vector, 0);
                h.exchange(&a2, FoldKind::Scalar, 0);
                let p1 = h.begin(&[(&b1, FoldKind::Vector)], 800).unwrap();
                let p2 = h.begin(&[(&b2, FoldKind::Scalar)], 810).unwrap();
                p2.finish().unwrap();
                p1.finish().unwrap();
                assert_eq!(a1.to_vec(), b1.to_vec());
                assert_eq!(a2.to_vec(), b2.to_vec());
            });
        }
    }

    #[test]
    fn split_phase_single_rank_self_paths() {
        for strategy in STRATEGIES {
            for nz in NZS {
                World::run(1, |comm| {
                    let h = halo(comm, 1, 1, 12, 8).with_strategy(strategy);
                    let (a, b) = (field(&h, nz, 0.0, 0.0), field(&h, nz, 0.0, 0.0));
                    h.exchange(&a, FoldKind::Vector, 0);
                    let p = h.begin(&[(&b, FoldKind::Vector)], 10).unwrap();
                    assert!(p.is_done(), "self paths complete at begin");
                    p.finish().unwrap();
                    assert_eq!(a.to_vec(), b.to_vec());
                });
            }
        }
    }

    #[test]
    fn strip_copies_match_the_reference_on_every_space() {
        strip::register_strip_copy();
        let spaces = [
            None,
            Some(Space::serial()),
            Some(Space::threads()),
            Some(Space::sw_athread_with(sunway_sim::CgConfig::test_small())),
        ];
        // Column strip, wide row strip, and the descending fold pack.
        let rects = [
            Rect::new(2, 7, 3, 2),
            Rect::new(1, 3, 2, 5),
            Rect {
                rev: true,
                ..Rect::new(8, 2, 0, 13)
            },
        ];
        for order in STRATEGIES {
            for nz in NZS {
                let src = View::from_fn("src", [nz, 11, 13], |[k, j, i]| g(k, j, i));
                for space in &spaces {
                    for rect in rects {
                        let want = pack_ref(order, &src, rect);
                        let mut got = vec![0.0; want.len()];
                        strip::pack(space.as_ref(), order, &src, rect, &mut got);
                        assert_eq!(got, want, "pack {order:?} {rect:?} on {space:?}");

                        // Unpack inverts pack and touches nothing else.
                        let (dst, reference): (View3<f64>, View3<f64>) = (
                            View::host("dst", [nz, 11, 13]),
                            View::host("ref", [nz, 11, 13]),
                        );
                        dst.fill(-1.0);
                        reference.fill(-1.0);
                        strip::unpack(space.as_ref(), order, &dst, rect, &want);
                        unpack_ref(order, &reference, FoldKind::Scalar, rect, &want);
                        assert_eq!(
                            dst.to_vec(),
                            reference.to_vec(),
                            "unpack {order:?} {rect:?}"
                        );
                        for r in 0..rect.nj {
                            let j = rect.row(r);
                            assert_eq!(dst.at(nz - 1, j, rect.i0), src.at(nz - 1, j, rect.i0));
                        }
                    }
                }
            }
        }
    }
}
