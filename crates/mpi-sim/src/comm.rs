//! Ranks, worlds and tag-matched point-to-point messaging.
//!
//! Semantics follow MPI where the model code depends on them:
//!
//! * `send` is *buffered* (never blocks on the receiver), matching the
//!   paper's use of `MPI_Isend`-style overlapped halo exchange;
//! * `recv` blocks until a message with the exact `(source, tag)` pair is
//!   available; messages between the same pair with the same tag are
//!   delivered in send order (non-overtaking);
//! * payloads are typed `Vec<T>`; a type mismatch between sender and
//!   receiver panics with a diagnostic rather than reinterpreting bytes.
//!
//! ## Robustness
//!
//! * Every blocking receive is bounded: the plain `recv`/`recv_into`
//!   APIs abort with a diagnostic after the world's `recv_timeout`
//!   (default 60 s) instead of deadlocking forever on a missing message,
//!   and the `*_deadline` variants return a typed [`CommError`] so
//!   callers can retry.
//! * A seeded [`crate::fault::FaultPlan`] installed via
//!   [`WorldConfig::faults`] corrupts matching messages inside this
//!   module's single delivery funnel — both the pooled `send_into` and
//!   the allocating `send` pass through it — and parks pristine copies in
//!   an escrow that [`Comm::fetch_resend`] serves, simulating link-level
//!   retransmission.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::collective::CollectiveState;
use crate::fault::{Action, FaultPlan, FaultState};
use crate::flight::{self, FlightCtx, FlightEventKind, FlightRing, FlightScope, FlightWorld};
use crate::pool::BufferPool;
use crate::stats::{Traffic, TrafficSnapshot};
use crate::tap::{self, CommEvent, CommEventKind};

/// Typed point-to-point communication failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the allotted time.
    Timeout {
        src: usize,
        tag: u64,
        waited: Duration,
    },
    /// The awaited peer halted permanently (a seeded
    /// [`crate::fault::RankFailure`] fired) and its mailbox held no
    /// matching message — the wait can never complete. Queued messages
    /// the peer sent *before* dying are still delivered first, so the
    /// error is raised only once the channel is truly drained.
    PeerDead { peer: usize, tag: u64 },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { src, tag, waited } => write!(
                f,
                "receive from rank {src} tag {tag} timed out after {waited:?}"
            ),
            CommError::PeerDead { peer, tag } => {
                write!(
                    f,
                    "peer rank {peer} died; receive on tag {tag} can never complete"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Message payload. Pooled `f64` buffers travel unboxed so a pooled
/// send/recv round-trip touches the heap only on pool misses.
enum Payload {
    Boxed {
        data: Box<dyn Any + Send>,
        type_name: &'static str,
    },
    PooledF64(Vec<f64>),
}

struct Message {
    src: usize,
    tag: u64,
    /// Sender's Lamport timestamp at send time. Receives merge it into
    /// the receiver's clock ([`crate::flight::LamportClock::observe`]),
    /// which is what lets the flight recorder order events across ranks.
    lamport: u64,
    payload: Payload,
}

#[derive(Default)]
struct Mailbox {
    queue: Mutex<Vec<Message>>,
    cv: Condvar,
}

pub(crate) struct WorldShared {
    pub(crate) n: usize,
    mailboxes: Vec<Mailbox>,
    pub(crate) traffic: Traffic,
    pub(crate) coll: CollectiveState,
    /// One buffer pool per rank. A send borrows from the *sender's* pool
    /// and the matching receive releases into the *receiver's* pool, so
    /// each rank's acquire/release sequence follows its program order —
    /// which makes steady-state allocation counts deterministic (a single
    /// world-shared free list would make them scheduling-dependent).
    pub(crate) pools: Vec<BufferPool>,
    /// Installed fault plan, if any (see [`WorldConfig::faults`]).
    faults: Option<FaultState>,
    /// Per-rank epoch (model step) used by fault rules' step windows.
    /// Doubles as the liveness heartbeat: a rank that stops advancing
    /// its epoch is stalled, one whose death slot is set is gone.
    epochs: Vec<AtomicU64>,
    /// Per-rank death epoch; `u64::MAX` = alive. Set once (fail-stop)
    /// by [`Comm::set_epoch`] when a seeded [`crate::fault::RankFailure`]
    /// fires, then never cleared.
    pub(crate) deaths: Vec<AtomicU64>,
    /// Trailing ranks reserved as recovery spares (metadata for the
    /// elastic layer; the transport treats them like any other rank).
    spares: usize,
    /// Upper bound a plain blocking receive waits before aborting with a
    /// deadlock diagnostic.
    recv_timeout: Duration,
    /// Flight-recorder state: one Lamport clock per rank (always ticking
    /// through the message path) plus the ring registry post-mortem
    /// dumps snapshot.
    pub(crate) flight: crate::flight::FlightWorld,
    /// Whether a receive spins briefly before parking: only when there
    /// is a peer to wait for and every rank can have a core of its own
    /// (see `take_message_for`).
    spin: bool,
}

impl WorldShared {
    pub(crate) fn is_dead(&self, world_rank: usize) -> bool {
        self.deaths[world_rank].load(Ordering::Relaxed) != u64::MAX
    }

    /// Fail-stop transition: record the death, then wake every parked
    /// waiter in the world (mailbox condvars and the collective
    /// rendezvous) so blocked receives re-check liveness and return
    /// [`CommError::PeerDead`] instead of sleeping out their deadline.
    pub(crate) fn mark_dead(&self, world_rank: usize, epoch: u64) {
        if self.deaths[world_rank]
            .compare_exchange(u64::MAX, epoch, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.traffic.record_rank_death();
            // Black-box the death itself. Registry-direct: this runs on
            // whichever thread noticed the fault firing, with no
            // thread-local scope guaranteed.
            self.flight.record_direct(
                world_rank,
                FlightEventKind::RankDeath,
                world_rank as u64,
                epoch,
                0,
            );
            for mb in &self.mailboxes {
                mb.cv.notify_all();
            }
            self.coll.notify_all();
        }
    }
}

/// Rank-to-world mapping of a derived communicator: member `i` of the
/// group is world rank `members[i]`, and every tag is namespaced by
/// `key` so traffic of different groups (e.g. the pre- and post-recovery
/// worlds) never cross-matches.
#[derive(Clone)]
struct CommView {
    members: Arc<Vec<usize>>,
    key: u64,
}

/// A communicator handle owned by one rank. Cheap to clone.
#[derive(Clone)]
pub struct Comm {
    /// Rank within this communicator (== world rank when `view` is None).
    rank: usize,
    /// Rank within the root world (mailbox/pool/epoch index).
    world_rank: usize,
    shared: Arc<WorldShared>,
    view: Option<CommView>,
}

/// Handle for a posted non-blocking receive; resolve with [`RecvReq::wait`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an irecv does nothing until waited on"]
pub struct RecvReq {
    src: usize,
    tag: u64,
}

impl Comm {
    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator (the world, or the member
    /// count of a derived view).
    pub fn size(&self) -> usize {
        match &self.view {
            Some(v) => v.members.len(),
            None => self.shared.n,
        }
    }

    /// This rank's id in the root world (== `rank()` for the world comm).
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Total rank count of the root world, spares included.
    pub fn world_size(&self) -> usize {
        self.shared.n
    }

    /// Trailing world ranks reserved as recovery spares (see
    /// [`WorldConfig::spares`]).
    pub fn spares(&self) -> usize {
        self.shared.spares
    }

    /// Translate a communicator rank to its world rank.
    #[inline]
    fn wr(&self, r: usize) -> usize {
        match &self.view {
            Some(v) => v.members[r],
            None => r,
        }
    }

    /// Namespace a logical tag into this communicator's wire-tag space.
    #[inline]
    fn wt(&self, tag: u64) -> u64 {
        match &self.view {
            Some(v) => v.key.rotate_left(17) ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            None => tag,
        }
    }

    /// Rewrite a wire-level error back into this communicator's rank/tag
    /// coordinates so callers see the peers they addressed.
    fn localize(&self, e: CommError, src: usize, tag: u64) -> CommError {
        match e {
            CommError::Timeout { waited, .. } => CommError::Timeout { src, tag, waited },
            CommError::PeerDead { peer, .. } => {
                let peer = if peer == self.world_rank {
                    self.rank
                } else {
                    src
                };
                CommError::PeerDead { peer, tag }
            }
        }
    }

    /// Derive a communicator over `members` (world ranks, this rank
    /// included) without a world collective: every member constructs the
    /// same view locally from the same agreed member list — the
    /// ULFM-shrink analogue the elastic recovery layer uses to re-form
    /// the compute group around survivors and adopted spares. `key_salt`
    /// (e.g. the recovery round) keeps traffic of successive groups with
    /// identical membership from cross-matching.
    pub fn with_members(&self, members: &[usize], key_salt: u64) -> Comm {
        assert!(
            self.view.is_none(),
            "derive views from the world communicator"
        );
        let rank = members
            .iter()
            .position(|&m| m == self.world_rank)
            .expect("caller must be a member of its own derived communicator");
        let mut key = 0xcbf2_9ce4_8422_2325u64 ^ key_salt.wrapping_mul(0x0100_0000_01b3);
        for &m in members {
            assert!(m < self.shared.n, "member {m} outside the world");
            key ^= m as u64 + 1;
            key = key.wrapping_mul(0x0100_0000_01b3);
        }
        Comm {
            rank,
            world_rank: self.world_rank,
            shared: Arc::clone(&self.shared),
            view: Some(CommView {
                members: Arc::new(members.to_vec()),
                key,
            }),
        }
    }

    /// Buffered typed send: enqueue `data` at `dst`'s mailbox and return
    /// immediately. Sends from or to a dead rank are suppressed (counted,
    /// not delivered): a halted rank goes silent, and traffic addressed
    /// to it stops accumulating.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(dst < self.size(), "send to invalid rank {dst}");
        let dst = self.wr(dst);
        let tag = self.wt(tag);
        if self.shared.is_dead(self.world_rank) || self.shared.is_dead(dst) {
            self.shared.traffic.record_send_suppressed();
            return;
        }
        let bytes = data.len() * std::mem::size_of::<T>();
        self.shared.traffic.record_p2p(bytes);
        self.tap_event(CommEventKind::Send, dst, tag, bytes as u64);
        self.deliver(
            dst,
            tag,
            Payload::Boxed {
                data: Box::new(data),
                type_name: std::any::type_name::<T>(),
            },
        );
    }

    /// Pooled send: borrow a message buffer of `len` f64 from this rank's
    /// buffer pool (zeroed), let `fill` pack directly into it, and enqueue
    /// it at `dst`. The matching [`Comm::recv_into`] returns the storage to
    /// the receiver's pool, so in steady state this path performs no heap
    /// allocation ([`crate::stats::TrafficSnapshot::pool_allocations`]
    /// counts misses). Suppressed like [`Comm::send`] when either end is
    /// dead.
    pub fn send_into(&self, dst: usize, tag: u64, len: usize, fill: impl FnOnce(&mut [f64])) {
        assert!(dst < self.size(), "send to invalid rank {dst}");
        let dst = self.wr(dst);
        let tag = self.wt(tag);
        if self.shared.is_dead(self.world_rank) || self.shared.is_dead(dst) {
            self.shared.traffic.record_send_suppressed();
            return;
        }
        let mut buf = self.shared.pools[self.world_rank].acquire(len, &self.shared.traffic);
        fill(&mut buf);
        let bytes = len * std::mem::size_of::<f64>();
        self.shared.traffic.record_p2p(bytes);
        self.shared.traffic.record_pooled_bytes(bytes);
        self.tap_event(CommEventKind::Send, dst, tag, bytes as u64);
        self.deliver(dst, tag, Payload::PooledF64(buf));
    }

    /// Single delivery funnel for `send` and `send_into`; fault injection
    /// happens here so pooled and allocating sends are both exercised.
    /// Operates in world coordinates (callers translate first).
    fn deliver(&self, dst: usize, tag: u64, payload: Payload) {
        let Some(fs) = self.shared.faults.as_ref() else {
            self.push_message(dst, tag, payload);
            return;
        };
        // Only f64 payloads are subject to injection (the only kind the
        // model sends); anything else passes through untouched.
        let data: Vec<f64> = match payload {
            Payload::PooledF64(b) => b,
            Payload::Boxed { data, type_name } => match data.downcast::<Vec<f64>>() {
                Ok(v) => *v,
                Err(data) => {
                    self.push_message(dst, tag, Payload::Boxed { data, type_name });
                    self.flush_delayed(fs);
                    return;
                }
            },
        };
        let epoch = self.shared.epochs[self.world_rank].load(Ordering::Relaxed);
        let t = &self.shared.traffic;
        match fs.decide(self.world_rank, dst, tag, epoch) {
            None => self.push_message(dst, tag, Payload::PooledF64(data)),
            Some(Action::Drop { recoverable }) => {
                t.record_fault_dropped();
                self.tap_event(CommEventKind::FaultDropped, dst, tag, 0);
                if recoverable {
                    fs.park(self.world_rank, dst, tag, data);
                }
            }
            Some(Action::Duplicate) => {
                t.record_fault_duplicated();
                self.tap_event(CommEventKind::FaultDuplicated, dst, tag, 0);
                self.push_message(dst, tag, Payload::PooledF64(data.clone()));
                self.push_message(dst, tag, Payload::PooledF64(data));
            }
            Some(Action::Delay { sends }) => {
                t.record_fault_delayed();
                self.tap_event(CommEventKind::FaultDelayed, dst, tag, 0);
                // Escrow a pristine copy too: if the receiver gives up
                // before the delayed frame lands, it can still resync.
                fs.park(self.world_rank, dst, tag, data.clone());
                fs.defer(self.world_rank, dst, tag, data, sends);
            }
            Some(Action::BitFlip { word_hash, bit }) => {
                let mut data = data;
                if !data.is_empty() {
                    t.record_fault_bitflipped();
                    self.tap_event(CommEventKind::FaultBitflipped, dst, tag, 0);
                    fs.park(self.world_rank, dst, tag, data.clone());
                    let w = (word_hash % data.len() as u64) as usize;
                    data[w] = f64::from_bits(data[w].to_bits() ^ (1u64 << bit));
                }
                self.push_message(dst, tag, Payload::PooledF64(data));
            }
            Some(Action::Truncate { drop_words }) => {
                t.record_fault_truncated();
                self.tap_event(CommEventKind::FaultTruncated, dst, tag, 0);
                fs.park(self.world_rank, dst, tag, data.clone());
                let mut data = data;
                let keep = data.len().saturating_sub(drop_words);
                data.truncate(keep);
                self.push_message(dst, tag, Payload::PooledF64(data));
            }
        }
        self.flush_delayed(fs);
    }

    /// Deliver delayed frames whose send-clock has run out. Called after
    /// every send by this rank, so a delayed message reorders past the
    /// sender's subsequent traffic. (A sender that never sends again keeps
    /// its frame parked — receivers recover via the escrowed copy.)
    fn flush_delayed(&self, fs: &FaultState) {
        for (dst, tag, data) in fs.tick_delayed(self.world_rank) {
            self.push_message(dst, tag, Payload::PooledF64(data));
        }
    }

    /// Forward one event to the installed traffic tap (no-op without one).
    /// Coordinates are world ranks and wire tags.
    #[inline]
    fn tap_event(&self, kind: CommEventKind, peer: usize, tag: u64, bytes: u64) {
        tap::emit(CommEvent {
            kind,
            rank: self.world_rank,
            peer,
            tag,
            bytes,
        });
    }

    fn push_message(&self, dst: usize, tag: u64, payload: Payload) {
        // Lamport stamping is unconditional (one relaxed fetch_add): the
        // clock must keep ticking even while no ring is armed, or events
        // recorded after a late arming could not be causally ordered.
        // The wire stamp and the MsgSend event share one tick.
        let lamport = self.shared.flight.clock(self.world_rank).tick();
        if flight::any_armed() {
            let words = match &payload {
                Payload::PooledF64(b) => b.len() as u64,
                Payload::Boxed { .. } => 0,
            };
            flight::record_stamped(FlightEventKind::MsgSend, lamport, dst as u64, tag, words);
        }
        let mb = &self.shared.mailboxes[dst];
        mb.queue.lock().push(Message {
            src: self.world_rank,
            tag,
            lamport,
            payload,
        });
        mb.cv.notify_all();
    }

    /// Blocking typed receive of the oldest message matching `(src, tag)`.
    ///
    /// Bounded by the world's `recv_timeout`: a missing message aborts with
    /// a deadlock diagnostic instead of hanging forever. Use
    /// [`Comm::recv_deadline`] to handle the timeout as a value.
    ///
    /// # Panics
    /// If the matched message was sent with a different element type, no
    /// message arrives within the world's `recv_timeout`, or the peer is
    /// dead with an empty channel. Failure-aware callers use the
    /// `*_deadline` variants, which surface those as typed errors.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        match self.take_message_for(self.wr(src), self.wt(tag), self.shared.recv_timeout) {
            Ok(m) => self.decode(src, tag, m.payload),
            Err(e) => panic!(
                "rank {}: blocking receive aborted (would deadlock): {}",
                self.rank,
                self.localize(e, src, tag)
            ),
        }
    }

    /// Bounded typed receive: like [`Comm::recv`] but returns a typed
    /// [`CommError`] — [`CommError::Timeout`] if no matching message
    /// arrives in `timeout`, [`CommError::PeerDead`] immediately if the
    /// sender died with nothing queued.
    pub fn recv_deadline<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        let msg = self
            .take_message_for(self.wr(src), self.wt(tag), timeout)
            .map_err(|e| self.localize(e, src, tag))?;
        Ok(self.decode(src, tag, msg.payload))
    }

    fn decode<T: Send + 'static>(&self, src: usize, tag: u64, payload: Payload) -> Vec<T> {
        match payload {
            Payload::Boxed { data, type_name } => *data.downcast::<Vec<T>>().unwrap_or_else(|_| {
                panic!(
                    "recv type mismatch: rank {} expected Vec<{}>, rank {} sent Vec<{}> (tag {})",
                    self.rank,
                    std::any::type_name::<T>(),
                    src,
                    type_name,
                    tag
                )
            }),
            // A pooled message received through the plain API: hand the
            // buffer over (its storage simply leaves the pool's custody).
            Payload::PooledF64(buf) => {
                let mut slot = Some(buf);
                let any: &mut dyn Any = &mut slot;
                match any.downcast_mut::<Option<Vec<T>>>() {
                    Some(s) => s.take().expect("slot filled above"),
                    None => panic!(
                        "recv type mismatch: rank {} expected Vec<{}>, rank {} sent pooled Vec<f64> (tag {})",
                        self.rank,
                        std::any::type_name::<T>(),
                        src,
                        tag
                    ),
                }
            }
        }
    }

    /// Pooled receive: block for the `(src, tag)` message, run `consume` on
    /// its payload, then recycle the buffer's storage into this rank's pool.
    /// Payloads sent with the plain [`Comm::send::<f64>`] are adopted into
    /// the pool the same way. Bounded by the world's `recv_timeout` (see
    /// [`Comm::recv`]).
    pub fn recv_into<R>(&self, src: usize, tag: u64, consume: impl FnOnce(&[f64]) -> R) -> R {
        let msg = match self.take_message_for(self.wr(src), self.wt(tag), self.shared.recv_timeout)
        {
            Ok(m) => m,
            Err(e) => panic!(
                "rank {}: blocking receive aborted (would deadlock): {}",
                self.rank,
                self.localize(e, src, tag)
            ),
        };
        let buf = self.decode_f64(src, tag, msg.payload);
        let out = consume(&buf);
        self.shared.pools[self.world_rank].release(buf);
        out
    }

    /// Bounded pooled receive: like [`Comm::recv_into`] but returns a typed
    /// [`CommError`] — [`CommError::Timeout`] on expiry,
    /// [`CommError::PeerDead`] immediately for a dead sender with an
    /// empty channel.
    pub fn recv_into_deadline<R>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
        consume: impl FnOnce(&[f64]) -> R,
    ) -> Result<R, CommError> {
        let msg = self
            .take_message_for(self.wr(src), self.wt(tag), timeout)
            .map_err(|e| self.localize(e, src, tag))?;
        let buf = self.decode_f64(src, tag, msg.payload);
        let out = consume(&buf);
        self.shared.pools[self.world_rank].release(buf);
        Ok(out)
    }

    fn decode_f64(&self, src: usize, tag: u64, payload: Payload) -> Vec<f64> {
        match payload {
            Payload::PooledF64(buf) => buf,
            Payload::Boxed { data, type_name } => *data.downcast::<Vec<f64>>().unwrap_or_else(|_| {
                panic!(
                    "recv_into type mismatch: rank {} expected Vec<f64>, rank {} sent Vec<{}> (tag {})",
                    self.rank, src, type_name, tag
                )
            }),
        }
    }

    /// Core bounded wait in world coordinates (`src` is a world rank,
    /// `tag` a wire tag). Drain-first on death: a queued message from a
    /// now-dead peer is still delivered; only an empty channel raises
    /// [`CommError::PeerDead`] — immediately, not after the timeout,
    /// because [`WorldShared::mark_dead`] wakes every parked waiter.
    fn take_message_for(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Message, CommError> {
        let mb = &self.shared.mailboxes[self.world_rank];
        let start = Instant::now();
        let deadline = start + timeout;
        // Halo strips at step granularity arrive within microseconds of the
        // first miss; a condvar sleep/wakeup costs far more than that, so
        // spin briefly before parking — but only when the world's ranks
        // fit the cores. With more ranks than cores the spin *starves the
        // sender* (it can only post the message once the scheduler
        // preempts us), so there the condvar park is strictly better.
        let spin_until = if self.shared.spin {
            start + Duration::from_micros(50)
        } else {
            start
        };
        let mut q = mb.queue.lock();
        loop {
            if let Some(pos) = q.iter().position(|m| m.src == src && m.tag == tag) {
                let msg = q.remove(pos);
                let bytes = match &msg.payload {
                    Payload::PooledF64(b) => (b.len() * std::mem::size_of::<f64>()) as u64,
                    // The concrete element type is behind `dyn Any`; the
                    // matching send event carried the byte count.
                    Payload::Boxed { .. } => 0,
                };
                self.tap_event(CommEventKind::Recv, src, tag, bytes);
                self.observe_recv(&msg, bytes / 8);
                return Ok(msg);
            }
            if self.shared.is_dead(src) {
                self.shared.traffic.record_peer_dead_error();
                flight::record(FlightEventKind::PeerDead, src as u64, tag, 0);
                return Err(CommError::PeerDead { peer: src, tag });
            }
            if self.shared.is_dead(self.world_rank) {
                // A dead rank's own receives fail too: whatever driver is
                // still running on its thread must stop making progress.
                flight::record(FlightEventKind::PeerDead, self.world_rank as u64, tag, 0);
                return Err(CommError::PeerDead {
                    peer: self.world_rank,
                    tag,
                });
            }
            let now = Instant::now();
            if now >= deadline {
                self.shared.traffic.record_recv_timeout();
                self.tap_event(CommEventKind::RecvTimeout, src, tag, 0);
                return Err(CommError::Timeout {
                    src,
                    tag,
                    waited: timeout,
                });
            }
            if now < spin_until {
                drop(q);
                for _ in 0..64 {
                    std::hint::spin_loop();
                }
                q = mb.queue.lock();
            } else {
                mb.cv.wait_for(&mut q, deadline - now);
            }
        }
    }

    /// Non-blocking probe: is a message from `(src, tag)` already queued?
    /// Does not consume the message or emit a traffic event.
    pub fn has_message(&self, src: usize, tag: u64) -> bool {
        let (src, tag) = (self.wr(src), self.wt(tag));
        let mb = &self.shared.mailboxes[self.world_rank];
        let q = mb.queue.lock();
        q.iter().any(|m| m.src == src && m.tag == tag)
    }

    /// Non-blocking pooled receive: if the `(src, tag)` message is already
    /// queued, consume it exactly like [`Comm::recv_into`] and return
    /// `Some`; otherwise return `None` immediately without waiting. This is
    /// the polling primitive the split-phase halo exchanges use to drive
    /// progress while interior compute runs.
    pub fn try_recv_into<R>(
        &self,
        src: usize,
        tag: u64,
        consume: impl FnOnce(&[f64]) -> R,
    ) -> Option<R> {
        let (src, tag) = (self.wr(src), self.wt(tag));
        let mb = &self.shared.mailboxes[self.world_rank];
        let msg = {
            let mut q = mb.queue.lock();
            let pos = q.iter().position(|m| m.src == src && m.tag == tag)?;
            q.remove(pos)
        };
        let bytes = match &msg.payload {
            Payload::PooledF64(b) => (b.len() * std::mem::size_of::<f64>()) as u64,
            Payload::Boxed { .. } => 0,
        };
        self.tap_event(CommEventKind::Recv, src, tag, bytes);
        self.observe_recv(&msg, bytes / 8);
        let buf = self.decode_f64(src, tag, msg.payload);
        let out = consume(&buf);
        self.shared.pools[self.world_rank].release(buf);
        Some(out)
    }

    /// Merge an incoming message's Lamport stamp into this rank's clock
    /// (always) and record the receive if this thread is armed.
    #[inline]
    fn observe_recv(&self, msg: &Message, words: u64) {
        let merged = self
            .shared
            .flight
            .clock(self.world_rank)
            .observe(msg.lamport);
        if flight::any_armed() {
            flight::record_stamped(
                FlightEventKind::MsgRecv,
                merged,
                msg.src as u64,
                msg.tag,
                words,
            );
        }
    }

    /// Set this rank's epoch (the model's step counter). Fault rules with
    /// step windows match against it, rank-stall rules trigger here, and a
    /// seeded [`crate::fault::RankFailure`] whose step has come marks this
    /// rank dead — permanently — before any of the step's traffic moves.
    pub fn set_epoch(&self, epoch: u64) {
        self.shared.epochs[self.world_rank].store(epoch, Ordering::Relaxed);
        if let Some(fs) = self.shared.faults.as_ref() {
            if fs.kill_for(self.world_rank, epoch).is_some() {
                self.shared.mark_dead(self.world_rank, epoch);
                return; // the dead don't stall
            }
            if let Some(millis) = fs.stall_for(self.world_rank, epoch) {
                self.shared.traffic.record_rank_stall();
                std::thread::sleep(Duration::from_millis(millis));
            }
        }
    }

    /// This rank's current epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epochs[self.world_rank].load(Ordering::Relaxed)
    }

    /// Last epoch `rank` (in this communicator's numbering) published via
    /// [`Comm::set_epoch`] — the heartbeat read liveness tracking uses.
    pub fn peer_epoch(&self, rank: usize) -> u64 {
        self.shared.epochs[self.wr(rank)].load(Ordering::Relaxed)
    }

    /// Is `rank` (in this communicator's numbering) still alive?
    pub fn is_alive(&self, rank: usize) -> bool {
        !self.shared.is_dead(self.wr(rank))
    }

    /// Has this rank itself been killed by a seeded failure? Drivers
    /// check this after a failed step to halt the dead rank's thread.
    pub fn self_failed(&self) -> bool {
        self.shared.is_dead(self.world_rank)
    }

    /// Epoch at which `rank` (communicator numbering) died, if it has.
    pub fn death_epoch(&self, rank: usize) -> Option<u64> {
        let e = self.shared.deaths[self.wr(rank)].load(Ordering::Relaxed);
        (e != u64::MAX).then_some(e)
    }

    /// Ask the fault layer's escrow for the pristine payload of an injected
    /// message from `src` with `tag` — the simulated retransmission a
    /// receiver falls back to after a CRC failure or timeout. Returns
    /// `None` when no fault plan is installed or nothing is parked.
    pub fn fetch_resend(&self, src: usize, tag: u64) -> Option<Vec<f64>> {
        let fs = self.shared.faults.as_ref()?;
        let (src, tag) = (self.wr(src), self.wt(tag));
        let data = fs.take_escrow(src, self.world_rank, tag)?;
        let bytes = data.len() * std::mem::size_of::<f64>();
        self.shared.traffic.record_resend_served(bytes);
        self.tap_event(CommEventKind::ResendServed, src, tag, bytes as u64);
        flight::record(
            FlightEventKind::EscrowResend,
            src as u64,
            tag,
            data.len() as u64,
        );
        Some(data)
    }

    /// Record that a receiver rejected a frame (bad CRC/header/length).
    pub fn note_crc_failure(&self) {
        self.shared.traffic.record_crc_failure();
    }

    /// Record that a receiver retried a strip (corrupt frame or timeout).
    pub fn note_halo_retry(&self) {
        self.shared.traffic.record_halo_retry();
    }

    /// Non-blocking send. With an in-process buffered transport this is the
    /// same as [`Comm::send`]; it exists so model code reads like the MPI
    /// original (`MPI_Isend` + `MPI_Waitall`).
    pub fn isend<T: Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.send(dst, tag, data);
    }

    /// Post a non-blocking receive; the message is pulled at
    /// [`RecvReq::wait`] time.
    pub fn irecv(&self, src: usize, tag: u64) -> RecvReq {
        RecvReq { src, tag }
    }

    /// Combined blocking exchange with a partner (deadlock-free because
    /// sends are buffered).
    pub fn sendrecv<T: Send + 'static>(
        &self,
        partner: usize,
        send_tag: u64,
        data: Vec<T>,
        recv_tag: u64,
    ) -> Vec<T> {
        self.send(partner, send_tag, data);
        self.recv(partner, recv_tag)
    }

    /// Snapshot of the world's traffic counters so far.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.shared.traffic.snapshot()
    }

    pub(crate) fn shared(&self) -> &WorldShared {
        &self.shared
    }

    /// This rank's flight-recorder context: its event ring (created on
    /// first use with `capacity`, reused afterwards — including across
    /// elastic re-formation, so pre-failure history survives) and the
    /// world-shared Lamport clock.
    pub fn flight_ctx(&self, capacity: usize) -> FlightCtx {
        FlightCtx {
            ring: self.shared.flight.ring_or_create(self.world_rank, capacity),
            clock: Arc::clone(self.shared.flight.clock(self.world_rank)),
        }
    }

    /// Arm flight recording for this rank on the current thread; events
    /// recorded until the guard drops land in this rank's ring.
    pub fn arm_flight(&self, capacity: usize) -> FlightScope {
        flight::enter(self.flight_ctx(capacity))
    }

    /// This rank's ring, if one has been created.
    pub fn flight_ring(&self) -> Option<Arc<FlightRing>> {
        self.shared.flight.ring(self.world_rank)
    }

    /// Every flight ring registered in this world — "all reachable
    /// rings" for a post-mortem snapshot.
    pub fn flight_rings(&self) -> Vec<Arc<FlightRing>> {
        self.shared.flight.all_rings()
    }

    /// Claim the world's single post-mortem dump (first failure edge
    /// wins; later edges of the same incident get `false`).
    pub fn flight_claim_dump(&self) -> bool {
        self.shared.flight.claim_dump()
    }

    /// The world-level flight registry (clock + ring access by world
    /// rank, for emission sites that run outside any thread scope).
    pub fn flight_world(&self) -> &FlightWorld {
        &self.shared.flight
    }

    /// Is this a derived (member-subset) communicator rather than the
    /// world? Collectives route over point-to-point messages when so.
    pub fn has_view(&self) -> bool {
        self.view.is_some()
    }
}

impl RecvReq {
    /// Complete the receive (blocking).
    pub fn wait<T: Send + 'static>(self, comm: &Comm) -> Vec<T> {
        comm.recv(self.src, self.tag)
    }
}

/// World construction parameters: rank count plus the robustness knobs.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    n: usize,
    faults: Option<FaultPlan>,
    recv_timeout: Duration,
    spares: usize,
}

impl WorldConfig {
    pub fn new(n: usize) -> Self {
        Self {
            n,
            faults: None,
            recv_timeout: Duration::from_secs(60),
            spares: 0,
        }
    }

    /// Install a seeded fault plan (ignored if the plan has no rules).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        if !plan.is_empty() {
            self.faults = Some(plan);
        }
        self
    }

    /// Upper bound a plain blocking receive waits before aborting.
    pub fn recv_timeout(mut self, d: Duration) -> Self {
        self.recv_timeout = d;
        self
    }

    /// Reserve the trailing `k` ranks of the world as recovery spares:
    /// they idle until the elastic layer recruits one to adopt a dead
    /// rank's subdomain. Pure metadata at the transport level
    /// ([`Comm::spares`] reads it back); the first `n - k` ranks are the
    /// active compute group.
    pub fn spares(mut self, k: usize) -> Self {
        assert!(k < self.n, "at least one active rank is required");
        self.spares = k;
        self
    }
}

/// Factory for rank worlds.
pub struct World;

impl World {
    /// Run `f` on `n` ranks (one OS thread each) and collect the per-rank
    /// return values in rank order. Panics in any rank propagate.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_traced(n, f).0
    }

    /// Like [`World::run`], additionally returning the communication
    /// traffic generated by the whole world.
    pub fn run_traced<R, F>(n: usize, f: F) -> (Vec<R>, TrafficSnapshot)
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_cfg(WorldConfig::new(n), f)
    }

    /// Run with a seeded fault plan installed — every `f64` message is
    /// matched against the plan inside the send path.
    pub fn run_faulted<R, F>(n: usize, plan: FaultPlan, f: F) -> (Vec<R>, TrafficSnapshot)
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_cfg(WorldConfig::new(n).faults(plan), f)
    }

    /// A standalone single-rank communicator, not bound to any thread
    /// scope: the caller owns it and may move it across threads freely.
    /// This is what the ensemble-serving layer hands each model instance
    /// — every instance gets its own private world (mailboxes, buffer
    /// pool, collective state), so instances can never observe each
    /// other's traffic. Collectives over one rank complete immediately;
    /// self-sends round-trip through the instance's own mailbox.
    pub fn solo() -> Comm {
        Self::solo_cfg(WorldConfig::new(1))
    }

    /// [`World::solo`] with explicit world configuration (fault plans
    /// and receive timeouts apply to the instance's private world).
    pub fn solo_cfg(cfg: WorldConfig) -> Comm {
        assert_eq!(cfg.n, 1, "a solo world has exactly one rank");
        Comm {
            rank: 0,
            world_rank: 0,
            shared: Self::build_shared(cfg),
            view: None,
        }
    }

    fn build_shared(cfg: WorldConfig) -> Arc<WorldShared> {
        let n = cfg.n;
        assert!(n > 0, "world must have at least one rank");
        Arc::new(WorldShared {
            n,
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            traffic: Traffic::default(),
            coll: CollectiveState::new(n),
            pools: (0..n).map(|_| BufferPool::default()).collect(),
            faults: cfg.faults.map(|p| FaultState::new(p, n)),
            epochs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            deaths: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            spares: cfg.spares,
            recv_timeout: cfg.recv_timeout,
            flight: FlightWorld::new(n),
            spin: n > 1 && n <= std::thread::available_parallelism().map_or(1, |p| p.get()),
        })
    }

    /// Fully configured run; see [`WorldConfig`].
    pub fn run_cfg<R, F>(cfg: WorldConfig, f: F) -> (Vec<R>, TrafficSnapshot)
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        let n = cfg.n;
        let shared = Self::build_shared(cfg);
        let f = &f;
        let results: Vec<R> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let comm = Comm {
                        rank,
                        world_rank: rank,
                        shared: Arc::clone(&shared),
                        view: None,
                    };
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .spawn_scoped(s, move || f(&comm))
                        .expect("failed to spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        });
        let traffic = shared.traffic.snapshot();
        (results, traffic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_comm_is_self_contained() {
        let comm = World::solo();
        assert_eq!((comm.rank(), comm.size()), (0, 1));
        // Collectives complete immediately; self-sends round-trip.
        assert_eq!(comm.allreduce_f64(3.5, crate::ReduceOp::Sum), 3.5);
        comm.send(0, 9, vec![1.0f64, 2.0]);
        assert_eq!(comm.recv::<f64>(0, 9), vec![1.0, 2.0]);
        // Two solo worlds never share traffic counters.
        let other = World::solo();
        assert_eq!(other.traffic().p2p_messages, 0);
        assert!(comm.traffic().p2p_messages > 0);
        // Movable across threads (not tied to a scope).
        let moved = std::thread::spawn(move || comm.allreduce_f64(1.0, crate::ReduceOp::Max))
            .join()
            .unwrap();
        assert_eq!(moved, 1.0);
    }

    #[test]
    fn ping_pong() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                comm.recv::<f64>(1, 8)
            } else {
                let v = comm.recv::<f64>(0, 7);
                let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
                comm.send(0, 8, doubled.clone());
                doubled
            }
        });
        assert_eq!(results[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(results[1], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        // Receive tags in the opposite order they were sent.
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1i32]);
                comm.send(1, 2, vec![2i32]);
            } else {
                let b = comm.recv::<i32>(0, 2);
                let a = comm.recv::<i32>(0, 1);
                assert_eq!(a, vec![1]);
                assert_eq!(b, vec![2]);
            }
        });
    }

    #[test]
    fn same_tag_messages_are_non_overtaking() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..50i64 {
                    comm.send(1, 0, vec![i]);
                }
            } else {
                for i in 0..50i64 {
                    assert_eq!(comm.recv::<i64>(0, 0), vec![i]);
                }
            }
        });
    }

    #[test]
    fn sendrecv_ring_shift() {
        let n = 5;
        let results = World::run(n, |comm| {
            let right = (comm.rank() + 1) % n;
            let left = (comm.rank() + n - 1) % n;
            comm.send(right, 0, vec![comm.rank()]);
            comm.recv::<usize>(left, 0)[0]
        });
        for (rank, &got) in results.iter().enumerate() {
            assert_eq!(got, (rank + n - 1) % n);
        }
    }

    #[test]
    fn irecv_wait_roundtrip() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                let req = comm.irecv(1, 3);
                let v = req.wait::<u8>(comm);
                assert_eq!(v, vec![9, 9]);
            } else {
                comm.isend(0, 3, vec![9u8, 9]);
            }
        });
    }

    #[test]
    fn traffic_is_counted() {
        let (_, t) = World::run_traced(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u64; 16]); // 128 bytes
            } else {
                let _ = comm.recv::<u64>(0, 0);
            }
        });
        assert_eq!(t.p2p_messages, 1);
        assert_eq!(t.p2p_bytes, 128);
    }

    #[test]
    #[should_panic(expected = "recv type mismatch")]
    fn type_mismatch_panics() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1.0f64]);
            } else {
                let _ = comm.recv::<i32>(0, 0);
            }
        });
    }

    #[test]
    fn single_rank_world_works() {
        let r = World::run(1, |comm| comm.rank() + comm.size());
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn pooled_roundtrip_stops_allocating() {
        let (_, t) = World::run_traced(2, |comm| {
            let peer = 1 - comm.rank();
            for round in 0..20u64 {
                comm.send_into(peer, round, 64, |buf| {
                    buf.fill(comm.rank() as f64 + round as f64);
                });
                let sum = comm.recv_into(peer, round, |buf| buf.iter().sum::<f64>());
                assert_eq!(sum, 64.0 * (peer as f64 + round as f64));
            }
        });
        assert_eq!(t.p2p_messages, 40);
        // Per-rank pools make this deterministic: each rank allocates once
        // (round 0), then reuses the buffer its receive recycled.
        assert_eq!(t.pool_allocations, 2);
        assert_eq!(t.pool_allocations + t.pool_reuses, 40);
        assert_eq!(t.pooled_bytes, 40 * 64 * 8);
    }

    #[test]
    fn pooled_send_matches_plain_recv_and_vice_versa() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_into(1, 0, 3, |buf| buf.copy_from_slice(&[1.0, 2.0, 3.0]));
                comm.send(1, 1, vec![4.0f64, 5.0]);
            } else {
                // Pooled message through the plain typed API...
                assert_eq!(comm.recv::<f64>(0, 0), vec![1.0, 2.0, 3.0]);
                // ...and a plain message through the pooled API (its buffer
                // is adopted by the pool afterwards).
                let v = comm.recv_into(0, 1, |buf| buf.to_vec());
                assert_eq!(v, vec![4.0, 5.0]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "recv type mismatch")]
    fn pooled_message_type_mismatch_panics() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_into(1, 0, 1, |buf| buf[0] = 1.0);
            } else {
                let _ = comm.recv::<i32>(0, 0);
            }
        });
    }

    // -- robustness: timeouts and fault injection ---------------------------

    use crate::fault::{FaultKind, FaultPlan, FaultRule, MatchSpec};

    #[test]
    fn recv_deadline_times_out_with_typed_error() {
        let (_, t) = World::run_traced(2, |comm| {
            if comm.rank() == 0 {
                let err = comm
                    .recv_deadline::<f64>(1, 42, Duration::from_millis(20))
                    .unwrap_err();
                assert_eq!(
                    err,
                    CommError::Timeout {
                        src: 1,
                        tag: 42,
                        waited: Duration::from_millis(20)
                    }
                );
            }
        });
        assert_eq!(t.recv_timeouts, 1);
    }

    #[test]
    fn recv_deadline_succeeds_when_message_arrives() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![2.5f64]);
            } else {
                let v = comm
                    .recv_deadline::<f64>(0, 5, Duration::from_secs(5))
                    .expect("message was sent");
                assert_eq!(v, vec![2.5]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "would deadlock")]
    fn blocking_recv_aborts_instead_of_hanging() {
        let cfg = WorldConfig::new(1).recv_timeout(Duration::from_millis(20));
        World::run_cfg(cfg, |comm| {
            let _ = comm.recv::<f64>(0, 999); // nothing was ever sent
        });
    }

    #[test]
    fn dropped_message_is_counted_and_recoverable_from_escrow() {
        let plan = FaultPlan::new(1).rule(
            FaultRule::new(
                FaultKind::Drop { recoverable: true },
                MatchSpec::any().tag(7),
            )
            .max_hits(1),
        );
        let (_, t) = World::run_faulted(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send_into(1, 7, 4, |b| b.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]));
            } else {
                let err = comm
                    .recv_into_deadline(0, 7, Duration::from_millis(30), |b| b.to_vec())
                    .unwrap_err();
                assert!(matches!(err, CommError::Timeout { .. }));
                let resent = comm.fetch_resend(0, 7).expect("escrowed payload");
                assert_eq!(resent, vec![1.0, 2.0, 3.0, 4.0]);
            }
        });
        assert_eq!(t.faults_dropped, 1);
        assert_eq!(t.resends_served, 1);
        assert_eq!(t.resend_bytes, 32);
    }

    #[test]
    fn unrecoverable_drop_leaves_no_escrow() {
        let plan = FaultPlan::new(1).rule(
            FaultRule::new(
                FaultKind::Drop { recoverable: false },
                MatchSpec::any().tag(7),
            )
            .max_hits(1),
        );
        let (_, t) = World::run_faulted(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send_into(1, 7, 2, |b| b.fill(1.0));
            } else {
                assert!(comm
                    .recv_into_deadline(0, 7, Duration::from_millis(30), |b| b.to_vec())
                    .is_err());
                assert!(comm.fetch_resend(0, 7).is_none());
            }
        });
        assert_eq!(t.faults_dropped, 1);
        assert_eq!(t.resends_served, 0);
    }

    #[test]
    fn bitflip_corrupts_exactly_one_bit_and_escrows_pristine_copy() {
        let plan = FaultPlan::new(99)
            .rule(FaultRule::new(FaultKind::BitFlip, MatchSpec::any().tag(3)).max_hits(1));
        let sent = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let (_, t) = World::run_faulted(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send_into(1, 3, sent.len(), |b| b.copy_from_slice(&sent));
            } else {
                let got = comm.recv_into(0, 3, |b| b.to_vec());
                let flipped_bits: u32 = got
                    .iter()
                    .zip(&sent)
                    .map(|(a, b)| (a.to_bits() ^ b.to_bits()).count_ones())
                    .sum();
                assert_eq!(flipped_bits, 1, "exactly one bit flipped");
                let pristine = comm.fetch_resend(0, 3).expect("pristine copy parked");
                assert_eq!(pristine, sent);
            }
        });
        assert_eq!(t.faults_bitflipped, 1);
    }

    #[test]
    fn truncate_shortens_payload() {
        let plan = FaultPlan::new(5).rule(
            FaultRule::new(
                FaultKind::Truncate { drop_words: 3 },
                MatchSpec::any().tag(2),
            )
            .max_hits(1),
        );
        let (_, t) = World::run_faulted(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send_into(1, 2, 8, |b| b.fill(9.0));
            } else {
                let got = comm.recv_into(0, 2, |b| b.to_vec());
                assert_eq!(got.len(), 5);
                assert_eq!(comm.fetch_resend(0, 2).unwrap().len(), 8);
            }
        });
        assert_eq!(t.faults_truncated, 1);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let plan = FaultPlan::new(5)
            .rule(FaultRule::new(FaultKind::Duplicate, MatchSpec::any().tag(4)).max_hits(1));
        let (_, t) = World::run_faulted(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send_into(1, 4, 2, |b| b.copy_from_slice(&[7.0, 8.0]));
            } else {
                let a = comm.recv_into(0, 4, |b| b.to_vec());
                let b = comm.recv_into(0, 4, |b| b.to_vec());
                assert_eq!(a, b);
                assert_eq!(a, vec![7.0, 8.0]);
            }
        });
        assert_eq!(t.faults_duplicated, 1);
    }

    #[test]
    fn delay_reorders_past_later_same_tag_traffic() {
        let plan = FaultPlan::new(5).rule(
            FaultRule::new(FaultKind::Delay { sends: 1 }, MatchSpec::any().tag(6)).max_hits(1),
        );
        let (_, t) = World::run_faulted(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send_into(1, 6, 1, |b| b[0] = 1.0); // delayed
                comm.send_into(1, 6, 1, |b| b[0] = 2.0); // overtakes it
            } else {
                let first = comm.recv_into(0, 6, |b| b[0]);
                let second = comm.recv_into(0, 6, |b| b[0]);
                assert_eq!((first, second), (2.0, 1.0), "messages reordered");
            }
        });
        assert_eq!(t.faults_delayed, 1);
    }

    #[test]
    fn epoch_windows_select_faults_and_stalls_fire() {
        let plan = FaultPlan::new(0)
            .rule(FaultRule::new(
                FaultKind::Drop { recoverable: true },
                MatchSpec::any().tag(1).epoch(2),
            ))
            .stall(1, (2, 3), 5);
        let (_, t) = World::run_faulted(2, plan, |comm| {
            let peer = 1 - comm.rank();
            for epoch in 0..4u64 {
                comm.set_epoch(epoch);
                comm.barrier();
                if comm.rank() == 0 {
                    comm.send_into(peer, 1, 1, |b| b[0] = epoch as f64);
                } else {
                    let r = comm.recv_into_deadline(0, 1, Duration::from_millis(100), |b| b[0]);
                    if epoch == 2 {
                        assert!(r.is_err(), "epoch-2 message dropped");
                        assert_eq!(comm.fetch_resend(0, 1), Some(vec![2.0]));
                    } else {
                        assert_eq!(r.unwrap(), epoch as f64);
                    }
                }
                comm.barrier();
            }
        });
        assert_eq!(t.faults_dropped, 1);
        assert_eq!(t.rank_stalls, 1);
    }

    #[test]
    fn faults_do_not_touch_non_f64_payloads() {
        let plan = FaultPlan::new(0).rule(FaultRule::new(FaultKind::BitFlip, MatchSpec::any()));
        let (_, t) = World::run_faulted(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1i32, 2, 3]);
            } else {
                assert_eq!(comm.recv::<i32>(0, 0), vec![1, 2, 3]);
            }
        });
        assert_eq!(t.faults_bitflipped, 0);
    }

    #[test]
    fn seeded_kill_marks_rank_dead_at_epoch() {
        let cfg = WorldConfig::new(2).faults(FaultPlan::new(0).kill(1, 3));
        let (_, t) = World::run_cfg(cfg, |comm| {
            comm.set_epoch(2);
            assert!(comm.is_alive(1), "not dead before the seeded epoch");
            // Both ranks finish the epoch-2 check before rank 1 may die.
            comm.barrier();
            comm.set_epoch(3);
            if comm.rank() == 1 {
                assert!(comm.self_failed());
                return;
            }
            // Registry-backed detection: the survivor observes the death
            // without exchanging a single message.
            while comm.is_alive(1) {
                std::thread::yield_now();
            }
            assert_eq!(comm.death_epoch(1), Some(3));
        });
        assert_eq!(t.rank_deaths, 1);
    }

    #[test]
    fn recv_from_dead_peer_returns_peer_dead_not_timeout() {
        let cfg = WorldConfig::new(2).faults(FaultPlan::new(0).kill(1, 1));
        let (_, t) = World::run_cfg(cfg, |comm| {
            comm.set_epoch(1);
            if comm.self_failed() {
                return;
            }
            // A generous deadline must NOT be consumed: the death registry
            // short-circuits the wait immediately.
            let t0 = Instant::now();
            let err = comm
                .recv_deadline::<f64>(1, 42, Duration::from_secs(30))
                .unwrap_err();
            assert!(t0.elapsed() < Duration::from_secs(5));
            assert_eq!(err, CommError::PeerDead { peer: 1, tag: 42 });
        });
        assert_eq!(t.peer_dead_errors, 1);
    }

    #[test]
    fn queued_messages_drain_before_peer_dead_surfaces() {
        // A message sent before death must still be delivered: drain-first
        // semantics mean no in-flight data is lost to the failure.
        let cfg = WorldConfig::new(2).faults(FaultPlan::new(0).kill(0, 2));
        World::run_cfg(cfg, |comm| {
            if comm.rank() == 0 {
                comm.set_epoch(1);
                comm.send(1, 9, vec![5i64]);
                comm.set_epoch(2); // dies here
            } else {
                comm.set_epoch(1);
                assert_eq!(comm.recv::<i64>(0, 9), vec![5]);
                let err = comm
                    .recv_deadline::<i64>(0, 9, Duration::from_secs(30))
                    .unwrap_err();
                assert_eq!(err, CommError::PeerDead { peer: 0, tag: 9 });
            }
        });
    }

    #[test]
    fn sends_to_and_from_dead_ranks_are_suppressed() {
        let cfg = WorldConfig::new(2).faults(FaultPlan::new(0).kill(1, 1));
        let (_, t) = World::run_cfg(cfg, |comm| {
            comm.set_epoch(1);
            if comm.rank() == 0 {
                while comm.is_alive(1) {
                    std::thread::yield_now();
                }
                comm.send(1, 0, vec![1.0f64]); // into the void, no panic
            }
        });
        assert_eq!(t.sends_suppressed, 1);
    }

    #[test]
    fn view_comm_renumbers_ranks_and_isolates_tags() {
        // World of 3; ranks 0 and 2 form a derived group where 2 takes
        // view-rank 1. Tags are namespaced, so view traffic on tag 7
        // cannot cross-match world traffic on tag 7.
        World::run(3, |comm| {
            if comm.rank() == 1 {
                return;
            }
            let sub = comm.with_members(&[0, 2], 99);
            assert_eq!(sub.size(), 2);
            assert_eq!(sub.world_size(), 3);
            if comm.rank() == 0 {
                assert_eq!(sub.rank(), 0);
                assert_eq!(sub.world_rank(), 0);
                sub.send(1, 7, vec![41u32]);
                assert_eq!(sub.recv::<u32>(1, 7), vec![42]);
            } else {
                assert_eq!(sub.rank(), 1);
                assert_eq!(sub.world_rank(), 2);
                assert_eq!(sub.recv::<u32>(0, 7), vec![41]);
                sub.send(0, 7, vec![42u32]);
            }
        });
    }

    #[test]
    fn view_collectives_fold_in_member_order() {
        // The derived-comm allgather/allreduce must fold in view-rank
        // order — the property that makes post-recovery groups bitwise
        // identical to the original world's collectives.
        let results = World::run(4, |comm| {
            if comm.rank() == 3 {
                return None; // simulated spare sitting out
            }
            let sub = comm.with_members(&[0, 1, 2], 7);
            let x = 0.1 * (sub.rank() as f64 + 1.0);
            Some((
                sub.allgather(vec![sub.rank() as u64]),
                sub.allreduce_f64(x, crate::collective::ReduceOp::Sum),
            ))
        });
        let expect_sum = 0.1f64.mul_add(1.0, 0.0) + 0.1 * 2.0 + 0.1 * 3.0;
        for r in results.into_iter().flatten() {
            assert_eq!(r.0, vec![vec![0], vec![1], vec![2]]);
            assert_eq!(r.1.to_bits(), expect_sum.to_bits());
        }
    }

    #[test]
    fn spares_are_counted_and_excluded_by_config() {
        let cfg = WorldConfig::new(4).spares(1);
        World::run_cfg(cfg, |comm| {
            assert_eq!(comm.spares(), 1);
            assert_eq!(comm.size(), 4);
        });
    }

    /// Satellite coverage: `recv_into_deadline` with a zero timeout is a
    /// poll — an already-queued message is delivered, an empty mailbox
    /// returns `Timeout` immediately instead of parking.
    #[test]
    fn recv_into_deadline_zero_timeout_is_a_poll() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                let t0 = Instant::now();
                // Nothing queued on tag 9: immediate typed timeout.
                match comm.recv_into_deadline(1, 9, Duration::ZERO, |b| b.len()) {
                    Err(CommError::Timeout { src: 1, tag: 9, .. }) => {}
                    other => panic!("expected immediate timeout, got {other:?}"),
                }
                assert!(t0.elapsed() < Duration::from_secs(1));
                // Tag 7 was sent before the barrier, so it is queued:
                // zero timeout must still deliver it.
                let got = comm
                    .recv_into_deadline(1, 7, Duration::ZERO, |b| b.to_vec())
                    .expect("queued message must be delivered by a poll");
                assert_eq!(got, vec![4.0, 5.0]);
            } else {
                comm.send(0, 7, vec![4.0f64, 5.0]);
                comm.barrier();
            }
        });
    }

    /// A message racing the deadline must never be lost: whichever side
    /// wins, either this call returns it or a follow-up receive does.
    #[test]
    fn recv_into_deadline_race_with_arrival_never_loses_the_message() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                let deadline = Duration::from_millis(20);
                match comm.recv_into_deadline(1, 3, deadline, |b| b[0]) {
                    Ok(v) => assert_eq!(v, 8.5),
                    Err(CommError::Timeout { .. }) => {
                        // Arrived after expiry: it must still be waiting.
                        let v = comm
                            .recv_into_deadline(1, 3, Duration::from_secs(30), |b| b[0])
                            .expect("late message must not be dropped");
                        assert_eq!(v, 8.5);
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            } else {
                // Land as close to the 20 ms expiry as the OS allows.
                std::thread::sleep(Duration::from_millis(20));
                comm.send(0, 3, vec![8.5f64]);
            }
        });
    }

    /// `CommError` is a real `std::error::Error`: Display names the
    /// peer/tag, `source()` is the chain terminus, and both variants
    /// survive a round-trip through `Box<dyn Error>`.
    #[test]
    fn comm_error_display_and_source_roundtrip() {
        let t = CommError::Timeout {
            src: 3,
            tag: 42,
            waited: Duration::from_millis(250),
        };
        let d = CommError::PeerDead { peer: 7, tag: 9 };
        let td = t.to_string();
        assert!(td.contains("rank 3") && td.contains("tag 42"), "{td}");
        let dd = d.to_string();
        assert!(dd.contains("rank 7") && dd.contains("tag 9"), "{dd}");
        for e in [t, d] {
            assert!(std::error::Error::source(&e).is_none());
            let boxed: Box<dyn std::error::Error> = Box::new(e);
            let back = boxed
                .downcast_ref::<CommError>()
                .expect("downcast must recover the typed error");
            assert_eq!(*back, e);
        }
    }
}
