//! The process executor. The package keeps the `rayon` name it was
//! vendored under (the build cannot reach a registry), but it no longer
//! mirrors rayon's API: every host-parallel launch in the process — the
//! kokkos-rs `Threads` and `DeviceSim` spaces and the simulated Sunway
//! core groups — runs through [`for_each`] and [`map_collect`].
//!
//! **One core budget.** The process owns C = [`cores`] cores
//! (`available_parallelism`, which honours `taskset` and cgroup CPU
//! limits). One pool keeps at most C − 1 persistent workers, spawned on
//! first demand. A launch carries a *share*: the cores its caller may use,
//! itself included. Callers size shares so that they add up to C — one
//! per rank of an `mpi-sim` world, one per server worker — the way MPI +
//! OpenMP pins each rank's threads to its own cores.
//!
//! **A launch claims, it does not broadcast.** There is no submit lock
//! and no wake-all: a launch claims up to `share − 1` idle workers with
//! one compare-and-swap on the idle mask, hands each a pointer to the job
//! on its own stack, and unparks only those. The caller works too; chunks
//! are taken from an atomic counter. A launch that claims none — share 1,
//! a single item, or every worker busy with other callers' launches — runs
//! as a plain loop on the caller.
//!
//! A panic inside a chunk is caught where it happens, the rest of the
//! range is drained, and the panic is re-thrown on the caller once every
//! claimed worker has let go of the job; the workers stay usable.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Thread};

type PanicPayload = Box<dyn Any + Send + 'static>;

/// The idle set is one `u64` mask, so the pool stops at 64 workers.
const MAX_WORKERS: usize = 64;

/// Cores the process may use (`available_parallelism`, read once).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Workers spawned since the process started; never more than
/// `cores() − 1`.
pub fn spawned_workers() -> usize {
    pool().spawned.load(Ordering::Relaxed)
}

thread_local! {
    static CLAIMED: Cell<u64> = const { Cell::new(0) };
}

/// Workers claimed by the launches this thread has issued.
pub fn claimed_by_this_thread() -> u64 {
    CLAIMED.with(Cell::get)
}

/// Run `f(i)` for every `i` in `0..len` on the caller plus up to
/// `share − 1` pool workers. Returns when every index is done.
pub fn for_each(share: usize, len: usize, f: impl Fn(usize) + Sync) {
    let claimed = claim(share, len);
    if claimed == 0 {
        // The plain loop, compiled into the caller: kernels keep the
        // optimizations a call through `&dyn Fn` would cost them.
        return (0..len).for_each(f);
    }
    run(claimed, len, &|lo, hi| (lo..hi).for_each(&f));
}

/// [`for_each`] that returns `f(i)` for every `i` in `0..len`, in index
/// order.
pub fn map_collect<R: Send>(share: usize, len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let claimed = claim(share, len);
    if claimed == 0 {
        return (0..len).map(f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    let slots = SendPtr(out.as_mut_ptr());
    run(claimed, len, &|lo, hi| {
        let slots = &slots;
        for i in lo..hi {
            // SAFETY: `run` hands out disjoint chunks of `0..len`, so each
            // slot is written by one thread only, and `out` (len elements)
            // outlives the launch, which returns after the last chunk.
            unsafe { *slots.0.add(i) = Some(f(i)) }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index ran"))
        .collect()
}

struct SendPtr<R>(*mut Option<R>);
// SAFETY: the pointer is only dereferenced at disjoint indices (see
// `map_collect`), and `R: Send` lets each value move to its writer.
unsafe impl<R: Send> Sync for SendPtr<R> {}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

type Body<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// One launch, on the caller's stack. Claimed workers reach it through a
/// raw pointer; `run` does not return until `pending` is zero, that is
/// until every claimed worker has stopped touching it.
struct Job {
    /// The caller's chunk body with its lifetime erased (see `run`).
    body: *const (dyn Fn(usize, usize) + Sync + 'static),
    next: AtomicUsize,
    end: usize,
    grain: usize,
    /// Claimed workers that have not finished yet.
    pending: AtomicUsize,
    caller: Thread,
    panic: Mutex<Option<PanicPayload>>,
}

impl Job {
    fn run_chunks(&self) {
        // SAFETY: `body` points into the frame of `run`, which outlives
        // every use (it waits for `pending` to reach zero).
        let body = unsafe { &*self.body };
        loop {
            let lo = self.next.fetch_add(self.grain, Ordering::Relaxed);
            if lo >= self.end {
                return;
            }
            let hi = (lo + self.grain).min(self.end);
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(lo, hi))) {
                let mut slot = self.panic.lock().unwrap_or_else(|p| p.into_inner());
                slot.get_or_insert(payload);
                // Drain the range so the launch ends promptly.
                self.next.store(self.end, Ordering::Relaxed);
                return;
            }
        }
    }
}

struct Worker {
    /// The job this worker was handed, or null.
    job: AtomicPtr<Job>,
    thread: OnceLock<Thread>,
}

struct Pool {
    workers: Vec<Worker>,
    /// Bit `w` is set while worker `w` is spawned and waiting for a job.
    idle: AtomicU64,
    spawned: AtomicUsize,
    spawn_lock: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        workers: (0..(cores() - 1).min(MAX_WORKERS))
            .map(|_| Worker {
                job: AtomicPtr::new(ptr::null_mut()),
                thread: OnceLock::new(),
            })
            .collect(),
        idle: AtomicU64::new(0),
        spawned: AtomicUsize::new(0),
        spawn_lock: Mutex::new(()),
    })
}

impl Pool {
    /// Take up to `want` workers off the idle mask, spawning new ones
    /// while the pool is below its size. Returns the claimed set.
    fn claim(&'static self, want: usize) -> u64 {
        let mut idle = self.idle.load(Ordering::Acquire);
        let mut take = 0u64;
        while idle != 0 {
            take = lowest_bits(idle, want);
            match self.idle.compare_exchange_weak(
                idle,
                idle & !take,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => {
                    idle = now;
                    take = 0;
                }
            }
        }
        let short = want - take.count_ones() as usize;
        if short > 0 && self.spawned.load(Ordering::Relaxed) < self.workers.len() {
            take |= self.spawn(short);
        }
        take
    }

    /// Spawn up to `n` workers, claimed by the caller from birth.
    fn spawn(&'static self, n: usize) -> u64 {
        let _guard = self.spawn_lock.lock().unwrap_or_else(|p| p.into_inner());
        let first = self.spawned.load(Ordering::Relaxed);
        let last = (first + n).min(self.workers.len());
        let mut born = 0u64;
        for w in first..last {
            // Workers serve the whole process and are never joined: they
            // park between jobs and end with the process.
            let handle = thread::Builder::new()
                .name(format!("exec-worker-{w}"))
                .spawn(move || self.worker_loop(w))
                .expect("spawn executor worker");
            let _ = self.workers[w].thread.set(handle.thread().clone());
            born |= 1 << w;
        }
        self.spawned.store(last, Ordering::Relaxed);
        born
    }

    fn worker_loop(&self, w: usize) {
        let me = &self.workers[w];
        loop {
            let job = me.job.swap(ptr::null_mut(), Ordering::Acquire);
            if job.is_null() {
                thread::park();
                continue;
            }
            // SAFETY: the launching thread stored a pointer to its live
            // `Job` and waits for this worker's `pending` decrement below
            // before its frame ends.
            let job = unsafe { &*job };
            job.run_chunks();
            let caller = job.caller.clone();
            self.idle.fetch_or(1 << w, Ordering::Release);
            // Release: the chunks' writes happen-before the caller's
            // Acquire load of `pending`. After this the job may be gone.
            if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                caller.unpark();
            }
        }
    }
}

/// The lowest `n` set bits of `mask`.
fn lowest_bits(mut mask: u64, n: usize) -> u64 {
    let mut out = 0;
    for _ in 0..n {
        if mask == 0 {
            break;
        }
        let bit = mask & mask.wrapping_neg();
        out |= bit;
        mask &= !bit;
    }
    out
}

/// Claim up to `share − 1` idle workers for a launch of `len` items;
/// none (an inline launch) when `share` or `len` is 1 or no worker is
/// free.
fn claim(share: usize, len: usize) -> u64 {
    match share.min(len).saturating_sub(1) {
        0 => 0,
        want => pool().claim(want),
    }
}

/// Run `body(lo, hi)` over disjoint chunks covering `0..len` on the
/// caller and the `claimed` workers.
fn run(claimed: u64, len: usize, body: Body<'_>) {
    let pool = pool();
    let helpers = claimed.count_ones() as usize;
    CLAIMED.with(|c| c.set(c.get() + helpers as u64));
    // SAFETY: only the lifetime is erased; `run` does not return before
    // every claimed worker has dropped its reference (`pending` == 0).
    let body: &(dyn Fn(usize, usize) + Sync + 'static) = unsafe { std::mem::transmute(body) };
    let job = Job {
        body,
        next: AtomicUsize::new(0),
        end: len,
        grain: (len / ((helpers + 1) * 4)).max(1),
        pending: AtomicUsize::new(helpers),
        caller: thread::current(),
        panic: Mutex::new(None),
    };
    let mut bits = claimed;
    while bits != 0 {
        let w = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let worker = &pool.workers[w];
        worker
            .job
            .store(&job as *const Job as *mut Job, Ordering::Release);
        worker.thread.get().expect("spawned worker").unpark();
    }
    // Even if the body panics here, `run_chunks` catches it, so this
    // thread always reaches the wait below: the workers borrow its stack.
    job.run_chunks();
    let mut spins = 0u32;
    while job.pending.load(Ordering::Acquire) != 0 {
        if spins < 1 << 10 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
    let payload = job.panic.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A share that asks for the whole pool.
    fn all() -> usize {
        cores().max(2)
    }

    #[test]
    fn for_each_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..10_000).map(|_| AtomicU64::new(0)).collect();
        for_each(all(), hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_collect_preserves_order() {
        for share in 1..=3 {
            let v: Vec<f64> = map_collect(share, 5_000, |i| i as f64 * 0.5);
            assert_eq!(v.len(), 5_000);
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, i as f64 * 0.5);
            }
        }
    }

    #[test]
    fn empty_and_single() {
        for_each(all(), 0, |_| panic!("must not run"));
        let v: Vec<usize> = map_collect(all(), 1, |i| i + 7);
        assert_eq!(v, vec![7]);
    }

    #[test]
    fn sequential_launches_reuse_the_pool() {
        for round in 0..50 {
            let s: Vec<u64> = map_collect(all(), 64, |i| i as u64 + round);
            assert_eq!(s.iter().sum::<u64>(), (0..64).sum::<u64>() + 64 * round);
        }
        assert!(spawned_workers() < cores());
    }

    #[test]
    fn panic_propagates_and_the_pool_stays_usable() {
        let r = panic::catch_unwind(|| {
            for_each(all(), 100, |i| {
                if i == 57 {
                    panic!("boom");
                }
            });
        });
        assert!(r.is_err());
        let v: Vec<usize> = map_collect(all(), 10, |i| i);
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let v: Vec<usize> = map_collect(all(), 256, |i| i * 2);
                        assert_eq!(v[100], 200);
                    }
                });
            }
        });
        assert!(spawned_workers() < cores());
    }

    #[test]
    fn share_one_runs_inline_and_claims_nothing() {
        let before = claimed_by_this_thread();
        let caller = thread::current().id();
        for_each(1, 1_000, |_| assert_eq!(thread::current().id(), caller));
        assert_eq!(claimed_by_this_thread(), before);
    }

    #[test]
    fn lowest_bits_takes_from_the_bottom() {
        assert_eq!(lowest_bits(0b1011_0100, 2), 0b0001_0100);
        assert_eq!(lowest_bits(0b100, 5), 0b100);
        assert_eq!(lowest_bits(0, 3), 0);
    }
}
