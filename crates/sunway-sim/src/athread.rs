//! Athread-style kernel launch API and the persistent CPE worker pool.
//!
//! The vendor Athread library is a *C* API: the MPE launches a kernel on all
//! 64 CPEs by passing a plain function pointer plus one pointer-sized
//! argument (`athread_spawn(fn, arg)`), then blocks in `athread_join()`.
//! This is the restriction that drives the paper's whole §V-B design — "the
//! Athread API for initiating kernels on CPEs supports only C syntax, which
//! does not allow the passage of template parameters to CPE-run kernels".
//!
//! We reproduce that boundary faithfully: [`CpeKernel`] is a plain `fn`
//! pointer taking a [`CpeCtx`] and a `usize` opaque argument. Generic
//! functors cannot cross it; the `kokkos-rs` Athread backend must register
//! concrete trampolines ahead of time and smuggle the functor through the
//! `usize` (exactly the registration + callback strategy of the paper).
//!
//! ## Host execution model
//!
//! Simulated cycles are deterministic regardless of how the logical CPEs
//! are multiplexed onto OS threads, so the host scheduling is free to chase
//! wall-clock. A core group owns no threads: a launch spreads its CPEs
//! over `min(num_cpes, share)` *slots* and hands them to a
//! [`SlotRunner`] the caller supplies — kokkos-rs passes one backed by the
//! process executor, sized by the launching space's core share, so the
//! simulated CPEs draw on the same core budget as every other launch. With
//! one slot the whole launch runs inline on the launching (MPE) thread,
//! like `athread_join` spinning on the CPE mailboxes. Per-CPE LDM
//! allocators and the counters buffer are indexed by CPE id and persist
//! across launches, so the slot count may change from launch to launch
//! and the steady state allocates nothing.

use std::panic::{self, AssertUnwindSafe};

use parking_lot::Mutex;

use crate::config::CgConfig;
use crate::counters::{CgCounters, CpeCounters};
use crate::dma::{DmaHandle, DMA_ISSUE_CYCLES, LDM_BYTES_PER_CYCLE};
use crate::ldm::LdmAllocator;

/// A CPE kernel: a plain function pointer. No generics, no captures.
pub type CpeKernel = fn(&mut CpeCtx, usize);

/// Execution context handed to a kernel running on one logical CPE.
///
/// Owns the CPE's LDM allocator, its performance counters, and the simulated
/// clock. All DMA and compute accounting flows through this context.
pub struct CpeCtx {
    cpe_id: usize,
    num_cpes: usize,
    cfg: CgConfig,
    ldm: LdmAllocator,
    /// Counters for the current kernel; `counters.cycles` is the CPE clock.
    pub counters: CpeCounters,
}

impl CpeCtx {
    #[cfg(test)]
    fn new(cpe_id: usize, cfg: &CgConfig) -> Self {
        Self::with_ldm(cpe_id, cfg, LdmAllocator::new(cfg.ldm_bytes))
    }

    /// Build a context around a persistent per-CPE LDM allocator. The
    /// allocator's high-water window is rewound: this context accounts one
    /// kernel launch.
    fn with_ldm(cpe_id: usize, cfg: &CgConfig, ldm: LdmAllocator) -> Self {
        ldm.begin_kernel_window();
        Self {
            cpe_id,
            num_cpes: cfg.num_cpes,
            cfg: cfg.clone(),
            ldm,
            counters: CpeCounters::default(),
        }
    }

    /// This CPE's id in `0..num_cpes` (athread's `_MYID`).
    pub fn cpe_id(&self) -> usize {
        self.cpe_id
    }

    /// Number of CPEs participating in the launch (64 per CG).
    pub fn num_cpes(&self) -> usize {
        self.num_cpes
    }

    /// SIMD width in f64 lanes for vectorised accounting.
    pub fn simd_f64_lanes(&self) -> usize {
        self.cfg.simd_f64_lanes
    }

    /// The hardware configuration of the hosting core group.
    pub fn config(&self) -> &CgConfig {
        &self.cfg
    }

    /// The CPE's LDM scratchpad allocator. Returned by value (cheap clone
    /// sharing the same bookkeeping) so buffers do not borrow the context
    /// and can coexist with `&mut self` DMA calls.
    pub fn ldm(&self) -> LdmAllocator {
        self.ldm.clone()
    }

    /// Current simulated CPE cycle.
    pub fn now(&self) -> u64 {
        self.counters.cycles
    }

    // ---- compute accounting ------------------------------------------------

    /// Charge `n` scalar double-precision operations (1 cycle each).
    pub fn account_flops_scalar(&mut self, n: u64) {
        self.counters.flops += n;
        self.counters.cycles += n;
    }

    /// Charge `n` double-precision operations executed through SIMD lanes.
    pub fn account_flops_simd(&mut self, n: u64) {
        self.counters.flops += n;
        let lanes = self.cfg.simd_f64_lanes as u64;
        self.counters.cycles += n.div_ceil(lanes);
    }

    /// Charge raw cycles (branching, address arithmetic, gather overhead).
    pub fn account_cycles(&mut self, n: u64) {
        self.counters.cycles += n;
    }

    /// Record `n` policy tiles executed by this CPE (dispatch accounting).
    pub fn account_tiles(&mut self, n: u64) {
        self.counters.tiles += n;
    }

    /// Charge LDM streaming traffic of `bytes`.
    pub fn account_ldm_traffic(&mut self, bytes: u64) {
        self.counters.ldm_bytes += bytes;
        self.counters.cycles += bytes.div_ceil(LDM_BYTES_PER_CYCLE);
    }

    // ---- DMA ---------------------------------------------------------------

    fn transfer_cycles(&self, bytes: usize) -> u64 {
        // Assume all CPEs stream concurrently (worst-case contention): the
        // model's stencil kernels launch on all 64 CPEs at once.
        self.cfg.dma_transfer_cycles(bytes, self.num_cpes)
    }

    fn record_dma(&mut self, get: bool, bytes: usize) {
        self.counters.dma_transactions += 1;
        if get {
            self.counters.dma_get_bytes += bytes as u64;
        } else {
            self.counters.dma_put_bytes += bytes as u64;
        }
    }

    /// Blocking DMA main-memory → LDM. The CPE stalls for the full transfer.
    pub fn dma_get<T: Copy>(&mut self, src: &[T], dst: &mut [T]) {
        assert_eq!(src.len(), dst.len(), "dma_get length mismatch");
        dst.copy_from_slice(src);
        let bytes = std::mem::size_of_val(src);
        self.record_dma(true, bytes);
        let t = self.transfer_cycles(bytes);
        self.counters.dma_stall_cycles += t;
        self.counters.cycles += t;
    }

    /// Blocking DMA LDM → main-memory.
    pub fn dma_put<T: Copy>(&mut self, src: &[T], dst: &mut [T]) {
        assert_eq!(src.len(), dst.len(), "dma_put length mismatch");
        dst.copy_from_slice(src);
        let bytes = std::mem::size_of_val(src);
        self.record_dma(false, bytes);
        let t = self.transfer_cycles(bytes);
        self.counters.dma_stall_cycles += t;
        self.counters.cycles += t;
    }

    /// Asynchronous DMA get: data is delivered immediately (deterministic
    /// simulation), but the *time* cost is only realised at [`Self::dma_wait`],
    /// so compute issued in between overlaps the transfer.
    pub fn dma_get_async<T: Copy>(&mut self, src: &[T], dst: &mut [T]) -> DmaHandle {
        assert_eq!(src.len(), dst.len(), "dma_get_async length mismatch");
        dst.copy_from_slice(src);
        let bytes = std::mem::size_of_val(src);
        self.record_dma(true, bytes);
        self.counters.cycles += DMA_ISSUE_CYCLES;
        DmaHandle {
            ready_at: self.counters.cycles + self.transfer_cycles(bytes),
            bytes: bytes as u64,
        }
    }

    /// Asynchronous DMA put (see [`Self::dma_get_async`]).
    pub fn dma_put_async<T: Copy>(&mut self, src: &[T], dst: &mut [T]) -> DmaHandle {
        assert_eq!(src.len(), dst.len(), "dma_put_async length mismatch");
        dst.copy_from_slice(src);
        let bytes = std::mem::size_of_val(src);
        self.record_dma(false, bytes);
        self.counters.cycles += DMA_ISSUE_CYCLES;
        DmaHandle {
            ready_at: self.counters.cycles + self.transfer_cycles(bytes),
            bytes: bytes as u64,
        }
    }

    /// Wait for an asynchronous transfer: the CPE clock jumps to the
    /// transfer's completion time if it hasn't been hidden by compute, and
    /// the un-hidden remainder is recorded as DMA stall.
    pub fn dma_wait(&mut self, handle: DmaHandle) {
        if handle.ready_at > self.counters.cycles {
            self.counters.dma_stall_cycles += handle.ready_at - self.counters.cycles;
            self.counters.cycles = handle.ready_at;
        }
    }

    /// Model (accounting-only) asynchronous DMA get of `bytes`, split into
    /// transactions of at most `chunk_bytes` (the LDM tile the data would
    /// stream through on hardware). No data moves — the functor reads host
    /// memory directly in the shared-space simulation — but traffic,
    /// transaction latencies and bandwidth time are charged exactly as a
    /// staged transfer would be. Compute issued before [`Self::dma_wait`]
    /// on the returned handle overlaps the transfer.
    pub fn dma_get_async_model(&mut self, bytes: u64, chunk_bytes: usize) -> DmaHandle {
        self.dma_async_model(true, bytes, chunk_bytes)
    }

    /// Accounting-only asynchronous DMA put (see [`Self::dma_get_async_model`]).
    pub fn dma_put_async_model(&mut self, bytes: u64, chunk_bytes: usize) -> DmaHandle {
        self.dma_async_model(false, bytes, chunk_bytes)
    }

    fn dma_async_model(&mut self, get: bool, bytes: u64, chunk_bytes: usize) -> DmaHandle {
        if bytes == 0 {
            return DmaHandle {
                ready_at: self.counters.cycles,
                bytes: 0,
            };
        }
        let chunks = bytes.div_ceil(chunk_bytes.max(1) as u64);
        self.counters.dma_transactions += chunks;
        if get {
            self.counters.dma_get_bytes += bytes;
        } else {
            self.counters.dma_put_bytes += bytes;
        }
        self.counters.cycles += chunks * DMA_ISSUE_CYCLES;
        // Each chunk pays the fixed engine latency; the payload streams at
        // the contended per-CPE share of CG bandwidth.
        let per_cpe_bw = self.cfg.mem_bandwidth_bps / self.num_cpes.max(1) as f64;
        let stream = (bytes as f64 / per_cpe_bw * self.cfg.clock_hz).ceil() as u64;
        DmaHandle {
            ready_at: self.counters.cycles + chunks * self.cfg.dma_latency_cycles + stream,
            bytes,
        }
    }

    /// Charge the *time and traffic* of a blocking DMA round-trip of `bytes`
    /// without moving data. The unpipelined baseline the double-buffered
    /// drivers in [`crate::pipeline`] replace: one transaction latency plus
    /// the full streaming time, all stalled.
    pub fn account_dma_traffic(&mut self, bytes: usize) {
        self.record_dma(true, bytes);
        let t = self.transfer_cycles(bytes);
        self.counters.dma_stall_cycles += t;
        self.counters.cycles += t;
    }
}

/// Runs `body(slot)` once for every slot in `0..slots` and returns when
/// all have returned; a runner with threads to spare runs them at once.
pub type SlotRunner<'a> = &'a dyn Fn(usize, &(dyn Fn(usize) + Sync));

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "CPE kernel panicked".into())
}

/// Execute `kernel` on one logical CPE backed by its persistent allocator,
/// returning its counters. Accounting is identical whichever slot runs it.
fn run_cpe(
    cpe: usize,
    cfg: &CgConfig,
    ldm: &LdmAllocator,
    kernel: CpeKernel,
    arg: usize,
) -> CpeCounters {
    let mut ctx = CpeCtx::with_ldm(cpe, cfg, ldm.clone());
    kernel(&mut ctx, arg);
    // Capture the kernel-window LDM peak at the end of the kernel, so the
    // high-water survives however many alloc/free cycles the
    // double-buffered loop went through.
    ctx.counters.ldm_high_water = ctx.counters.ldm_high_water.max(ldm.high_water() as u64);
    ctx.counters
}

/// A simulated core group: the logical CPEs with their LDM, and the
/// aggregated performance counters.
///
/// Mirrors the Athread lifecycle: `athread_init` → [`CoreGroup::new`],
/// `athread_spawn` + `athread_join` → [`CoreGroup::run_with`] (or
/// [`CoreGroup::run`] on the launching thread alone).
pub struct CoreGroup {
    cfg: CgConfig,
    counters: CgCounters,
    /// Persistent LDM allocator of each CPE, indexed by CPE id.
    ldm: Vec<LdmAllocator>,
    /// Counters of the current launch, indexed by CPE id; reused so the
    /// steady state allocates nothing.
    per_cpe: Mutex<Vec<CpeCounters>>,
}

impl CoreGroup {
    /// Boot a core group.
    pub fn new(cfg: CgConfig) -> Self {
        Self {
            ldm: (0..cfg.num_cpes)
                .map(|_| LdmAllocator::new(cfg.ldm_bytes))
                .collect(),
            per_cpe: Mutex::new(vec![CpeCounters::default(); cfg.num_cpes]),
            counters: CgCounters::default(),
            cfg,
        }
    }

    /// The hardware configuration this CG was booted with.
    pub fn config(&self) -> &CgConfig {
        &self.cfg
    }

    /// Launch `kernel` on every logical CPE, all on the calling thread.
    pub fn run(&mut self, kernel: CpeKernel, arg: usize) {
        self.run_with(kernel, arg, 1, &|_, body| body(0));
    }

    /// Launch `kernel` on every logical CPE and wait for it (`athread_spawn`
    /// then `athread_join`); `arg` is the single pointer-sized opaque
    /// argument the real API allows. The CPEs are dealt round-robin onto
    /// `min(num_cpes, share)` slots, which `runner` executes.
    /// Counters fold into the CG aggregate.
    ///
    /// # Panics
    /// If the kernel panicked on any CPE.
    pub fn run_with(&mut self, kernel: CpeKernel, arg: usize, share: usize, runner: SlotRunner) {
        let slots = self.cfg.num_cpes.min(share).max(1);
        let failure: Mutex<Option<String>> = Mutex::new(None);
        let (cfg, ldm, per_cpe) = (&self.cfg, &self.ldm, &self.per_cpe);
        runner(slots, &|slot| {
            // One unwind guard per slot: a panic (e.g. LDM overflow)
            // abandons the slot's remaining CPEs and surfaces below, like a
            // device abort surfacing at synchronization.
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                for cpe in (slot..cfg.num_cpes).step_by(slots) {
                    let counters = run_cpe(cpe, cfg, &ldm[cpe], kernel, arg);
                    per_cpe.lock()[cpe] = counters;
                }
            }));
            if let Err(e) = run {
                *failure.lock() = Some(panic_message(e));
            }
        });
        if let Some(e) = failure.into_inner() {
            panic!("CPE kernel failed: {e}");
        }
        self.counters.record_kernel(self.per_cpe.get_mut());
    }

    /// Aggregated counters over all kernels launched so far.
    pub fn counters(&self) -> &CgCounters {
        &self.counters
    }

    /// Reset aggregated counters (e.g. after warm-up).
    pub fn reset_counters(&mut self) {
        self.counters = CgCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn count_kernel(ctx: &mut CpeCtx, arg: usize) {
        // arg is a *const AtomicU64 in disguise — the C-like boundary.
        let counter = unsafe { &*(arg as *const AtomicU64) };
        counter.fetch_add(1 + ctx.cpe_id() as u64, Ordering::Relaxed);
        ctx.account_flops_scalar(10);
    }

    #[test]
    fn kernel_runs_on_every_cpe_exactly_once() {
        let cfg = CgConfig::test_small();
        let n = cfg.num_cpes as u64;
        let mut cg = CoreGroup::new(cfg);
        let counter = AtomicU64::new(0);
        cg.run(count_kernel, &counter as *const _ as usize);
        // sum of (1 + id) over ids 0..n = n + n(n-1)/2
        assert_eq!(counter.load(Ordering::Relaxed), n + n * (n - 1) / 2);
        assert_eq!(cg.counters().kernels_launched, 1);
        assert_eq!(cg.counters().totals.flops, 10 * n);
    }

    fn dma_roundtrip_kernel(ctx: &mut CpeCtx, arg: usize) {
        let data = unsafe { &mut *(arg as *mut Vec<f64>) };
        let n = data.len();
        let per = n / ctx.num_cpes();
        let lo = ctx.cpe_id() * per;
        let hi = if ctx.cpe_id() == ctx.num_cpes() - 1 {
            n
        } else {
            lo + per
        };
        if lo >= hi {
            return;
        }
        let mut tile = ctx.ldm().alloc::<f64>(hi - lo).unwrap();
        // Disjoint slices per CPE, so the raw-pointer aliasing is sound.
        let src: Vec<f64> = data[lo..hi].to_vec();
        ctx.dma_get(&src, &mut tile);
        for x in tile.iter_mut() {
            *x *= 2.0;
        }
        ctx.account_flops_simd((hi - lo) as u64);
        let out: &mut [f64] =
            unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().add(lo), hi - lo) };
        let tile_copy: Vec<f64> = tile.to_vec();
        ctx.dma_put(&tile_copy, out);
    }

    #[test]
    fn dma_kernel_doubles_array() {
        let cfg = CgConfig::test_small();
        let mut cg = CoreGroup::new(cfg);
        let mut data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        cg.run(dma_roundtrip_kernel, &mut data as *mut _ as usize);
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, 2.0 * i as f64);
        }
        let t = &cg.counters().totals;
        assert_eq!(t.dma_get_bytes, 8000);
        assert_eq!(t.dma_put_bytes, 8000);
        assert!(t.dma_transactions >= 2);
    }

    fn overlap_kernel(ctx: &mut CpeCtx, arg: usize) {
        let data = unsafe { &*(arg as *const Vec<f64>) };
        let mut tile = ctx.ldm().alloc::<f64>(data.len()).unwrap();
        let h = ctx.dma_get_async(data, &mut tile);
        // Compute that should hide (part of) the transfer.
        ctx.account_cycles(1_000_000);
        ctx.dma_wait(h);
    }

    fn blocking_kernel(ctx: &mut CpeCtx, arg: usize) {
        let data = unsafe { &*(arg as *const Vec<f64>) };
        let mut tile = ctx.ldm().alloc::<f64>(data.len()).unwrap();
        ctx.dma_get(data, &mut tile);
        ctx.account_cycles(1_000_000);
    }

    #[test]
    fn async_dma_overlaps_compute() {
        let cfg = CgConfig::test_small();
        let data: Vec<f64> = vec![1.0; 2048];

        let mut cg_async = CoreGroup::new(cfg.clone());
        cg_async.run(overlap_kernel, &data as *const _ as usize);
        let t_async = cg_async.counters().kernel_cycles;

        let mut cg_block = CoreGroup::new(cfg);
        cg_block.run(blocking_kernel, &data as *const _ as usize);
        let t_block = cg_block.counters().kernel_cycles;

        assert!(
            t_async < t_block,
            "double buffering must be faster: async {t_async} vs blocking {t_block}"
        );
    }

    #[test]
    fn stall_cycles_measure_unhidden_transfer_time() {
        fn stalled(ctx: &mut CpeCtx, _: usize) {
            let h = ctx.dma_get_async_model(1 << 16, 1 << 20);
            // No compute issued: the whole transfer is a stall.
            ctx.dma_wait(h);
        }
        fn hidden(ctx: &mut CpeCtx, _: usize) {
            let h = ctx.dma_get_async_model(1 << 16, 1 << 20);
            ctx.account_cycles(100_000_000);
            ctx.dma_wait(h);
        }
        let mut cg = CoreGroup::new(CgConfig::test_small());
        cg.run(stalled, 0);
        assert!(cg.counters().totals.dma_stall_cycles > 0);
        let mut cg2 = CoreGroup::new(CgConfig::test_small());
        cg2.run(hidden, 0);
        assert_eq!(cg2.counters().totals.dma_stall_cycles, 0);
    }

    #[test]
    fn chunked_model_transfer_pays_latency_per_chunk() {
        fn one_chunk(ctx: &mut CpeCtx, _: usize) {
            let h = ctx.dma_get_async_model(64 * 1024, 64 * 1024);
            ctx.dma_wait(h);
        }
        fn many_chunks(ctx: &mut CpeCtx, _: usize) {
            let h = ctx.dma_get_async_model(64 * 1024, 4 * 1024);
            ctx.dma_wait(h);
        }
        let mut a = CoreGroup::new(CgConfig::test_small());
        a.run(one_chunk, 0);
        let mut b = CoreGroup::new(CgConfig::test_small());
        b.run(many_chunks, 0);
        assert!(b.counters().totals.dma_transactions > a.counters().totals.dma_transactions);
        assert!(b.counters().kernel_cycles > a.counters().kernel_cycles);
        // Same traffic either way.
        assert_eq!(
            a.counters().totals.dma_get_bytes,
            b.counters().totals.dma_get_bytes
        );
    }

    #[test]
    fn ldm_high_water_reported_without_dma() {
        // The high-water must be captured at kernel end, not only when a
        // DMA transaction happens to record it.
        fn alloc_only(ctx: &mut CpeCtx, _: usize) {
            let _buf = ctx.ldm().alloc::<f64>(128).unwrap();
        }
        let mut cg = CoreGroup::new(CgConfig::test_small());
        cg.run(alloc_only, 0);
        assert_eq!(cg.counters().totals.ldm_high_water, 1024);
    }

    #[test]
    fn persistent_ldm_pools_reset_between_launches() {
        fn big(ctx: &mut CpeCtx, _: usize) {
            let _buf = ctx.ldm().alloc::<u8>(8 * 1024).unwrap();
        }
        fn small(ctx: &mut CpeCtx, _: usize) {
            let _buf = ctx.ldm().alloc::<u8>(16).unwrap();
        }
        let mut cg = CoreGroup::new(CgConfig::test_small());
        cg.run(big, 0);
        let snap = cg.counters().clone();
        cg.run(small, 0);
        let window = cg.counters().delta(&snap);
        // The second kernel's peak is its own, not the lifetime peak of the
        // persistent allocator.
        assert_eq!(window.totals.ldm_high_water, 8 * 1024);
        assert_eq!(cg.counters().totals.ldm_high_water, 8 * 1024);
    }

    #[test]
    #[should_panic(expected = "CPE kernel failed")]
    fn kernel_panic_surfaces_at_the_launch() {
        let mut cg = CoreGroup::new(CgConfig::test_small());
        fn bad(ctx: &mut CpeCtx, _: usize) {
            // Overflow the 16 kB test LDM on every CPE.
            let _ = ctx.ldm().alloc::<u8>(1 << 20).unwrap();
        }
        cg.run(bad, 0);
    }

    #[test]
    fn slot_count_changes_neither_results_nor_counters() {
        // A runner that gives every slot its own scoped thread.
        fn threaded(slots: usize, body: &(dyn Fn(usize) + Sync)) {
            std::thread::scope(|s| {
                for slot in 0..slots {
                    s.spawn(move || body(slot));
                }
            });
        }
        let cfg = CgConfig::test_small();
        let mut inline = CoreGroup::new(cfg.clone());
        let mut want: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        inline.run(dma_roundtrip_kernel, &mut want as *mut _ as usize);
        let mut cg = CoreGroup::new(cfg);
        for share in [2, 3, 64] {
            let mut data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
            let before = cg.counters().clone();
            cg.run_with(
                dma_roundtrip_kernel,
                &mut data as *mut _ as usize,
                share,
                &threaded,
            );
            assert_eq!(data, want, "share {share}");
            let window = cg.counters().delta(&before);
            assert_eq!(window.kernel_cycles, inline.counters().kernel_cycles);
            assert_eq!(
                window.totals.dma_get_bytes,
                inline.counters().totals.dma_get_bytes
            );
        }
    }

    #[test]
    fn reset_counters_clears_history() {
        let mut cg = CoreGroup::new(CgConfig::test_small());
        fn busy(ctx: &mut CpeCtx, _: usize) {
            ctx.account_flops_scalar(5);
        }
        cg.run(busy, 0);
        assert!(cg.counters().kernel_cycles > 0);
        cg.reset_counters();
        assert_eq!(cg.counters().kernel_cycles, 0);
        assert_eq!(cg.counters().kernels_launched, 0);
    }

    #[test]
    fn simd_accounting_is_cheaper_than_scalar() {
        let cfg = CgConfig::default();
        let mut ctx = CpeCtx::new(0, &cfg);
        ctx.account_flops_simd(800);
        let simd_cycles = ctx.counters.cycles;
        let mut ctx2 = CpeCtx::new(0, &cfg);
        ctx2.account_flops_scalar(800);
        assert_eq!(simd_cycles, 100);
        assert_eq!(ctx2.counters.cycles, 800);
    }
}
