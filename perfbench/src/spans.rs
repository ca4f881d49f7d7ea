//! The benchmark's own span recorder.
//!
//! Kernel and region spans arrive through a `kokkos_rs::profiling`
//! hook implementation installed only for the traced run; API spans
//! (`Model::new`, `Model::step`, the `Server` job API, checkpoint calls)
//! are recorded around the benchmark's own calls into each layer. Spans
//! stay in per-thread memory buffers and are drained once the traced
//! part ends; [`write_chrome_trace`] hands them to the existing
//! `kokkos-profiling` chrome-trace exporter.

use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use kokkos_profiling::{ArgValue, TraceEvent};
use kokkos_rs::profiling::{DeepCopyInfo, KernelId, KernelInfo, ProfilingHooks};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Kernel,
    Copy,
    Region,
    Api,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    /// Execution-space name for kernels, `""` otherwise.
    pub space: &'static str,
    pub work_items: u64,
    /// Simulated rank of the recording thread, `-1` off rank threads.
    pub rank: i64,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread (the span that caused
    /// this one).
    pub parent: Option<u64>,
    /// Whether a kernel span was open around this one.
    pub inside_kernel: bool,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static API_SPANS: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn buffers() -> &'static Mutex<Vec<Buffer>> {
    static B: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    B.get_or_init(|| Mutex::new(Vec::new()))
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct ThreadState {
    tid: u64,
    rank: i64,
    next_seq: u64,
    /// Open spans: buffer index, id and whether it is a kernel.
    stack: Vec<(usize, u64, bool)>,
    buf: Buffer,
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

fn with_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> R {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let st = s.get_or_insert_with(|| {
            let buf: Buffer = Arc::new(Mutex::new(Vec::new()));
            buffers()
                .lock()
                .expect("span registry lock poisoned")
                .push(Arc::clone(&buf));
            ThreadState {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                rank: -1,
                next_seq: 0,
                stack: Vec::new(),
                buf,
            }
        });
        f(st)
    })
}

/// Tag the calling thread with its simulated rank and return its track id.
pub fn set_rank(rank: usize) -> u64 {
    with_state(|st| {
        st.rank = rank as i64;
        st.tid
    })
}

fn open(name: &'static str, kind: Kind, space: &'static str, work_items: u64) {
    let start_ns = now_ns();
    with_state(|st| {
        let inside_kernel = st.stack.iter().any(|&(_, _, k)| k);
        let parent = st.stack.last().map(|&(_, id, _)| id);
        let id = (st.tid << 40) | st.next_seq;
        st.next_seq += 1;
        let mut buf = st.buf.lock().expect("span buffer lock poisoned");
        buf.push(Span {
            name,
            kind,
            space,
            work_items,
            rank: st.rank,
            tid: st.tid,
            start_ns,
            dur_ns: 0,
            id,
            parent,
            inside_kernel,
        });
        st.stack.push((buf.len() - 1, id, kind == Kind::Kernel));
    });
}

fn close() {
    let end = now_ns();
    with_state(|st| {
        if let Some((i, _, _)) = st.stack.pop() {
            let mut buf = st.buf.lock().expect("span buffer lock poisoned");
            buf[i].dur_ns = end.saturating_sub(buf[i].start_ns);
        }
    });
}

struct Hooks;

impl ProfilingHooks for Hooks {
    fn begin_parallel_for(&self, _kid: KernelId, info: &KernelInfo) {
        open(info.name, Kind::Kernel, info.space, info.work_items);
    }
    fn end_parallel_for(&self, _kid: KernelId) {
        close();
    }
    fn begin_parallel_reduce(&self, _kid: KernelId, info: &KernelInfo) {
        open(info.name, Kind::Kernel, info.space, info.work_items);
    }
    fn end_parallel_reduce(&self, _kid: KernelId) {
        close();
    }
    fn begin_deep_copy(&self, _kid: KernelId, info: &DeepCopyInfo<'_>) {
        open("deep_copy", Kind::Copy, "", info.bytes);
    }
    fn end_deep_copy(&self, _kid: KernelId) {
        close();
    }
    fn push_region(&self, name: &'static str) {
        open(name, Kind::Region, "", 0);
    }
    fn pop_region(&self, _name: &'static str) {
        close();
    }
}

/// Start recording: kernel/region hooks plus API spans.
pub fn start() {
    kokkos_rs::profiling::set_hooks(Arc::new(Hooks));
    API_SPANS.store(true, Ordering::SeqCst);
}

/// Stop recording and take every span recorded so far.
pub fn stop_and_drain() -> Vec<Span> {
    kokkos_rs::profiling::clear_hooks();
    API_SPANS.store(false, Ordering::SeqCst);
    drain()
}

/// Take every span recorded so far (recording state unchanged). Call
/// only while no span is open on any thread.
pub fn drain() -> Vec<Span> {
    let bufs = buffers().lock().expect("span registry lock poisoned");
    let mut out = Vec::new();
    for b in bufs.iter() {
        out.append(&mut b.lock().expect("span buffer lock poisoned"));
    }
    out
}

/// Run `f` inside an API span named `name` when recording is on.
pub fn api<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !API_SPANS.load(Ordering::Relaxed) {
        return f();
    }
    open(name, Kind::Api, "", 0);
    let r = f();
    close();
    r
}

/// Write `spans` (at most `cap` of them, earliest first) as a chrome
/// trace through the `kokkos-profiling` exporter. Rank threads render
/// as their rank's process row, other threads under pid 1000.
pub fn write_chrome_trace(path: &Path, spans: &[Span], cap: usize) -> std::io::Result<usize> {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by_key(|s| s.start_ns);
    let events: Vec<TraceEvent> = order
        .into_iter()
        .take(cap)
        .map(|s| {
            let mut args = vec![("id", ArgValue::U64(s.id))];
            if !s.space.is_empty() {
                args.push(("space", ArgValue::Str(s.space.to_string())));
                args.push(("work_items", ArgValue::U64(s.work_items)));
            }
            if let Some(p) = s.parent {
                args.push(("parent", ArgValue::U64(p)));
            }
            TraceEvent {
                name: s.name.to_string(),
                cat: match s.kind {
                    Kind::Kernel => "kernel",
                    Kind::Copy => "deep_copy",
                    Kind::Region => "region",
                    Kind::Api => "api",
                },
                ph: 'X',
                ts_ns: s.start_ns,
                dur_ns: s.dur_ns,
                pid: if s.rank >= 0 { s.rank } else { 1000 },
                tid: s.tid as i64,
                args,
            }
        })
        .collect();
    kokkos_profiling::trace::write_atomic(path, &events)?;
    Ok(events.len())
}
