//! Host-time spans around the benchmark's calls into each crate, and the
//! counting allocator of the traced binary.
//!
//! Spans are recorded only after [`enable`]; the untraced binary never
//! enables them, so each wrapped call costs one relaxed load. A span's
//! self time is its duration minus the spans that ran inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// The calls the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Cluster::new`.
    ClusterNew,
    /// `Cluster::add_tenant`.
    AddTenant,
    /// `Cluster::register_chain`.
    RegisterChain,
    /// `HttpRequest::parse` + `extract_invocation`.
    Parse,
    /// `Gateway::submit_tenant`.
    Submit,
    /// `Cluster::inject`.
    Inject,
    /// `Cluster::sample_obs`.
    Sample,
    /// The benchmark's completion and response callbacks.
    Completion,
    /// `Sim::run_until` over one segment of a run.
    Run,
}

const SPANS: usize = 9;

/// Accumulated host time of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    /// Time spent inside spans nested in this one.
    pub child_ns: u64,
}

impl Totals {
    /// Self time: total minus nested spans.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

#[derive(Default)]
struct State {
    totals: [Totals; SPANS],
    /// Open spans: (kind, start, nested ns so far).
    stack: Vec<(usize, Instant, u64)>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Runs `f`, recording its host time under `span` when tracing is on.
#[inline]
pub fn time<R>(span: Span, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    STATE.with(|s| {
        s.borrow_mut()
            .stack
            .push((span as usize, Instant::now(), 0))
    });
    let out = f();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let (kind, start, child) = s.stack.pop().expect("span stack is balanced");
        let elapsed = start.elapsed().as_nanos() as u64;
        let t = &mut s.totals[kind];
        t.calls += 1;
        t.total_ns += elapsed;
        t.child_ns += child;
        if let Some(parent) = s.stack.last_mut() {
            parent.2 += elapsed;
        }
    });
    out
}

/// Returns the totals of `span`.
pub fn totals(span: Span) -> Totals {
    STATE.with(|s| s.borrow().totals[span as usize])
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator over [`System`] that counts allocations and
/// requested bytes. Only the traced binary installs it.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` so far; zero without [`CountingAlloc`].
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
