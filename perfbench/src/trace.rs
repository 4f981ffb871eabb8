//! Sampled span tracing for the traced run.
//!
//! A span carries a name, start, end, parent and op id. The benchmark opens
//! a root span for one operation (or one kv-oversub burst) in N and every
//! call made inside it — its own calls into `ConcurrentMap` and the async
//! layer, and every `Smr`/`SmrHandle` call through [`Traced`] — records a
//! child span. Spans are kept in per-thread buffers and collected when the
//! run ends; nothing is recorded outside a sampled operation.
//!
//! Untraced runs never construct [`Traced`], so their scheme calls are the
//! program's own, unwrapped.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use smr_core::{Atomic, Shared, Smr, SmrConfig, SmrHandle, SmrStats};

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// The id of the root span of the operation this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans one thread may hold before it stops starting new sampled
/// operations (bounds the traced run's memory).
const THREAD_SPAN_CAP: usize = 1 << 18;

struct Open {
    id: u64,
    name: &'static str,
    start: u64,
}

struct ThreadTrace {
    /// High bits of every span id this thread issues; 0 until first use.
    tid: u64,
    next: u64,
    op: u64,
    stack: Vec<Open>,
    done: Vec<Span>,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static THREAD: RefCell<ThreadTrace> = const {
        RefCell::new(ThreadTrace { tid: 0, next: 0, op: 0, stack: Vec::new(), done: Vec::new() })
    };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Tests that collect spans hold this, so one test's collection does not
/// take another's spans.
#[cfg(test)]
pub static TEST_COLLECT: Mutex<()> = Mutex::new(());
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Nanoseconds since [`init`], read from the time-stamp counter where
/// there is one: a span then costs one counter read (~25 ns on the
/// reference host) instead of one `Instant::now` (~55 ns).
pub fn now_ns() -> u64 {
    let c = clock();
    (ticks().saturating_sub(c.base) as f64 * c.ns_per_tick) as u64
}

/// Calibrates the clock; call once before anything is timed.
pub fn init() {
    clock();
}

struct Clock {
    base: u64,
    ns_per_tick: f64,
}

fn clock() -> &'static Clock {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    CLOCK.get_or_init(|| {
        let (t0, c0) = (Instant::now(), ticks());
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (ns, c1) = (t0.elapsed().as_nanos() as f64, ticks());
        Clock {
            base: c0,
            ns_per_tick: ns / (c1 - c0).max(1) as f64,
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions on x86-64; it only reads the
    // time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl ThreadTrace {
    fn new_id(&mut self) -> u64 {
        if self.tid == 0 {
            self.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        self.next += 1;
        (self.tid << 40) | self.next
    }

    fn open(&mut self, name: &'static str, start: u64) {
        let id = self.new_id();
        self.stack.push(Open { id, name, start });
    }

    /// Closes the innermost span; `start` overrides the one given at open.
    fn close(&mut self, start: Option<u64>, end: u64) {
        let open = self.stack.pop().expect("span closed without an open span");
        let parent = self.stack.last().map_or(0, |p| p.id);
        self.done.push(Span {
            id: open.id,
            parent,
            op: self.op,
            name: open.name,
            start: start.unwrap_or(open.start),
            end,
        });
    }
}

/// Starts a sampled operation whose root span began at `start` (a reading
/// of [`now_ns`]). Returns `false`, recording nothing, once this thread's
/// buffer is full.
pub fn begin_at(name: &'static str, start: u64) -> bool {
    let started = THREAD.with_borrow_mut(|t| {
        if t.done.len() >= THREAD_SPAN_CAP {
            return false;
        }
        t.open(name, start);
        t.op = t.stack[0].id;
        true
    });
    ACTIVE.set(started);
    started
}

/// Starts a sampled operation now (see [`begin_at`]).
pub fn begin(name: &'static str) -> bool {
    begin_at(name, now_ns())
}

/// Ends the sampled operation started by [`begin`].
pub fn end() {
    end_at(now_ns());
}

fn end_at(end: u64) {
    THREAD.with_borrow_mut(|t| {
        t.close(None, end);
        debug_assert!(t.stack.is_empty(), "operation ended with open child spans");
    });
    ACTIVE.set(false);
}

/// Runs `f`, recording it as a child span of the current operation when
/// this thread is inside a sampled operation.
///
/// Outside a sampled operation this costs one thread-local flag test; the
/// recording itself stays out of line so that `f` is inlined exactly once.
/// `span` and the [`Traced`] methods are forced inline: left to the
/// compiler, the wrapped calls stopped inlining into the structures and the
/// traced rounds lost about 15% of their throughput on the reference host.
#[inline(always)]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let active = ACTIVE.get();
    let start = if active { open_span(name) } else { 0 };
    let out = f();
    if active {
        close_span(start);
    }
    out
}

#[cold]
#[inline(never)]
fn open_span(name: &'static str) -> u64 {
    THREAD.with_borrow_mut(|t| t.open(name, 0));
    now_ns()
}

#[cold]
#[inline(never)]
fn close_span(start: u64) {
    let end = now_ns();
    THREAD.with_borrow_mut(|t| t.close(Some(start), end));
}

/// Records an already measured interval as a child of the current span.
pub fn record(name: &'static str, start: u64, end: u64) {
    if !ACTIVE.get() {
        return;
    }
    THREAD.with_borrow_mut(|t| {
        t.open(name, start);
        t.close(None, end);
    });
}

/// Records an already measured interval as an operation of its own.
pub fn record_root(name: &'static str, start: u64, end: u64) {
    if begin_at(name, start) {
        end_at(end);
    }
}

/// Moves this thread's finished spans to the process-wide collection.
/// Threads call it when their part of a run ends, outside any span.
pub fn flush_thread() {
    let done = THREAD.with_borrow_mut(|t| std::mem::take(&mut t.done));
    if !done.is_empty() {
        COLLECTED
            .lock()
            .expect("a thread panicked while flushing spans")
            .extend(done);
    }
}

/// Takes every span flushed so far.
pub fn take_collected() -> Vec<Span> {
    std::mem::take(
        &mut *COLLECTED
            .lock()
            .expect("a thread panicked while flushing spans"),
    )
}

/// A forwarding [`Smr`] whose handles time every call.
#[derive(Debug)]
pub struct Traced<S>(S);

/// The handle of a [`Traced`] domain.
#[derive(Debug)]
pub struct TracedHandle<H>(H);

impl<T: Send + 'static, S: Smr<T>> Smr<T> for Traced<S> {
    type Handle<'d>
        = TracedHandle<S::Handle<'d>>
    where
        Self: 'd;

    fn with_config(config: SmrConfig) -> Self {
        Traced(S::with_config(config))
    }

    fn handle(&self) -> Self::Handle<'_> {
        TracedHandle(self.0.handle())
    }

    fn stats(&self) -> &SmrStats {
        self.0.stats()
    }

    fn unreclaimed_estimate(&self) -> u64 {
        self.0.unreclaimed_estimate()
    }

    fn name() -> &'static str {
        S::name()
    }

    fn robust() -> bool {
        S::robust()
    }

    fn supports_trim() -> bool {
        S::supports_trim()
    }

    fn wait_free_retire() -> bool {
        S::wait_free_retire()
    }

    fn needs_seek_validation() -> bool {
        S::needs_seek_validation()
    }

    fn shardable_by_pointer() -> bool {
        S::shardable_by_pointer()
    }
}

impl<T, H: SmrHandle<T>> SmrHandle<T> for TracedHandle<H> {
    #[inline(always)]
    fn enter(&mut self) {
        span("smr.enter", || self.0.enter())
    }

    #[inline(always)]
    fn leave(&mut self) {
        span("smr.leave", || self.0.leave())
    }

    #[inline(always)]
    fn pin_shard(&mut self, key_hash: u64) {
        span("smr.pin_shard", || self.0.pin_shard(key_hash))
    }

    #[inline(always)]
    fn trim(&mut self) {
        span("smr.trim", || self.0.trim())
    }

    #[inline(always)]
    fn alloc(&mut self, value: T) -> Shared<T> {
        span("smr.alloc", || self.0.alloc(value))
    }

    #[inline(always)]
    unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s
        // contract for the wrapped handle, which shares this domain.
        span("smr.dealloc", || unsafe { self.0.dealloc(ptr) })
    }

    #[inline(always)]
    fn protect(&mut self, idx: usize, src: &Atomic<T>) -> Shared<T> {
        span("smr.protect", || self.0.protect(idx, src))
    }

    #[inline(always)]
    fn copy_protection(&mut self, from: usize, to: usize) {
        span("smr.copy_protection", || self.0.copy_protection(from, to))
    }

    #[inline(always)]
    unsafe fn retire(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded unchanged; the caller upholds `retire`'s
        // contract for the wrapped handle, which shares this domain.
        span("smr.retire", || unsafe { self.0.retire(ptr) })
    }

    #[inline(always)]
    fn flush(&mut self) {
        span("smr.flush", || self.0.flush())
    }
}

/// Per-span self times: each span's duration minus the part of its
/// interval covered by its children. Children are clipped to their
/// parent's interval; `violations` counts children that reached outside it
/// (never expected: children are timed inside their parent).
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub by_id: HashMap<u64, u64>,
    pub violations: usize,
}

pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = SelfTimes::default();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0;
        let (mut reach, last) = (s.start, s.start + s.duration());
        for (start, end) in kids {
            if start < s.start || end > last {
                out.violations += 1;
            }
            let (start, end) = (start.clamp(reach, last), end.clamp(reach, last));
            covered += end - start;
            reach = reach.max(end);
        }
        out.by_id.insert(s.id, s.duration() - covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "smr.enter", 0, 10),
            span(3, 1, "lockfree-ds.get", 10, 90),
            span(4, 3, "smr.protect", 20, 30),
            span(5, 3, "smr.protect", 25, 40), // overlaps its sibling
            span(6, 1, "smr.leave", 90, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t.violations, 0);
        assert_eq!(t.by_id[&1], 0); // fully covered by its children
        assert_eq!(t.by_id[&3], 80 - 20); // [20, 40) counted once
        assert_eq!(t.by_id[&4], 10);
        assert_eq!(t.by_id[&2], 10);
    }

    #[test]
    fn children_outside_their_parent_are_clipped_and_counted() {
        let spans = [span(1, 0, "op", 10, 50), span(2, 1, "smr.leave", 40, 70)];
        let t = self_times(&spans);
        assert_eq!(t.violations, 1);
        assert_eq!(t.by_id[&1], 30); // [40, 50) covered after clipping
    }

    #[test]
    fn recorder_nests_spans_under_the_sampled_operation_only() {
        let _serial = TEST_COLLECT.lock().unwrap_or_else(|e| e.into_inner());
        super::span("smr.enter", || ());
        assert!(
            THREAD.with_borrow(|t| t.done.is_empty()),
            "recorded outside an operation"
        );
        assert!(begin("test.root"));
        super::span("lockfree-ds.get", || {
            super::span("smr.protect", || ());
        });
        record("smr-async.acquire", now_ns(), now_ns());
        end();
        flush_thread();
        let collected = take_collected();
        let root = collected.iter().find(|s| s.name == "test.root").unwrap();
        let spans: Vec<&Span> = collected.iter().filter(|s| s.op == root.id).collect();
        let get = spans.iter().find(|s| s.name == "lockfree-ds.get").unwrap();
        let protect = spans.iter().find(|s| s.name == "smr.protect").unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(root.parent, 0);
        assert_eq!(get.parent, root.id);
        assert_eq!(protect.parent, get.id);
        let owned: Vec<Span> = spans.into_iter().cloned().collect();
        assert_eq!(self_times(&owned).violations, 0);
    }
}
