//! Interval-based reclamation: the 2GE-IBR variant \[35\].
//!
//! Each thread keeps a single reservation *interval* `[lower, upper]`:
//! `enter` sets both to the current era, and every guarded pointer read
//! ratchets `upper` up to the era observed after the read. A retired node —
//! whose lifetime is the interval `[birth era, retire era]` — can be freed
//! once it overlaps no thread's reservation interval. Compared to HE there
//! is one interval per thread instead of one era per protection index,
//! which is why its API needs no index management (the paper calls the 2GE
//! model "reminiscent of EBR").

use crossbeam_utils::CachePadded;
use smr_core::{
    Atomic, EraClock, LocalStats, Magazine, NodePool, Shared, SlotRegistry, Smr, SmrConfig,
    SmrHandle, SmrNode, SmrStats,
};
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::orphan::{link_chain, OrphanList};

/// Header word: birth era.
const W_BIRTH: usize = 1;
/// Header word: retire era.
const W_RETIRE: usize = 2;

/// Reservation value meaning "not inside an operation".
const INACTIVE: u64 = u64::MAX;

/// One thread's reservation interval.
#[derive(Debug)]
struct Interval {
    lower: AtomicU64,
    upper: AtomicU64,
}

impl Interval {
    fn new() -> Self {
        Self {
            lower: AtomicU64::new(INACTIVE),
            upper: AtomicU64::new(INACTIVE),
        }
    }
}

/// The 2GE-IBR reclamation domain.
///
/// # Example
///
/// ```
/// use smr_baselines::Ibr;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: Ibr<u64> = Ibr::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(2);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub struct Ibr<T: Send + 'static> {
    reservations: Box<[CachePadded<Interval>]>,
    registry: SlotRegistry,
    era: EraClock,
    era_freq: u64,
    scan_threshold: usize,
    orphans: OrphanList<T>,
    stats: SmrStats,
    pool: NodePool,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send + 'static> std::fmt::Debug for Ibr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ibr")
            .field("era", &self.era.current())
            .field("registered", &self.registry.claimed())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Smr<T> for Ibr<T> {
    type Handle<'d> = IbrHandle<'d, T>;

    fn with_config(config: SmrConfig) -> Self {
        Self {
            reservations: (0..config.max_threads)
                .map(|_| CachePadded::new(Interval::new()))
                .collect(),
            registry: SlotRegistry::new(config.max_threads),
            era: EraClock::new(),
            era_freq: config.era_freq,
            scan_threshold: config.scan_threshold,
            orphans: OrphanList::new(),
            stats: SmrStats::new(),
            pool: NodePool::for_node::<T>(&config),
            _marker: PhantomData,
        }
    }

    fn handle(&self) -> IbrHandle<'_, T> {
        IbrHandle {
            slot: self.registry.claim(),
            domain: self,
            limbo: Vec::new(),
            alloc_counter: 0,
            upper_cache: INACTIVE,
            local_stats: LocalStats::new(),
            mag: self.pool.magazine(),
        }
    }

    fn stats(&self) -> &SmrStats {
        &self.stats
    }

    fn name() -> &'static str {
        "IBR"
    }

    fn robust() -> bool {
        true
    }
}

impl<T: Send + 'static> Drop for Ibr<T> {
    fn drop(&mut self) {
        let chain = self.orphans.take_all();
        let mut freed = 0;
        unsafe {
            OrphanList::for_each_owned(chain, |node| {
                SmrNode::dealloc(node, true);
                freed += 1;
            });
        }
        self.stats.add_freed(freed);
    }
}

/// Per-thread handle to an [`Ibr`] domain.
pub struct IbrHandle<'d, T: Send + 'static> {
    domain: &'d Ibr<T>,
    slot: usize,
    limbo: Vec<*mut SmrNode<T>>,
    alloc_counter: u64,
    /// Local copy of our published `upper` (sole writer).
    upper_cache: u64,
    local_stats: LocalStats,
    mag: Magazine,
}

// SAFETY: the limbo list holds exclusively owned retired nodes, the slot
// index and cached upper bound stay valid wherever the handle runs (the
// handle remains the slot's only writer), and the domain borrow is `Sync`.
unsafe impl<T: Send + 'static> Send for IbrHandle<'_, T> {}

impl<T: Send + 'static> std::fmt::Debug for IbrHandle<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IbrHandle")
            .field("slot", &self.slot)
            .field("limbo", &self.limbo.len())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> IbrHandle<'_, T> {
    fn adopt_orphans(&mut self) {
        let chain = self.domain.orphans.take_all();
        if chain.is_null() {
            return;
        }
        unsafe {
            OrphanList::for_each_owned(chain, |node| self.limbo.push(node));
        }
    }

    /// Frees every limbo node whose lifetime interval is disjoint from all
    /// published reservation intervals.
    fn scan(&mut self) {
        self.adopt_orphans();
        fence(Ordering::SeqCst);
        let domain = self.domain;
        let mut intervals: Vec<(u64, u64)> = Vec::with_capacity(8);
        for idx in domain.registry.iter_claimed() {
            let r = &domain.reservations[idx];
            let lower = r.lower.load(Ordering::SeqCst);
            let upper = r.upper.load(Ordering::SeqCst);
            if lower != INACTIVE {
                intervals.push((lower, upper));
            }
        }
        let mut freed = 0u64;
        let domain = self.domain;
        let mag = &mut self.mag;
        self.limbo.retain(|&node| {
            let header = unsafe { (*node).header() };
            let birth = header.word(W_BIRTH).load(Ordering::Relaxed) as u64;
            let retire = header.word(W_RETIRE).load(Ordering::Relaxed) as u64;
            let pinned = intervals
                .iter()
                .any(|&(lower, upper)| lower <= retire && birth <= upper);
            if pinned {
                true
            } else {
                unsafe { domain.pool.dispose(mag, &domain.stats, node, true) };
                freed += 1;
                false
            }
        });
        if freed > 0 {
            self.local_stats.on_free(&self.domain.stats, freed);
        }
    }
}

impl<T: Send + 'static> SmrHandle<T> for IbrHandle<'_, T> {
    fn enter(&mut self) {
        let domain = self.domain;
        let r = &domain.reservations[self.slot];
        let e = domain.era.current();
        r.lower.store(e, Ordering::SeqCst);
        r.upper.store(e, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        self.upper_cache = e;
    }

    fn leave(&mut self) {
        let r = &self.domain.reservations[self.slot];
        r.lower.store(INACTIVE, Ordering::Release);
        r.upper.store(INACTIVE, Ordering::Release);
        self.upper_cache = INACTIVE;
    }

    fn alloc(&mut self, value: T) -> Shared<T> {
        let domain = self.domain;
        self.alloc_counter += 1;
        if self.alloc_counter.is_multiple_of(domain.era_freq) {
            domain.era.advance();
        }
        self.local_stats.on_alloc(&domain.stats);
        let node = domain.pool.alloc(&mut self.mag, &domain.stats, value);
        unsafe {
            (*node.as_ptr())
                .header()
                .word(W_BIRTH)
                .store(domain.era.current() as usize, Ordering::Relaxed);
        }
        Shared::from_node(node)
    }

    unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        let domain = self.domain;
        self.local_stats.on_dealloc(&domain.stats);
        domain.pool.dispose(&mut self.mag, &domain.stats, ptr.as_node_ptr(), true);
    }

    /// The 2GE read protocol: ratchet `upper` to the era observed after the
    /// pointer read, re-reading until stable.
    fn protect(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        let domain = self.domain;
        let r = &domain.reservations[self.slot];
        loop {
            let p = src.load(Ordering::Acquire);
            let e = domain.era.current();
            if e == self.upper_cache {
                return p;
            }
            r.upper.store(e, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            self.upper_cache = e;
        }
    }

    unsafe fn retire(&mut self, ptr: Shared<T>) {
        let domain = self.domain;
        let node = ptr.as_node_ptr();
        (*node)
            .header()
            .word(W_RETIRE)
            .store(domain.era.current() as usize, Ordering::Relaxed);
        self.local_stats.on_retire(&domain.stats);
        self.limbo.push(node);
        if self.limbo.len() >= domain.scan_threshold {
            self.scan();
        }
    }

    fn flush(&mut self) {
        self.scan();
        let domain = self.domain;
        self.mag.flush_stats(&domain.stats);
        self.local_stats.flush(&domain.stats);
    }
}

impl<T: Send + 'static> Drop for IbrHandle<'_, T> {
    fn drop(&mut self) {
        let r = &self.domain.reservations[self.slot];
        r.lower.store(INACTIVE, Ordering::Release);
        r.upper.store(INACTIVE, Ordering::Release);
        self.scan();
        if let Some((head, tail)) = unsafe { link_chain(&self.limbo) } {
            unsafe { self.domain.orphans.push_chain(head, tail) };
        }
        self.limbo.clear();
        let domain = self.domain;
        domain.pool.flush(&mut self.mag, &domain.stats);
        self.local_stats.flush(&domain.stats);
        domain.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Ibr<u64> {
        Ibr::with_config(SmrConfig {
            era_freq: 4,
            scan_threshold: 8,
            max_threads: 32,
            ..SmrConfig::default()
        })
    }

    #[test]
    fn single_thread_reclaims_everything() {
        let d = domain();
        let mut h = d.handle();
        for i in 0..200u64 {
            h.enter();
            let n = h.alloc(i);
            unsafe { h.retire(n) };
            h.leave();
        }
        h.flush();
        assert_eq!(d.stats().unreclaimed(), 0);
        drop(h);
    }

    #[test]
    fn interval_pins_protected_node() {
        let d = &domain();
        let published = &std::sync::Barrier::new(2);
        let protected = &std::sync::Barrier::new(2);
        let release = &std::sync::Barrier::new(2);
        let link = &Atomic::<u64>::null();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut reader = d.handle();
                reader.enter();
                published.wait();
                let seen = reader.protect(0, link);
                protected.wait();
                release.wait();
                assert_eq!(unsafe { *seen.deref() }, 8);
                reader.leave();
            });
            let mut writer = d.handle();
            writer.enter();
            let node = writer.alloc(8);
            link.store(node, Ordering::Release);
            published.wait();
            protected.wait();
            let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
            unsafe { writer.retire(unlinked) };
            writer.leave();
            writer.flush();
            assert!(d.stats().unreclaimed() >= 1);
            release.wait();
        });
    }

    #[test]
    fn robust_against_stalled_thread() {
        let d = &domain();
        let entered = &std::sync::Barrier::new(2);
        let done = &std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut stalled = d.handle();
                stalled.enter(); // takes [e, e] and stalls
                entered.wait();
                done.wait();
                stalled.leave();
            });
            entered.wait();
            let mut worker = d.handle();
            for i in 0..5_000u64 {
                worker.enter();
                let n = worker.alloc(i);
                unsafe { worker.retire(n) };
                worker.leave();
            }
            worker.flush();
            let unreclaimed = d.stats().unreclaimed();
            assert!(
                unreclaimed < 100,
                "IBR must stay robust; {unreclaimed} nodes pinned"
            );
            done.wait();
        });
    }

    #[test]
    fn multithreaded_stress() {
        let d = &domain();
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(move || {
                    let mut h = d.handle();
                    for i in 0..2_000u64 {
                        h.enter();
                        let n = h.alloc(t * 1_000_000 + i);
                        unsafe { h.retire(n) };
                        h.leave();
                    }
                });
            }
        });
    }
}
