//! Hazard eras (HE) \[31\].
//!
//! HE keeps HP's per-thread reservation slots but publishes *eras* instead
//! of pointer addresses: a reservation of era `v` protects every node whose
//! lifetime interval `[birth, retire]` contains `v`. Reservations follow
//! the HP publish-and-validate protocol (store the current era, re-read the
//! pointer) but, because many nodes share one era, traversals that stay
//! within one era avoid re-publishing — faster than HP, still robust.

use crossbeam_utils::CachePadded;
use smr_core::{
    Atomic, EraClock, LocalStats, Magazine, NodePool, Shared, SlotRegistry, Smr, SmrConfig,
    SmrHandle, SmrNode, SmrStats,
};
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::orphan::{link_chain, OrphanList};

/// Header word: birth era (set at allocation, survives until free).
const W_BIRTH: usize = 1;
/// Header word: retire era.
const W_RETIRE: usize = 2;

/// Reservation value meaning "nothing reserved".
const NONE: u64 = 0;

/// One thread's era-reservation block.
#[derive(Debug)]
struct EraBlock {
    slots: Box<[AtomicU64]>,
}

impl EraBlock {
    fn new(k: usize) -> Self {
        Self {
            slots: (0..k).map(|_| AtomicU64::new(NONE)).collect(),
        }
    }
}

/// The hazard-eras reclamation domain.
///
/// # Example
///
/// ```
/// use smr_baselines::He;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: He<u64> = He::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(3);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub struct He<T: Send + 'static> {
    reservations: Box<[CachePadded<EraBlock>]>,
    registry: SlotRegistry,
    era: EraClock,
    era_freq: u64,
    scan_threshold: usize,
    orphans: OrphanList<T>,
    stats: SmrStats,
    pool: NodePool,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send + 'static> std::fmt::Debug for He<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("He")
            .field("era", &self.era.current())
            .field("registered", &self.registry.claimed())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Smr<T> for He<T> {
    type Handle<'d> = HeHandle<'d, T>;

    fn with_config(config: SmrConfig) -> Self {
        Self {
            reservations: (0..config.max_threads)
                .map(|_| CachePadded::new(EraBlock::new(config.max_protect)))
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

    fn handle(&self) -> HeHandle<'_, T> {
        HeHandle {
            slot: self.registry.claim(),
            domain: self,
            limbo: Vec::new(),
            alloc_counter: 0,
            local_stats: LocalStats::new(),
            mag: self.pool.magazine(),
        }
    }

    fn stats(&self) -> &SmrStats {
        &self.stats
    }

    fn name() -> &'static str {
        "HE"
    }

    fn robust() -> bool {
        true
    }

    fn needs_seek_validation() -> bool {
        // A reserved era taken after a node's retire era does not cover the
        // node's lifetime interval; traversals must re-validate reachability.
        true
    }
}

impl<T: Send + 'static> Drop for He<T> {
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

/// Per-thread handle to a [`He`] domain.
pub struct HeHandle<'d, T: Send + 'static> {
    domain: &'d He<T>,
    slot: usize,
    limbo: Vec<*mut SmrNode<T>>,
    alloc_counter: u64,
    local_stats: LocalStats,
    mag: Magazine,
}

// SAFETY: the limbo list holds exclusively owned retired nodes and the
// registry slot index stays valid wherever the handle runs; the domain
// borrow is `Sync`. A parked handle may therefore move between tasks.
unsafe impl<T: Send + 'static> Send for HeHandle<'_, T> {}

impl<T: Send + 'static> std::fmt::Debug for HeHandle<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeHandle")
            .field("slot", &self.slot)
            .field("limbo", &self.limbo.len())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> HeHandle<'_, T> {
    fn adopt_orphans(&mut self) {
        let chain = self.domain.orphans.take_all();
        if chain.is_null() {
            return;
        }
        unsafe {
            OrphanList::for_each_owned(chain, |node| self.limbo.push(node));
        }
    }

    /// Frees every limbo node whose `[birth, retire]` interval contains no
    /// published reservation era.
    fn scan(&mut self) {
        self.adopt_orphans();
        fence(Ordering::SeqCst);
        let domain = self.domain;
        let mut eras: Vec<u64> = Vec::with_capacity(16);
        for idx in domain.registry.iter_claimed() {
            for r in domain.reservations[idx].slots.iter() {
                let v = r.load(Ordering::SeqCst);
                if v != NONE {
                    eras.push(v);
                }
            }
        }
        eras.sort_unstable();
        let mut freed = 0u64;
        let domain = self.domain;
        let mag = &mut self.mag;
        self.limbo.retain(|&node| {
            let header = unsafe { (*node).header() };
            let birth = header.word(W_BIRTH).load(Ordering::Relaxed) as u64;
            let retire = header.word(W_RETIRE).load(Ordering::Relaxed) as u64;
            // Any reservation v with birth <= v <= retire pins the node.
            let i = eras.partition_point(|&v| v < birth);
            if i < eras.len() && eras[i] <= retire {
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

    fn clear_reservations(&mut self) {
        for r in self.domain.reservations[self.slot].slots.iter() {
            r.store(NONE, Ordering::Release);
        }
    }
}

impl<T: Send + 'static> SmrHandle<T> for HeHandle<'_, T> {
    fn enter(&mut self) {}

    fn leave(&mut self) {
        self.clear_reservations();
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

    /// The HE read protocol: publish the current era in reservation `idx`,
    /// then re-read the pointer until the era is stable.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below [`SmrConfig::max_protect`].
    fn protect(&mut self, idx: usize, src: &Atomic<T>) -> Shared<T> {
        let domain = self.domain;
        let r = &domain.reservations[self.slot].slots[idx];
        let mut prev = r.load(Ordering::Relaxed);
        loop {
            let p = src.load(Ordering::Acquire);
            let e = domain.era.current();
            if e == prev {
                return p;
            }
            r.store(e, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            prev = e;
        }
    }

    fn copy_protection(&mut self, from: usize, to: usize) {
        let slots = &self.domain.reservations[self.slot].slots;
        // The era at `from` pins every interval containing it; publishing
        // the same era at `to` extends that pin.
        let era = slots[from].load(Ordering::Relaxed);
        slots[to].store(era, Ordering::SeqCst);
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

impl<T: Send + 'static> Drop for HeHandle<'_, T> {
    fn drop(&mut self) {
        self.clear_reservations();
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

    fn domain() -> He<u64> {
        He::with_config(SmrConfig {
            era_freq: 4,
            scan_threshold: 8,
            max_protect: 4,
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
    fn reservation_era_pins_interval() {
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
                assert_eq!(unsafe { *seen.deref() }, 5);
                reader.leave();
            });
            let mut writer = d.handle();
            writer.enter();
            let node = writer.alloc(5);
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
                stalled.enter();
                // Take a reservation, then stall.
                let link = Atomic::<u64>::null();
                let _ = stalled.protect(0, &link);
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
                "HE must stay robust; {unreclaimed} nodes pinned"
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
