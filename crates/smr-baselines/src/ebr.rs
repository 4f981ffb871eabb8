//! Epoch-based reclamation (EBR), the paper's `Epoch` baseline.
//!
//! This is the variant used by the IBR benchmark framework \[35\] that the
//! paper compares against: a global epoch counter advanced every
//! `era_freq` operations, per-thread epoch *reservations* published on
//! `enter`, and per-thread limbo lists scanned when they exceed a
//! threshold. A retired node is freed once every active reservation is
//! newer than its retire epoch. Fast — and **not robust**: one stalled
//! thread pins its reservation and with it every node retired afterwards.

use crossbeam_utils::CachePadded;
use smr_core::{
    Atomic, EraClock, LocalStats, Magazine, NodePool, Shared, SlotRegistry, Smr, SmrConfig,
    SmrHandle, SmrNode, SmrStats,
};
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::orphan::{link_chain, OrphanList};

/// Header word: retire epoch (word 0 is the limbo chain next, managed by
/// the orphan module).
const W_EPOCH: usize = 1;

/// Reservation value meaning "not inside an operation".
const INACTIVE: u64 = u64::MAX;

/// The epoch-based reclamation domain.
///
/// # Example
///
/// ```
/// use smr_baselines::Ebr;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: Ebr<u64> = Ebr::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(7);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub struct Ebr<T: Send + 'static> {
    reservations: Box<[CachePadded<AtomicU64>]>,
    registry: SlotRegistry,
    epoch: EraClock,
    era_freq: u64,
    scan_threshold: usize,
    orphans: OrphanList<T>,
    stats: SmrStats,
    pool: NodePool,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send + 'static> std::fmt::Debug for Ebr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ebr")
            .field("epoch", &self.epoch.current())
            .field("registered", &self.registry.claimed())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Ebr<T> {
    /// Minimum reservation across all registered threads.
    fn min_reservation(&self) -> u64 {
        let mut min = u64::MAX;
        for idx in self.registry.iter_claimed() {
            min = min.min(self.reservations[idx].load(Ordering::SeqCst));
        }
        min
    }
}

impl<T: Send + 'static> Smr<T> for Ebr<T> {
    type Handle<'d> = EbrHandle<'d, T>;

    fn with_config(config: SmrConfig) -> Self {
        Self {
            reservations: (0..config.max_threads)
                .map(|_| CachePadded::new(AtomicU64::new(INACTIVE)))
                .collect(),
            registry: SlotRegistry::new(config.max_threads),
            epoch: EraClock::new(),
            era_freq: config.era_freq,
            scan_threshold: config.scan_threshold,
            orphans: OrphanList::new(),
            stats: SmrStats::new(),
            pool: NodePool::for_node::<T>(&config),
            _marker: PhantomData,
        }
    }

    fn handle(&self) -> EbrHandle<'_, T> {
        EbrHandle {
            slot: self.registry.claim(),
            domain: self,
            limbo: Vec::new(),
            op_counter: 0,
            local_stats: LocalStats::new(),
            mag: self.pool.magazine(),
        }
    }

    fn stats(&self) -> &SmrStats {
        &self.stats
    }

    fn name() -> &'static str {
        "Epoch"
    }

    fn robust() -> bool {
        false
    }

    fn shardable_by_pointer() -> bool {
        // Epoch reservations are enter-scoped and carry no per-node birth
        // metadata: retiring a node into any shard the reader also entered
        // is the ordinary EBR argument within that shard.
        true
    }
}

impl<T: Send + 'static> Drop for Ebr<T> {
    fn drop(&mut self) {
        // All handles are gone; everything left is orphaned and safe.
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

/// Per-thread handle to an [`Ebr`] domain.
pub struct EbrHandle<'d, T: Send + 'static> {
    domain: &'d Ebr<T>,
    slot: usize,
    limbo: Vec<*mut SmrNode<T>>,
    op_counter: u64,
    local_stats: LocalStats,
    mag: Magazine,
}

// SAFETY: the limbo list holds exclusively owned retired nodes and the
// registry slot index stays valid wherever the handle runs; the domain
// borrow is `Sync`. A parked handle may therefore move between tasks.
unsafe impl<T: Send + 'static> Send for EbrHandle<'_, T> {}

impl<T: Send + 'static> std::fmt::Debug for EbrHandle<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EbrHandle")
            .field("slot", &self.slot)
            .field("limbo", &self.limbo.len())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> EbrHandle<'_, T> {
    /// Adopts any orphaned chains into our limbo list.
    fn adopt_orphans(&mut self) {
        let chain = self.domain.orphans.take_all();
        if chain.is_null() {
            return;
        }
        unsafe {
            OrphanList::for_each_owned(chain, |node| self.limbo.push(node));
        }
    }

    /// Frees every limbo node whose retire epoch precedes all reservations.
    fn scan(&mut self) {
        self.adopt_orphans();
        fence(Ordering::SeqCst);
        let min = self.domain.min_reservation();
        let mut freed = 0u64;
        let domain = self.domain;
        let mag = &mut self.mag;
        self.limbo.retain(|&node| {
            let retire_epoch =
                unsafe { (*node).header() }.word(W_EPOCH).load(Ordering::Relaxed) as u64;
            if retire_epoch < min {
                unsafe { domain.pool.dispose(mag, &domain.stats, node, true) };
                freed += 1;
                false
            } else {
                true
            }
        });
        if freed > 0 {
            self.local_stats.on_free(&self.domain.stats, freed);
        }
    }
}

impl<T: Send + 'static> SmrHandle<T> for EbrHandle<'_, T> {
    fn enter(&mut self) {
        let domain = self.domain;
        self.op_counter += 1;
        if self.op_counter.is_multiple_of(domain.era_freq) {
            domain.epoch.advance();
        }
        let e = domain.epoch.current();
        domain.reservations[self.slot].store(e, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    fn leave(&mut self) {
        self.domain.reservations[self.slot].store(INACTIVE, Ordering::Release);
    }

    fn alloc(&mut self, value: T) -> Shared<T> {
        let domain = self.domain;
        self.local_stats.on_alloc(&domain.stats);
        Shared::from_node(domain.pool.alloc(&mut self.mag, &domain.stats, value))
    }

    unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        let domain = self.domain;
        self.local_stats.on_dealloc(&domain.stats);
        domain.pool.dispose(&mut self.mag, &domain.stats, ptr.as_node_ptr(), true);
    }

    fn protect(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        // The epoch reservation covers every node reachable inside the
        // operation; no per-access work (EBR's defining advantage).
        src.load(Ordering::Acquire)
    }

    unsafe fn retire(&mut self, ptr: Shared<T>) {
        let node = ptr.as_node_ptr();
        let e = self.domain.epoch.current();
        (*node)
            .header()
            .word(W_EPOCH)
            .store(e as usize, Ordering::Relaxed);
        self.local_stats.on_retire(&self.domain.stats);
        self.limbo.push(node);
        if self.limbo.len() >= self.domain.scan_threshold {
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

impl<T: Send + 'static> Drop for EbrHandle<'_, T> {
    fn drop(&mut self) {
        self.domain.reservations[self.slot].store(INACTIVE, Ordering::Release);
        self.scan();
        if let Some((head, tail)) = unsafe { link_chain(&self.limbo) } {
            // Still-pinned nodes outlive us; hand them to future scanners.
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

    fn domain() -> Ebr<u64> {
        Ebr::with_config(SmrConfig {
            era_freq: 4,
            scan_threshold: 8,
            max_threads: 32,
            ..SmrConfig::default()
        })
    }

    #[test]
    fn single_thread_reclaims_everything() {
        let d = domain();
        {
            let mut h = d.handle();
            for i in 0..200u64 {
                h.enter();
                let n = h.alloc(i);
                unsafe { h.retire(n) };
                h.leave();
            }
            h.flush();
        }
        drop(d); // domain drop frees any orphans
    }

    #[test]
    fn teardown_is_leak_free() {
        let d = domain();
        {
            let mut h = d.handle();
            for i in 0..100u64 {
                h.enter();
                let n = h.alloc(i);
                unsafe { h.retire(n) };
                h.leave();
            }
        }
        // After the handle dropped, scans + orphan adoption must leave
        // nothing behind except what domain-drop frees.
        let freed_before = d.stats().freed();
        let retired = d.stats().retired();
        assert!(freed_before <= retired);
        drop(d);
    }

    #[test]
    fn stalled_thread_blocks_reclamation() {
        // EBR is NOT robust: a thread parked inside an operation pins every
        // node retired after its reservation.
        let d = &domain();
        let entered = &std::sync::Barrier::new(2);
        let done = &std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut stalled = d.handle();
                stalled.enter();
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
                unreclaimed > 4_000,
                "EBR should have pinned almost everything, pinned only {unreclaimed}"
            );
            done.wait();
        });
    }

    #[test]
    fn reader_protected_until_leave() {
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
                assert_eq!(unsafe { *seen.deref() }, 11);
                reader.leave();
            });
            let mut writer = d.handle();
            writer.enter();
            let node = writer.alloc(11);
            link.store(node, Ordering::Release);
            published.wait();
            protected.wait();
            let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
            unsafe { writer.retire(unlinked) };
            writer.leave();
            // Scans cannot free the node while the reader is inside.
            writer.flush();
            release.wait();
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
