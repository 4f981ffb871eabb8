//! Michael's hazard pointers (HP) \[26\].
//!
//! Each thread owns a fixed set of hazard slots; `protect` publishes the
//! pointer it is about to dereference and re-validates the source, so a
//! retired node is freed only when no published hazard matches its address.
//! Robust — a stalled thread pins at most its own hazard slots' nodes — but
//! slow: every guarded pointer read pays a store plus a full fence, and
//! every scan is `O(m·n)`.

use crossbeam_utils::CachePadded;
use smr_core::{
    Atomic, LocalStats, Magazine, NodePool, Shared, SlotRegistry, Smr, SmrConfig, SmrHandle,
    SmrNode, SmrStats,
};
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

use crate::orphan::{link_chain, OrphanList};

/// One thread's hazard-pointer block.
#[derive(Debug)]
struct HazardBlock {
    slots: Box<[AtomicUsize]>,
}

impl HazardBlock {
    fn new(k: usize) -> Self {
        Self {
            slots: (0..k).map(|_| AtomicUsize::new(0)).collect(),
        }
    }
}

/// The hazard-pointer reclamation domain.
///
/// # Example
///
/// ```
/// use smr_baselines::Hp;
/// use smr_core::{Atomic, Smr, SmrHandle};
/// use std::sync::atomic::Ordering;
///
/// let domain: Hp<u64> = Hp::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(9);
/// let link = Atomic::new(node);
/// let seen = h.protect(0, &link); // hazard published + validated
/// assert_eq!(seen, node);
/// h.leave();
/// unsafe { h.dealloc(node) };
/// ```
pub struct Hp<T: Send + 'static> {
    hazards: Box<[CachePadded<HazardBlock>]>,
    registry: SlotRegistry,
    hp_per_thread: usize,
    scan_threshold: usize,
    orphans: OrphanList<T>,
    stats: SmrStats,
    pool: NodePool,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send + 'static> std::fmt::Debug for Hp<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hp")
            .field("registered", &self.registry.claimed())
            .field("hp_per_thread", &self.hp_per_thread)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Smr<T> for Hp<T> {
    type Handle<'d> = HpHandle<'d, T>;

    fn with_config(config: SmrConfig) -> Self {
        Self {
            hazards: (0..config.max_threads)
                .map(|_| CachePadded::new(HazardBlock::new(config.max_protect)))
                .collect(),
            registry: SlotRegistry::new(config.max_threads),
            hp_per_thread: config.max_protect,
            scan_threshold: config.scan_threshold,
            orphans: OrphanList::new(),
            stats: SmrStats::new(),
            pool: NodePool::for_node::<T>(&config),
            _marker: PhantomData,
        }
    }

    fn handle(&self) -> HpHandle<'_, T> {
        HpHandle {
            slot: self.registry.claim(),
            domain: self,
            limbo: Vec::new(),
            local_stats: LocalStats::new(),
            mag: self.pool.magazine(),
        }
    }

    fn stats(&self) -> &SmrStats {
        &self.stats
    }

    fn name() -> &'static str {
        "HP"
    }

    fn robust() -> bool {
        true
    }

    fn needs_seek_validation() -> bool {
        // A hazard published after a node's retirement is invisible to the
        // scan that frees it; traversals must re-validate reachability.
        true
    }
}

impl<T: Send + 'static> Drop for Hp<T> {
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

/// Per-thread handle to an [`Hp`] domain.
pub struct HpHandle<'d, T: Send + 'static> {
    domain: &'d Hp<T>,
    slot: usize,
    limbo: Vec<*mut SmrNode<T>>,
    local_stats: LocalStats,
    mag: Magazine,
}

// SAFETY: the limbo list holds exclusively owned retired nodes and the
// registry slot index stays valid wherever the handle runs; the domain
// borrow is `Sync`. A parked handle may therefore move between tasks.
unsafe impl<T: Send + 'static> Send for HpHandle<'_, T> {}

impl<T: Send + 'static> std::fmt::Debug for HpHandle<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HpHandle")
            .field("slot", &self.slot)
            .field("limbo", &self.limbo.len())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> HpHandle<'_, T> {
    fn adopt_orphans(&mut self) {
        let chain = self.domain.orphans.take_all();
        if chain.is_null() {
            return;
        }
        unsafe {
            OrphanList::for_each_owned(chain, |node| self.limbo.push(node));
        }
    }

    /// Michael's scan: collect all published hazards, then free every limbo
    /// node whose address is not among them.
    fn scan(&mut self) {
        self.adopt_orphans();
        fence(Ordering::SeqCst);
        let domain = self.domain;
        let mut hazards: Vec<usize> = Vec::with_capacity(16);
        for idx in domain.registry.iter_claimed() {
            for hp in domain.hazards[idx].slots.iter() {
                let addr = hp.load(Ordering::SeqCst);
                if addr != 0 {
                    hazards.push(addr);
                }
            }
        }
        hazards.sort_unstable();
        let mut freed = 0u64;
        let domain = self.domain;
        let mag = &mut self.mag;
        self.limbo.retain(|&node| {
            if hazards.binary_search(&(node as usize)).is_ok() {
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

    fn clear_hazards(&mut self) {
        for hp in self.domain.hazards[self.slot].slots.iter() {
            hp.store(0, Ordering::Release);
        }
    }
}

impl<T: Send + 'static> SmrHandle<T> for HpHandle<'_, T> {
    fn enter(&mut self) {}

    fn leave(&mut self) {
        self.clear_hazards();
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

    /// Publish-and-validate (the HP protocol): store the candidate address
    /// in hazard slot `idx`, fence, and re-read the source until it is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below [`SmrConfig::max_protect`].
    fn protect(&mut self, idx: usize, src: &Atomic<T>) -> Shared<T> {
        let hp = &self.domain.hazards[self.slot].slots[idx];
        let mut p = src.load(Ordering::Acquire);
        loop {
            hp.store(p.as_node_ptr() as usize, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            let now = src.load(Ordering::Acquire);
            if now == p {
                return p;
            }
            p = now;
        }
    }

    fn copy_protection(&mut self, from: usize, to: usize) {
        let slots = &self.domain.hazards[self.slot].slots;
        // The node is already protected by `from`, so a plain publish of the
        // same address cannot race with its reclamation.
        let addr = slots[from].load(Ordering::Relaxed);
        slots[to].store(addr, Ordering::SeqCst);
    }

    unsafe fn retire(&mut self, ptr: Shared<T>) {
        self.local_stats.on_retire(&self.domain.stats);
        self.limbo.push(ptr.as_node_ptr());
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

impl<T: Send + 'static> Drop for HpHandle<'_, T> {
    fn drop(&mut self) {
        self.clear_hazards();
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

    fn domain() -> Hp<u64> {
        Hp::with_config(SmrConfig {
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
        for i in 0..100u64 {
            h.enter();
            let n = h.alloc(i);
            unsafe { h.retire(n) };
            h.leave();
        }
        h.flush();
        assert_eq!(d.stats().freed(), 100);
        drop(h);
    }

    #[test]
    fn hazard_blocks_reclamation_of_protected_node() {
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
                assert!(!seen.is_null());
                protected.wait();
                release.wait();
                // Still protected by our hazard even though it was retired.
                assert_eq!(unsafe { *seen.deref() }, 21);
                reader.leave();
            });
            let mut writer = d.handle();
            writer.enter();
            let node = writer.alloc(21);
            link.store(node, Ordering::Release);
            published.wait();
            protected.wait();
            let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
            unsafe { writer.retire(unlinked) };
            writer.leave();
            writer.flush(); // must NOT free the hazarded node
            assert_eq!(d.stats().unreclaimed(), 1);
            release.wait();
        });
        // Reader left; a final flush reclaims it.
        let mut h = d.handle();
        h.flush();
        assert_eq!(d.stats().unreclaimed(), 0);
        drop(h);
    }

    #[test]
    fn robust_against_stalled_thread() {
        // A stalled thread pins at most its hazard slots, not the world.
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
                unreclaimed < 100,
                "HP must stay robust; {unreclaimed} nodes pinned"
            );
            done.wait();
        });
    }

    #[test]
    fn protect_validates_against_racing_unlink() {
        let d = &domain();
        let link = &Atomic::<u64>::null();
        let stop = &std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // Writer keeps replacing the node.
            s.spawn(move || {
                let mut w = d.handle();
                for i in 0..5_000u64 {
                    w.enter();
                    let fresh = w.alloc(i);
                    let old = link.swap(fresh, Ordering::AcqRel);
                    if !old.is_null() {
                        unsafe { w.retire(old) };
                    }
                    w.leave();
                }
                stop.store(true, Ordering::Release);
            });
            // Reader dereferences protected pointers the whole time; any
            // use-after-free here would be caught by invalid payloads (or
            // ASAN-style crashes).
            s.spawn(move || {
                let mut r = d.handle();
                while !stop.load(Ordering::Acquire) {
                    r.enter();
                    let p = r.protect(0, link);
                    if !p.is_null() {
                        let v = unsafe { *p.deref() };
                        assert!(v < 5_000);
                    }
                    r.leave();
                }
            });
        });
    }
}
