//! Test bodies for the core. Bodies generic over `S: Smr` run on every
//! alias; the rest exercise one variant's own machinery. The `#[test]`
//! instances live in one module per variant at the crate root.

use super::*;
use crate::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
use std::sync::atomic::AtomicI64;
use std::sync::{Arc, Barrier};

pub(crate) use smr_core::SmrConfig;

/// Instantiates the bodies every variant shares for the domain alias `$d`.
macro_rules! shared_bodies {
    ($d:ident) => {
        #[test]
        fn partial_batch_finalized_on_drop() {
            crate::core::tests::partial_batch_finalized_on_drop::<crate::$d<u64>>();
        }
        #[test]
        fn dealloc_unpublished_node() {
            crate::core::tests::dealloc_unpublished_node::<crate::$d<u64>>();
        }
        #[test]
        fn payload_drops_exactly_once() {
            crate::core::tests::payload_drops_exactly_once::<crate::$d<crate::core::tests::Tracked>>();
        }
        #[test]
        fn recycling_reuses_memory_and_stays_balanced() {
            crate::core::tests::recycling_reuses_memory_and_stays_balanced::<crate::$d<u64>>();
        }
    };
}
pub(crate) use shared_bodies;

/// The configuration most bodies share: 4 shared slots (effective batch
/// size 5), small owned-slot batches, fast eras and a low `Ack` threshold.
pub(crate) fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 4,
        era_freq: 4,
        ack_threshold: 64,
        max_threads: 32,
        ..SmrConfig::default()
    }
}

/// `ops` rounds of enter / alloc / retire / leave on one handle.
fn churn<S: Smr<u64>>(domain: &S, ops: u64, base: u64) {
    let mut h = domain.handle();
    for i in 0..ops {
        h.enter();
        let node = h.alloc(base + i);
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
        h.leave();
    }
}

fn assert_reclaimed<T: Send + 'static, S: Smr<T>>(domain: &S) {
    assert!(domain.stats().balanced());
    assert_eq!(
        domain.stats().allocated(),
        domain.stats().freed(),
        "all retired + dummy nodes freed after quiescence"
    );
}

pub(crate) fn single_thread_reclaims<S: Smr<u64>>() {
    let domain = S::with_config(cfg());
    churn(&domain, 200, 0);
    assert_reclaimed(&domain);
}

pub(crate) fn stress<S: Smr<u64>>(config: SmrConfig, threads: u64, ops: u64) {
    let domain = &S::with_config(config);
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || churn(domain, ops, t * 1_000_000));
        }
    });
    assert_reclaimed(domain);
}

pub(crate) fn partial_batch_finalized_on_drop<S: Smr<u64>>() {
    let domain = S::with_config(cfg());
    // One node in the local batch; drop must dummy-pad and insert.
    churn(&domain, 1, 0);
    assert!(domain.stats().balanced());
    assert!(domain.stats().freed() >= 1);
}

pub(crate) fn dealloc_unpublished_node<S: Smr<u64>>() {
    let domain = S::with_config(cfg());
    let mut h = domain.handle();
    let node = h.alloc(5);
    // SAFETY: `node` was never published; dealloc-in-place is allowed.
    unsafe { h.dealloc(node) };
    drop(h);
    assert!(domain.stats().balanced());
    assert_eq!(domain.stats().deallocated(), 1);
}

/// Trimming mid-operation reclaims batches retired since `enter`. The
/// handle publishes its access era before retiring, so robust variants
/// insert into its slot instead of skipping it.
pub(crate) fn trim_reclaims_mid_operation<S: Smr<u64>>() {
    let domain = &S::with_config(SmrConfig {
        slots: 1, // single list: the trimming thread sees every batch
        batch_min: 2,
        max_threads: 4,
        ..cfg()
    });
    let mut h = domain.handle();
    h.enter();
    let nodes: Vec<_> = (0..16u64).map(|i| h.alloc(i)).collect();
    h.protect(0, &Atomic::null());
    for node in nodes {
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
    }
    h.flush(); // insert any partial batch
    let before = domain.stats().freed();
    h.trim();
    let after = domain.stats().freed();
    assert!(
        after > before,
        "trim must reclaim batches retired since enter (before={before}, after={after})"
    );
    h.leave();
    drop(h);
    assert!(domain.stats().balanced());
}

/// A payload that counts live instances, so a leak or a double drop shows.
pub(crate) struct Tracked(Arc<AtomicI64>);

impl Drop for Tracked {
    fn drop(&mut self) {
        let prev = self.0.fetch_sub(1, Ordering::Relaxed);
        assert!(prev > 0, "double drop detected");
    }
}

pub(crate) fn payload_drops_exactly_once<S: Smr<Tracked>>() {
    let live = &Arc::new(AtomicI64::new(0));
    let domain = &S::with_config(SmrConfig {
        slots: 2,
        batch_min: 3,
        ..SmrConfig::default()
    });
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                let mut h = domain.handle();
                for _ in 0..1_000 {
                    h.enter();
                    live.fetch_add(1, Ordering::Relaxed);
                    let node = h.alloc(Tracked(Arc::clone(live)));
                    // SAFETY: the node is thread-local until retired.
                    unsafe { h.retire(node) };
                    h.leave();
                }
            });
        }
    });
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "payload leak or double drop"
    );
    assert!(domain.stats().balanced());
}

pub(crate) fn recycling_reuses_memory_and_stays_balanced<S: Smr<u64>>() {
    let domain = &S::with_config(SmrConfig {
        slots: 2,
        batch_min: 3,
        recycle: true,
        recycle_capacity: 1024,
        recycle_magazine: 8,
        ..SmrConfig::default()
    });
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || churn(domain, 2_000, t * 10_000));
        }
    });
    // Logical accounting is untouched by recycling...
    assert_reclaimed(domain);
    // ...while the allocator fast path actually engaged.
    assert!(domain.stats().recycled() > 0, "reclaim fed the pool");
    assert!(domain.stats().pool_hits() > 0, "alloc drew from the pool");
}

/// A reader inside an operation pins the batches retired after its
/// `enter`; once it leaves, they are freed.
pub(crate) fn reader_pins_batches_until_leave<S: Smr<u64>>() {
    let domain = &S::with_config(cfg());
    let entered = &Barrier::new(2);
    let retired = &Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut reader = domain.handle();
            reader.enter();
            entered.wait();
            retired.wait();
            // While inside, batches inserted into our slot are pinned.
            let pinned = domain.stats().unreclaimed();
            assert!(pinned > 0, "expected pinned batches, got {pinned}");
            reader.leave();
        });
        entered.wait();
        // Retire enough for several full batches.
        churn(domain, 64, 0);
        retired.wait();
    });
    assert_reclaimed(domain);
}

/// The robustness property: a thread parked inside an operation must not
/// pin nodes allocated after its access era went stale.
pub(crate) fn stalled_thread_is_skipped_by_era<S: Smr<u64>>(config: SmrConfig) {
    let domain = &S::with_config(config);
    let entered = &Barrier::new(2);
    let done = &Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut stalled = domain.handle();
            stalled.enter();
            entered.wait();
            done.wait(); // "stalled" inside the operation
            stalled.leave();
        });
        entered.wait();
        // Every node is born after the stalled thread's access era, so its
        // slot is skipped and memory keeps being reclaimed.
        churn(domain, 10_000, 0);
        let unreclaimed = domain.stats().unreclaimed();
        assert!(
            unreclaimed < 1_000,
            "stalled thread pinned {unreclaimed} nodes; robustness violated"
        );
        done.wait();
    });
    assert!(domain.stats().balanced());
}

/// A reader whose access era is current must pin batches it could
/// reference; they reclaim once it leaves.
pub(crate) fn fresh_reader_is_tracked_not_skipped<S: Smr<u64>>() {
    let domain = &S::with_config(cfg());
    let published = &Barrier::new(2);
    let protected = &Barrier::new(2);
    let release = &Barrier::new(2);
    let link = &Atomic::<u64>::null();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut reader = domain.handle();
            reader.enter();
            published.wait();
            let seen = reader.protect(0, link);
            assert!(!seen.is_null());
            // SAFETY: `seen` came from `protect` inside the operation.
            assert_eq!(unsafe { *seen.deref() }, 42);
            protected.wait();
            release.wait();
            // SAFETY: still protected — the era reservation pins `seen`.
            assert_eq!(unsafe { *seen.deref() }, 42);
            reader.leave();
        });
        let mut writer = domain.handle();
        writer.enter();
        let node = writer.alloc(42);
        link.store(node, Ordering::Release);
        published.wait();
        protected.wait();
        // Unlink and retire while the reader holds a protected pointer.
        let unlinked = link.swap(Shared::null(), Ordering::AcqRel);
        // SAFETY: the swap unlinked the node from the only shared link.
        unsafe { writer.retire(unlinked) };
        writer.leave();
        writer.flush();
        release.wait();
    });
    assert_reclaimed(domain);
}

/// Threads (handles) created and destroyed dynamically, with retired nodes
/// in flight: dropped handles must leave nothing on the hook.
pub(crate) fn churn_of_handles_is_transparent<S: Smr<u64>>() {
    let domain = &S::with_config(cfg());
    for round in 0..50u64 {
        churn(domain, 1, round); // the drop finalizes the partial batch
    }
    assert_reclaimed(domain);
}

pub(crate) fn adjs_constant_matches_paper() {
    // k = 1 -> Adjs = 0 (unsigned overflow); k = 8 with 64-bit -> 2^61.
    assert_eq!(adjs_for(1), 0);
    assert_eq!(adjs_for(8), 1usize << 61);
    // k * Adjs == 0 (mod 2^64) for every power of two.
    for shift in 0..16 {
        let k = 1usize << shift;
        assert_eq!(adjs_for(k).wrapping_mul(k), 0);
    }
}

pub(crate) fn protect_is_plain_load() {
    let domain = Hyaline::<u64>::with_config(cfg());
    let mut h = domain.handle();
    h.enter();
    let node = h.alloc(42);
    let link = Atomic::new(node);
    let seen = h.protect(0, &link);
    assert_eq!(seen, node);
    // SAFETY: we are inside the operation, so `seen` is pinned and live.
    assert_eq!(unsafe { *seen.deref() }, 42);
    // SAFETY: `link` is local to this test; no other thread sees `node`.
    unsafe { h.retire(node) };
    h.leave();
}

pub(crate) fn handles_own_distinct_slots() {
    let domain = Hyaline1::<u64>::with_config(cfg());
    let h1 = domain.handle();
    let h2 = domain.handle();
    assert_ne!(h1.slot(), h2.slot());
    drop(h1);
    let h3 = domain.handle();
    // The released slot is reused.
    assert_eq!(h3.slot(), 0);
    drop(h2);
    drop(h3);
}

/// Regression test: a partial batch (2 nodes after dummy padding) flushed
/// while more than 2 owned slots are active must extend with a fresh dummy
/// *per slot*; re-inserting a chain node into a second slot list corrupts
/// the first list.
pub(crate) fn partial_batch_flush_with_many_active_slots() {
    let domain = &Hyaline1::<u64>::with_config(SmrConfig {
        batch_min: 64, // never filled during the test: flush is partial
        max_threads: 16,
        ..SmrConfig::default()
    });
    let readers = 6;
    let inside = &Barrier::new(readers + 1);
    let flushed = &Barrier::new(readers + 1);
    std::thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(move || {
                let mut h = domain.handle();
                h.enter(); // slot active: the flusher must cover us
                inside.wait();
                flushed.wait();
                h.leave(); // traverses whatever the flusher inserted
            });
        }
        let mut w = domain.handle();
        inside.wait();
        w.enter();
        let node = w.alloc(7);
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { w.retire(node) };
        w.leave();
        w.flush(); // 1 real node + dummies, inserted into 6+ active slots
        flushed.wait();
    });
    assert_reclaimed(domain);
}

fn domain_s(slots: usize, adaptive: bool) -> HyalineS<u64> {
    HyalineS::with_config(SmrConfig {
        slots,
        adaptive,
        max_threads: 256,
        ..cfg()
    })
}

/// Sets the `Ack` counter of the first `n` slots.
fn saturate(domain: &HyalineS<u64>, acks: &[i64]) {
    for (i, &ack) in acks.iter().enumerate() {
        domain.list.dir.slot(i).ack.store(ack, Ordering::Relaxed);
    }
}

pub(crate) fn birth_era_recorded_on_alloc() {
    let d = domain_s(2, false);
    let mut h = d.handle();
    h.enter();
    let node = h.alloc(1);
    // SAFETY: `node` is live and local; reading its header word is safe.
    let birth = unsafe { node.header() }
        .word(W_NEXT)
        .load(Ordering::Relaxed) as u64;
    assert!(birth >= 1, "birth era must be stamped");
    assert!(birth <= d.era());
    // SAFETY: `node` was never published; no other reference exists.
    unsafe { h.retire(node) };
    h.leave();
}

pub(crate) fn protect_raises_access_era() {
    let d = domain_s(2, false);
    let mut h = d.handle();
    h.enter();
    let node = h.alloc(5);
    let link = Atomic::new(node);
    // Advance the clock so the slot's era is stale.
    for _ in 0..10 {
        d.era.advance();
    }
    let seen = h.protect(0, &link);
    assert_eq!(seen, node);
    let slot_era = d.list.dir.slot(h.slot()).access.load(Ordering::SeqCst);
    assert_eq!(slot_era, d.era(), "deref must sync the slot era");
    // SAFETY: `link` is local to this test; no other thread sees `node`.
    unsafe { h.retire(node) };
    h.leave();
}

pub(crate) fn enter_avoids_saturated_slots() {
    let d = domain_s(4, false);
    saturate(&d, &[1 << 20]);
    let mut h = d.handle();
    // Force the preferred slot to 0, then enter: it must move away.
    h.books.slot = 0;
    h.enter();
    assert_ne!(h.slot(), 0, "enter must skip the saturated slot");
    h.leave();
    saturate(&d, &[0]);
}

pub(crate) fn adaptive_growth_when_all_slots_saturated() {
    let d = domain_s(2, true);
    saturate(&d, &[1 << 20, 1 << 20]);
    assert_eq!(d.slot_count(), 2);
    let mut h = d.handle();
    h.enter();
    // The directory must have grown and the handle moved to a new slot.
    assert!(d.slot_count() >= 4, "directory did not grow");
    assert!(h.slot() >= 2, "handle still in a saturated slot");
    h.leave();
    saturate(&d, &[0, 0]);
}

pub(crate) fn capped_variant_falls_back_to_least_saturated() {
    let d = domain_s(2, false);
    saturate(&d, &[1 << 20, 1 << 30]);
    let mut h = d.handle();
    h.enter();
    assert_eq!(d.slot_count(), 2, "capped directory must not grow");
    assert_eq!(h.slot(), 0, "expected the least-saturated slot");
    h.leave();
    saturate(&d, &[0, 0]);
}

#[test]
fn names_and_capabilities_per_alias() {
    fn caps<S: Smr<u64>>() -> (&'static str, bool, bool, bool, bool) {
        (
            S::name(),
            S::robust(),
            S::supports_trim(),
            S::shardable_by_pointer(),
            S::needs_seek_validation(),
        )
    }
    assert_eq!(
        caps::<Hyaline<u64>>(),
        ("Hyaline", false, true, true, false)
    );
    assert_eq!(
        caps::<Hyaline1<u64>>(),
        ("Hyaline-1", false, true, true, false)
    );
    assert_eq!(
        caps::<HyalineS<u64>>(),
        ("Hyaline-S", true, true, false, true)
    );
    assert_eq!(
        caps::<Hyaline1S<u64>>(),
        ("Hyaline-1S", true, true, false, true)
    );
}
