//! Node-recycling pool semantics through the public scheme API.
//!
//! Five guarantees the recycle layer must uphold regardless of scheme:
//!
//! 1. **Capacity overflow falls back to the real allocator.** A pool sized
//!    far below the churn volume must evict to `dealloc` without leaking or
//!    double-dropping payloads.
//! 2. **Cross-thread recycling balances exactly.** Nodes allocated on one
//!    thread, retired by another, and reissued from the reclaimer's
//!    magazine still drop every payload exactly once.
//! 3. **Layout mismatches fall through.** A pool keyed to one node layout
//!    must hand other layouts straight to the global allocator — no pooled
//!    memory of the wrong size is ever reissued.
//! 4. **Domain drop drains pools with zero leaks.** Allocations resident in
//!    magazines and partitions when the domain dies are returned to the
//!    allocator; their payloads were already dropped at dispose time.
//! 5. **Dummy nodes come from the pool too.** The padding of a partial batch
//!    and the per-slot dummies an owned-slot batch grows by are allocations
//!    like any other: each one is a pool hit or a pool miss.
//! 6. **A freed batch goes to the pool whole.** Hyaline and Crystalline hand
//!    a reclaimed batch over in one step, so `recycled` grows by exactly the
//!    batch's node count, padding and owned-slot dummies included, and a
//!    payload that needs `Drop` is dropped once, when the batch is freed,
//!    never when its memory is reused.
//! 7. **Pooled memory stays bounded under handle churn.** A sharded domain
//!    whose handles are checked out and in for every operation keeps its
//!    ledger balanced, and each shard's pool never holds more than
//!    `recycle_capacity` nodes.
//!
//! Payload-level balance is asserted with [`DropRegistry`]-tracked values
//! (a leak shows as a missing drop, a stale reissue as a double drop at the
//! drop site); node-level balance with [`smr_core::SmrStats::balanced`],
//! which recycling must not disturb — pooled residency is a property of the
//! *memory*, not of the logical alloc/free ledger.

use lockfree_ds::{ListNode, MichaelHashMap};
use smr_core::{
    Atomic, HandlePool, Magazine, NodePool, Sharded, Shared, Smr, SmrConfig, SmrHandle, SmrNode,
    SmrStats,
};
use smr_testkit::{DropRegistry, Tracked};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 2_000;

fn base_cfg() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 8,
        era_freq: 16,
        scan_threshold: 16,
        max_threads: 32,
        ..SmrConfig::default()
    }
}

/// Shared-slot churn: every thread alternates private alloc/retire with
/// publishing into a common slot, so nodes routinely migrate between
/// threads before they are retired and recycled. Returns
/// `(pool_hits, recycled)` sampled after all handles have flushed but
/// before the domain drops, plus the registry for payload assertions.
fn churn<S: Smr<Tracked<u64>>>(config: SmrConfig, registry: &DropRegistry) -> (u64, u64) {
    let domain = S::with_config(config);
    let slot: Atomic<Tracked<u64>> = Atomic::null();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let domain = &domain;
            let slot = &slot;
            scope.spawn(move || {
                let mut h = domain.handle();
                for i in 0..OPS_PER_THREAD {
                    h.enter();
                    let node = h.alloc(registry.track(t * OPS_PER_THREAD + i));
                    if i % 2 == 0 {
                        let prev = slot.swap(node, Ordering::AcqRel);
                        if !prev.is_null() {
                            // SAFETY: `swap` made `prev` unreachable and
                            // this thread is its only extractor.
                            unsafe { h.retire(prev) };
                        }
                    } else {
                        // SAFETY: never published; no other reference.
                        unsafe { h.retire(node) };
                    }
                    h.leave();
                }
                h.flush();
            });
        }
    });
    let mut h = domain.handle();
    h.enter();
    let last = slot.swap(Shared::null(), Ordering::AcqRel);
    if !last.is_null() {
        // SAFETY: the slot is private now; `last` has no other owner.
        unsafe { h.retire(last) };
    }
    h.leave();
    h.flush();
    drop(h);
    let stats = domain.stats();
    assert!(
        stats.balanced(),
        "{}: recycling disturbed the logical ledger (allocated {} != freed {} + deallocated {})",
        S::name(),
        stats.allocated(),
        stats.freed(),
        stats.deallocated()
    );
    (stats.pool_hits(), stats.recycled())
    // Domain drop drains magazines and partitions back to the allocator.
}

/// Scenario 1: the pool is sized at a small fraction of the churn volume,
/// so most disposals overflow the partitions and must take the real-dealloc
/// fallback. Payload balance must survive the constant evictions.
#[test]
fn capacity_overflow_falls_back_to_real_dealloc() {
    let registry = DropRegistry::new();
    let (_, recycled) = churn::<smr_baselines::Ebr<Tracked<u64>>>(
        SmrConfig {
            recycle: true,
            recycle_capacity: 8,
            recycle_magazine: 2,
            ..base_cfg()
        },
        &registry,
    );
    // The reclaim path routed through the pool far beyond its capacity, so
    // overflow evictions (real deallocs of recycled nodes) definitely ran.
    assert!(
        recycled > 8 * 2,
        "churn never overflowed the pool (recycled = {recycled})"
    );
    registry.assert_quiescent();
    assert_eq!(registry.created(), THREADS * OPS_PER_THREAD);
}

/// Scenario 2: with a comfortably sized pool, allocations are served from
/// memory that other threads released — and every payload still drops
/// exactly once. Run for Hyaline (batched, deferred free) and EBR (eager
/// scan free) since their reclaim paths reach `dispose` very differently.
#[test]
fn cross_thread_recycle_balances_hyaline() {
    let registry = DropRegistry::new();
    let (hits, recycled) =
        churn::<hyaline::Hyaline<Tracked<u64>>>(recycling(base_cfg()), &registry);
    assert!(hits > 0, "pool never served an allocation");
    assert!(recycled > 0, "reclaim path never reached the pool");
    registry.assert_quiescent();
    assert_eq!(registry.created(), THREADS * OPS_PER_THREAD);
}

#[test]
fn cross_thread_recycle_balances_crystalline_l() {
    let registry = DropRegistry::new();
    let (hits, recycled) =
        churn::<crystalline::CrystallineL<Tracked<u64>>>(recycling(base_cfg()), &registry);
    assert!(hits > 0, "pool never served an allocation");
    assert!(recycled > 0, "reclaim path never reached the pool");
    registry.assert_quiescent();
    assert_eq!(registry.created(), THREADS * OPS_PER_THREAD);
}

fn recycling(base: SmrConfig) -> SmrConfig {
    SmrConfig {
        recycle: true,
        recycle_capacity: 4096,
        recycle_magazine: 32,
        ..base
    }
}

/// Scenario 3: a pool keyed to one node layout must pass other layouts
/// straight through to the global allocator, while same-layout traffic
/// keeps cycling through the pool. Exercised on [`NodePool`] directly —
/// inside a scheme the pool is keyed to the domain's own node type, so the
/// fall-through arm is reachable only through this API.
#[test]
fn layout_mismatch_falls_through_to_plain_alloc() {
    let registry = DropRegistry::new();
    let stats = SmrStats::new();
    let config = recycling(SmrConfig::default());
    let pool = NodePool::for_node::<u64>(&config);
    assert!(pool.enabled());
    let mut mag: Magazine = pool.magazine();

    // Same-layout round trip: the second alloc reuses the first node's
    // memory (dispose parked it in this magazine, alloc pops it back).
    let first = pool.alloc::<u64>(&mut mag, &stats, 7);
    let first_addr = first.as_ptr() as usize;
    // SAFETY: `first` is unpublished and exclusively owned; payload live.
    unsafe { pool.dispose(&mut mag, &stats, first.as_ptr(), true) };
    let second = pool.alloc::<u64>(&mut mag, &stats, 8);
    assert_eq!(
        second.as_ptr() as usize,
        first_addr,
        "same-layout alloc did not reuse the pooled node"
    );
    // SAFETY: as above.
    unsafe { pool.dispose(&mut mag, &stats, second.as_ptr(), true) };

    // Mismatched layout: a wider payload must bypass the pool entirely —
    // its dispose drops the tracked payload and frees for real, touching
    // none of the pool counters.
    let wide = pool.alloc::<(Tracked<u64>, [u64; 8])>(&mut mag, &stats, (registry.track(1), [0; 8]));
    // SAFETY: `wide` is unpublished and exclusively owned; payload live.
    unsafe { pool.dispose(&mut mag, &stats, wide.as_ptr(), true) };
    registry.assert_quiescent();

    pool.flush(&mut mag, &stats);
    assert_eq!(stats.pool_hits(), 1, "only the same-layout realloc may hit");
    assert_eq!(stats.pool_misses(), 1, "only the first cold alloc may miss");
    assert_eq!(stats.recycled(), 2, "mismatched dispose must not be pooled");
    // Pool drop returns the parked allocation to the global allocator.
}

/// Scenario 4: tear the domain down while the pool is still full of parked
/// allocations. The domain's drop must hand every one of them back to the
/// allocator, and since dispose already dropped the payloads, the registry
/// balance is exact — nothing drops twice during the drain.
#[test]
fn domain_drop_drains_pools_without_leaks() {
    let registry = DropRegistry::new();
    let (hits, recycled) =
        churn::<hyaline::Hyaline<Tracked<u64>>>(recycling(base_cfg()), &registry);
    // The pool was comfortably sized, so allocations were genuinely parked
    // (and reissued) rather than evicted straight back to the allocator.
    assert!(hits > 0 && recycled > 0, "pool saw no traffic to drain");
    // `churn` dropped the domain on exit; the drain already happened.
    registry.assert_quiescent();
    assert_eq!(registry.created(), THREADS * OPS_PER_THREAD);
}

/// Scenario 5: six readers sit inside an operation with current access
/// eras while one partial batch (a single retired node) is flushed. Shared
/// slots pad the batch up front; owned slots (Hyaline-1/1S, Crystalline)
/// extend it with one dummy per active reader during insertion. Either
/// way every allocation the ledger counts went through the pool.
fn dummies_through_pool<S: Smr<Tracked<u64>>>(registry: &DropRegistry) {
    const READERS: usize = 6;
    let domain = S::with_config(recycling(SmrConfig {
        batch_min: 64,      // never filled: the flush is partial
        era_freq: 1 << 20, // no era advance, so no reader goes stale
        ..base_cfg()
    }));
    let link: Atomic<Tracked<u64>> = Atomic::null();
    let inside = std::sync::Barrier::new(READERS + 1);
    let flushed = std::sync::Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                let mut h = domain.handle();
                h.enter();
                h.protect(0, &link); // publish a current access era
                inside.wait();
                flushed.wait();
                h.leave();
            });
        }
        let mut w = domain.handle();
        inside.wait();
        w.enter();
        let node = w.alloc(registry.track(7));
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { w.retire(node) };
        w.leave();
        w.flush();
        flushed.wait();
    });
    let stats = domain.stats();
    assert!(stats.balanced(), "{}: ledger unbalanced", S::name());
    assert_eq!(
        stats.pool_hits() + stats.pool_misses(),
        stats.allocated(),
        "{}: an allocation bypassed the recycle pool",
        S::name()
    );
}

#[test]
fn dummy_nodes_are_drawn_from_the_pool() {
    let registry = DropRegistry::new();
    dummies_through_pool::<hyaline::Hyaline<Tracked<u64>>>(&registry);
    dummies_through_pool::<hyaline::Hyaline1<Tracked<u64>>>(&registry);
    dummies_through_pool::<hyaline::HyalineS<Tracked<u64>>>(&registry);
    dummies_through_pool::<hyaline::Hyaline1S<Tracked<u64>>>(&registry);
    dummies_through_pool::<crystalline::CrystallineL<Tracked<u64>>>(&registry);
    dummies_through_pool::<crystalline::CrystallineW<Tracked<u64>>>(&registry);
    registry.assert_quiescent();
}

/// Scenario 6: one partial batch is flushed while six readers sit inside an
/// operation, then freed by the last reader to leave. Shared slots pad it
/// to `slots + 1` nodes; owned slots grow it by one dummy per active reader
/// beyond its single insertion node. Either way the whole batch reaches the
/// pool in one hand-off: `recycled` equals the batch's node count. The
/// payload is a plain `u64`, so the hand-off visits no node at all.
fn batch_recycled_whole<S: Smr<u64>>(nodes: u64) {
    const READERS: usize = 6;
    let domain = S::with_config(recycling(SmrConfig {
        batch_min: 64,     // never filled: the flush is partial
        era_freq: 1 << 20, // no era advance, so no reader goes stale
        ..base_cfg()
    }));
    let link: Atomic<u64> = Atomic::null();
    let inside = std::sync::Barrier::new(READERS + 1);
    let flushed = std::sync::Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                let mut h = domain.handle();
                h.enter();
                h.protect(0, &link); // publish a current access era
                inside.wait();
                flushed.wait();
                h.leave();
            });
        }
        let mut w = domain.handle();
        inside.wait();
        w.enter();
        let node = w.alloc(7);
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { w.retire(node) };
        w.leave();
        w.flush();
        flushed.wait();
    });
    let stats = domain.stats();
    assert_eq!(stats.allocated(), nodes, "{}: batch size", S::name());
    assert_eq!(stats.freed(), nodes, "{}: batch not freed", S::name());
    assert_eq!(
        stats.recycled(),
        nodes,
        "{}: the freed batch did not reach the pool whole",
        S::name()
    );
}

#[test]
fn freed_batch_is_recycled_whole_with_its_padding_and_dummies() {
    // base_cfg has 4 shared slots: 1 node + 4 padding dummies.
    batch_recycled_whole::<hyaline::Hyaline<u64>>(5);
    batch_recycled_whole::<hyaline::HyalineS<u64>>(5);
    // Owned slots: 1 node + 1 padding dummy, whose head is the insertion
    // node of the first active reader; 5 more readers each take a dummy.
    batch_recycled_whole::<hyaline::Hyaline1<u64>>(7);
    batch_recycled_whole::<hyaline::Hyaline1S<u64>>(7);
    batch_recycled_whole::<crystalline::CrystallineL<u64>>(7);
    batch_recycled_whole::<crystalline::CrystallineW<u64>>(7);
}

/// A payload that needs `Drop` is dropped exactly once, when the scheme
/// frees its batch; reusing the node's memory afterwards drops nothing.
fn payload_drops_at_free<S: Smr<Tracked<u64>>>() {
    const N: u64 = 32;
    let registry = DropRegistry::new();
    let domain = S::with_config(recycling(base_cfg()));
    let mut h = domain.handle();
    h.enter();
    for i in 0..N {
        let node = h.alloc(registry.track(i));
        // SAFETY: `node` was never published; no other reference exists.
        unsafe { h.retire(node) };
    }
    h.leave();
    h.flush(); // the last partial batch: no thread is inside, so it frees
    assert_eq!(
        domain.stats().retired(),
        domain.stats().freed(),
        "{}",
        S::name()
    );
    assert_eq!(
        registry.dropped(),
        N,
        "{}: payloads must drop when their batch is freed",
        S::name()
    );
    h.enter();
    let reused: Vec<_> = (0..N).map(|i| h.alloc(registry.track(N + i))).collect();
    assert_eq!(
        registry.dropped(),
        N,
        "{}: reusing node memory dropped a payload",
        S::name()
    );
    for node in reused {
        // SAFETY: never published; no other reference exists.
        unsafe { h.retire(node) };
    }
    h.leave();
    h.flush();
    drop(h);
    assert!(
        domain.stats().pool_hits() >= N,
        "{}: the second round did not reuse the freed memory",
        S::name()
    );
    assert_eq!(registry.dropped(), 2 * N, "{}", S::name());
    registry.assert_quiescent();
}

#[test]
fn payload_drops_once_at_free_not_at_reuse() {
    payload_drops_at_free::<hyaline::Hyaline<Tracked<u64>>>();
    payload_drops_at_free::<hyaline::Hyaline1<Tracked<u64>>>();
    payload_drops_at_free::<hyaline::HyalineS<Tracked<u64>>>();
    payload_drops_at_free::<hyaline::Hyaline1S<Tracked<u64>>>();
    payload_drops_at_free::<crystalline::CrystallineL<Tracked<u64>>>();
    payload_drops_at_free::<crystalline::CrystallineW<Tracked<u64>>>();
}

/// A value whose map node has a layout no other test in this binary
/// allocates, so [`CountingAlloc`] can count exactly those nodes.
#[derive(Clone, Debug)]
#[repr(align(64))]
struct Wide(#[allow(dead_code)] u64);

type WideNode = ListNode<u64, Wide>;

/// Live allocations with the layout of `SmrNode<WideNode>`.
static WIDE_LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live `SmrNode<WideNode>` allocations:
/// the real memory the pool holds, wherever it sits.
struct CountingAlloc;

fn is_wide(layout: Layout) -> bool {
    layout == Layout::new::<SmrNode<WideNode>>()
}

// SAFETY: every call is forwarded unchanged to `System`; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if is_wide(layout) {
            WIDE_LIVE.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if is_wide(layout) {
            WIDE_LIVE.fetch_sub(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded `GlobalAlloc::dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Scenario 7: the kv-service pattern on a small pool. Every operation
/// checks a handle out of a `HandlePool`, runs one map operation on a
/// `Sharded<Hyaline>` map, and checks it in again (which flushes the
/// handle's batches; its magazines stay with the parked handle).
#[test]
fn sharded_checkout_loop_stays_balanced_and_bounded() {
    const SHARDS: usize = 2;
    const CAPACITY: usize = 24;
    const MAGAZINE: usize = 4;
    const HANDLES: usize = 2;
    const OPS: u64 = 4_000;
    type Map = MichaelHashMap<u64, Wide, Sharded<hyaline::Hyaline<WideNode>>>;
    let config = SmrConfig {
        shards: SHARDS,
        recycle: true,
        recycle_capacity: CAPACITY,
        recycle_magazine: MAGAZINE,
        ..base_cfg()
    };
    let before = WIDE_LIVE.load(Ordering::Relaxed);
    {
        let map = Map::with_config(config);
        let pool = HandlePool::new(map.domain(), HANDLES);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (map, pool) = (&map, &pool);
                scope.spawn(move || {
                    for i in 0..OPS {
                        let key = (i * 7 + t * 13) % 64;
                        let mut h = pool.checkout();
                        h.enter();
                        if i % 2 == 0 {
                            map.insert(&mut *h, key, Wide(i));
                        } else {
                            map.remove(&mut *h, &key);
                        }
                        h.leave();
                    } // each guard drop flushes and parks its handle
                });
            }
        });
        {
            let mut h = pool.checkout();
            for key in 0..64 {
                h.enter();
                map.remove(&mut *h, &key);
                h.leave();
            }
        }
        let stats = map.domain().stats();
        assert_eq!(
            stats.pool_hits() + stats.pool_misses(),
            stats.allocated(),
            "an allocation bypassed the recycle pool"
        );
        assert_eq!(stats.retired(), stats.freed(), "retired nodes left unfreed");
        assert!(
            stats.recycled() > (SHARDS * CAPACITY) as u64,
            "the loop never filled the pools (recycled = {})",
            stats.recycled()
        );
        // The map is empty, so the only node memory left sits in the
        // shards' pools and in the parked handles' magazines: at most two
        // chains of `MAGAZINE` nodes per handle and shard.
        let cached = WIDE_LIVE.load(Ordering::Relaxed) - before;
        let magazines = HANDLES * SHARDS * 2 * MAGAZINE;
        assert!(
            cached <= (SHARDS * CAPACITY + magazines) as isize,
            "{cached} nodes cached: {SHARDS} pools of {CAPACITY} plus {magazines} in magazines"
        );
        // Dropping the handles gives their magazines back; what the pools
        // cannot hold is freed, so each pool ends within its capacity.
        drop(pool);
        let pooled = WIDE_LIVE.load(Ordering::Relaxed) - before;
        assert!(
            pooled <= (SHARDS * CAPACITY) as isize,
            "{pooled} nodes pooled across {SHARDS} shards of capacity {CAPACITY}"
        );
    }
    assert_eq!(
        WIDE_LIVE.load(Ordering::Relaxed),
        before,
        "domain drop leaked pooled nodes"
    );
}
