//! Batch construction, the retired-node header layout, and the per-handle
//! bookkeeping ([`HandleBooks`]) every Hyaline variant and Crystalline share.
//!
//! Section 3.2 of the paper: threads accumulate retired nodes into local
//! *batches* and keep a single reference counter per batch. Each node keeps
//! three header words regardless of batch size or slot count:
//!
//! * **word 0** — the per-slot retirement-list `Next` pointer once the node
//!   is used to insert the batch into a slot. Before retirement the same word
//!   holds the node's *birth era* (Hyaline-S; "birth eras share space with
//!   other variables, e.g. Next, as they are not required to survive
//!   retire"). On the batch's dedicated **REFS node** this word is the
//!   batch's `NRef` counter.
//! * **word 1** — `batch_link`: a pointer to the REFS node. On the REFS node
//!   itself this word stores the batch's `Adjs` constant instead (Section
//!   4.3: "the NRef node itself does not need to keep this pointer. Instead,
//!   we use this variable to store the current Adjs value for the batch").
//! * **word 2** — `batch_next`: the chain linking all nodes of the batch,
//!   with the low bit flagging whether the node carries a live payload
//!   (dummy padding nodes, used to finalize partial batches, do not). On the
//!   REFS node — the chain's tail — this word points back to the chain head
//!   (`First` in the paper's `free_batch(Ref->First)`).

use crate::head::{AtomicHead1, Head1Word};
use smr_core::{LocalStats, Magazine, NodeHeader, NodePool, SmrNode, SmrStats};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// Header word holding the slot-list `Next` / birth era / `NRef`.
pub const W_NEXT: usize = 0;
/// Header word holding `batch_link` / the batch `Adjs`.
pub const W_LINK: usize = 1;
/// Header word holding the `batch_next` chain (low bit: payload-live flag).
pub const W_CHAIN: usize = 2;

/// Low bit of `W_CHAIN`: set when the node has a live payload.
const LIVE_BIT: usize = 1;

/// Borrows the SMR header embedded in `node`.
///
/// # Safety
///
/// `node` must point to a live `SmrNode<T>` allocation, and the returned
/// reference must not outlive the node's reclamation.
#[inline]
pub unsafe fn header<'a, T: 'a>(node: *mut SmrNode<T>) -> &'a NodeHeader {
    (*node).header()
}

/// A thread-local batch under construction.
///
/// The first node pushed becomes the batch's REFS node (the chain tail); all
/// later nodes prepend to the chain and point at the REFS node through
/// `word 1`.
pub struct LocalBatch<T> {
    chain_head: *mut SmrNode<T>,
    refs_node: *mut SmrNode<T>,
    count: usize,
    min_birth: u64,
}

impl<T> Default for LocalBatch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LocalBatch<T> {
    /// An empty batch.
    pub fn new() -> Self {
        Self {
            chain_head: std::ptr::null_mut(),
            refs_node: std::ptr::null_mut(),
            count: 0,
            min_birth: u64::MAX,
        }
    }

    /// Number of nodes pushed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether no node has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds a retired node to the batch.
    ///
    /// # Safety
    ///
    /// `node` must be exclusively owned (already unlinked and retired) and
    /// must remain untouched until the batch is finalized and inserted.
    pub unsafe fn push(&mut self, node: *mut SmrNode<T>, birth: u64, live: bool) {
        let live_flag = if live { LIVE_BIT } else { 0 };
        header(node)
            .word(W_CHAIN)
            .store(self.chain_head as usize | live_flag, Ordering::Relaxed);
        if self.refs_node.is_null() {
            self.refs_node = node;
        } else {
            header(node)
                .word(W_LINK)
                .store(self.refs_node as usize, Ordering::Relaxed);
        }
        self.chain_head = node;
        self.count += 1;
        self.min_birth = self.min_birth.min(birth);
    }

    /// Freezes the batch: initializes `NRef` to zero, records the batch's
    /// `Adjs`, and closes the chain cycle (REFS → chain head).
    ///
    /// Returns `(refs_node, chain_head, min_birth)` and resets the batch.
    ///
    /// # Safety
    ///
    /// The batch must be non-empty.
    pub unsafe fn finalize(&mut self, adjs: usize) -> FinalizedBatch<T> {
        debug_assert!(!self.is_empty());
        let refs = self.refs_node;
        header(refs).word(W_NEXT).store(0, Ordering::Relaxed); // NRef = 0
        header(refs).word(W_LINK).store(adjs, Ordering::Relaxed);
        let live = header(refs).word(W_CHAIN).load(Ordering::Relaxed) & LIVE_BIT;
        header(refs)
            .word(W_CHAIN)
            .store(self.chain_head as usize | live, Ordering::Relaxed);
        let out = FinalizedBatch {
            refs_node: refs,
            chain_head: self.chain_head,
            min_birth: self.min_birth,
            count: self.count,
        };
        *self = Self::new();
        out
    }
}

/// A frozen batch ready for insertion into the slot lists.
pub struct FinalizedBatch<T> {
    /// The REFS node carrying the batch's `NRef` counter (chain tail).
    pub refs_node: *mut SmrNode<T>,
    /// First node of the batch chain.
    pub chain_head: *mut SmrNode<T>,
    /// Smallest birth era among the batch's nodes (`u64::MAX` for dummies).
    pub min_birth: u64,
    /// Total nodes in the batch, dummies included.
    pub count: usize,
}

impl<T> FinalizedBatch<T> {
    /// Prepends the payload-less `dummy` (from [`HandleBooks::dummy`]) to
    /// the chain, returning it.
    ///
    /// Owned-slot inserters use this when more slots turn out to be active
    /// than the batch has insertion nodes (threads registered between batch
    /// sizing and insertion). Mutating the chain is safe while the batch's
    /// final `Inserts`/`Empty` adjustment is still pending: `NRef` cannot
    /// cross zero before that adjustment, so no concurrent thread can be
    /// freeing or walking the chain yet.
    ///
    /// # Safety
    ///
    /// Must only be called by the inserting thread before the batch's final
    /// [`adjust_refs`] call, with a `dummy` this thread owns exclusively.
    pub unsafe fn extend_with_dummy(&mut self, dummy: *mut SmrNode<T>) -> *mut SmrNode<T> {
        header(dummy)
            .word(W_LINK)
            .store(self.refs_node as usize, Ordering::Relaxed);
        header(dummy)
            .word(W_CHAIN)
            .store(self.chain_head as usize, Ordering::Relaxed); // live bit clear
        let refs_w2 = header(self.refs_node).word(W_CHAIN).load(Ordering::Relaxed);
        header(self.refs_node)
            .word(W_CHAIN)
            .store(dummy as usize | (refs_w2 & LIVE_BIT), Ordering::Relaxed);
        self.chain_head = dummy;
        self.count += 1;
        dummy
    }
}

/// Owned-slot batch insertion (Figure 4), shared by Hyaline-1/1S and
/// Crystalline: pushes the batch onto slot lists, one node per slot, and
/// counts the slots it was inserted into (`Inserts`).
pub struct OwnedInsert<T> {
    fin: FinalizedBatch<T>,
    next: *mut SmrNode<T>,
    spare: *mut SmrNode<T>,
    /// Slots that hold a reference to the batch so far.
    pub inserts: usize,
}

impl<T> OwnedInsert<T> {
    /// Starts inserting `fin` at the head of its chain.
    pub fn new(fin: FinalizedBatch<T>) -> Self {
        Self {
            next: fin.chain_head,
            spare: std::ptr::null_mut(),
            inserts: 0,
            fin,
        }
    }

    /// Tries once to push the batch onto `slot`, whose head was read as the
    /// active `head`. Returns whether the CAS won.
    ///
    /// Once the chain is exhausted (more active slots than insertion nodes,
    /// e.g. a dummy-padded partial batch at flush time), every further slot
    /// gets a *fresh* dummy from `books`. A chain node that is already
    /// linked into one slot's list must never be pushed onto a second list:
    /// its `Next` word is the first list's link, and overwriting it corrupts
    /// that list.
    ///
    /// # Safety
    ///
    /// Only the thread that finalized the batch may insert it, before
    /// [`finish`](Self::finish).
    pub unsafe fn try_push(
        &mut self,
        slot: &AtomicHead1,
        head: Head1Word,
        books: &mut HandleBooks<'_, T>,
    ) -> bool {
        let node = if self.next != self.fin.refs_node {
            self.next
        } else {
            if self.spare.is_null() {
                self.spare = self.fin.extend_with_dummy(books.dummy());
            }
            self.spare
        };
        header(node)
            .word(W_NEXT)
            .store(head.ptr::<SmrNode<T>>() as usize, Ordering::Relaxed);
        let new = Head1Word::pack(true, node);
        if slot
            .compare_exchange(head, new, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.inserts += 1; // replaces REF #2#
        if node == self.next {
            self.next = chain_next(node);
        } else {
            self.spare = std::ptr::null_mut(); // dummy consumed
        }
        true
    }

    /// Replaces REF #3#: one `NRef` adjustment by the number of insertions.
    /// If no slot took the batch, `inserts == 0` frees it immediately.
    ///
    /// # Safety
    ///
    /// As for [`try_push`](Self::try_push); the batch is handed over to the
    /// slots that took it.
    pub unsafe fn finish(self, reap: &mut Vec<*mut SmrNode<T>>) {
        adjust_refs(self.fin.refs_node, self.inserts, reap);
    }
}

/// Follows the batch chain (`word 2`, pointer part).
///
/// # Safety
///
/// `node` must be a live batch node.
#[inline]
pub unsafe fn chain_next<T>(node: *mut SmrNode<T>) -> *mut SmrNode<T> {
    // ORDERING: Relaxed suffices — `word 2` chain links are written before the
    // batch is published (finalize/retire is the release point), so any thread
    // walking the chain already synchronized via the slot-list Acquire load.
    (header(node).word(W_CHAIN).load(Ordering::Relaxed) & !LIVE_BIT) as *mut SmrNode<T>
}

/// Decrements the `NRef` of the batch `node` belongs to by one (the paper's
/// `traverse` step, Figure 3 line 50). If the counter crosses zero the REFS
/// node is pushed onto `reap` for deferred freeing.
///
/// # Safety
///
/// `node` must be a non-REFS batch node whose batch has been finalized, and
/// the caller must still hold a logical reference to it.
#[inline]
pub unsafe fn decrement<T>(node: *mut SmrNode<T>, reap: &mut Vec<*mut SmrNode<T>>) {
    let refs = header(node).word(W_LINK).load(Ordering::Acquire) as *mut SmrNode<T>;
    adjust_refs(refs, 1usize.wrapping_neg(), reap);
}

/// Credits the batch `node` belongs to with one slot's completion: its own
/// stored `Adjs` plus `href_snapshot` (the paper's `adjust(node, Adjs +
/// Head.HRef)`, Figure 3 lines 17/39). Reading `Adjs` from the batch's REFS
/// node — rather than a global — is what makes §4.3 adaptive resizing sound:
/// every batch is adjusted with the slot count it was retired under.
///
/// # Safety
///
/// Same requirements as [`decrement`].
#[inline]
pub unsafe fn adjust_slot_credit<T>(
    node: *mut SmrNode<T>,
    href_snapshot: usize,
    reap: &mut Vec<*mut SmrNode<T>>,
) {
    let refs = header(node).word(W_LINK).load(Ordering::Acquire) as *mut SmrNode<T>;
    let adjs = header(refs).word(W_LINK).load(Ordering::Acquire);
    adjust_refs(refs, adjs.wrapping_add(href_snapshot), reap);
}

/// Adds `val` to a batch's `NRef` given its REFS node directly (the paper's
/// `adjust(batch->FirstNode(), Empty)` / Hyaline-1 `Inserts` adjustment).
///
/// # Safety
///
/// `refs` must be a finalized batch's REFS node.
#[inline]
pub unsafe fn adjust_refs<T>(
    refs: *mut SmrNode<T>,
    val: usize,
    reap: &mut Vec<*mut SmrNode<T>>,
) {
    let old = header(refs).word(W_NEXT).fetch_add(val, Ordering::AcqRel);
    if old.wrapping_add(val) == 0 {
        reap.push(refs);
    }
}

/// Frees every node of the batch owned by `refs` through the domain's
/// recycle pool, returning how many nodes were freed (dummies included).
/// Payloads are dropped immediately, per the chain's live bits, while the
/// node memory is handed to `pool`/`mag` for reuse by later allocations.
/// This is the hyaline-family half of the common `dispose` hook; with
/// recycling disabled the pool falls through to [`SmrNode::dealloc`].
///
/// # Safety
///
/// The batch's `NRef` must have crossed zero, so no thread can still
/// reference any node of the batch. `mag` must belong to `pool`.
pub unsafe fn free_batch_into<T>(
    refs: *mut SmrNode<T>,
    pool: &NodePool,
    mag: &mut Magazine,
    stats: &SmrStats,
) -> u64 {
    let refs_word = header(refs).word(W_CHAIN).load(Ordering::Acquire);
    let mut cur = (refs_word & !LIVE_BIT) as *mut SmrNode<T>;
    let mut freed = 0u64;
    while cur != refs {
        let w = header(cur).word(W_CHAIN).load(Ordering::Relaxed);
        let next = (w & !LIVE_BIT) as *mut SmrNode<T>;
        // SAFETY: the batch is exclusively ours (NRef crossed zero) and the
        // live bit says whether this node's payload was ever initialized.
        pool.dispose(mag, stats, cur, w & LIVE_BIT != 0);
        freed += 1;
        cur = next;
    }
    // SAFETY: as above, for the REFS node itself (the chain tail).
    pool.dispose(mag, stats, refs, refs_word & LIVE_BIT != 0);
    freed + 1
}

/// Figure 5's `touch`: raises a slot's access era to at least `era` with a
/// CAS-max loop, returning the era now published. It never moves the era
/// backward, which matters wherever more than one thread writes it: threads
/// sharing a Hyaline-S slot, or Crystalline-W helpers raising an owner's era.
pub fn touch_max(access: &AtomicU64, era: u64) -> u64 {
    let mut cur = access.load(Ordering::SeqCst);
    while cur < era {
        match access.compare_exchange_weak(cur, era, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return era,
            Err(now) => cur = now,
        }
    }
    cur
}

/// The per-handle state every Hyaline variant and Crystalline share: the
/// slot and handle node of the current operation, the local batch, the
/// batches whose `NRef` crossed zero, the recycle magazine, buffered
/// statistics and the era counters.
pub struct HandleBooks<'d, T> {
    pool: &'d NodePool,
    shared: &'d SmrStats,
    /// The slot this handle enters through.
    pub slot: usize,
    /// The list head seen at `enter` (or the last trim), where this
    /// handle's traversals stop.
    pub handle: *mut SmrNode<T>,
    /// The access era this handle last published (robust schemes).
    pub access: u64,
    /// The batch under construction.
    pub batch: LocalBatch<T>,
    /// REFS nodes of batches whose `NRef` crossed zero, freed by
    /// [`drain`](Self::drain) oldest first.
    pub reap: Vec<*mut SmrNode<T>>,
    local: LocalStats,
    mag: Magazine,
    allocs: u64,
}

impl<'d, T> HandleBooks<'d, T> {
    /// Empty books for a handle in `slot`, drawing node memory from the
    /// domain's `pool` and publishing into its `shared` statistics.
    pub fn new(pool: &'d NodePool, shared: &'d SmrStats, slot: usize) -> Self {
        Self {
            pool,
            shared,
            slot,
            handle: std::ptr::null_mut(),
            access: 0,
            batch: LocalBatch::new(),
            reap: Vec::new(),
            local: LocalStats::new(),
            mag: pool.magazine(),
            allocs: 0,
        }
    }

    /// Counts one allocation and says whether it is an era tick: every
    /// `freq`-th allocation advances the global era (Figure 5's
    /// `init_node`).
    #[inline]
    pub fn era_tick(&mut self, freq: u64) -> bool {
        self.allocs += 1;
        self.allocs.is_multiple_of(freq)
    }

    /// Allocates a node holding `value` from the recycle pool, stamping
    /// `birth` into it for the robust variants (the birth era shares header
    /// word 0 with `Next`, which retirement overwrites).
    #[inline]
    pub fn alloc(&mut self, value: T, birth: Option<u64>) -> NonNull<SmrNode<T>> {
        self.local.on_alloc(self.shared);
        let node = self.pool.alloc(&mut self.mag, self.shared, value);
        if let Some(era) = birth {
            // SAFETY: `node` is a fresh, unshared allocation; stamping its
            // header word races with nobody.
            unsafe { header(node.as_ptr()) }
                .word(W_NEXT)
                .store(era as usize, Ordering::Relaxed);
        }
        node
    }

    /// Frees a node that was never published.
    ///
    /// # Safety
    ///
    /// `node` must hold a live payload and be exclusively owned by the
    /// caller: no other thread has ever seen it.
    pub unsafe fn dealloc(&mut self, node: *mut SmrNode<T>) {
        self.local.on_dealloc(self.shared);
        self.pool.dispose(&mut self.mag, self.shared, node, true);
    }

    /// A payload-less dummy node from the recycle pool, counted as
    /// allocated and retired. It may only enter a batch chain, never a data
    /// structure.
    pub fn dummy(&mut self) -> *mut SmrNode<T> {
        self.local.on_alloc(self.shared);
        self.local.on_retire(self.shared);
        // SAFETY: a dummy only ever sits in a batch chain with its live bit
        // clear, so its payload is never read and it is freed with
        // `drop_payload = false`, as `alloc_dummy` requires.
        unsafe { self.pool.alloc_dummy::<T>(&mut self.mag, self.shared) }.as_ptr()
    }

    /// Pads the local batch with dummies up to `len` nodes (Section 2.4:
    /// partial batches "can be immediately finalized by allocating a finite
    /// number of dummy nodes").
    pub fn pad(&mut self, len: usize) {
        while self.batch.count() < len {
            let dummy = self.dummy();
            // SAFETY: `dummy` is fresh and exclusively owned until pushed.
            unsafe { self.batch.push(dummy, u64::MAX, false) };
        }
    }

    /// Adds a retired node to the local batch, with the birth era stamped at
    /// allocation when `robust` (the stamp shares header word 0).
    ///
    /// # Safety
    ///
    /// `node` must satisfy [`LocalBatch::push`]: unlinked, retired once, and
    /// left untouched until its batch is inserted.
    #[inline]
    pub unsafe fn retire(&mut self, node: *mut SmrNode<T>, robust: bool) {
        let birth = if robust {
            header(node).word(W_NEXT).load(Ordering::Relaxed) as u64
        } else {
            0
        };
        self.local.on_retire(self.shared);
        self.batch.push(node, birth, true);
    }

    /// Walks a retirement sublist from `next` down to (and including) the
    /// handle node, decrementing each batch's `NRef` (Figure 3's `traverse`).
    /// Returns the loop's iteration count, a terminating null hop included,
    /// which exactly balances the `HRef` snapshots Hyaline-S adds to `Ack`
    /// (Figure 5).
    ///
    /// # Safety
    ///
    /// Every node from `next` on must still be pinned by the caller's slot
    /// reference: `next` is a detached list head or a `Next` link read while
    /// that reference was held.
    #[inline]
    pub unsafe fn traverse(&mut self, mut next: *mut SmrNode<T>) -> i64 {
        let handle = self.handle;
        let mut hops = 0;
        loop {
            let curr = next;
            hops += 1;
            if curr.is_null() {
                break;
            }
            // Read the link *before* the decrement: our decrement may be the
            // batch's last, after which the node may be freed by `drain`.
            next = header(curr).word(W_NEXT).load(Ordering::Acquire) as *mut SmrNode<T>;
            decrement(curr, &mut self.reap);
            if curr == handle {
                break;
            }
        }
        hops
    }

    /// The §3.3 trim: traverses the sublist retired since the handle node
    /// up to the current list `head`, which becomes the new handle node.
    /// Returns the hops as [`traverse`](Self::traverse) does, or 0 when
    /// nothing was retired.
    ///
    /// # Safety
    ///
    /// The caller must still be inside the operation whose slot reference
    /// pins `head` and its sublist.
    pub unsafe fn trim(&mut self, head: *mut SmrNode<T>) -> i64 {
        if head == self.handle {
            return 0;
        }
        debug_assert!(!head.is_null());
        let next = header(head).word(W_NEXT).load(Ordering::Acquire) as *mut SmrNode<T>;
        let hops = self.traverse(next);
        self.handle = head;
        hops
    }

    /// Frees every reaped batch, oldest first (the paper's deferred
    /// deallocation list, reversing LIFO reaping into FIFO freeing).
    pub fn drain(&mut self) {
        if self.reap.is_empty() {
            return;
        }
        let mut freed = 0;
        for refs in std::mem::take(&mut self.reap) {
            // SAFETY: a REFS node enters `reap` only when its batch's NRef
            // crossed zero, so no thread can still reference the batch.
            freed += unsafe { free_batch_into(refs, self.pool, &mut self.mag, self.shared) };
        }
        self.local.on_free(self.shared, freed);
    }

    /// Publishes the buffered statistics and spills the recycle magazine, so
    /// a parked handle (`HandlePool` check-in flushes before parking) never
    /// strands pool capacity.
    pub fn flush(&mut self) {
        self.pool.flush(&mut self.mag, self.shared);
        self.local.flush(self.shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_core::SmrConfig;

    /// Frees a batch through a recycle pool that is disabled, so every node
    /// goes straight back to the allocator.
    ///
    /// # Safety
    ///
    /// As for [`free_batch_into`].
    unsafe fn free_batch<T>(refs: *mut SmrNode<T>) -> u64 {
        let pool = NodePool::for_node::<T>(&SmrConfig::default());
        let mut mag = pool.magazine();
        free_batch_into(refs, &pool, &mut mag, &SmrStats::new())
    }

    /// Counts its drops in a counter of the test's own, so tests running in
    /// parallel never see each other's drops.
    struct Payload(&'static AtomicU64);
    impl Drop for Payload {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn batch_chain_and_free() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        let mut batch = LocalBatch::<Payload>::new();
        for i in 0..5 {
            let node = SmrNode::alloc(Payload(&DROPS));
            // SAFETY: `node` was just allocated and is exclusively owned.
            unsafe { batch.push(node.as_ptr(), 100 + i, true) };
        }
        assert_eq!(batch.count(), 5);
        // SAFETY: all five pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0) };
        assert_eq!(fin.min_birth, 100);
        assert_eq!(fin.count, 5);

        // Chain from head reaches the REFS node in (count - 1) hops.
        let mut cur = fin.chain_head;
        let mut hops = 0;
        while cur != fin.refs_node {
            // SAFETY: `cur` is a live batch node; the chain is fully linked.
            cur = unsafe { chain_next(cur) };
            hops += 1;
        }
        assert_eq!(hops, 4);

        // SAFETY: no other reference to the batch remains; freeing is final.
        let freed = unsafe { free_batch(fin.refs_node) };
        assert_eq!(freed, 5);
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn dummy_nodes_freed_without_drop() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        let mut batch = LocalBatch::<Payload>::new();
        let real = SmrNode::alloc(Payload(&DROPS));
        // SAFETY: `real` was just allocated and is exclusively owned.
        unsafe { batch.push(real.as_ptr(), 1, true) };
        for _ in 0..3 {
            // SAFETY: dummy nodes carry no payload; alloc_dummy returns a
            // fresh allocation and push takes exclusive ownership of it.
            let dummy = unsafe { SmrNode::<Payload>::alloc_dummy() };
            // SAFETY: as above — `dummy` is fresh and unshared.
            unsafe { batch.push(dummy.as_ptr(), u64::MAX, false) };
        }
        // SAFETY: every pushed node is live and unshared.
        let fin = unsafe { batch.finalize(0) };
        assert_eq!(fin.min_birth, 1);
        // SAFETY: the batch was never published; this thread owns it outright.
        let freed = unsafe { free_batch(fin.refs_node) };
        assert_eq!(freed, 4);
        assert_eq!(DROPS.load(Ordering::Relaxed), 1, "only the real payload drops");
    }

    #[test]
    fn adjust_crosses_zero_exactly_once() {
        let mut batch = LocalBatch::<u32>::new();
        for v in 0..3 {
            let node = SmrNode::alloc(v);
            // SAFETY: `node` was just allocated and is exclusively owned.
            unsafe { batch.push(node.as_ptr(), 0, true) };
        }
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0) };
        let mut reap = Vec::new();
        // Simulate: +5 (insert credit), then five -1 decrements.
        // SAFETY: `refs_node` belongs to the just-finalized batch.
        unsafe { adjust_refs(fin.refs_node, 5, &mut reap) };
        assert!(reap.is_empty());
        for i in 0..5 {
            // SAFETY: the batch stays live until the final decrement below.
            unsafe { decrement(fin.chain_head, &mut reap) };
            assert_eq!(reap.len(), usize::from(i == 4));
        }
        assert_eq!(reap.len(), 1);
        assert_eq!(reap[0], fin.refs_node);
        // SAFETY: NRef crossed zero and no other reference remains.
        unsafe { free_batch(fin.refs_node) };
    }

    #[test]
    fn slot_credit_uses_batch_stored_adjs() {
        // Two batches finalized under different slot counts must be adjusted
        // with their own Adjs values (the §4.3 adaptive-resizing invariant).
        let adjs_small = (usize::MAX / 2).wrapping_add(1); // k = 2
        let mut batch = LocalBatch::<u32>::new();
        for v in 0..3 {
            let node = SmrNode::alloc(v);
            // SAFETY: `node` was just allocated and is exclusively owned.
            unsafe { batch.push(node.as_ptr(), 0, true) };
        }
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(adjs_small) };
        let mut reap = Vec::new();
        // One slot credited with HRef snapshot 1, then one decrement, then
        // the second slot's credit: NRef = 2*Adjs + 1 - 1 = 0 (mod 2^64).
        // SAFETY: `chain_head` is a live node of the finalized batch.
        unsafe { adjust_slot_credit(fin.chain_head, 1, &mut reap) };
        assert!(reap.is_empty());
        // SAFETY: the batch is still live (NRef has not crossed zero yet).
        unsafe { decrement(fin.chain_head, &mut reap) };
        assert!(reap.is_empty());
        // SAFETY: last credit; the batch is freed only via `reap` below.
        unsafe { adjust_slot_credit(fin.chain_head, 0, &mut reap) };
        assert_eq!(reap.len(), 1);
        // SAFETY: NRef crossed zero and no other reference remains.
        unsafe { free_batch(fin.refs_node) };
    }

    #[test]
    fn adjust_with_zero_frees_untouched_batch() {
        // The all-slots-empty retire path: Empty = k * Adjs wraps to zero and
        // NRef is still zero, so the batch frees immediately.
        let mut batch = LocalBatch::<u32>::new();
        for v in 0..2 {
            let node = SmrNode::alloc(v);
            // SAFETY: `node` was just allocated and is exclusively owned.
            unsafe { batch.push(node.as_ptr(), 0, true) };
        }
        // SAFETY: all pushed nodes are live and unshared.
        let fin = unsafe { batch.finalize(0) };
        let mut reap = Vec::new();
        // SAFETY: `refs_node` belongs to the just-finalized, unpublished batch.
        unsafe { adjust_refs(fin.refs_node, 0, &mut reap) };
        assert_eq!(reap.len(), 1);
        // SAFETY: NRef is zero and this thread holds the only reference.
        unsafe { free_batch(fin.refs_node) };
    }

    #[test]
    fn singleton_batch_free() {
        let mut batch = LocalBatch::<u32>::new();
        let node = SmrNode::alloc(1);
        // SAFETY: `node` was just allocated and is exclusively owned.
        unsafe { batch.push(node.as_ptr(), 0, true) };
        // SAFETY: the single pushed node is live and unshared.
        let fin = unsafe { batch.finalize(0) };
        // SAFETY: the batch was never published; freeing is safe and final.
        assert_eq!(unsafe { free_batch(fin.refs_node) }, 1);
    }
}
