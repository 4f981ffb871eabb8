//! The Hyaline family, written once: one [`Domain`] over a slot list
//! ([`SharedSlots`], Figure 3, or [`OwnedSlots`], Figure 4) and a `ROBUST`
//! flag (Figure 5). The crate docs map the four aliases onto the figures.
//!
//! The slot list decides how handles map to slots and how a batch is
//! accounted: shared slots count `HRef` per slot and credit every batch
//! with `Adjs`; owned slots give each handle its own slot and count
//! `Inserts`. Everything else is the same code for all four variants.

use smr_core::{
    Atomic, EraClock, NodePool, Shared, SlotRegistry, Smr, SmrConfig, SmrHandle, SmrNode, SmrStats,
};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

use crate::batch::{
    adjust_refs, adjust_slot_credit, chain_next, header, touch_max, FinalizedBatch, HandleBooks,
    OwnedInsert, W_NEXT,
};
use crate::head::{AtomicHead1, Head1Word, HeadWord};
use crate::registry::SlotDirectory;

/// Computes the paper's `Adjs` constant: `⌊(2^64 - 1) / k⌋ + 1 = 2^64 / k`
/// for power-of-two `k`, so that `k * Adjs == 0 (mod 2^64)`. A shift, not a
/// division; `k = 1` gives 0.
pub(crate) fn adjs_for(slots: usize) -> usize {
    debug_assert!(slots.is_power_of_two());
    1usize
        .checked_shl(usize::BITS - slots.trailing_zeros())
        .unwrap_or(0)
}

/// How a [`Domain`]'s handles map to slots, and how a batch is inserted
/// into the slot lists. Implemented by [`SharedSlots`] and [`OwnedSlots`].
///
/// The hot-path methods are `#[inline]` in both impls, so a monomorphized
/// domain calls straight into the policy's code. Methods act
/// on the calling handle's [`HandleBooks`]: its slot, handle node, cached
/// access era and reap list.
pub trait SlotList: Send + Sync + Sized + std::fmt::Debug + 'static {
    /// The scheme names: `[plain, robust]`.
    const NAMES: [&'static str; 2];

    /// Builds the slots for `config`. Robust shared slots may grow (§4.3).
    fn new(config: &SmrConfig, robust: bool) -> Self;

    /// The slot a new handle starts in.
    fn claim(&self) -> usize;

    /// Gives back a dropped handle's slot.
    fn release(&self, _slot: usize) {}

    /// The slot count `k` a batch is finalized against: it is padded to
    /// `k + 1` nodes and carries `Adjs = 2^64 / k`.
    fn k(&self) -> usize;

    /// How many slots a batch must outnumber before `retire` inserts it.
    fn batch_floor(&self) -> usize {
        self.k()
    }

    /// Enters an operation, possibly moving the handle to another slot, and
    /// records the list head at entry as its handle node.
    fn enter<T, const ROBUST: bool>(&self, books: &mut HandleBooks<'_, T>);

    /// Leaves the operation and traverses the sublist retired since the
    /// handle node.
    ///
    /// # Safety
    ///
    /// The handle must be inside an operation entered through its slot.
    unsafe fn leave<T, const ROBUST: bool>(&self, books: &mut HandleBooks<'_, T>);

    /// Trims the sublist retired since the handle node (§3.3).
    ///
    /// # Safety
    ///
    /// As for [`leave`](Self::leave); the operation stays open.
    unsafe fn trim<T, const ROBUST: bool>(&self, books: &mut HandleBooks<'_, T>);

    /// The access era of `slot`, for a handle that last published `cached`.
    fn access(&self, slot: usize, cached: u64) -> u64;

    /// Raises the access era of `slot` to `era` (Figure 5's `touch`) and
    /// returns the era now published.
    fn touch(&self, slot: usize, era: u64) -> u64;

    /// Inserts a finalized batch into every slot that may reference it.
    ///
    /// # Safety
    ///
    /// `fin` must be the caller's own batch, unseen by any other thread,
    /// padded to `k + 1` nodes and finalized with `adjs_for(k)` for this
    /// list's [`k`](Self::k).
    unsafe fn insert<T, const ROBUST: bool>(
        &self,
        fin: FinalizedBatch<T>,
        k: usize,
        books: &mut HandleBooks<'_, T>,
    );

    /// Whether every slot is inactive with an empty list.
    fn is_idle(&self) -> bool;
}

/// Figure 3's slots: any number of handles share `k` cache-padded slots,
/// picked round-robin, each holding a packed `[HRef, HPtr]` head.
///
/// `enter` fetch-adds `HRef`, and `leave` decrements it with a CAS, taking
/// the list along when it is the last one out. Batches are credited with
/// `Adjs` per slot (REF #1–#3). Robust domains also keep a CAS-max access
/// era and an `Ack` count per slot, steer `enter` away from saturated
/// slots, and grow the directory under [`SmrConfig::adaptive`].
#[derive(Debug)]
#[repr(C)] // the directory first: see `Domain`
pub struct SharedSlots {
    dir: SlotDirectory,
    next: AtomicUsize,
    ack_threshold: i64,
}

impl SharedSlots {
    /// Figure 5's `enter` loop: the first slot from `preferred` whose `Ack`
    /// is below the threshold. When every slot is saturated it grows the
    /// directory, or settles for the least saturated slot at the cap.
    fn avoid_saturated(&self, preferred: usize) -> usize {
        let mut k = self.dir.k();
        let mut slot = preferred & (k - 1);
        let mut scanned = 0;
        let mut best = (i64::MAX, slot);
        loop {
            let ack = self.dir.slot(slot).ack.load(Ordering::Relaxed);
            if ack < self.ack_threshold {
                return slot;
            }
            if ack < best.0 {
                best = (ack, slot);
            }
            slot = (slot + 1) & (k - 1);
            scanned += 1;
            if scanned >= k {
                if !self.dir.grow() {
                    // Capped (non-adaptive): the regime where Figure 10a
                    // shows the capped variant starting to interfere.
                    return best.1;
                }
                // New slots start with Ack = 0; rescan including them.
                k = self.dir.k();
                scanned = 0;
            }
        }
    }

    /// Credits `hops` traversed nodes of `slot`'s list against its `Ack`.
    #[inline]
    fn acknowledge<const ROBUST: bool>(&self, slot: usize, hops: i64) {
        if ROBUST {
            self.dir.slot(slot).ack.fetch_sub(hops, Ordering::Relaxed);
        }
    }
}

impl SlotList for SharedSlots {
    const NAMES: [&'static str; 2] = ["Hyaline", "Hyaline-S"];

    fn new(config: &SmrConfig, robust: bool) -> Self {
        assert!(
            config.slots.is_power_of_two(),
            "Hyaline requires a power-of-two slot count"
        );
        let max_k = if robust && config.adaptive {
            // Bounded by the registry-style cap so directory growth stops at
            // a sane power of two even under pathological stalling.
            config.max_threads.next_power_of_two().max(config.slots)
        } else {
            config.slots
        };
        Self {
            dir: SlotDirectory::new(config.slots, max_k),
            next: AtomicUsize::new(0),
            ack_threshold: config.ack_threshold,
        }
    }

    #[inline]
    fn claim(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) & (self.dir.k() - 1)
    }

    #[inline]
    fn k(&self) -> usize {
        self.dir.k()
    }

    #[inline]
    fn enter<T, const ROBUST: bool>(&self, books: &mut HandleBooks<'_, T>) {
        if ROBUST {
            books.slot = self.avoid_saturated(books.slot);
        }
        books.handle = self.dir.slot(books.slot).head.enter_faa().ptr();
    }

    // SAFETY: forwarded trait contract — the handle's `HRef` pins every node
    // from the slot's head down to its handle node.
    #[inline]
    unsafe fn leave<T, const ROBUST: bool>(&self, books: &mut HandleBooks<'_, T>) {
        let head_slot = &self.dir.slot(books.slot).head;
        let (old, next) = loop {
            let head = head_slot.load(Ordering::Acquire);
            let curr: *mut SmrNode<T> = head.ptr();
            let mut next = ptr::null_mut();
            if curr != books.handle {
                debug_assert!(!curr.is_null());
                // A non-handle head exists only while we hold a reference
                // to it, so reading its Next is safe.
                next = header(curr).word(W_NEXT).load(Ordering::Acquire) as *mut SmrNode<T>;
            }
            let mut new = head.with_refs(head.refs() - 1);
            if head.refs() == 1 {
                new = new.with_ptr(ptr::null_mut::<SmrNode<T>>());
            }
            if head_slot
                .compare_exchange(head, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break (head, next);
            }
        };
        let curr: *mut SmrNode<T> = old.ptr();
        if old.refs() == 1 && !curr.is_null() {
            // We detached the list: the head node never gets a successor, so
            // give it its final per-slot Adjs as if it were a predecessor.
            adjust_slot_credit(curr, 0, &mut books.reap);
        }
        if curr != books.handle {
            let hops = books.traverse(next);
            self.acknowledge::<ROBUST>(books.slot, hops);
        }
    }

    // SAFETY: forwarded trait contract — the open operation's `HRef` pins
    // the head and its sublist.
    #[inline]
    unsafe fn trim<T, const ROBUST: bool>(&self, books: &mut HandleBooks<'_, T>) {
        let hops = books.trim(self.dir.slot(books.slot).head.load(Ordering::Acquire).ptr());
        self.acknowledge::<ROBUST>(books.slot, hops);
    }

    #[inline]
    fn access(&self, slot: usize, _cached: u64) -> u64 {
        // Other handles sharing the slot may have raised it since.
        self.dir.slot(slot).access.load(Ordering::SeqCst)
    }

    #[inline]
    fn touch(&self, slot: usize, era: u64) -> u64 {
        touch_max(&self.dir.slot(slot).access, era)
    }

    // SAFETY: forwarded trait contract — `fin` is the caller's unpublished
    // batch with `k + 1` nodes, so every slot can take its own chain node.
    #[inline]
    unsafe fn insert<T, const ROBUST: bool>(
        &self,
        fin: FinalizedBatch<T>,
        k: usize,
        books: &mut HandleBooks<'_, T>,
    ) {
        let adjs = adjs_for(k);
        let mut insert_node = fin.chain_head;
        let mut empty_adjs: usize = 0;
        let mut any_empty = false;
        for i in 0..k {
            let slot = self.dir.slot(i);
            loop {
                let head = slot.head.load(Ordering::Acquire);
                if head.refs() == 0
                    || (ROBUST && slot.access.load(Ordering::SeqCst) < fin.min_birth)
                {
                    // REF #1#: no active thread here, or (Figure 5) none that
                    // could ever have dereferenced a node of this batch.
                    // Account this slot's Adjs on the batch at the end.
                    any_empty = true;
                    empty_adjs = empty_adjs.wrapping_add(adjs);
                    break;
                }
                debug_assert!(
                    insert_node != fin.refs_node,
                    "batch has fewer nodes than slots + 1"
                );
                header(insert_node)
                    .word(W_NEXT)
                    .store(head.ptr_bits(), Ordering::Relaxed);
                if slot
                    .head
                    .compare_exchange(
                        head,
                        head.with_ptr(insert_node),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    // REF #2#: credit the predecessor with Adjs plus the
                    // snapshot of HRef taken by the winning CAS.
                    let pred: *mut SmrNode<T> = head.ptr();
                    if !pred.is_null() {
                        adjust_slot_credit(pred, head.refs(), &mut books.reap);
                    }
                    if ROBUST {
                        // Track un-acknowledged references for stall
                        // detection.
                        slot.ack.fetch_add(head.refs() as i64, Ordering::Relaxed);
                    }
                    insert_node = chain_next(insert_node);
                    break;
                }
            }
        }
        if any_empty {
            // REF #3#: contribute the skipped slots' Adjs in one shot. When
            // *all* slots were skipped this wraps to zero and frees the
            // untouched batch immediately.
            adjust_refs(fin.refs_node, empty_adjs, &mut books.reap);
        }
    }

    fn is_idle(&self) -> bool {
        (0..self.dir.k()).all(|i| self.dir.slot(i).head.load(Ordering::Acquire) == HeadWord::EMPTY)
    }
}

/// Figure 4's slots: every registered handle owns one slot, claimed from a
/// [`SlotRegistry`], whose single-width head merges a one-bit `HRef` into
/// the list pointer.
///
/// `enter` is a store and `leave` a swap, both wait-free. A batch counts
/// the slots it was inserted into (`Inserts`) instead of crediting `Adjs`,
/// and it is extended with dummies on demand when more slots are active
/// than it has nodes. Robust domains keep an access era per slot that only
/// its owner writes, with a plain store and a fence.
#[derive(Debug)]
#[repr(C)] // the directory first: see `Domain`
pub struct OwnedSlots {
    dir: SlotDirectory<AtomicHead1>,
    registry: SlotRegistry,
}

impl SlotList for OwnedSlots {
    const NAMES: [&'static str; 2] = ["Hyaline-1", "Hyaline-1S"];

    fn new(config: &SmrConfig, _robust: bool) -> Self {
        let capacity = config.max_threads.next_power_of_two();
        Self {
            dir: SlotDirectory::with_growth(capacity, capacity),
            registry: SlotRegistry::new(config.max_threads),
        }
    }

    #[inline]
    fn claim(&self) -> usize {
        self.registry.claim()
    }

    #[inline]
    fn release(&self, slot: usize) {
        self.registry.release(slot);
    }

    /// One slot per handle: a batch needs only its REFS node plus one
    /// insertion node up front; `insert` extends it on demand.
    #[inline]
    fn k(&self) -> usize {
        1
    }

    #[inline]
    fn batch_floor(&self) -> usize {
        self.registry.claimed()
    }

    #[inline]
    fn enter<T, const ROBUST: bool>(&self, books: &mut HandleBooks<'_, T>) {
        self.dir.slot(books.slot).head.enter();
        books.handle = ptr::null_mut();
    }

    // SAFETY: forwarded trait contract; the swap detaches the whole list,
    // and the owner holds exactly one reference to every node in it.
    #[inline]
    unsafe fn leave<T, const ROBUST: bool>(&self, books: &mut HandleBooks<'_, T>) {
        let head: *mut SmrNode<T> = self.dir.slot(books.slot).head.leave().ptr();
        if !head.is_null() {
            books.traverse(head);
        }
    }

    // SAFETY: forwarded trait contract — the owner's active bit pins the
    // head and its sublist.
    #[inline]
    unsafe fn trim<T, const ROBUST: bool>(&self, books: &mut HandleBooks<'_, T>) {
        books.trim(self.dir.slot(books.slot).head.load(Ordering::Acquire).ptr());
    }

    #[inline]
    fn access(&self, _slot: usize, cached: u64) -> u64 {
        // The owner is the slot's only writer, so its cached copy is exact.
        cached
    }

    #[inline]
    fn touch(&self, slot: usize, era: u64) -> u64 {
        // Sole owner: an ordinary store replaces the CAS-max `touch`.
        self.dir.slot(slot).access.store(era, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        era
    }

    // SAFETY: forwarded trait contract — `fin` is the caller's unpublished
    // batch; slots beyond its chain each take a fresh dummy.
    #[inline]
    unsafe fn insert<T, const ROBUST: bool>(
        &self,
        fin: FinalizedBatch<T>,
        _k: usize,
        books: &mut HandleBooks<'_, T>,
    ) {
        let min_birth = fin.min_birth;
        let mut batch = OwnedInsert::new(fin);
        for idx in self.registry.iter_claimed() {
            let slot = self.dir.slot(idx);
            loop {
                let head = slot.head.load(Ordering::Acquire);
                if !head.active() || (ROBUST && slot.access.load(Ordering::SeqCst) < min_birth) {
                    break;
                }
                if batch.try_push(&slot.head, head, books) {
                    break;
                }
            }
        }
        batch.finish(&mut books.reap);
    }

    fn is_idle(&self) -> bool {
        (0..self.dir.k()).all(|i| self.dir.slot(i).head.load(Ordering::Acquire) == Head1Word::EMPTY)
    }
}

/// A Hyaline reclamation domain over the slot list `L`, robust (Figure 5)
/// when `ROBUST`. Use it through the four aliases [`Hyaline`](crate::Hyaline),
/// [`Hyaline1`](crate::Hyaline1), [`HyalineS`](crate::HyalineS) and
/// [`Hyaline1S`](crate::Hyaline1S).
///
/// `enter` takes a reference in a slot; `retire` accumulates nodes into
/// local batches and appends full batches to every slot that may reference
/// them; `leave` drops the reference and walks the sublist of batches
/// retired during the operation, decrementing per-batch reference counters.
/// The thread that brings a batch's counter to zero frees the whole batch:
/// *asynchronous tracking*, where nobody ever re-checks other threads'
/// state. A dropped handle finalizes its partial batch with dummy nodes, so
/// the thread is immediately "off the hook".
///
/// # Example
///
/// ```
/// use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
/// use smr_core::{Smr, SmrHandle};
///
/// fn retire_one<S: Smr<u64>>() {
///     let domain = S::new();
///     let mut h = domain.handle();
///     h.enter();
///     let node = h.alloc(7);
///     unsafe { h.retire(node) };
///     h.leave();
/// }
///
/// retire_one::<Hyaline<u64>>();
/// retire_one::<Hyaline1<u64>>();
/// retire_one::<HyalineS<u64>>();
/// retire_one::<Hyaline1S<u64>>();
/// ```
///
/// `repr(C)` puts what every operation reads (`batch_min`, `era_freq` and
/// the slot directory's index fields) on the domain's first cache line.
#[repr(C)]
pub struct Domain<T: Send + 'static, L: SlotList, const ROBUST: bool> {
    batch_min: usize,
    era_freq: u64,
    list: L,
    era: EraClock,
    stats: SmrStats,
    pool: NodePool,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send + 'static> Domain<T, SharedSlots, true> {
    /// The current number of slots (grows under `adaptive`).
    pub fn slot_count(&self) -> usize {
        self.list.dir.k()
    }

    /// The current global era.
    pub fn era(&self) -> u64 {
        self.era.current()
    }
}

impl<T: Send + 'static, L: SlotList, const ROBUST: bool> std::fmt::Debug for Domain<T, L, ROBUST> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(Self::name())
            .field("slots", &self.list)
            .field("era", &self.era.current())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static, L: SlotList, const ROBUST: bool> Smr<T> for Domain<T, L, ROBUST> {
    type Handle<'d> = Handle<'d, T, L, ROBUST>;

    fn with_config(config: SmrConfig) -> Self {
        Self {
            list: L::new(&config, ROBUST),
            era: EraClock::new(),
            era_freq: config.era_freq,
            batch_min: config.batch_min,
            stats: SmrStats::new(),
            pool: NodePool::for_node::<T>(&config),
            _marker: PhantomData,
        }
    }

    fn handle(&self) -> Handle<'_, T, L, ROBUST> {
        Handle {
            domain: self,
            active: false,
            books: HandleBooks::new(&self.pool, &self.stats, self.list.claim()),
        }
    }

    fn stats(&self) -> &SmrStats {
        &self.stats
    }

    fn name() -> &'static str {
        L::NAMES[usize::from(ROBUST)]
    }

    fn robust() -> bool {
        ROBUST
    }

    fn supports_trim() -> bool {
        true
    }

    fn needs_seek_validation() -> bool {
        // A batch whose `min_birth` outruns a slot's access era skips the
        // slot permanently; a later `deref` of one of its nodes (reachable
        // only through an unlinked frozen region) would not be covered.
        // Validated traversals guarantee every protected node was still
        // reachable, and therefore unretired, when its era was certified.
        ROBUST
    }

    fn shardable_by_pointer() -> bool {
        // Without eras, protection is purely enter-scoped (slot references;
        // protect is a plain load) and alloc stamps no shard-local metadata.
        !ROBUST
    }
}

impl<T: Send + 'static, L: SlotList, const ROBUST: bool> Drop for Domain<T, L, ROBUST> {
    fn drop(&mut self) {
        // All handles borrowed `self`, so by now every thread has left and
        // flushed: each slot's final leave detached and reaped its list.
        debug_assert!(
            self.list.is_idle(),
            "{} domain dropped with a non-empty slot",
            Self::name()
        );
    }
}

/// Per-thread handle to a [`Domain`].
pub struct Handle<'d, T: Send + 'static, L: SlotList, const ROBUST: bool> {
    domain: &'d Domain<T, L, ROBUST>,
    active: bool,
    books: HandleBooks<'d, T>,
}

// SAFETY: the raw pointers are exclusively owned retired/reaped nodes (the
// local batch, reap list, and recycle magazine) plus the last-seen slot
// head, all usable from whichever thread drives the handle next; the domain
// borrow is `Sync`. The cached access era stays valid from any thread: an
// owned slot has this handle as its only writer wherever it runs, and a
// shared slot's era is re-read on every protect. Nothing is thread-affine,
// so a parked handle may move between tasks.
unsafe impl<T: Send + 'static, L: SlotList, const ROBUST: bool> Send for Handle<'_, T, L, ROBUST> {}

impl<T: Send + 'static, L: SlotList, const ROBUST: bool> std::fmt::Debug
    for Handle<'_, T, L, ROBUST>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("scheme", &Domain::<T, L, ROBUST>::name())
            .field("slot", &self.books.slot)
            .field("active", &self.active)
            .field("batch_len", &self.books.batch.count())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static, L: SlotList, const ROBUST: bool> Handle<'_, T, L, ROBUST> {
    /// The slot this handle enters through: its own slot with owned slots;
    /// with robust shared slots, the one it last entered (it may move
    /// between operations to avoid stalled slots).
    pub fn slot(&self) -> usize {
        self.books.slot
    }

    /// Finalizes a non-empty local batch against the current slot count `k`
    /// and inserts it. The batch is padded with dummies to `k + 1` nodes
    /// and carries `Adjs = 2^64 / k`.
    fn finalize(&mut self) {
        if self.books.batch.is_empty() {
            return;
        }
        let list = &self.domain.list;
        let k = list.k();
        self.books.pad(k + 1);
        // SAFETY: the batch is non-empty, and every node in it is owned by
        // this handle and unpublished.
        let fin = unsafe { self.books.batch.finalize(adjs_for(k)) };
        if ROBUST {
            // Order the pre-retire unlinks before the access-era reads.
            fence(Ordering::SeqCst);
        }
        // SAFETY: `fin` is this handle's own fresh batch, padded against `k`.
        unsafe { list.insert::<T, ROBUST>(fin, k, &mut self.books) };
    }
}

// Only `enter` asks to be inlined: forcing `alloc`, `retire` and `leave` into
// every structure call site made those calls slower in traced map workloads.
impl<T: Send + 'static, L: SlotList, const ROBUST: bool> SmrHandle<T> for Handle<'_, T, L, ROBUST> {
    #[inline]
    fn enter(&mut self) {
        debug_assert!(!self.active, "enter while already inside an operation");
        self.domain.list.enter::<T, ROBUST>(&mut self.books);
        self.active = true;
    }

    fn leave(&mut self) {
        debug_assert!(self.active, "leave without a matching enter");
        self.active = false;
        // SAFETY: this handle entered through its slot and kept the handle
        // node `enter` (or `trim`) recorded.
        unsafe { self.domain.list.leave::<T, ROBUST>(&mut self.books) };
        self.books.handle = ptr::null_mut();
        self.books.drain();
    }

    /// The §3.3 trimming: dereferences the sublist retired since `enter` (or
    /// the previous `trim`) without touching the slot's head.
    fn trim(&mut self) {
        debug_assert!(self.active, "trim outside an operation");
        // SAFETY: we are still inside the operation, so the head and its
        // sublist are pinned by our slot reference.
        unsafe { self.domain.list.trim::<T, ROBUST>(&mut self.books) };
        self.books.drain();
    }

    fn alloc(&mut self, value: T) -> Shared<T> {
        let domain = self.domain;
        // Figure 5's init_node: advance the clock every `Freq` allocations
        // and stamp the node's birth era.
        if ROBUST && self.books.era_tick(domain.era_freq) {
            domain.era.advance();
        }
        let birth = ROBUST.then(|| domain.era.current());
        Shared::from_node(self.books.alloc(value, birth))
    }

    // SAFETY: per the `SmrHandle::dealloc` contract the node was never
    // published, so this thread owns it outright and may free it in place.
    unsafe fn dealloc(&mut self, ptr: Shared<T>) {
        self.books.dealloc(ptr.as_node_ptr());
    }

    /// Plain domains need no per-access protection: slot references alone
    /// track active threads (Figure 1a: "No deref in basic Hyaline").
    ///
    /// Robust domains run Figure 5's `deref`: certify that the slot's access
    /// era matches the global clock *before* the pointer read that is
    /// returned. The re-read each iteration is what makes the certification
    /// sound: a pointer obtained after the era sync cannot belong to a batch
    /// that already skipped this slot.
    fn protect(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        if !ROBUST {
            return src.load(Ordering::Acquire);
        }
        let (domain, slot) = (self.domain, self.books.slot);
        let mut access = domain.list.access(slot, self.books.access);
        loop {
            let node = src.load(Ordering::Acquire);
            let alloc = domain.era.current();
            if access == alloc {
                return node;
            }
            access = domain.list.touch(slot, alloc);
            self.books.access = access;
        }
    }

    // SAFETY: per the `SmrHandle::retire` contract the node is unlinked from
    // every shared structure, so batching it for deferred free is sound.
    unsafe fn retire(&mut self, ptr: Shared<T>) {
        debug_assert!(self.active, "retire outside an operation");
        self.books.retire(ptr.as_node_ptr(), ROBUST);
        let domain = self.domain;
        if self.books.batch.count() >= domain.batch_min.max(domain.list.batch_floor() + 1) {
            self.finalize();
            self.books.drain();
        }
    }

    fn flush(&mut self) {
        self.finalize();
        self.books.drain();
        self.books.flush();
    }
}

impl<T: Send + 'static, L: SlotList, const ROBUST: bool> Drop for Handle<'_, T, L, ROBUST> {
    fn drop(&mut self) {
        if self.active {
            self.leave();
        }
        self.flush();
        self.domain.list.release(self.books.slot);
    }
}

#[cfg(test)]
pub(crate) mod tests;
