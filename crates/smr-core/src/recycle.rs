//! Layout-keyed node recycling: reclamation feeds allocation.
//!
//! Every reclamation scheme in the workspace ultimately frees nodes through
//! the global allocator, so at high thread counts the benchmarks measure
//! malloc contention as much as SMR cost. This module converts the reclaim
//! path into the allocator's fast path: reclaimed [`SmrNode`] memory goes to
//! a per-domain [`NodePool`], and `alloc` draws from the pool before falling
//! back to the global allocator.
//!
//! # Design
//!
//! * **Layout keyed, not type stable.** A pool recycles *memory*, never
//!   values: [`NodePool::dispose`] drops the payload immediately (so `Drop`
//!   side effects run exactly when the scheme frees the node) and only the
//!   raw allocation is retained. Pools are keyed by the [`Layout`] of the
//!   concrete `SmrNode<T>`; an allocation or disposal whose layout does not
//!   match the pool's key silently falls through to the global allocator, so
//!   a mixed-type domain can never hand out memory of the wrong size or
//!   alignment. Reused memory gets a freshly zeroed
//!   [`NodeHeader`] and keeps
//!   the original allocation's alignment, so the
//!   [`TAG_BITS`](crate::TAG_BITS) invariant is preserved for free.
//! * **Chains, linked in the batch-chain format.** Free nodes are linked
//!   through header word [`LINK_WORD`] (word 2): the next node's address,
//!   with the low [`TAG_BITS`](crate::TAG_BITS) ignored. That is the word
//!   and the format of a Hyaline batch chain, whose low bit flags a live
//!   payload, so a reclaimed batch already *is* a free chain.
//! * **Two-chain magazines.** Each handle owns a [`Magazine`]: two private
//!   null-terminated chains (`loaded` and `spare`), each of which knows its
//!   length and holds at most [`SmrConfig::recycle_magazine`] nodes. `alloc`
//!   pops from `loaded`, swapping in `spare` when `loaded` runs dry; a
//!   single dispose pushes onto `loaded`, and a full `loaded` becomes the
//!   new `spare`, the old `spare` going to the shared pool. Every one of
//!   these steps is O(1), and the common dispose→alloc round trip touches no
//!   shared cache line. A magazine gives its chains back to the shared pool
//!   when its handle drops ([`NodePool::flush`]), and keeps them across a
//!   [`HandlePool`](crate::HandlePool) check-in, so the next checkout
//!   allocates locally. Magazines also
//!   buffer the pool's hit/miss/recycled statistics and flush them to
//!   [`SmrStats`] in batches, like [`LocalStats`](crate::LocalStats) does
//!   for the core counters.
//! * **O(1) batch hand-off.** [`NodePool::dispose_chain`] takes a whole
//!   chain of reclaimed nodes whose head, tail and length the caller knows
//!   (a Hyaline batch records its node count on its REFS node) and links it
//!   into the magazine with one store, without visiting the nodes in
//!   between. A chain longer than a magazine goes to the shared pool whole.
//! * **Bounded shared blocks, ABA-free by construction.** The shared pool is
//!   a fixed array of cells, each empty (0) or holding the head of one
//!   block: a null-terminated chain whose length is stored in its head
//!   node's word 1. Only two operations touch a cell: *give* (a CAS from 0
//!   to the block's head) and *take* (an unconditional swap to 0). Neither
//!   reads a node that another thread can reach: a give's comparand is 0,
//!   never a pointer, so a stale observation can only fail the CAS; a take
//!   owns the whole block the moment its swap returns, so reading the length
//!   and walking links afterwards reads exclusively owned memory. The
//!   classic Treiber *pop-one* — read the head, read `head->next`, CAS the
//!   head to `next` — is deliberately absent: a node popped by another
//!   thread can be handed out, used and given back while that CAS still
//!   compares equal, which would splice its stale `next` (now an in-use
//!   node) into the pool. A take that finds a block longer than a magazine
//!   keeps its first `recycle_magazine` nodes (a walk bounded by the
//!   magazine size) and gives the rest back as a new block, so a later flush
//!   can return what is left in O(1). `interleave::recycle` model-checks
//!   this protocol and catches a fault-injected pop-one and a give that
//!   overwrites an occupied cell.
//! * **Occupancy hint.** One word holds a bit per cell: set when a give
//!   fills the cell, cleared just before a take empties it. A miss on an
//!   empty pool is one load of that word, never a scan of the cells. The
//!   bit is only a hint: a take that finds its cell empty moves on, and a
//!   give that finds its cell full sets the bit again.
//! * **Bounded.** A give first reserves its block's length in the pool's
//!   node count and backs off when that would pass
//!   [`SmrConfig::recycle_capacity`], so the pool never holds more than that
//!   many nodes, however long the spliced chains are. A block that finds the
//!   pool full (or every cell taken) is freed through the real allocator.
//!   The pool frees every cached allocation on `Drop`.
//!
//! Recycling is **on by default** ([`SmrConfig::recycle`]); a disabled pool
//! routes straight to [`SmrNode::alloc`]/[`SmrNode::dealloc`].

use crate::config::SmrConfig;
use crate::header::{NodeHeader, SmrNode};
use crate::stats::SmrStats;
use crossbeam_utils::CachePadded;
use std::alloc::{dealloc, Layout};
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Header word that links a free node to the next one in its chain. It is
/// the word, and the format, of the Hyaline batch chain (`batch_next`): the
/// next node's address with the low [`TAG_BITS`](crate::TAG_BITS) free for
/// flags, which the pool ignores.
pub const LINK_WORD: usize = 2;

/// Header word of a block's first node that holds the block's length while
/// the block sits in a shared cell.
const LEN_WORD: usize = 1;

/// Most cells a pool has: one bit each in the occupancy hint.
const MAX_CELLS: usize = usize::BITS as usize;

/// Header word `i` of the node at `node`.
///
/// # Safety
///
/// `node` must be a node allocation with an initialized header that the
/// caller owns exclusively (or that is quiescent), for as long as the
/// returned reference is used.
#[inline]
unsafe fn word<'a>(node: usize, i: usize) -> &'a AtomicUsize {
    (*(node as *const NodeHeader)).word(i)
}

/// The node after `node` in its chain (0 at the end).
///
/// # Safety
///
/// As for [`word`].
#[inline]
unsafe fn next(node: usize) -> usize {
    // ORDERING: chains are private to whoever holds them; a chain that came
    // out of a shared cell was ordered by the take's Acquire swap.
    word(node, LINK_WORD).load(Ordering::Relaxed) & !crate::TAG_MASK
}

/// A private null-terminated chain of free nodes that knows its length.
#[derive(Debug, Default)]
struct Chain {
    head: usize,
    len: usize,
}

impl Chain {
    /// Pushes one exclusively-owned node.
    ///
    /// # Safety
    ///
    /// `node` is an exclusively-owned node allocation not in any chain.
    #[inline]
    unsafe fn push(&mut self, node: usize) {
        word(node, LINK_WORD).store(self.head, Ordering::Relaxed);
        self.head = node;
        self.len += 1;
    }

    /// Pops the first node, if any.
    #[inline]
    fn pop(&mut self) -> Option<usize> {
        if self.head == 0 {
            return None;
        }
        let node = self.head;
        // SAFETY: every node of a chain is owned by the chain's holder.
        self.head = unsafe { next(node) };
        self.len -= 1;
        Some(node)
    }

    /// Links the chain `head..=tail` of `len` nodes in front of this one.
    ///
    /// # Safety
    ///
    /// `head..=tail` is an exclusively-owned chain of `len` nodes.
    #[inline]
    unsafe fn prepend(&mut self, head: usize, tail: usize, len: usize) {
        word(tail, LINK_WORD).store(self.head, Ordering::Relaxed);
        self.head = head;
        self.len += len;
    }
}

/// The shared counters every give and take updates, on one cache line.
#[derive(Debug, Default)]
struct Depot {
    /// Nodes in the cells, plus the reservations of gives in flight. Never
    /// above the pool's capacity.
    pooled: AtomicUsize,
    /// Bit `i` set: cell `i` probably holds a block (see the module docs).
    occupied: AtomicUsize,
}

/// A layout-keyed pool of recycled [`SmrNode`] allocations for one domain.
///
/// Built by each scheme from its [`SmrConfig`]; handles interact with it
/// through their [`Magazine`]. See the [module docs](self) for the design.
pub struct NodePool {
    layout: Layout,
    enabled: bool,
    magazine_cap: usize,
    capacity: usize,
    depot: CachePadded<Depot>,
    /// Each cell is 0 or the head of a block given to the pool.
    cells: Box<[AtomicUsize]>,
    /// One bit per cell.
    cell_mask: usize,
    next_cursor: AtomicUsize,
}

impl NodePool {
    /// A pool recycling nodes of payload type `T`, configured (and possibly
    /// disabled) by `config`'s recycle knobs.
    pub fn for_node<T>(config: &SmrConfig) -> Self {
        Self::with_layout(
            Layout::new::<SmrNode<T>>(),
            config.recycle,
            config.recycle_capacity,
            config.recycle_magazine,
        )
    }

    fn with_layout(layout: Layout, enabled: bool, capacity: usize, magazine: usize) -> Self {
        let magazine_cap = magazine.max(1);
        // Enough cells for the capacity in full magazine-sized blocks.
        let cells = if enabled {
            capacity.div_ceil(magazine_cap).min(MAX_CELLS)
        } else {
            0
        };
        Self {
            layout,
            enabled,
            magazine_cap,
            capacity,
            depot: CachePadded::new(Depot::default()),
            cells: (0..cells).map(|_| AtomicUsize::new(0)).collect(),
            cell_mask: usize::MAX
                .checked_shr((MAX_CELLS - cells) as u32)
                .unwrap_or(0),
            next_cursor: AtomicUsize::new(0),
        }
    }

    /// Whether recycling is enabled for this pool.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether this pool recycles nodes of payload type `T`: it is enabled
    /// and keyed to `SmrNode<T>`'s layout. Everything else falls through to
    /// the global allocator.
    #[inline]
    pub fn accepts<T>(&self) -> bool {
        self.enabled && Layout::new::<SmrNode<T>>() == self.layout
    }

    /// Nodes held in the shared cells right now (magazines excluded), plus
    /// the reservations of gives in flight. The cells themselves never hold
    /// more than [`SmrConfig::recycle_capacity`] nodes.
    pub fn pooled(&self) -> usize {
        self.depot.pooled.load(Ordering::Relaxed)
    }

    /// A fresh, empty magazine. Magazines start their cell searches at
    /// different cells (round-robin), so concurrent handles spread out.
    pub fn magazine(&self) -> Magazine {
        Magazine {
            loaded: Chain::default(),
            spare: Chain::default(),
            cursor: self.next_cursor.fetch_add(1, Ordering::Relaxed) % MAX_CELLS,
            hits: 0,
            misses: 0,
            recycled: 0,
        }
    }

    /// Allocates a node holding `value`, reusing pooled memory when possible.
    ///
    /// Falls back to [`SmrNode::alloc`] when the pool is disabled, empty, or
    /// keyed to a different layout.
    pub fn alloc<T>(&self, mag: &mut Magazine, shared: &SmrStats, value: T) -> NonNull<SmrNode<T>> {
        if !self.accepts::<T>() {
            return SmrNode::alloc(value);
        }
        match self.grab(mag, shared) {
            // SAFETY: `raw` came out of this pool, whose key equals
            // `Layout::new::<SmrNode<T>>()` (checked by `accepts`), and
            // pooled memory is exclusively owned by whoever popped it.
            Some(raw) => unsafe { SmrNode::renew(raw as *mut u8, value) },
            None => SmrNode::alloc(value),
        }
    }

    /// Allocates a payload-less dummy node (see [`SmrNode::alloc_dummy`]),
    /// reusing pooled memory when possible.
    ///
    /// # Safety
    ///
    /// Same contract as [`SmrNode::alloc_dummy`]: the payload must never be
    /// read and the node must be released with `drop_payload = false`.
    pub unsafe fn alloc_dummy<T>(
        &self,
        mag: &mut Magazine,
        shared: &SmrStats,
    ) -> NonNull<SmrNode<T>> {
        if !self.accepts::<T>() {
            return SmrNode::alloc_dummy();
        }
        match self.grab(mag, shared) {
            // SAFETY: layout match checked by `accepts`; pooled memory is
            // exclusively owned by whoever popped it.
            Some(raw) => SmrNode::renew_dummy(raw as *mut u8),
            None => SmrNode::alloc_dummy(),
        }
    }

    /// The common disposal hook for every scheme's reclaim path: drops the
    /// payload immediately (when `drop_payload`), then recycles the node's
    /// memory into `mag`/the pool instead of freeing it.
    ///
    /// Falls back to [`SmrNode::dealloc`] when the pool is disabled or keyed
    /// to a different layout, and to the real allocator when the magazine
    /// and the pool are both full.
    ///
    /// # Safety
    ///
    /// Same contract as [`SmrNode::dealloc`]: `node` must be exclusively
    /// owned and not yet freed, and `drop_payload` must be `true` exactly
    /// when the node holds a live payload.
    pub unsafe fn dispose<T>(
        &self,
        mag: &mut Magazine,
        shared: &SmrStats,
        node: *mut SmrNode<T>,
        drop_payload: bool,
    ) {
        if !self.accepts::<T>() {
            // SAFETY: forwarded caller contract.
            SmrNode::dealloc(node, drop_payload);
            return;
        }
        if drop_payload {
            // SAFETY: caller owns the node and asserts the payload is live.
            SmrNode::drop_value_in_place(node);
        }
        if mag.loaded.len >= self.magazine_cap {
            let full = std::mem::take(&mut mag.loaded);
            self.stash(mag, full);
        }
        mag.loaded.push(node as usize);
        mag.recycled += 1;
        mag.maybe_flush_stats(shared);
    }

    /// Hands the whole chain `head..=tail` of `len` reclaimed nodes to `mag`
    /// (or, when it is longer than a magazine, to the shared pool) without
    /// visiting the nodes in between. The chain links through
    /// [`LINK_WORD`], whose low [`TAG_BITS`](crate::TAG_BITS) are ignored;
    /// `tail`'s link is overwritten.
    ///
    /// Falls back to freeing every node through the real allocator, without
    /// dropping payloads, when the pool does not [`accept`](Self::accepts)
    /// `T`.
    ///
    /// # Safety
    ///
    /// `head..=tail` must be a chain of exactly `len >= 1` exclusively-owned
    /// `SmrNode<T>` allocations, not yet freed, whose payloads were already
    /// dropped or never written.
    pub unsafe fn dispose_chain<T>(
        &self,
        mag: &mut Magazine,
        shared: &SmrStats,
        head: *mut SmrNode<T>,
        tail: *mut SmrNode<T>,
        len: usize,
    ) {
        debug_assert!(len >= 1 && !head.is_null() && !tail.is_null());
        let (head, tail) = (head as usize, tail as usize);
        if !self.accepts::<T>() {
            word(tail, LINK_WORD).store(0, Ordering::Relaxed);
            free_chain(Chain { head, len }, Layout::new::<SmrNode<T>>());
            return;
        }
        mag.recycled += len as u64;
        if mag.spare.len + len <= self.magazine_cap {
            mag.spare.prepend(head, tail, len);
        } else if mag.loaded.len + len <= self.magazine_cap {
            mag.loaded.prepend(head, tail, len);
        } else {
            let mut chain = Chain::default();
            chain.prepend(head, tail, len);
            if len <= self.magazine_cap {
                self.stash(mag, chain);
            } else {
                self.give_or_free(chain, mag.cursor);
            }
        }
        mag.maybe_flush_stats(shared);
    }

    /// Gives both of the magazine's chains to the shared pool and publishes
    /// its buffered statistics, in O(1). Every scheme calls this when a
    /// handle drops, so a dead handle strands no memory.
    /// [`SmrHandle::flush`](crate::SmrHandle::flush) only publishes the
    /// statistics ([`Magazine::flush_stats`]): a handle parked by a
    /// [`HandlePool`](crate::HandlePool) check-in keeps its bounded
    /// magazine and serves its next checkout's allocations locally.
    pub fn flush(&self, mag: &mut Magazine, shared: &SmrStats) {
        let loaded = std::mem::take(&mut mag.loaded);
        self.give_or_free(loaded, mag.cursor);
        let spare = std::mem::take(&mut mag.spare);
        self.give_or_free(spare, mag.cursor);
        mag.flush_stats(shared);
    }

    /// Pops one recycled allocation: from `loaded`, else from `spare`, else
    /// from a block taken from the shared pool. Returns `None` on a pool
    /// miss.
    #[inline]
    fn grab(&self, mag: &mut Magazine, shared: &SmrStats) -> Option<usize> {
        if mag.loaded.head == 0 {
            if mag.spare.head != 0 {
                std::mem::swap(&mut mag.loaded, &mut mag.spare);
            } else {
                self.refill(mag);
            }
        }
        let raw = mag.loaded.pop();
        match raw {
            Some(_) => mag.hits += 1,
            None => mag.misses += 1,
        }
        mag.maybe_flush_stats(shared);
        raw
    }

    /// Makes `chain` the magazine's spare, giving the old spare to the
    /// shared pool.
    fn stash(&self, mag: &mut Magazine, chain: Chain) {
        let old = std::mem::replace(&mut mag.spare, chain);
        self.give_or_free(old, mag.cursor);
    }

    /// Loads an empty magazine with a block taken from the shared pool. A
    /// block longer than a magazine is cut after `magazine_cap` nodes and
    /// the rest given back.
    fn refill(&self, mag: &mut Magazine) {
        debug_assert!(mag.loaded.head == 0 && mag.spare.head == 0);
        let Some(block) = self.take(mag.cursor) else {
            return;
        };
        if block.len <= self.magazine_cap {
            mag.loaded = block;
            return;
        }
        let mut cut = block.head;
        for _ in 1..self.magazine_cap {
            // SAFETY: the taken block is exclusively ours (see `take`).
            cut = unsafe { next(cut) };
        }
        // SAFETY: as above; `cut` is the block's `magazine_cap`-th node.
        let rest_head = unsafe { next(cut) };
        let rest = Chain {
            head: rest_head,
            len: block.len - self.magazine_cap,
        };
        // SAFETY: as above.
        unsafe { word(cut, LINK_WORD).store(0, Ordering::Relaxed) };
        mag.loaded = Chain {
            head: block.head,
            len: self.magazine_cap,
        };
        self.give_or_free(rest, mag.cursor);
    }

    /// Gives `chain` to the shared pool, or frees its nodes through the real
    /// allocator when the pool has no room for it.
    fn give_or_free(&self, chain: Chain, cursor: usize) {
        if chain.len == 0 {
            return;
        }
        if let Err(chain) = self.give(chain, cursor) {
            // SAFETY: a rejected chain is still exclusively ours; pooled
            // nodes have layout `self.layout` and no live payload.
            unsafe { free_chain(chain, self.layout) };
        }
    }

    /// Puts a non-empty chain into an empty cell: a CAS from 0 to its head.
    /// Fails, handing the chain back, when the pool would pass its capacity
    /// or no cell is free.
    fn give(&self, chain: Chain, cursor: usize) -> Result<(), Chain> {
        debug_assert!(chain.len > 0);
        let depot = &*self.depot;
        // Reserve the room first, so the cells never hold more than
        // `capacity` nodes.
        let before = depot.pooled.fetch_add(chain.len, Ordering::Relaxed);
        if before + chain.len > self.capacity {
            depot.pooled.fetch_sub(chain.len, Ordering::Relaxed);
            return Err(chain);
        }
        // SAFETY: the chain is exclusively ours until the CAS publishes it.
        unsafe { word(chain.head, LEN_WORD).store(chain.len, Ordering::Relaxed) };
        let mut free = !depot.occupied.load(Ordering::Relaxed) & self.cell_mask;
        while free != 0 {
            let i = pick(free, cursor);
            free &= !(1 << i);
            // Release publishes the chain's link and length words to the
            // take that swaps it out.
            let won = self.cells[i]
                .compare_exchange(0, chain.head, Ordering::Release, Ordering::Relaxed)
                .is_ok();
            // Set the hint on a win, and heal it when the cell was full.
            depot.occupied.fetch_or(1 << i, Ordering::Relaxed);
            if won {
                return Ok(());
            }
        }
        depot.pooled.fetch_sub(chain.len, Ordering::Relaxed);
        Err(chain)
    }

    /// Takes a block out of a cell the occupancy hint marks: an unconditional
    /// swap to 0, after which the whole block is exclusively ours.
    fn take(&self, cursor: usize) -> Option<Chain> {
        let depot = &*self.depot;
        let mut full = depot.occupied.load(Ordering::Relaxed);
        while full != 0 {
            let i = pick(full, cursor);
            full &= !(1 << i);
            // Clear the hint before emptying the cell, so a give that
            // refills it afterwards always leaves its bit set.
            depot.occupied.fetch_and(!(1 << i), Ordering::Relaxed);
            // Acquire pairs with the Release of the give that filled it.
            let head = self.cells[i].swap(0, Ordering::Acquire);
            if head != 0 {
                // SAFETY: the swap detached the block; it is exclusively ours.
                let len = unsafe { word(head, LEN_WORD).load(Ordering::Relaxed) };
                depot.pooled.fetch_sub(len, Ordering::Relaxed);
                return Some(Chain { head, len });
            }
        }
        None
    }
}

/// Frees every node of `chain` through the real allocator as an allocation
/// of `layout`, without dropping payloads.
///
/// # Safety
///
/// `chain` is an exclusively-owned chain of allocations of `layout` whose
/// payloads are dropped or were never written.
unsafe fn free_chain(mut chain: Chain, layout: Layout) {
    while let Some(node) = chain.pop() {
        dealloc(node as *mut u8, layout);
    }
}

/// The first set bit of `bits` at or after bit `cursor`, wrapping around.
#[inline]
fn pick(bits: usize, cursor: usize) -> usize {
    debug_assert!(bits != 0);
    (bits.rotate_right(cursor as u32).trailing_zeros() as usize + cursor) % MAX_CELLS
}

impl fmt::Debug for NodePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodePool")
            .field("layout", &self.layout)
            .field("enabled", &self.enabled)
            .field("magazine_cap", &self.magazine_cap)
            .field("capacity", &self.capacity)
            .field("cells", &self.cells.len())
            .field("pooled", &self.pooled())
            .finish_non_exhaustive()
    }
}

// SAFETY: the pool only stores addresses of exclusively-owned allocations;
// all shared mutation goes through atomics.
unsafe impl Send for NodePool {}
// SAFETY: as above — give (CAS from 0) and take (swap to 0) are the only
// operations on a cell, and both are atomic.
unsafe impl Sync for NodePool {}

impl Drop for NodePool {
    fn drop(&mut self) {
        // `&mut self`: no handle can race us, so plain walks are fine.
        for i in 0..self.cells.len() {
            let head = std::mem::take(self.cells[i].get_mut());
            if head != 0 {
                // SAFETY: a cell's block is a chain of allocations of
                // `self.layout` whose payloads were dropped before they
                // entered the pool, and nobody else can reach it now.
                let len = unsafe { word(head, LEN_WORD).load(Ordering::Relaxed) };
                // SAFETY: as above.
                unsafe { free_chain(Chain { head, len }, self.layout) };
            }
        }
    }
}

/// How many buffered statistic events a magazine holds before flushing to
/// the shared [`SmrStats`] (mirrors `LocalStats`' batching).
const STAT_FLUSH_EVERY: u64 = 64;

/// A handle-local cache of recycled allocations (plus buffered pool
/// statistics), created by [`NodePool::magazine`]: two private chains of at
/// most [`SmrConfig::recycle_magazine`] nodes each.
///
/// A magazine must be flushed back to its pool (via [`NodePool::flush`])
/// before it is dropped; schemes do this when their handles drop.
pub struct Magazine {
    /// The chain `alloc` pops from and a single dispose pushes onto.
    loaded: Chain,
    /// A second chain, swapped in when `loaded` runs dry.
    spare: Chain,
    /// The cell where this magazine's searches of the shared pool start.
    cursor: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl Magazine {
    /// Nodes currently cached in this magazine.
    pub fn len(&self) -> usize {
        self.loaded.len + self.spare.len
    }

    /// Whether the magazine holds no cached nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn maybe_flush_stats(&mut self, shared: &SmrStats) {
        if self.hits + self.misses + self.recycled >= STAT_FLUSH_EVERY {
            self.flush_stats(shared);
        }
    }

    /// Publishes the buffered pool statistics to `shared`, keeping the
    /// cached nodes.
    pub fn flush_stats(&mut self, shared: &SmrStats) {
        if self.hits > 0 {
            shared.add_pool_hits(self.hits);
            self.hits = 0;
        }
        if self.misses > 0 {
            shared.add_pool_misses(self.misses);
            self.misses = 0;
        }
        if self.recycled > 0 {
            shared.add_recycled(self.recycled);
            self.recycled = 0;
        }
    }
}

impl fmt::Debug for Magazine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Magazine")
            .field("loaded", &self.loaded.len)
            .field("spare", &self.spare.len)
            .finish_non_exhaustive()
    }
}

// SAFETY: a magazine's cached addresses are exclusively owned by it; moving
// the magazine to another thread moves that ownership wholesale.
unsafe impl Send for Magazine {}

impl Drop for Magazine {
    fn drop(&mut self) {
        // A non-empty magazine at drop is a scheme bug (its handle failed to
        // flush) and would leak the cached nodes. Only a leak — never UB —
        // so debug-assert rather than abort release builds, and stay quiet
        // during unwinds where the flush legitimately never ran.
        if !std::thread::panicking() {
            debug_assert!(
                self.is_empty(),
                "magazine dropped with {} cached nodes; the owning handle \
                 must flush it back to its NodePool first",
                self.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static DROPS: AtomicU64 = AtomicU64::new(0);
    struct CountsDrops(#[allow(dead_code)] u64);
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn cfg(capacity: usize, magazine: usize) -> SmrConfig {
        SmrConfig {
            recycle: true,
            recycle_capacity: capacity,
            recycle_magazine: magazine,
            ..SmrConfig::default()
        }
    }

    /// Allocates `len` payload-less nodes and links them into a chain
    /// through [`LINK_WORD`], returning `(head, tail)`.
    fn chain_of(
        pool: &NodePool,
        mag: &mut Magazine,
        stats: &SmrStats,
        len: usize,
    ) -> (usize, usize) {
        let (mut head, mut tail) = (0, 0);
        for _ in 0..len {
            // SAFETY: the dummy is only linked and disposed, never read.
            let node = unsafe { pool.alloc_dummy::<u64>(mag, stats) }.as_ptr() as usize;
            // SAFETY: `node` is fresh and exclusively owned.
            unsafe { word(node, LINK_WORD).store(head | 1, Ordering::Relaxed) };
            if head == 0 {
                tail = node;
            }
            head = node;
        }
        (head, tail)
    }

    #[test]
    fn disabled_pool_routes_to_global_allocator() {
        let pool = NodePool::for_node::<u64>(&SmrConfig {
            recycle: false,
            ..SmrConfig::default()
        });
        assert!(!pool.enabled());
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        let node = pool.alloc(&mut mag, &stats, 7u64);
        // SAFETY: node freshly allocated above, exclusively owned.
        unsafe { pool.dispose(&mut mag, &stats, node.as_ptr(), true) };
        pool.flush(&mut mag, &stats);
        assert_eq!(stats.pool_hits(), 0);
        assert_eq!(stats.pool_misses(), 0);
        assert_eq!(stats.recycled(), 0);
    }

    #[test]
    fn recycling_is_on_by_default() {
        assert!(SmrConfig::default().recycle);
        assert!(NodePool::for_node::<u64>(&SmrConfig::default()).enabled());
    }

    #[test]
    fn dispose_then_alloc_reuses_memory_and_drops_payload_once() {
        let pool = NodePool::for_node::<CountsDrops>(&cfg(1024, 8));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        DROPS.store(0, Ordering::Relaxed);
        let node = pool.alloc(&mut mag, &stats, CountsDrops(1));
        let addr = node.as_ptr() as usize;
        // Dirty the header so reuse proves it is re-zeroed.
        // SAFETY: `node` was just allocated and is exclusively owned.
        unsafe { node.as_ref() }
            .header()
            .word(2)
            .store(0xdead, Ordering::Relaxed);
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut mag, &stats, node.as_ptr(), true) };
        assert_eq!(DROPS.load(Ordering::Relaxed), 1, "payload dropped eagerly");
        let reused = pool.alloc(&mut mag, &stats, CountsDrops(2));
        assert_eq!(reused.as_ptr() as usize, addr, "memory reused");
        for w in 0..crate::NodeHeader::WORDS {
            assert_eq!(
                // SAFETY: `reused` was just allocated and is exclusively owned.
                unsafe { reused.as_ref() }
                    .header()
                    .word(w)
                    .load(Ordering::Relaxed),
                0,
                "header word {w} re-zeroed on reuse"
            );
        }
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut mag, &stats, reused.as_ptr(), true) };
        pool.flush(&mut mag, &stats);
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
        assert_eq!(stats.pool_hits(), 1);
        assert_eq!(stats.pool_misses(), 1);
        assert_eq!(stats.recycled(), 2);
    }

    #[test]
    fn layout_mismatch_falls_through() {
        // Pool keyed to u64 nodes; a [u64; 16] node must bypass it entirely.
        let pool = NodePool::for_node::<u64>(&cfg(1024, 8));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        let big = pool.alloc(&mut mag, &stats, [7u64; 16]);
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut mag, &stats, big.as_ptr(), true) };
        pool.flush(&mut mag, &stats);
        assert_eq!(
            stats.pool_hits() + stats.pool_misses() + stats.recycled(),
            0
        );
        assert!(mag.is_empty(), "mismatched node never entered the magazine");
    }

    #[test]
    fn capacity_overflow_frees_for_real() {
        // Zero capacity: every spill must hit the real allocator; nothing is
        // retained, so later allocations are all misses.
        let pool = NodePool::for_node::<u64>(&cfg(0, 2));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        let nodes: Vec<_> = (0..64)
            .map(|i| pool.alloc(&mut mag, &stats, i as u64))
            .collect();
        for n in nodes {
            // SAFETY: exclusively owned, live payload.
            unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
        }
        pool.flush(&mut mag, &stats);
        assert!(mag.is_empty());
        let n = pool.alloc(&mut mag, &stats, 0u64);
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
        pool.flush(&mut mag, &stats);
        assert_eq!(stats.pool_hits(), 0, "zero-capacity pool can never hit");
    }

    #[test]
    fn cross_magazine_recycle_through_shared_partition() {
        let pool = NodePool::for_node::<u64>(&cfg(1024, 4));
        let stats = SmrStats::new();
        let mut producer = pool.magazine();
        let mut addrs = Vec::new();
        for i in 0..32 {
            let n = pool.alloc(&mut producer, &stats, i as u64);
            addrs.push(n.as_ptr() as usize);
            // SAFETY: exclusively owned, live payload.
            unsafe { pool.dispose(&mut producer, &stats, n.as_ptr(), true) };
        }
        pool.flush(&mut producer, &stats);
        // A different magazine (starting its search at a different cell)
        // must still find the given blocks through the occupancy hint.
        let mut consumer = pool.magazine();
        let n = pool.alloc(&mut consumer, &stats, 99u64);
        assert!(
            addrs.contains(&(n.as_ptr() as usize)),
            "consumer reused producer's memory"
        );
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut consumer, &stats, n.as_ptr(), true) };
        pool.flush(&mut consumer, &stats);
    }

    #[test]
    fn pool_drop_frees_cached_nodes() {
        DROPS.store(0, Ordering::Relaxed);
        let pool = NodePool::for_node::<CountsDrops>(&cfg(1024, 4));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        for i in 0..32 {
            let n = pool.alloc(&mut mag, &stats, CountsDrops(i));
            // SAFETY: exclusively owned, live payload.
            unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
        }
        pool.flush(&mut mag, &stats);
        assert_eq!(
            DROPS.load(Ordering::Relaxed),
            32,
            "payloads dropped at dispose"
        );
        drop(mag);
        drop(pool); // must free the cached allocations (leak-checked under ASan)
    }

    #[test]
    fn concurrent_producers_and_consumers_balance() {
        let pool = NodePool::for_node::<u64>(&cfg(4096, 8));
        let stats = SmrStats::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(|| {
                    let mut mag = pool.magazine();
                    let mut live = Vec::new();
                    for i in 0..2000u64 {
                        live.push(pool.alloc(&mut mag, &stats, i));
                        if live.len() > 16 {
                            let n: NonNull<SmrNode<u64>> = live.swap_remove(0);
                            // SAFETY: exclusively owned, live payload.
                            unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
                        }
                    }
                    for n in live {
                        // SAFETY: exclusively owned, live payload.
                        unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
                    }
                    pool.flush(&mut mag, &stats);
                    let _ = t;
                });
            }
        });
        assert_eq!(stats.pool_hits() + stats.pool_misses(), 8000);
        assert_eq!(stats.recycled(), 8000);
        assert!(stats.pool_hits() > 0, "cross-thread reuse must occur");
        assert!(pool.pooled() <= 4096);
    }

    #[test]
    fn flush_is_idempotent_and_unstrands_capacity() {
        let pool = NodePool::for_node::<u64>(&cfg(1024, 64));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        for i in 0..16 {
            let n = pool.alloc(&mut mag, &stats, i as u64);
            // SAFETY: exclusively owned, live payload.
            unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
        }
        assert!(!mag.is_empty(), "magazine caches below its capacity");
        pool.flush(&mut mag, &stats);
        assert!(mag.is_empty(), "flush spills everything");
        pool.flush(&mut mag, &stats);
        assert!(mag.is_empty());
        // Another magazine can now see the capacity.
        let mut other = pool.magazine();
        let n = pool.alloc(&mut other, &stats, 7u64);
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut other, &stats, n.as_ptr(), true) };
        pool.flush(&mut other, &stats);
        assert!(stats.pool_hits() >= 1);
    }

    #[test]
    fn spliced_chain_is_reused_node_by_node() {
        let pool = NodePool::for_node::<u64>(&cfg(1024, 8));
        let stats = SmrStats::new();
        let mut mag = pool.magazine();
        let (head, tail) = chain_of(&pool, &mut mag, &stats, 8);
        // SAFETY: an exclusively-owned chain of 8 payload-less nodes.
        unsafe { pool.dispose_chain::<u64>(&mut mag, &stats, head as *mut _, tail as *mut _, 8) };
        assert_eq!(mag.len(), 8, "a chain that fits stays in the magazine");
        assert_eq!(pool.pooled(), 0);
        let mut seen = Vec::new();
        for i in 0..8 {
            seen.push(pool.alloc(&mut mag, &stats, i));
        }
        assert!(mag.is_empty());
        assert!(seen.iter().any(|n| n.as_ptr() as usize == head));
        assert!(seen.iter().any(|n| n.as_ptr() as usize == tail));
        for n in seen {
            // SAFETY: exclusively owned, live payload.
            unsafe { pool.dispose(&mut mag, &stats, n.as_ptr(), true) };
        }
        pool.flush(&mut mag, &stats);
        assert_eq!(stats.pool_hits(), 8);
        assert_eq!(stats.recycled(), 16);
    }

    #[test]
    fn long_chain_goes_to_the_pool_and_refill_cuts_a_magazine_block() {
        let pool = NodePool::for_node::<u64>(&cfg(1024, 4));
        let stats = SmrStats::new();
        let mut producer = pool.magazine();
        let (head, tail) = chain_of(&pool, &mut producer, &stats, 10);
        // SAFETY: an exclusively-owned chain of 10 payload-less nodes.
        unsafe {
            pool.dispose_chain::<u64>(&mut producer, &stats, head as *mut _, tail as *mut _, 10)
        };
        assert!(
            producer.is_empty(),
            "a chain longer than a magazine skips it"
        );
        assert_eq!(pool.pooled(), 10);
        let mut consumer = pool.magazine();
        let first = pool.alloc(&mut consumer, &stats, 1u64);
        assert_eq!(
            first.as_ptr() as usize,
            head,
            "the block's head comes first"
        );
        assert_eq!(consumer.len(), 3, "refill keeps one magazine of nodes");
        assert_eq!(pool.pooled(), 6, "the rest went back as one block");
        // SAFETY: exclusively owned, live payload.
        unsafe { pool.dispose(&mut consumer, &stats, first.as_ptr(), true) };
        pool.flush(&mut consumer, &stats);
        pool.flush(&mut producer, &stats);
        assert_eq!(pool.pooled(), 10);
    }

    #[test]
    fn capacity_and_magazine_bound_cached_nodes() {
        const CAPACITY: usize = 24;
        const MAGAZINE: usize = 4;
        let pool = NodePool::for_node::<u64>(&cfg(CAPACITY, MAGAZINE));
        let stats = SmrStats::new();
        let mut mags: Vec<Magazine> = (0..4).map(|_| pool.magazine()).collect();
        for round in 0..50 {
            for (m, mag) in mags.iter_mut().enumerate() {
                let len = 1 + (round * 7 + m * 3) % 11;
                let (head, tail) = chain_of(&pool, mag, &stats, len);
                // SAFETY: an exclusively-owned chain of `len` nodes.
                unsafe {
                    pool.dispose_chain::<u64>(mag, &stats, head as *mut _, tail as *mut _, len)
                };
                assert!(mag.len() <= 2 * MAGAZINE, "magazine holds {}", mag.len());
                assert!(pool.pooled() <= CAPACITY, "pool holds {}", pool.pooled());
                if round % 3 == 0 {
                    pool.flush(mag, &stats);
                    assert!(pool.pooled() <= CAPACITY, "pool holds {}", pool.pooled());
                }
            }
        }
        for mag in mags.iter_mut() {
            pool.flush(mag, &stats);
        }
        assert!(pool.pooled() <= CAPACITY);
    }
}
