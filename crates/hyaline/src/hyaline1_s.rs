//! Hyaline-1S (Figures 4 and 5): the [`Domain`] over owned slots, with
//! eras.

use crate::core::{Domain, Handle, OwnedSlots};

/// Hyaline-1S: owned single-width slots (Figure 4) with birth and access
/// eras (Figure 5).
///
/// Each slot has exactly one owner, so `touch` is an ordinary memory write
/// and no `Ack` bookkeeping is needed: a stalled thread only makes its
/// *own* slot stale, and retirement skips it by the era check, so the
/// scheme is fully robust.
///
/// # Example
///
/// ```
/// use hyaline::Hyaline1S;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: Hyaline1S<u32> = Hyaline1S::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(1);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub type Hyaline1S<T> = Domain<T, OwnedSlots, true>;

/// Per-thread handle to a [`Hyaline1S`] domain; owns one slot.
pub type Hyaline1SHandle<'d, T> = Handle<'d, T, OwnedSlots, true>;

#[cfg(test)]
mod tests {
    use crate::core::tests as t;
    type D = crate::Hyaline1S<u64>;
    crate::core::tests::shared_bodies!(Hyaline1S);

    #[test]
    fn single_thread_reclaims_everything() {
        t::single_thread_reclaims::<D>();
    }
    #[test]
    fn multithreaded_stress() {
        t::stress::<D>(t::cfg(), 8, 2_000);
    }
    #[test]
    fn trim_reclaims_mid_operation() {
        t::trim_reclaims_mid_operation::<D>();
    }
    #[test]
    fn stalled_thread_is_skipped_by_era() {
        t::stalled_thread_is_skipped_by_era::<D>(t::cfg());
    }
    #[test]
    fn fresh_reader_is_tracked_not_skipped() {
        t::fresh_reader_is_tracked_not_skipped::<D>();
    }
}
