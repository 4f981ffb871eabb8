//! Hyaline-1 (Figure 4): the [`Domain`] over owned slots, without eras.

use crate::core::{Domain, Handle, OwnedSlots};

/// Hyaline-1 (Figure 4): owned single-width slots, no eras.
///
/// It works with single-width CAS on any architecture and makes
/// `enter`/`leave` wait-free, at the cost of one slot per live handle:
/// threads register by claiming a slot, so it is *almost* transparent (the
/// paper's Table 1).
///
/// # Example
///
/// ```
/// use hyaline::Hyaline1;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: Hyaline1<u32> = Hyaline1::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(1);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub type Hyaline1<T> = Domain<T, OwnedSlots, false>;

/// Per-thread handle to a [`Hyaline1`] domain; owns one slot.
pub type Hyaline1Handle<'d, T> = Handle<'d, T, OwnedSlots, false>;

#[cfg(test)]
mod tests {
    use crate::core::tests as t;
    type D = crate::Hyaline1<u64>;
    crate::core::tests::shared_bodies!(Hyaline1);

    #[test]
    fn single_thread_reclaims_everything() {
        t::single_thread_reclaims::<D>();
    }
    #[test]
    fn oversubscribed_stress() {
        t::stress::<D>(
            t::SmrConfig {
                batch_min: 8,
                ..t::cfg()
            },
            12,
            1_500,
        );
    }
    #[test]
    fn trim_reclaims_mid_operation() {
        t::trim_reclaims_mid_operation::<D>();
    }
    #[test]
    fn handles_own_distinct_slots() {
        t::handles_own_distinct_slots();
    }
    #[test]
    fn reader_pins_batches_until_leave() {
        t::reader_pins_batches_until_leave::<D>();
    }
    #[test]
    fn partial_batch_flush_with_many_active_slots() {
        t::partial_batch_flush_with_many_active_slots();
    }
    #[test]
    fn churn_of_handles_is_transparent() {
        t::churn_of_handles_is_transparent::<D>();
    }
}
