//! Hyaline (Figure 3): the [`Domain`] over shared slots, without eras.

use crate::core::{Domain, Handle, SharedSlots};

/// The general Hyaline domain (paper Sections 3.1–3.3, Figure 3): shared
/// slots, no eras.
///
/// Hyaline is fully *transparent*: handles need no registration and any
/// number of threads may share the fixed `k` slots. It is **not robust**: a
/// stalled thread inside an operation pins every batch retired in its slot
/// since it entered (use [`HyalineS`](crate::HyalineS) when robustness matters).
///
/// # Example
///
/// ```
/// use hyaline::Hyaline;
/// use smr_core::{Smr, SmrHandle};
///
/// let domain: Hyaline<u64> = Hyaline::new();
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(7);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub type Hyaline<T> = Domain<T, SharedSlots, false>;

/// Per-thread handle to a [`Hyaline`] domain.
pub type HyalineHandle<'d, T> = Handle<'d, T, SharedSlots, false>;

#[cfg(test)]
mod tests {
    use crate::core::tests as t;
    type D = crate::Hyaline<u64>;
    crate::core::tests::shared_bodies!(Hyaline);

    #[test]
    fn adjs_constant_matches_paper() {
        t::adjs_constant_matches_paper();
    }
    #[test]
    fn single_thread_retire_reclaims_everything() {
        t::single_thread_reclaims::<D>();
    }
    #[test]
    fn many_threads_stress_reclaims_all() {
        t::stress::<D>(
            t::SmrConfig {
                batch_min: 8,
                ..t::cfg()
            },
            8,
            2_000,
        );
    }
    #[test]
    fn trim_reclaims_without_leaving() {
        t::trim_reclaims_mid_operation::<D>();
    }
    #[test]
    fn protect_is_plain_load() {
        t::protect_is_plain_load();
    }
    #[test]
    fn concurrent_stalled_reader_blocks_then_releases() {
        t::reader_pins_batches_until_leave::<D>();
    }
}
