//! Hyaline-S (Figure 5): the [`Domain`] over shared slots, with eras.

use crate::core::{Domain, Handle, SharedSlots};

/// Hyaline-S (Figure 5): shared slots with birth eras, per-slot access eras
/// and `Ack`-based stall detection, plus the §4.3 adaptive slot directory
/// (Figure 6) when [`SmrConfig::adaptive`](smr_core::SmrConfig::adaptive) is set.
///
/// Eras only *detect stalled threads*; they do not define reclamation
/// intervals. `retire` skips slots whose access era is older than the
/// batch's minimum birth era, since no thread there can hold a reference to
/// the batch. With `adaptive: false` the slot count is capped at
/// [`SmrConfig::slots`](smr_core::SmrConfig::slots) (Figure 10a shows this configuration "running out of
/// slots" once more threads stall than there are slots). With
/// `adaptive: true` the directory doubles whenever `enter` finds every slot
/// saturated, making the scheme fully robust.
///
/// # Example
///
/// ```
/// use hyaline::HyalineS;
/// use smr_core::{Smr, SmrConfig, SmrHandle};
///
/// let domain: HyalineS<u64> = HyalineS::with_config(SmrConfig {
///     slots: 8,
///     adaptive: true,
///     ..SmrConfig::default()
/// });
/// let mut h = domain.handle();
/// h.enter();
/// let node = h.alloc(1);
/// unsafe { h.retire(node) };
/// h.leave();
/// ```
pub type HyalineS<T> = Domain<T, SharedSlots, true>;

/// Per-thread handle to a [`HyalineS`] domain.
pub type HyalineSHandle<'d, T> = Handle<'d, T, SharedSlots, true>;

#[cfg(test)]
mod tests {
    use crate::core::tests as t;
    type D = crate::HyalineS<u64>;
    crate::core::tests::shared_bodies!(HyalineS);

    #[test]
    fn single_thread_reclaims_everything() {
        t::single_thread_reclaims::<D>();
    }
    #[test]
    fn multithreaded_stress_reclaims_all() {
        let config = t::SmrConfig {
            adaptive: true,
            max_threads: 256,
            ..t::cfg()
        };
        t::stress::<D>(config, 8, 2_000);
    }
    #[test]
    fn trim_reclaims_mid_operation() {
        t::trim_reclaims_mid_operation::<D>();
    }
    #[test]
    fn stalled_thread_does_not_block_new_batches() {
        t::stalled_thread_is_skipped_by_era::<D>(t::SmrConfig {
            slots: 2,
            ..t::cfg()
        });
    }
    #[test]
    fn birth_era_recorded_on_alloc() {
        t::birth_era_recorded_on_alloc();
    }
    #[test]
    fn protect_raises_access_era() {
        t::protect_raises_access_era();
    }
    #[test]
    fn enter_avoids_saturated_slots() {
        t::enter_avoids_saturated_slots();
    }
    #[test]
    fn adaptive_growth_when_all_slots_saturated() {
        t::adaptive_growth_when_all_slots_saturated();
    }
    #[test]
    fn capped_variant_falls_back_to_least_saturated() {
        t::capped_variant_falls_back_to_least_saturated();
    }
}
