//! Hyaline: fast and transparent lock-free memory reclamation.
//!
//! This crate implements every algorithm of *"Hyaline: Fast and Transparent
//! Lock-Free Memory Reclamation"* (Nikolaev & Ravindran, PODC 2019). The
//! paper builds its family as deltas on one algorithm, and so does the
//! crate: one generic [`core::Domain`] takes a slot list and a robustness
//! flag, and the four schemes are its instances.
//!
//! | slot list | plain | robust: birth and access eras (Figure 5) |
//! |---|---|---|
//! | shared `[HRef, HPtr]` slots, `Adjs` (Figure 3) | [`Hyaline`] | [`HyalineS`], with `Ack` and §4.3 growth |
//! | one owned slot per handle, `Inserts` (Figure 4) | [`Hyaline1`] | [`Hyaline1S`] |
//!
//! Figure 3 is the general algorithm, with the §3.3 `trim`. Figure 4 swaps
//! in a single-width head with one slot per handle, which makes
//! `enter`/`leave` wait-free. Figure 5 adds eras on top of either, so a
//! stalled thread cannot pin memory retired after it stalled.
//!
//! * [`batch`] — the batch core every variant (and the `crystalline` crate)
//!   shares: node header layout, reference counting, and per-handle
//!   bookkeeping.
//! * [`llsc`] — a software model of single-width LL/SC reservation granules
//!   and the Figure 7 head operations built on them (the paper's PPC/MIPS
//!   port, §4.4).
//!
//! All variants implement the [`smr_core::Smr`] interface, so any data
//! structure written against it (see the `lockfree-ds` crate) can use them
//! interchangeably with the baseline schemes.
//!
//! # Quick start
//!
//! ```
//! use hyaline::Hyaline;
//! use smr_core::{Atomic, Shared, Smr, SmrHandle};
//! use std::sync::atomic::Ordering;
//!
//! let domain: Hyaline<String> = Hyaline::new();
//! let slot = Atomic::null();
//!
//! let mut h = domain.handle();
//! h.enter();
//! let node = h.alloc("hello".to_string());
//! slot.store(node, Ordering::Release);
//! // ... publish to other threads, operate, then unlink:
//! let unlinked = slot.swap(Shared::null(), Ordering::AcqRel);
//! unsafe { h.retire(unlinked) };
//! h.leave(); // the thread is immediately "off the hook"
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod core;
pub mod head;
mod hyaline;
mod hyaline1;
mod hyaline1_s;
mod hyaline_s;
pub mod llsc;
mod registry;

pub use crate::hyaline::{Hyaline, HyalineHandle};
pub use crate::hyaline1::{Hyaline1, Hyaline1Handle};
pub use crate::hyaline1_s::{Hyaline1S, Hyaline1SHandle};
pub use crate::hyaline_s::{HyalineS, HyalineSHandle};
