//! What every workload round shares: the operation generator, one map
//! operation with its outcome bookkeeping, the correctness check and the
//! round's measurements.

use lockfree_ds::ConcurrentMap;
use rand::rngs::SmallRng;
use rand::Rng;
use smr_async::ReclaimStats;
use smr_core::{Smr, SmrHandle};

use crate::trace::{self, Span};

/// Operations one client runs back to back between two yields (a
/// kv-oversub connection holds one guard for a burst; a thread-driven
/// worker's burst is timed the same way).
pub const BURST: usize = 16;
/// One operation in this many is timed from `enter` to `leave`, and one
/// unreclaimed-count sample is taken with it.
pub const OP_SAMPLE_EVERY: u64 = 64;
/// One burst in this many is timed.
pub const BURST_SAMPLE_EVERY: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    Insert,
    Remove,
}

/// The value stored under `key`, so that every read can be checked.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1_e995
}

/// Draws an operation: `get_pct`% gets, then `put_pct`% inserts, the rest
/// removes.
pub fn draw_op(rng: &mut SmallRng, get_pct: u32, put_pct: u32) -> Op {
    let roll = rng.gen_range(0..100u32);
    if roll < get_pct {
        Op::Get
    } else if roll < get_pct + put_pct {
        Op::Insert
    } else {
        Op::Remove
    }
}

/// Outcomes of the map operations one client ran.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcomes {
    pub ops: u64,
    pub inserted: u64,
    pub removed: u64,
    pub updates: u64,
    pub wrong_values: u64,
}

impl Outcomes {
    pub fn merge(&mut self, o: &Outcomes) {
        self.ops += o.ops;
        self.inserted += o.inserted;
        self.removed += o.removed;
        self.updates += o.updates;
        self.wrong_values += o.wrong_values;
    }
}

/// Runs `f`, as a span named `name` when the round is traced.
#[inline]
pub fn timed<R>(traced: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
    if traced {
        trace::span(name, f)
    } else {
        f()
    }
}

/// One map operation inside an `enter`/`leave` pair the caller owns.
#[inline]
pub fn map_op<'a, S, M>(
    map: &'a M,
    h: &mut S::Handle<'a>,
    op: Op,
    key: u64,
    traced: bool,
    out: &mut Outcomes,
) where
    S: Smr<M::Node>,
    M: ConcurrentMap<S>,
{
    out.ops += 1;
    match op {
        Op::Get => {
            let got = timed(traced, "lockfree-ds.get", || map.map_get(h, key));
            out.wrong_values += u64::from(got.is_some_and(|v| v != value_of(key)));
        }
        Op::Insert => {
            out.updates += 1;
            let ok = timed(traced, "lockfree-ds.insert", || {
                map.map_insert(h, key, value_of(key))
            });
            out.inserted += u64::from(ok);
        }
        Op::Remove => {
            out.updates += 1;
            if let Some(v) = timed(traced, "lockfree-ds.remove", || map.map_remove(h, key)) {
                out.removed += 1;
                out.wrong_values += u64::from(v != value_of(key));
            }
        }
    }
}

/// Inserts `count` distinct keys drawn uniformly from `0..key_range`;
/// returns how many inserts the map reported as successful.
pub fn prefill<S, M>(map: &M, key_range: u64, count: usize, rng: &mut SmallRng) -> u64
where
    S: Smr<M::Node>,
    M: ConcurrentMap<S>,
{
    assert!(
        count as u64 <= key_range,
        "prefill larger than the key range"
    );
    let mut h = map.handle();
    let mut inserted = 0;
    while inserted < count as u64 {
        let key = rng.gen_range(0..key_range);
        h.enter();
        inserted += u64::from(map.map_insert(&mut h, key, value_of(key)));
        h.leave();
    }
    h.flush();
    inserted
}

/// The post-run check on a quiescent map: a single-threaded sweep must find
/// exactly `expected` keys, each holding its own value, and no client may
/// have read a wrong value.
pub fn check_contents<S, M>(
    map: &M,
    key_range: u64,
    expected: u64,
    outcomes: &Outcomes,
) -> Result<(), String>
where
    S: Smr<M::Node>,
    M: ConcurrentMap<S>,
{
    let mut h = map.handle();
    let (mut present, mut wrong) = (0u64, outcomes.wrong_values);
    for key in 0..key_range {
        h.enter();
        if let Some(v) = map.map_get(&mut h, key) {
            present += 1;
            wrong += u64::from(v != value_of(key));
        }
        h.leave();
    }
    h.flush();
    if wrong > 0 {
        return Err(format!(
            "{wrong} reads returned a value other than the key's"
        ));
    }
    if present != expected {
        return Err(format!(
            "sweep found {present} keys, expected {expected} (prefill + inserts - removes)"
        ));
    }
    Ok(())
}

/// Once every handle has flushed and dropped, a Hyaline domain has freed
/// everything that was retired.
pub fn check_drained(retired: u64, freed: u64) -> Result<(), String> {
    if retired == freed {
        Ok(())
    } else {
        Err(format!(
            "retired {retired} != freed {freed} after every handle dropped"
        ))
    }
}

/// Everything one round measured.
#[derive(Debug)]
pub struct RoundOut {
    pub traced: bool,
    pub setup_s: f64,
    /// Operations issued in the round, warm-up included.
    pub attempted: u64,
    /// Completed operations per second (millions) over each measured
    /// sub-window.
    pub rates_mops: Vec<f64>,
    pub op_ns: Vec<u64>,
    pub burst_ns: Vec<u64>,
    pub unreclaimed: Vec<u64>,
    /// Domain counter deltas over the measured window.
    pub retired: u64,
    pub freed: u64,
    pub updates: u64,
    pub updates_ok: u64,
    pub reclaim: ReclaimStats,
    pub spans: Vec<Span>,
    pub check: Result<(), String>,
}

impl RoundOut {
    pub fn new(traced: bool) -> Self {
        RoundOut {
            traced,
            setup_s: 0.0,
            attempted: 0,
            rates_mops: Vec::new(),
            op_ns: Vec::new(),
            burst_ns: Vec::new(),
            unreclaimed: Vec::new(),
            retired: 0,
            freed: 0,
            updates: 0,
            updates_ok: 0,
            reclaim: ReclaimStats::default(),
            spans: Vec::new(),
            check: Ok(()),
        }
    }
}
