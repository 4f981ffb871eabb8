//! The kv-oversub workload: a `Sharded<Hyaline>` hash map served to ten
//! thousand connections through `smr-async`, the way `run_kv_service`
//! drives it, with every burst timed from `TaskGuard::acquire_deferred`
//! through the guard's check-in.
//!
//! The service loop is restated here rather than called so that the
//! benchmark can time bursts, operations and the async layer's calls
//! without editing the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lockfree_ds::{ConcurrentMap, ListNode, MichaelHashMap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smr_async::sync::oneshot;
use smr_async::{block_on, scope, yield_now, ReclaimRouter, ReclaimStats, TaskGuard};
use smr_core::{HandlePool, Smr, SmrConfig, SmrHandle};

use crate::round::{
    self, check_contents, check_drained, draw_op, map_op, Outcomes, RoundOut, BURST,
    BURST_SAMPLE_EVERY, OP_SAMPLE_EVERY,
};
use crate::trace::{self, now_ns};

/// The shape of the kv-oversub workload.
#[derive(Debug, Clone)]
pub struct KvSpec {
    pub connections: usize,
    pub ops_per_connection: usize,
    /// Keys are the smaller of two uniform draws from `0..key_range`.
    pub key_range: u64,
    pub prefill: usize,
    pub get_pct: u32,
    pub put_pct: u32,
    pub workers: usize,
    pub pool_capacity: usize,
    pub reclaimers: usize,
    pub queue_capacity: usize,
    pub config: SmrConfig,
}

/// One burst in this many is traced in full in a traced round.
const TRACE_BURST_EVERY: u64 = 1024;

type Node = ListNode<u64, u64>;

#[derive(Default)]
struct Shared {
    outcomes: Outcomes,
    op_ns: Vec<u64>,
    burst_ns: Vec<u64>,
    unreclaimed: Vec<u64>,
}

fn skewed_key(rng: &mut SmallRng, range: u64) -> u64 {
    rng.gen_range(0..range).min(rng.gen_range(0..range))
}

/// Runs the whole connection fleet once and checks the service's end
/// state.
pub fn run_round<S: Smr<Node>>(spec: &KvSpec, seed: u64, traced: bool) -> RoundOut {
    let mut out = RoundOut::new(traced);
    let setup_start = Instant::now();
    let map: MichaelHashMap<u64, u64, S> = MichaelHashMap::with_config(spec.config.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let prefilled = round::prefill(&map, spec.key_range, spec.prefill, &mut rng);
    let pool = HandlePool::new(map.domain(), spec.pool_capacity);
    let router = ReclaimRouter::new(spec.reclaimers, spec.queue_capacity);
    let gate = router.shutdown_gate(spec.connections);
    let shared = Mutex::new(Shared::default());
    let completed = AtomicU64::new(0);
    let before = (map.stats().retired(), map.stats().freed());
    let bursts_per_conn = spec.ops_per_connection.div_ceil(BURST) as u64;

    let (run_start, reclaim) = scope(spec.workers, |sp| {
        // The executor's workers are running once the scope calls back.
        out.setup_s = setup_start.elapsed().as_secs_f64();
        let run_start = Instant::now();
        let mut stat_rxs = Vec::with_capacity(router.shards());
        for shard in 0..router.shards() {
            let (tx, rx) = oneshot();
            let (router, pool) = (&router, &pool);
            sp.spawn(async move { tx.send(router.run_shard(shard, pool).await) });
            stat_rxs.push(rx);
        }
        for conn in 0..spec.connections {
            let (map, pool, router, gate, shared, completed) =
                (&map, &pool, &router, &gate, &shared, &completed);
            let conn_seed = rng.gen::<u64>();
            sp.spawn(async move {
                let _departure = gate.departure();
                let mut rng = SmallRng::seed_from_u64(conn_seed);
                let mut local = Shared::default();
                let mut remaining = spec.ops_per_connection;
                let mut burst_index = conn as u64 * bursts_per_conn;
                while remaining > 0 {
                    burst_index += 1;
                    let ops = BURST.min(remaining);
                    let trace_burst = traced && burst_index.is_multiple_of(TRACE_BURST_EVERY);
                    let start = now_ns();
                    let mut guard = TaskGuard::acquire_deferred(pool, router.queue(conn)).await;
                    let traced_burst = trace_burst && trace::begin_at("burst", start);
                    if traced_burst {
                        trace::record("smr-async.acquire", start, now_ns());
                    }
                    for _ in 0..ops {
                        let op = draw_op(&mut rng, spec.get_pct, spec.put_pct);
                        let key = skewed_key(&mut rng, spec.key_range);
                        // Offset by connection, so the timed operations
                        // fall evenly on every position within a burst
                        // (the first runs cold, the last warm).
                        let op_start = (local.outcomes.ops + conn as u64)
                            .is_multiple_of(OP_SAMPLE_EVERY)
                            .then(now_ns);
                        round::timed(traced_burst, "op", || {
                            guard.enter();
                            map_op(map, &mut *guard, op, key, traced, &mut local.outcomes);
                            guard.leave();
                        });
                        if let Some(t) = op_start {
                            local.op_ns.push(now_ns().saturating_sub(t));
                        }
                    }
                    round::timed(traced_burst, "smr-async.checkin", || drop(guard));
                    if traced_burst {
                        trace::end();
                    }
                    if burst_index.is_multiple_of(BURST_SAMPLE_EVERY) {
                        local.burst_ns.push(now_ns().saturating_sub(start));
                        local.unreclaimed.push(map.domain().unreclaimed_estimate());
                    }
                    completed.fetch_add(ops as u64, Ordering::Relaxed);
                    remaining -= ops;
                    let yielded = now_ns();
                    yield_now().await;
                    if traced_burst {
                        trace::record_root("smr-async.turnaround", yielded, now_ns());
                    }
                }
                trace::flush_thread();
                let mut all = shared.lock().expect("a connection panicked");
                all.outcomes.merge(&local.outcomes);
                all.op_ns.extend(local.op_ns);
                all.burst_ns.extend(local.burst_ns);
                all.unreclaimed.extend(local.unreclaimed);
            });
        }
        let mut total = ReclaimStats::default();
        for rx in stat_rxs {
            let stats = block_on(rx).expect("a reclaimer ended without reporting");
            total.flushed += stats.flushed;
            total.vacuous += stats.vacuous;
            total.swept += stats.swept;
        }
        (run_start, total)
    });
    let elapsed = run_start.elapsed().as_secs_f64();

    let shared = shared.into_inner().expect("a connection panicked");
    let ops = completed.load(Ordering::Relaxed);
    out.rates_mops.push(ops as f64 / elapsed / 1e6);
    out.attempted = (spec.connections * spec.ops_per_connection) as u64;
    out.op_ns = shared.op_ns;
    out.burst_ns = shared.burst_ns;
    out.unreclaimed = shared.unreclaimed;
    out.reclaim = reclaim;
    out.retired = map.stats().retired() - before.0;
    out.freed = map.stats().freed() - before.1;
    out.updates = shared.outcomes.updates;
    out.updates_ok = shared.outcomes.inserted + shared.outcomes.removed;

    let (dirty, checked_out) = (pool.dirty(), pool.checked_out());
    drop(pool);
    let outcomes = shared.outcomes;
    let expected = prefilled + outcomes.inserted - outcomes.removed;
    out.check = if ops != out.attempted || outcomes.ops != out.attempted {
        Err(format!(
            "{ops} operations completed, {} expected",
            out.attempted
        ))
    } else if dirty != 0 || checked_out != 0 {
        Err(format!(
            "pool left {dirty} dirty and {checked_out} checked-out handles"
        ))
    } else {
        check_contents(&map, spec.key_range, expected, &outcomes)
            .and_then(|()| check_drained(map.stats().retired(), map.stats().freed()))
    };
    if traced {
        out.spans = trace::take_collected();
    }
    out
}

#[cfg(test)]
mod tests {
    use hyaline::Hyaline;
    use smr_core::Sharded;

    use super::*;
    use crate::trace::{self_times, Traced};

    fn small() -> KvSpec {
        KvSpec {
            connections: 256,
            ops_per_connection: 64,
            key_range: 512,
            prefill: 256,
            get_pct: 70,
            put_pct: 20,
            workers: 2,
            pool_capacity: 4,
            reclaimers: 2,
            queue_capacity: 64,
            config: SmrConfig {
                slots: 16,
                shards: 4,
                max_threads: 8,
                ..SmrConfig::default()
            },
        }
    }

    #[test]
    fn service_round_passes_its_checks_under_two_seeds() {
        for seed in [1, 2] {
            let r = run_round::<Sharded<Hyaline<Node>>>(&small(), seed, false);
            assert_eq!(r.check, Ok(()), "seed {seed}");
            assert_eq!(r.attempted, 256 * 64);
            assert!(!r.burst_ns.is_empty() && !r.op_ns.is_empty());
        }
    }

    #[test]
    fn traced_round_times_the_async_layer() {
        let _serial = crate::trace::TEST_COLLECT
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let spec = KvSpec {
            connections: 2048,
            ..small()
        };
        let r = run_round::<Traced<Sharded<Hyaline<Node>>>>(&spec, 5, true);
        assert_eq!(r.check, Ok(()));
        for name in [
            "burst",
            "smr-async.acquire",
            "smr-async.checkin",
            "smr-async.turnaround",
            "op",
            "smr.pin_shard",
        ] {
            assert!(r.spans.iter().any(|s| s.name == name), "no {name} span");
        }
        assert_eq!(self_times(&r.spans).violations, 0);
    }
}
