//! Thread-driven map workloads: a closed loop of worker threads, each
//! running its next operation as soon as the previous one returns.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use lockfree_ds::ConcurrentMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smr_core::{Smr, SmrConfig, SmrHandle};

use crate::round::{
    self, check_contents, check_drained, draw_op, map_op, Outcomes, RoundOut, BURST,
    BURST_SAMPLE_EVERY, OP_SAMPLE_EVERY,
};
use crate::trace;

/// The shape of a thread-driven map workload.
#[derive(Debug, Clone)]
pub struct MapSpec {
    /// Worker threads running operations.
    pub threads: usize,
    /// Extra threads that enter an operation and stay inside it for the
    /// whole round.
    pub stalled: usize,
    /// Keys are uniform over `0..key_range`.
    pub key_range: u64,
    pub prefill: usize,
    pub get_pct: u32,
    /// Inserts; the rest of the mix removes.
    pub put_pct: u32,
    pub config: SmrConfig,
}

/// One operation in this many is traced in full in a traced round.
const TRACE_EVERY: u64 = 2048;
/// Untimed run-in after start-up, before the measured window.
const WARMUP: Duration = Duration::from_millis(100);
/// Length of one throughput sub-window.
const INTERVAL: Duration = Duration::from_millis(250);

const WARMING: u8 = 0;
const MEASURING: u8 = 1;
const STOPPED: u8 = 2;

#[repr(align(128))]
struct PaddedCount(AtomicU64);

struct WorkerOut {
    outcomes: Outcomes,
    op_ns: Vec<u64>,
    burst_ns: Vec<u64>,
    unreclaimed: Vec<u64>,
}

/// Runs one round: build and prefill the map, start the threads, measure
/// for `window`, stop, and check the map.
pub fn run_round<S, M>(spec: &MapSpec, seed: u64, window: Duration, traced: bool) -> RoundOut
where
    S: Smr<M::Node>,
    M: ConcurrentMap<S>,
{
    let mut out = RoundOut::new(traced);
    let setup_start = Instant::now();
    let map = M::with_config(spec.config.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let prefilled = round::prefill(&map, spec.key_range, spec.prefill, &mut rng);

    let phase = AtomicU8::new(WARMING);
    let done: Vec<PaddedCount> = (0..spec.threads)
        .map(|_| PaddedCount(AtomicU64::new(0)))
        .collect();
    let ready = Barrier::new(spec.threads + spec.stalled + 1);
    let (release_stalled, stalled_rx) = mpsc::channel::<()>();
    let stalled_rx = std::sync::Mutex::new(stalled_rx);

    let workers: Vec<WorkerOut> = std::thread::scope(|s| {
        let (map, phase, done, ready) = (&map, &phase, &done, &ready);
        let handles: Vec<_> = (0..spec.threads)
            .map(|t| {
                let thread_seed = rng.gen::<u64>() ^ t as u64;
                s.spawn(move || {
                    worker::<S, M>(map, spec, thread_seed, phase, &done[t].0, ready, traced)
                })
            })
            .collect();
        let stalled: Vec<_> = (0..spec.stalled)
            .map(|_| {
                let key = rng.gen_range(0..spec.key_range);
                let rx = &stalled_rx;
                s.spawn(move || {
                    let mut h = map.handle();
                    h.enter();
                    map.map_get(&mut h, key);
                    ready.wait();
                    // Parked inside the operation until the round ends.
                    let _ = rx.lock().expect("stalled reader poisoned").recv();
                    h.leave();
                })
            })
            .collect();

        ready.wait();
        out.setup_s = setup_start.elapsed().as_secs_f64();
        std::thread::sleep(WARMUP);

        let before = (map.stats().retired(), map.stats().freed());
        phase.store(MEASURING, Ordering::SeqCst);
        let start = Instant::now();
        let count = || {
            done.iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        let (mut last_t, mut last_n) = (start, count());
        let intervals = (window.as_secs_f64() / INTERVAL.as_secs_f64())
            .round()
            .max(1.0) as u32;
        for i in 1..=intervals {
            let deadline = start + window * i / intervals;
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            let (t, n) = (Instant::now(), count());
            out.rates_mops
                .push((n - last_n) as f64 / (t - last_t).as_secs_f64() / 1e6);
            (last_t, last_n) = (t, n);
        }
        phase.store(STOPPED, Ordering::SeqCst);
        out.retired = map.stats().retired() - before.0;
        out.freed = map.stats().freed() - before.1;
        drop(release_stalled);
        for h in stalled {
            h.join().expect("stalled reader panicked");
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut outcomes = Outcomes::default();
    for w in workers {
        outcomes.merge(&w.outcomes);
        out.op_ns.extend(w.op_ns);
        out.burst_ns.extend(w.burst_ns);
        out.unreclaimed.extend(w.unreclaimed);
    }
    out.attempted = outcomes.ops;
    out.updates = outcomes.updates;
    out.updates_ok = outcomes.inserted + outcomes.removed;
    let expected = prefilled + outcomes.inserted - outcomes.removed;
    out.check = check_contents(&map, spec.key_range, expected, &outcomes)
        .and_then(|()| check_drained(map.stats().retired(), map.stats().freed()));
    if traced {
        out.spans = trace::take_collected();
    }
    out
}

fn worker<S, M>(
    map: &M,
    spec: &MapSpec,
    seed: u64,
    phase: &AtomicU8,
    done: &AtomicU64,
    ready: &Barrier,
    traced: bool,
) -> WorkerOut
where
    S: Smr<M::Node>,
    M: ConcurrentMap<S>,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = WorkerOut {
        outcomes: Outcomes::default(),
        op_ns: Vec::new(),
        burst_ns: Vec::new(),
        unreclaimed: Vec::new(),
    };
    let mut h = map.handle();
    ready.wait();
    let (mut n, mut bursts) = (0u64, 0u64);
    loop {
        let measuring = match phase.load(Ordering::Relaxed) {
            STOPPED => break,
            p => p == MEASURING,
        };
        bursts += 1;
        let burst_start =
            (measuring && bursts.is_multiple_of(BURST_SAMPLE_EVERY)).then(trace::now_ns);
        for _ in 0..BURST {
            n += 1;
            let op = draw_op(&mut rng, spec.get_pct, spec.put_pct);
            let key = rng.gen_range(0..spec.key_range);
            let traced_op =
                traced && measuring && n.is_multiple_of(TRACE_EVERY) && trace::begin("op");
            let op_start = (measuring && n.is_multiple_of(OP_SAMPLE_EVERY)).then(trace::now_ns);
            h.enter();
            map_op(map, &mut h, op, key, traced, &mut out.outcomes);
            h.leave();
            if let Some(t) = op_start {
                out.op_ns.push(trace::now_ns().saturating_sub(t));
                out.unreclaimed.push(map.domain().unreclaimed_estimate());
            }
            if traced_op {
                trace::end();
            }
        }
        if let Some(t) = burst_start {
            out.burst_ns.push(trace::now_ns().saturating_sub(t));
        }
        done.store(n, Ordering::Relaxed);
    }
    h.flush();
    drop(h);
    trace::flush_thread();
    out
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use hyaline::Hyaline;
    use lockfree_ds::{ListNode, MichaelHashMap};
    use smr_core::Smr;

    use super::*;
    use crate::trace::{self_times, Traced};

    type Node = ListNode<u64, u64>;

    /// A map that acknowledges one insert in 1000 without performing it.
    struct DropsInserts<M> {
        inner: M,
        inserts: AtomicU64,
    }

    impl<S: Smr<M::Node>, M: ConcurrentMap<S>> ConcurrentMap<S> for DropsInserts<M> {
        type Node = M::Node;
        const NAME: &'static str = "drops-inserts";

        fn with_config(config: SmrConfig) -> Self {
            DropsInserts {
                inner: M::with_config(config),
                inserts: AtomicU64::new(0),
            }
        }

        fn domain(&self) -> &S {
            self.inner.domain()
        }

        fn map_get<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<u64> {
            self.inner.map_get(h, key)
        }

        fn map_insert<'a>(&'a self, h: &mut S::Handle<'a>, key: u64, value: u64) -> bool {
            if self.inserts.fetch_add(1, Ordering::Relaxed) % 1000 == 999 {
                return true;
            }
            self.inner.map_insert(h, key, value)
        }

        fn map_remove<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<u64> {
            self.inner.map_remove(h, key)
        }
    }

    fn churn() -> MapSpec {
        match crate::workload("hashmap-churn") {
            Some(crate::Spec::Map { spec, .. }) => spec,
            other => panic!("hashmap-churn is not a map workload: {other:?}"),
        }
    }

    const WINDOW: Duration = Duration::from_millis(50);

    #[test]
    fn check_fails_on_a_map_that_drops_one_insert_in_1000() {
        type Faulty = DropsInserts<MichaelHashMap<u64, u64, Hyaline<Node>>>;
        let r = run_round::<Hyaline<Node>, Faulty>(&churn(), 3, WINDOW, false);
        let err = r.check.expect_err("dropped inserts went unnoticed");
        assert!(err.contains("sweep found"), "{err}");
    }

    #[test]
    fn traced_round_nests_every_span_inside_its_parent() {
        let _serial = crate::trace::TEST_COLLECT
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        type S = Traced<Hyaline<Node>>;
        let r = run_round::<S, MichaelHashMap<u64, u64, S>>(
            &churn(),
            4,
            Duration::from_millis(200),
            true,
        );
        assert_eq!(r.check, Ok(()));
        assert!(
            r.spans.iter().any(|s| s.name == "op"),
            "no operation was traced"
        );
        for name in [
            "smr.enter",
            "smr.leave",
            "smr.alloc",
            "smr.retire",
            "lockfree-ds.insert",
        ] {
            assert!(r.spans.iter().any(|s| s.name == name), "no {name} span");
        }
        assert_eq!(self_times(&r.spans).violations, 0);
    }
}
