//! Per-layer figures from the traced rounds' spans and counters.
//!
//! Layers are named by the module whose public calls a span times:
//! `smr.*` for `Smr`/`SmrHandle` calls (through `Traced`), `lockfree-ds.*`
//! for the benchmark's calls into `ConcurrentMap`, `smr-async.*` for
//! `TaskGuard` acquire and check-in and the yield between bursts. The root
//! spans are `op` (one map operation, `enter` to `leave`) and `burst` (one
//! kv-oversub burst).

use std::collections::HashMap;

use crate::report::{in_order, ratio, Metric, PER_LAYER};
use crate::round::RoundOut;
use crate::stats::{median, quantile, quantile_of};
use crate::trace::{self_times, Span};

/// Per-layer figures that are a quantile of one span's durations:
/// (metric, span, quantile, nanoseconds per unit).
const SPAN_QUANTILES: [(&str, &str, f64, f64); 17] = [
    ("smr.retire.p50_ns", "smr.retire", 0.5, 1.0),
    ("smr.retire.p99_ns", "smr.retire", 0.99, 1.0),
    ("smr.leave.p50_ns", "smr.leave", 0.5, 1.0),
    ("smr.leave.p99_ns", "smr.leave", 0.99, 1.0),
    ("smr.alloc.p50_ns", "smr.alloc", 0.5, 1.0),
    ("smr.alloc.p99_ns", "smr.alloc", 0.99, 1.0),
    ("smr.enter.p50_ns", "smr.enter", 0.5, 1.0),
    ("smr.enter.p99_ns", "smr.enter", 0.99, 1.0),
    ("smr.protect.p50_ns", "smr.protect", 0.5, 1.0),
    ("smr.pin_shard.p50_ns", "smr.pin_shard", 0.5, 1.0),
    ("lockfree-ds.get.p50_ns", "lockfree-ds.get", 0.5, 1.0),
    ("lockfree-ds.insert.p50_ns", "lockfree-ds.insert", 0.5, 1.0),
    ("lockfree-ds.remove.p50_ns", "lockfree-ds.remove", 0.5, 1.0),
    ("smr-async.acquire.p50_us", "smr-async.acquire", 0.5, 1e3),
    ("smr-async.acquire.p99_us", "smr-async.acquire", 0.99, 1e3),
    ("smr-async.checkin.p50_ns", "smr-async.checkin", 0.5, 1.0),
    (
        "smr-async.turnaround.p50_us",
        "smr-async.turnaround",
        0.5,
        1e3,
    ),
];

/// Per-layer figures; a layer the workload never calls reports 0 with 0
/// samples.
pub fn per_layer(rounds: &[RoundOut]) -> Vec<Metric> {
    let traced: Vec<&RoundOut> = rounds.iter().filter(|r| r.traced).collect();
    let mut durations: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut ds_self = Vec::new();
    let (mut op_ns, mut smr_in_ops) = (0u64, 0u64);
    for r in &traced {
        let selfs = self_times(&r.spans);
        let by_id: HashMap<u64, &Span> = r.spans.iter().map(|s| (s.id, s)).collect();
        for s in &r.spans {
            durations.entry(s.name).or_default().push(s.duration());
            if s.name.starts_with("lockfree-ds.") {
                ds_self.push(selfs.by_id[&s.id]);
            }
            if s.name == "op" {
                op_ns += s.duration();
            } else if s.name.starts_with("smr.") && inside_op(s, &by_id) {
                smr_in_ops += s.duration();
            }
        }
    }
    for d in durations.values_mut() {
        d.sort_unstable();
    }
    let count = |name: &str| durations.get(name).map_or(0, Vec::len);
    let ops = count("op");
    let per_op = |name: &str| ratio(count(name) as f64, ops as f64);
    let sum = |f: fn(&RoundOut) -> u64| traced.iter().map(|r| f(r)).sum::<u64>() as f64;
    let unreclaimed = || traced.iter().flat_map(|r| r.unreclaimed.iter().copied());
    let rates = |traced: bool| {
        let r: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced == traced)
            .flat_map(|r| r.rates_mops.iter().copied())
            .collect();
        median(&r)
    };
    let tickets = sum(|r| (r.reclaim.vacuous + r.reclaim.flushed) as u64);
    let ds_self_p50 = quantile_of(ds_self.clone(), 0.5);
    let leave_max = durations
        .get("smr.leave")
        .and_then(|d| d.last())
        .map_or(0, |&m| m) as f64;

    let mut values: Vec<(&str, f64, usize)> = SPAN_QUANTILES
        .iter()
        .map(|&(metric, span, q, unit_ns)| {
            let d = durations.get(span).map_or(&[][..], Vec::as_slice);
            (metric, quantile(d, q) / unit_ns, d.len())
        })
        .collect();
    values.extend([
        ("smr.retire_per_op", per_op("smr.retire"), ops),
        ("smr.leave.max_ns", leave_max, count("smr.leave")),
        ("smr.protect_per_op", per_op("smr.protect"), ops),
        (
            "smr.dealloc_per_alloc",
            ratio(count("smr.dealloc") as f64, count("smr.alloc") as f64),
            count("smr.alloc"),
        ),
        (
            "smr.freed_per_retire",
            ratio(sum(|r| r.freed), sum(|r| r.retired)),
            traced.len(),
        ),
        (
            "smr.self_share",
            ratio(smr_in_ops as f64, op_ns as f64),
            ops,
        ),
        (
            "smr.unreclaimed_peak_nodes",
            unreclaimed().max().unwrap_or(0) as f64,
            unreclaimed().count(),
        ),
        ("lockfree-ds.self.p50_ns", ds_self_p50, ds_self.len()),
        (
            "lockfree-ds.update_success_frac",
            ratio(sum(|r| r.updates_ok), sum(|r| r.updates)),
            sum(|r| r.updates) as usize,
        ),
        (
            "smr-async.reclaim.vacuous_frac",
            ratio(sum(|r| r.reclaim.vacuous as u64), tickets),
            tickets as usize,
        ),
        (
            "trace.overhead_frac",
            1.0 - ratio(rates(true), rates(false)),
            rounds.len(),
        ),
    ]);
    in_order(&PER_LAYER, &values)
}

/// Whether `s` runs inside an `op` span.
fn inside_op(s: &Span, by_id: &HashMap<u64, &Span>) -> bool {
    let mut parent = s.parent;
    while let Some(p) = by_id.get(&parent) {
        if p.name == "op" {
            return true;
        }
        parent = p.parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn layer_figures_from_synthetic_spans() {
        let mut traced = RoundOut::new(true);
        traced.spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "smr.enter", 0, 10),
            span(3, 1, "lockfree-ds.insert", 10, 90),
            span(4, 3, "smr.alloc", 20, 30),
            span(5, 3, "smr.protect", 30, 40),
            span(6, 1, "smr.leave", 90, 100),
            span(7, 0, "op", 200, 300),
            span(8, 7, "smr.enter", 200, 220),
            span(9, 7, "lockfree-ds.remove", 220, 280),
            span(10, 9, "smr.retire", 250, 260),
            span(11, 7, "smr.leave", 280, 300),
            // Outside any op: counted for its layer, not in the op share.
            span(12, 0, "smr-async.turnaround", 400, 2400),
        ];
        traced.rates_mops = vec![8.0];
        traced.retired = 10;
        traced.freed = 8;
        traced.updates = 4;
        traced.updates_ok = 3;
        traced.unreclaimed = vec![5, 70, 9];
        let mut plain = RoundOut::new(false);
        plain.rates_mops = vec![10.0];
        let m = per_layer(&[plain, traced]);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap();
        assert_eq!(get("smr.retire_per_op").value, 0.5);
        assert_eq!(get("smr.protect_per_op").value, 0.5);
        assert_eq!(get("smr.dealloc_per_alloc").value, 0.0);
        assert_eq!(get("smr.leave.max_ns").value, 20.0);
        // smr spans inside the two ops: 10+10+10+10 + 20+10+20 = 90 of 200.
        assert_eq!(get("smr.self_share").value, 0.45);
        // insert self = 80 - 20, remove self = 60 - 10: median of {60, 50}.
        let ds_self = get("lockfree-ds.self.p50_ns");
        assert_eq!((ds_self.value, ds_self.samples), (60.0, 2));
        assert_eq!(get("smr.freed_per_retire").value, 0.8);
        assert_eq!(get("lockfree-ds.update_success_frac").value, 0.75);
        assert_eq!(get("smr.unreclaimed_peak_nodes").value, 70.0);
        assert_eq!(get("smr-async.turnaround.p50_us").value, 2.0005);
        assert!((get("trace.overhead_frac").value - 0.2).abs() < 1e-12);
        // No async layer ran: reported as 0 with no samples.
        let acquire = get("smr-async.acquire.p50_us");
        assert_eq!((acquire.value, acquire.samples), (0.0, 0));
    }
}
