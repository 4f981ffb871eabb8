//! Metric definitions, the end-to-end figures and the printed output.

use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;

use crate::round::RoundOut;
use crate::stats::{median, quantile_of};
use crate::trace::self_times;
use crate::Spec;

/// End-to-end metrics (`--trace 0`), with units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_mops", "Mops/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("unreclaimed_p50_nodes", "nodes"),
    ("burst_p50_us", "us"),
    ("burst_p99_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("smr.retire.p50_ns", "ns"),
    ("smr.retire.p99_ns", "ns"),
    ("smr.retire_per_op", "count/op"),
    ("smr.leave.p50_ns", "ns"),
    ("smr.leave.p99_ns", "ns"),
    ("smr.leave.max_ns", "ns"),
    ("smr.freed_per_retire", "ratio"),
    ("smr.alloc.p50_ns", "ns"),
    ("smr.alloc.p99_ns", "ns"),
    ("smr.dealloc_per_alloc", "ratio"),
    ("smr.enter.p50_ns", "ns"),
    ("smr.enter.p99_ns", "ns"),
    ("smr.protect.p50_ns", "ns"),
    ("smr.protect_per_op", "count/op"),
    ("smr.self_share", "ratio"),
    ("smr.pin_shard.p50_ns", "ns"),
    ("smr.unreclaimed_peak_nodes", "nodes"),
    ("lockfree-ds.get.p50_ns", "ns"),
    ("lockfree-ds.insert.p50_ns", "ns"),
    ("lockfree-ds.remove.p50_ns", "ns"),
    ("lockfree-ds.self.p50_ns", "ns"),
    ("lockfree-ds.update_success_frac", "ratio"),
    ("smr-async.acquire.p50_us", "us"),
    ("smr-async.acquire.p99_us", "us"),
    ("smr-async.checkin.p50_ns", "ns"),
    ("smr-async.turnaround.p50_us", "us"),
    ("smr-async.reclaim.vacuous_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples (spans, readings, rounds) the value rests on.
    pub samples: usize,
}

/// Builds metrics in the order of `table`, looking each value up by name.
pub fn in_order(
    table: &[(&'static str, &'static str)],
    values: &[(&str, f64, usize)],
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let &(_, value, samples) = values
                .iter()
                .find(|v| v.0 == name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end figures over the untraced rounds.
pub fn end_to_end(rounds: &[RoundOut]) -> Vec<Metric> {
    let untraced = || rounds.iter().filter(|r| !r.traced);
    let rates: Vec<f64> = untraced()
        .flat_map(|r| r.rates_mops.iter().copied())
        .collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let op_ns: Vec<u64> = untraced().flat_map(|r| r.op_ns.iter().copied()).collect();
    let burst_ns: Vec<u64> = untraced()
        .flat_map(|r| r.burst_ns.iter().copied())
        .collect();
    let unreclaimed: Vec<u64> = untraced()
        .flat_map(|r| r.unreclaimed.iter().copied())
        .collect();
    let (ops, bursts, samples) = (op_ns.len(), burst_ns.len(), unreclaimed.len());
    in_order(
        &END_TO_END,
        &[
            ("throughput_mops", median(&rates), rates.len()),
            ("op_p50_ns", quantile_of(op_ns.clone(), 0.5), ops),
            ("op_p99_ns", quantile_of(op_ns, 0.99), ops),
            (
                "unreclaimed_p50_nodes",
                quantile_of(unreclaimed, 0.5),
                samples,
            ),
            (
                "burst_p50_us",
                quantile_of(burst_ns.clone(), 0.5) / 1e3,
                bursts,
            ),
            ("burst_p99_us", quantile_of(burst_ns, 0.99) / 1e3, bursts),
            ("setup_s", median(&setups), setups.len()),
        ],
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(rounds: &[RoundOut], metrics: &[Metric]) -> String {
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds
        .iter()
        .filter(|r| r.check.is_err())
        .map(|r| r.attempted)
        .sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

fn git_sha() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if !std::path::Path::new(root).join(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["-C", root, "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The provenance line printed before the result: host, commit, seed, the
/// workload's scheme, structure and configuration, every metric's sample
/// count and every failed check.
#[allow(clippy::too_many_arguments)]
pub fn provenance(
    workload: &str,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: &[RoundOut],
    metrics: &[Metric],
    trace_file: Option<PathBuf>,
) -> String {
    let nproc = crate::nproc();
    let (scheme, params) = match spec {
        crate::Spec::Map { scheme, spec } => (scheme, format!("{spec:?}")),
        crate::Spec::Kv { scheme, spec } => (scheme, format!("{spec:?}")),
    };
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(m.name), m.samples))
        .collect();
    let checks: Vec<String> = rounds
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            r.check
                .as_ref()
                .err()
                .map(|e| json_str(&format!("round {i}: {e}")))
        })
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"worker_threads\": {}, \"oversubscribed\": {}, \"git_sha\": {}, \
         \"scheme\": {}, \"structure\": \"hashmap\", \"params\": {}, \"rounds\": {}}}, \
         \"samples\": {{{}}}, \"failed_checks\": [{}], \"trace_file\": {}}}",
        json_str(workload),
        json_num(seconds),
        spec.worker_threads(),
        spec.worker_threads() > nproc,
        json_str(&git_sha()),
        json_str(scheme),
        json_str(&params),
        rounds.len(),
        samples.join(", "),
        checks.join(", "),
        trace_file.map_or("null".into(), |p| json_str(&p.display().to_string())),
    )
}

/// Writes every span of the traced rounds, with its self time, as
/// tab-separated text under `perfbench/traces/`.
pub fn write_trace(workload: &str, seed: u64, rounds: &[RoundOut]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/traces"));
    std::fs::create_dir_all(&dir)?;
    // One file per workload, overwritten by the next traced run.
    let path = dir.join(format!("{workload}.tsv"));
    let mut w = BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "# workload {workload} seed {seed}")?;
    writeln!(w, "round\top\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
    for (i, r) in rounds.iter().enumerate().filter(|(_, r)| r.traced) {
        let selfs = self_times(&r.spans);
        for s in &r.spans {
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.id, s.parent, s.name, s.start, s.end, selfs.by_id[&s.id]
            )?;
        }
    }
    w.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries `{"name": ..., "unit": ...}` of one array in BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let open = start + text[start..].find('[').unwrap();
        let close = open + text[open..].find(']').unwrap();
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("{key} in {entry}"));
            let rest = &entry[at + key.len() + 2..];
            let q1 = rest.find('"').unwrap();
            let q2 = q1 + 1 + rest[q1 + 1..].find('"').unwrap();
            rest[q1 + 1..q2].to_string()
        };
        text[open + 1..close]
            .split('}')
            .filter(|e| e.contains("\"name\""))
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_end_to_end_metrics_match_benchmark_json() {
        let round = RoundOut::new(false);
        assert_eq!(printed(&end_to_end(&[round])), declared("end_to_end"));
    }

    #[test]
    fn printed_per_layer_metrics_match_benchmark_json() {
        let rounds = [RoundOut::new(false), RoundOut::new(true)];
        assert_eq!(
            printed(&crate::layers::per_layer(&rounds)),
            declared("per_layer")
        );
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find("\"workloads\"").unwrap();
        let section = &text[start..start + text[start..].find(']').unwrap()];
        let names: Vec<&str> = section
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn result_line_counts_failed_rounds_as_failed_operations() {
        let mut ok = RoundOut::new(false);
        ok.attempted = 10;
        let mut bad = RoundOut::new(false);
        bad.attempted = 5;
        bad.check = Err("sweep found 1 keys, expected 2".into());
        let m = [Metric {
            name: "setup_s",
            unit: "s",
            value: 0.5,
            samples: 1,
        }];
        assert_eq!(
            result_line(&[ok, bad], &m),
            "{\"correct\": false, \"attempted\": 15, \"failed\": 5, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
