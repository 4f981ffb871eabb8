//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hashmap-churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `perfbench/README.md` for why each exists) for
//! `--seconds` of measured time, checks the map and the service after every
//! round, prints a provenance line and then, as the last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics from untraced rounds; `--trace 1`
//! alternates untraced and traced rounds and reports the per-layer metrics,
//! writing every span to `perfbench/traces/`.

mod kv;
mod layers;
mod maps;
mod report;
mod round;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use hyaline::{Hyaline, HyalineS};
use lockfree_ds::{ListNode, MichaelHashMap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smr_core::{Sharded, Smr, SmrConfig};

use crate::kv::KvSpec;
use crate::maps::MapSpec;
use crate::round::RoundOut;
use crate::trace::Traced;

type Node = ListNode<u64, u64>;
type HashMapOver<S> = MichaelHashMap<u64, u64, S>;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "hashmap-churn",
    "hashmap-read",
    "kv-oversub",
    "stalled-robust",
];

/// Thread-driven workloads split their measured time into rounds of about
/// this many seconds, each built afresh, so that `setup_s` is a
/// median of as many set-ups.
const MAP_ROUND_SECONDS: f64 = 1.0;

#[derive(Debug, Clone)]
pub enum Spec {
    Map { scheme: &'static str, spec: MapSpec },
    Kv { scheme: &'static str, spec: KvSpec },
}

impl Spec {
    /// The threads that run operations at once: map workers plus parked
    /// readers, or executor workers.
    pub fn worker_threads(&self) -> usize {
        match self {
            Spec::Map { spec, .. } => spec.threads + spec.stalled,
            Spec::Kv { spec, .. } => spec.workers,
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workload named `name`.
pub fn workload(name: &str) -> Option<Spec> {
    let map = |threads, stalled, key_range, prefill, get_pct, put_pct| MapSpec {
        threads,
        stalled,
        key_range,
        prefill,
        get_pct,
        put_pct,
        config: SmrConfig::default(),
    };
    Some(match name {
        "hashmap-churn" => Spec::Map {
            scheme: "Hyaline",
            spec: map(2, 0, 2048, 1024, 0, 50),
        },
        "hashmap-read" => Spec::Map {
            scheme: "Hyaline",
            spec: map(2, 0, 100_000, 50_000, 90, 5),
        },
        "stalled-robust" => Spec::Map {
            scheme: "Hyaline-S",
            spec: map(1, 1, 2048, 1024, 0, 50),
        },
        "kv-oversub" => Spec::Kv {
            scheme: "Sharded<Hyaline>",
            spec: KvSpec {
                connections: 10_000,
                ops_per_connection: 512,
                key_range: 4096,
                prefill: 2048,
                get_pct: 70,
                put_pct: 20,
                workers: 2,
                pool_capacity: 2 * nproc(),
                reclaimers: 2,
                queue_capacity: 64,
                config: SmrConfig {
                    slots: 16,
                    shards: 4,
                    max_threads: 8,
                    ..SmrConfig::default()
                },
            },
        },
        _ => return None,
    })
}

/// Runs one map round over scheme `S`, through [`Traced`] when `traced`.
fn map_round<S: Smr<Node>>(spec: &MapSpec, seed: u64, window: Duration, traced: bool) -> RoundOut {
    if traced {
        maps::run_round::<Traced<S>, HashMapOver<Traced<S>>>(spec, seed, window, true)
    } else {
        maps::run_round::<S, HashMapOver<S>>(spec, seed, window, false)
    }
}

/// Runs the workload's rounds: untraced only, or alternating untraced and
/// traced rounds so both see the same conditions.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Vec<RoundOut> {
    let mut seeds = SmallRng::seed_from_u64(seed);
    let mut rounds = Vec::new();
    match spec {
        Spec::Map { scheme, spec } => {
            // An even count of at least two, so a traced run alternates
            // evenly.
            let count = 2 * (seconds / MAP_ROUND_SECONDS / 2.0).round().max(1.0) as u32;
            let window = Duration::from_secs_f64(seconds / f64::from(count));
            for i in 0..count {
                let traced = trace && i % 2 == 1;
                let seed = seeds.gen();
                rounds.push(match *scheme {
                    "Hyaline" => map_round::<Hyaline<Node>>(spec, seed, window, traced),
                    "Hyaline-S" => map_round::<HyalineS<Node>>(spec, seed, window, traced),
                    other => unreachable!("no map workload runs {other}"),
                });
            }
        }
        Spec::Kv { spec, .. } => {
            // A round is a fixed amount of work; run rounds until the
            // measured time is spent.
            let mut spent = 0.0;
            while spent < seconds || (trace && rounds.len() < 2) {
                let traced = trace && rounds.len() % 2 == 1;
                let started = Instant::now();
                let seed = seeds.gen();
                rounds.push(if traced {
                    kv::run_round::<Traced<Sharded<Hyaline<Node>>>>(spec, seed, true)
                } else {
                    kv::run_round::<Sharded<Hyaline<Node>>>(spec, seed, false)
                });
                spent += started.elapsed().as_secs_f64();
            }
        }
    }
    rounds
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if spec.worker_threads() > nproc() {
        eprintln!(
            "perfbench: warning: {} runs {} threads on {} available cores; \
             its figures include time-slicing",
            args.workload,
            spec.worker_threads(),
            nproc()
        );
    }
    trace::init();
    let rounds = run(&spec, args.seed, args.seconds, args.trace);
    let metrics = if args.trace {
        layers::per_layer(&rounds)
    } else {
        report::end_to_end(&rounds)
    };
    let trace_file = args
        .trace
        .then(|| report::write_trace(&args.workload, args.seed, &rounds))
        .transpose();
    let trace_file = trace_file.unwrap_or_else(|e| {
        eprintln!("perfbench: warning: could not write the trace: {e}");
        None
    });
    println!(
        "{}",
        report::provenance(
            &args.workload,
            &spec,
            args.seed,
            args.seconds,
            args.trace,
            &rounds,
            &metrics,
            trace_file
        )
    );
    println!("{}", report::result_line(&rounds, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_accepts_the_documented_form_and_rejects_junk() {
        let a = parse_args(&args(
            "--workload kv-oversub --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kv-oversub", 7, 10.0, true)
        );
        assert!(parse_args(&args("--workload x --seed -1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 1 --bogus 1")).is_err());
    }

    #[test]
    fn thread_driven_workloads_pass_their_checks_under_two_seeds() {
        for name in ["hashmap-churn", "hashmap-read", "stalled-robust"] {
            for seed in [1, 2] {
                let rounds = run(&workload(name).unwrap(), seed, 0.2, false);
                assert!(
                    rounds.iter().all(|r| r.check.is_ok()),
                    "{name}, seed {seed}"
                );
                let metrics = report::end_to_end(&rounds);
                assert!(metrics.iter().all(|m| m.value > 0.0), "{name}: {metrics:?}");
            }
        }
    }

    #[test]
    fn every_workload_is_defined_and_stays_within_two_threads() {
        for name in WORKLOADS {
            let spec = workload(name).unwrap_or_else(|| panic!("{name} undefined"));
            assert!(spec.worker_threads() <= 2, "{name}");
        }
        assert!(workload("nope").is_none());
    }
}
