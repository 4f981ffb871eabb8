//! High-level drivers that regenerate each figure of the paper.

use smr_core::SmrConfig;

use crate::driver::BenchParams;
use crate::registry::{run_combo, run_combo_recorded, supports, FIGURE_SCHEMES};
use crate::report::FigureTable;
use crate::results::ResultSink;
use crate::workload::OpMix;

/// Structure display names as used in the paper's captions.
pub fn structure_caption(structure: &str) -> &'static str {
    match structure {
        "list" => "Harris & Michael list",
        "hashmap" => "Michael hash map",
        "bonsai" => "Bonsai tree",
        "nmtree" => "Natarajan & Mittal tree",
        "skiplist" => "Lock-free skip list",
        "mpmc" => "Bounded MPMC queue",
        _ => "unknown structure",
    }
}

/// Runs a full thread sweep for one structure and mix, producing both the
/// throughput figure (Fig 8/11/13/15 panels) and the unreclaimed-objects
/// figure (Fig 9/12/14/16 panels) from the same runs.
pub fn throughput_figures(
    fig_throughput: &str,
    fig_unreclaimed: &str,
    structure: &str,
    mix: OpMix,
    threads: &[usize],
    base: &BenchParams,
) -> (FigureTable, FigureTable) {
    throughput_figures_recorded(
        fig_throughput,
        fig_unreclaimed,
        structure,
        mix,
        threads,
        base,
        FIGURE_SCHEMES,
        None,
    )
}

/// [`throughput_figures`] over a chosen scheme subset, optionally recording
/// each run into `sink` (one [`crate::results::BenchRecord`] per
/// `(scheme, threads)` cell, carrying both metrics) so the persistent JSONL
/// trajectory is built from the same measurements as the rendered tables.
#[allow(clippy::too_many_arguments)]
pub fn throughput_figures_recorded(
    fig_throughput: &str,
    fig_unreclaimed: &str,
    structure: &str,
    mix: OpMix,
    threads: &[usize],
    base: &BenchParams,
    schemes: &[&str],
    mut sink: Option<&mut ResultSink>,
) -> (FigureTable, FigureTable) {
    let caption = structure_caption(structure);
    let mut tput = FigureTable::new(
        format!("{fig_throughput} — {caption}, {}", mix.label()),
        "threads",
        "Mops/s",
        schemes,
    );
    let mut unrec = FigureTable::new(
        format!("{fig_unreclaimed} — {caption}, {}", mix.label()),
        "threads",
        "unreclaimed objects",
        schemes,
    );
    for &t in threads {
        let mut tput_row = Vec::with_capacity(schemes.len());
        let mut unrec_row = Vec::with_capacity(schemes.len());
        for &scheme in schemes {
            if !supports(scheme, structure) {
                tput_row.push(None);
                unrec_row.push(None);
                continue;
            }
            let params = BenchParams {
                threads: t,
                mix,
                ..base.clone()
            };
            let r = run_combo_recorded(fig_throughput, scheme, scheme, structure, &params, &mut sink)
                .expect("supported combo");
            tput_row.push(Some(r.mops));
            unrec_row.push(Some(r.avg_unreclaimed));
        }
        tput.push_row(t, tput_row);
        unrec.push_row(t, unrec_row);
    }
    (tput, unrec)
}

/// The robustness experiment (Figure 10a): a fixed number of active threads
/// while the number of *stalled* threads (parked inside an operation)
/// sweeps. Plots unreclaimed objects per scheme; Hyaline-S appears twice —
/// capped at `capped_slots` slots (the paper's "ran out of slots at 57"
/// series) and with §4.3 adaptive resizing.
pub fn robustness_figure(
    active: usize,
    stalled_counts: &[usize],
    capped_slots: usize,
    base: &BenchParams,
) -> FigureTable {
    robustness_figure_recorded(active, stalled_counts, capped_slots, base, None)
}

/// [`robustness_figure`] with optional JSONL recording: each `(series,
/// stalled)` run lands in `sink` under its series name (so the capped and
/// adaptive Hyaline-S configurations stay distinguishable) with the exact
/// `SmrConfig` it ran under.
pub fn robustness_figure_recorded(
    active: usize,
    stalled_counts: &[usize],
    capped_slots: usize,
    base: &BenchParams,
    mut sink: Option<&mut ResultSink>,
) -> FigureTable {
    const SCHEMES: &[&str] = &[
        "Hyaline",
        "Hyaline-1",
        "Hyaline-S",
        "Hyaline-S-adaptive",
        "Hyaline-1S",
        "Epoch",
        "IBR",
        "HE",
        "HP",
    ];
    let mut table = FigureTable::new(
        format!(
            "Fig 10a — robustness, Michael hash map, {} active threads, Hyaline-S capped at {} slots",
            active, capped_slots
        ),
        "stalled",
        "unreclaimed objects",
        SCHEMES,
    );
    for &stalled in stalled_counts {
        let mut row = Vec::with_capacity(SCHEMES.len());
        for &scheme in SCHEMES {
            let (name, config) = match scheme {
                "Hyaline-S" => (
                    "Hyaline-S",
                    SmrConfig {
                        slots: capped_slots,
                        adaptive: false,
                        ..base.config.clone()
                    },
                ),
                "Hyaline-S-adaptive" => (
                    "Hyaline-S",
                    SmrConfig {
                        slots: capped_slots,
                        adaptive: true,
                        ..base.config.clone()
                    },
                ),
                other => (other, base.config.clone()),
            };
            let params = BenchParams {
                threads: active,
                stalled,
                mix: OpMix::WriteIntensive,
                config,
                ..base.clone()
            };
            row.push(
                run_combo_recorded("Fig 10a", scheme, name, "hashmap", &params, &mut sink)
                    .map(|r| r.avg_unreclaimed),
            );
        }
        table.push_row(stalled, row);
    }
    table
}

/// The trimming experiment (Figure 10b): hash-map throughput with the slot
/// count capped low, comparing Hyaline(-S) driven by `trim` against plain
/// `leave`/`enter`.
pub fn trim_figure(threads: &[usize], capped_slots: usize, base: &BenchParams) -> FigureTable {
    const SERIES: &[&str] = &[
        "Hyaline (trim)",
        "Hyaline-S (trim)",
        "Hyaline",
        "Hyaline-S",
    ];
    let mut table = FigureTable::new(
        format!("Fig 10b — trimming, Michael hash map, k <= {capped_slots}"),
        "threads",
        "Mops/s",
        SERIES,
    );
    for &t in threads {
        let mut row = Vec::with_capacity(SERIES.len());
        for &series in SERIES {
            let (scheme, use_trim) = match series {
                "Hyaline (trim)" => ("Hyaline", true),
                "Hyaline-S (trim)" => ("Hyaline-S", true),
                "Hyaline" => ("Hyaline", false),
                "Hyaline-S" => ("Hyaline-S", false),
                _ => unreachable!(),
            };
            let params = BenchParams {
                threads: t,
                mix: OpMix::WriteIntensive,
                use_trim,
                config: SmrConfig {
                    slots: capped_slots,
                    ..base.config.clone()
                },
                ..base.clone()
            };
            row.push(run_combo(scheme, "hashmap", &params).map(|r| r.mops));
        }
        table.push_row(t, row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BenchParams {
        BenchParams {
            secs: 0.02,
            prefill: 64,
            key_range: 128,
            config: SmrConfig {
                slots: 4,
                max_threads: 64,
                ..SmrConfig::default()
            },
            ..BenchParams::default()
        }
    }

    #[test]
    fn throughput_figures_fill_all_cells() {
        let (tput, unrec) =
            throughput_figures("Fig 8c", "Fig 9c", "hashmap", OpMix::WriteIntensive, &[1, 2], &quick());
        assert_eq!(tput.rows.len(), 2);
        assert_eq!(unrec.rows.len(), 2);
        assert!(tput.value(1, "Hyaline").unwrap() > 0.0);
        assert!(tput.value(2, "Epoch").unwrap() > 0.0);
    }

    #[test]
    fn bonsai_figure_marks_hp_unsupported() {
        let (tput, _) =
            throughput_figures("Fig 8b", "Fig 9b", "bonsai", OpMix::WriteIntensive, &[1], &quick());
        assert!(tput.value(1, "HP").is_none());
        assert!(tput.value(1, "Hyaline").is_some());
    }

    #[test]
    fn recorded_figures_emit_one_record_per_cell() {
        use crate::results::{Provenance, ResultSink};
        let mut sink = ResultSink::new(Provenance {
            git_sha: None,
            host_cores: 1,
            timestamp: "0".into(),
        });
        let (tput, _) = throughput_figures_recorded(
            "Fig 8c",
            "Fig 9c",
            "hashmap",
            OpMix::WriteIntensive,
            &[1, 2],
            &quick(),
            &["Hyaline", "Epoch"],
            Some(&mut sink),
        );
        assert_eq!(tput.schemes, vec!["Hyaline", "Epoch"]);
        assert_eq!(sink.records().len(), 4);
        assert!(sink
            .records()
            .iter()
            .any(|r| r.param("scheme") == Some(&"Epoch".into())
                && r.param("threads") == Some(&2usize.into())
                && r.figure == "Fig 8c"));
        // The table cell and the record carry the same measurement.
        let rec = sink
            .records()
            .iter()
            .find(|r| {
                r.param("scheme") == Some(&"Hyaline".into())
                    && r.param("threads") == Some(&1usize.into())
            })
            .unwrap();
        assert_eq!(tput.value(1, "Hyaline"), rec.metric("mops"));
    }

    #[test]
    fn recorded_robustness_keeps_series_distinct() {
        use crate::results::{Provenance, ResultSink};
        let mut sink = ResultSink::new(Provenance {
            git_sha: None,
            host_cores: 1,
            timestamp: "0".into(),
        });
        let table = robustness_figure_recorded(2, &[1], 4, &quick(), Some(&mut sink));
        assert_eq!(sink.records().len(), table.schemes.len());
        let adaptive = sink
            .records()
            .iter()
            .find(|r| r.param("scheme") == Some(&"Hyaline-S-adaptive".into()))
            .expect("adaptive series recorded");
        assert_eq!(adaptive.param("adaptive"), Some(&true.into()));
        assert_eq!(adaptive.param("slots"), Some(&4usize.into()));
        let capped = sink
            .records()
            .iter()
            .find(|r| r.param("scheme") == Some(&"Hyaline-S".into()))
            .expect("capped series recorded");
        assert_eq!(capped.param("adaptive"), Some(&false.into()));
    }

    #[test]
    fn trim_figure_has_four_series() {
        let table = trim_figure(&[2], 4, &quick());
        assert_eq!(table.schemes.len(), 4);
        assert!(table.value(2, "Hyaline (trim)").unwrap() > 0.0);
    }
}
