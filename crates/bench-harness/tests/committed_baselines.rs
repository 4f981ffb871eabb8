//! Every committed baseline under `benchdata/` must stay readable by the
//! current record format and gate cleanly against itself, so a format
//! change that strands a baseline fails here rather than in CI's perf job.

use bench_harness::gate::{compare, Tolerance};
use bench_harness::results::{read_records, BenchRecord};
use std::path::PathBuf;

fn baselines() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchdata");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no baselines in {}", dir.display());
    files
}

#[test]
fn every_baseline_decodes_and_gates_against_itself() {
    for path in baselines() {
        let records = read_records(&path).unwrap_or_else(|e| panic!("{e}"));
        assert!(!records.is_empty(), "{} holds no records", path.display());
        let report = compare(&records, &records, Tolerance::default());
        assert!(!report.has_regression(), "{}:\n{report}", path.display());
        assert_eq!(report.overlap_failure(), None, "{}", path.display());
    }
}

#[test]
fn every_baseline_line_is_in_canonical_form() {
    // Re-encoding a decoded line reproduces it byte for byte: baselines
    // are written by the encoder (or converted to its exact output), so
    // nothing is lost or reinterpreted on the way through the decoder.
    for path in baselines() {
        let text = std::fs::read_to_string(&path).expect("readable baseline");
        for (i, line) in text.lines().enumerate() {
            let record = BenchRecord::decode(line)
                .unwrap_or_else(|e| panic!("{}:{}: {e}", path.display(), i + 1));
            assert_eq!(record.encode(), line, "{}:{}", path.display(), i + 1);
        }
    }
}
