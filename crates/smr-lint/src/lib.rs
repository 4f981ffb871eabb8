//! `smr-lint` — SMR-specific safety/ordering static analysis with a
//! ratcheted baseline.
//!
//! The workspace carries hundreds of `unsafe` sites and `Ordering::Relaxed`
//! uses. The stable toolchain it builds with has no Miri and no sanitizers,
//! and no sanitizer suite (nightly, with the ASan/TSan runtimes) runs yet, so
//! this crate is the repo's own static-analysis layer. A hand-written,
//! comment/string-aware lexer ([`lexer`]) walks every production source
//! file ([`walk`]) and enforces three rules ([`rules`]):
//!
//! 1. every `unsafe` block / `unsafe fn` / `unsafe impl` carries an
//!    adjacent `// SAFETY:` (or `# Safety` doc) justification;
//! 2. every memory-ordering site is inventoried, and `Relaxed` loads cast
//!    to raw pointers in the same statement need an `// ORDERING:` note;
//! 3. forbidden APIs: `static mut`, `thread::sleep` outside bench/tests,
//!    `mem::forget` on handles.
//!
//! Existing debt is recorded in a committed `lint-baseline.json`
//! ([`baseline`]) and may only shrink: new violations fail the gate
//! immediately, paid-down debt must be committed via `--update-baseline`
//! (enforced by `--strict` in CI). The `crates/hyaline` core is held at
//! **zero** baseline debt — every unsafe site in the scheme the paper's
//! correctness argument rests on is justified in-source.
//!
//! # Example
//!
//! ```
//! use smr_lint::rules::{analyze, Rule};
//!
//! let bad = analyze("crates/x/src/lib.rs", "fn f(p: *mut u8) { unsafe { *p = 1 } }");
//! assert_eq!(bad.count(Rule::Safety), 1);
//!
//! let good = analyze(
//!     "crates/x/src/lib.rs",
//!     "fn f(p: *mut u8) {\n    // SAFETY: p is valid and exclusively owned.\n    unsafe { *p = 1 }\n}",
//! );
//! assert_eq!(good.count(Rule::Safety), 0);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

pub mod scan {
    //! Running the full pass over a file set.

    use std::path::Path;

    use crate::baseline::{Baseline, RatchetReport};
    use crate::rules::{analyze, FileAnalysis};
    use crate::walk::workspace_files;

    /// The analyses of one lint run, in sorted path order.
    #[derive(Debug, Clone, Default)]
    pub struct Scan {
        /// `(workspace-relative path, analysis)` pairs.
        pub files: Vec<(String, FileAnalysis)>,
    }

    impl Scan {
        /// Scans the workspace rooted at `root`.
        pub fn workspace(root: &Path) -> Result<Self, String> {
            let files = workspace_files(root)
                .map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
            let mut out = Vec::with_capacity(files.len());
            for (rel, abs) in files {
                let src = std::fs::read_to_string(&abs)
                    .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
                out.push((rel.clone(), analyze(&rel, &src)));
            }
            Ok(Scan { files: out })
        }

        /// Scans in-memory sources (test harness entry point).
        pub fn from_sources(sources: impl IntoIterator<Item = (String, String)>) -> Self {
            let mut files: Vec<(String, FileAnalysis)> = sources
                .into_iter()
                .map(|(rel, src)| (rel.clone(), analyze(&rel, &src)))
                .collect();
            files.sort_by(|a, b| a.0.cmp(&b.0));
            Scan { files }
        }

        /// The analysis for one file, if scanned.
        pub fn analysis(&self, rel_path: &str) -> Option<&FileAnalysis> {
            self.files
                .iter()
                .find(|(p, _)| p == rel_path)
                .map(|(_, a)| a)
        }

        /// Total violations found.
        pub fn total_violations(&self) -> usize {
            self.files.iter().map(|(_, a)| a.violations.len()).sum()
        }

        /// The baseline exactly matching this scan.
        pub fn to_baseline(&self) -> Baseline {
            Baseline::from_scan(self.files.iter().map(|(p, a)| (p, a)))
        }

        /// Ratchet comparison against a baseline.
        pub fn ratchet(&self, baseline: &Baseline) -> RatchetReport {
            RatchetReport::compare(self.files.iter().map(|(p, a)| (p, a)), baseline)
        }
    }
}

pub use scan::Scan;

/// Default baseline filename at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";
