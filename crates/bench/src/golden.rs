//! Golden-snapshot regression gating.
//!
//! Quick-mode result documents for every experiment are committed under
//! `goldens/`; [`check`] re-runs an experiment and structurally diffs the
//! fresh document against the committed one. Because the simulator is a
//! pure function of the run spec, **any** difference in a result field
//! is a real behavioural change — a perturbed repair mechanism, a
//! changed workload generator, a reordered table — and fails the gate.
//!
//! Every field compares *exactly*: numbers bit-for-bit, strings
//! byte-for-byte. Result documents carry no wall-clock field, so no field
//! needs a tolerance.
//!
//! Regenerating after an *intentional* result change:
//!
//! ```text
//! HYDRA_EXPT_MODE=quick cargo run --release -p hydra-bench --bin expt -- \
//!     all --out goldens
//! ```

use hydra_stats::Json;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::experiments::{run_experiment, Experiment};
use crate::results::{experiment_doc, SCHEMA_VERSION};
use crate::RunSpec;

/// One structural difference between an expected and an actual document.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// JSON-pointer-style path to the differing value, e.g.
    /// `/table/rows/3/2`.
    pub path: String,
    /// Human-readable explanation (expected vs. actual).
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Structurally compares `actual` against `expected`, exactly.
///
/// Objects must have the same keys in the same order (member order is
/// part of the deterministic-output contract), arrays the same length,
/// and every other value must be equal. Returns every mismatch, not just
/// the first.
pub fn diff(expected: &Json, actual: &Json) -> Vec<Mismatch> {
    let mut out = Vec::new();
    walk(expected, actual, "", &mut out);
    out
}

fn walk(expected: &Json, actual: &Json, path: &str, out: &mut Vec<Mismatch>) {
    let push = |out: &mut Vec<Mismatch>, detail: String| {
        out.push(Mismatch {
            path: if path.is_empty() {
                "/".into()
            } else {
                path.into()
            },
            detail,
        });
    };
    match (expected, actual) {
        (Json::Obj(e), Json::Obj(a)) => {
            let ekeys: Vec<&str> = e.iter().map(|(k, _)| k.as_str()).collect();
            let akeys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            if ekeys != akeys {
                push(
                    out,
                    format!("object keys differ: expected {ekeys:?}, got {akeys:?}"),
                );
                return;
            }
            for ((k, ev), (_, av)) in e.iter().zip(a) {
                walk(ev, av, &format!("{path}/{k}"), out);
            }
        }
        (Json::Arr(e), Json::Arr(a)) => {
            if e.len() != a.len() {
                push(
                    out,
                    format!(
                        "array length differs: expected {}, got {}",
                        e.len(),
                        a.len()
                    ),
                );
                return;
            }
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                walk(ev, av, &format!("{path}/{i}"), out);
            }
        }
        (e, a) if e == a => {}
        (e, a) => push(out, format!("expected {e}, got {a}")),
    }
}

/// Why a golden check failed for one experiment.
#[derive(Debug)]
pub enum GoldenError {
    /// The golden file is missing (run the regeneration command).
    Missing(PathBuf),
    /// The golden file exists but is not readable/parseable.
    Unreadable(PathBuf, String),
    /// The golden was produced by a different schema version.
    SchemaMismatch {
        /// Version found in the golden file.
        golden: f64,
        /// Version this binary writes.
        current: u64,
    },
    /// The documents differ.
    Mismatched(Vec<Mismatch>),
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Missing(p) => write!(
                f,
                "no golden at {} (regenerate with: HYDRA_EXPT_MODE=quick expt all --out goldens)",
                p.display()
            ),
            GoldenError::Unreadable(p, why) => {
                write!(f, "cannot read golden {}: {why}", p.display())
            }
            GoldenError::SchemaMismatch { golden, current } => write!(
                f,
                "golden schema version {golden} != current {current}; regenerate goldens"
            ),
            GoldenError::Mismatched(ms) => {
                writeln!(f, "{} field(s) differ from the golden:", ms.len())?;
                for m in ms {
                    writeln!(f, "  {m}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for GoldenError {}

/// Runs `experiment` under `rs` and diffs its result document against
/// `goldens_dir/<name>.json`.
///
/// # Errors
///
/// [`GoldenError`] describing the missing file, schema drift, or the
/// full mismatch list.
pub fn check(
    experiment: &dyn Experiment,
    rs: &RunSpec,
    workers: usize,
    goldens_dir: &Path,
) -> Result<(), GoldenError> {
    let path = goldens_dir.join(format!("{}.json", experiment.name()));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            GoldenError::Missing(path.clone())
        } else {
            GoldenError::Unreadable(path.clone(), e.to_string())
        }
    })?;
    let golden =
        Json::parse(&text).map_err(|e| GoldenError::Unreadable(path.clone(), e.to_string()))?;
    let golden_version = golden
        .get("schema_version")
        .and_then(Json::as_num)
        .unwrap_or(-1.0);
    if golden_version != SCHEMA_VERSION as f64 {
        return Err(GoldenError::SchemaMismatch {
            golden: golden_version,
            current: SCHEMA_VERSION,
        });
    }
    let run = run_experiment(experiment, rs, workers);
    let actual = experiment_doc(experiment, rs, &run);
    let mismatches = diff(&golden, &actual);
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(GoldenError::Mismatched(mismatches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_no_mismatches() {
        let doc = Json::obj([
            ("a", Json::num(1.5)),
            ("b", Json::arr([Json::str("x"), Json::Null])),
        ]);
        assert!(diff(&doc, &doc.clone()).is_empty());
    }

    #[test]
    fn result_fields_compare_exactly() {
        let e = Json::obj([("return_hit_rate", Json::num(97.12))]);
        let a = Json::obj([("return_hit_rate", Json::num(97.13))]);
        let ms = diff(&e, &a);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].path, "/return_hit_rate");
        assert!(ms[0].detail.contains("97.12"));
    }

    #[test]
    fn structural_differences_are_reported_with_paths() {
        let e = Json::obj([("rows", Json::arr([Json::arr([Json::num(1.0)])]))]);
        let longer = Json::obj([(
            "rows",
            Json::arr([Json::arr([Json::num(1.0)]), Json::arr([Json::num(2.0)])]),
        )]);
        let ms = diff(&e, &longer);
        assert_eq!(ms[0].path, "/rows");
        assert!(ms[0].detail.contains("length"));

        let renamed = Json::obj([("rowz", Json::arr([]))]);
        let ms = diff(&e, &renamed);
        assert!(ms[0].detail.contains("keys differ"));

        let retyped = Json::obj([("rows", Json::str("nope"))]);
        let ms = diff(&e, &retyped);
        assert_eq!(ms[0].path, "/rows");
    }

    #[test]
    fn every_mismatch_is_reported_not_just_the_first() {
        let e = Json::arr([Json::num(1.0), Json::num(2.0), Json::num(3.0)]);
        let a = Json::arr([Json::num(9.0), Json::num(2.0), Json::num(8.0)]);
        let ms = diff(&e, &a);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].path, "/0");
        assert_eq!(ms[1].path, "/2");
    }

    #[test]
    fn check_reports_missing_and_unreadable_goldens() {
        let dir = std::env::temp_dir().join("hydra-golden-test-missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let e = crate::experiments::find("table1").unwrap();
        let rs = RunSpec::quick();
        match check(e.as_ref(), &rs, 1, &dir) {
            Err(GoldenError::Missing(p)) => assert!(p.ends_with("table1.json")),
            other => panic!("expected Missing, got {other:?}"),
        }
        std::fs::write(dir.join("table1.json"), "{not json").unwrap();
        assert!(matches!(
            check(e.as_ref(), &rs, 1, &dir),
            Err(GoldenError::Unreadable(..))
        ));
        std::fs::write(dir.join("table1.json"), r#"{"schema_version": 999}"#).unwrap();
        assert!(matches!(
            check(e.as_ref(), &rs, 1, &dir),
            Err(GoldenError::SchemaMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
