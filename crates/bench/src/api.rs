//! The typed, schema-versioned programmatic experiment API.
//!
//! This is the stable entry point for driving the registry without the
//! CLI: a [`Request`] names an experiment and its [`RunSpec`] sizing, and
//! [`handle`] plans it, runs the jobs on the engine, and harvests a
//! [`Response`] — the same document `expt --out` writes and `goldens/`
//! commits. Both types round-trip through [`hydra_stats::Json`].
//!
//! A response is a **pure function of the request**: the simulator is
//! deterministic and the engine merges job outputs in plan order, so the
//! document does not depend on the worker count.
//!
//! ```
//! use hydra_bench::api::{handle, Request};
//! use hydra_bench::RunSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rs = RunSpec::builder().seed(7).fast_forward(200).horizon(2_000).build();
//! let response = handle(&Request::new("table1", rs), 1)?;
//! assert_eq!(response.experiment, "table1");
//! # Ok(())
//! # }
//! ```

use hydra_stats::Json;

use crate::experiments::lookup;
use crate::results::SCHEMA_VERSION;
use crate::{run_experiment, RunSpec};

/// A request for one experiment at one sizing: the unit of work the
/// programmatic API accepts.
///
/// The wire form is a schema-versioned JSON object:
///
/// ```json
/// {
///   "schema_version": 1,
///   "experiment": "fig-repair",
///   "run": {"seed": 12345, "fast_forward": 10000, "horizon": 60000}
/// }
/// ```
///
/// Unknown top-level members are tolerated on parse and dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Registry name of the experiment to run.
    pub experiment: String,
    /// Simulation sizing (seed, fast-forward, horizon).
    pub run: RunSpec,
}

impl Request {
    /// A request for `experiment` sized by `run`.
    pub fn new(experiment: impl Into<String>, run: RunSpec) -> Self {
        Request {
            experiment: experiment.into(),
            run,
        }
    }

    /// The request as its schema-versioned wire document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::int(SCHEMA_VERSION)),
            ("experiment", Json::str(&self.experiment)),
            ("run", run_to_json(&self.run)),
        ])
    }

    /// Parses a wire document produced by [`Request::to_json`] (or any
    /// member ordering / number spelling of it).
    ///
    /// # Errors
    ///
    /// [`ApiError`] describing the first malformed or missing field.
    pub fn from_json(doc: &Json) -> Result<Self, ApiError> {
        check_schema(doc)?;
        let experiment = doc
            .get("experiment")
            .ok_or(ApiError::Missing("experiment"))?
            .as_str()
            .ok_or(ApiError::bad("experiment", "expected a string"))?
            .to_string();
        let run = doc.get("run").ok_or(ApiError::Missing("run"))?;
        Ok(Request {
            experiment,
            run: run_from_json(run)?,
        })
    }

    /// Parses a request from JSON text.
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] for malformed JSON, otherwise as
    /// [`Request::from_json`].
    pub fn parse(text: &str) -> Result<Self, ApiError> {
        let doc = Json::parse(text).map_err(|e| ApiError::Parse(e.to_string()))?;
        Request::from_json(&doc)
    }
}

/// A finished experiment as a typed document: exactly the
/// schema-versioned result document `expt --out` writes per experiment
/// and the golden differ compares (`{schema_version, experiment, title,
/// run, table}`).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Registry name of the experiment that ran.
    pub experiment: String,
    /// Its one-line description.
    pub title: String,
    /// The sizing it ran at (echoed from the request).
    pub run: RunSpec,
    /// The harvested result table (the [`hydra_stats::Table`] JSON
    /// projection: `{title, columns, kinds, rows}`).
    pub table: Json,
}

impl Response {
    /// The response as its schema-versioned wire document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::int(SCHEMA_VERSION)),
            ("experiment", Json::str(&self.experiment)),
            ("title", Json::str(&self.title)),
            ("run", run_to_json(&self.run)),
            ("table", self.table.clone()),
        ])
    }

    /// Parses a wire document produced by [`Response::to_json`].
    ///
    /// # Errors
    ///
    /// [`ApiError`] describing the first malformed or missing field.
    pub fn from_json(doc: &Json) -> Result<Self, ApiError> {
        check_schema(doc)?;
        let str_field = |field: &'static str| -> Result<String, ApiError> {
            doc.get(field)
                .ok_or(ApiError::Missing(field))?
                .as_str()
                .map(str::to_string)
                .ok_or(ApiError::bad(field, "expected a string"))
        };
        Ok(Response {
            experiment: str_field("experiment")?,
            title: str_field("title")?,
            run: run_from_json(doc.get("run").ok_or(ApiError::Missing("run"))?)?,
            table: doc.get("table").ok_or(ApiError::Missing("table"))?.clone(),
        })
    }
}

/// Runs one request fully in-process on `workers` engine threads:
/// look up the experiment, `plan`, execute, `harvest`, wrap.
///
/// The response is independent of `workers` (deterministic merge).
///
/// # Errors
///
/// [`ApiError::UnknownExperiment`] when the request names no registered
/// experiment.
pub fn handle(request: &Request, workers: usize) -> Result<Response, ApiError> {
    let experiment = lookup(&request.experiment)
        .map_err(|_| ApiError::UnknownExperiment(request.experiment.clone()))?;
    let run = run_experiment(experiment.as_ref(), &request.run, workers);
    Ok(Response {
        experiment: experiment.name().to_string(),
        title: experiment.title().to_string(),
        run: request.run,
        table: run.table.to_json(),
    })
}

fn run_to_json(rs: &RunSpec) -> Json {
    Json::obj([
        ("seed", Json::int(rs.seed)),
        ("fast_forward", Json::int(rs.fast_forward)),
        ("horizon", Json::int(rs.horizon)),
    ])
}

fn run_from_json(doc: &Json) -> Result<RunSpec, ApiError> {
    let int_field = |field: &'static str| -> Result<u64, ApiError> {
        let v = doc
            .get(field)
            .ok_or(ApiError::Missing(field))?
            .as_num()
            .ok_or(ApiError::bad(field, "expected a number"))?;
        if v < 0.0 || v.fract() != 0.0 || v >= 9.0e15 {
            return Err(ApiError::bad(field, "expected a non-negative integer"));
        }
        Ok(v as u64)
    };
    Ok(RunSpec {
        seed: int_field("seed")?,
        fast_forward: int_field("fast_forward")?,
        horizon: int_field("horizon")?,
    })
}

fn check_schema(doc: &Json) -> Result<(), ApiError> {
    let found = doc.get("schema_version").and_then(Json::as_num);
    if found == Some(SCHEMA_VERSION as f64) {
        Ok(())
    } else {
        Err(ApiError::Schema { found })
    }
}

/// Why a request (or response) document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The text was not JSON at all.
    Parse(String),
    /// `schema_version` was missing or not [`SCHEMA_VERSION`].
    Schema {
        /// The version found, if any.
        found: Option<f64>,
    },
    /// A required member was absent.
    Missing(&'static str),
    /// A member had the wrong type or range.
    Bad {
        /// The offending member.
        field: &'static str,
        /// What was expected.
        why: String,
    },
    /// The request named no registered experiment.
    UnknownExperiment(String),
}

impl ApiError {
    fn bad(field: &'static str, why: impl Into<String>) -> Self {
        ApiError::Bad {
            field,
            why: why.into(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::Parse(e) => write!(f, "malformed JSON: {e}"),
            ApiError::Schema { found: Some(v) } => {
                write!(
                    f,
                    "unsupported schema_version {v} (expected {SCHEMA_VERSION})"
                )
            }
            ApiError::Schema { found: None } => {
                write!(f, "missing schema_version (expected {SCHEMA_VERSION})")
            }
            ApiError::Missing(field) => write!(f, "missing required member {field:?}"),
            ApiError::Bad { field, why } => write!(f, "bad member {field:?}: {why}"),
            ApiError::UnknownExperiment(name) => {
                write!(f, "unknown experiment {name:?} (see `expt --list`)")
            }
        }
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunSpec {
        RunSpec {
            seed: 7,
            fast_forward: 200,
            horizon: 2_000,
        }
    }

    #[test]
    fn request_round_trips_through_json() {
        let req = Request::new("fig-repair", tiny());
        let doc = req.to_json();
        assert_eq!(Request::from_json(&doc), Ok(req.clone()));
        assert_eq!(Request::parse(&doc.pretty()), Ok(req));
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        assert!(matches!(Request::parse("{"), Err(ApiError::Parse(_))));
        assert!(matches!(
            Request::parse(
                r#"{"experiment":"table1","run":{"seed":1,"fast_forward":0,"horizon":0}}"#
            ),
            Err(ApiError::Schema { found: None })
        ));
        assert!(matches!(
            Request::parse(r#"{"schema_version":99,"experiment":"table1","run":{"seed":1,"fast_forward":0,"horizon":0}}"#),
            Err(ApiError::Schema { found: Some(v) }) if v == 99.0
        ));
        assert!(matches!(
            Request::parse(r#"{"schema_version":1,"experiment":"table1"}"#),
            Err(ApiError::Missing("run"))
        ));
        let err = Request::parse(
            r#"{"schema_version":1,"experiment":"table1",
                "run":{"seed":-1,"fast_forward":0,"horizon":0}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, ApiError::Bad { field: "seed", .. }), "{err}");
    }

    #[test]
    fn handle_runs_an_experiment_in_process() {
        let resp = handle(&Request::new("table1", tiny()), 1).expect("table1 handles");
        assert_eq!(resp.experiment, "table1");
        let doc = resp.to_json();
        // The response document is the golden document shape.
        assert_eq!(doc.get("schema_version").and_then(Json::as_num), Some(1.0));
        assert!(doc.get("table").and_then(|t| t.get("rows")).is_some());
        // And it round-trips.
        assert_eq!(Response::from_json(&doc), Ok(resp));
    }

    #[test]
    fn handle_rejects_unknown_experiments() {
        assert_eq!(
            handle(&Request::new("tabel1", tiny()), 1),
            Err(ApiError::UnknownExperiment("tabel1".into()))
        );
    }

    #[test]
    fn handle_is_workers_invariant() {
        let req = Request::new("fig-analytical", tiny());
        let one = handle(&req, 1).unwrap().to_json().pretty();
        let four = handle(&req, 4).unwrap().to_json().pretty();
        assert_eq!(one, four, "response bytes must not depend on workers");
    }
}
