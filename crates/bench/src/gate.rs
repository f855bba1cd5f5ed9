//! The bench-regression gate: read checked-in `BENCH_*.json` baselines and
//! compare freshly measured throughput against them.
//!
//! Baselines are parsed by the workspace's one JSON codec
//! ([`embeddings::json`]); this module holds the baseline extraction and the
//! ratio check the `benchgate` binary drives in CI. A measurement passes
//! when it reaches at least `min_ratio` of its baseline (the CI default,
//! 0.7, fails a >30% throughput regression).

use embeddings::json::{self, Json, ParseError};

/// Why a baseline file could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateError {
    /// The file is not valid JSON.
    Parse(ParseError),
    /// The JSON parsed but a required field is missing or mistyped.
    Schema {
        /// A dotted path describing the missing field.
        field: String,
    },
    /// The `benchmark` field names a benchmark the gate cannot measure.
    UnknownBenchmark {
        /// The offending name.
        name: String,
    },
}

impl core::fmt::Display for GateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GateError::Parse(error) => error.fmt(f),
            GateError::Schema { field } => {
                write!(f, "baseline is missing required field {field:?}")
            }
            GateError::UnknownBenchmark { name } => {
                write!(f, "no gate measurement is defined for benchmark {name:?}")
            }
        }
    }
}

impl std::error::Error for GateError {}

impl From<ParseError> for GateError {
    fn from(error: ParseError) -> Self {
        GateError::Parse(error)
    }
}

/// One gated throughput figure extracted from a baseline file. Units vary by
/// benchmark (elements/s, trials/s, moves/s); the gate only ever compares a
/// measurement against its own baseline, so the unit never crosses metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineMetric {
    /// Which benchmark family the metric belongs to (the file's `benchmark`
    /// field).
    pub benchmark: String,
    /// The metric's name within the family (e.g. `"verify_melem_per_s"`).
    pub metric: String,
    /// The baseline throughput (higher is better).
    pub throughput: f64,
}

fn number_at(root: &Json, path: &[&str]) -> Result<f64, GateError> {
    let mut value = root;
    for key in path {
        value = value.get(key).ok_or_else(|| GateError::Schema {
            field: path.join("."),
        })?;
    }
    value.as_f64().ok_or_else(|| GateError::Schema {
        field: path.join("."),
    })
}

/// Finds the element of `results` whose `group` field equals `group`.
fn result_group<'a>(root: &'a Json, group: &str) -> Result<&'a Json, GateError> {
    let results = root
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| GateError::Schema {
            field: "results".into(),
        })?;
    results
        .iter()
        .find(|r| r.get("group").and_then(Json::as_str) == Some(group))
        .ok_or_else(|| GateError::Schema {
            field: format!("results[group={group}]"),
        })
}

/// Extracts the gated metrics of one parsed baseline file, dispatching on
/// its `benchmark` field.
///
/// # Errors
///
/// Returns [`GateError::Schema`] when a required field is absent and
/// [`GateError::UnknownBenchmark`] for files the gate cannot measure.
pub fn extract_metrics(root: &Json) -> Result<Vec<BaselineMetric>, GateError> {
    let benchmark = root
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or_else(|| GateError::Schema {
            field: "benchmark".into(),
        })?
        .to_string();
    let metric = |metric: &str, throughput: f64| BaselineMetric {
        benchmark: benchmark.clone(),
        metric: metric.to_string(),
        throughput,
    };
    match benchmark.as_str() {
        "pipeline_throughput" => Ok(vec![
            metric(
                "verify_melem_per_s",
                number_at(result_group(root, "verify")?, &["batched_melem_per_s"])?,
            ),
            metric(
                "congestion_melem_per_s",
                number_at(result_group(root, "congestion")?, &["batched_melem_per_s"])?,
            ),
            metric(
                "soa_codec_melem_per_s",
                number_at(
                    result_group(root, "soa_codec")?,
                    &["decode_range_melem_per_s"],
                )?,
            ),
        ]),
        "explab_throughput" => Ok(vec![metric(
            "trials_per_s",
            number_at(root, &["summary", "trials_per_second_single_worker"])?,
        )]),
        "optim_throughput" => Ok(vec![
            metric(
                "moves_per_s",
                number_at(root, &["summary", "moves_per_second"])?,
            ),
            metric(
                "wirelength_moves_per_s",
                number_at(root, &["summary", "wirelength_moves_per_second"])?,
            ),
            metric(
                "kcycle_moves_per_s",
                number_at(root, &["summary", "kcycle_moves_per_second"])?,
            ),
        ]),
        "shard_scaling" => Ok(vec![
            metric(
                "sharded_moves_per_s",
                number_at(root, &["summary", "sharded_moves_per_second"])?,
            ),
            metric(
                "makespan_moves_per_s",
                number_at(root, &["summary", "makespan_moves_per_second"])?,
            ),
        ]),
        "embd_load" => Ok(vec![metric(
            "queries_per_s",
            number_at(root, &["summary", "queries_per_second"])?,
        )]),
        "chaos_routing" => Ok(vec![metric(
            "chaos_routed_msgs_per_s",
            number_at(root, &["summary", "routed_msgs_per_second"])?,
        )]),
        other => Err(GateError::UnknownBenchmark { name: other.into() }),
    }
}

/// Parses one baseline file's text and extracts its gated metrics.
///
/// # Errors
///
/// [`GateError::Parse`] for malformed JSON, otherwise as
/// [`extract_metrics`].
pub fn read_baseline(text: &str) -> Result<Vec<BaselineMetric>, GateError> {
    extract_metrics(&json::parse(text)?)
}

/// The verdict on one gated metric.
#[derive(Clone, Debug, PartialEq)]
pub struct GateCheck {
    /// The metric that was checked.
    pub baseline: BaselineMetric,
    /// The freshly measured throughput, in the baseline's unit.
    pub measured: f64,
    /// `measured / baseline` (1.0 = exactly at baseline).
    pub ratio: f64,
    /// Whether the measurement clears `min_ratio × baseline`.
    pub pass: bool,
}

/// Compares a measurement against its baseline: pass when `measured` is at
/// least `min_ratio` of the baseline throughput.
pub fn check(baseline: BaselineMetric, measured: f64, min_ratio: f64) -> GateCheck {
    let ratio = if baseline.throughput > 0.0 {
        measured / baseline.throughput
    } else {
        f64::INFINITY
    };
    GateCheck {
        baseline,
        measured,
        ratio,
        pass: ratio >= min_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicode_escapes_decode_to_utf8() {
        // BMP escapes: µ (two UTF-8 bytes) and ✓ (three).
        let doc = r#"{"unit": "\u00b5s", "mark": "\u2713"}"#;
        let json = json::parse(doc).unwrap();
        assert_eq!(json.get("unit").unwrap().as_str(), Some("µs"));
        assert_eq!(json.get("mark").unwrap().as_str(), Some("✓"));
        // Astral code points arrive as surrogate pairs (RFC 8259 §7).
        let doc = r#"{"emoji": "\ud83d\ude00"}"#;
        let json = json::parse(doc).unwrap();
        assert_eq!(json.get("emoji").unwrap().as_str(), Some("😀"));
        // Escaped and raw spellings agree.
        let json = json::parse(r#"{"raw": "µ✓😀", "esc": "\u00b5\u2713\ud83d\ude00"}"#).unwrap();
        assert_eq!(json.get("raw"), json.get("esc"));
    }

    #[test]
    fn lone_surrogates_are_parse_errors() {
        for bad in [
            r#"{"s": "\ud800"}"#,  // lone high surrogate
            r#"{"s": "\ud800x"}"#, // high surrogate, no second escape
            r#"{"s": "\ud800A"}"#, // high surrogate + non-surrogate
            r#"{"s": "\udc00"}"#,  // lone low surrogate
            r#"{"s": "\uzzzz"}"#,  // non-hex digits
            r#"{"s": "\ud8"}"#,    // truncated
        ] {
            assert!(
                matches!(read_baseline(bad), Err(GateError::Parse(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "{\"a\":1} trailing",
            "\"open",
        ] {
            assert!(
                matches!(read_baseline(bad), Err(GateError::Parse(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn parses_the_checked_in_baselines() {
        for file in [
            "BENCH_pipeline.json",
            "BENCH_explab.json",
            "BENCH_optim.json",
            "BENCH_shards.json",
            "BENCH_embd.json",
            "BENCH_netsim.json",
        ] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + file;
            let text = std::fs::read_to_string(&path).expect(file);
            let metrics = read_baseline(&text).expect(file);
            assert!(!metrics.is_empty(), "{file}");
            assert!(metrics.iter().all(|m| m.throughput > 0.0), "{file}");
        }
    }

    #[test]
    fn extraction_dispatches_on_benchmark_name() {
        let doc = r#"{
            "benchmark": "explab_throughput",
            "summary": {"trials_per_second_single_worker": 24748}
        }"#;
        let metrics = read_baseline(doc).unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].metric, "trials_per_s");
        assert_eq!(metrics[0].throughput, 24748.0);

        let shards = r#"{
            "benchmark": "shard_scaling",
            "summary": {
                "sharded_moves_per_second": 96795,
                "makespan_moves_per_second": 99000
            }
        }"#;
        let metrics = read_baseline(shards).unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].metric, "sharded_moves_per_s");
        assert_eq!(metrics[0].throughput, 96795.0);
        assert_eq!(metrics[1].metric, "makespan_moves_per_s");
        assert_eq!(metrics[1].throughput, 99000.0);

        let pipeline = r#"{
            "benchmark": "pipeline_throughput",
            "results": [
                {"group": "verify", "batched_melem_per_s": 7.0},
                {"group": "congestion", "batched_melem_per_s": 6.5},
                {"group": "soa_codec", "decode_range_melem_per_s": 400.0}
            ]
        }"#;
        let metrics = read_baseline(pipeline).unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[2].metric, "soa_codec_melem_per_s");
        assert_eq!(metrics[2].throughput, 400.0);

        let chaos = r#"{
            "benchmark": "chaos_routing",
            "summary": {"routed_msgs_per_second": 120000}
        }"#;
        let metrics = read_baseline(chaos).unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].metric, "chaos_routed_msgs_per_s");
        assert_eq!(metrics[0].throughput, 120000.0);

        let optim = r#"{
            "benchmark": "optim_throughput",
            "summary": {
                "moves_per_second": 85630,
                "wirelength_moves_per_second": 105086,
                "kcycle_moves_per_second": 60000
            }
        }"#;
        let metrics = read_baseline(optim).unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[0].metric, "moves_per_s");
        assert_eq!(metrics[1].metric, "wirelength_moves_per_s");
        assert_eq!(metrics[1].throughput, 105086.0);
        assert_eq!(metrics[2].metric, "kcycle_moves_per_s");
        assert_eq!(metrics[2].throughput, 60000.0);

        let unknown = r#"{"benchmark": "mystery"}"#;
        assert!(matches!(
            read_baseline(unknown),
            Err(GateError::UnknownBenchmark { .. })
        ));
        let missing = r#"{"benchmark": "optim_throughput", "summary": {}}"#;
        assert!(matches!(
            read_baseline(missing),
            Err(GateError::Schema { .. })
        ));
    }

    #[test]
    fn ratio_check_applies_the_threshold() {
        let metric = BaselineMetric {
            benchmark: "optim_throughput".into(),
            metric: "moves_per_s".into(),
            throughput: 1000.0,
        };
        assert!(check(metric.clone(), 900.0, 0.7).pass);
        assert!(check(metric.clone(), 700.0, 0.7).pass);
        let fail = check(metric, 699.0, 0.7);
        assert!(!fail.pass);
        assert!((fail.ratio - 0.699).abs() < 1e-9);
    }
}
