//! `dtc-evalbench`: the end-to-end benchmark of the dtcloud evaluator.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path evalbench/Cargo.toml -- \
//!     --workload fig7_cold|search7_cold|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run prints diagnostics on stderr and, as the last line of stdout,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end metrics, measured untraced;
//! with `--trace 1` they are the per-layer metrics of a separate traced
//! replay. `fig7_cold` and `search7_cold` are the benchmark
//! (`BENCHMARK.json`); `serve_mixed` is run by hand. `evalbench/README.md`
//! defines every metric and says why each workload exists.

mod fig7;
mod gen;
mod rss;
mod search7;
mod serve;
mod spans;
mod stats;

use dtc_engine::value::Value;
use std::process::ExitCode;
use std::time::Instant;

/// What one run measured.
pub struct Outcome {
    /// Every output the run checked was correct (and the run was valid).
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced per-layer pass instead of the untraced end-to-end run.
    pub trace: bool,
}

/// End-to-end metrics of the benchmark's workloads (`BENCHMARK.json`),
/// reported by each with `--trace 0`.
pub const END_TO_END: [&str; 4] = ["setup_s", "solve_s", "search_s", "peak_rss_mb"];

/// End-to-end metrics of `serve_mixed`, which is run by hand only: it is
/// not steady enough on a shared machine to gate changes (see the README).
pub const SERVE_END_TO_END: [&str; 9] = [
    "setup_s",
    "solve_s",
    "search_s",
    "p50_ms",
    "p99_ms",
    "hit_p99_ms",
    "miss_p50_ms",
    "sustained_rps",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [&str; 37] = [
    "petri.explore_s",
    "petri.states",
    "petri.edges",
    "petri.states_per_s",
    "petri.explore_rss_mb",
    "petri.re_rate_s",
    "markov.stationary_s",
    "markov.stationary_iterations",
    "markov.residual",
    "markov.uniformized_build_s",
    "markov.march_s",
    "markov.truncation_k",
    "markov.march_bytes",
    "core.build_ms",
    "core.explorations",
    "core.re_rates",
    "core.rerate_fallbacks",
    "core.reuse_ratio",
    "engine.expand_ms",
    "engine.key_ms",
    "engine.cache.get_ms",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.cache.joins",
    "engine.cache.evictions",
    "engine.cache.hit_ratio",
    "engine.executor.busy_share",
    "engine.executor.dedup_ratio",
    "search.rank_ms",
    "search.breakeven_s",
    "search.probe_evaluations",
    "serve.handle_ms",
    "serve.queue_wait_ms",
    "serve.http_overhead_ms",
    "serve.sheds",
    "serve.keepalive_reuse",
    "obs.trace_overhead",
];

/// Per-layer metrics `serve_mixed` reports on top of [`PER_LAYER`].
pub const SERVE_PER_LAYER: [&str; 3] =
    ["markov.mttsf_s", "serve.keepalive_p50_ms", "serve.generator_late_ms"];

const USAGE: &str = "usage: dtc-evalbench --workload fig7_cold|search7_cold|serve_mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fig7_cold", "search7_cold", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dtc-evalbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("fig7_cold", false) => fig7::run(&args),
        ("fig7_cold", true) => fig7::trace(&args),
        ("search7_cold", false) => search7::run(&args),
        ("search7_cold", true) => search7::trace(&args),
        ("serve_mixed", false) => serve::run(&args),
        ("serve_mixed", true) => serve::trace(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    eprintln!(
        "dtc-evalbench: {} seed={} trace={} finished in {:.1} s, correct={}",
        args.workload,
        args.seed,
        args.trace,
        started.elapsed().as_secs_f64(),
        outcome.correct
    );
    let mut want: Vec<&str> = match (args.workload.as_str(), args.trace) {
        ("serve_mixed", false) => SERVE_END_TO_END.to_vec(),
        ("serve_mixed", true) => PER_LAYER.iter().chain(&SERVE_PER_LAYER).copied().collect(),
        (_, false) => END_TO_END.to_vec(),
        (_, true) => PER_LAYER.to_vec(),
    };
    want.sort_unstable();
    let mut names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    names.sort_unstable();
    assert_eq!(names, want, "{} reported another metric set", args.workload);
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

/// The result object printed as the last line of stdout.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome.metrics.iter().map(|&(name, value, unit)| {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        (
            name,
            Value::object([("value", Value::Float(value)), ("unit", Value::Str(unit.into()))]),
        )
    });
    Value::object([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Int(outcome.attempted as i64)),
        ("failed", Value::Int(outcome.failed as i64)),
        ("metrics", Value::object(metrics)),
    ])
    .to_json()
}

/// Writes a traced run's spans next to the build output (the target
/// directory, which version control ignores) and says where on stderr.
pub fn write_spans(workload: &str, recorder: &spans::Recorder) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("evalbench/target"))
        .join("evalbench-spans");
    let path = dir.join(format!("{workload}.jsonl"));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, recorder.to_json_lines()))
    {
        Ok(()) => eprintln!("spans: {} written to {}", recorder.spans().len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

/// Current sum of one `dtc_stage_seconds{stage}` histogram, seconds; the
/// traced passes difference two readings.
pub fn stage_sum(stage: &str) -> f64 {
    dtc_obs::global()
        .histogram(
            dtc_obs::STAGE_HISTOGRAM,
            "Wall time of one solver-pipeline stage, labeled by stage.",
            &[("stage", stage)],
            dtc_obs::metrics::stage_buckets(),
        )
        .sum()
}

/// Prints how a span's self time compares with the matching
/// `dtc_stage_seconds` histogram delta over the same interval.
pub fn cross_check(span: &str, span_s: f64, stage: &str, stage_s: f64) {
    let gap = span_s - stage_s;
    let verdict =
        if gap >= -1e-3 && gap <= 0.05 * stage_s + 5e-3 { "agrees" } else { "DIFFERS" };
    eprintln!(
        "cross-check: span {span} {span_s:.4} s vs dtc_stage_seconds{{stage=\"{stage}\"}} \
         {stage_s:.4} s: {verdict}"
    );
}

/// Runs `setup` in timed batches and returns the last inputs plus the
/// per-set-up time of each batch, seconds.
pub fn timed_setup<T>(
    samples: usize,
    per_sample: usize,
    setup: impl Fn() -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..per_sample {
            last = Some(std::hint::black_box(setup()));
        }
        times.push(t.elapsed().as_secs_f64() / per_sample as f64);
    }
    (last.expect("at least one set-up"), times)
}

/// End-to-end metrics of a batch workload from its samples: `setup_s`
/// per set-up, `solve_s` per cold evaluation batch and `op_s` per cold
/// top-level operation.
pub fn batch_metrics(
    setup_s: &[f64],
    solve_s: &[f64],
    op_s: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", stats::median(setup_s), "s"),
        ("solve_s", stats::median(solve_s), "s"),
        ("search_s", stats::median(op_s), "s"),
        ("peak_rss_mb", rss::peak_rss_mb(), "MB"),
    ]
}

/// Cumulative exploration, re-rate and fallback counters of `dtc_core`.
pub fn core_counters() -> (u64, u64, u64) {
    use dtc_core::instrument::{explorations, re_rates, rerate_fallbacks};
    (explorations(), re_rates(), rerate_fallbacks())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args { workload: "serve_mixed".into(), seed: 7, seconds: 10.0, trace: true }
        );
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "fig7_cold"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "fig7_cold",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
    }

    /// The metric lists agree with `BENCHMARK.json` at the repository root.
    #[test]
    fn metric_lists_match_the_benchmark_file() {
        let doc = Value::from_json(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), ["fig7_cold", "search7_cold"]);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(&Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s")],
        });
        assert_eq!(
            line,
            r#"{"attempted":3,"correct":true,"failed":0,"metrics":{"setup_s":{"unit":"s","value":0.25}}}"#
        );
    }
}
