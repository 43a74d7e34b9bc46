//! `fig7_cold`: the paper's Fig. 7 point at full size, solved cold.
//!
//! Why this workload: it is the paper's real model (126,168 tangible
//! states). Exploration, the Gauss–Seidel stationary solve and the
//! uniformized march all run at full size, so this is where explore,
//! stationary-solver and march work shows.
//!
//! One operation is one `run_batch` of the Rio de Janeiro + Brasilia pair
//! (backup São Paulo, α = 0.35, one disaster per 100 years) on a fresh
//! cache, with steady state, transient availability at 1, 6, 12 and 24 h
//! and interval availability over 24 h. The input is fixed; the seed does
//! not change it.

use crate::spans::Recorder;
use crate::{
    batch_metrics, core_counters, cross_check, rss, stage_sum, stats, timed_setup, write_spans,
    Args, Outcome,
};
use dtc_core::analysis::AnalysisReport;
use dtc_core::CloudModel;
use dtc_engine::hash::key_of_encoding;
use dtc_engine::{
    canonical_encoding_with, run_batch, BatchResult, Catalog, EvalCache, Provenance,
    RunOptions, Scenario,
};
use dtc_petri::PlaceId;
use std::sync::Arc;
use std::time::Instant;

/// The Fig. 7 point as a catalog, with the workload's analysis set.
pub const POINT_TOML: &str = r#"
[catalog]
name = "fig7_point"

[analyses]
requests = [
    "steady_state",
    { kind = "transient", time_points = [1.0, 6.0, 12.0, 24.0] },
    { kind = "interval", horizon_hours = 24.0 },
]

[[scenario]]
name = "fig7"
kind = "two_dc"
primary = "Rio de Janeiro"
backup_site = "Sao Paulo"
secondary = "Brasilia"
alpha = 0.35
disaster_years = 100.0
"#;

/// Tangible states of the Fig. 7 model (exact).
pub const STATES: usize = 126_168;
/// Steady-state availability at the seed commit.
pub const AVAILABILITY: f64 = 0.999_681_218_707_729_5;
/// A(t) at 1, 6, 12 and 24 h at the seed commit.
pub const TRANSIENT: [f64; 4] = [
    0.999_994_113_468_562_3,
    0.999_940_150_718_126_8,
    0.999_873_665_040_145_2,
    0.999_803_675_435_433_4,
];
/// A[0, 24 h] at the seed commit.
pub const INTERVAL_24H: f64 = 0.999_885_994_230_650_5;
/// Absolute tolerance on every availability figure: well above the
/// solvers' convergence tolerances, far below any figure the paper reads.
pub const TOLERANCE: f64 = 1e-9;

const TIMES: [f64; 4] = [1.0, 6.0, 12.0, 24.0];
/// The `dtc_stage_seconds` stages of one evaluation.
const STAGES: [&str; 4] = ["explore", "stationary_solve", "uniformized_build", "march"];
const HORIZON: f64 = 24.0;
/// Worker budget of the workload (the machine has two cores).
const THREADS: usize = 2;
/// Set-up samples before and again after the cold evaluations (the median
/// of all is reported), and set-ups per sample.
const SETUP_SAMPLES: usize = 3;
const SETUPS_PER_SAMPLE: usize = 2_000;
/// Warm re-asks in the traced pass, so the cache counters move.
const TRACE_WARM_OPS: usize = 200;

/// The parsed request.
pub struct Inputs {
    scenarios: Vec<Scenario>,
    opts: RunOptions,
}

fn setup() -> Inputs {
    let catalog = Catalog::from_toml_str(POINT_TOML).expect("fig7 point catalog parses");
    let scenarios = catalog.expand().expect("fig7 point expands");
    assert_eq!(scenarios.len(), 1, "the fig7 point is one scenario");
    let opts = RunOptions {
        threads: THREADS,
        analyses: catalog.analyses.clone(),
        ..RunOptions::default()
    };
    Inputs { scenarios, opts }
}

/// The gate: exact state count, and every availability figure within
/// [`TOLERANCE`] of the seed commit's value.
pub fn check(reports: &[AnalysisReport]) -> Result<(), String> {
    let near = |what: &str, got: f64, want: f64| {
        if (got - want).abs() <= TOLERANCE {
            Ok(())
        } else {
            Err(format!("{what} = {got:.16}, expected {want:.16} ± {TOLERANCE:e}"))
        }
    };
    let [AnalysisReport::SteadyState(steady), AnalysisReport::Transient { availability: points, .. }, AnalysisReport::Interval { availability: interval, .. }] =
        reports
    else {
        return Err(format!("unexpected report shape: {reports:?}"));
    };
    if steady.tangible_states != STATES {
        return Err(format!("{} tangible states, expected {STATES}", steady.tangible_states));
    }
    near("availability", steady.availability, AVAILABILITY)?;
    if points.len() != TRANSIENT.len() {
        return Err(format!("{} transient points, expected {}", points.len(), TRANSIENT.len()));
    }
    for ((&got, &want), t) in points.iter().zip(&TRANSIENT).zip(TIMES) {
        near(&format!("A({t} h)"), got, want)?;
    }
    near("A[0, 24 h]", *interval, INTERVAL_24H)
}

fn check_batch(
    result: &BatchResult,
    want: Provenance,
) -> Result<Arc<Vec<AnalysisReport>>, String> {
    let outcome = &result.outcomes[0];
    if outcome.provenance != want {
        return Err(format!("provenance {:?}, expected {want:?}", outcome.provenance));
    }
    let reports = outcome.reports.clone().map_err(|e| format!("evaluation failed: {e}"))?;
    check(&reports)?;
    Ok(reports)
}

/// The untraced end-to-end run.
pub fn run(args: &Args) -> Outcome {
    let (inputs, mut setup_s) = timed_setup(SETUP_SAMPLES, SETUPS_PER_SAMPLE, setup);
    let mut failed = 0u64;
    let mut solve_s = Vec::new();
    let started = Instant::now();
    // Cold evaluations while another one still fits in the measuring time
    // (at least one).
    while solve_s.is_empty()
        || started.elapsed().as_secs_f64() + stats::median(&solve_s) <= args.seconds
    {
        let cache = Arc::new(EvalCache::in_memory());
        let t = Instant::now();
        let result = run_batch(&inputs.scenarios, &cache, &inputs.opts);
        solve_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = check_batch(&result, Provenance::Evaluated) {
            eprintln!("fig7_cold: cold evaluation wrong: {e}");
            failed += 1;
        }
    }
    // More set-up samples after the evaluations, so the median covers the
    // run rather than one moment of it.
    setup_s.extend(timed_setup(SETUP_SAMPLES, SETUPS_PER_SAMPLE, setup).1);
    eprintln!(
        "fig7_cold: {} cold evaluations (median {:.3} s)",
        solve_s.len(),
        stats::median(&solve_s)
    );
    Outcome {
        correct: failed == 0,
        attempted: solve_s.len() as u64,
        failed,
        metrics: batch_metrics(&setup_s, &solve_s, &solve_s),
    }
}

/// The traced pass: one untraced cold evaluation for reference, then the
/// same evaluation replayed layer by layer under spans.
pub fn trace(_args: &Args) -> Outcome {
    let inputs = setup();
    let mut failures = Vec::new();

    // Untraced reference, then warm re-asks so the cache counters move.
    let cache = Arc::new(EvalCache::in_memory());
    let before: Vec<f64> = STAGES.iter().map(|s| stage_sum(s)).collect();
    let t = Instant::now();
    let result = run_batch(&inputs.scenarios, &cache, &inputs.opts);
    let untraced_s = t.elapsed().as_secs_f64();
    let untraced_stages: f64 = STAGES.iter().zip(&before).map(|(s, b)| stage_sum(s) - b).sum();
    eprintln!(
        "untraced: the {} dtc_stage_seconds stages cover {:.1} % of the untraced solve",
        STAGES.join(", "),
        100.0 * untraced_stages / untraced_s
    );
    let reference = check_batch(&result, Provenance::Evaluated).unwrap_or_else(|e| {
        failures.push(format!("untraced evaluation: {e}"));
        Arc::new(Vec::new())
    });
    for _ in 0..TRACE_WARM_OPS {
        let r = run_batch(&inputs.scenarios, &cache, &inputs.opts);
        if let Err(e) = check_batch(&r, Provenance::Cached) {
            failures.push(format!("warm re-ask: {e}"));
        }
    }
    let cache_stats = cache.stats();

    // Layer-by-layer replay, on a worker thread as in the executor.
    let replay = std::thread::scope(|scope| {
        scope.spawn(|| replay(&inputs)).join().expect("fig7 replay panicked")
    });
    let Replay { rec, key, canonical, .. } = &replay;

    // The replay must reproduce the untraced answer.
    if let [AnalysisReport::SteadyState(s), AnalysisReport::Transient { availability: a, .. }, AnalysisReport::Interval { availability: i, .. }] =
        reference.as_slice()
    {
        let same = (s.availability - replay.availability).abs() <= 1e-12
            && a.iter().zip(&replay.points).all(|(x, y)| (x - y).abs() <= 1e-12)
            && (i - replay.interval).abs() <= 1e-12;
        if !same {
            failures.push("layer-by-layer replay disagrees with run_batch".into());
        }
    }

    // Warm lookup latency on the untraced run's cache.
    let mut get_ms = Vec::with_capacity(1_000);
    for _ in 0..1_000 {
        let t = Instant::now();
        let hit = cache.get(key, canonical);
        get_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if hit.is_none() {
            failures.push("cache lost the fig7 entry".into());
            break;
        }
    }

    let explore_s = rec.self_s("petri.explore");
    let stationary_s = rec.self_s("markov.stationary");
    let deltas = &replay.stage_deltas;
    let build_s = deltas[2];
    let march_s = rec.self_s("markov.uniformized_pass") - build_s;
    cross_check("petri.explore", explore_s, "explore", deltas[0]);
    cross_check("markov.stationary", stationary_s, "stationary_solve", deltas[1]);
    cross_check(
        "markov.uniformized_pass",
        rec.self_s("markov.uniformized_pass"),
        "uniformized_build + march",
        deltas[2] + deltas[3],
    );
    let covered = explore_s + stationary_s + march_s;
    eprintln!(
        "coverage: explore + stationary + march self time {covered:.3} s = {:.1} % of the \
         untraced solve ({untraced_s:.3} s)",
        100.0 * covered / untraced_s
    );
    write_spans("fig7_cold", rec);
    for f in &failures {
        eprintln!("fig7_cold: {f}");
    }

    let n = replay.states;
    let nnz = replay.edges + n;
    let steps = replay.truncation_k;
    let (explorations, re_rates, fallbacks) = replay.core;
    let lookups = (cache_stats.hits + cache_stats.misses) as f64;
    let mut metrics = vec![
        ("petri.explore_s", explore_s, "s"),
        ("petri.states", n as f64, "count"),
        ("petri.edges", replay.edges as f64, "count"),
        ("petri.states_per_s", n as f64 / explore_s, "1/s"),
        ("petri.explore_rss_mb", replay.explore_rss_mb, "MB"),
        ("petri.re_rate_s", rec.self_s("petri.re_rate"), "s"),
        ("markov.stationary_s", stationary_s, "s"),
        ("markov.stationary_iterations", replay.iterations as f64, "count"),
        ("markov.residual", replay.residual, "1"),
        ("markov.uniformized_build_s", build_s, "s"),
        ("markov.march_s", march_s, "s"),
        ("markov.truncation_k", steps as f64, "count"),
        ("markov.march_bytes", ((nnz * 12 + n * 16) * steps) as f64, "bytes_computed"),
        ("core.build_ms", rec.self_s("core.build") * 1e3, "ms"),
        ("core.explorations", explorations, "count"),
        ("core.re_rates", re_rates, "count"),
        ("core.rerate_fallbacks", fallbacks, "count"),
        ("core.reuse_ratio", re_rates / (re_rates + explorations).max(1.0), "ratio"),
        ("engine.expand_ms", rec.self_s("engine.expand") * 1e3, "ms"),
        ("engine.key_ms", rec.self_s("engine.key") * 1e3, "ms"),
        ("engine.cache.get_ms", stats::median(&get_ms), "ms"),
        ("engine.cache.hits", cache_stats.hits as f64, "count"),
        ("engine.cache.misses", cache_stats.misses as f64, "count"),
        ("engine.cache.joins", cache_stats.joins as f64, "count"),
        ("engine.cache.evictions", cache_stats.evictions as f64, "count"),
        ("engine.cache.hit_ratio", cache_stats.hits as f64 / lookups.max(1.0), "ratio"),
        // One scenario on one worker: the replay's layers over its wall.
        ("engine.executor.busy_share", rec.total_s_top() / replay.wall_s, "ratio"),
        ("engine.executor.dedup_ratio", 0.0, "ratio"),
    ];
    metrics.extend(absent_search_and_serve());
    metrics.push(("obs.trace_overhead", (replay.wall_s - untraced_s) * 1e3, "ms"));
    Outcome {
        correct: failures.is_empty(),
        // The cold evaluation, the warm re-asks and the replay.
        attempted: 2 + TRACE_WARM_OPS as u64,
        failed: failures.len() as u64,
        metrics,
    }
}

/// What the layer-by-layer replay measured and answered.
struct Replay {
    rec: Recorder,
    wall_s: f64,
    key: dtc_engine::SpecKey,
    canonical: String,
    states: usize,
    edges: usize,
    explore_rss_mb: f64,
    iterations: usize,
    residual: f64,
    truncation_k: usize,
    availability: f64,
    points: Vec<f64>,
    interval: f64,
    /// `dtc_stage_seconds` deltas, in [`STAGES`] order.
    stage_deltas: Vec<f64>,
    /// `dtc_core` exploration, re-rate and fallback counter deltas.
    core: (f64, f64, f64),
}

/// Replays the evaluation layer by layer (parse, key, build, explore,
/// stationary solve, uniformized pass) under spans.
fn replay(inputs: &Inputs) -> Replay {
    let before: Vec<f64> = STAGES.iter().map(|s| stage_sum(s)).collect();
    let core0 = core_counters();
    let mut rec = Recorder::new(Instant::now());
    let started = Instant::now();
    let scenarios = rec.span("engine.expand", |_| {
        Catalog::from_toml_str(POINT_TOML).and_then(|c| c.expand()).expect("fig7 point expands")
    });
    let spec = &scenarios[0].spec;
    let eval = &inputs.opts.eval;
    let (key, canonical) = rec.span("engine.key", |_| {
        let canonical = canonical_encoding_with(spec, eval, &inputs.opts.analyses);
        (key_of_encoding(&canonical), canonical)
    });
    let model = rec.span("core.build", |_| CloudModel::build(spec).expect("fig7 model builds"));
    let rss_before = rss::rss_mb();
    let graph = rec.span("petri.explore", |_| model.state_space(eval).expect("fig7 explores"));
    let explore_rss_mb = rss::rss_mb() - rss_before;
    let solution = rec.span("markov.stationary", |_| {
        graph.solve_with(eval.method, &eval.solver).expect("fig7 solves")
    });
    let pred = model.availability_expr();
    let up: Vec<f64> = graph
        .states()
        .iter()
        .map(|m| if pred.eval(&|p: PlaceId| m[p.index()]) { 1.0 } else { 0.0 })
        .collect();
    let pi0 = graph.initial_pi0();
    let pass = rec.span("markov.uniformized_pass", |_| {
        let opts = dtc_markov::PassOptions { threads: THREADS, ..Default::default() };
        dtc_markov::uniformized_pass_with(graph.ctmc(), &pi0, &TIMES, &[HORIZON], &up, &opts)
            .expect("fig7 march runs")
    });
    let wall_s = started.elapsed().as_secs_f64();
    let stage_deltas = STAGES.iter().zip(&before).map(|(s, b)| stage_sum(s) - b).collect();
    let core1 = core_counters();
    Replay {
        wall_s,
        key,
        canonical,
        states: graph.num_states(),
        edges: graph.stats().edges,
        explore_rss_mb,
        iterations: solution.stats().iterations,
        residual: solution.stats().residual,
        truncation_k: pass.stats.truncation_k,
        availability: solution.probability(&pred),
        points: pass.distributions.iter().map(|pi| dtc_markov::dot(pi, &up)).collect(),
        interval: pass.cumulative[0] / HORIZON,
        stage_deltas,
        core: (
            (core1.0 - core0.0) as f64,
            (core1.1 - core0.1) as f64,
            (core1.2 - core0.2) as f64,
        ),
        rec,
    }
}

/// The search and serve layers do not run on `fig7_cold`, which bypasses
/// them; their metrics are reported as zero there.
fn absent_search_and_serve() -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("search.rank_ms", 0.0, "ms"),
        ("search.breakeven_s", 0.0, "s"),
        ("search.probe_evaluations", 0.0, "count"),
        ("serve.handle_ms", 0.0, "ms"),
        ("serve.queue_wait_ms", 0.0, "ms"),
        ("serve.http_overhead_ms", 0.0, "ms"),
        ("serve.sheds", 0.0, "count"),
        ("serve.keepalive_reuse", 0.0, "count"),
    ]
}
