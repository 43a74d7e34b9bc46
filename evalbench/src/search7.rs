//! `search7_cold`: the bundled 213-candidate design search, solved cold.
//!
//! Why this workload: many small models (10 to 4,350 states). Executor
//! fan-out, `re_rate` (about 200 per search against about 14
//! explorations) and small-model solves do the work: stationary solves
//! take about 70 % of the CPU, exploration about 7 %. It bypasses the
//! march, and it has no cache hits by design: every search starts from a
//! fresh in-memory cache.
//!
//! One operation is one `run_search` over the `search7` catalog. The input
//! is fixed; the seed does not change it.

use crate::gen;
use crate::serve::scrape_value;
use crate::spans::Recorder;
use crate::{
    batch_metrics, core_counters, cross_check, rss, stage_sum, stats, timed_setup, write_spans,
    Args, Outcome,
};
use dtc_core::sweep::StructureRegistry;
use dtc_core::AvailabilityReport;
use dtc_core::CloudModel;
use dtc_engine::hash::key_of_encoding;
use dtc_engine::{canonical_encoding_with, Catalog, EvalCache, Scenario, SearchConfig};
use dtc_search::{breakeven, frontier, run_search, SearchOptions, SearchReport};
use dtc_serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The recommendation at the seed commit.
pub const RECOMMENDATION: &str = "aa-Brasilia[alpha=0.9,disaster_years=3200]";
/// The feasible set at the seed commit, in ranking order.
pub const FEASIBLE: [&str; 4] = [
    "aa-Brasilia[alpha=0.9,disaster_years=3200]",
    "aa-Brasilia[alpha=0.9,disaster_years=800]",
    "aa-Brasilia[alpha=0.65,disaster_years=3200]",
    "aa-Brasilia[alpha=0.65,disaster_years=800]",
];
/// The cost/availability frontier at the seed commit, cheapest first.
pub const FRONTIER: [&str; 2] =
    ["spare[disaster_years=3200]", "aa-Brasilia[alpha=0.9,disaster_years=3200]"];
/// Candidates in the bundled space.
pub const CANDIDATES: usize = 213;

/// Worker budget of the workload (the machine has two cores).
const THREADS: usize = 2;
const SETUPS_PER_SAMPLE: usize = 200;
/// Cold searches run at least this often, whatever the measuring time.
const MIN_SEARCHES: usize = 3;

struct Inputs {
    catalog: Catalog,
    config: SearchConfig,
    opts: SearchOptions,
}

fn setup() -> Inputs {
    let catalog = Catalog::from_toml_str(dtc_search::catalogs::SEARCH7_TOML)
        .expect("bundled search7 catalog parses");
    let config = catalog.search.clone().expect("search7 has a [search] section");
    Inputs {
        catalog,
        config,
        opts: SearchOptions { threads: THREADS, ..SearchOptions::default() },
    }
}

/// The gate: every candidate evaluated, and the seed commit's
/// recommendation, feasible set and frontier.
pub fn check(report: &SearchReport) -> Result<(), String> {
    if report.candidates.len() != CANDIDATES || !report.failed.is_empty() {
        return Err(format!(
            "{} candidates evaluated, {} failed; expected {CANDIDATES} and 0",
            report.candidates.len(),
            report.failed.len()
        ));
    }
    if report.recommendation.as_deref() != Some(RECOMMENDATION) {
        return Err(format!(
            "recommended {:?}, expected {RECOMMENDATION}",
            report.recommendation
        ));
    }
    let feasible: Vec<&str> =
        report.candidates.iter().filter(|c| c.feasible).map(|c| c.name.as_str()).collect();
    if feasible != FEASIBLE {
        return Err(format!("feasible set {feasible:?}, expected {FEASIBLE:?}"));
    }
    if report.frontier != FRONTIER {
        return Err(format!("frontier {:?}, expected {FRONTIER:?}", report.frontier));
    }
    Ok(())
}

/// The untraced end-to-end run.
pub fn run(args: &Args) -> Outcome {
    let (mut inputs, mut setup_s) = timed_setup(1, SETUPS_PER_SAMPLE, setup);
    let mut failed = 0u64;
    let (mut solve_s, mut search_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    // Cold searches while another one still fits in the measuring time,
    // with a set-up sample before each, so that the set-up median covers
    // the whole run rather than one moment of it.
    while search_s.len() < MIN_SEARCHES
        || started.elapsed().as_secs_f64() + stats::median(&search_s) <= args.seconds
    {
        if !search_s.is_empty() {
            let (next, sample) = timed_setup(1, SETUPS_PER_SAMPLE, setup);
            inputs = next;
            setup_s.extend(sample);
        }
        let cache = Arc::new(EvalCache::in_memory());
        let t = Instant::now();
        let report = run_search(&inputs.catalog, &inputs.config, &cache, &inputs.opts);
        search_s.push(t.elapsed().as_secs_f64());
        match report {
            Ok(report) => {
                solve_s.push(report.stats.solve_ms as f64 * 1e-3);
                if report.stats.cached != 0 {
                    eprintln!("search7_cold: a cold search hit the cache");
                    failed += 1;
                } else if let Err(e) = check(&report) {
                    eprintln!("search7_cold: cold search wrong: {e}");
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("search7_cold: search failed: {e}");
                solve_s.push(search_s[search_s.len() - 1]);
                failed += 1;
            }
        }
    }
    eprintln!(
        "search7_cold: {} cold searches (median {:.3} s)",
        search_s.len(),
        stats::median(&search_s)
    );
    Outcome {
        correct: failed == 0,
        attempted: search_s.len() as u64,
        failed,
        metrics: batch_metrics(&setup_s, &solve_s, &search_s),
    }
}

/// One candidate's replayed result.
struct Row {
    index: usize,
    availability: f64,
    cost: f64,
    states: usize,
    edges: usize,
    explored: bool,
    iterations: usize,
    residual: f64,
    rss_growth_mb: f64,
}

/// Replays one candidate layer by layer (build, explore or re-rate,
/// stationary solve, cost), as the executor's `evaluate_all_shared` does.
fn replay_candidate(
    rec: &mut Recorder,
    scenario: &Scenario,
    index: usize,
    config: &SearchConfig,
    opts: &SearchOptions,
    registry: &StructureRegistry,
) -> Row {
    rec.set_op(index);
    rec.span("engine.candidate", |rec| {
        let eval = &opts.eval;
        let model = rec.span("core.build", |_| {
            CloudModel::build(&scenario.spec).expect("candidate builds")
        });
        let fingerprint = model.net_fingerprint();
        let shared = registry.get(fingerprint);
        let rss_before = rss::rss_mb();
        let layer = if shared.is_some() { "petri.re_rate" } else { "petri.explore" };
        let graph = rec.span(layer, |_| {
            model.state_space_from(eval, shared.as_ref()).expect("candidate state space")
        });
        let rss_growth_mb = if shared.is_none() { rss::rss_mb() - rss_before } else { 0.0 };
        if shared.is_none() {
            registry.insert(fingerprint, Arc::clone(graph.structure()));
        }
        let solution = rec.span("markov.stationary", |_| {
            graph.solve_with(eval.method, &eval.solver).expect("candidate solves")
        });
        let report = AvailabilityReport::new(
            solution.probability(&model.availability_expr()),
            solution.expected(&model.running_vms_expr()),
            model.summary().total_vms,
            graph.stats(),
            *solution.stats(),
        );
        let cost = config.cost.annual_cost_for(model.summary(), &report).total();
        Row {
            index,
            availability: report.availability,
            cost,
            states: graph.num_states(),
            edges: graph.stats().edges,
            explored: shared.is_none(),
            iterations: solution.stats().iterations,
            residual: solution.stats().residual,
            rss_growth_mb,
        }
    })
}

/// The traced pass: one untraced cold search for reference, then the same
/// search replayed layer by layer under spans, with the candidate fan-out
/// on the workload's two workers.
pub fn trace(_args: &Args) -> Outcome {
    let inputs = setup();
    let mut failures = Vec::new();

    let cache = Arc::new(EvalCache::in_memory());
    let t = Instant::now();
    let reference = run_search(&inputs.catalog, &inputs.config, &cache, &inputs.opts)
        .expect("search7 searches");
    let untraced_s = t.elapsed().as_secs_f64();
    if let Err(e) = check(&reference) {
        failures.push(format!("untraced search: {e}"));
    }
    let cache_stats = cache.stats();

    let stages = ["explore", "re_rate", "stationary_solve"];
    let before: Vec<f64> = stages.iter().map(|s| stage_sum(s)).collect();
    let (explorations0, re_rates0, fallbacks0) = core_counters();
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let replay_started = Instant::now();
    let scenarios = rec.span("engine.expand", |_| {
        Catalog::from_toml_str(dtc_search::catalogs::SEARCH7_TOML)
            .and_then(|c| c.expand())
            .expect("search7 expands")
    });
    let analyses = dtc_search::search_analyses(&inputs.config);
    let uniques: Vec<usize> = rec.span("engine.key", |_| {
        let mut seen = HashMap::new();
        let mut uniques = Vec::new();
        for (i, s) in scenarios.iter().enumerate() {
            let canonical = canonical_encoding_with(&s.spec, &inputs.opts.eval, &analyses);
            if seen.insert(key_of_encoding(&canonical).0, i).is_none() {
                uniques.push(i);
            }
        }
        uniques
    });

    // Candidate fan-out over the workload's workers, each with its own
    // recorder.
    let registry = StructureRegistry::new();
    let next = AtomicUsize::new(0);
    let rows = Mutex::new(Vec::with_capacity(uniques.len()));
    let phase_started = Instant::now();
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut rec = Recorder::new(origin);
                    loop {
                        let u = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = uniques.get(u) else { break };
                        let row = replay_candidate(
                            &mut rec,
                            &scenarios[i],
                            i,
                            &inputs.config,
                            &inputs.opts,
                            &registry,
                        );
                        rows.lock().expect("rows mutex poisoned").push(row);
                    }
                    rec
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("replay worker panicked")).collect()
    });
    let phase_s = phase_started.elapsed().as_secs_f64();
    for r in recorders {
        rec.absorb(r);
    }
    let mut rows = rows.into_inner().expect("rows mutex poisoned");
    rows.sort_by_key(|r| r.index);
    let (explorations1, re_rates1, fallbacks1) = core_counters();
    // Read before the break-even probes, which solve through run_batch.
    let deltas: Vec<f64> = stages.iter().zip(&before).map(|(s, b)| stage_sum(s) - b).collect();

    // Ranking: frontier, then cost order, then the cheapest feasible.
    let (frontier_names, recommendation, feasible) = rec.span("search.rank", |_| {
        let points: Vec<(f64, f64)> = rows.iter().map(|r| (r.cost, r.availability)).collect();
        let on_frontier = frontier::pareto_frontier(&points);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (&rows[a], &rows[b]);
            ra.cost
                .total_cmp(&rb.cost)
                .then(rb.availability.total_cmp(&ra.availability))
                .then(scenarios[ra.index].name.cmp(&scenarios[rb.index].name))
        });
        let name = |k: usize| scenarios[rows[k].index].name.clone();
        let frontier_names: Vec<String> =
            order.iter().filter(|k| on_frontier.contains(k)).map(|&k| name(k)).collect();
        let feasible: Vec<String> = order
            .iter()
            .filter(|&&k| inputs.config.slo.is_met(rows[k].availability, rows[k].cost))
            .map(|&k| name(k))
            .collect();
        (frontier_names, feasible.first().cloned(), feasible)
    });
    let by_name: HashMap<&str, &Scenario> =
        scenarios.iter().map(|s| (s.name.as_str(), s)).collect();
    let probes = rec.span("search.breakeven", |_| {
        let probe_cache = Arc::new(EvalCache::in_memory());
        frontier_names
            .windows(2)
            .take(inputs.config.max_break_even_pairs)
            .map(|pair| {
                let (a, b) = (by_name[pair[0].as_str()], by_name[pair[1].as_str()]);
                breakeven::break_even_years(a, b, &analyses, &probe_cache, &inputs.opts).probes
            })
            .sum::<usize>()
    });
    let replay_s = replay_started.elapsed().as_secs_f64();

    let reference_feasible: Vec<String> =
        reference.candidates.iter().filter(|c| c.feasible).map(|c| c.name.clone()).collect();
    if frontier_names != reference.frontier
        || recommendation != reference.recommendation
        || feasible != reference_feasible
        || probes != reference.stats.probe_evaluations
    {
        failures.push(format!(
            "layer-by-layer replay disagrees with run_search: frontier {frontier_names:?}, \
             recommendation {recommendation:?}, {probes} probes"
        ));
    }

    // Warm lookups of every candidate on the reference search's cache.
    let mut get_ms = Vec::with_capacity(uniques.len());
    for s in &scenarios {
        let canonical = canonical_encoding_with(&s.spec, &inputs.opts.eval, &analyses);
        let key = key_of_encoding(&canonical);
        let t = Instant::now();
        let hit = cache.get(&key, &canonical);
        get_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if hit.is_none() {
            failures.push(format!("{} missing from the search's cache", s.name));
        }
    }

    let explore_s = rec.self_s("petri.explore");
    cross_check("petri.explore", explore_s, "explore", deltas[0]);
    cross_check("petri.re_rate", rec.self_s("petri.re_rate"), "re_rate", deltas[1]);
    cross_check(
        "markov.stationary",
        rec.self_s("markov.stationary"),
        "stationary_solve",
        deltas[2],
    );
    let served = serve_search(&inputs, &reference, &mut failures);
    write_spans("search7_cold", &rec);
    for f in &failures {
        eprintln!("search7_cold: {f}");
    }

    let explored: Vec<&Row> = rows.iter().filter(|r| r.explored).collect();
    let states: usize = explored.iter().map(|r| r.states).sum();
    let explorations = (explorations1 - explorations0) as f64;
    let re_rates = (re_rates1 - re_rates0) as f64;
    let lookups = (cache_stats.hits + cache_stats.misses) as f64;
    let mut metrics = vec![
        ("petri.explore_s", explore_s, "s"),
        ("petri.states", states as f64, "count"),
        ("petri.edges", explored.iter().map(|r| r.edges).sum::<usize>() as f64, "count"),
        ("petri.states_per_s", states as f64 / explore_s, "1/s"),
        (
            "petri.explore_rss_mb",
            explored.iter().map(|r| r.rss_growth_mb).fold(0.0, f64::max),
            "MB",
        ),
        ("petri.re_rate_s", rec.self_s("petri.re_rate"), "s"),
        ("markov.stationary_s", rec.self_s("markov.stationary"), "s"),
        (
            "markov.stationary_iterations",
            rows.iter().map(|r| r.iterations).sum::<usize>() as f64,
            "count",
        ),
        ("markov.residual", rows.iter().map(|r| r.residual).fold(0.0, f64::max), "1"),
        ("markov.uniformized_build_s", 0.0, "s"),
        ("markov.march_s", 0.0, "s"),
        ("markov.truncation_k", 0.0, "count"),
        ("markov.march_bytes", 0.0, "bytes_computed"),
        ("core.build_ms", rec.self_s("core.build") * 1e3, "ms"),
        ("core.explorations", explorations, "count"),
        ("core.re_rates", re_rates, "count"),
        ("core.rerate_fallbacks", (fallbacks1 - fallbacks0) as f64, "count"),
        ("core.reuse_ratio", re_rates / (re_rates + explorations).max(1.0), "ratio"),
        ("engine.expand_ms", rec.self_s("engine.expand") * 1e3, "ms"),
        ("engine.key_ms", rec.self_s("engine.key") * 1e3, "ms"),
        ("engine.cache.get_ms", stats::median(&get_ms), "ms"),
        ("engine.cache.hits", cache_stats.hits as f64, "count"),
        ("engine.cache.misses", cache_stats.misses as f64, "count"),
        ("engine.cache.joins", cache_stats.joins as f64, "count"),
        ("engine.cache.evictions", cache_stats.evictions as f64, "count"),
        ("engine.cache.hit_ratio", cache_stats.hits as f64 / lookups.max(1.0), "ratio"),
        (
            "engine.executor.busy_share",
            rec.total_s("engine.candidate") / (THREADS as f64 * phase_s),
            "ratio",
        ),
        (
            "engine.executor.dedup_ratio",
            (scenarios.len() - uniques.len()) as f64 / scenarios.len() as f64,
            "ratio",
        ),
    ];
    metrics.extend([
        ("search.rank_ms", rec.self_s("search.rank") * 1e3, "ms"),
        ("search.breakeven_s", rec.self_s("search.breakeven"), "s"),
        ("search.probe_evaluations", probes as f64, "count"),
        ("serve.handle_ms", served.handle_ms, "ms"),
        ("serve.queue_wait_ms", served.client_ms - served.handle_ms, "ms"),
        ("serve.http_overhead_ms", served.handle_ms - untraced_s * 1e3, "ms"),
        ("serve.sheds", served.sheds, "count"),
        ("serve.keepalive_reuse", served.keepalive_reuse, "count"),
        ("obs.trace_overhead", (replay_s - untraced_s) * 1e3, "ms"),
    ]);
    Outcome {
        correct: failures.is_empty(),
        // The untraced search, the replay and the two searches over HTTP.
        attempted: 4,
        failed: failures.len() as u64,
        metrics,
    }
}

/// What the search cost through the HTTP service.
struct Served {
    /// Server-side time of the cold search, from the
    /// `dtc_http_request_seconds{route="/v2/search"}` delta, ms.
    handle_ms: f64,
    /// Client-side latency of the cold search, ms.
    client_ms: f64,
    /// `dtc_http_sheds_total` delta.
    sheds: f64,
    /// `dtc_http_keepalive_reuse_total` delta over the warm repeat.
    keepalive_reuse: f64,
}

/// The serve layer: the same search sent as `POST /v2/search` to an
/// in-process server with a fresh cache, then once more on the same
/// kept-alive connection (answered from the cache). Both bodies must be
/// byte-equal to the canonical render of the in-process search.
fn serve_search(
    inputs: &Inputs,
    reference: &SearchReport,
    failures: &mut Vec<String>,
) -> Served {
    const SUM: &str = "dtc_http_request_seconds_sum{route=\"/v2/search\"}";
    const SHEDS: &str = "dtc_http_sheds_total";
    const REUSE: &str = "dtc_http_keepalive_reuse_total";
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: THREADS,
        eval_threads: THREADS,
        ..ServeConfig::default()
    };
    let server = Server::start(&config).expect("in-process server starts");
    let addr = server.addr();
    let scrape = || {
        let body = gen::get(addr, "/metrics").expect("GET /metrics").body;
        String::from_utf8_lossy(&body).into_owned()
    };
    let expected = dtc_search::report::report_to_value(reference).to_json();
    let request = gen::post("/v2/search", &inputs.catalog.to_value().to_json(), true);
    let mut stream = TcpStream::connect(addr).expect("connects to the server");
    let before = scrape();
    let t = Instant::now();
    let cold = gen::exchange(&mut stream, &request).expect("cold POST /v2/search");
    let client_ms = t.elapsed().as_secs_f64() * 1e3;
    let middle = scrape();
    let warm = gen::exchange(&mut stream, &request).expect("warm POST /v2/search");
    drop(stream);
    let after = scrape();
    server.shutdown().expect("server stops");
    for (name, answer) in [("cold", &cold), ("warm", &warm)] {
        if answer.status != 200 || answer.body != expected.as_bytes() {
            failures.push(format!("{name} POST /v2/search differs from the in-process search"));
        }
    }
    let delta =
        |a: &str, b: &str, series: &str| scrape_value(b, series) - scrape_value(a, series);
    Served {
        handle_ms: delta(&before, &middle, SUM) * 1e3,
        client_ms,
        sheds: delta(&before, &after, SHEDS),
        keepalive_reuse: delta(&middle, &after, REUSE),
    }
}
