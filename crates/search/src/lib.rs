//! # dtc-search — SLO-driven design search
//!
//! The paper evaluates fixed disaster-tolerant architectures and reads
//! off availability and cost; this crate answers the inverse question:
//! *what is the cheapest architecture that meets the SLO?*
//!
//! A search takes a catalog whose expanded scenario grid **is** the
//! candidate space (hot/warm PM pool sizes via the `machines` axis,
//! secondary-DC city choice, α, disaster rates — the knobs the engine
//! already expresses) plus a [`SearchConfig`] (`[search]` section:
//! availability floor, optional annual cost ceiling, cost model). Every
//! candidate is evaluated through the shared [`EvalCache`] batch executor
//! — in-batch dedup and single-flight apply unchanged — and the result
//! is:
//!
//! * every candidate, ranked by cost (the CLI's table),
//! * the **feasible set** (candidates meeting the SLO),
//! * the cost/availability **Pareto frontier** ([`frontier`]),
//! * the **cheapest-feasible recommendation**, and
//! * **break-even disaster rates** between adjacent frontier neighbors
//!   ([`breakeven`]): the mean-time-between-disasters at which the two
//!   architectures' availabilities cross.
//!
//! The same [`SearchReport`] is rendered by the `dtc search` CLI and
//! returned by `POST /v2/search` on `dtc-serve`; its canonical JSON
//! ([`report::report_to_value`]) contains only deterministic fields, so
//! the two transports produce bit-identical documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakeven;
pub mod cli;
pub mod frontier;
pub mod report;

use dtc_core::analysis::{first_steady_state, AnalysisReport, AnalysisRequest};
use dtc_core::economics::CostBreakdown;
use dtc_core::metrics::EvalOptions;
use dtc_engine::{run_batch, Catalog, EngineError, EvalCache, RunOptions, Scenario};
use std::collections::HashMap;
use std::sync::Arc;

pub use dtc_engine::SearchConfig;

/// The bundled search space, baked into the binary like the engine's
/// `table7`/`fig7` catalogs.
pub mod catalogs {
    use dtc_engine::Catalog;

    /// TOML source of the bundled Table VII-derived search space.
    pub const SEARCH7_TOML: &str = include_str!("../catalogs/search7.toml");

    /// The Table VII-derived search space: the paper's architecture
    /// families (single-DC and two-DC) with swept pool sizes, secondary
    /// cities, α and disaster rates, plus a `[search]` section asking for
    /// the cheapest four-nines design.
    pub fn search7() -> Catalog {
        Catalog::from_toml_str(SEARCH7_TOML).expect("bundled search7 catalog parses")
    }
}

/// Execution knobs for one search (scheduling only — nothing here can
/// change a number in the report).
#[derive(Debug, Clone, Default)]
pub struct SearchOptions {
    /// Worker threads for the candidate fan-out (`0` = one per core).
    pub threads: usize,
    /// Numeric evaluation options (part of every candidate's cache key).
    pub eval: EvalOptions,
}

/// One evaluated candidate architecture.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Scenario name from catalog expansion (unique within the search).
    pub name: String,
    /// Content-addressed spec key (32 hex chars).
    pub key: String,
    /// Secondary-DC site name, if the template had one.
    pub secondary: Option<String>,
    /// Network-quality α, if applicable.
    pub alpha: Option<f64>,
    /// Mean time between disasters, years.
    pub disaster_years: Option<f64>,
    /// PM pool size, when the template swept it.
    pub machines: Option<u32>,
    /// Steady-state availability.
    pub availability: f64,
    /// `-log10(1 - A)`.
    pub nines: f64,
    /// Expected downtime, hours per year.
    pub downtime_hours_per_year: f64,
    /// Annual cost split (downtime vs infrastructure).
    pub cost: CostBreakdown,
    /// Whether the candidate meets the SLO (floor and ceiling inclusive).
    pub feasible: bool,
    /// Whether the candidate is on the cost/availability Pareto frontier.
    pub on_frontier: bool,
}

/// A candidate whose evaluation failed; it is excluded from the frontier
/// and the feasible set but reported so a bad corner of the grid is
/// visible instead of silently missing.
#[derive(Debug, Clone)]
pub struct FailedCandidate {
    /// Scenario name.
    pub name: String,
    /// The evaluation error, stringified.
    pub error: String,
}

/// The break-even disaster rate between two adjacent frontier
/// architectures.
#[derive(Debug, Clone)]
pub struct BreakEven {
    /// The cheaper frontier neighbor.
    pub cheaper: String,
    /// The more expensive (higher-availability) frontier neighbor.
    pub richer: String,
    /// Mean time between disasters (years) at which the two availability
    /// curves cross; `None` when they do not cross inside the probed
    /// range (one architecture dominates at every plausible rate).
    pub disaster_years: Option<f64>,
    /// Spec evaluations spent on the bisection.
    pub probes: usize,
}

/// Non-deterministic run statistics (solve times, cache provenance).
/// Deliberately *not* part of the canonical report JSON so CLI and HTTP
/// bodies stay bit-identical; the CLI prints them to stderr and the
/// server tracks them in `/v1/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchRunStats {
    /// Candidate specs actually solved (batch misses).
    pub evaluated: usize,
    /// Candidates answered from the cache store.
    pub cached: usize,
    /// Candidates folded onto an identical spec in the batch.
    pub deduplicated: usize,
    /// Spec evaluations spent on break-even bisections.
    pub probe_evaluations: usize,
    /// Wall-clock solve time for the candidate batch, milliseconds.
    pub solve_ms: u64,
}

/// The complete result of one design search.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Catalog name the candidate space came from.
    pub catalog: String,
    /// The search configuration that produced this report.
    pub config: SearchConfig,
    /// Every evaluated candidate, ranked by ascending total cost, then
    /// descending availability, then name.
    pub candidates: Vec<Candidate>,
    /// Candidates whose evaluation failed.
    pub failed: Vec<FailedCandidate>,
    /// Names of the frontier members, cheapest first (their full rows are
    /// in [`SearchReport::candidates`] with `on_frontier = true`).
    pub frontier: Vec<String>,
    /// The cheapest feasible candidate, if the feasible set is non-empty.
    pub recommendation: Option<String>,
    /// Break-even disaster rates between adjacent frontier neighbors.
    pub break_even: Vec<BreakEven>,
    /// Distinct spec keys among the candidates (the dedup denominator).
    pub distinct_specs: usize,
    /// Run statistics (excluded from the canonical JSON).
    pub stats: SearchRunStats,
}

impl SearchReport {
    /// Number of feasible candidates.
    pub fn feasible_count(&self) -> usize {
        self.candidates.iter().filter(|c| c.feasible).count()
    }

    /// The full row of the recommended candidate, if any.
    pub fn recommended(&self) -> Option<&Candidate> {
        let name = self.recommendation.as_deref()?;
        self.candidates.iter().find(|c| c.name == name)
    }
}

/// The analysis set every candidate is evaluated under: steady state plus
/// the search's cost model. Fixed so CLI and HTTP searches share cache
/// entries (and so a search never perturbs the cache identity of plain
/// evaluations that happen to request the same pair).
pub fn search_analyses(config: &SearchConfig) -> Vec<AnalysisRequest> {
    vec![AnalysisRequest::SteadyState, AnalysisRequest::Cost { model: config.cost }]
}

/// Runs a design search: expands the catalog into candidates, evaluates
/// them all through `cache` (deduped, single-flight), extracts the
/// feasible set / frontier / recommendation, and bisects break-even
/// disaster rates between frontier neighbors.
///
/// # Errors
///
/// Fails on an invalid catalog (expansion errors) — but *not* on
/// individual candidate evaluation failures, which are reported in
/// [`SearchReport::failed`].
pub fn run_search(
    catalog: &Catalog,
    config: &SearchConfig,
    cache: &Arc<EvalCache>,
    opts: &SearchOptions,
) -> Result<SearchReport, EngineError> {
    let _span = dtc_obs::trace::trace_span("design_search");
    dtc_obs::trace::attr_str("catalog", &catalog.name);
    dtc_obs::trace::attr_float("availability_floor", config.slo.availability_floor);

    let scenarios = catalog.expand()?;
    dtc_obs::trace::attr_int("candidates", scenarios.len() as i64);
    let analyses = search_analyses(config);
    let run_opts = RunOptions {
        threads: opts.threads,
        eval: opts.eval.clone(),
        analyses: analyses.clone(),
    };
    let result = run_batch(&scenarios, cache, &run_opts);
    let distinct_specs = scenarios.len() - result.deduplicated;

    let mut candidates = Vec::with_capacity(scenarios.len());
    let mut failed = Vec::new();
    for (scenario, outcome) in scenarios.iter().zip(&result.outcomes) {
        match &outcome.reports {
            Err(e) => failed
                .push(FailedCandidate { name: scenario.name.clone(), error: e.to_string() }),
            Ok(reports) => {
                let steady = first_steady_state(reports).ok_or_else(|| {
                    EngineError::Schema(format!(
                        "{}: evaluation returned no steady-state report",
                        scenario.name
                    ))
                })?;
                let cost = reports
                    .iter()
                    .find_map(|r| match r {
                        AnalysisReport::Cost { breakdown } => Some(*breakdown),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        EngineError::Schema(format!(
                            "{}: evaluation returned no cost report",
                            scenario.name
                        ))
                    })?;
                candidates.push(Candidate {
                    name: scenario.name.clone(),
                    key: outcome.key.0.clone(),
                    secondary: scenario.secondary.clone(),
                    alpha: scenario.alpha,
                    disaster_years: scenario.disaster_years,
                    machines: scenario.machines,
                    availability: steady.availability,
                    nines: steady.nines,
                    downtime_hours_per_year: steady.downtime_hours_per_year,
                    cost,
                    feasible: config.slo.is_met(steady.availability, cost.total()),
                    on_frontier: false,
                });
            }
        }
    }

    // Frontier over the evaluated candidates, then the deterministic
    // ranking: ascending cost, descending availability, name.
    {
        let _frontier_span = dtc_obs::trace::trace_span("frontier");
        let points: Vec<(f64, f64)> =
            candidates.iter().map(|c| (c.cost.total(), c.availability)).collect();
        for i in frontier::pareto_frontier(&points) {
            candidates[i].on_frontier = true;
        }
        dtc_obs::trace::attr_int(
            "frontier_size",
            candidates.iter().filter(|c| c.on_frontier).count() as i64,
        );
    }
    candidates.sort_by(|a, b| {
        a.cost
            .total()
            .total_cmp(&b.cost.total())
            .then(b.availability.total_cmp(&a.availability))
            .then(a.name.cmp(&b.name))
    });
    let frontier: Vec<String> =
        candidates.iter().filter(|c| c.on_frontier).map(|c| c.name.clone()).collect();
    let recommendation = candidates.iter().find(|c| c.feasible).map(|c| c.name.clone());

    // Break-even bisection between adjacent frontier neighbors, cheapest
    // pairs first, capped by the config.
    let mut break_even = Vec::new();
    let mut probe_evaluations = 0usize;
    if config.break_even && frontier.len() >= 2 {
        let by_name: HashMap<&str, &Scenario> =
            scenarios.iter().map(|s| (s.name.as_str(), s)).collect();
        for pair in frontier.windows(2).take(config.max_break_even_pairs) {
            let (a, b) = (&pair[0], &pair[1]);
            let (sa, sb) = (by_name[a.as_str()], by_name[b.as_str()]);
            let outcome = breakeven::break_even_years(sa, sb, &analyses, cache, opts);
            probe_evaluations += outcome.probes;
            break_even.push(BreakEven {
                cheaper: a.clone(),
                richer: b.clone(),
                disaster_years: outcome.crossing_years,
                probes: outcome.probes,
            });
        }
    }

    Ok(SearchReport {
        catalog: catalog.name.clone(),
        config: config.clone(),
        candidates,
        failed,
        frontier,
        recommendation,
        break_even,
        distinct_specs,
        stats: SearchRunStats {
            evaluated: result.evaluated,
            cached: result.cached,
            deduplicated: result.deduplicated,
            probe_evaluations,
            solve_ms: result.solve_time.as_millis() as u64,
        },
    })
}
