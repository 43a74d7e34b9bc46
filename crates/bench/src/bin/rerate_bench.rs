//! Build once, re-rate many: exploration share before/after structure
//! sharing, recorded as `BENCH_rerate.json` at the repo root.
//!
//! Rate-only batches dominate this repo's workloads: a sensitivity study
//! perturbs one rate at a time (two jobs per parameter, identical net
//! structure), and a search grid varies disaster rates and WAN delays
//! across a handful of architecture tiers. Before this optimization every
//! job re-explored the tangible state space from scratch; now the first
//! job of each structural group explores and publishes its
//! [`dtc_petri::TangibleStructure`], and every sibling re-rates it —
//! bit-identical graphs (asserted here, not assumed) at the cost of one
//! rate evaluation per recorded transition firing.
//!
//! Two sections:
//!
//! * **sensitivity** — the perturbed-job sweep of the paper's case study
//!   (full mode: the ~126k-state Fig. 7 Brasilia model, a four-parameter
//!   filter; smoke: the Table VII one-machine row, all parameters), run
//!   once with the baseline's shared structure and once without.
//! * **search** — the bundled search7 candidate grid (smoke: every 8th
//!   candidate) through the batch executor (shared) versus per-spec
//!   unshared evaluation on the same worker-pool shape.
//!
//! Exploration counts come from the process-wide `dtc_core::instrument`
//! counters, so the recorded "explorations before/after" are measured,
//! not derived.
//!
//! Usage: `cargo run --release -p dtc-bench --bin rerate_bench [--smoke]`
//!
//! `--smoke` swaps in the small models/grids (seconds-scale, for CI) and
//! does NOT write `BENCH_rerate.json`.

use dtc_core::instrument;
use dtc_core::prelude::*;
use dtc_core::sensitivity::scale_parameter;
use dtc_core::sweep::{evaluate_all_guarded, run_pool, sweep_reports};
use dtc_engine::value::Value;
use std::time::Instant;

/// Availability bits of every job's steady state, for exact comparison.
fn availability_bits(outcomes: &[Result<AvailabilityReport>]) -> Vec<u64> {
    outcomes.iter().map(|o| o.as_ref().expect("job evaluates").availability.to_bits()).collect()
}

/// Counter deltas around `f`: (explorations, re_rates, wall seconds, result).
fn measured<T>(f: impl FnOnce() -> T) -> (u64, u64, f64, T) {
    let e0 = instrument::explorations();
    let r0 = instrument::re_rates();
    let t0 = Instant::now();
    let out = f();
    let seconds = t0.elapsed().as_secs_f64();
    (instrument::explorations() - e0, instrument::re_rates() - r0, seconds, out)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // `solver.threads` is left at 0: sweeps resolve it to every core, and
    // the executor splits its own budget.
    let opts = EvalOptions::default();

    // ── Sensitivity: perturbed jobs share the baseline's structure ──────
    let scenario = if smoke {
        dtc_engine::catalogs::table7()
            .expand()
            .expect("bundled table7 catalog expands")
            .into_iter()
            .find(|s| s.machines == Some(1))
            .expect("table7 has the one-machine row")
    } else {
        dtc_engine::catalogs::fig7()
            .expand()
            .expect("bundled fig7 catalog expands")
            .into_iter()
            .next()
            .expect("fig7 has scenarios")
    };
    // Full mode trims the parameter set: the bench measures exploration
    // share, and four knobs (eight perturbed jobs) already dwarf the
    // one-time exploration without turning the unshared arm into a
    // half-hour run on the ~126k-state model.
    let filter: Vec<String> = if smoke {
        Vec::new()
    } else {
        ["ospm_mttf", "ospm_mttr", "vm_mttf", "disaster_mttf_1"].map(String::from).to_vec()
    };
    let params = filtered_parameters(&scenario.spec, &filter);
    assert!(!params.is_empty(), "scenario has sensitivity knobs");
    let rel_step = 0.05;
    let mut jobs = Vec::with_capacity(params.len() * 2);
    for p in &params {
        jobs.push(scale_parameter(&scenario.spec, p, 1.0 + rel_step).expect("present"));
        jobs.push(scale_parameter(&scenario.spec, p, 1.0 - rel_step).expect("present"));
    }

    let model = CloudModel::build(&scenario.spec).expect("scenario compiles");
    let t0 = Instant::now();
    let graph = model.state_space(&opts).expect("state space");
    let explore_seconds = t0.elapsed().as_secs_f64();
    println!(
        "sensitivity: {} ({} states, {} jobs, {} cores; one exploration {explore_seconds:.2}s)",
        scenario.name,
        graph.num_states(),
        jobs.len(),
        cores
    );

    // The shared arm seeds one registry with the baseline's structure; the
    // unshared arm gives every job a fresh registry, so each one explores.
    let seeded = StructureRegistry::new();
    seeded.insert(model.net_fingerprint(), std::sync::Arc::clone(graph.structure()));
    let (shared_explores, shared_rerates, shared_seconds, shared) =
        measured(|| sweep_reports(&jobs, &opts, &seeded));
    let (unshared_explores, unshared_rerates, unshared_seconds, unshared) = measured(|| {
        run_pool(jobs.len(), cores, |i, job_threads| {
            let mut opts = opts.clone();
            opts.solver.threads = job_threads;
            sweep_reports(&jobs[i..=i], &opts, &StructureRegistry::new()).remove(0)
        })
    });
    assert_eq!(
        availability_bits(&shared),
        availability_bits(&unshared),
        "re-rated jobs must match explored jobs bit for bit"
    );
    assert_eq!(shared_explores, 0, "every perturbed job re-rates");
    assert_eq!(shared_rerates as usize, jobs.len());
    assert_eq!(unshared_explores as usize, jobs.len());
    assert_eq!(unshared_rerates, 0);
    // Exploration's share of each arm's wall clock, from the measured
    // single-exploration time (the shared arm's one exploration happened
    // above, outside both timings; amortize it into its share).
    let share_before = ((jobs.len() as f64 * explore_seconds) / unshared_seconds).min(1.0);
    let share_after = explore_seconds / (explore_seconds + shared_seconds);
    let sensitivity_speedup = unshared_seconds / shared_seconds;
    println!(
        "  shared {shared_seconds:.2}s (0 explorations) vs unshared {unshared_seconds:.2}s \
         ({} explorations): {sensitivity_speedup:.2}x, exploration share {:.0}% -> {:.0}%",
        jobs.len(),
        100.0 * share_before,
        100.0 * share_after
    );

    // ── Search grid: the executor shares one exploration per tier ───────
    let catalog = dtc_search::catalogs::search7();
    let config = catalog.search.clone().expect("search7 has a [search] section");
    let all = catalog.expand().expect("search7 expands");
    let candidates: Vec<_> = if smoke { all.iter().step_by(8).cloned().collect() } else { all };
    let analyses = dtc_search::search_analyses(&config);
    let run_opts = dtc_engine::RunOptions {
        threads: cores,
        eval: opts.clone(),
        analyses: analyses.clone(),
    };

    let cache = std::sync::Arc::new(dtc_engine::EvalCache::in_memory());
    let (batch_explores, batch_rerates, batch_seconds, batch) =
        measured(|| dtc_engine::run_batch(&candidates, &cache, &run_opts));
    assert!(batch.outcomes.iter().all(|o| o.reports.is_ok()));

    // The pre-sharing arm: the same worker-pool shape and the same
    // in-batch dedup (the executor folded identical specs before this
    // optimization too), just no structure registry.
    let mut unique: Vec<usize> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for (i, c) in candidates.iter().enumerate() {
            let canonical =
                dtc_engine::canonical_encoding_with(&c.spec, &run_opts.eval, &analyses);
            if seen.insert(canonical) {
                unique.push(i);
            }
        }
    }
    let (flat_explores, flat_rerates, flat_seconds, flat) = measured(|| {
        run_pool(unique.len(), cores, |u, job_threads| {
            let mut opts = opts.clone();
            opts.solver.threads = job_threads;
            let spec = &candidates[unique[u]].spec;
            evaluate_all_guarded(spec, &analyses, &opts, &StructureRegistry::new())
                .expect("candidate evaluates")
        })
    });
    for (&i, unshared) in unique.iter().zip(&flat) {
        assert_eq!(
            format!("{:?}", batch.outcomes[i].reports.as_ref().unwrap()),
            format!("{unshared:?}"),
            "shared and unshared candidate reports must be byte-identical"
        );
    }
    assert_eq!(flat_rerates, 0);
    let search_speedup = flat_seconds / batch_seconds;
    println!(
        "search: {} candidates, {} structural groups; shared {batch_seconds:.2}s \
         ({batch_explores} explorations, {batch_rerates} re-rates) vs unshared \
         {flat_seconds:.2}s ({flat_explores} explorations): {search_speedup:.2}x",
        candidates.len(),
        batch_explores,
    );

    if smoke {
        println!("smoke mode: skipping BENCH_rerate.json");
        return;
    }
    let doc = Value::object([
        ("bench", Value::Str("rerate: build once, re-rate many".into())),
        ("command", Value::Str("cargo run --release -p dtc-bench --bin rerate_bench".into())),
        ("cores", Value::Int(cores as i64)),
        (
            "sensitivity",
            Value::object([
                ("scenario", Value::Str(scenario.name.clone())),
                ("states", Value::Int(graph.num_states() as i64)),
                ("parameters", Value::Int(params.len() as i64)),
                ("perturbed_jobs", Value::Int(jobs.len() as i64)),
                ("explore_seconds", Value::Float(explore_seconds)),
                ("shared_seconds", Value::Float(shared_seconds)),
                ("unshared_seconds", Value::Float(unshared_seconds)),
                ("explorations_before", Value::Int(unshared_explores as i64)),
                ("explorations_after", Value::Int(shared_explores as i64)),
                ("re_rates_after", Value::Int(shared_rerates as i64)),
                ("exploration_share_before", Value::Float(share_before)),
                ("exploration_share_after", Value::Float(share_after)),
                ("speedup", Value::Float(sensitivity_speedup)),
            ]),
        ),
        (
            "search",
            Value::object([
                ("catalog", Value::Str("search7".into())),
                ("candidates", Value::Int(candidates.len() as i64)),
                ("structural_groups", Value::Int(batch_explores as i64)),
                ("shared_seconds", Value::Float(batch_seconds)),
                ("unshared_seconds", Value::Float(flat_seconds)),
                ("explorations_before", Value::Int(flat_explores as i64)),
                ("explorations_after", Value::Int(batch_explores as i64)),
                ("re_rates_after", Value::Int(batch_rerates as i64)),
                ("speedup", Value::Float(search_speedup)),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rerate.json");
    std::fs::write(path, doc.to_json() + "\n").expect("write BENCH_rerate.json");
    println!("wrote {path}");
}
