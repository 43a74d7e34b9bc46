//! Golden tests: the bundled catalogs must expand to exactly the
//! scenarios the hand-coded `dtc_core::scenarios` generators produce —
//! same order, same names, bit-identical specs — so `dtc run` reproduces
//! the paper numbers without re-deriving anything.

use dtc_core::metrics::EvalOptions;
use dtc_core::scenarios::{figure7_scenarios, table_vii_scenarios, CaseStudy};
use dtc_engine::catalogs;
use dtc_engine::prelude::*;

#[test]
fn table7_catalog_matches_core_generator() {
    let catalog = catalogs::table7();
    let scenarios = catalog.expand().unwrap();
    let reference = table_vii_scenarios(&CaseStudy::paper());
    assert_eq!(scenarios.len(), 8);
    assert_eq!(scenarios.len(), reference.len());
    for (got, want) in scenarios.iter().zip(&reference) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.spec, want.spec, "spec mismatch for {:?}", want.name);
    }
    // Every row carries the paper's published availability.
    assert!(scenarios.iter().all(|s| s.expect_availability.is_some()));
}

#[test]
fn fig7_catalog_matches_core_generator() {
    let catalog = catalogs::fig7();
    let scenarios = catalog.expand().unwrap();
    let reference = figure7_scenarios(&CaseStudy::paper());
    assert_eq!(scenarios.len(), 45);
    assert_eq!(scenarios.len(), reference.len());
    for (got, want) in scenarios.iter().zip(&reference) {
        assert_eq!(got.secondary.as_deref(), Some(want.city.name));
        assert_eq!(got.alpha, Some(want.alpha));
        assert_eq!(got.disaster_years, Some(want.disaster_years));
        assert_eq!(got.is_baseline, want.is_baseline);
        assert_eq!(
            got.spec, want.spec,
            "spec mismatch at {} α={} years={}",
            want.city.name, want.alpha, want.disaster_years
        );
    }
    assert_eq!(scenarios.iter().filter(|s| s.is_baseline).count(), 5);
}

#[test]
fn identical_grid_points_share_cache_keys_with_core_specs() {
    // The engine's cache key of a catalog scenario equals the key computed
    // from the core-generated spec: catalogs and hand-written harnesses
    // share cache entries.
    let opts = EvalOptions::default();
    let catalog_spec = &catalogs::fig7().expand().unwrap()[0].spec;
    let core_spec = &figure7_scenarios(&CaseStudy::paper())[0].spec;
    assert_eq!(spec_key(catalog_spec, &opts), spec_key(core_spec, &opts));
}

#[test]
fn bundled_catalogs_round_trip_through_json() {
    for catalog in [catalogs::table7(), catalogs::fig7()] {
        let json = catalog.to_value().to_json();
        let back = Catalog::from_json_str(&json).unwrap();
        assert_eq!(catalog, back);
        let a = catalog.expand().unwrap();
        let b = back.expand().unwrap();
        assert_eq!(a, b, "round-tripped catalog expands identically");
    }
}

#[test]
fn table7_one_machine_sensitivity_ranking_is_pinned() {
    // Golden ranking for the paper's smallest Table VII architecture (one
    // machine, one DC): the unified pipeline's sensitivity rows must (a)
    // be bit-identical to the standalone core sweep and (b) rank the PM
    // series and the disaster above every VM-timing knob — the paper's
    // "infrastructure dominates" reading of its sensitivity discussion.
    let catalog = catalogs::table7();
    let scenario = catalog
        .expand()
        .unwrap()
        .into_iter()
        .find(|s| s.machines == Some(1))
        .expect("table7 has the one-machine row");

    let cache = std::sync::Arc::new(EvalCache::in_memory());
    let opts = RunOptions {
        analyses: vec![
            AnalysisRequest::SteadyState,
            AnalysisRequest::Sensitivity { parameters: vec![], rel_step: 0.05 },
        ],
        ..RunOptions::default()
    };
    let result = run_batch(std::slice::from_ref(&scenario), &cache, &opts);
    let reports = result.outcomes[0].reports.as_ref().unwrap();
    let AnalysisReport::Sensitivity { rel_step, rows } = &reports[1] else {
        panic!("expected sensitivity report, got {:?}", reports[1].kind());
    };
    assert_eq!(*rel_step, 0.05);

    // Bit-identical to the standalone sweep (same baseline, same jobs).
    let standalone = dtc_core::sensitivity::availability_sensitivity(
        &scenario.spec,
        &EvalOptions::default(),
        0.05,
    )
    .unwrap();
    assert_eq!(*rows, standalone);

    // The architecture models PM+VM series, one NAS and one disaster:
    // 9 knobs in total.
    let keys: Vec<String> = rows.iter().map(|r| r.parameter.key()).collect();
    assert_eq!(rows.len(), 9, "{keys:?}");
    // Pinned ranking structure: the OSPM series is the strongest lever,
    // the disaster pair outranks every VM knob, and NAS repair (4 h on a
    // 400k-hour MTTF component) is in the weak tail.
    let rank = |key: &str| keys.iter().position(|k| k == key).unwrap_or(usize::MAX);
    assert!(rank("ospm_mttf") <= 1 && rank("ospm_mttr") <= 2, "{keys:?}");
    assert!(rank("disaster_mttf_1") < rank("vm_mttf"), "{keys:?}");
    assert!(rank("disaster_mttr_1") < rank("vm_start"), "{keys:?}");
    assert!(rank("nas_mttr_1") > rank("ospm_mttf"), "{keys:?}");
    // Signs: MTTF knobs help, repair knobs hurt.
    let row = |key: &str| rows.iter().find(|r| r.parameter.key() == key).unwrap();
    assert!(row("ospm_mttf").elasticity > 0.0);
    assert!(row("disaster_mttf_1").elasticity > 0.0);
    assert!(row("ospm_mttr").elasticity < 0.0);
    assert!(row("vm_mttr").elasticity < 0.0);
}

#[test]
fn structure_sharing_is_invisible_in_report_bytes_and_cache_keys() {
    // A rate-only grid (the one-machine Table VII row at three OSPM MTTF
    // values) exercises the executor's batch structure sharing: the first
    // cell explores, the other two re-rate. The contract is that sharing
    // is a pure execution detail — every report byte-identical to the
    // unshared per-spec path (`evaluate_all_guarded`, which explores each
    // spec from scratch), and every cache key unchanged.
    let catalog = catalogs::table7();
    let base = catalog
        .expand()
        .unwrap()
        .into_iter()
        .find(|s| s.machines == Some(1))
        .expect("table7 has the one-machine row");
    let mut scenarios = Vec::new();
    for (i, scale) in [1.0, 0.5, 2.0].into_iter().enumerate() {
        let mut s = base.clone();
        s.name = format!("{}-mttf-x{i}", s.name);
        s.spec.ospm = dtc_core::params::ComponentParams::new(
            s.spec.ospm.mttf_hours * scale,
            s.spec.ospm.mttr_hours,
        );
        scenarios.push(s);
    }

    let cache = std::sync::Arc::new(EvalCache::in_memory());
    let opts = RunOptions {
        analyses: vec![
            AnalysisRequest::SteadyState,
            AnalysisRequest::Sensitivity { parameters: vec![], rel_step: 0.05 },
        ],
        ..RunOptions::default()
    };
    let result = run_batch(&scenarios, &cache, &opts);
    assert_eq!(result.evaluated, 3, "three distinct rate points all solve");

    for (scenario, outcome) in scenarios.iter().zip(&result.outcomes) {
        // The unshared path: build + explore this spec alone. Thread
        // knobs are derived inside run_batch, but they never change
        // report bytes (deterministic kernels), so default options give
        // the same bytes.
        let unshared = dtc_core::sweep::evaluate_all_guarded(
            &scenario.spec,
            &opts.analyses,
            &opts.eval,
            &dtc_core::sweep::StructureRegistry::new(),
        )
        .unwrap();
        let shared = outcome.reports.as_ref().unwrap();
        assert_eq!(
            format!("{shared:?}"),
            format!("{unshared:?}"),
            "{}: shared-structure bytes must match the unshared path",
            scenario.name
        );
        // Cache identity is untouched by structure sharing: the key is a
        // pure function of spec + options + analyses.
        let canonical = dtc_engine::hash::canonical_encoding_with(
            &scenario.spec,
            &opts.eval,
            &opts.analyses,
        );
        assert_eq!(outcome.key, dtc_engine::hash::key_of_encoding(&canonical));
    }
}

/// Transient + interval outputs of the **per-point** engine, captured (17
/// significant digits) immediately before the single-pass curve engine
/// replaced it: `graph.transient(t)` / `dtc_markov::interval_availability`
/// once per time point. The unified pipeline must keep reproducing them.
#[allow(clippy::excessive_precision)] // 17 digits as captured, even where f64 rounds them
mod pre_curve_snapshot {
    /// `A(t)` for the Table VII one-machine row at t = 24/168/720/8760 h.
    pub const TABLE7_ONE_MACHINE_TRANSIENT: [f64; 4] = [
        9.88285173986659604e-1,
        9.87092303824100847e-1,
        9.86501117011864492e-1,
        9.81064918438497302e-1,
    ];
    /// First-year interval availability for the same row.
    pub const TABLE7_ONE_MACHINE_INTERVAL_8760: f64 = 9.83671600717721528e-1;
    /// `A(24 h)` for fig7\[secondary=Brasilia,alpha=0.35,disaster_years=100\]
    /// (the full ~126k-state case-study model).
    pub const FIG7_BRASILIA_TRANSIENT_24: f64 = 9.99803675435518069e-1;
    /// First-day interval availability for the same scenario.
    pub const FIG7_BRASILIA_INTERVAL_24: f64 = 9.99885994230639619e-1;
    /// Allowed drift from the captured per-point values.
    pub const TOL: f64 = 1e-12;
}

fn curve_reports(scenario: &Scenario, analyses: Vec<AnalysisRequest>) -> Vec<AnalysisReport> {
    curve_reports_at(scenario, analyses, 0)
}

/// Like [`curve_reports`] but pinning `solver.threads`. Each call gets its
/// own fresh cache — necessary for the thread-axis golden below, because
/// thread counts are excluded from the cache key and a shared cache would
/// turn the second run into a trivial hit instead of a recomputation.
fn curve_reports_at(
    scenario: &Scenario,
    analyses: Vec<AnalysisRequest>,
    solver_threads: usize,
) -> Vec<AnalysisReport> {
    let cache = std::sync::Arc::new(EvalCache::in_memory());
    let mut opts = RunOptions { analyses, ..RunOptions::default() };
    opts.eval.solver.threads = solver_threads;
    let result = run_batch(std::slice::from_ref(scenario), &cache, &opts);
    result.outcomes[0].reports.as_ref().expect("scenario evaluates").to_vec()
}

#[test]
fn table7_transient_and_interval_pinned_to_pre_curve_engine() {
    use pre_curve_snapshot as snap;
    let scenario = catalogs::table7()
        .expand()
        .unwrap()
        .into_iter()
        .find(|s| s.machines == Some(1))
        .expect("table7 has the one-machine row");
    let times = vec![24.0, 168.0, 720.0, 8760.0];
    let reports = curve_reports(
        &scenario,
        vec![
            AnalysisRequest::Transient { time_points: times.clone() },
            AnalysisRequest::Interval { horizon_hours: 8760.0 },
        ],
    );
    let AnalysisReport::Transient { time_points, availability } = &reports[0] else {
        panic!("transient report expected, got {:?}", reports[0].kind());
    };
    assert_eq!(*time_points, times);
    for ((&t, &got), &want) in
        times.iter().zip(availability).zip(&snap::TABLE7_ONE_MACHINE_TRANSIENT)
    {
        assert!(
            (got - want).abs() < snap::TOL,
            "A({t}) drifted from the per-point engine: {got:.17e} vs {want:.17e}"
        );
    }
    let AnalysisReport::Interval { horizon_hours, availability } = &reports[1] else {
        panic!("interval report expected, got {:?}", reports[1].kind());
    };
    assert_eq!(*horizon_hours, 8760.0);
    assert!(
        (availability - snap::TABLE7_ONE_MACHINE_INTERVAL_8760).abs() < snap::TOL,
        "IA(8760) drifted: {availability:.17e}"
    );
}

#[test]
fn fig7_transient_and_interval_pinned_to_pre_curve_engine() {
    // The full case-study model (~126k tangible states): one march serves
    // both the transient point and the SLA window. Kept to t = 24 h so the
    // test stays CI-sized.
    use pre_curve_snapshot as snap;
    let scenario = catalogs::fig7().expand().unwrap().into_iter().next().unwrap();
    assert_eq!(scenario.secondary.as_deref(), Some("Brasilia"));
    let analyses = vec![
        AnalysisRequest::Transient { time_points: vec![24.0] },
        AnalysisRequest::Interval { horizon_hours: 24.0 },
    ];
    let reports = curve_reports_at(&scenario, analyses.clone(), 1);
    let AnalysisReport::Transient { availability, .. } = &reports[0] else {
        panic!("transient report expected");
    };
    assert!(
        (availability[0] - snap::FIG7_BRASILIA_TRANSIENT_24).abs() < snap::TOL,
        "A(24) drifted: {:.17e}",
        availability[0]
    );
    let AnalysisReport::Interval { availability, .. } = &reports[1] else {
        panic!("interval report expected");
    };
    assert!(
        (availability - snap::FIG7_BRASILIA_INTERVAL_24).abs() < snap::TOL,
        "IA(24) drifted: {availability:.17e}"
    );

    // Thread-axis golden: the same scenario recomputed at 4 worker threads
    // (fresh cache — thread counts are not part of the key, so a shared
    // cache would short-circuit) must produce **byte-identical** reports,
    // observed through the full catalog → engine → solver pipeline on the
    // ~126k-state model. This is the deterministic-kernel contract
    // (`dtc_markov::par`), not a tolerance check.
    let reports4 = curve_reports_at(&scenario, analyses, 4);
    assert_eq!(
        format!("{reports:?}"),
        format!("{reports4:?}"),
        "fig7 Brasilia reports at 4 threads must be byte-identical to 1 thread"
    );
}

#[test]
fn bundled_catalogs_validate() {
    // Every bundled scenario compiles to a model (without solving it).
    for catalog in [catalogs::table7(), catalogs::fig7()] {
        for s in catalog.expand().unwrap() {
            dtc_core::CloudModel::build(&s.spec).unwrap();
        }
    }
}

const TINY_PAIR: &str = r#"
# Two templates that expand to the *same* spec — the executor must fold
# them and report a cache hit for the duplicate.
[catalog]
name = "tiny"

[[scenario]]
name = "a"
kind = "custom"
min_running_vms = 1
[[scenario.dc]]
site = "Rio de Janeiro"
hot_pms = 1
vms_per_pm = 1
pm_capacity = 1
disaster = false
nas_net = false
backup_link = false

[[scenario]]
name = "b"
kind = "custom"
min_running_vms = 1
[[scenario.dc]]
site = "Rio de Janeiro"
hot_pms = 1
vms_per_pm = 1
pm_capacity = 1
disaster = false
nas_net = false
backup_link = false
"#;

#[test]
fn catalog_run_dedups_identical_scenarios_and_second_run_hits_cache() {
    let catalog = Catalog::from_toml_str(TINY_PAIR).unwrap();
    let scenarios = catalog.expand().unwrap();
    assert_eq!(scenarios.len(), 2);
    let cache = std::sync::Arc::new(EvalCache::in_memory());
    let opts = RunOptions::default();

    let first = run_batch(&scenarios, &cache, &opts);
    assert_eq!(first.evaluated, 1, "identical specs dedup before fan-out");
    assert_eq!(first.deduplicated, 1);
    assert!(first.total_hits() > 0);
    let a = first.outcomes[0].reports.as_ref().unwrap();
    let b = first.outcomes[1].reports.as_ref().unwrap();
    assert_eq!(a, b, "deduplicated scenario gets the identical report");

    let second = run_batch(&scenarios, &cache, &opts);
    assert_eq!(second.evaluated, 0);
    assert_eq!(second.cached, 1);
    assert_eq!(second.deduplicated, 1);
    assert_eq!(
        second.outcomes[0].reports.as_ref().unwrap(),
        a,
        "cached re-run reproduces identical output"
    );
}
