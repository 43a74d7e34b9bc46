//! The unified analysis API's core promise, measured end to end: a
//! multi-analysis `evaluate_all` call builds the tangible state space
//! **once**, so it must beat running the same analyses as separate
//! single-metric calls (each of which rebuilds model + state space, the way
//! every pre-v2 caller did).

use dtcloud::core::prelude::*;
use dtcloud::geo::BRASILIA;
use std::time::Instant;

/// The reduced two-DC case study (one PM per DC): a non-trivial state
/// space that still solves in well under a second per run.
fn spec() -> CloudSystemSpec {
    let cs = CaseStudy::paper();
    let mut spec = cs.two_dc_spec(&BRASILIA, 0.35, 100.0);
    for dc in &mut spec.data_centers {
        dc.pms.truncate(1);
    }
    spec.min_running_vms = 1;
    spec
}

const SET: [AnalysisRequest; 3] =
    [AnalysisRequest::SteadyState, AnalysisRequest::Mttsf, AnalysisRequest::CapacityThresholds];

#[test]
fn multi_analysis_run_beats_three_single_metric_runs() {
    let spec = spec();
    let opts = EvalOptions::default();

    // Warm up caches/allocator so the comparison below is steady-state.
    CloudModel::build(&spec).unwrap().evaluate_all(&spec, &SET, &opts).unwrap();

    // One build + one state-space construction for all three analyses.
    let t0 = Instant::now();
    let multi = CloudModel::build(&spec).unwrap().evaluate_all(&spec, &SET, &opts).unwrap();
    let multi_time = t0.elapsed();

    // The pre-v2 shape: each metric re-builds the model and re-explores
    // the state space.
    let t0 = Instant::now();
    let mut singles = Vec::new();
    for request in SET {
        let run = CloudModel::build(&spec)
            .unwrap()
            .evaluate_all(&spec, std::slice::from_ref(&request), &opts)
            .unwrap();
        singles.extend(run);
    }
    let singles_time = t0.elapsed();

    // Same numbers either way…
    assert_eq!(multi, singles, "shared state space must not change any metric");
    assert_eq!(multi.len(), 3);
    assert!(first_steady_state(&multi).is_some());

    // …but the shared construction is measurably faster. The true ratio is
    // ~3x (one exploration instead of three); 0.9 leaves a wide margin for
    // scheduler noise.
    assert!(
        multi_time.as_secs_f64() < 0.9 * singles_time.as_secs_f64(),
        "multi-analysis run ({multi_time:?}) should be well under three single runs \
         ({singles_time:?})"
    );
}

#[test]
fn sensitivity_through_the_unified_pipeline_shares_the_steady_baseline() {
    // Requesting [SteadyState, Sensitivity] must return rows bit-identical
    // to seeding the sweep with the steady report's own availability —
    // proving the shared solve IS the sensitivity baseline — and rank them
    // strongest-first. A family filter keeps this to a handful of
    // perturbed solves (the full sweep is exercised on smaller specs in
    // dtc-core's unit tests).
    let spec = spec();
    let opts = EvalOptions::default();
    let filter = vec!["ospm_mttr".to_string(), "direct_mtt".to_string()];
    let model = CloudModel::build(&spec).unwrap();
    let reports = model
        .evaluate_all(
            &spec,
            &[
                AnalysisRequest::SteadyState,
                AnalysisRequest::Sensitivity { parameters: filter.clone(), rel_step: 0.05 },
            ],
            &opts,
        )
        .unwrap();
    assert_eq!(reports.len(), 2);
    let steady = first_steady_state(&reports).unwrap();
    let reference = sensitivity_with_baseline(
        &spec,
        &filtered_parameters(&spec, &filter),
        steady.availability,
        &opts,
        0.05,
        &StructureRegistry::new(),
    )
    .unwrap();
    match &reports[1] {
        AnalysisReport::Sensitivity { rel_step, rows } => {
            assert_eq!(*rel_step, 0.05);
            assert_eq!(*rows, reference, "shared steady solve is the sensitivity baseline");
            // ospm_mttr + both directions of the direct link.
            assert_eq!(rows.len(), 3);
            for pair in rows.windows(2) {
                assert!(pair[0].elasticity.abs() >= pair[1].elasticity.abs());
            }
            assert!(rows.iter().any(|r| r.parameter.key() == "direct_mtt_1_2"));
            assert!(rows.iter().any(|r| r.parameter.key() == "direct_mtt_2_1"));
        }
        other => panic!("expected sensitivity, got {other:?}"),
    }
}

#[test]
fn evaluate_all_matches_legacy_single_metric_surface() {
    // Cross-check the union against the original per-metric methods on a
    // shared graph (the expert path): same state space, same numbers.
    let spec = spec();
    let opts = EvalOptions::default();
    let model = CloudModel::build(&spec).unwrap();
    let graph = model.state_space(&opts).unwrap();
    let reports = model.evaluate_all_on(&spec, &graph, &SET, &opts).unwrap();

    let steady = first_steady_state(&reports).unwrap();
    assert_eq!(*steady, model.evaluate_on(&graph, &opts).unwrap());

    match &reports[1] {
        AnalysisReport::Mttsf { hours } => {
            assert_eq!(*hours, model.mean_time_to_service_failure(&graph).unwrap());
        }
        other => panic!("expected mttsf, got {other:?}"),
    }
    match &reports[2] {
        AnalysisReport::CapacityThresholds { availability } => {
            let direct = model.availability_by_threshold(&graph).unwrap();
            assert_eq!(availability.len(), direct.len());
            for (a, b) in availability.iter().zip(&direct) {
                // `availability_by_threshold` solves with default options,
                // the union with the request's options — same method here,
                // so the curves agree to solver tolerance.
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
        other => panic!("expected capacity curve, got {other:?}"),
    }
}
