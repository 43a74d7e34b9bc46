//! The one-exploration-per-structural-group contract, asserted end to end
//! through the batch executor: a rate-only grid with an embedded
//! sensitivity analysis performs exactly one full state-space exploration
//! per distinct net structure — every other graph (grid siblings and all
//! perturbed sensitivity jobs) is re-rated from the group's shared
//! [`dtc_petri::TangibleStructure`].
//!
//! This file deliberately holds a single test: the `dtc_core::instrument`
//! counters are process-wide, and Rust runs every test of one binary in
//! the same process — a sibling test evaluating models concurrently would
//! pollute the deltas. One test per binary means one process, so the
//! deltas are exact.

use dtc_core::instrument;
use dtc_core::params::{ComponentParams, VmParams};
use dtc_core::sensitivity::filtered_parameters;
use dtc_core::system::{CloudSystemSpec, DataCenterSpec, PmSpec};
use dtc_engine::prelude::*;
use dtc_engine::EvalCache;

fn tiny(mttf: f64, hot_vms: u32) -> CloudSystemSpec {
    CloudSystemSpec {
        ospm: ComponentParams::new(mttf, 12.0),
        vm: VmParams { mttf_hours: 2880.0, mttr_hours: 0.5, start_hours: 0.1 },
        data_centers: vec![DataCenterSpec {
            label: "1".into(),
            pms: vec![PmSpec::hot(hot_vms, hot_vms)],
            disaster: None,
            nas_net: None,
            backup_inbound_mtt_hours: None,
        }],
        backup: None,
        direct_mtt_hours: vec![vec![None]],
        min_running_vms: 1,
        migration_threshold: 1,
    }
}

fn scenario(name: &str, spec: CloudSystemSpec) -> Scenario {
    Scenario {
        name: name.into(),
        spec,
        secondary: None,
        alpha: None,
        disaster_years: None,
        machines: None,
        is_baseline: false,
        expect_availability: None,
    }
}

#[test]
fn batch_with_sensitivity_explores_once_per_structural_group() {
    // Two structural groups: three rate-only one-PM cells, one two-PM cell.
    let batch = vec![
        scenario("a", tiny(500.0, 1)),
        scenario("b", tiny(1000.0, 1)),
        scenario("c", tiny(2000.0, 1)),
        scenario("wide", tiny(1000.0, 2)),
    ];
    let analyses = vec![
        AnalysisRequest::SteadyState,
        AnalysisRequest::Sensitivity { parameters: vec![], rel_step: 0.05 },
    ];
    // Every perturbed sensitivity job (two per applicable parameter) must
    // re-rate its cell's structure instead of exploring.
    let sensitivity_jobs: usize =
        batch.iter().map(|s| 2 * filtered_parameters(&s.spec, &[]).len()).sum();
    assert!(sensitivity_jobs > 0, "tiny specs must have sensitivity knobs");

    let cache = std::sync::Arc::new(EvalCache::in_memory());
    let opts = RunOptions { analyses, ..RunOptions::default() };

    let explorations0 = instrument::explorations();
    let re_rates0 = instrument::re_rates();
    let fallbacks0 = instrument::rerate_fallbacks();
    let result = run_batch(&batch, &cache, &opts);
    let explorations = instrument::explorations() - explorations0;
    let re_rates = instrument::re_rates() - re_rates0;
    let fallbacks = instrument::rerate_fallbacks() - fallbacks0;

    assert_eq!(result.evaluated, 4, "all four cells are distinct specs");
    assert_eq!(explorations, 2, "two structural groups must cost exactly two explorations");
    // Re-rates: the two later one-PM cells, plus every sensitivity job of
    // every cell (the jobs of a cell share that cell's own structure).
    assert_eq!(re_rates as usize, 2 + sensitivity_jobs);
    assert_eq!(fallbacks, 0, "a rate-only grid never mismatches a structure");

    // Sharing is invisible in the output: each cell's report union is
    // byte-identical to the unshared per-spec path, which explores from
    // scratch (counted after the deltas above were taken).
    for (s, outcome) in batch.iter().zip(&result.outcomes) {
        let unshared = dtc_core::sweep::evaluate_all_guarded(
            &s.spec,
            &opts.analyses,
            &opts.eval,
            &dtc_core::sweep::StructureRegistry::new(),
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", outcome.reports.as_ref().unwrap()),
            format!("{unshared:?}"),
            "{}: structure sharing must not change report bytes",
            s.name
        );
    }

    // A second run is pure cache hits: no graph is built at all, so
    // neither counter moves.
    let explorations0 = instrument::explorations();
    let re_rates0 = instrument::re_rates();
    let again = run_batch(&batch, &cache, &opts);
    assert_eq!(again.evaluated, 0);
    assert_eq!(again.cached, 4);
    assert_eq!(instrument::explorations(), explorations0, "cache hits never explore");
    assert_eq!(instrument::re_rates(), re_rates0, "cache hits never re-rate");
}
