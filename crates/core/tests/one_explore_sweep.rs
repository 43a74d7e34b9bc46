//! The build-once, re-rate-many contract of [`sweep_reports`], asserted by
//! exact counts: a batch of perturbed sensitivity jobs run against a
//! registry seeded with the baseline's structure performs **zero**
//! explorations and one re-rate per job, while the same jobs each given a
//! fresh registry explore once apiece and re-rate nothing. Both arms must
//! agree on every availability bit.
//!
//! This file deliberately holds a single test: the `dtc_core::instrument`
//! counters are process-wide, and Rust runs every test of one binary in
//! the same process — a sibling test evaluating models concurrently would
//! pollute the deltas. One test per binary means one process, so the
//! deltas are exact.

use dtc_core::instrument;
use dtc_core::prelude::*;
use dtc_core::sensitivity::scale_parameter;
use std::sync::Arc;

fn tiny_spec() -> CloudSystemSpec {
    CloudSystemSpec {
        ospm: ComponentParams::new(1000.0, 12.0),
        vm: VmParams { mttf_hours: 2880.0, mttr_hours: 0.5, start_hours: 0.1 },
        data_centers: vec![DataCenterSpec {
            label: "1".into(),
            pms: vec![PmSpec::hot(2, 2)],
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

/// Availability bits of every job's steady state, for exact comparison.
fn availability_bits(outcomes: &[Result<AvailabilityReport>]) -> Vec<u64> {
    outcomes.iter().map(|o| o.as_ref().expect("job evaluates").availability.to_bits()).collect()
}

/// Counter deltas around `f`: (explorations, re-rates, result).
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let e0 = instrument::explorations();
    let r0 = instrument::re_rates();
    let out = f();
    (instrument::explorations() - e0, instrument::re_rates() - r0, out)
}

#[test]
fn seeded_registry_re_rates_every_perturbed_job_and_explores_none() {
    let spec = tiny_spec();
    let rel_step = 0.05;
    let mut jobs = Vec::new();
    for p in filtered_parameters(&spec, &[]) {
        jobs.push(scale_parameter(&spec, &p, 1.0 + rel_step).expect("parameter applies"));
        jobs.push(scale_parameter(&spec, &p, 1.0 - rel_step).expect("parameter applies"));
    }
    assert!(jobs.len() >= 6, "need at least 6 perturbed jobs, got {}", jobs.len());
    let n = jobs.len() as u64;

    let opts = EvalOptions::default();
    let model = CloudModel::build(&spec).expect("spec compiles");
    let graph = model.state_space(&opts).expect("baseline explores");

    // Seeded arm: the baseline's structure is published up front, so every
    // rate-only sibling re-rates it.
    let seeded = StructureRegistry::new();
    seeded.insert(model.net_fingerprint(), Arc::clone(graph.structure()));
    let (seeded_explores, seeded_rerates, seeded_out) =
        counted(|| sweep_reports(&jobs, &opts, &seeded));

    // Fresh arm: each job gets its own empty registry, so each explores.
    let (fresh_explores, fresh_rerates, fresh_out) = counted(|| {
        jobs.iter()
            .flat_map(|job| {
                sweep_reports(std::slice::from_ref(job), &opts, &StructureRegistry::new())
            })
            .collect::<Vec<_>>()
    });

    assert_eq!(seeded_explores, 0, "a seeded registry must serve every perturbed job");
    assert_eq!(seeded_rerates, n, "every perturbed job re-rates the seeded structure");
    assert_eq!(fresh_explores, n, "every job with a fresh registry explores");
    assert_eq!(fresh_rerates, 0, "nothing to re-rate in a fresh registry");
    assert_eq!(
        availability_bits(&seeded_out),
        availability_bits(&fresh_out),
        "re-rated jobs must match explored jobs bit for bit"
    );
}
