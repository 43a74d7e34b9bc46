//! Parallel evaluation of scenario batches.
//!
//! The Figure 7 sweep solves 45 independent models; this module fans the
//! work out over a scoped thread pool (`std::thread::scope`) with a shared
//! work queue, collecting per-scenario reports (or errors) in input order.
//!
//! Each scenario is additionally isolated with `catch_unwind`: a panic
//! while building or solving one model (for example a non-finite rate that
//! trips a builder assertion) becomes a [`CloudError::Panicked`] for that
//! scenario instead of poisoning the whole batch.

use crate::analysis::{AnalysisReport, AnalysisRequest};
use crate::error::CloudError;
use crate::metrics::{AvailabilityReport, EvalOptions};
use crate::system::{CloudModel, CloudSystemSpec};
use dtc_petri::TangibleStructure;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Result of evaluating one scenario in a sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Index into the input slice.
    pub index: usize,
    /// The evaluation result.
    pub report: Result<AvailabilityReport, CloudError>,
}

/// Builds and evaluates one spec, converting panics into errors.
///
/// The single-spec entry point used by callers that manage their own
/// fan-out (e.g. single-flight evaluation in `dtc-engine`), with the same
/// panic isolation the batch harness applies per scenario.
pub fn evaluate_guarded(
    spec: &CloudSystemSpec,
    opts: &EvalOptions,
) -> Result<AvailabilityReport, CloudError> {
    guard(|| CloudModel::build(spec).and_then(|model| model.evaluate(opts)))
}

/// Like [`evaluate_guarded`], but re-rating `structure` instead of
/// exploring when it matches the spec's compiled net (see
/// [`CloudModel::state_space_from`]). Results are bit-identical either way;
/// a mismatched structure silently falls back to full exploration.
pub fn evaluate_guarded_from(
    spec: &CloudSystemSpec,
    opts: &EvalOptions,
    structure: Option<&Arc<TangibleStructure>>,
) -> Result<AvailabilityReport, CloudError> {
    guard(|| {
        let model = CloudModel::build(spec)?;
        let graph = model.state_space_from(opts, structure)?;
        model.evaluate_on(&graph, opts)
    })
}

/// Like [`evaluate_guarded`], but also returning the explored
/// [`TangibleStructure`] so rate-only siblings (a sensitivity study's
/// perturbed jobs) can be re-rated from it.
pub(crate) fn evaluate_guarded_with_structure(
    spec: &CloudSystemSpec,
    opts: &EvalOptions,
) -> Result<(AvailabilityReport, Arc<TangibleStructure>), CloudError> {
    guard(|| {
        let model = CloudModel::build(spec)?;
        let graph = model.state_space_from(opts, None)?;
        let report = model.evaluate_on(&graph, opts)?;
        Ok((report, Arc::clone(graph.structure())))
    })
}

/// Builds one spec and runs a whole analysis set against a single
/// state-space construction ([`CloudModel::evaluate_all`]), with the same
/// panic isolation as [`evaluate_guarded`]. The multi-metric entry point
/// the engine's single-flight executor calls.
pub fn evaluate_all_guarded(
    spec: &CloudSystemSpec,
    requests: &[AnalysisRequest],
    opts: &EvalOptions,
) -> Result<Vec<AnalysisReport>, CloudError> {
    guard(|| CloudModel::build(spec).and_then(|model| model.evaluate_all(spec, requests, opts)))
}

/// Batch-scoped pool of explored structures, keyed by structural
/// fingerprint ([`CloudModel::net_fingerprint`]).
///
/// A batch executor creates one registry per batch and routes every job
/// through [`evaluate_all_shared`]: the first job of each structural group
/// explores and publishes its structure; every later sibling re-rates it.
/// Re-rated graphs are bit-identical to freshly explored ones, so
/// concurrent first-comers racing on the same fingerprint cost at most a
/// redundant exploration — never a different result.
///
/// Structure sharing is an execution detail (like thread counts): it must
/// never leak into cache keys or report bytes.
#[derive(Debug, Default)]
pub struct StructureRegistry {
    inner: Mutex<HashMap<u64, Arc<TangibleStructure>>>,
}

impl StructureRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The structure previously published for `fingerprint`, if any.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<TangibleStructure>> {
        self.inner.lock().expect("registry mutex poisoned").get(&fingerprint).cloned()
    }

    /// Publishes `structure` for `fingerprint`; the first publication wins.
    pub fn insert(&self, fingerprint: u64, structure: Arc<TangibleStructure>) {
        self.inner
            .lock()
            .expect("registry mutex poisoned")
            .entry(fingerprint)
            .or_insert(structure);
    }

    /// Number of distinct structural groups seen so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry mutex poisoned").len()
    }

    /// Whether no structure has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Like [`evaluate_all_guarded`], but sharing explorations across a batch
/// through `registry`: if a structure with this spec's fingerprint was
/// already published, the state space is re-rated from it (bit-identical,
/// no exploration); otherwise this job explores and publishes its structure
/// for later siblings.
pub fn evaluate_all_shared(
    spec: &CloudSystemSpec,
    requests: &[AnalysisRequest],
    opts: &EvalOptions,
    registry: &StructureRegistry,
) -> Result<Vec<AnalysisReport>, CloudError> {
    guard(|| {
        let model = CloudModel::build(spec)?;
        let fingerprint = model.net_fingerprint();
        let shared = registry.get(fingerprint);
        let graph = model.state_space_from(opts, shared.as_ref())?;
        if shared.is_none() {
            registry.insert(fingerprint, Arc::clone(graph.structure()));
        }
        model.evaluate_all_on(spec, &graph, requests, opts)
    })
}

/// Converts panics inside `f` into [`CloudError::Panicked`].
fn guard<T>(f: impl FnOnce() -> Result<T, CloudError>) -> Result<T, CloudError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(CloudError::Panicked(msg))
        }
    }
}

/// Evaluates every spec, spreading work over `threads` worker threads
/// (clamped to at least 1). Results are returned in input order; individual
/// failures — including panics inside the model pipeline — are captured per
/// scenario instead of aborting the batch.
pub fn sweep_reports(
    specs: &[CloudSystemSpec],
    opts: &EvalOptions,
    threads: usize,
) -> Vec<SweepOutcome> {
    sweep_reports_from(specs, opts, threads, None)
}

/// Like [`sweep_reports`], but offering every job a shared
/// [`TangibleStructure`] to re-rate instead of exploring (see
/// [`CloudModel::state_space_from`]). Jobs whose net does not match the
/// structure fall back to full exploration, so a mixed batch is correct —
/// just slower for the outliers. Results are bit-identical to
/// [`sweep_reports`] either way.
pub fn sweep_reports_from(
    specs: &[CloudSystemSpec],
    opts: &EvalOptions,
    threads: usize,
    structure: Option<&Arc<TangibleStructure>>,
) -> Vec<SweepOutcome> {
    let threads = threads.max(1).min(specs.len().max(1));
    // The jobs share the solver's threads instead of multiplying them: each
    // of the `threads` workers solves with ⌊solver threads / threads⌋ (at
    // least one), so the sweep runs about as many solver threads as one
    // solve would. Bit-identical at every split (`dtc_markov::par`).
    let mut opts = opts.clone();
    opts.solver.threads = (opts.solver.resolved_threads() / threads).max(1);
    let opts = &opts;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<SweepOutcome>>> = Mutex::new(vec![None; specs.len()]);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let report = evaluate_guarded_from(&specs[i], opts, structure);
                let mut slots = results.lock().expect("results mutex poisoned");
                slots[i] = Some(SweepOutcome { index: i, report });
            });
        }
    });

    results
        .into_inner()
        .expect("results mutex poisoned")
        .into_iter()
        .map(|o| o.expect("every index filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ComponentParams, VmParams};
    use crate::system::{DataCenterSpec, PmSpec};

    fn tiny(mttf: f64) -> CloudSystemSpec {
        CloudSystemSpec {
            ospm: ComponentParams::new(mttf, 12.0),
            vm: VmParams { mttf_hours: 2880.0, mttr_hours: 0.5, start_hours: 0.1 },
            data_centers: vec![DataCenterSpec {
                label: "1".into(),
                pms: vec![PmSpec::hot(1, 1)],
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

    #[test]
    fn sweep_preserves_order_and_monotonicity() {
        let specs: Vec<_> = [500.0, 1000.0, 2000.0, 4000.0].map(tiny).into();
        let out = sweep_reports(&specs, &EvalOptions::default(), 4);
        assert_eq!(out.len(), 4);
        let mut prev = 0.0;
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.index, i);
            let a = o.report.as_ref().unwrap().availability;
            assert!(a > prev, "availability should rise with PM MTTF");
            prev = a;
        }
    }

    #[test]
    fn sweep_captures_individual_failures() {
        let mut bad = tiny(1000.0);
        bad.min_running_vms = 99;
        let specs = vec![tiny(1000.0), bad];
        let out = sweep_reports(&specs, &EvalOptions::default(), 2);
        assert!(out[0].report.is_ok());
        assert!(out[1].report.is_err());
    }

    #[test]
    fn single_thread_works() {
        let specs = vec![tiny(1000.0)];
        let out = sweep_reports(&specs, &EvalOptions::default(), 0);
        assert!(out[0].report.is_ok());
    }

    #[test]
    fn panicking_scenario_becomes_error_not_batch_poison() {
        // A NaN MTTF sails past spec validation (the ComponentParams value
        // is forged with a struct literal, skipping `new`) and trips the
        // positive-rate assertion inside the Petri-net builder — a panic.
        let mut evil = tiny(1000.0);
        evil.ospm = ComponentParams { mttf_hours: f64::NAN, mttr_hours: 12.0 };
        let specs = vec![tiny(1000.0), evil, tiny(2000.0)];
        let out = sweep_reports(&specs, &EvalOptions::default(), 2);
        assert!(out[0].report.is_ok());
        assert!(
            matches!(&out[1].report, Err(CloudError::Panicked(msg)) if msg.contains("positive")),
            "expected Panicked, got {:?}",
            out[1].report
        );
        assert!(out[2].report.is_ok(), "batch must survive a panicking scenario");
    }
}
