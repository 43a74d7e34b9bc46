//! The evaluation path: guarded evaluation, structure sharing and the
//! worker pool every batch fans out over.
//!
//! * [`evaluate_all_guarded`] builds one spec and runs a whole analysis set
//!   against one state-space construction. A panic while building or
//!   solving (for example a non-finite rate that trips a builder
//!   assertion) becomes a [`CloudError::Panicked`] for that spec instead
//!   of poisoning the caller.
//! * [`StructureRegistry`] is the only way evaluations share an explored
//!   state space: every evaluation takes one, and rate-only siblings that
//!   meet in the same registry re-rate one exploration.
//! * [`sweep_reports`] evaluates a batch of specs' steady states.
//! * [`run_pool`] is the scoped worker pool behind every batch, and the one
//!   place a thread budget is split between the pool and the solvers.

use crate::analysis::{AnalysisReport, AnalysisRequest};
use crate::error::CloudError;
use crate::metrics::{AvailabilityReport, EvalOptions};
use crate::system::{CloudModel, CloudSystemSpec};
use dtc_petri::{TangibleGraph, TangibleStructure};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Builds one spec and runs a whole analysis set against a single
/// state-space construction ([`CloudModel::evaluate_all_on`]), converting
/// panics into [`CloudError::Panicked`].
///
/// The state space comes from `registry`: a structure already published
/// for this spec's structural fingerprint is re-rated (bit-identical, no
/// exploration); otherwise this call explores and publishes its structure
/// for later siblings. Pass a fresh registry to explore unconditionally.
pub fn evaluate_all_guarded(
    spec: &CloudSystemSpec,
    requests: &[AnalysisRequest],
    opts: &EvalOptions,
    registry: &StructureRegistry,
) -> Result<Vec<AnalysisReport>, CloudError> {
    guard(|| {
        let model = CloudModel::build(spec)?;
        let graph = registry.state_space(&model, opts)?;
        model.evaluate_all_on(spec, &graph, requests, opts)
    })
}

/// Pool of explored structures, keyed by structural fingerprint
/// ([`CloudModel::net_fingerprint`]).
///
/// A batch creates one registry and routes every job through
/// [`evaluate_all_guarded`]: the first job of each structural group
/// explores and publishes its structure, and every later sibling re-rates
/// it. Concurrent first arrivals of one fingerprint wait for that single
/// exploration instead of racing it. An exploration that fails or panics
/// publishes nothing, and the next waiter then explores itself — so the
/// explorations of a group whose every sibling fails run one after
/// another, not side by side.
///
/// Structure sharing is an execution detail (like thread counts): it must
/// never leak into cache keys or report bytes.
#[derive(Debug, Default)]
pub struct StructureRegistry {
    cells: Mutex<HashMap<u64, Arc<Cell>>>,
}

/// One fingerprint's slot: the published structure, and the lock its
/// explorers queue on.
#[derive(Debug, Default)]
struct Cell {
    structure: OnceLock<Arc<TangibleStructure>>,
    exploring: Mutex<()>,
}

impl StructureRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The structure previously published for `fingerprint`, if any.
    /// Never waits for an exploration in progress.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<TangibleStructure>> {
        let cells = self.cells.lock().expect("registry mutex poisoned");
        cells.get(&fingerprint)?.structure.get().cloned()
    }

    /// Publishes `structure` for `fingerprint`; the first publication wins.
    pub fn insert(&self, fingerprint: u64, structure: Arc<TangibleStructure>) {
        let _ = self.cell(fingerprint).structure.set(structure);
    }

    /// The cell of `fingerprint`, created empty on first use.
    fn cell(&self, fingerprint: u64) -> Arc<Cell> {
        let mut cells = self.cells.lock().expect("registry mutex poisoned");
        Arc::clone(cells.entry(fingerprint).or_default())
    }

    /// The state space of `model`: re-rated from the published structure
    /// of its fingerprint, or explored and published by the first arrival.
    fn state_space(
        &self,
        model: &CloudModel,
        opts: &EvalOptions,
    ) -> Result<TangibleGraph, CloudError> {
        let cell = self.cell(model.net_fingerprint());
        if cell.structure.get().is_none() {
            // Only the cell's lock is held while exploring, never the map's.
            // A panicking explorer poisons it with nothing published, which
            // the next holder treats like an error: it explores itself.
            let _turn = cell.exploring.lock().unwrap_or_else(PoisonError::into_inner);
            if cell.structure.get().is_none() {
                let graph = model.state_space_from(opts, None)?;
                let _ = cell.structure.set(Arc::clone(graph.structure()));
                return Ok(graph);
            }
        }
        let shared = cell.structure.get().expect("published before the lock was released");
        model.state_space_from(opts, Some(shared))
    }
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

/// Evaluates every spec's steady state through [`evaluate_all_guarded`],
/// sharing structures through `registry`, over a [`run_pool`] with the
/// budget `opts.solver.threads`. Results are returned in input order;
/// individual failures, panics included, are captured per spec instead of
/// aborting the batch.
pub fn sweep_reports(
    specs: &[CloudSystemSpec],
    opts: &EvalOptions,
    registry: &StructureRegistry,
) -> Vec<Result<AvailabilityReport, CloudError>> {
    let requests = [AnalysisRequest::SteadyState];
    run_pool(specs.len(), opts.solver.resolved_threads(), |i, job_threads| {
        let mut opts = opts.clone();
        opts.solver.threads = job_threads;
        let reports = evaluate_all_guarded(&specs[i], &requests, &opts, registry)?;
        match reports.as_slice() {
            [AnalysisReport::SteadyState(report)] => Ok(*report),
            other => unreachable!("a steady-state request yields its report, got {other:?}"),
        }
    })
}

/// Runs `job(i, job_threads)` for every `i` in `0..jobs` on a scoped
/// worker pool and returns the results in index order.
///
/// This is where a thread budget is split. `budget` (at least one) buys
/// `min(budget, jobs)` workers, each taking the next index from a shared
/// counter, and every job gets `job_threads = budget / workers` threads
/// for its own parallel kernels. Nested fan-out therefore stays near
/// `budget` threads in total instead of multiplying; the kernels are
/// bit-identical at every thread count (`dtc_markov::par`), so the split
/// never changes a result. A panicking job propagates its panic to the
/// caller once every worker has stopped.
pub fn run_pool<T: Send>(
    jobs: usize,
    budget: usize,
    job: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    let budget = budget.max(1);
    let workers = budget.min(jobs).max(1);
    let job_threads = budget / workers;
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break done;
                        }
                        done.push((i, job(i, job_threads)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, out) in handle.join().unwrap_or_else(|panic| resume_unwind(panic)) {
                slots[i] = Some(out);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every index ran")).collect()
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

    fn with_threads(threads: usize) -> EvalOptions {
        let mut opts = EvalOptions::default();
        opts.solver.threads = threads;
        opts
    }

    #[test]
    fn sweep_preserves_order_and_monotonicity() {
        let specs: Vec<_> = [500.0, 1000.0, 2000.0, 4000.0].map(tiny).into();
        let out = sweep_reports(&specs, &with_threads(4), &StructureRegistry::new());
        assert_eq!(out.len(), 4);
        let mut prev = 0.0;
        for o in &out {
            let a = o.as_ref().unwrap().availability;
            assert!(a > prev, "availability should rise with PM MTTF");
            prev = a;
        }
    }

    #[test]
    fn sweep_captures_individual_failures() {
        let mut bad = tiny(1000.0);
        bad.min_running_vms = 99;
        let specs = vec![tiny(1000.0), bad];
        let out = sweep_reports(&specs, &with_threads(2), &StructureRegistry::new());
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn single_thread_works() {
        let specs = vec![tiny(1000.0)];
        let out = sweep_reports(&specs, &with_threads(1), &StructureRegistry::new());
        assert!(out[0].is_ok());
    }

    #[test]
    fn panicking_scenario_becomes_error_not_batch_poison() {
        // A NaN MTTF sails past spec validation (the ComponentParams value
        // is forged with a struct literal, skipping `new`) and trips the
        // positive-rate assertion inside the Petri-net builder — a panic.
        let mut evil = tiny(1000.0);
        evil.ospm = ComponentParams { mttf_hours: f64::NAN, mttr_hours: 12.0 };
        let specs = vec![tiny(1000.0), evil, tiny(2000.0)];
        let out = sweep_reports(&specs, &with_threads(2), &StructureRegistry::new());
        assert!(out[0].is_ok());
        assert!(
            matches!(&out[1], Err(CloudError::Panicked(msg)) if msg.contains("positive")),
            "expected Panicked, got {:?}",
            out[1]
        );
        assert!(out[2].is_ok(), "batch must survive a panicking scenario");
    }

    #[test]
    fn shared_registry_matches_fresh_registries_bit_for_bit() {
        let specs: Vec<_> = [500.0, 1000.0, 2000.0].map(tiny).into();
        let registry = StructureRegistry::new();
        let shared = sweep_reports(&specs, &with_threads(2), &registry);
        let fingerprint = CloudModel::build(&specs[0]).unwrap().net_fingerprint();
        assert!(registry.get(fingerprint).is_some(), "the first arrival publishes");
        for (spec, shared) in specs.iter().zip(&shared) {
            let fresh = sweep_reports(
                std::slice::from_ref(spec),
                &with_threads(1),
                &StructureRegistry::new(),
            );
            assert_eq!(shared.as_ref().unwrap(), fresh[0].as_ref().unwrap());
        }
    }

    #[test]
    fn failed_exploration_publishes_nothing() {
        let spec = tiny(1000.0);
        let fingerprint = CloudModel::build(&spec).unwrap().net_fingerprint();
        let registry = StructureRegistry::new();
        let mut cramped = EvalOptions::default();
        cramped.reach.max_states = 1;
        let requests = [AnalysisRequest::SteadyState];
        assert!(evaluate_all_guarded(&spec, &requests, &cramped, &registry).is_err());
        assert!(registry.get(fingerprint).is_none(), "an error publishes nothing");
        // The next arrival explores itself and publishes.
        let opts = EvalOptions::default();
        assert!(evaluate_all_guarded(&spec, &requests, &opts, &registry).is_ok());
        assert!(registry.get(fingerprint).is_some());
    }

    #[test]
    fn concurrent_first_arrivals_share_one_exploration() {
        // Eight workers meet at a barrier, then all ask for the same
        // fingerprint at once. Without the per-fingerprint wait, the racing
        // first arrivals would each explore and hold distinct structures.
        let model = CloudModel::build(&tiny(1000.0)).unwrap();
        let registry = StructureRegistry::new();
        let opts = EvalOptions::default();
        let start = std::sync::Barrier::new(8);
        let structures = run_pool(8, 8, |_, _| {
            start.wait();
            Arc::clone(registry.state_space(&model, &opts).unwrap().structure())
        });
        for s in &structures {
            assert!(Arc::ptr_eq(s, &structures[0]));
        }
    }

    #[test]
    fn failing_siblings_each_explore_and_publish_nothing() {
        // Four concurrent first arrivals whose explorations all fail: each
        // waits its turn, explores itself and reports its own error.
        let spec = tiny(1000.0);
        let fingerprint = CloudModel::build(&spec).unwrap().net_fingerprint();
        let registry = StructureRegistry::new();
        let mut cramped = EvalOptions::default();
        cramped.reach.max_states = 1;
        let requests = [AnalysisRequest::SteadyState];
        let start = std::sync::Barrier::new(4);
        let out = run_pool(4, 4, |_, _| {
            start.wait();
            evaluate_all_guarded(&spec, &requests, &cramped, &registry)
        });
        for result in &out {
            assert!(
                matches!(
                    result,
                    Err(CloudError::Petri(dtc_petri::PetriError::StateSpaceExceeded { .. }))
                ),
                "every sibling reports its own exploration error, got {result:?}"
            );
        }
        assert!(registry.get(fingerprint).is_none(), "failures publish nothing");
    }

    #[test]
    fn a_panicked_exploration_leaves_the_cell_usable() {
        // A panic while exploring poisons the cell's lock with nothing
        // published; the next arrival explores and publishes as usual.
        let model = CloudModel::build(&tiny(1000.0)).unwrap();
        let registry = StructureRegistry::new();
        let cell = registry.cell(model.net_fingerprint());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _turn = cell.exploring.lock().unwrap();
            panic!("exploration panicked");
        }));
        assert!(cell.exploring.is_poisoned());
        let graph = registry.state_space(&model, &EvalOptions::default()).unwrap();
        let published = registry.get(model.net_fingerprint()).expect("published");
        assert!(Arc::ptr_eq(graph.structure(), &published));
    }

    #[test]
    fn insert_keeps_the_first_publication() {
        let opts = EvalOptions::default();
        let model = CloudModel::build(&tiny(1000.0)).unwrap();
        let first = Arc::clone(model.state_space(&opts).unwrap().structure());
        let second = Arc::clone(model.state_space(&opts).unwrap().structure());
        let registry = StructureRegistry::new();
        registry.insert(7, Arc::clone(&first));
        registry.insert(7, second);
        assert!(Arc::ptr_eq(&registry.get(7).unwrap(), &first));
        assert!(registry.get(8).is_none());
    }

    #[test]
    fn pool_returns_index_order_and_splits_the_budget() {
        // 3 jobs on a budget of 8: three workers, two threads per job.
        let out = run_pool(3, 8, |i, job_threads| (i, job_threads));
        assert_eq!(out, vec![(0, 2), (1, 2), (2, 2)]);
        // More jobs than budget: one thread per job, every index once.
        let out = run_pool(50, 4, |i, job_threads| (i * i, job_threads));
        assert_eq!(out, (0..50).map(|i| (i * i, 1)).collect::<Vec<_>>());
        // A zero budget still runs everything on one worker.
        assert_eq!(run_pool(2, 0, |i, t| i + t), vec![1, 2]);
        assert!(run_pool(0, 4, |i, _| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "job 3 fails")]
    fn pool_propagates_a_job_panic() {
        run_pool(5, 2, |i, _| assert!(i != 3, "job {i} fails"));
    }
}
