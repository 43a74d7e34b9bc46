//! Linear-system machinery behind the steady-state solvers.
//!
//! Steady-state analysis of a CTMC with infinitesimal generator `Q` solves
//! `π Q = 0` subject to `Σ πᵢ = 1`. Working with the transpose turns this
//! into the more familiar `Qᵀ πᵀ = 0`, a singular system whose one-dimensional
//! null space is pinned down by the normalization constraint.
//!
//! Three families of methods are provided:
//!
//! * **Power method** on the uniformized DTMC `P = I + Q/Λ` — robust,
//!   memory-light, geometric convergence governed by the subdominant
//!   eigenvalue.
//! * **Stationary iterations** (Jacobi, Gauss–Seidel, SOR) on `Qᵀ x = 0` —
//!   usually far fewer iterations than power for stiff dependability models
//!   (rates spanning `1/minutes` to `1/centuries`).
//! * **Dense direct elimination** with partial pivoting for small chains —
//!   used as ground truth in tests and for models below a few thousand
//!   states.

use crate::error::{MarkovError, Result};
use crate::par;
use crate::sparse::CsrMatrix;
use std::sync::atomic::{AtomicU64, Ordering};

/// Convergence/iteration knobs shared by the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Maximum number of sweeps before giving up.
    pub max_iterations: usize,
    /// Convergence tolerance on the max-norm of successive-iterate deltas
    /// (relative to the iterate's max entry).
    pub tolerance: f64,
    /// Relaxation factor for [`Method::Sor`]; ignored by other methods.
    pub relaxation: f64,
    /// Check convergence every `check_every` sweeps.
    pub check_every: usize,
    /// If the iteration budget runs out but the relative delta is already
    /// below this looser threshold, accept the solution (the achieved
    /// residual is reported in [`SolveStats`]) instead of failing. Stiff
    /// nearly-decomposable dependability chains routinely converge to 1e-9
    /// quickly and then crawl; demanding 1e-12 there is counterproductive.
    /// Set to 0 to always fail on budget exhaustion. Note the criterion is
    /// delta-based: for nearly-completely-decomposable chains the true
    /// error can exceed the last delta, so results accepted this way carry
    /// their achieved residual in [`SolveStats`] for the caller to judge.
    pub accept_loose: f64,
    /// Worker threads for the parallel kernels (the uniformized march, the
    /// power method, and Gauss–Seidel/SOR sweeps): `0` (the default) means
    /// one per available core, `1` forces the serial path. A pure
    /// scheduling knob — results are bit-identical at every value (see
    /// [`crate::par`]) and it is excluded from evaluation-cache identity.
    /// Gauss–Seidel and SOR sweep the rows of each dependency level in
    /// parallel when the chain's levels are wide enough, and in row order
    /// otherwise (see [`stationary_iteration`]); Jacobi ignores it.
    pub threads: usize,
}

impl SolverOptions {
    /// The effective worker count: `threads`, with `0` resolved to one per
    /// available core.
    pub fn resolved_threads(&self) -> usize {
        par::resolve_threads(self.threads)
    }
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 200_000,
            tolerance: 1e-12,
            relaxation: 1.0,
            check_every: 8,
            accept_loose: 1e-7,
            threads: 0,
        }
    }
}

/// Steady-state solution method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Power iteration on the uniformized chain.
    Power,
    /// Jacobi sweeps on `Qᵀx = 0`.
    Jacobi,
    /// Gauss–Seidel sweeps on `Qᵀx = 0` (default).
    #[default]
    GaussSeidel,
    /// Successive over-relaxation with [`SolverOptions::relaxation`].
    Sor,
    /// Dense LU-style elimination; exact up to rounding, `O(n³)`.
    Direct,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Method::Power => "power",
            Method::Jacobi => "jacobi",
            Method::GaussSeidel => "gauss-seidel",
            Method::Sor => "sor",
            Method::Direct => "direct",
        };
        f.write_str(name)
    }
}

/// Outcome of an iterative solve: the solution plus convergence diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Number of sweeps/iterations performed.
    pub iterations: usize,
    /// Final residual estimate (max-norm of the last delta, or of `xQᵀ` for
    /// the direct method).
    pub residual: f64,
    /// Method that produced the solution.
    pub method: Method,
}

/// Dot product `Σ aᵢ·bᵢ` — the shared primitive behind reward evaluation
/// (`π·r`) across the workspace.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Normalizes `x` to sum to one (in place). Returns the pre-normalization sum.
///
/// The sum is accumulated in fixed block order ([`par::blocked_sum`]), so
/// the whole-slice call decomposes exactly into [`par::blocked_sum`] once
/// plus [`scale_slice`] on any partition of `x` into disjoint sub-slices —
/// the property the parallel march relies on.
pub(crate) fn normalize(x: &mut [f64]) -> f64 {
    let sum = par::blocked_sum(x);
    scale_slice(x, sum);
    sum
}

/// Divides every entry of a (sub-)slice by a precomputed total; a no-op
/// when `sum == 0`. Calling this on disjoint sub-slices covering a vector
/// is bit-identical to one whole-slice call — division is element-wise, so
/// slicing cannot reorder any arithmetic.
pub(crate) fn scale_slice(x: &mut [f64], sum: f64) {
    if sum != 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

/// Largest entry of a (sub-)slice, starting the fold at `0.0`. `max` is
/// associative and commutative over the non-NaN values seen here, so the
/// max over sub-slice maxima equals the whole-slice result regardless of
/// how the vector is partitioned.
pub(crate) fn max_entry(x: &[f64]) -> f64 {
    x.iter().cloned().fold(0.0, f64::max)
}

/// Clamps negative entries of a (sub-)slice to zero, reporting `false` if
/// any entry fell below `-threshold` (i.e. was too negative to be
/// convergence noise). Element-wise, so per-sub-slice flags combined with
/// `&&` equal the whole-slice call.
pub(crate) fn clamp_negatives_slice(x: &mut [f64], threshold: f64) -> bool {
    let mut ok = true;
    for v in x.iter_mut() {
        if *v < 0.0 {
            if *v < -threshold {
                ok = false;
            }
            *v = 0.0;
        }
    }
    ok
}

/// Cleans a converged stationary vector: clamps noise-level negative
/// entries (iterative solvers converge within a tolerance, so entries whose
/// true value is ~0 can come out at `-ε`) to zero and renormalizes.
/// Entries more negative than `floor` indicate the solve actually failed
/// and are reported via the returned flag.
///
/// Composed from the sub-slice primitives ([`max_entry`],
/// [`clamp_negatives_slice`], [`normalize`]) so that a blocked/parallel
/// caller applying them per sub-slice gets bit-identical results.
pub(crate) fn sanitize_distribution(x: &mut [f64], floor: f64) -> bool {
    let scale = max_entry(x).max(1e-300);
    let ok = clamp_negatives_slice(x, floor * scale);
    normalize(x);
    ok
}

fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Power iteration for `π = π P` on a stochastic matrix `P` (rows sum to 1).
///
/// `pi0` seeds the iteration; it is normalized internally.
///
/// The multiply `y = x·P` runs as `y = Pᵀ·x` through the row-block
/// kernel ([`par::mul_vec_into`]) over [`SolverOptions::threads`] workers:
/// `P` is transposed once up front, and because the transpose preserves
/// ascending source-row order within each transposed row, every output
/// element accumulates its terms in the same order the serial scatter
/// used — results are bit-identical at every thread count.
pub fn power_stationary(
    p: &CsrMatrix,
    pi0: &[f64],
    opts: &SolverOptions,
) -> Result<(Vec<f64>, SolveStats)> {
    let n = p.nrows();
    if p.ncols() != n {
        return Err(MarkovError::NotSquare { nrows: n, ncols: p.ncols() });
    }
    if pi0.len() != n {
        return Err(MarkovError::DimensionMismatch { expected: n, got: pi0.len() });
    }
    let pt = p.transpose();
    let mut x = pi0.to_vec();
    normalize(&mut x);
    let mut y = vec![0.0; n];
    let mut last_delta = f64::INFINITY;
    for it in 1..=opts.max_iterations {
        par::mul_vec_into(&pt, &x, &mut y, opts.threads);
        normalize(&mut y);
        if it % opts.check_every == 0 || it == opts.max_iterations {
            last_delta = max_abs_delta(&x, &y);
            let scale = y.iter().cloned().fold(0.0, f64::max).max(1e-300);
            if last_delta / scale <= opts.tolerance {
                std::mem::swap(&mut x, &mut y);
                if !sanitize_distribution(&mut x, 1e-6) {
                    return Err(MarkovError::NotConverged {
                        method: Method::Power,
                        iterations: it,
                        residual: last_delta,
                    });
                }
                return Ok((
                    x,
                    SolveStats { iterations: it, residual: last_delta, method: Method::Power },
                ));
            }
        }
        std::mem::swap(&mut x, &mut y);
    }
    let scale = x.iter().cloned().fold(0.0, f64::max).max(1e-300);
    if opts.accept_loose > 0.0
        && last_delta / scale <= opts.accept_loose
        && sanitize_distribution(&mut x, 1e-6)
    {
        return Ok((
            x,
            SolveStats {
                iterations: opts.max_iterations,
                residual: last_delta,
                method: Method::Power,
            },
        ));
    }
    Err(MarkovError::NotConverged {
        method: Method::Power,
        iterations: opts.max_iterations,
        residual: last_delta,
    })
}

/// Warm-started power iteration: like [`power_stationary`] but seeded with
/// a neighboring solution `guess` and checking convergence after **every**
/// multiply (`check_every = 1`) instead of every `opts.check_every`-th.
///
/// A cold solve batches its convergence checks because early iterates are
/// nowhere near the fixed point; a warm start's whole premise is that the
/// seed is already close, so eager checking is what lets an exact seed
/// converge after a single multiply and a near-exact seed stop the moment
/// it is inside tolerance. The result is deterministic given the same
/// guess, matrix, and options, and agrees with a cold
/// [`power_stationary`] within the solver tolerance — **not** bit-exactly,
/// which is why warm starts are kept off cached/golden evaluation paths
/// (iteration counts and last-bit noise would leak into pinned reports).
///
/// # Errors
///
/// As [`power_stationary`].
pub fn power_stationary_from(
    p: &CsrMatrix,
    guess: &[f64],
    opts: &SolverOptions,
) -> Result<(Vec<f64>, SolveStats)> {
    power_stationary(p, guess, &SolverOptions { check_every: 1, ..*opts })
}

/// Gauss–Seidel / SOR / Jacobi sweeps solving `A x = 0`, `Σx = 1` where `A`
/// is expected to be `Qᵀ` of an irreducible generator (strictly negative
/// diagonal, non-negative off-diagonals, columns of `Q` summing to zero).
///
/// Gauss–Seidel and SOR honour [`SolverOptions::threads`]. A row's
/// dependency level is `1 + max level(j)` over its pattern neighbours
/// `j < i` in either direction; rows of one level never read each other.
/// When the levels are wide enough to give every worker at least 512 rows
/// of an average level, the rows of each level are swept by several
/// workers at once (as many as the width allows, up to the thread count). Every row still
/// does its arithmetic in exactly the serial term order, so results and
/// iteration counts are bit-identical at every thread count. Narrower
/// chains are swept in row order by one worker; Jacobi always is.
pub fn stationary_iteration(
    a: &CsrMatrix,
    x0: &[f64],
    method: Method,
    opts: &SolverOptions,
) -> Result<(Vec<f64>, SolveStats)> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(MarkovError::NotSquare { nrows: n, ncols: a.ncols() });
    }
    if x0.len() != n {
        return Err(MarkovError::DimensionMismatch { expected: n, got: x0.len() });
    }
    sweep_stationary(a, false, x0, method, opts).map(|(x, stats, _)| (x, stats))
}

/// The one sweep solver behind [`stationary_iteration`]. `m` is `A`, or
/// the generator `Q` when `transpose` is set: the off-diagonal `Qᵀ` and
/// the diagonal are then built from `Q` in one pass, so the full `Qᵀ` is
/// never materialized. Also returns the depth of the sweep's level
/// schedule (1 for the row-order sweep). Dimensions are the caller's to
/// check.
pub(crate) fn sweep_stationary(
    m: &CsrMatrix,
    transpose: bool,
    x0: &[f64],
    method: Method,
    opts: &SolverOptions,
) -> Result<(Vec<f64>, SolveStats, usize)> {
    let sweep = match method {
        Method::Jacobi => Sweep::Jacobi,
        Method::GaussSeidel => Sweep::Relax(1.0),
        Method::Sor if 0.0 < opts.relaxation && opts.relaxation < 2.0 => {
            Sweep::Relax(opts.relaxation)
        }
        Method::Sor => return Err(MarkovError::BadRelaxation(opts.relaxation)),
        other => {
            return Err(MarkovError::UnsupportedMethod {
                method: other,
                context: "stationary_iteration",
            })
        }
    };
    let (schedule, workers) = match sweep {
        Sweep::Relax(_) => LevelSchedule::plan(m, opts.resolved_threads()),
        Sweep::Jacobi => (LevelSchedule::row_order(m.nrows()), 1),
    };
    let levels = schedule.depth();
    let system = SweepSystem::new(m, transpose, schedule)?;
    let mut x = x0.to_vec();
    normalize(&mut x);
    let run = match sweep {
        Sweep::Relax(omega) => system.relax_sweeps(workers, x, omega, opts),
        Sweep::Jacobi => system.jacobi_sweeps(x, opts),
    };
    let SweepRun { mut x, iterations, last_delta, converged } = run;
    let accepted = if converged {
        sanitize_distribution(&mut x, 1e-6)
    } else {
        let scale = max_entry(&x).max(1e-300);
        opts.accept_loose > 0.0
            && last_delta / scale <= opts.accept_loose
            && sanitize_distribution(&mut x, 1e-6)
    };
    if !accepted {
        return Err(MarkovError::NotConverged { method, iterations, residual: last_delta });
    }
    Ok((x, SolveStats { iterations, residual: last_delta, method }, levels))
}

/// The per-row update a sweep applies.
#[derive(Debug, Clone, Copy)]
enum Sweep {
    /// Damped Jacobi: every row reads the previous iterate.
    Jacobi,
    /// Gauss–Seidel (`ω = 1`) or SOR: rows read the iterate in place.
    Relax(f64),
}

/// Damping of the Jacobi sweep: `x_i <- (1-d)·prev_i + d·(-(Σ_{j≠i} a_ij
/// prev_j)/a_ii)`. Undamped Jacobi has iteration-matrix eigenvalues on the
/// unit circle for singular M-matrix systems (e.g. two-state chains
/// oscillate with period 2); damping pulls them strictly inside.
const JACOBI_DAMPING: f64 = 0.75;

/// `A = Qᵀ` split for sweeping: the off-diagonal rows (ascending columns)
/// and the diagonal. The rows are stored in the order the sweep visits
/// them, the schedule's level order.
struct SweepSystem {
    off: CsrMatrix,
    /// Diagonal of `A`, by state.
    diag: Vec<f64>,
    schedule: LevelSchedule,
}

/// Where a sweep run stopped.
struct SweepRun {
    x: Vec<f64>,
    iterations: usize,
    last_delta: f64,
    converged: bool,
}

impl SweepSystem {
    /// Splits `m` (`A`, or `Q` when `transpose` is set). A zero diagonal
    /// entry means an absorbing state, which has no unique normalized
    /// stationary vector under this solver.
    fn new(m: &CsrMatrix, transpose: bool, schedule: LevelSchedule) -> Result<Self> {
        let (off, diag) = m.split_diagonal(transpose, schedule.slots().as_deref());
        match diag.iter().position(|&d| d == 0.0) {
            Some(state) => Err(MarkovError::ZeroDiagonal { state }),
            None => Ok(SweepSystem { off, diag, schedule }),
        }
    }

    /// The one per-row kernel of every sweep: `Σ_{j≠i} a_ij · x_j` over
    /// stored row `k` (state `i`'s row), terms added in ascending column
    /// order.
    #[inline(always)]
    fn off_dot(&self, k: usize, x: impl Fn(usize) -> f64) -> f64 {
        let (cols, vals) = self.off.row(k);
        let mut acc = 0.0;
        for (c, v) in cols.iter().zip(vals) {
            acc += v * x(*c as usize);
        }
        acc
    }

    /// Damped Jacobi sweeps (row order, one worker). Each block's share of
    /// the normalizing sum is added up while the sweep writes the block.
    fn jacobi_sweeps(&self, mut x: Vec<f64>, opts: &SolverOptions) -> SweepRun {
        let blocks = par::block_ranges(x.len());
        let mut partials = vec![0.0; blocks.len()];
        let mut prev = x.clone();
        let mut last_delta = f64::INFINITY;
        for it in 1..=opts.max_iterations {
            for (partial, rows) in partials.iter_mut().zip(&blocks) {
                let mut sum = par::SUM_SEED;
                for i in rows.clone() {
                    let jacobi = -self.off_dot(i, |j| prev[j]) / self.diag[i];
                    x[i] = (1.0 - JACOBI_DAMPING) * prev[i] + JACOBI_DAMPING * jacobi;
                    sum += x[i];
                }
                *partial = sum;
            }
            let total = par::combine_partials(partials.iter().copied());
            // Every Jacobi sweep reads the previous iterate.
            let finish = Finish { copy: true, ..Finish::after(it, total, opts) };
            let mut check = Check::default();
            for (v, p) in x.iter_mut().zip(prev.iter_mut()) {
                *v = finish.apply(*v, p, &mut check);
            }
            if finish.check {
                last_delta = check.delta;
                if check.converged(opts) {
                    return SweepRun { x, iterations: it, last_delta, converged: true };
                }
            }
        }
        SweepRun { x, iterations: opts.max_iterations, last_delta, converged: false }
    }

    /// Gauss–Seidel/SOR sweeps over the levels of the schedule, the rows of
    /// each level split over `workers` (one worker and one level is the
    /// plain row-order sweep). One `std::thread::scope` serves the whole
    /// solve; workers meet at a [`par::SpinBarrier`] after every level. The
    /// normalizing sum, the `prev` copy and the convergence check run over
    /// the fixed [`par::block_ranges`] blocks, each worker owning a
    /// contiguous run of them.
    fn relax_sweeps(
        &self,
        workers: usize,
        x: Vec<f64>,
        omega: f64,
        opts: &SolverOptions,
    ) -> SweepRun {
        let n = x.len();
        let blocks = par::block_ranges(n);
        let nb = blocks.len();
        let workers = workers.min(nb).max(1);
        let mut prev = x.clone();
        let shared = Shared {
            system: self,
            omega,
            opts,
            workers,
            x: x.into_iter().map(|v| AtomicU64::new(v.to_bits())).collect(),
            partials: blocks.iter().map(|_| AtomicU64::new(0)).collect(),
            maxima: (0..workers).map(|_| [AtomicU64::new(0), AtomicU64::new(0)]).collect(),
            barrier: par::SpinBarrier::new(workers),
            blocks,
        };
        // Worker w owns blocks w·nb/W .. (w+1)·nb/W, which cover rows
        // b·n/nb for b in that range, and the matching rows of `prev`.
        let mut owned = Vec::with_capacity(workers);
        let mut rest = prev.as_mut_slice();
        for w in 0..workers {
            let ours = (w * nb / workers)..((w + 1) * nb / workers);
            let rows = (ours.start * n / nb.max(1))..(ours.end * n / nb.max(1));
            let (head, tail) = rest.split_at_mut(rows.len());
            owned.push(Owned { worker: w, blocks: ours, base: rows.start, prev: head });
            rest = tail;
        }
        let (iterations, last_delta, converged) = std::thread::scope(|scope| {
            let shared = &shared;
            let mut owned = owned.into_iter();
            let first = owned.next().expect("at least one worker");
            for other in owned {
                scope.spawn(move || shared.work(other));
            }
            shared.work(first)
        });
        let x = shared.x.into_iter().map(|v| f64::from_bits(v.into_inner())).collect();
        SweepRun { x, iterations, last_delta, converged }
    }
}

/// One worker's share of a Gauss–Seidel/SOR solve: its index, its run of
/// fixed blocks, the first row of that run, and those rows of `prev`.
struct Owned<'a> {
    worker: usize,
    blocks: std::ops::Range<usize>,
    base: usize,
    prev: &'a mut [f64],
}

/// What every worker of a Gauss–Seidel/SOR solve shares.
///
/// The atomics are read and written `Relaxed`: between a write by one
/// worker and a read by another there is always a [`par::SpinBarrier`]
/// wait, whose release/acquire pairing orders them, and between two waits
/// no entry is written by one worker while another reads it (rows of one
/// level are never neighbours; blocks have one owner).
struct Shared<'a> {
    system: &'a SweepSystem,
    omega: f64,
    opts: &'a SolverOptions,
    workers: usize,
    blocks: Vec<std::ops::Range<usize>>,
    /// The iterate, as `f64` bit patterns.
    x: Vec<AtomicU64>,
    /// Per-block shares of the normalizing sum.
    partials: Vec<AtomicU64>,
    /// Per-worker `[delta, max entry]` of a convergence check.
    maxima: Vec<[AtomicU64; 2]>,
    barrier: par::SpinBarrier,
}

impl Shared<'_> {
    /// One worker's side of the solve; every worker returns the same
    /// `(iterations, last_delta, converged)`.
    fn work(&self, own: Owned<'_>) -> (usize, f64, bool) {
        let Owned { worker: w, blocks, base, prev } = own;
        let (system, workers, opts) = (self.system, self.workers, self.opts);
        let x = self.x.as_slice();
        let at = |j: usize| f64::from_bits(x[j].load(Ordering::Relaxed));
        // The per-row update of state `i`, stored row `k`.
        let relax = |k: usize, i: usize| {
            let gs = -system.off_dot(k, at) / system.diag[i];
            let v = (1.0 - self.omega) * at(i) + self.omega * gs;
            x[i].store(v.to_bits(), Ordering::Relaxed);
            v
        };
        let row_order = workers == 1 && system.schedule.depth() == 1;
        let mut last_delta = f64::INFINITY;
        for it in 1..=opts.max_iterations {
            if row_order {
                // One worker visiting the states in order adds up each
                // block's share of the normalizing sum as it sweeps it.
                for (b, rows) in self.blocks.iter().enumerate() {
                    let sum = rows.clone().fold(par::SUM_SEED, |acc, i| acc + relax(i, i));
                    self.partials[b].store(sum.to_bits(), Ordering::Relaxed);
                }
            } else {
                for level in system.schedule.levels() {
                    let len = level.len();
                    let ours = (level.start + w * len / workers)
                        ..(level.start + (w + 1) * len / workers);
                    for k in ours {
                        relax(k, system.schedule.rows[k] as usize);
                    }
                    self.barrier.wait();
                }
                for b in blocks.clone() {
                    let sum = self.blocks[b].clone().fold(par::SUM_SEED, |acc, i| acc + at(i));
                    self.partials[b].store(sum.to_bits(), Ordering::Relaxed);
                }
            }
            self.barrier.wait();
            let total = par::combine_partials(
                self.partials.iter().map(|p| f64::from_bits(p.load(Ordering::Relaxed))),
            );
            let finish = Finish::after(it, total, opts);
            let mut check = Check::default();
            for (d, p) in prev.iter_mut().enumerate() {
                let i = base + d;
                x[i].store(finish.apply(at(i), p, &mut check).to_bits(), Ordering::Relaxed);
            }
            if finish.check {
                self.maxima[w][0].store(check.delta.to_bits(), Ordering::Relaxed);
                self.maxima[w][1].store(check.max.to_bits(), Ordering::Relaxed);
            }
            self.barrier.wait();
            if finish.check {
                let mut all = Check::default();
                for [delta, max] in &self.maxima {
                    all.delta = all.delta.max(f64::from_bits(delta.load(Ordering::Relaxed)));
                    all.max = all.max.max(f64::from_bits(max.load(Ordering::Relaxed)));
                }
                last_delta = all.delta;
                if all.converged(opts) {
                    return (it, last_delta, true);
                }
            }
        }
        (opts.max_iterations, last_delta, false)
    }
}

/// The element-wise pass that ends every sweep: normalize by the sweep's
/// total, fold the convergence check when this sweep checks, and refresh
/// `prev` when the next sweep will read it. Per element, the same
/// operations in the same order as `normalize` followed by the delta and
/// max folds over whole vectors.
#[derive(Debug, Clone, Copy)]
struct Finish {
    total: f64,
    check: bool,
    copy: bool,
}

impl Finish {
    fn after(it: usize, total: f64, opts: &SolverOptions) -> Finish {
        let checks = |k: usize| k.is_multiple_of(opts.check_every) || k == opts.max_iterations;
        Finish { total, check: checks(it), copy: checks(it + 1) }
    }

    #[inline(always)]
    fn apply(&self, v: f64, prev: &mut f64, check: &mut Check) -> f64 {
        let v = if self.total != 0.0 { v / self.total } else { v };
        if self.check {
            check.delta = check.delta.max((*prev - v).abs());
            check.max = check.max.max(v);
        }
        if self.copy {
            *prev = v;
        }
        v
    }
}

/// Running maxima of a convergence check: `max |prev − x|` and `max x`.
#[derive(Debug, Clone, Copy, Default)]
struct Check {
    delta: f64,
    max: f64,
}

impl Check {
    fn converged(&self, opts: &SolverOptions) -> bool {
        self.delta / self.max.max(1e-300) <= opts.tolerance
    }
}

/// Rows grouped into dependency levels, for sweeping a level's rows in
/// parallel with serial results.
///
/// `level(i) = 1 + max level(j)` over the off-diagonal pattern neighbours
/// `j < i` of row `i`, in both directions (0 when there are none):
///
/// * `a_ij ≠ 0`, `j < i` is a true dependency — row `i` reads the *new*
///   `x_j`, so row `j` must run first;
/// * `a_ji ≠ 0`, `j < i` is an anti-dependency — row `j` reads the *old*
///   `x_i`, so row `i` must run after row `j`.
///
/// Rows of one level are therefore never neighbours: sweeping the levels
/// in order, with any split of each level's rows, gives every row exactly
/// the inputs — and so exactly the arithmetic — of the serial row-order
/// sweep. The rule is symmetric in `a_ij`/`a_ji`, so `Q` and `Qᵀ` have the
/// same schedule.
#[derive(Debug)]
struct LevelSchedule {
    /// States in sweep order: by level, ascending within a level.
    rows: Vec<u32>,
    /// `rows[starts[l]..starts[l + 1]]` is level `l`.
    starts: Vec<usize>,
}

impl LevelSchedule {
    /// The schedule of `m`'s pattern and the number of workers to sweep it
    /// with, at most `threads`: [`par::workers_for`] the rows of an average
    /// level. When fewer than two qualify, one worker sweeps in row order.
    fn plan(m: &CsrMatrix, threads: usize) -> (LevelSchedule, usize) {
        let n = m.nrows();
        if par::workers_for(n, threads) < 2 {
            return (LevelSchedule::row_order(n), 1);
        }
        let level = row_levels(m);
        let depth = level.iter().max().map_or(0, |&l| l as usize + 1);
        let workers = par::workers_for(n / depth, threads);
        if workers < 2 {
            return (LevelSchedule::row_order(n), 1);
        }
        (LevelSchedule::group(&level, depth), workers)
    }

    /// All `n` rows in one level, in row order.
    fn row_order(n: usize) -> LevelSchedule {
        LevelSchedule { rows: (0..n as u32).collect(), starts: vec![0, n] }
    }

    /// Groups rows by level (`depth` = 1 + the largest level), ascending
    /// rows within a level.
    fn group(level: &[u32], depth: usize) -> LevelSchedule {
        let mut starts = vec![0usize; depth + 1];
        for &l in level {
            starts[l as usize + 1] += 1;
        }
        for l in 0..depth {
            starts[l + 1] += starts[l];
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; level.len()];
        for (i, &l) in level.iter().enumerate() {
            rows[next[l as usize]] = i as u32;
            next[l as usize] += 1;
        }
        LevelSchedule { rows, starts }
    }

    fn depth(&self) -> usize {
        self.starts.len() - 1
    }

    /// Each level's range of positions in [`LevelSchedule::rows`].
    fn levels(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.starts.windows(2).map(|w| w[0]..w[1])
    }

    /// Where each state sits in sweep order: the inverse of `rows`, or
    /// `None` when that is row order (a single level is always ascending).
    fn slots(&self) -> Option<Vec<u32>> {
        if self.depth() == 1 {
            return None;
        }
        let mut slot = vec![0u32; self.rows.len()];
        for (k, &i) in self.rows.iter().enumerate() {
            slot[i as usize] = k as u32;
        }
        Some(slot)
    }
}

/// The level of every row of `m`'s off-diagonal pattern (see
/// [`LevelSchedule`]), in one ascending pass: a row's level is final once
/// its lower neighbours are, and it then raises its upper neighbours
/// (anti-dependencies) before their turn comes. Diagonal entries are
/// ignored.
fn row_levels(m: &CsrMatrix) -> Vec<u32> {
    let mut level = vec![0u32; m.nrows()];
    for i in 0..m.nrows() {
        let cols = m.row(i).0;
        let lower = cols.partition_point(|&c| (c as usize) < i);
        let upper = cols.partition_point(|&c| (c as usize) <= i);
        let l = cols[..lower].iter().fold(level[i], |l, &j| l.max(level[j as usize] + 1));
        level[i] = l;
        for &j in &cols[upper..] {
            level[j as usize] = level[j as usize].max(l + 1);
        }
    }
    level
}

/// Dense direct solve of `π Q = 0`, `Σπ = 1` by Gaussian elimination with
/// partial pivoting ([`dense_solve`]), replacing the last column of `Qᵀ`
/// equations with the normalization row.
///
/// # Errors
///
/// Fails with [`MarkovError::Singular`] if the pivot falls below machine
/// tolerance — in practice this means `Q` was reducible (several closed
/// communicating classes), so no unique stationary distribution exists.
pub fn direct_stationary(q: &CsrMatrix) -> Result<(Vec<f64>, SolveStats)> {
    let n = q.nrows();
    if q.ncols() != n {
        return Err(MarkovError::NotSquare { nrows: n, ncols: q.ncols() });
    }
    if n == 0 {
        return Err(MarkovError::Empty);
    }
    // Build dense Qᵀ with the last equation replaced by Σπ = 1.
    let mut a = vec![vec![0.0f64; n]; n];
    for (i, j, v) in q.iter() {
        a[j][i] = v; // transpose
    }
    let mut b = vec![0.0f64; n];
    for cell in &mut a[n - 1] {
        *cell = 1.0;
    }
    b[n - 1] = 1.0;
    let mut x = dense_solve(a, b)?;
    // Clamp tiny negatives produced by rounding, then renormalize; a large
    // negative means the elimination went numerically wrong.
    if !sanitize_distribution(&mut x, 1e-6) {
        return Err(MarkovError::Singular { pivot: n - 1 });
    }
    // Residual: max |(xQ)_j|.
    let residual = q.vec_mul(&x).iter().map(|v| v.abs()).fold(0.0, f64::max);
    Ok((x, SolveStats { iterations: 1, residual, method: Method::Direct }))
}

/// Solves the dense linear system `A x = b` by Gaussian elimination with
/// partial pivoting. Consumed by absorbing-chain analysis and
/// [`direct_stationary`].
#[allow(clippy::needless_range_loop)] // elimination indexes two rows at once
pub fn dense_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>> {
    let n = a.len();
    if n == 0 {
        return Err(MarkovError::Empty);
    }
    for row in &a {
        if row.len() != n {
            return Err(MarkovError::NotSquare { nrows: n, ncols: row.len() });
        }
    }
    if b.len() != n {
        return Err(MarkovError::DimensionMismatch { expected: n, got: b.len() });
    }
    let scale: f64 =
        a.iter().flat_map(|r| r.iter().map(|v| v.abs())).fold(0.0, f64::max).max(1.0);
    for col in 0..n {
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .expect("non-empty range");
        if pivot_val <= f64::EPSILON * scale * n as f64 {
            return Err(MarkovError::Singular { pivot: col });
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for r in (col + 1)..n {
            let f = a[r][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in (i + 1)..n {
            acc -= a[i][j] * x[j];
        }
        x[i] = acc / a[i][i];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    /// Two-state birth–death generator with rates λ (0→1) and μ (1→0).
    fn two_state(lambda: f64, mu: f64) -> CsrMatrix {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, -lambda);
        coo.push(0, 1, lambda);
        coo.push(1, 0, mu);
        coo.push(1, 1, -mu);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn direct_two_state_closed_form() {
        let q = two_state(2.0, 3.0);
        let (pi, stats) = direct_stationary(&q).unwrap();
        assert!((pi[0] - 0.6).abs() < 1e-12, "pi={pi:?}");
        assert!((pi[1] - 0.4).abs() < 1e-12);
        assert!(stats.residual < 1e-12);
    }

    #[test]
    fn gauss_seidel_matches_direct() {
        let q = two_state(0.001, 1.0); // stiff
        let qt = q.transpose();
        let (pi, _) = stationary_iteration(
            &qt,
            &[0.5, 0.5],
            Method::GaussSeidel,
            &SolverOptions::default(),
        )
        .unwrap();
        let (exact, _) = direct_stationary(&q).unwrap();
        for (a, b) in pi.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-9, "{pi:?} vs {exact:?}");
        }
    }

    #[test]
    fn jacobi_and_sor_match_direct() {
        let q = two_state(5.0, 7.0);
        let qt = q.transpose();
        let (exact, _) = direct_stationary(&q).unwrap();
        for method in [Method::Jacobi, Method::Sor] {
            let opts = SolverOptions { relaxation: 1.1, ..Default::default() };
            let (pi, stats) = stationary_iteration(&qt, &[1.0, 0.0], method, &opts).unwrap();
            for (a, b) in pi.iter().zip(&exact) {
                assert!((a - b).abs() < 1e-9, "method {method:?}: {pi:?} vs {exact:?}");
            }
            assert!(stats.iterations > 0);
        }
    }

    #[test]
    fn power_on_uniformized_chain() {
        let q = two_state(1.0, 4.0);
        // P = I + Q/Λ with Λ = 5.
        let mut p = q.clone();
        p.scale(1.0 / 5.0);
        let mut coo = CooMatrix::new(2, 2);
        for (i, j, v) in p.iter() {
            coo.push(i, j, v);
        }
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let p = CsrMatrix::from_coo(&coo);
        let (pi, _) = power_stationary(&p, &[1.0, 0.0], &SolverOptions::default()).unwrap();
        assert!((pi[0] - 0.8).abs() < 1e-9, "pi={pi:?}");
        assert!((pi[1] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn direct_detects_reducible_chain() {
        // Two disconnected absorbing states: no unique stationary vector.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.0);
        coo.push(1, 1, 0.0);
        let q = CsrMatrix::from_coo(&coo);
        assert!(matches!(direct_stationary(&q), Err(MarkovError::Singular { .. })));
    }

    #[test]
    fn iteration_rejects_absorbing_state() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, -1.0);
        coo.push(0, 1, 1.0);
        // state 1 absorbing -> zero diagonal in Qᵀ row 1? Qᵀ[1][1] = Q[1][1] = 0.
        let q = CsrMatrix::from_coo(&coo);
        let qt = q.transpose();
        let err = stationary_iteration(
            &qt,
            &[0.5, 0.5],
            Method::GaussSeidel,
            &SolverOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MarkovError::ZeroDiagonal { state: 1 }));
    }

    #[test]
    fn sor_rejects_bad_relaxation() {
        let q = two_state(1.0, 1.0);
        let qt = q.transpose();
        let opts = SolverOptions { relaxation: 2.5, ..Default::default() };
        let err = stationary_iteration(&qt, &[0.5, 0.5], Method::Sor, &opts).unwrap_err();
        assert!(matches!(err, MarkovError::BadRelaxation(_)));
    }

    /// A 5-state off-diagonal pattern (rows of `Qᵀ`: row `i` reads the
    /// listed columns) pinning the level rule:
    ///
    /// * row 0 reads 3 — an anti-dependency, so row 3 goes after row 0;
    /// * row 1 reads 0 — a true dependency: level(1) = level(0) + 1 = 1;
    /// * row 2 has no lower neighbour: level 0, beside row 0;
    /// * row 3 reads 1 (true, level ≥ 2) and is read by row 0 (anti, ≥ 1);
    /// * row 4 is only read by row 2: its level (1) comes from the
    ///   anti-dependency alone.
    fn five_state_pattern() -> CsrMatrix {
        let mut coo = CooMatrix::new(5, 5);
        for (i, j) in [(0, 3), (1, 0), (2, 4), (3, 1)] {
            coo.push(i, j, 1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn level_rule_orders_true_and_anti_dependencies() {
        let off = five_state_pattern();
        let level = row_levels(&off);
        assert_eq!(level, vec![0, 1, 0, 2, 1]);
        // The rule is symmetric: the transpose has the same levels.
        assert_eq!(row_levels(&off.transpose()), level);
        let schedule = LevelSchedule::group(&level, 3);
        assert_eq!(schedule.depth(), 3);
        assert_eq!(schedule.rows, vec![0, 2, 1, 4, 3]);
        assert_eq!(schedule.levels().collect::<Vec<_>>(), vec![0..2, 2..4, 4..5]);
        assert_eq!(schedule.slots(), Some(vec![0, 2, 1, 4, 3]));
        // No two rows of a level are neighbours, in either direction.
        for range in schedule.levels() {
            let rows = &schedule.rows[range];
            for &i in rows {
                for &j in rows {
                    assert_eq!(off.get(i as usize, j as usize), 0.0, "rows {i}, {j}");
                }
            }
        }
    }

    #[test]
    fn level_schedule_gives_each_worker_enough_rows() {
        let n = 4 * par::MIN_ROWS_PER_WORKER;
        // n states with no transitions between them: one level, n wide.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, -1.0);
        }
        let wide = CsrMatrix::from_coo(&coo);
        for (threads, workers) in [(1, 1), (2, 2), (3, 3), (8, 4)] {
            let (schedule, got) = LevelSchedule::plan(&wide, threads);
            assert_eq!((schedule.depth(), got), (1, workers), "{threads} threads");
        }
        // Two levels of n/2 rows: the same rows, half the workers.
        for i in (0..n).step_by(2) {
            coo.push(i, i + 1, 1.0);
        }
        let (schedule, workers) = LevelSchedule::plan(&CsrMatrix::from_coo(&coo), 8);
        assert_eq!((schedule.depth(), workers), (2, 2));
        // A birth–death chain: every row depends on the one before it.
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 1.0);
        }
        let deep = CsrMatrix::from_coo(&coo);
        assert_eq!(row_levels(&deep).last(), Some(&(n as u32 - 1)));
        let (schedule, workers) = LevelSchedule::plan(&deep, 8);
        assert_eq!((schedule.depth(), workers), (1, 1), "too deep: row order");
        assert_eq!(schedule.slots(), None);
    }

    /// The textbook serial Gauss–Seidel/SOR loop on `A = Qᵀ` from a
    /// normalized start: full rows skipping the diagonal, a whole-vector
    /// `normalize`, `prev` copied every sweep. Returns `(x, iterations,
    /// last delta)` at convergence.
    fn textbook_relax(
        a: &CsrMatrix,
        x0: &[f64],
        omega: f64,
        opts: &SolverOptions,
    ) -> (Vec<f64>, usize, f64) {
        let n = a.nrows();
        let mut x = x0.to_vec();
        for it in 1..=opts.max_iterations {
            let prev = x.clone();
            for i in 0..n {
                let (cols, vals) = a.row(i);
                let mut acc = 0.0;
                for (&c, v) in cols.iter().zip(vals) {
                    if c as usize != i {
                        acc += v * x[c as usize];
                    }
                }
                x[i] = (1.0 - omega) * x[i] + omega * (-acc / a.get(i, i));
            }
            normalize(&mut x);
            if it % opts.check_every == 0 {
                let delta = max_abs_delta(&prev, &x);
                if delta / max_entry(&x).max(1e-300) <= opts.tolerance {
                    return (x, it, delta);
                }
            }
        }
        panic!("textbook sweep did not converge");
    }

    #[test]
    fn relax_sweeps_equal_the_textbook_loop_at_every_worker_count() {
        // A small layered chain (no transitions inside a layer), swept with
        // its level schedule regardless of the width cutoff, and in row
        // order.
        let (layers, width) = (4, 30);
        let n = layers * width;
        let mut q = CooMatrix::new(n, n);
        let mut out = vec![0.0; n];
        let mut rate = |q: &mut CooMatrix, from: usize, to: usize, r: f64| {
            q.push(from, to, r);
            out[from] += r;
        };
        for m in 0..width {
            for l in 0..layers {
                let from = l * width + m;
                let to = if l + 1 < layers { from + width } else { (m + 1) % width };
                rate(&mut q, from, to, 0.5 + ((from * 7) % 11) as f64 / 4.0);
                rate(&mut q, from, ((l + 2) % layers) * width + (m * 5) % width, 0.3);
            }
        }
        for (i, &o) in out.iter().enumerate() {
            q.push(i, i, -o);
        }
        let q = CsrMatrix::from_coo(&q);
        let level = row_levels(&q);
        let depth = *level.iter().max().unwrap() as usize + 1;
        assert!((2..=layers).contains(&depth), "layers bound the schedule depth");
        let row_order = SweepSystem::new(&q, true, LevelSchedule::row_order(n)).unwrap();
        let leveled = SweepSystem::new(&q, true, LevelSchedule::group(&level, depth)).unwrap();
        let opts = SolverOptions { check_every: 3, ..Default::default() };
        // `sweep_stationary` normalizes the start vector before sweeping.
        let mut x0 = vec![1.0 / n as f64; n];
        normalize(&mut x0);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for omega in [1.0, 0.85] {
            let (x, iterations, delta) = textbook_relax(&q.transpose(), &x0, omega, &opts);
            let runs =
                std::iter::once((&row_order, 1)).chain([1, 2, 3, 4, 8].map(|w| (&leveled, w)));
            for (system, workers) in runs {
                let run = system.relax_sweeps(workers, x0.clone(), omega, &opts);
                let what = format!(
                    "omega {omega}, depth {}, {workers} workers",
                    system.schedule.depth()
                );
                assert!(run.converged, "{what}");
                assert_eq!(bits(&run.x), bits(&x), "{what}");
                assert_eq!(run.iterations, iterations, "{what}");
                assert_eq!(run.last_delta.to_bits(), delta.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn dense_solve_simple() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![3.0, 5.0];
        let x = dense_solve(a, b).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    /// Pseudo-random positive-and-noisy vector for the sub-slice tests.
    fn noisy_vector(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state =
                    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                // Mostly positive mass with occasional tiny negatives, like a
                // converged iterate.
                if u < 0.1 {
                    -1e-13 * u
                } else {
                    u
                }
            })
            .collect()
    }

    /// Partition boundaries that exercise the block-boundary edge cases:
    /// an empty leading sub-slice, cuts misaligned with the fixed blocks,
    /// and a short final piece.
    fn awkward_cuts(n: usize) -> Vec<usize> {
        let mut cuts = vec![0, 0]; // empty first sub-slice
        for c in [1, n / 3, n / 2, n.saturating_sub(1), n] {
            if *cuts.last().unwrap() <= c && c <= n {
                cuts.push(c);
            }
        }
        if *cuts.last().unwrap() != n {
            cuts.push(n);
        }
        cuts
    }

    #[test]
    fn normalize_composes_over_disjoint_sub_slices() {
        // Covers: empty sub-slice, last short block, and n smaller than any
        // realistic thread count (n = 1, 2, 3).
        for n in [1usize, 2, 3, 5, 63, 64, 65, 127, 130, 300] {
            let base = noisy_vector(n, 0x5eed ^ n as u64);
            let mut whole = base.clone();
            let whole_sum = normalize(&mut whole);

            let mut pieces = base.clone();
            let total = crate::par::blocked_sum(&pieces);
            assert_eq!(total.to_bits(), whole_sum.to_bits(), "n={n}");
            let mut rest = pieces.as_mut_slice();
            let cuts = awkward_cuts(n);
            let mut consumed = 0;
            for w in cuts.windows(2) {
                let (head, tail) = rest.split_at_mut(w[1] - consumed);
                scale_slice(head, total);
                rest = tail;
                consumed = w[1];
            }
            assert_eq!(pieces, whole, "sub-slice normalize must not change results, n={n}");
        }
    }

    #[test]
    fn sanitize_composes_over_disjoint_sub_slices() {
        for n in [1usize, 2, 5, 64, 65, 130] {
            let base = noisy_vector(n, 0xface ^ n as u64);
            let mut whole = base.clone();
            let ok_whole = sanitize_distribution(&mut whole, 1e-6);

            // Re-derive the same result through the sub-slice primitives.
            let mut pieces = base.clone();
            let cuts = awkward_cuts(n);
            let scale = {
                let mut m = 0.0f64;
                for w in cuts.windows(2) {
                    m = m.max(max_entry(&pieces[w[0]..w[1]]));
                }
                m.max(1e-300)
            };
            let mut ok = true;
            for w in cuts.windows(2) {
                ok &= clamp_negatives_slice(&mut pieces[w[0]..w[1]], 1e-6 * scale);
            }
            let total = crate::par::blocked_sum(&pieces);
            for w in cuts.windows(2) {
                scale_slice(&mut pieces[w[0]..w[1]], total);
            }
            assert_eq!(ok, ok_whole, "n={n}");
            assert_eq!(pieces, whole, "sub-slice sanitize must not change results, n={n}");
        }
    }

    #[test]
    fn sanitize_flags_genuinely_negative_entries() {
        let mut x = vec![0.5, -0.25, 0.75];
        assert!(!sanitize_distribution(&mut x, 1e-6));
        assert_eq!(x[1], 0.0);
        let mut tiny = vec![0.5, -1e-15, 0.5];
        assert!(sanitize_distribution(&mut tiny, 1e-6));
    }

    #[test]
    fn empty_slices_are_harmless() {
        assert_eq!(normalize(&mut []), 0.0);
        scale_slice(&mut [], 2.0);
        assert!(clamp_negatives_slice(&mut [], 1e-6));
        assert_eq!(max_entry(&[]), 0.0);
        assert!(sanitize_distribution(&mut [], 1e-6));
    }

    #[test]
    fn power_is_bit_identical_across_thread_counts() {
        let q = two_state(1.0, 4.0);
        let mut p = q.clone();
        p.scale(1.0 / 5.0);
        let mut coo = CooMatrix::new(2, 2);
        for (i, j, v) in p.iter() {
            coo.push(i, j, v);
        }
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let p = CsrMatrix::from_coo(&coo);
        let serial = {
            let opts = SolverOptions { threads: 1, ..Default::default() };
            power_stationary(&p, &[1.0, 0.0], &opts).unwrap()
        };
        for threads in [2usize, 4, 8] {
            let opts = SolverOptions { threads, ..Default::default() };
            let (pi, stats) = power_stationary(&p, &[1.0, 0.0], &opts).unwrap();
            assert_eq!(pi, serial.0, "threads={threads}");
            assert_eq!(stats.iterations, serial.1.iterations);
        }
    }

    #[test]
    fn five_state_birth_death_all_methods_agree() {
        // Birth-death chain with distinct rates; closed form via detailed balance.
        let n = 5;
        let birth = [1.0, 2.0, 3.0, 4.0];
        let death = [5.0, 4.0, 3.0, 2.0];
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, birth[i]);
            coo.push(i + 1, i, death[i]);
        }
        for i in 0..n {
            let mut out = 0.0;
            if i < n - 1 {
                out += birth[i];
            }
            if i > 0 {
                out += death[i - 1];
            }
            coo.push(i, i, -out);
        }
        let q = CsrMatrix::from_coo(&coo);
        let mut expect = vec![1.0; n];
        for i in 1..n {
            expect[i] = expect[i - 1] * birth[i - 1] / death[i - 1];
        }
        normalize(&mut expect);
        let (exact, _) = direct_stationary(&q).unwrap();
        for (a, b) in exact.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
        let qt = q.transpose();
        for m in [Method::Jacobi, Method::GaussSeidel, Method::Sor] {
            let opts = SolverOptions { relaxation: 1.2, ..Default::default() };
            let (pi, _) = stationary_iteration(&qt, &vec![1.0; n], m, &opts).unwrap();
            for (a, b) in pi.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-8, "method {m:?}");
            }
        }
    }
}
