//! Continuous-time Markov chains: construction, validation, steady-state and
//! transient solution, and reward evaluation.
//!
//! # Examples
//!
//! A repairable component with failure rate `λ = 1/MTTF` and repair rate
//! `μ = 1/MTTR` is the two-state chain whose availability is the stationary
//! probability of the *up* state:
//!
//! ```
//! use dtc_markov::ctmc::CtmcBuilder;
//!
//! let mttf = 1000.0;
//! let mttr = 10.0;
//! let mut b = CtmcBuilder::new(2);
//! b.rate(0, 1, 1.0 / mttf); // up -> down
//! b.rate(1, 0, 1.0 / mttr); // down -> up
//! let ctmc = b.build()?;
//! let pi = ctmc.steady_state()?;
//! let availability = pi[0];
//! assert!((availability - mttf / (mttf + mttr)).abs() < 1e-10);
//! # Ok::<(), dtc_markov::MarkovError>(())
//! ```

use crate::error::{MarkovError, Result};
use crate::solve::{
    direct_stationary, dot, power_stationary, sweep_stationary, Method, SolveStats,
    SolverOptions,
};
use crate::sparse::{CooMatrix, CsrMatrix};

/// Incremental builder for a CTMC generator matrix.
///
/// Only off-diagonal rates are supplied; diagonals are derived so that each
/// row sums to zero. Repeated `rate` calls for the same pair accumulate.
#[derive(Debug, Clone)]
pub struct CtmcBuilder {
    n: usize,
    coo: CooMatrix,
}

impl CtmcBuilder {
    /// Creates a builder for a chain with `n` states.
    pub fn new(n: usize) -> Self {
        CtmcBuilder { n, coo: CooMatrix::new(n, n) }
    }

    /// Pre-allocates space for `cap` transitions.
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        CtmcBuilder { n, coo: CooMatrix::with_capacity(n, n, cap) }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Adds `rate` to the transition `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`, if indices are out of bounds, or if the rate
    /// is not finite and positive.
    pub fn rate(&mut self, from: usize, to: usize, rate: f64) -> &mut Self {
        assert_ne!(from, to, "self-loops are not part of a CTMC generator");
        assert!(rate.is_finite() && rate > 0.0, "rate must be finite and positive, got {rate}");
        self.coo.push(from, to, rate);
        self
    }

    /// Finalizes the generator, filling diagonals with negated row sums.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] for a zero-state chain.
    pub fn build(&self) -> Result<Ctmc> {
        if self.n == 0 {
            return Err(MarkovError::Empty);
        }
        let mut coo = self.coo.clone();
        let mut row_sums = vec![0.0; self.n];
        for (r, _, v) in self.coo.iter() {
            row_sums[r] += v;
        }
        for (i, s) in row_sums.iter().enumerate() {
            if *s > 0.0 {
                coo.push(i, i, -s);
            }
        }
        let generator = CsrMatrix::from_coo(&coo);
        Ctmc::from_generator(generator)
    }
}

/// A continuous-time Markov chain held as a sparse infinitesimal generator.
#[derive(Debug, Clone)]
pub struct Ctmc {
    q: CsrMatrix,
    /// Transposed generator, materialized lazily for iterative solvers.
    exit_rates: Vec<f64>,
}

impl Ctmc {
    /// Wraps an existing generator matrix, validating generator structure
    /// (non-negative off-diagonals, rows summing to ~zero).
    pub fn from_generator(q: CsrMatrix) -> Result<Self> {
        let n = q.nrows();
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        if q.ncols() != n {
            return Err(MarkovError::NotSquare { nrows: n, ncols: q.ncols() });
        }
        let mut exit_rates = vec![0.0; n];
        for (i, exit_rate) in exit_rates.iter_mut().enumerate() {
            let (cols, vals) = q.row(i);
            let mut sum = 0.0;
            let mut mag = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                let j = *c as usize;
                if j == i {
                    if *v > 0.0 {
                        return Err(MarkovError::InvalidGenerator {
                            state: i,
                            detail: format!("positive diagonal {v}"),
                        });
                    }
                    *exit_rate = -*v;
                } else if *v < 0.0 {
                    return Err(MarkovError::InvalidGenerator {
                        state: i,
                        detail: format!("negative off-diagonal {v} to state {j}"),
                    });
                }
                sum += v;
                mag = f64::max(mag, v.abs());
            }
            if sum.abs() > 1e-9 * mag.max(1.0) {
                return Err(MarkovError::InvalidGenerator {
                    state: i,
                    detail: format!("row sums to {sum:.3e}, expected 0"),
                });
            }
        }
        Ok(Ctmc { q, exit_rates })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.q.nrows()
    }

    /// Borrow the generator matrix.
    pub fn generator(&self) -> &CsrMatrix {
        &self.q
    }

    /// Exit rate (total outgoing rate) of each state.
    pub fn exit_rates(&self) -> &[f64] {
        &self.exit_rates
    }

    /// The uniformization rate `Λ ≥ max exit rate` (with 2% headroom so that
    /// every state keeps a self-loop in the uniformized DTMC, which avoids
    /// periodicity artifacts in power iteration).
    pub fn uniformization_rate(&self) -> f64 {
        let m = self.exit_rates.iter().cloned().fold(0.0, f64::max);
        if m == 0.0 {
            1.0
        } else {
            m * 1.02
        }
    }

    /// The uniformized probability matrix `P = I + Q/Λ`.
    pub fn uniformized(&self, lambda: f64) -> CsrMatrix {
        crate::instrument::count_uniformized_build();
        let n = self.num_states();
        let mut coo = CooMatrix::with_capacity(n, n, self.q.nnz() + n);
        for (i, j, v) in self.q.iter() {
            coo.push(i, j, v / lambda);
        }
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Steady-state distribution with the default method (Gauss–Seidel with
    /// a direct fallback for small chains).
    ///
    /// # Errors
    ///
    /// Propagates solver failures; see [`MarkovError`].
    pub fn steady_state(&self) -> Result<Vec<f64>> {
        Ok(self.steady_state_with(Method::default(), &SolverOptions::default())?.0)
    }

    /// Steady-state distribution with an explicit method and options.
    ///
    /// Records a `stationary_solve` stage span and the iteration count into
    /// the [`dtc_obs::global`] registry (see [`crate::instrument`]).
    pub fn steady_state_with(
        &self,
        method: Method,
        opts: &SolverOptions,
    ) -> Result<(Vec<f64>, SolveStats)> {
        let _span = dtc_obs::stage_span("stationary_solve");
        let n = self.num_states();
        // Schedule depth of a sweep method's solve (1 = row order).
        let mut levels = None;
        let result = match method {
            Method::Direct => direct_stationary(&self.q),
            Method::Power => {
                let lambda = self.uniformization_rate();
                let p = self.uniformized(lambda);
                power_stationary(&p, &vec![1.0 / n as f64; n], opts)
            }
            Method::Jacobi | Method::GaussSeidel | Method::Sor => {
                match sweep_stationary(&self.q, true, &vec![1.0 / n as f64; n], method, opts) {
                    Ok((x, stats, depth)) => {
                        levels = Some(depth);
                        Ok((x, stats))
                    }
                    // Gauss–Seidel can stall on nearly-completely-decomposable
                    // stiff chains; fall back to the exact solver when the
                    // chain is small enough for O(n^3) to be bearable.
                    Err(MarkovError::NotConverged { .. }) if n <= 4096 => {
                        direct_stationary(&self.q)
                    }
                    Err(e) => Err(e),
                }
            }
        };
        if let Ok((_, stats)) = &result {
            crate::instrument::count_stationary_iterations(stats.iterations as u64);
            dtc_obs::trace::attr_int("states", n as i64);
            dtc_obs::trace::attr_int("iterations", stats.iterations as i64);
            dtc_obs::trace::attr_float("residual", stats.residual);
            dtc_obs::trace::attr_str("method", &stats.method.to_string());
            if !matches!(method, Method::Direct) {
                dtc_obs::trace::attr_int("threads", opts.resolved_threads() as i64);
            }
            if let Some(levels) = levels {
                dtc_obs::trace::attr_int("levels", levels as i64);
            }
        }
        result
    }

    /// Transient state distribution at time `t` from initial distribution
    /// `pi0`, by uniformization:
    /// `π(t) = Σ_k Poisson(Λt; k) · π0 Pᵏ` with adaptive truncation.
    ///
    /// A one-point [`crate::curve::uniformized_pass`] — so there is exactly
    /// one march implementation, and per-point results are bit-identical to
    /// curve results by construction.
    ///
    /// # Errors
    ///
    /// Fails on negative or non-finite `t` or mismatched `pi0` length.
    pub fn transient(&self, pi0: &[f64], t: f64) -> Result<Vec<f64>> {
        let mut out =
            crate::curve::uniformized_pass(self, pi0, std::slice::from_ref(&t), &[], &[])?;
        Ok(out.distributions.pop().expect("one requested time point"))
    }

    /// Transient distributions at every time in `times` from **one**
    /// uniformization pass: the matrix `P = I + Q/Λ` is built once and the
    /// power sequence `π0·Pᵏ` marched once, with each time point's
    /// Poisson-weighted sum accumulated along the way
    /// (see [`crate::curve::uniformized_pass`]).
    ///
    /// Times may be unsorted, duplicated, or zero; results come back in
    /// caller order, bit-identical to per-point [`Ctmc::transient`] calls.
    pub fn transient_curve(&self, pi0: &[f64], times: &[f64]) -> Result<Vec<Vec<f64>>> {
        Ok(crate::curve::uniformized_pass(self, pi0, times, &[], &[])?.distributions)
    }

    /// Reward curve `(π(t)·r)` at each time in `times`, starting from
    /// `pi0` — e.g. point availability with an up-state indicator reward.
    ///
    /// Evaluated through [`Ctmc::transient_curve`], so the whole curve
    /// costs one uniformization pass instead of one per point.
    pub fn transient_reward_curve(
        &self,
        pi0: &[f64],
        times: &[f64],
        reward: &[f64],
    ) -> Result<Vec<f64>> {
        let n = self.num_states();
        if reward.len() != n {
            return Err(MarkovError::DimensionMismatch { expected: n, got: reward.len() });
        }
        Ok(self.transient_curve(pi0, times)?.iter().map(|pi| dot(pi, reward)).collect())
    }

    /// Reward curve `(π(t)·r)` by **projection**: the march accumulates the
    /// scalars `r·π0Pᵏ` directly instead of materializing a distribution
    /// per time point, so memory stays O(states) no matter how many times
    /// are requested — the mode for thousand-point year-horizon curves.
    ///
    /// Agrees with [`Ctmc::transient_reward_curve`] to ≤ 1e-12 (projection
    /// skips the final defensive renormalization of each distribution,
    /// whose correction is bounded by the Poisson truncation mass), and is
    /// bit-identical across thread counts (`threads`: 0 = one per core).
    pub fn transient_reward_curve_projected(
        &self,
        pi0: &[f64],
        times: &[f64],
        reward: &[f64],
        threads: usize,
    ) -> Result<Vec<f64>> {
        let opts = crate::curve::PassOptions { threads, point_reward: Some(reward) };
        Ok(crate::curve::uniformized_pass_with(self, pi0, times, &[], &[], &opts)?
            .point_rewards)
    }

    /// Expected steady-state reward `Σ πᵢ rᵢ` for a reward vector `r`.
    pub fn steady_reward(&self, reward: &[f64]) -> Result<f64> {
        let n = self.num_states();
        if reward.len() != n {
            return Err(MarkovError::DimensionMismatch { expected: n, got: reward.len() });
        }
        let pi = self.steady_state()?;
        Ok(dot(&pi, reward))
    }

    /// Steady-state probability of the set of states selected by `pred`.
    pub fn steady_probability(&self, pred: impl Fn(usize) -> bool) -> Result<f64> {
        let pi = self.steady_state()?;
        Ok(pi.iter().enumerate().filter(|(i, _)| pred(*i)).map(|(_, p)| p).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repairable(mttf: f64, mttr: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0 / mttf);
        b.rate(1, 0, 1.0 / mttr);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_generator() {
        let c = repairable(100.0, 2.0);
        assert_eq!(c.num_states(), 2);
        assert!((c.generator().get(0, 0) + 0.01).abs() < 1e-15);
        assert_eq!(c.exit_rates()[1], 0.5);
    }

    #[test]
    fn steady_state_closed_form() {
        let c = repairable(1000.0, 10.0);
        let pi = c.steady_state().unwrap();
        let a = 1000.0 / 1010.0;
        assert!((pi[0] - a).abs() < 1e-10);
    }

    #[test]
    fn all_methods_agree() {
        let c = repairable(4000.0, 1.0);
        let (exact, _) =
            c.steady_state_with(Method::Direct, &SolverOptions::default()).unwrap();
        for m in [Method::Power, Method::Jacobi, Method::GaussSeidel, Method::Sor] {
            let opts =
                SolverOptions { relaxation: 1.05, tolerance: 1e-14, ..Default::default() };
            let (pi, _) = c.steady_state_with(m, &opts).unwrap();
            for (a, b) in pi.iter().zip(&exact) {
                assert!((a - b).abs() < 1e-8, "{m:?}: {pi:?} vs {exact:?}");
            }
        }
    }

    #[test]
    fn transient_matches_closed_form() {
        // For the 2-state chain: p_up(t) = A + (1-A) e^{-(λ+μ)t} starting up.
        let lam: f64 = 0.2;
        let mu: f64 = 0.8;
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, lam);
        b.rate(1, 0, mu);
        let c = b.build().unwrap();
        let a = mu / (lam + mu);
        for t in [0.0, 0.1, 0.5, 1.0, 3.0, 10.0] {
            let pi = c.transient(&[1.0, 0.0], t).unwrap();
            let expect = a + (1.0 - a) * (-(lam + mu) * t).exp();
            assert!((pi[0] - expect).abs() < 1e-9, "t={t}: got {} expect {expect}", pi[0]);
        }
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let c = repairable(10.0, 1.0);
        let pi_t = c.transient(&[0.0, 1.0], 1e4).unwrap();
        let pi = c.steady_state().unwrap();
        for (a, b) in pi_t.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn reward_curve_monotone_for_repairable_start_up() {
        let c = repairable(100.0, 5.0);
        let times = [0.0, 1.0, 10.0, 100.0, 1000.0];
        let curve = c.transient_reward_curve(&[1.0, 0.0], &times, &[1.0, 0.0]).unwrap();
        assert!((curve[0] - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "availability should decay: {curve:?}");
        }
    }

    #[test]
    fn steady_reward_and_probability() {
        let c = repairable(9.0, 1.0);
        let r = c.steady_reward(&[1.0, 0.0]).unwrap();
        assert!((r - 0.9).abs() < 1e-10);
        let p = c.steady_probability(|i| i == 1).unwrap();
        assert!((p - 0.1).abs() < 1e-10);
    }

    #[test]
    fn invalid_generators_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, -1.0); // negative off-diagonal
        let q = CsrMatrix::from_coo(&coo);
        assert!(matches!(Ctmc::from_generator(q), Err(MarkovError::InvalidGenerator { .. })));

        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0); // row does not sum to zero
        let q = CsrMatrix::from_coo(&coo);
        assert!(matches!(Ctmc::from_generator(q), Err(MarkovError::InvalidGenerator { .. })));
    }

    #[test]
    fn zero_state_chain_rejected() {
        assert!(matches!(CtmcBuilder::new(0).build(), Err(MarkovError::Empty)));
    }

    #[test]
    fn negative_time_rejected() {
        let c = repairable(1.0, 1.0);
        assert!(matches!(c.transient(&[1.0, 0.0], -0.5), Err(MarkovError::NegativeTime(_))));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn builder_rejects_self_loop() {
        CtmcBuilder::new(2).rate(0, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_rejects_nonpositive_rate() {
        CtmcBuilder::new(2).rate(0, 1, 0.0);
    }

    #[test]
    fn absorbing_state_allowed_in_builder_transient() {
        // Absorbing chains are fine for transient analysis.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0);
        let c = b.build().unwrap();
        let pi = c.transient(&[1.0, 0.0], 2.0).unwrap();
        assert!((pi[1] - (1.0 - (-2.0f64).exp())).abs() < 1e-9);
    }
}
