//! Property tests for the deterministic parallel kernels (`dtc_markov::par`).
//!
//! The contract under test is **bit-identity**, not closeness: for random
//! CTMCs — including unsorted/duplicate/zero time points and chains large
//! enough to put many elements in each fixed block — every solver output at
//! `threads ∈ {1, 2, 4, 8}` (plus whatever `DTC_TEST_THREADS` adds; CI runs
//! a 1/2/8 matrix) must equal the serial path to the last bit. Only the
//! reward-projection mode is held to a 1e-12 tolerance against the
//! full-vector mode, because projection intentionally skips the final
//! defensive renormalization.
//!
//! Gauss–Seidel and SOR are checked on layered chains wide enough to take
//! the level-scheduled sweep and on a birth–death chain too deep for it;
//! the `levels` attribute of the `stationary_solve` span shows which path
//! ran.
//!
//! Seeded SplitMix64 keeps cases deterministic across runs (the external
//! `proptest` crate is unavailable offline).

use dtc_markov::curve::{uniformized_pass_with, PassOptions, PassOutput};
use dtc_markov::{dot, par, Ctmc, CtmcBuilder, Method, SolveStats, SolverOptions};
use dtc_obs::trace::{self, AttrValue, TraceContext, TraceId};

/// Deterministic pseudo-random stream (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    /// A random irreducible CTMC: a directed cycle through all states plus
    /// random extra transitions. Alternates between small chains (states
    /// outnumbered by threads — each block is a single element) and chains
    /// well past `par::MAX_BLOCKS` states (multi-element blocks, a short
    /// last block).
    fn ctmc(&mut self) -> Ctmc {
        let n = if self.next_u64() & 1 == 0 {
            self.usize_in(2, 6)
        } else {
            self.usize_in(par::MAX_BLOCKS + 1, 3 * par::MAX_BLOCKS + 5)
        };
        let mut b = CtmcBuilder::new(n);
        for i in 0..n {
            b.rate(i, (i + 1) % n, self.f64_in(0.05, 5.0));
        }
        for _ in 0..self.usize_in(0, 2 * n) {
            let from = self.usize_in(0, n - 1);
            let to = self.usize_in(0, n - 1);
            if from != to {
                b.rate(from, to, self.f64_in(0.01, 10.0));
            }
        }
        b.build().unwrap()
    }

    /// A random irreducible CTMC of 3–5 layers of 1,100–1,500 states with
    /// no transition inside a layer. Every row's lower neighbours then sit
    /// in lower layers, so the Gauss–Seidel level schedule is at most one
    /// level per layer: over a thousand rows wide, which takes the
    /// level-scheduled sweep at two or more threads. Rates stay within two
    /// decades, so the sweeps converge in few iterations even in a debug
    /// build.
    fn layered_ctmc(&mut self) -> Ctmc {
        let layers = self.usize_in(3, 5);
        let width = self.usize_in(1_100, 1_500);
        self.layered_of(layers, width)
    }

    /// A layered CTMC like [`Gen::layered_ctmc`] of at least
    /// [`LARGE_STATES`] states.
    fn large_layered_ctmc(&mut self) -> Ctmc {
        let layers = self.usize_in(3, 5);
        let width = self.usize_in(LARGE_STATES.div_ceil(layers), 1_500);
        self.layered_of(layers, width)
    }

    /// A random irreducible CTMC of `layers` layers of `width` states,
    /// with no transition inside a layer.
    fn layered_of(&mut self, layers: usize, width: usize) -> Ctmc {
        let n = layers * width;
        let mut b = CtmcBuilder::new(n);
        // A cycle through every state that changes layer on each step.
        for m in 0..width {
            for l in 0..layers {
                let to = if l + 1 < layers { (l + 1) * width + m } else { (m + 1) % width };
                b.rate(l * width + m, to, self.f64_in(0.5, 5.0));
            }
        }
        for from in 0..n {
            for _ in 0..2 {
                let layer = (from / width + self.usize_in(1, layers - 1)) % layers;
                let to = layer * width + self.usize_in(0, width - 1);
                b.rate(from, to, self.f64_in(0.1, 5.0));
            }
        }
        b.build().unwrap()
    }

    /// A random initial distribution (a point mass half the time).
    fn pi0(&mut self, n: usize) -> Vec<f64> {
        if self.next_u64() & 1 == 0 {
            let mut pi0 = vec![0.0; n];
            pi0[self.usize_in(0, n - 1)] = 1.0;
            pi0
        } else {
            let raw: Vec<f64> = (0..n).map(|_| self.f64_in(0.0, 1.0)).collect();
            let sum: f64 = raw.iter().sum();
            raw.iter().map(|x| x / sum).collect()
        }
    }

    /// An unsorted time grid with duplicates and an explicit zero.
    fn times(&mut self) -> Vec<f64> {
        let mut times: Vec<f64> =
            (0..self.usize_in(3, 9)).map(|_| self.f64_in(0.0, 50.0)).collect();
        times.push(0.0);
        let dup = times[self.usize_in(0, times.len() - 1)];
        times.push(dup);
        times
    }
}

const CASES: usize = 12;

/// Fewest states of the large-chain cases: enough rows that
/// `par::workers_for` lets eight workers in, so every thread count of the
/// fixed set takes the parallel path rather than the serial block loop.
const LARGE_STATES: usize = 4_096;

/// Thread counts under test: the fixed {1, 2, 4, 8} set plus anything the
/// CI matrix injects via `DTC_TEST_THREADS` (comma-separated).
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, 8];
    if let Ok(raw) = std::env::var("DTC_TEST_THREADS") {
        for part in raw.split(',') {
            if let Ok(v) = part.trim().parse::<usize>() {
                if v > 0 && !counts.contains(&v) {
                    counts.push(v);
                }
            }
        }
    }
    counts
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_pass_bits_equal(a: &PassOutput, b: &PassOutput, context: &str) {
    assert_eq!(a.distributions.len(), b.distributions.len(), "{context}");
    for (i, (da, db)) in a.distributions.iter().zip(&b.distributions).enumerate() {
        assert_eq!(bits(da), bits(db), "{context}: distribution {i} differs");
    }
    assert_eq!(bits(&a.cumulative), bits(&b.cumulative), "{context}: cumulative differs");
    assert_eq!(
        bits(&a.point_rewards),
        bits(&b.point_rewards),
        "{context}: point_rewards differs"
    );
    assert_eq!(a.stats, b.stats, "{context}: work count differs");
}

#[test]
fn uniformized_pass_bit_identical_across_thread_counts() {
    let counts = thread_counts();
    let mut g = Gen(0x9A12_11E7);
    for case in 0..CASES {
        let c = g.ctmc();
        let n = c.num_states();
        let pi0 = g.pi0(n);
        let times = g.times();
        let horizons: Vec<f64> = (0..3).map(|_| g.f64_in(0.1, 60.0)).collect();
        let reward: Vec<f64> =
            (0..n).map(|i| if i < n.div_ceil(2) { 1.0 } else { 0.0 }).collect();
        let serial = uniformized_pass_with(
            &c,
            &pi0,
            &times,
            &horizons,
            &reward,
            &PassOptions { threads: 1, ..Default::default() },
        )
        .unwrap();
        for &threads in &counts[1..] {
            let parallel = uniformized_pass_with(
                &c,
                &pi0,
                &times,
                &horizons,
                &reward,
                &PassOptions { threads, ..Default::default() },
            )
            .unwrap();
            assert_pass_bits_equal(
                &serial,
                &parallel,
                &format!("case {case} (n = {n}), threads = {threads}"),
            );
        }
    }
}

#[test]
fn projection_bit_identical_across_threads_and_close_to_full_vector() {
    let counts = thread_counts();
    let mut g = Gen(0x0BAD_F00D);
    for case in 0..CASES {
        let c = g.ctmc();
        let n = c.num_states();
        let pi0 = g.pi0(n);
        let times = g.times();
        let reward: Vec<f64> = (0..n).map(|_| g.f64_in(0.0, 2.0)).collect();
        let serial = uniformized_pass_with(
            &c,
            &pi0,
            &times,
            &[],
            &[],
            &PassOptions { threads: 1, point_reward: Some(&reward) },
        )
        .unwrap();
        assert!(serial.distributions.is_empty(), "case {case}: projection keeps O(n) memory");
        assert_eq!(serial.point_rewards.len(), times.len());
        for &threads in &counts[1..] {
            let parallel = uniformized_pass_with(
                &c,
                &pi0,
                &times,
                &[],
                &[],
                &PassOptions { threads, point_reward: Some(&reward) },
            )
            .unwrap();
            assert_pass_bits_equal(
                &serial,
                &parallel,
                &format!("case {case} (n = {n}), threads = {threads}"),
            );
        }
        // Projection vs. full-vector mode: ≤ 1e-12 (projection skips the
        // final renormalization, bounded by the truncation mass).
        let full = uniformized_pass_with(
            &c,
            &pi0,
            &times,
            &[],
            &[],
            &PassOptions { threads: 1, ..Default::default() },
        )
        .unwrap();
        for (i, (p, d)) in serial.point_rewards.iter().zip(&full.distributions).enumerate() {
            let want = dot(d, &reward);
            assert!(
                (p - want).abs() <= 1e-12,
                "case {case}, point {i} (t = {}): projected {p} vs full-vector {want}",
                times[i]
            );
        }
    }
}

#[test]
fn power_method_bit_identical_across_thread_counts() {
    let counts = thread_counts();
    let mut g = Gen(0x50_0E_12);
    for case in 0..CASES {
        let c = g.ctmc();
        let serial = c
            .steady_state_with(
                Method::Power,
                &SolverOptions { threads: 1, ..Default::default() },
            )
            .unwrap();
        for &threads in &counts[1..] {
            let opts = SolverOptions { threads, ..Default::default() };
            let parallel = c.steady_state_with(Method::Power, &opts).unwrap();
            assert_eq!(
                bits(&serial.0),
                bits(&parallel.0),
                "case {case}, threads = {threads}: stationary vector differs"
            );
            assert_eq!(serial.1.iterations, parallel.1.iterations, "case {case}");
        }
    }
}

#[test]
fn spmv_and_dot_kernels_bit_identical_on_generators() {
    let counts = thread_counts();
    let mut g = Gen(0x5EED_CAFE);
    for case in 0..CASES {
        let c = g.ctmc();
        let n = c.num_states();
        let q = c.generator();
        let x = g.pi0(n);
        let mut serial = vec![0.0; n];
        // Generators have negative diagonals: the kernel contract must not
        // depend on sign.
        q.mul_vec_into(&x, &mut serial);
        let r: Vec<f64> = (0..n).map(|_| g.f64_in(-1.0, 1.0)).collect();
        let dot1 = par::blocked_dot(&x, &r, 1);
        for &threads in &counts {
            let mut parallel = vec![f64::NAN; n];
            par::mul_vec_into(q, &x, &mut parallel, threads);
            assert_eq!(
                bits(&serial),
                bits(&parallel),
                "case {case} (n = {n}), threads = {threads}: SpMV differs"
            );
            assert_eq!(
                dot1.to_bits(),
                par::blocked_dot(&x, &r, threads).to_bits(),
                "case {case}, threads = {threads}: blocked dot differs"
            );
        }
    }
}

/// Solves under a fresh trace; returns the solution and the `levels`
/// attribute of the `stationary_solve` span (the sweep's schedule depth,
/// 1 for the row-order sweep).
fn solve_traced(
    c: &Ctmc,
    method: Method,
    opts: &SolverOptions,
) -> ((Vec<f64>, SolveStats), i64) {
    let ctx = TraceContext::new(TraceId::generate());
    let solution = {
        let _installed = trace::install(&ctx);
        c.steady_state_with(method, opts).unwrap()
    };
    let snapshot = ctx.snapshot();
    let span = snapshot
        .spans
        .iter()
        .find(|s| s.name == "stationary_solve")
        .expect("the solve records a stationary_solve span");
    let int = |key: &str| {
        span.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::Int(i) if k == key => Some(*i),
            _ => None,
        })
    };
    assert_eq!(int("threads"), Some(opts.resolved_threads() as i64));
    (solution, int("levels").expect("sweep solves record their schedule depth"))
}

/// Gauss–Seidel and SOR results at every thread count must equal the
/// serial row-order sweep bit for bit, with the same iteration count.
fn assert_sweeps_bit_identical(c: &Ctmc, method: Method, relaxation: f64, scheduled: bool) {
    let n = c.num_states();
    let opts = |threads| SolverOptions { threads, relaxation, ..Default::default() };
    let (serial, levels) = solve_traced(c, method, &opts(1));
    assert_eq!(serial.1.method, method, "n = {n}: the sweep converged without a fallback");
    assert_eq!(levels, 1, "one thread sweeps in row order");
    for &threads in &thread_counts()[1..] {
        let (parallel, levels) = solve_traced(c, method, &opts(threads));
        let context = format!("{method} (ω = {relaxation}), n = {n}, threads = {threads}");
        if scheduled {
            assert!(levels > 1, "{context}: expected the level-scheduled sweep");
        } else {
            assert_eq!(levels, 1, "{context}: expected the row-order sweep");
        }
        assert_eq!(bits(&serial.0), bits(&parallel.0), "{context}: stationary vector differs");
        assert_eq!(serial.1.iterations, parallel.1.iterations, "{context}: iterations differ");
        assert_eq!(serial.1.residual.to_bits(), parallel.1.residual.to_bits(), "{context}");
    }
}

#[test]
fn gauss_seidel_and_sor_bit_identical_across_thread_counts() {
    let mut g = Gen(0x6A55_5E1D);
    for _ in 0..3 {
        let c = g.layered_ctmc();
        assert_sweeps_bit_identical(&c, Method::GaussSeidel, 1.0, true);
        assert_sweeps_bit_identical(&c, Method::Sor, 0.85, true);
    }
}

#[test]
fn deep_schedule_falls_back_to_row_order_and_still_matches() {
    // A birth–death chain: every state depends on the one before it, so
    // the schedule is as deep as the chain and the sweep stays in row
    // order at every thread count. Births outpace deaths a hundredfold, so
    // the mass piles up at the top and the sweep converges in about a
    // hundred iterations.
    let n = 5_000;
    let mut b = CtmcBuilder::new(n);
    for i in 0..n - 1 {
        b.rate(i, i + 1, 100.0);
        b.rate(i + 1, i, 1.0);
    }
    let c = b.build().unwrap();
    assert_sweeps_bit_identical(&c, Method::GaussSeidel, 1.0, false);
}

/// Runs one uniformized pass under a fresh trace; returns its output and
/// the `workers` attribute of the `march` span (how many workers the
/// march actually fanned out over).
fn pass_traced(
    c: &Ctmc,
    pi0: &[f64],
    times: &[f64],
    horizons: &[f64],
    reward: &[f64],
    options: &PassOptions<'_>,
) -> (PassOutput, i64) {
    let ctx = TraceContext::new(TraceId::generate());
    let out = {
        let _installed = trace::install(&ctx);
        uniformized_pass_with(c, pi0, times, horizons, reward, options).unwrap()
    };
    let snapshot = ctx.snapshot();
    let span = snapshot.spans.iter().find(|s| s.name == "march").expect("the pass marches");
    let workers = span.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Int(i) if k == "workers" => Some(*i),
        _ => None,
    });
    (out, workers.expect("the march records its workers"))
}

/// The small-chain cases above run the serial block loop at every thread
/// count, since `par::workers_for` gives a chain of under 1,024 states a
/// single worker. Here chains of at least [`LARGE_STATES`] states take
/// the parallel path at every thread count ≥ 2: the pipelined march
/// (SpMV, dot partials and axpy blocks in one scope, then the swap) in
/// full-vector and projection modes, the power method, and the SpMV and
/// dot kernels must all equal the serial bits.
#[test]
fn large_chains_fan_out_and_stay_bit_identical() {
    let counts = thread_counts();
    let mut g = Gen(0x1A26_E5EE);
    for case in 0..2 {
        let c = g.large_layered_ctmc();
        let n = c.num_states();
        assert!(n >= LARGE_STATES, "case {case}: n = {n}");
        let pi0 = g.pi0(n);
        let times = g.times();
        let horizons: Vec<f64> = (0..3).map(|_| g.f64_in(0.1, 60.0)).collect();
        let reward: Vec<f64> = (0..n).map(|_| g.f64_in(0.0, 2.0)).collect();

        for projected in [false, true] {
            let options = |threads| PassOptions {
                threads,
                point_reward: projected.then_some(&reward[..]),
            };
            let run =
                |threads| pass_traced(&c, &pi0, &times, &horizons, &reward, &options(threads));
            let (serial, workers) = run(1);
            assert_eq!(workers, 1, "case {case}: one thread marches serially");
            for &threads in &counts[1..] {
                let (parallel, workers) = run(threads);
                let context = format!(
                    "case {case} (n = {n}), projected = {projected}, threads = {threads}"
                );
                assert!(
                    (2..=threads as i64).contains(&workers),
                    "{context}: the march ran on {workers} workers"
                );
                assert_pass_bits_equal(&serial, &parallel, &context);
            }
        }

        let power = |threads| {
            c.steady_state_with(Method::Power, &SolverOptions { threads, ..Default::default() })
                .unwrap()
        };
        let serial = power(1);
        for &threads in &counts[1..] {
            let parallel = power(threads);
            let context = format!("case {case} (n = {n}), threads = {threads}");
            assert_eq!(bits(&serial.0), bits(&parallel.0), "{context}: power vector differs");
            assert_eq!(serial.1.iterations, parallel.1.iterations, "{context}");
        }

        let q = c.generator();
        let x = g.pi0(n);
        let r: Vec<f64> = (0..n).map(|_| g.f64_in(-1.0, 1.0)).collect();
        let mut spmv = vec![0.0; n];
        q.mul_vec_into(&x, &mut spmv);
        let dot1 = par::blocked_dot(&x, &r, 1);
        for &threads in &counts {
            let mut parallel = vec![f64::NAN; n];
            par::mul_vec_into(q, &x, &mut parallel, threads);
            let context = format!("case {case} (n = {n}), threads = {threads}");
            assert_eq!(bits(&spmv), bits(&parallel), "{context}: SpMV differs");
            assert_eq!(
                dot1.to_bits(),
                par::blocked_dot(&x, &r, threads).to_bits(),
                "{context}: blocked dot differs"
            );
        }
    }
}
