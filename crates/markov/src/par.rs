//! Deterministic parallel kernels for the solver hot path.
//!
//! Every kernel here honors one contract: **the thread count can never
//! change a single output bit.** Three rules enforce it:
//!
//! * Work is partitioned into **fixed row blocks** whose boundaries depend
//!   only on the problem size — [`num_blocks`]`(n) = min(n, 64)` blocks,
//!   block `i` covering rows `i·n/nb .. (i+1)·n/nb` — never on the thread
//!   count.
//! * Each block writes its own **disjoint output slice**, so no `f64` is
//!   ever touched by two workers and no store is ever racy.
//! * Reductions (sums, dot products) accumulate serially *within* a block
//!   and combine the per-block partials in **ascending block order** on the
//!   calling thread, so the f64 summation order is a function of `n` alone.
//!
//! Threads only decide *which worker* runs a block; the arithmetic per
//! element is identical at `threads = 1` and `threads = 64`. The seeded
//! harness in `crates/markov/tests/par_props.rs` pins this bit-for-bit.
//!
//! Scoped `std::thread` workers are used — the workspace builds offline,
//! so rayon is unavailable by design (see `crates/shims/`). A scope is
//! spawned per kernel call (or per march step in
//! [`crate::curve::uniformized_pass_with`], or once per solve for the
//! level-scheduled Gauss–Seidel sweeps in [`crate::solve`], whose workers
//! meet at a spin-then-yield barrier between levels). One rule,
//! `workers_for`, sizes every fan-out: no worker gets fewer than
//! `MIN_ROWS_PER_WORKER` rows, so spawn cost only meets the large
//! matrices it amortizes over, and a small chain (or `threads <= 1`)
//! takes a spawn-free serial path through the *same* block loop.

use crate::sparse::CsrMatrix;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the number of row blocks. 64 blocks keep every core of
/// any realistic machine busy while the per-block slices stay large enough
/// to amortize scheduling.
pub const MAX_BLOCKS: usize = 64;

/// Number of fixed blocks for a vector of `len` elements:
/// `min(len, MAX_BLOCKS)` — every block is non-empty.
pub fn num_blocks(len: usize) -> usize {
    len.min(MAX_BLOCKS)
}

/// The fixed block boundaries for a vector of `len` elements. Depends only
/// on `len`: block `i` is `i·len/nb .. (i+1)·len/nb`.
pub fn block_ranges(len: usize) -> Vec<Range<usize>> {
    let nb = num_blocks(len);
    (0..nb).map(|i| (i * len / nb)..((i + 1) * len / nb)).collect()
}

/// Resolves a thread-count knob: `0` becomes one thread per available
/// core, anything else passes through.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        threads
    }
}

/// Fewest rows a worker must get before a kernel fans out to it; smaller
/// problems get fewer workers, down to the serial path. Measured on a
/// 2-vCPU VM for the level-scheduled Gauss–Seidel sweep (where the rows
/// are those of an average level), two workers against the row-order
/// sweep: random layered chains of 65,536 states break even at about 50
/// rows per worker per level and gain 15–25 % from 128 up; the 4,350-state
/// search7 `aa` tier (22 levels, ~99 rows per worker) loses 25 %; Fig. 7
/// (126,168 states, 29 levels, ~2,175 rows per worker) gains 1.4–1.7×.
/// 512 sits well clear of every losing point, leaving room for the
/// costlier barriers of wider machines.
pub(crate) const MIN_ROWS_PER_WORKER: usize = 512;

/// Workers for a kernel over `rows` rows on a budget of `threads` (0 = one
/// per core): at most the budget, at most one per
/// [`MIN_ROWS_PER_WORKER`] rows, at least one. Only *how many* workers run
/// the fixed blocks depends on it, never the blocks themselves, so it can
/// not change a result.
pub(crate) fn workers_for(rows: usize, threads: usize) -> usize {
    resolve_threads(threads).min(rows / MIN_ROWS_PER_WORKER).max(1)
}

/// Splits `v` into its fixed blocks as `(start_index, sub_slice)` pairs —
/// the disjoint write targets handed to workers.
pub(crate) fn split_blocks(v: &mut [f64]) -> Vec<(usize, &mut [f64])> {
    let ranges = block_ranges(v.len());
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest = v;
    let mut consumed = 0;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.end - consumed);
        out.push((r.start, head));
        rest = tail;
        consumed = r.end;
    }
    out
}

/// One unit of deterministic work: reads shared inputs, writes a slice (or
/// scalar slot) no other job touches.
pub(crate) enum Job<'a> {
    /// `out[d] = Σ_j A[start_row + d][j] · x[j]` — one row block of a
    /// matrix–vector product.
    MulVec { a: &'a CsrMatrix, x: &'a [f64], start_row: usize, out: &'a mut [f64] },
    /// `out[d] += wk · src[d]` — one block of a time point's
    /// Poisson-weighted accumulation.
    Axpy { wk: f64, src: &'a [f64], out: &'a mut [f64] },
    /// `*out = Σ_d a[d] · b[d]` — one block's dot-product partial, combined
    /// in block order by the caller.
    DotPartial { a: &'a [f64], b: &'a [f64], out: &'a mut f64 },
}

impl Job<'_> {
    fn run(self) {
        match self {
            Job::MulVec { a, x, start_row, out } => {
                for (d, slot) in out.iter_mut().enumerate() {
                    let (cols, vals) = a.row(start_row + d);
                    let mut acc = 0.0;
                    for (c, v) in cols.iter().zip(vals) {
                        acc += v * x[*c as usize];
                    }
                    *slot = acc;
                }
            }
            Job::Axpy { wk, src, out } => {
                for (o, s) in out.iter_mut().zip(src) {
                    *o += wk * s;
                }
            }
            Job::DotPartial { a, b, out } => {
                *out = a.iter().zip(b).map(|(x, y)| x * y).sum();
            }
        }
    }
}

/// Runs every job exactly once, fanned out over at most `workers` scoped
/// workers (callers size it with [`workers_for`]). Job-to-worker
/// assignment is round-robin, but since jobs write disjoint targets the
/// assignment cannot affect any result — only the wall clock.
pub(crate) fn run_jobs(jobs: Vec<Job<'_>>, workers: usize) {
    let workers = workers.min(jobs.len()).max(1);
    if workers == 1 {
        for job in jobs {
            job.run();
        }
        return;
    }
    let mut buckets: Vec<Vec<Job<'_>>> =
        (0..workers).map(|_| Vec::with_capacity(jobs.len() / workers + 1)).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        buckets[i % workers].push(job);
    }
    let mut buckets = buckets.into_iter();
    let mine = buckets.next().expect("at least one worker");
    std::thread::scope(|scope| {
        for bucket in buckets {
            scope.spawn(move || {
                for job in bucket {
                    job.run();
                }
            });
        }
        for job in mine {
            job.run();
        }
    });
}

/// Row-block-partitioned `y = A · x` over up to `threads` scoped workers
/// (0 = one per core, 1 = serial), fewer on small matrices (no worker
/// gets fewer than `MIN_ROWS_PER_WORKER` rows).
///
/// Per output element this performs exactly the per-row dot of
/// [`CsrMatrix::mul_vec_into`], so results are bit-identical to the serial
/// method at every thread count.
///
/// # Panics
///
/// Panics on dimension mismatches, like [`CsrMatrix::mul_vec_into`].
pub fn mul_vec_into(a: &CsrMatrix, x: &[f64], y: &mut [f64], threads: usize) {
    assert_eq!(x.len(), a.ncols(), "dimension mismatch");
    assert_eq!(y.len(), a.nrows(), "dimension mismatch");
    let jobs: Vec<Job<'_>> = split_blocks(y)
        .into_iter()
        .map(|(start_row, out)| Job::MulVec { a, x, start_row, out })
        .collect();
    run_jobs(jobs, workers_for(a.nrows(), threads));
}

/// The seed of every blocked sum: `-0.0`, the additive identity
/// (`-0.0 + v == v` for every `v`, `+0.0` included) and the seed
/// `Iterator::sum` uses for floats. Callers that build block partials
/// incrementally — the fused Gauss–Seidel sweep adds each entry as it
/// writes it — start from it, so their sums equal [`blocked_sum`] bit for
/// bit.
pub(crate) const SUM_SEED: f64 = -0.0;

/// Adds block partials in the order given (ascending block order, by the
/// callers' contract), starting from [`SUM_SEED`].
pub(crate) fn combine_partials(partials: impl IntoIterator<Item = f64>) -> f64 {
    partials.into_iter().fold(SUM_SEED, |acc, p| acc + p)
}

/// Sum of `x` in fixed block order: serial partial sums per block, partials
/// combined in ascending block order. The result depends only on `x.len()`
/// and the values — never on a thread count — so callers can normalize
/// disjoint sub-slices against the same total (see `dtc_markov::solve`).
pub fn blocked_sum(x: &[f64]) -> f64 {
    combine_partials(
        block_ranges(x.len()).into_iter().map(|r| x[r].iter().fold(SUM_SEED, |a, v| a + v)),
    )
}

/// Spins this many rounds before a barrier waiter starts yielding its core.
const SPIN_ROUNDS: u32 = 256;

/// A reusable barrier for a fixed party of scoped workers: each waiter
/// spins briefly, then yields, until the last one arrives. Everything a
/// worker wrote before [`SpinBarrier::wait`] is visible to every worker
/// after it returns (the arrival count is a release sequence, the
/// generation bump publishes it).
pub(crate) struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `parties` workers (at least one).
    pub(crate) fn new(parties: usize) -> Self {
        SpinBarrier {
            parties: parties.max(1),
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all parties have called `wait` for this round.
    pub(crate) fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            if spins < SPIN_ROUNDS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Dot product `Σ aᵢ·bᵢ` in fixed block order, with the per-block partials
/// computed over up to `threads` workers (fewer on short vectors, as in
/// [`mul_vec_into`]) and combined in ascending block order on the calling
/// thread. Bit-identical at every thread count.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn blocked_dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut partials = vec![0.0f64; num_blocks(a.len())];
    let jobs: Vec<Job<'_>> = block_ranges(a.len())
        .into_iter()
        .zip(partials.iter_mut())
        .map(|(r, out)| Job::DotPartial { a: &a[r.clone()], b: &b[r], out })
        .collect();
    run_jobs(jobs, workers_for(a.len(), threads));
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    fn dense_random(nrows: usize, ncols: usize, seed: u64) -> CsrMatrix {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut coo = CooMatrix::new(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                let v = next();
                if v.abs() > 0.3 {
                    coo.push(i, j, v);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn block_ranges_cover_and_are_fixed() {
        for len in [0usize, 1, 2, 63, 64, 65, 100, 1000] {
            let ranges = block_ranges(len);
            assert_eq!(ranges.len(), num_blocks(len));
            let mut expect = 0;
            for r in &ranges {
                assert_eq!(r.start, expect, "blocks are contiguous for len {len}");
                assert!(!r.is_empty(), "no empty blocks for len {len}");
                expect = r.end;
            }
            assert_eq!(expect, len, "blocks cover the vector for len {len}");
            // Boundaries are a pure function of len.
            assert_eq!(ranges, block_ranges(len));
        }
    }

    #[test]
    fn parallel_mul_vec_bit_identical_to_serial_method() {
        // Signed values: the contract must hold without any sign argument.
        let a = dense_random(97, 97, 42);
        let x: Vec<f64> = (0..97).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        let mut serial = vec![0.0; 97];
        a.mul_vec_into(&x, &mut serial);
        for threads in [1usize, 2, 3, 4, 8, 64] {
            let mut parallel = vec![0.0; 97];
            mul_vec_into(&a, &x, &mut parallel, threads);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn run_jobs_bit_identical_at_every_worker_count() {
        // Small inputs fall under `workers_for`'s cap, so drive the fan-out
        // directly with every job kind in one scope, as a march step does:
        // SpMV blocks into `next`, dot partials and axpy blocks reading
        // `cur`. Every worker count must produce the serial bits.
        let n = 97;
        let a = dense_random(n, n, 7);
        let cur: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let reward: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let run = |workers: usize| {
            let mut next = vec![0.0; n];
            let mut partials = vec![0.0; num_blocks(n)];
            let mut acc: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
            let mut jobs: Vec<Job<'_>> = Vec::new();
            for (start_row, out) in split_blocks(&mut next) {
                jobs.push(Job::MulVec { a: &a, x: &cur, start_row, out });
            }
            for (r, out) in block_ranges(n).into_iter().zip(partials.iter_mut()) {
                jobs.push(Job::DotPartial { a: &cur[r.clone()], b: &reward[r], out });
            }
            for (start, out) in split_blocks(&mut acc) {
                let src = &cur[start..start + out.len()];
                jobs.push(Job::Axpy { wk: 0.37, src, out });
            }
            run_jobs(jobs, workers);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(&next), bits(&partials), bits(&acc))
        };
        let serial = run(1);
        for workers in [2usize, 3, 8, 64, 300] {
            assert_eq!(run(workers), serial, "workers = {workers}");
        }
    }

    #[test]
    fn workers_for_caps_by_rows() {
        // A 2-state chain never spawns, whatever the budget.
        assert_eq!(workers_for(2, 8), 1);
        assert_eq!(workers_for(2 * MIN_ROWS_PER_WORKER - 1, 8), 1);
        assert_eq!(workers_for(2 * MIN_ROWS_PER_WORKER, 8), 2);
        // Fig. 7's 126,168 rows keep the whole budget.
        assert_eq!(workers_for(126_168, 2), 2);
        assert_eq!(workers_for(126_168, 1), 1);
        assert_eq!(workers_for(0, 4), 1);
    }

    #[test]
    fn blocked_dot_bit_identical_across_threads() {
        let a: Vec<f64> = (0..517).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..517).map(|i| (i as f64 * 0.7).cos()).collect();
        let one = blocked_dot(&a, &b, 1);
        for threads in [2usize, 4, 8, 17] {
            assert_eq!(blocked_dot(&a, &b, threads).to_bits(), one.to_bits());
        }
        // Small vectors (one element per block) equal the plain serial dot.
        let small = &a[..40];
        assert_eq!(blocked_dot(small, small, 4), crate::solve::dot(small, small));
    }

    #[test]
    fn blocked_sum_matches_block_order_fold() {
        let x: Vec<f64> = (0..130).map(|i| 1.0 / (i + 1) as f64).collect();
        let manual: f64 =
            block_ranges(x.len()).into_iter().map(|r| x[r].iter().sum::<f64>()).sum();
        assert_eq!(blocked_sum(&x).to_bits(), manual.to_bits());
        assert_eq!(blocked_sum(&[]), 0.0);
    }

    #[test]
    fn blocked_sum_equals_iterator_sum_bitwise() {
        // The explicit SUM_SEED fold must agree with `Iterator::sum`,
        // including the sign of an all-negative-zero sum.
        for x in [
            vec![-0.0; 3],
            vec![0.0, -0.0],
            vec![],
            (0..200).map(|i| (i as f64).cos()).collect(),
        ] {
            let std_sum: f64 =
                block_ranges(x.len()).into_iter().map(|r| x[r].iter().sum::<f64>()).sum();
            assert_eq!(blocked_sum(&x).to_bits(), std_sum.to_bits(), "{x:?}");
        }
    }

    #[test]
    fn spin_barrier_publishes_writes_between_rounds() {
        use std::sync::atomic::AtomicU64;
        let workers = 4;
        let rounds = 200;
        let barrier = SpinBarrier::new(workers);
        let slots: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (barrier, slots) = (&barrier, &slots);
                scope.spawn(move || {
                    for round in 1..=rounds {
                        slots[w].store(round, Ordering::Relaxed);
                        barrier.wait();
                        // Every worker's write of this round is visible...
                        for slot in slots {
                            assert_eq!(slot.load(Ordering::Relaxed), round);
                        }
                        // ...and nobody starts the next round before all
                        // have checked.
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn split_blocks_is_disjoint_and_complete() {
        let mut v: Vec<f64> = (0..77).map(|i| i as f64).collect();
        let blocks = split_blocks(&mut v);
        assert_eq!(blocks.len(), num_blocks(77));
        let mut seen = 0;
        for (start, slice) in &blocks {
            assert_eq!(*start, seen);
            seen += slice.len();
        }
        assert_eq!(seen, 77);
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
