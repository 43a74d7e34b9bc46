//! Tangible reachability analysis: GSPN → CTMC.
//!
//! A marking of a GSPN is *vanishing* when at least one immediate transition
//! is enabled (no time is spent there) and *tangible* otherwise. The classic
//! solution pipeline — also used by Mercury and TimeNET, the tools the DSN'13
//! paper ran — is:
//!
//! 1. explore the reachable markings from the initial marking,
//! 2. eliminate vanishing markings on the fly, redistributing their outgoing
//!    probability (immediate weights, restricted to the highest enabled
//!    priority class) onto tangible successors,
//! 3. assemble the tangible-to-tangible rate matrix as a CTMC, and
//! 4. solve for steady-state or transient probabilities, evaluating metrics
//!    such as `P{#VM_UP >= k}` over the tangible states.
//!
//! The eliminator memoizes the tangible-outcome distribution of each
//! vanishing marking, detects immediate cycles (modeling errors — time
//! never advances) and bounds both state count and cascade depth.

use crate::error::{PetriError, Result};
use crate::expr::{BoolExpr, IntExpr};
use crate::model::{Marking, PetriNet, PlaceId, TransitionId, TransitionKind};
use dtc_markov::{CooMatrix, CsrMatrix, Ctmc, Method, SolveStats, SolverOptions};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Options for [`explore`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReachOptions {
    /// Abort if more than this many tangible states are generated.
    pub max_states: usize,
    /// Abort if a single vanishing cascade exceeds this depth.
    pub max_vanishing_depth: usize,
}

impl Default for ReachOptions {
    fn default() -> Self {
        ReachOptions { max_states: 4_000_000, max_vanishing_depth: 100_000 }
    }
}

/// Exploration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReachStats {
    /// Tangible states in the final graph.
    pub tangible_states: usize,
    /// Distinct vanishing markings eliminated.
    pub vanishing_markings: usize,
    /// Rate-matrix entries (excluding diagonal).
    pub edges: usize,
}

/// Statistics for structure-aware exploration ([`explore_from`]): how many
/// graphs were built from scratch, how many were cheaply re-rated from a
/// shared [`TangibleStructure`], and how many offered structures had to be
/// rejected (fingerprint mismatch or state bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Full explorations (no structure offered).
    pub explorations: u64,
    /// Graphs produced by re-rating an offered structure.
    pub re_rates: u64,
    /// Offered structures rejected — fell back to a full exploration.
    pub fallbacks: u64,
}

/// One symbolic rate term of the tangible CTMC: timed transition
/// `transition` fired at tangible state `source`, reaching tangible state
/// `target` with elimination probability `prob` (the product of immediate
/// branching probabilities along the vanishing cascade; `1.0` when the
/// successor was already tangible). The numeric matrix entry is
/// `firing_rate(transition, states[source]) * prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RateTerm {
    source: usize,
    transition: TransitionId,
    prob: f64,
    target: usize,
}

/// The rate-independent skeleton of a tangible reachability graph: the
/// tangible markings, the initial distribution, and one symbolic rate term
/// per matrix entry. Everything here depends only on the net's *structure*
/// (places, arcs, guards, immediate weights/priorities) — never on timed
/// rates — so a structure explored once can be [re-rated]
/// (TangibleStructure::re_rate) against any sibling net whose
/// [`structural_fingerprint`] matches, yielding a [`TangibleGraph`]
/// bit-identical to a fresh [`explore`] of that sibling.
#[derive(Debug)]
pub struct TangibleStructure {
    fingerprint: u64,
    states: Vec<Marking>,
    index: HashMap<Marking, usize>,
    initial_distribution: Vec<(usize, f64)>,
    /// Symbolic terms in triplet discovery order.
    terms: Vec<RateTerm>,
    vanishing_markings: usize,
}

impl TangibleStructure {
    /// The structural fingerprint of the net this structure was explored
    /// from. Two nets with equal fingerprints have identical reachability
    /// structure and differ at most in timed transition rates.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of tangible states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Whether `net` can be re-rated on this structure: the net's
    /// [`structural_fingerprint`] matches.
    pub fn matches(&self, net: &PetriNet) -> bool {
        self.fingerprint == structural_fingerprint(net)
    }

    /// Whether exploring `net` under `opts` may re-rate this structure
    /// instead. Re-rating replays the recorded elimination terms, so it
    /// needs a structure within the caller's state bound and a
    /// [matching](TangibleStructure::matches) net. [`explore_from`] takes
    /// exactly this decision.
    pub fn can_re_rate(&self, net: &PetriNet, opts: &ReachOptions) -> bool {
        self.num_states() <= opts.max_states && self.matches(net)
    }

    /// Re-evaluates only the rate expressions of this structure against a
    /// sibling net, producing a [`TangibleGraph`] **bit-identical** to a
    /// fresh [`explore`] of `net`: the BFS state order, triplet order,
    /// elimination probabilities and diagonal accumulation order are all
    /// structure-determined, and each matrix entry is recomputed as the
    /// same `rate * prob` product the explorer would have formed.
    ///
    /// # Errors
    ///
    /// [`PetriError::StructureMismatch`] when `net`'s fingerprint differs
    /// from this structure's. Use [`explore_from`] to fall back to a full
    /// exploration instead.
    pub fn re_rate(self: &Arc<Self>, net: &PetriNet) -> Result<TangibleGraph> {
        if !self.matches(net) {
            return Err(PetriError::StructureMismatch {
                expected: self.fingerprint,
                got: structural_fingerprint(net),
            });
        }
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(self.terms.len());
        for term in &self.terms {
            let rate = net.firing_rate(term.transition, &self.states[term.source]).ok_or_else(
                || PetriError::StructureMismatch {
                    expected: self.fingerprint,
                    got: structural_fingerprint(net),
                },
            )?;
            triplets.push((term.source, term.target, rate * term.prob));
        }
        let n = self.states.len();
        let stats = ReachStats {
            tangible_states: n,
            vanishing_markings: self.vanishing_markings,
            edges: triplets.len(),
        };
        let ctmc = assemble_ctmc(n, &triplets)?;
        Ok(TangibleGraph { structure: Arc::clone(self), ctmc, stats })
    }
}

/// The tangible reachability graph of a net, with its CTMC.
#[derive(Debug, Clone)]
pub struct TangibleGraph {
    structure: Arc<TangibleStructure>,
    ctmc: Ctmc,
    stats: ReachStats,
}

impl TangibleGraph {
    /// Number of tangible states.
    pub fn num_states(&self) -> usize {
        self.structure.states.len()
    }

    /// The tangible markings, indexed by CTMC state.
    pub fn states(&self) -> &[Marking] {
        &self.structure.states
    }

    /// The marking of state `i`.
    pub fn marking(&self, i: usize) -> &[u32] {
        &self.structure.states[i]
    }

    /// Index of a marking, if it is a reachable tangible state.
    pub fn state_index(&self, m: &[u32]) -> Option<usize> {
        self.structure.index.get(m).copied()
    }

    /// The underlying CTMC.
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// The rate-independent skeleton this graph was built on. Share it
    /// (cheap `Arc` clone) with [`TangibleStructure::re_rate`] or
    /// [`explore_from`] to evaluate sibling nets without re-exploring.
    pub fn structure(&self) -> &Arc<TangibleStructure> {
        &self.structure
    }

    /// Probability distribution over tangible states at time zero (the
    /// initial marking resolved through any immediate firings).
    pub fn initial_distribution(&self) -> &[(usize, f64)] {
        &self.structure.initial_distribution
    }

    /// Exploration statistics.
    pub fn stats(&self) -> ReachStats {
        self.stats
    }

    /// Tangible states with no outgoing transition (deadlocks). A nonempty
    /// result means no steady-state distribution in the usual sense — the
    /// chain is absorbed eventually — and usually indicates a modeling bug
    /// in an availability study.
    pub fn deadlock_states(&self) -> Vec<usize> {
        (0..self.num_states()).filter(|&i| self.ctmc.exit_rates()[i] == 0.0).collect()
    }

    /// Whether the tangible chain is irreducible (every state reaches every
    /// other) — the precondition for a unique steady-state distribution.
    /// Checked via strongly-connected components (iterative Kosaraju).
    pub fn is_irreducible(&self) -> bool {
        let n = self.num_states();
        if n == 0 {
            return false;
        }
        // Forward and reverse adjacency from the generator sparsity.
        let q = self.ctmc.generator();
        let reachable_all = |reverse: bool| -> bool {
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            let qt;
            let m = if reverse {
                qt = q.transpose();
                &qt
            } else {
                q
            };
            let mut count = 1;
            while let Some(i) = stack.pop() {
                let (cols, vals) = m.row(i);
                for (c, v) in cols.iter().zip(vals) {
                    let j = *c as usize;
                    if j != i && *v > 0.0 && !seen[j] {
                        seen[j] = true;
                        count += 1;
                        stack.push(j);
                    }
                }
            }
            count == n
        };
        // Irreducible iff state 0 reaches all states and all states reach 0.
        reachable_all(false) && reachable_all(true)
    }

    /// Solves for the steady-state distribution with defaults
    /// (Gauss–Seidel, direct fallback).
    pub fn solve(&self) -> Result<Solution<'_>> {
        self.solve_with(Method::default(), &SolverOptions::default())
    }

    /// Solves for the steady-state distribution with an explicit method.
    pub fn solve_with(&self, method: Method, opts: &SolverOptions) -> Result<Solution<'_>> {
        let (pi, stats) = self.ctmc.steady_state_with(method, opts)?;
        Ok(Solution { graph: self, pi, stats })
    }

    /// The initial distribution as a dense vector over tangible states.
    pub fn initial_pi0(&self) -> Vec<f64> {
        let mut pi0 = vec![0.0; self.num_states()];
        for &(i, p) in self.initial_distribution() {
            pi0[i] = p;
        }
        pi0
    }

    /// Transient distribution over tangible states at time `t`.
    pub fn transient(&self, t: f64) -> Result<Solution<'_>> {
        let pi = self.ctmc.transient(&self.initial_pi0(), t)?;
        Ok(Solution {
            graph: self,
            pi,
            stats: SolveStats { iterations: 0, residual: 0.0, method: Method::Power },
        })
    }

    /// Transient distributions at every time in `times` from **one**
    /// uniformization pass (one matrix build, one power march — see
    /// [`dtc_markov::curve`]). Times may be unsorted, duplicated, or zero;
    /// solutions come back in caller order, each bit-identical to the
    /// corresponding [`TangibleGraph::transient`] call.
    pub fn transient_curve(&self, times: &[f64]) -> Result<Vec<Solution<'_>>> {
        let curves = self.ctmc.transient_curve(&self.initial_pi0(), times)?;
        Ok(curves
            .into_iter()
            .map(|pi| Solution {
                graph: self,
                pi,
                stats: SolveStats { iterations: 0, residual: 0.0, method: Method::Power },
            })
            .collect())
    }
}

/// A probability vector over the tangible states, with metric evaluation.
#[derive(Debug, Clone)]
pub struct Solution<'a> {
    graph: &'a TangibleGraph,
    pi: Vec<f64>,
    stats: SolveStats,
}

impl<'a> Solution<'a> {
    /// The raw probability vector.
    pub fn probabilities(&self) -> &[f64] {
        &self.pi
    }

    /// Solver statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The graph this solution refers to.
    pub fn graph(&self) -> &'a TangibleGraph {
        self.graph
    }

    /// `P{pred}` — total probability of tangible states satisfying `pred`.
    pub fn probability(&self, pred: &BoolExpr) -> f64 {
        self.graph
            .states()
            .iter()
            .zip(&self.pi)
            .filter(|(m, _)| pred.eval(&|p: PlaceId| m[p.index()]))
            .map(|(_, p)| *p)
            .sum()
    }

    /// `E{expr}` — expectation of an integer marking expression.
    pub fn expected(&self, expr: &IntExpr) -> f64 {
        self.graph
            .states()
            .iter()
            .zip(&self.pi)
            .map(|(m, p)| expr.value(&|q: PlaceId| m[q.index()]) as f64 * p)
            .sum()
    }

    /// `E{#p}` — expected token count of a place.
    pub fn expected_tokens(&self, p: PlaceId) -> f64 {
        self.expected(&IntExpr::tokens(p))
    }

    /// Expected firing rate (throughput) of a timed transition.
    pub fn throughput(&self, net: &PetriNet, t: TransitionId) -> f64 {
        self.graph
            .states()
            .iter()
            .zip(&self.pi)
            .map(|(m, p)| net.firing_rate(t, m).unwrap_or(0.0) * p)
            .sum()
    }
}

/// Resolves vanishing markings to distributions over tangible markings.
struct Eliminator<'a> {
    net: &'a PetriNet,
    memo: HashMap<Marking, Vec<(Marking, f64)>>,
    max_depth: usize,
}

impl<'a> Eliminator<'a> {
    fn new(net: &'a PetriNet, max_depth: usize) -> Self {
        Eliminator { net, memo: HashMap::new(), max_depth }
    }

    /// Distribution of tangible outcomes reached from `m` through immediate
    /// firings (identity for tangible `m`).
    fn resolve(&mut self, m: Marking) -> Result<Vec<(Marking, f64)>> {
        let mut path: HashSet<Marking> = HashSet::new();
        self.resolve_inner(m, &mut path, 0)
    }

    fn resolve_inner(
        &mut self,
        m: Marking,
        path: &mut HashSet<Marking>,
        depth: usize,
    ) -> Result<Vec<(Marking, f64)>> {
        if !self.net.is_vanishing(&m) {
            return Ok(vec![(m, 1.0)]);
        }
        if let Some(cached) = self.memo.get(&m) {
            return Ok(cached.clone());
        }
        if depth >= self.max_depth {
            return Err(PetriError::VanishingDepthExceeded { limit: self.max_depth });
        }
        if !path.insert(m.clone()) {
            return Err(PetriError::VanishingLoop { witness: self.witness(&m) });
        }
        let enabled = self.net.enabled_immediates(&m);
        let total: f64 = enabled.iter().map(|&(_, w)| w).sum();
        let mut acc: HashMap<Marking, f64> = HashMap::new();
        for (t, w) in enabled {
            let succ = self.net.fire(t, &m);
            for (tm, p) in self.resolve_inner(succ, path, depth + 1)? {
                *acc.entry(tm).or_insert(0.0) += (w / total) * p;
            }
        }
        path.remove(&m);
        let mut out: Vec<(Marking, f64)> = acc.into_iter().collect();
        // Deterministic order: sort by marking for reproducible matrices.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        self.memo.insert(m, out.clone());
        Ok(out)
    }

    fn witness(&self, m: &[u32]) -> String {
        self.net
            .places()
            .filter(|p| m[p.index()] > 0)
            .map(|p| format!("{}={}", self.net.place_name(p), m[p.index()]))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Structure-aware exploration: when `structure` is offered and matches
/// `net` (same [`structural_fingerprint`], within the state bound), the
/// graph is produced by [`TangibleStructure::re_rate`] — bit-identical to a
/// fresh [`explore`] but without touching the state space. Otherwise this
/// falls back to a full [`explore`]. `stats` counts which path was taken.
pub fn explore_from(
    net: &PetriNet,
    opts: &ReachOptions,
    structure: Option<&Arc<TangibleStructure>>,
    stats: &mut ExploreStats,
) -> Result<TangibleGraph> {
    if let Some(s) = structure {
        if s.can_re_rate(net, opts) {
            stats.re_rates += 1;
            return s.re_rate(net);
        }
        stats.fallbacks += 1;
    } else {
        stats.explorations += 1;
    }
    explore(net, opts)
}

/// A digest of everything about a net **except** its timed transition
/// rates: place names and initial tokens, transition names and kinds
/// (server semantics for timed; weight and priority for immediate — both
/// shape the tangible graph through enabling degrees and elimination
/// probabilities), arcs with multiplicities, and guards. Two nets with
/// equal fingerprints explore to identical tangible structures; a net is
/// re-rateable on a structure exactly when their fingerprints match.
pub fn structural_fingerprint(net: &PetriNet) -> u64 {
    // FNV-1a-64 over a length-prefixed byte encoding (collision-safe
    // framing: every variable-length field is preceded by its length).
    let mut h = Fnv64::new();
    h.usize(net.num_places());
    let m0 = net.initial_marking();
    for p in net.places() {
        h.str_(net.place_name(p));
        h.u32(m0[p.index()]);
    }
    h.usize(net.num_transitions());
    for (_, t) in net.transitions() {
        h.str_(&t.name);
        match t.kind {
            TransitionKind::Timed { rate: _, semantics } => {
                // `rate` is the one excluded field.
                h.u8(0);
                h.str_(&semantics.to_string());
            }
            TransitionKind::Immediate { weight, priority } => {
                h.u8(1);
                h.f64_bits(weight);
                h.u8(priority);
            }
        }
        for arcs in [&t.inputs, &t.outputs, &t.inhibitors] {
            h.usize(arcs.len());
            for &(p, m) in arcs {
                h.u32(p.index() as u32);
                h.u32(m);
            }
        }
        h.str_(&net.display_expr(&t.guard).to_string());
    }
    h.finish()
}

/// Minimal FNV-1a-64 accumulator for [`structural_fingerprint`].
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn f64_bits(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn str_(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Explores the tangible reachability graph of `net` and assembles its CTMC.
///
/// # Errors
///
/// * [`PetriError::StateSpaceExceeded`] / [`PetriError::VanishingDepthExceeded`]
///   when bounds are hit,
/// * [`PetriError::VanishingLoop`] for immediate cycles,
/// * [`PetriError::Markov`] if the rate matrix is rejected by the CTMC
///   validator (cannot normally happen for well-formed nets).
pub fn explore(net: &PetriNet, opts: &ReachOptions) -> Result<TangibleGraph> {
    let mut eliminator = Eliminator::new(net, opts.max_vanishing_depth);
    let mut states: Vec<Marking> = Vec::new();
    let mut index: HashMap<Marking, usize> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    // Symbolic twin of `triplets`, recorded in the same order so a re-rate
    // replays the identical f64 products through the identical assembly.
    let mut terms: Vec<RateTerm> = Vec::new();

    let intern = |m: Marking,
                  states: &mut Vec<Marking>,
                  index: &mut HashMap<Marking, usize>,
                  queue: &mut VecDeque<usize>|
     -> usize {
        if let Some(&i) = index.get(&m) {
            return i;
        }
        let i = states.len();
        states.push(m.clone());
        index.insert(m, i);
        queue.push_back(i);
        i
    };

    let init = eliminator.resolve(net.initial_marking())?;
    let mut initial_distribution = Vec::with_capacity(init.len());
    for (m, p) in init {
        let i = intern(m, &mut states, &mut index, &mut queue);
        initial_distribution.push((i, p));
    }

    while let Some(i) = queue.pop_front() {
        if states.len() > opts.max_states {
            return Err(PetriError::StateSpaceExceeded { limit: opts.max_states });
        }
        let m = states[i].clone();
        for (t, rate) in net.enabled_timed(&m) {
            let succ = net.fire(t, &m);
            for (tm, p) in eliminator.resolve(succ)? {
                let j = intern(tm, &mut states, &mut index, &mut queue);
                if j != i {
                    triplets.push((i, j, rate * p));
                    terms.push(RateTerm { source: i, transition: t, prob: p, target: j });
                }
            }
        }
    }
    if states.len() > opts.max_states {
        return Err(PetriError::StateSpaceExceeded { limit: opts.max_states });
    }

    let n = states.len();
    let stats = ReachStats {
        tangible_states: n,
        vanishing_markings: eliminator.memo.len(),
        edges: triplets.len(),
    };
    let ctmc = assemble_ctmc(n, &triplets)?;
    let structure = Arc::new(TangibleStructure {
        fingerprint: structural_fingerprint(net),
        states,
        index,
        initial_distribution,
        terms,
        vanishing_markings: stats.vanishing_markings,
    });
    Ok(TangibleGraph { structure, ctmc, stats })
}

fn assemble_ctmc(n: usize, triplets: &[(usize, usize, f64)]) -> Result<Ctmc> {
    let mut coo = CooMatrix::with_capacity(n, n, triplets.len() + n);
    let mut row_sums = vec![0.0f64; n];
    for &(i, j, r) in triplets {
        coo.push(i, j, r);
        row_sums[i] += r;
    }
    for (i, s) in row_sums.iter().enumerate() {
        if *s > 0.0 {
            coo.push(i, i, -s);
        }
    }
    Ok(Ctmc::from_generator(CsrMatrix::from_coo(&coo))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PetriNetBuilder, ServerSemantics};

    fn simple(mttf: f64, mttr: f64) -> PetriNet {
        let mut b = PetriNetBuilder::new();
        let on = b.place("ON", 1);
        let off = b.place("OFF", 0);
        b.timed_delay("FAIL", mttf, ServerSemantics::Single).input(on).output(off).done();
        b.timed_delay("REPAIR", mttr, ServerSemantics::Single).input(off).output(on).done();
        b.build().unwrap()
    }

    #[test]
    fn simple_component_availability() {
        let net = simple(1000.0, 10.0);
        let g = explore(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.num_states(), 2);
        let sol = g.solve().unwrap();
        let on = net.place("ON").unwrap();
        let avail = sol.probability(&IntExpr::tokens(on).gt(0));
        assert!((avail - 1000.0 / 1010.0).abs() < 1e-10);
        assert!((sol.expected_tokens(on) - avail).abs() < 1e-12);
    }

    #[test]
    fn two_independent_components_product_form() {
        let mut b = PetriNetBuilder::new();
        let on1 = b.place("ON1", 1);
        let off1 = b.place("OFF1", 0);
        let on2 = b.place("ON2", 1);
        let off2 = b.place("OFF2", 0);
        b.timed("F1", 0.01, ServerSemantics::Single).input(on1).output(off1).done();
        b.timed("R1", 1.0, ServerSemantics::Single).input(off1).output(on1).done();
        b.timed("F2", 0.02, ServerSemantics::Single).input(on2).output(off2).done();
        b.timed("R2", 0.5, ServerSemantics::Single).input(off2).output(on2).done();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.num_states(), 4);
        let sol = g.solve().unwrap();
        let a1 = 1.0 / 0.01 / (1.0 / 0.01 + 1.0);
        let a2 = 1.0 / 0.02 / (1.0 / 0.02 + 2.0);
        let both = sol.probability(&IntExpr::tokens(on1).gt(0).and(IntExpr::tokens(on2).gt(0)));
        assert!((both - a1 * a2).abs() < 1e-10, "got {both}, want {}", a1 * a2);
    }

    #[test]
    fn mm1k_queue_matches_closed_form() {
        // Arrivals via a source transition inhibited at K, service ss.
        let (lambda, mu, k) = (2.0, 3.0, 5u32);
        let mut b = PetriNetBuilder::new();
        let q = b.place("Q", 0);
        b.timed("ARRIVE", lambda, ServerSemantics::Single).output(q).inhibitor(q, k).done();
        b.timed("SERVE", mu, ServerSemantics::Single).input(q).done();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.num_states(), (k + 1) as usize);
        let sol = g.solve().unwrap();
        let rho: f64 = lambda / mu;
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        let qp = net.place("Q").unwrap();
        for i in 0..=k {
            let p = sol.probability(&IntExpr::tokens(qp).eq(i as i64));
            let expect = rho.powi(i as i32) / norm;
            assert!((p - expect).abs() < 1e-10, "i={i}: {p} vs {expect}");
        }
    }

    #[test]
    fn immediate_fork_weights_split_probability() {
        // A token cycles: T0 (timed) puts it in CHOICE; immediates A (w=1)
        // and B (w=3) route to PA/PB; timed drains back. P(PA occupied)
        // over P(PA)+P(PB) should be 1/4 when drain rates are equal.
        let mut b = PetriNetBuilder::new();
        let idle = b.place("IDLE", 1);
        let choice = b.place("CHOICE", 0);
        let pa = b.place("PA", 0);
        let pb = b.place("PB", 0);
        b.timed("GO", 1.0, ServerSemantics::Single).input(idle).output(choice).done();
        b.immediate_weighted("A", 1.0, 0).input(choice).output(pa).done();
        b.immediate_weighted("B", 3.0, 0).input(choice).output(pb).done();
        b.timed("DA", 1.0, ServerSemantics::Single).input(pa).output(idle).done();
        b.timed("DB", 1.0, ServerSemantics::Single).input(pb).output(idle).done();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        // CHOICE is vanishing: states are IDLE, PA, PB.
        assert_eq!(g.num_states(), 3);
        let sol = g.solve().unwrap();
        let ppa = sol.probability(&IntExpr::tokens(pa).gt(0));
        let ppb = sol.probability(&IntExpr::tokens(pb).gt(0));
        assert!((ppa / (ppa + ppb) - 0.25).abs() < 1e-10);
    }

    #[test]
    fn priorities_preempt_lower_class() {
        let mut b = PetriNetBuilder::new();
        let idle = b.place("IDLE", 1);
        let choice = b.place("CHOICE", 0);
        let pa = b.place("PA", 0);
        let pb = b.place("PB", 0);
        b.timed("GO", 1.0, ServerSemantics::Single).input(idle).output(choice).done();
        b.immediate_weighted("LOW", 100.0, 0).input(choice).output(pa).done();
        b.immediate_weighted("HIGH", 1.0, 1).input(choice).output(pb).done();
        b.timed("DA", 1.0, ServerSemantics::Single).input(pa).output(idle).done();
        b.timed("DB", 1.0, ServerSemantics::Single).input(pb).output(idle).done();
        let net = b.build().unwrap();
        let sol_g = explore(&net, &ReachOptions::default()).unwrap();
        let sol = sol_g.solve().unwrap();
        // HIGH always wins: PA never occupied.
        assert_eq!(sol.probability(&IntExpr::tokens(pa).gt(0)), 0.0);
        assert!(sol.probability(&IntExpr::tokens(pb).gt(0)) > 0.0);
    }

    #[test]
    fn vanishing_chain_cascades() {
        // GO dumps 3 tokens; an immediate moves them one-by-one to SINK.
        let mut b = PetriNetBuilder::new();
        let src = b.place("SRC", 1);
        let mid = b.place("MID", 0);
        let sink = b.place("SINK", 0);
        b.timed("GO", 1.0, ServerSemantics::Single).input(src).output_n(mid, 3).done();
        b.immediate("MOVE").input(mid).output(sink).done();
        b.timed("BACK", 1.0, ServerSemantics::Single).input_n(sink, 3).output(src).done();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        // Tangible states: SRC=1 and SINK=3 only.
        assert_eq!(g.num_states(), 2);
        let sol = g.solve().unwrap();
        assert!((sol.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(sol.probability(&IntExpr::tokens(mid).gt(0)), 0.0);
    }

    #[test]
    fn vanishing_loop_detected() {
        let mut b = PetriNetBuilder::new();
        let a = b.place("A", 1);
        let c = b.place("B", 0);
        b.immediate("AB").input(a).output(c).done();
        b.immediate("BA").input(c).output(a).done();
        let net = b.build().unwrap();
        let err = explore(&net, &ReachOptions::default()).unwrap_err();
        assert!(matches!(err, PetriError::VanishingLoop { .. }), "{err}");
    }

    #[test]
    fn state_bound_enforced() {
        // Unbounded net: source with no inhibitor.
        let mut b = PetriNetBuilder::new();
        let q = b.place("Q", 0);
        b.timed("ARRIVE", 1.0, ServerSemantics::Single).output(q).done();
        let net = b.build().unwrap();
        let opts = ReachOptions { max_states: 50, ..Default::default() };
        let err = explore(&net, &opts).unwrap_err();
        assert!(matches!(err, PetriError::StateSpaceExceeded { limit: 50 }));
    }

    #[test]
    fn vanishing_initial_marking_resolves() {
        let mut b = PetriNetBuilder::new();
        let a = b.place("A", 1);
        let b_ = b.place("B", 0);
        let c = b.place("C", 0);
        b.immediate("START").input(a).output(b_).done();
        b.timed("FWD", 1.0, ServerSemantics::Single).input(b_).output(c).done();
        b.timed("BCK", 2.0, ServerSemantics::Single).input(c).output(b_).done();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.num_states(), 2);
        assert_eq!(g.initial_distribution().len(), 1);
        let sol = g.solve().unwrap();
        let pb = sol.probability(&IntExpr::tokens(b_).gt(0));
        assert!((pb - 2.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn transient_approaches_steady_state() {
        let net = simple(100.0, 1.0);
        let g = explore(&net, &ReachOptions::default()).unwrap();
        let on = net.place("ON").unwrap();
        let expr = IntExpr::tokens(on).gt(0);
        let t0 = g.transient(0.0).unwrap().probability(&expr);
        assert!((t0 - 1.0).abs() < 1e-12);
        let t_inf = g.transient(1e5).unwrap().probability(&expr);
        let ss = g.solve().unwrap().probability(&expr);
        assert!((t_inf - ss).abs() < 1e-6);
    }

    #[test]
    fn transient_curve_matches_per_point_in_caller_order() {
        let net = simple(100.0, 1.0);
        let g = explore(&net, &ReachOptions::default()).unwrap();
        let on = net.place("ON").unwrap();
        let expr = IntExpr::tokens(on).gt(0);
        // Unsorted, with a duplicate and a zero — the pinned contract.
        let times = [500.0, 0.0, 10.0, 500.0];
        let curve = g.transient_curve(&times).unwrap();
        assert_eq!(curve.len(), times.len());
        for (&t, sol) in times.iter().zip(&curve) {
            let reference = g.transient(t).unwrap();
            assert_eq!(
                sol.probabilities(),
                reference.probabilities(),
                "t = {t}: curve must match the per-point solver exactly"
            );
        }
        assert!(
            (curve[1].probability(&expr) - 1.0).abs() < 1e-12,
            "t = 0 is the initial state"
        );
        assert_eq!(curve[0].probabilities(), curve[3].probabilities(), "duplicates agree");
    }

    #[test]
    fn throughput_of_repair_equals_failure_frequency() {
        let net = simple(1000.0, 10.0);
        let g = explore(&net, &ReachOptions::default()).unwrap();
        let sol = g.solve().unwrap();
        let fail = net.transition("FAIL").unwrap();
        let repair = net.transition("REPAIR").unwrap();
        // Flow balance: throughput(FAIL) == throughput(REPAIR).
        let tf = sol.throughput(&net, fail);
        let tr = sol.throughput(&net, repair);
        assert!((tf - tr).abs() < 1e-12);
        // = A/MTTF.
        assert!((tf - (1000.0 / 1010.0) / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn diagnostics_on_live_and_dying_nets() {
        // Repairable component: irreducible, no deadlocks.
        let net = simple(100.0, 1.0);
        let g = explore(&net, &ReachOptions::default()).unwrap();
        assert!(g.deadlock_states().is_empty());
        assert!(g.is_irreducible());

        // One-shot failure: OFF is a deadlock; not irreducible.
        let mut b = PetriNetBuilder::new();
        let on = b.place("ON", 1);
        let off = b.place("OFF", 0);
        b.timed("FAIL", 1.0, ServerSemantics::Single).input(on).output(off).done();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.deadlock_states().len(), 1);
        assert!(!g.is_irreducible());

        // Reducible but deadlock-free: once LEFT is drained the token
        // cycles forever between MID and RIGHT (LEFT unreachable again).
        let mut b = PetriNetBuilder::new();
        let left = b.place("LEFT", 1);
        let mid = b.place("MID", 0);
        let right = b.place("RIGHT", 0);
        b.timed("GO", 1.0, ServerSemantics::Single).input(left).output(mid).done();
        b.timed("FWD", 1.0, ServerSemantics::Single).input(mid).output(right).done();
        b.timed("BCK", 1.0, ServerSemantics::Single).input(right).output(mid).done();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        assert!(g.deadlock_states().is_empty());
        assert!(!g.is_irreducible());
    }

    /// CSR content of a graph's generator as `(row, col, bits)` triplets.
    fn generator_bits(g: &TangibleGraph) -> Vec<(usize, u32, u64)> {
        let q = g.ctmc().generator();
        let mut out = Vec::new();
        for i in 0..g.num_states() {
            let (cols, vals) = q.row(i);
            for (c, v) in cols.iter().zip(vals) {
                out.push((i, *c, v.to_bits()));
            }
        }
        out
    }

    #[test]
    fn re_rate_is_bitwise_identical_to_fresh_explore() {
        let base = simple(1000.0, 10.0);
        let g = explore(&base, &ReachOptions::default()).unwrap();
        // A rate-only sibling: same structure, different timed rates.
        let sibling = simple(1234.5, 6.7);
        let rerated = g.structure().re_rate(&sibling).unwrap();
        let fresh = explore(&sibling, &ReachOptions::default()).unwrap();
        assert_eq!(generator_bits(&rerated), generator_bits(&fresh));
        assert_eq!(rerated.initial_distribution(), fresh.initial_distribution());
        assert_eq!(rerated.states(), fresh.states());
        assert_eq!(rerated.stats(), fresh.stats());
        // The re-rated graph shares the original structure (no new states).
        assert!(Arc::ptr_eq(rerated.structure(), g.structure()));
    }

    #[test]
    fn fingerprint_ignores_rates_but_sees_structure() {
        let base = structural_fingerprint(&simple(1000.0, 10.0));
        assert_eq!(base, structural_fingerprint(&simple(1.0, 2.0)));

        // An extra place changes the fingerprint.
        let mut b = PetriNetBuilder::new();
        let on = b.place("ON", 1);
        let off = b.place("OFF", 0);
        b.place("SPARE", 0);
        b.timed_delay("FAIL", 1000.0, ServerSemantics::Single).input(on).output(off).done();
        b.timed_delay("REPAIR", 10.0, ServerSemantics::Single).input(off).output(on).done();
        let extra_place = b.build().unwrap();
        assert_ne!(base, structural_fingerprint(&extra_place));

        // Changed server semantics on a timed transition does, too.
        let mut b = PetriNetBuilder::new();
        let on = b.place("ON", 1);
        let off = b.place("OFF", 0);
        b.timed_delay("FAIL", 1000.0, ServerSemantics::Infinite).input(on).output(off).done();
        b.timed_delay("REPAIR", 10.0, ServerSemantics::Single).input(off).output(on).done();
        let semantics = b.build().unwrap();
        assert_ne!(base, structural_fingerprint(&semantics));
    }

    #[test]
    fn explore_from_counts_re_rates_and_fallbacks() {
        let base = simple(1000.0, 10.0);
        let opts = ReachOptions::default();
        let mut stats = ExploreStats::default();

        let g = explore_from(&base, &opts, None, &mut stats).unwrap();
        assert_eq!(stats, ExploreStats { explorations: 1, re_rates: 0, fallbacks: 0 });

        // Rate-only sibling: re-rated, not re-explored.
        let sibling = simple(500.0, 5.0);
        let shared = Arc::clone(g.structure());
        let rerated = explore_from(&sibling, &opts, Some(&shared), &mut stats).unwrap();
        assert_eq!(stats, ExploreStats { explorations: 1, re_rates: 1, fallbacks: 0 });
        let fresh = explore(&sibling, &opts).unwrap();
        assert_eq!(generator_bits(&rerated), generator_bits(&fresh));

        // Structural sibling (extra transition): falls back to exploration.
        let mut b = PetriNetBuilder::new();
        let on = b.place("ON", 1);
        let off = b.place("OFF", 0);
        b.timed_delay("FAIL", 1000.0, ServerSemantics::Single).input(on).output(off).done();
        b.timed_delay("REPAIR", 10.0, ServerSemantics::Single).input(off).output(on).done();
        b.timed_delay("RESET", 99.0, ServerSemantics::Single).input(off).output(on).done();
        let changed = b.build().unwrap();
        let g2 = explore_from(&changed, &opts, Some(&shared), &mut stats).unwrap();
        assert_eq!(stats, ExploreStats { explorations: 1, re_rates: 1, fallbacks: 1 });
        assert_eq!(g2.num_states(), 2);

        // Direct re_rate on a mismatched net is an error, not a fallback.
        let err = shared.re_rate(&changed).unwrap_err();
        assert!(matches!(err, PetriError::StructureMismatch { .. }), "{err}");
    }

    #[test]
    fn token_conservation_in_reachable_states() {
        // Closed net: total tokens constant across all tangible states.
        let mut b = PetriNetBuilder::new();
        let p1 = b.place("P1", 2);
        let p2 = b.place("P2", 1);
        let p3 = b.place("P3", 0);
        b.timed("A", 1.0, ServerSemantics::Infinite).input(p1).output(p2).done();
        b.timed("B", 2.0, ServerSemantics::Infinite).input(p2).output(p3).done();
        b.timed("C", 3.0, ServerSemantics::Infinite).input(p3).output(p1).done();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        for m in g.states() {
            let total: u32 = m.iter().sum();
            assert_eq!(total, 3);
        }
        // C(3+2,2) = 10 distributions of 3 tokens over 3 places.
        assert_eq!(g.num_states(), 10);
    }
}
