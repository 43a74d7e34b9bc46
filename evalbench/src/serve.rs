//! `serve_mixed`: open-loop `POST /v2/evaluate` traffic against an
//! in-process server.
//!
//! Why this workload: it is the service's real traffic shape. About 85 %
//! of requests hit a hot set warmed during set-up (about 1 ms), about 12 %
//! are first-sight small specs of the dr/spare tiers (about 5 ms) and
//! about 3 % are first-sight aa-tier specs (4,350 states, about 0.3 s).
//! Some aa requests are sent again while the first solve is still running,
//! to exercise single-flight joins. Reads (hits) run beside writes (solves
//! and cache inserts) in the same cache, and a 0.3 s miss holds one of the
//! two workers, so hit latency shows queueing. Every miss re-explores,
//! because the structure registry lives only for one batch: a
//! fingerprint-keyed structure cache would show here and nowhere else.
//!
//! The seed drives the arrival schedule, the request mix and the α and
//! disaster-year values of every first-sight spec (distinct, so every
//! miss has a new cache key). The server runs two workers; the generator
//! is one thread with two connection slots, one connection per request:
//! kept-alive connections stall on the server's delayed-ACK interaction
//! (see `evalbench/README.md`), which the traced run reports on its own.

use crate::gen::{self, Answer, Observed, Planned};
use crate::spans::Recorder;
use crate::{core_counters, rss, stats, write_spans, Args, Outcome};
use dtc_core::analysis::AnalysisReport;
use dtc_core::CloudModel;
use dtc_engine::hash::key_of_encoding;
use dtc_engine::value::Value;
use dtc_engine::{
    canonical_encoding_with, parse_analyses, results_to_value, run_batch, Catalog, EvalCache,
    RunOptions, Scenario,
};
use dtc_serve::{ServeConfig, Server};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered rate of the fixed-rate phase, requests per second: the two
/// workers are about 40 % busy handling requests at this rate on the
/// reference machine (the run prints the share); near 50 % the waits
/// behind aa solves start to decide the medians, which then swing from run
/// to run.
pub const RATE_RPS: f64 = 50.0;
/// Offered rate and length of the traced run's keep-alive phase.
const KEEPALIVE_RPS: f64 = 20.0;
const KEEPALIVE_S: f64 = 5.0;
/// Latency limit for `sustained_rps`, on the tail percentile of a step.
pub const LIMIT_MS: f64 = 1_000.0;
/// A step's backlog grows when the mean number of requests queued or in
/// flight over its second half exceeds that over its first half by more
/// than arrive in this long at its offered rate.
pub const BACKLOG_S: f64 = 0.25;
/// Steps of the `sustained_rps` ladder: offered rates 5 % apart, from 10
/// to about 600 requests per second ([`ladder_rps`]).
pub const LADDER_STEPS: usize = 85;

/// Offered rate of ladder step `k`, requests per second.
pub fn ladder_rps(k: usize) -> f64 {
    (10.0 * 1.05f64.powi(k as i32) * 10.0).round() / 10.0
}
/// Length of one ladder step, seconds.
const STEP_S: f64 = 4.0;
/// Server workers and client connections (the machine has two cores).
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Request mix, per block of 100 consecutive requests (shuffled within
/// the block): hot requests, then first-sight spare, dr and aa requests.
/// Exact counts per block keep a short step from drawing an unusual mix.
const BLOCK: [(Kind, usize); 4] = [
    (Kind::Hot, 85),
    (Kind::FirstSight(Tier::Spare), 6),
    (Kind::FirstSight(Tier::Dr), 6),
    (Kind::FirstSight(Tier::Aa), 3),
];
/// The first aa request of each block is sent a second time this long
/// after, while the first is still solving. A join holds a worker for the
/// whole solve, so joining every aa request would keep both workers busy
/// with one spec.
const JOIN_DELAY_S: f64 = 0.02;
/// The generator may write a request at most this late (p99) for a run
/// to count as valid.
const MAX_LATE_MS: f64 = 10.0;
const SETUP_SAMPLES: usize = 3;
/// The analyses every request asks for.
const ANALYSES: [&str; 2] = ["steady_state", "mttsf"];

/// Model tier of a request's spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One site, hot + warm PM (25 states).
    Spare,
    /// Two sites, hot | warm, backup server (216 states).
    Dr,
    /// Two sites, hot + warm on both sides (4,350 states).
    Aa,
}

/// A slot of the request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    FirstSight(Tier),
}

/// What a request is expected to do to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Its spec is in the hot set, cached during set-up.
    Hot,
    /// First sight of its spec.
    Miss,
    /// A repeat of a first-sight spec sent while that one may still solve.
    Join,
}

/// One distinct request body.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Model tier.
    pub tier: Tier,
    /// The `POST /v2/evaluate` JSON body.
    pub body: String,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Due time, seconds after the phase starts.
    pub due_s: f64,
    /// Index into the spec table.
    pub spec: usize,
    /// Expected cache behaviour.
    pub class: Class,
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named stream.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.f64() * n as f64) as usize).min(n - 1)
    }
}

fn tier_toml(tier: Tier, alpha: f64, years: f64) -> String {
    let dc = |site: &str, pools: &str| {
        format!(
            "[[scenario.dc]]\nsite = \"{site}\"\n{pools}vms_per_pm = 1\npm_capacity = 1\n\
             nas_net = false\n"
        )
    };
    let (hot, warm, both) = ("hot_pms = 1\n", "warm_pms = 1\n", "hot_pms = 1\nwarm_pms = 1\n");
    let two_site = |name: &str, second: String| {
        format!(
            "[[scenario]]\nname = \"{name}\"\nkind = \"custom\"\nmin_running_vms = 1\n\
             alpha = {alpha:?}\ndisaster_years = {years:?}\nbackup_site = \"Sao Paulo\"\n{}{second}",
            dc("Rio de Janeiro", if name == "aa" { both } else { hot })
        )
    };
    let scenario = match tier {
        Tier::Spare => format!(
            "[[scenario]]\nname = \"spare\"\nkind = \"custom\"\nmin_running_vms = 1\n\
             disaster_years = {years:?}\n[[scenario.dc]]\nsite = \"Rio de Janeiro\"\n\
             hot_pms = 1\nwarm_pms = 1\nvms_per_pm = 1\npm_capacity = 1\nbackup_link = false\n"
        ),
        Tier::Dr => two_site("dr", dc("Brasilia", warm)),
        Tier::Aa => two_site("aa", dc("Brasilia", both)),
    };
    format!("[catalog]\nname = \"serve_mixed\"\n\n{scenario}")
}

/// The `POST /v2/evaluate` body for one spec.
pub fn request_body(tier: Tier, alpha: f64, years: f64) -> String {
    let catalog = Catalog::from_toml_str(&tier_toml(tier, alpha, years))
        .expect("serve_mixed tier catalog parses");
    let analyses = Value::Array(ANALYSES.iter().map(|a| Value::Str(a.to_string())).collect());
    Value::object([("catalog", catalog.to_value()), ("analyses", analyses)]).to_json()
}

/// The hot set: 16 small specs, the same for every seed.
fn hot_set() -> Vec<(Tier, f64, f64)> {
    let years = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0];
    let spare = years.iter().map(|&y| (Tier::Spare, 0.5, y));
    let dr = [0.4, 0.55, 0.7, 0.85]
        .iter()
        .flat_map(|&a| [(Tier::Dr, a, 200.0), (Tier::Dr, a, 800.0)]);
    spare.chain(dr).collect()
}

/// Specs and schedules of one run; first-sight specs are appended as
/// schedules are drawn, each with α and disaster years never used before.
pub struct Traffic {
    seed: u64,
    /// Every distinct body; the first `hot` are the hot set.
    pub specs: Vec<Spec>,
    /// Size of the hot set.
    pub hot: usize,
    /// (tier, α, disaster years) of every spec so far.
    used: HashSet<(u8, u64, u64)>,
}

impl Traffic {
    /// The hot set for a seed, with no first-sight specs yet.
    pub fn new(seed: u64) -> Traffic {
        let mut traffic = Traffic { seed, specs: Vec::new(), hot: 0, used: HashSet::new() };
        for (tier, alpha, years) in hot_set() {
            traffic.add(tier, alpha, years);
        }
        traffic.hot = traffic.specs.len();
        traffic
    }

    /// Adds a spec unless one with the same values exists; returns whether
    /// it was added.
    fn add(&mut self, tier: Tier, alpha: f64, years: f64) -> bool {
        // α does not enter a one-site spec.
        let alpha = if tier == Tier::Spare { 0.0 } else { alpha };
        if !self.used.insert((tier as u8, alpha.to_bits(), years.to_bits())) {
            return false;
        }
        self.specs.push(Spec { tier, body: request_body(tier, alpha, years) });
        true
    }

    fn first_sight(&mut self, rng: &mut Rng, tier: Tier) -> usize {
        loop {
            // α in [0.2, 0.95] to 6 decimals, one disaster per 50 to 5,000
            // years to 3 decimals: fresh values give a fresh cache key.
            let alpha = ((0.2 + 0.75 * rng.f64()) * 1e6).round() / 1e6;
            let years = ((50.0 + 4950.0 * rng.f64()) * 1e3).round() / 1e3;
            if self.add(tier, alpha, years) {
                return self.specs.len() - 1;
            }
        }
    }

    /// A Poisson arrival schedule at `rate` for `seconds`, drawn from the
    /// named stream of the seed, with the mix of [`BLOCK`].
    pub fn schedule(&mut self, stream: u64, rate: f64, seconds: f64) -> Vec<Entry> {
        let mut rng = Rng::new(self.seed, stream);
        let mut entries = Vec::new();
        let mut block: Vec<Kind> = Vec::new();
        let mut joined_in_block = false;
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.f64()).ln() / rate;
            if t >= seconds {
                break;
            }
            if block.is_empty() {
                block =
                    BLOCK.iter().flat_map(|&(kind, n)| std::iter::repeat_n(kind, n)).collect();
                joined_in_block = false;
            }
            let kind = block.swap_remove(rng.below(block.len()));
            match kind {
                Kind::Hot => {
                    let spec = rng.below(self.hot);
                    entries.push(Entry { due_s: t, spec, class: Class::Hot });
                }
                Kind::FirstSight(tier) => {
                    let spec = self.first_sight(&mut rng, tier);
                    entries.push(Entry { due_s: t, spec, class: Class::Miss });
                    if tier == Tier::Aa && !joined_in_block {
                        joined_in_block = true;
                        entries.push(Entry {
                            due_s: t + JOIN_DELAY_S,
                            spec,
                            class: Class::Join,
                        });
                    }
                }
            }
        }
        entries.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
        entries
    }

    fn planned(&self, entries: &[Entry], keep_alive: bool) -> Vec<Planned> {
        entries
            .iter()
            .map(|e| Planned {
                due_s: e.due_s,
                bytes: gen::post("/v2/evaluate", &self.specs[e.spec].body, keep_alive),
            })
            .collect()
    }
}

/// Stream ids of the seed's schedules.
const FIXED_STREAM: u64 = 1;
const TRACED_STREAM: u64 = 2;
const KEEPALIVE_STREAM: u64 = 3;
const LADDER_STREAM: u64 = 100;

/// A started server with its hot set warmed.
struct Ready {
    server: Server,
    traffic: Traffic,
    fixed: Vec<Entry>,
}

fn setup(seed: u64, fixed_seconds: f64) -> Ready {
    let mut traffic = Traffic::new(seed);
    let fixed = traffic.schedule(FIXED_STREAM, RATE_RPS, fixed_seconds);
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: WORKERS,
        eval_threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(&config).expect("in-process server starts");
    for spec in &traffic.specs[..traffic.hot] {
        let answer =
            gen::request_once(server.addr(), &gen::post("/v2/evaluate", &spec.body, false))
                .expect("hot-set warm-up request");
        assert_eq!(answer.status, 200, "hot-set warm-up failed");
    }
    Ready { server, traffic, fixed }
}

/// Sets up `samples` times, stopping all but the last server, and
/// returns the last set-up with every sample's time.
fn timed_setups(seed: u64, fixed_seconds: f64, samples: usize) -> (Ready, Vec<f64>) {
    let mut times = Vec::with_capacity(samples);
    let mut last: Option<Ready> = None;
    for _ in 0..samples {
        if let Some(previous) = last.take() {
            previous.server.shutdown().expect("set-up server stops");
        }
        let t = Instant::now();
        last = Some(setup(seed, fixed_seconds));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Cache counters read over HTTP.
#[derive(Debug, Clone, Copy, Default)]
struct CacheCounts {
    hits: i64,
    misses: i64,
    joins: i64,
    evictions: i64,
    candidates: i64,
    distinct: i64,
}

fn cache_counts(addr: SocketAddr) -> CacheCounts {
    let answer = gen::get(addr, "/v1/stats").expect("GET /v1/stats");
    let doc = Value::from_json(std::str::from_utf8(&answer.body).expect("UTF-8 stats"))
        .expect("stats parse");
    let field = |name: &str| {
        doc.get("cache").and_then(|c| c.get(name)).and_then(Value::as_i64).unwrap_or(0)
    };
    CacheCounts {
        hits: field("hits"),
        misses: field("misses"),
        joins: field("joins"),
        evictions: field("evictions"),
        candidates: field("batch_candidates"),
        distinct: field("batch_distinct"),
    }
}

/// Summed server-side handling time of `POST /v2/evaluate` so far, seconds.
fn handle_seconds(addr: SocketAddr) -> f64 {
    let scrape = gen::get(addr, "/metrics").expect("GET /metrics").body;
    scrape_value(&String::from_utf8_lossy(&scrape), HANDLE_SUM)
}

const HANDLE_SUM: &str = "dtc_http_request_seconds_sum{route=\"/v2/evaluate\"}";
const HANDLE_COUNT: &str = "dtc_http_request_seconds_count{route=\"/v2/evaluate\"}";
const KEEPALIVE_REUSE: &str = "dtc_http_keepalive_reuse_total";

/// A sample's value from a Prometheus text scrape (0 when absent).
pub fn scrape_value(text: &str, series: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(series).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The deterministic part of a `/v2/evaluate` body for one cache state,
/// rendered in-process: everything before `"summary"`, which (with
/// `"timings"`) holds the run's timings.
fn expected_prefix(
    catalog: &Catalog,
    analyses: &[String],
    scenarios: &[Scenario],
    result: &dtc_engine::BatchResult,
) -> String {
    let doc = Value::object([
        ("analyses", Value::Array(analyses.iter().map(|a| Value::Str(a.clone())).collect())),
        ("catalog", Value::Str(catalog.name.clone())),
        ("results", results_to_value(scenarios, &result.outcomes)),
    ])
    .to_json();
    let mut prefix = doc[..doc.len() - 1].to_string();
    prefix.push_str(",\"summary\":");
    prefix
}

/// One body replayed in-process the way the server handles it.
struct Replayed {
    /// Expected body prefix when this request solved the spec.
    solved: String,
    /// Expected body prefix when the spec was already cached.
    cached: String,
}

fn parse_request(body: &str) -> (Catalog, Vec<dtc_core::analysis::AnalysisRequest>) {
    let root = Value::from_json(body).expect("request body parses");
    let catalog = Catalog::from_value(root.get("catalog").expect("envelope")).expect("catalog");
    let analyses =
        parse_analyses(root.get("analyses").expect("analyses")).expect("analyses parse");
    (catalog, analyses)
}

fn replay_body(body: &str) -> Replayed {
    let cache = Arc::new(EvalCache::in_memory());
    let (catalog, analyses) = parse_request(body);
    let scenarios = catalog.expand().expect("request expands");
    let kinds: Vec<String> = analyses.iter().map(|a| a.kind().to_string()).collect();
    let opts = RunOptions { threads: 1, analyses, ..RunOptions::default() };
    let first = run_batch(&scenarios, &cache, &opts);
    let solved = expected_prefix(&catalog, &kinds, &scenarios, &first);
    let again = run_batch(&scenarios, &cache, &opts);
    Replayed { solved, cached: expected_prefix(&catalog, &kinds, &scenarios, &again) }
}

/// Replays every listed spec in-process on the workload's two threads.
fn replay_all(traffic: &Traffic, specs: &[usize]) -> HashMap<usize, Replayed> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(HashMap::with_capacity(specs.len()));
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&spec) = specs.get(i) else { break };
                let replayed = replay_body(&traffic.specs[spec].body);
                out.lock().expect("replay mutex poisoned").insert(spec, replayed);
            });
        }
    });
    out.into_inner().expect("replay mutex poisoned")
}

/// How one answer compared with its in-process replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// 200 and byte-equal to the render of a request that solved.
    Solved,
    /// 200 and byte-equal to the render of a request answered from cache.
    Cached,
    /// No answer, another status, or a body equal to neither render.
    Wrong,
}

fn verdict(answer: Option<&Answer>, replayed: &Replayed) -> Verdict {
    let Some(a) = answer.filter(|a| a.status == 200) else { return Verdict::Wrong };
    if a.body.starts_with(replayed.solved.as_bytes()) {
        Verdict::Solved
    } else if a.body.starts_with(replayed.cached.as_bytes()) {
        Verdict::Cached
    } else {
        Verdict::Wrong
    }
}

/// Checks a phase's classification: hot requests were answered from the
/// cache, and each first-sight spec was solved by exactly one of the
/// requests that carried it. Returns the number of misses (solved
/// verdicts) and hits (cached verdicts), or a description of the first
/// mismatch.
pub fn classify(entries: &[Entry], verdicts: &[Verdict]) -> Result<(usize, usize), String> {
    let mut solved_per_spec: HashMap<usize, usize> = HashMap::new();
    let (mut misses, mut hits) = (0, 0);
    for (e, v) in entries.iter().zip(verdicts) {
        match (e.class, v) {
            (_, Verdict::Wrong) => {
                return Err(format!("request for spec {} answered wrongly", e.spec))
            }
            (Class::Hot, Verdict::Solved) => {
                return Err(format!("hot spec {} was solved, not served from cache", e.spec))
            }
            (Class::Hot, Verdict::Cached) => hits += 1,
            (_, Verdict::Solved) => {
                misses += 1;
                *solved_per_spec.entry(e.spec).or_default() += 1;
            }
            (_, Verdict::Cached) => {
                hits += 1;
                solved_per_spec.entry(e.spec).or_default();
            }
        }
    }
    match solved_per_spec.iter().find(|(_, &n)| n != 1) {
        Some((spec, n)) => Err(format!("first-sight spec {spec} was solved {n} times")),
        None => Ok((misses, hits)),
    }
}

/// One open-loop phase and its verdicts.
struct Phase {
    entries: Vec<Entry>,
    observed: Observed,
}

fn run_phase(ready: &Ready, entries: Vec<Entry>, give_up: Option<usize>) -> Phase {
    run_phase_with(ready, entries, false, give_up)
}

fn run_phase_with(
    ready: &Ready,
    entries: Vec<Entry>,
    keep_alive: bool,
    give_up: Option<usize>,
) -> Phase {
    let planned = ready.traffic.planned(&entries, keep_alive);
    let addr = ready.server.addr();
    let drain = Duration::from_secs(30);
    let observed = gen::run(addr, &planned, CONNECTIONS, keep_alive, drain, give_up)
        .expect("load generator connects");
    Phase { entries, observed }
}

fn verdicts(phase: &Phase, replayed: &HashMap<usize, Replayed>) -> Vec<Verdict> {
    phase
        .entries
        .iter()
        .zip(&phase.observed.answers)
        .map(|(e, a)| match a {
            Some(a) => verdict(Some(a), &replayed[&e.spec]),
            None => Verdict::Wrong,
        })
        .collect()
}

fn latencies(phase: &Phase, class: Option<Class>) -> Vec<f64> {
    phase
        .entries
        .iter()
        .zip(&phase.observed.latency_ms)
        .filter(|(e, _)| class.is_none_or(|c| e.class == c))
        .map(|(_, &l)| l)
        .collect()
}

/// Runs one ladder step; returns whether it met the limit without a
/// growing backlog, with the step's phase.
fn ladder_step(ready: &mut Ready, step: usize) -> (bool, Phase) {
    let rate = ladder_rps(step);
    let entries = ready.traffic.schedule(LADDER_STREAM + step as u64, rate, STEP_S);
    // Far past anything a passing step queues, the step has failed: stop
    // sending.
    let give_up = (rate * LIMIT_MS / 1e3).ceil() as usize + CONNECTIONS;
    let phase = run_phase(ready, entries, Some(give_up));
    let (tail, pct) = stats::tail(&phase.observed.latency_ms);
    let growth = backlog_growth(&phase);
    let ok = phase.observed.abandoned == 0 && tail <= LIMIT_MS && growth <= rate * BACKLOG_S;
    eprintln!(
        "ladder: {rate} rps: {} requests, p{pct} {tail:.1} ms, backlog grew by {growth:.1}, {} \
         abandoned: {}",
        phase.entries.len(),
        phase.observed.abandoned,
        if ok { "meets the limit" } else { "over the limit" }
    );
    (ok, phase)
}

/// How much the mean backlog over the second half of a step's due times
/// exceeds that over the first half.
fn backlog_growth(phase: &Phase) -> f64 {
    let backlog = &phase.observed.backlog_at_due;
    let half = STEP_S / 2.0;
    let mean = |first: bool| {
        let v: Vec<f64> = phase
            .entries
            .iter()
            .zip(backlog)
            .filter(|(e, _)| (e.due_s < half) == first)
            .map(|(_, &b)| b as f64)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    mean(false) - mean(true)
}

/// Finds the highest ladder step that meets the limit, assuming every step
/// below a passing one passes. The search starts at `guess` and gallops
/// away from it before bisecting, so a good guess costs few steps.
fn sustained(ready: &mut Ready, guess: usize) -> (f64, Vec<Phase>) {
    let mut phases = Vec::new();
    let mut test = |k: usize, phases: &mut Vec<Phase>| {
        let (ok, phase) = ladder_step(ready, k);
        phases.push(phase);
        ok
    };
    // Invariant once bracketed: step `lo` passes (or lo = None), step `hi`
    // fails (or hi = LADDER_STEPS).
    let guess = guess.min(LADDER_STEPS - 1);
    let (mut lo, mut hi): (Option<usize>, usize);
    if test(guess, &mut phases) {
        lo = Some(guess);
        hi = LADDER_STEPS;
        let mut stride = 1;
        while guess + stride < LADDER_STEPS {
            if !test(guess + stride, &mut phases) {
                hi = guess + stride;
                break;
            }
            lo = Some(guess + stride);
            stride *= 2;
        }
    } else {
        lo = None;
        hi = guess;
        let mut stride = 1;
        while stride <= guess {
            if test(guess - stride, &mut phases) {
                lo = Some(guess - stride);
                break;
            }
            hi = guess - stride;
            stride *= 2;
        }
    }
    // Bisect strictly between lo and hi.
    while let Some(l) = lo {
        if l + 1 >= hi {
            break;
        }
        let mid = (l + hi) / 2;
        if test(mid, &mut phases) {
            lo = Some(mid);
        } else {
            hi = mid;
        }
    }
    match lo {
        Some(l) => (ladder_rps(l), phases),
        None => {
            eprintln!("ladder: even {} rps misses the limit", ladder_rps(0));
            (ladder_rps(0), phases)
        }
    }
}

/// The ladder step to start from: the highest at or under the rate at
/// which the fixed phase's connections would be busy all the time.
fn ladder_guess(busy_share: f64) -> usize {
    let saturation = RATE_RPS / busy_share.max(1e-3);
    (0..LADDER_STEPS).rev().find(|&k| ladder_rps(k) <= saturation).unwrap_or(0)
}

/// The specs a set of phases got answers for, each once, in order.
fn specs_of<'a>(phases: impl IntoIterator<Item = &'a Phase>) -> Vec<usize> {
    let mut seen = HashSet::new();
    phases
        .into_iter()
        .flat_map(|p| p.entries.iter().zip(&p.observed.answers))
        .filter(|(_, a)| a.is_some())
        .map(|(e, _)| e.spec)
        .filter(|s| seen.insert(*s))
        .collect()
}

/// The untraced end-to-end run.
pub fn run(args: &Args) -> Outcome {
    let (mut ready, mut setup_s) = timed_setups(args.seed, args.seconds, SETUP_SAMPLES);
    let addr = ready.server.addr();
    let before = cache_counts(addr);
    let busy0 = handle_seconds(addr);
    let entries = std::mem::take(&mut ready.fixed);
    let fixed = run_phase(&ready, entries, None);
    let utilization = (handle_seconds(addr) - busy0) / (WORKERS as f64 * fixed.observed.wall_s);
    let after = cache_counts(addr);
    // The service's own peak: before the ladder's variable number of steps
    // and the benchmark's replays add to it.
    let peak_rss_mb = rss::peak_rss_mb();
    let (sustained_rps, steps) = sustained(&mut ready, ladder_guess(fixed.observed.busy_share));
    ready.server.shutdown().expect("server stops");
    // More set-up samples at the end, so the median covers the run rather
    // than its first moments.
    let (last, more) = timed_setups(args.seed, args.seconds, SETUP_SAMPLES - 1);
    last.server.shutdown().expect("set-up server stops");
    setup_s.extend(more);

    let all: Vec<&Phase> = std::iter::once(&fixed).chain(&steps).collect();
    let replayed = replay_all(&ready.traffic, &specs_of(all.iter().copied()));
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let fixed_verdicts = verdicts(&fixed, &replayed);
    for (k, phase) in all.iter().enumerate() {
        let v = verdicts(phase, &replayed);
        let wrong = v.iter().filter(|&&v| v == Verdict::Wrong).count();
        // Abandoned overload-step requests were never sent; every request
        // that was sent must be answered correctly.
        if wrong > phase.observed.abandoned {
            problems.push(format!(
                "phase {k}: {} wrong or failed answers",
                wrong - phase.observed.abandoned
            ));
        }
        if k > 0 {
            continue;
        }
        failed = wrong as u64;
        // The fixed phase's classification must agree with the cache's
        // own counters.
        match classify(&phase.entries, &v) {
            Ok(counted) => {
                let d = (
                    (after.misses - before.misses) as usize,
                    (after.hits - before.hits) as usize,
                );
                if d != counted {
                    problems.push(format!(
                        "cache counted {} misses and {} hits; the bodies say {} and {}",
                        d.0, d.1, counted.0, counted.1
                    ));
                }
            }
            Err(e) => problems.push(format!("fixed phase: {e}")),
        }
    }
    let late = stats::tail(&fixed.observed.late_ms).0;
    if late > MAX_LATE_MS {
        problems.push(format!("generator fell behind: {late:.2} ms late at the tail"));
    }
    for p in &problems {
        eprintln!("serve_mixed: {p}");
    }

    // The server's own time for the requests that solved a spec.
    let solved_s = |tier: Option<Tier>| -> Vec<f64> {
        fixed
            .entries
            .iter()
            .zip(&fixed.observed.answers)
            .zip(&fixed_verdicts)
            .filter(|((e, _), &v)| {
                v == Verdict::Solved
                    && tier.is_none_or(|t| ready.traffic.specs[e.spec].tier == t)
            })
            .filter_map(|((_, a), _)| a.as_ref()?.handle_us.map(|us| us as f64 * 1e-6))
            .collect()
    };
    let (cold_all, cold_aa) = (solved_s(None), solved_s(Some(Tier::Aa)));
    let all_ms = latencies(&fixed, None);
    let hit_ms = latencies(&fixed, Some(Class::Hot));
    let miss_ms = latencies(&fixed, Some(Class::Miss));
    let (p_all, pct_all) = stats::tail(&all_ms);
    let (p_hit, pct_hit) = stats::tail(&hit_ms);
    eprintln!(
        "serve_mixed: {} requests at {RATE_RPS} rps ({} hot, {} first-sight), connections {:.1} % \
         busy, workers {:.1} % busy handling, p99_ms is p{pct_all}, hit_p99_ms is p{pct_hit}; {} \
         ladder steps; generator tail lateness {late:.3} ms; {} aa solves in the fixed phase",
        all_ms.len(),
        hit_ms.len(),
        miss_ms.len(),
        100.0 * fixed.observed.busy_share,
        100.0 * utilization,
        steps.len(),
        cold_aa.len()
    );
    let nonempty = |v: Vec<f64>| if v.is_empty() { vec![f64::INFINITY] } else { v };
    Outcome {
        correct: problems.is_empty(),
        attempted: fixed.entries.len() as u64,
        failed,
        metrics: vec![
            ("setup_s", stats::median(&setup_s), "s"),
            ("solve_s", stats::median(&nonempty(cold_aa)), "s"),
            ("search_s", stats::median(&nonempty(cold_all)), "s"),
            ("p50_ms", stats::median(&all_ms), "ms"),
            ("p99_ms", p_all, "ms"),
            ("hit_p99_ms", p_hit, "ms"),
            ("miss_p50_ms", stats::median(&nonempty(miss_ms)), "ms"),
            ("sustained_rps", sustained_rps, "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ],
    }
}

/// The traced pass: an untraced fixed-rate phase for reference, a second
/// phase with client spans and server counters read around it, then that
/// phase's requests replayed in-process layer by layer.
pub fn trace(args: &Args) -> Outcome {
    let half = args.seconds / 2.0;
    let mut ready = setup(args.seed, half);
    let addr = ready.server.addr();
    let entries = std::mem::take(&mut ready.fixed);
    let untraced = run_phase(&ready, entries, None);

    let traced_entries = ready.traffic.schedule(TRACED_STREAM, RATE_RPS, half);
    let scrape0 = gen::get(addr, "/metrics").expect("GET /metrics").body;
    let counts0 = cache_counts(addr);
    let (explorations0, re_rates0, fallbacks0) = core_counters();
    let traced = run_phase(&ready, traced_entries, None);
    let (explorations1, re_rates1, fallbacks1) = core_counters();
    let scrape1 = gen::get(addr, "/metrics").expect("GET /metrics").body;
    let counts1 = cache_counts(addr);
    // The same traffic over kept-alive connections, at a rate they carry.
    let keepalive_entries =
        ready.traffic.schedule(KEEPALIVE_STREAM, KEEPALIVE_RPS, KEEPALIVE_S);
    let keepalive = run_phase_with(&ready, keepalive_entries, true, None);
    let scrape2 = gen::get(addr, "/metrics").expect("GET /metrics").body;
    ready.server.shutdown().expect("server stops");

    let origin = traced.observed.started;
    let mut rec = Recorder::new(origin);
    for (i, (e, &ms)) in traced.entries.iter().zip(&traced.observed.latency_ms).enumerate() {
        if ms.is_finite() {
            let due = origin + Duration::from_secs_f64(e.due_s);
            rec.record("serve.request", i, due, due + Duration::from_secs_f64(ms / 1e3));
        }
    }

    // Every answer of all three phases against its in-process replay.
    let traffic = &ready.traffic;
    let mut problems = Vec::new();
    let replayed = replay_all(traffic, &specs_of([&untraced, &traced, &keepalive]));
    for (name, phase) in
        [("untraced", &untraced), ("traced", &traced), ("keep-alive", &keepalive)]
    {
        if let Err(e) = classify(&phase.entries, &verdicts(phase, &replayed)) {
            problems.push(format!("{name} phase: {e}"));
        }
    }

    // The traced phase replayed in-process in send order, on a cache in
    // the server's state (hot set warmed), timing each request's layers.
    let cache = Arc::new(EvalCache::in_memory());
    let mut keys = Vec::new();
    for spec in &traffic.specs[..traffic.hot] {
        let (catalog, analyses) = parse_request(&spec.body);
        let scenarios = catalog.expand().expect("request expands");
        let opts =
            RunOptions { threads: 1, analyses: analyses.clone(), ..RunOptions::default() };
        run_batch(&scenarios, &cache, &opts);
        let canonical = canonical_encoding_with(&scenarios[0].spec, &opts.eval, &analyses);
        keys.push((key_of_encoding(&canonical), canonical));
    }
    for (i, e) in traced.entries.iter().enumerate() {
        rec.set_op(i);
        let body = &traffic.specs[e.spec].body;
        rec.span("serve.inprocess", |rec| {
            let (catalog, analyses, scenarios) = rec.span("engine.expand", |_| {
                let (catalog, analyses) = parse_request(body);
                let scenarios = catalog.expand().expect("request expands");
                (catalog, analyses, scenarios)
            });
            let opts =
                RunOptions { threads: 1, analyses: analyses.clone(), ..RunOptions::default() };
            rec.span("engine.key", |_| {
                let canonical =
                    canonical_encoding_with(&scenarios[0].spec, &opts.eval, &analyses);
                std::hint::black_box(key_of_encoding(&canonical));
            });
            let result = rec.span("engine.batch", |_| run_batch(&scenarios, &cache, &opts));
            let kinds: Vec<String> = analyses.iter().map(|a| a.kind().to_string()).collect();
            rec.span("engine.render", |_| {
                std::hint::black_box(expected_prefix(&catalog, &kinds, &scenarios, &result))
            });
        });
    }

    // Layer by layer for the traced phase's first-sight specs.
    let mut states = Vec::new();
    let mut edges = Vec::new();
    let mut iterations = Vec::new();
    let mut residual: f64 = 0.0;
    let mut rss_growth: f64 = 0.0;
    let first_sight: Vec<usize> =
        specs_of([&traced]).into_iter().filter(|&s| s >= traffic.hot).collect();
    for (k, &s) in first_sight.iter().enumerate() {
        rec.set_op(traced.entries.len() + k);
        let (catalog, analyses) = parse_request(&traffic.specs[s].body);
        let scenarios = catalog.expand().expect("request expands");
        let eval = RunOptions::default().eval;
        let model =
            rec.span("core.build", |_| CloudModel::build(&scenarios[0].spec).expect("builds"));
        let rss_before = rss::rss_mb();
        let graph = rec.span("petri.explore", |_| model.state_space(&eval).expect("explores"));
        rss_growth = rss_growth.max(rss::rss_mb() - rss_before);
        let solution = rec.span("markov.stationary", |_| {
            graph.solve_with(eval.method, &eval.solver).expect("solves")
        });
        let mttsf = rec.span("markov.mttsf", |_| {
            model.mean_time_to_service_failure(&graph).expect("mttsf")
        });
        // The replayed answer must match the cached one.
        let key = canonical_encoding_with(&scenarios[0].spec, &eval, &analyses);
        let reports = cache.get(&key_of_encoding(&key), &key).expect("replayed spec is cached");
        let same = reports.iter().all(|r| match r {
            AnalysisReport::SteadyState(a) => {
                a.availability == solution.probability(&model.availability_expr())
            }
            AnalysisReport::Mttsf { hours } => *hours == mttsf,
            _ => true,
        });
        if !same {
            problems
                .push(format!("layer-by-layer replay of spec {s} disagrees with run_batch"));
        }
        states.push(graph.num_states() as f64);
        edges.push(graph.stats().edges as f64);
        iterations.push(solution.stats().iterations as f64);
        residual = residual.max(solution.stats().residual);
    }
    let mut get_ms = Vec::new();
    for _ in 0..50 {
        for (key, canonical) in &keys {
            let t = Instant::now();
            std::hint::black_box(cache.get(key, canonical));
            get_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    write_spans("serve_mixed", &rec);
    for p in &problems {
        eprintln!("serve_mixed: {p}");
    }

    let text0 = String::from_utf8_lossy(&scrape0).into_owned();
    let text1 = String::from_utf8_lossy(&scrape1).into_owned();
    let delta = |series: &str| scrape_value(&text1, series) - scrape_value(&text0, series);
    let handled = delta(HANDLE_COUNT);
    let handle_s = delta(HANDLE_SUM);
    let handle_ms = 1e3 * handle_s / handled.max(1.0);
    let client_ms: Vec<f64> =
        traced.observed.latency_ms.iter().copied().filter(|l| l.is_finite()).collect();
    let mean =
        |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let n_req = traced.entries.len().max(1) as f64;
    let n_miss = first_sight.len().max(1) as f64;
    let explore_s = rec.self_s("petri.explore");
    let explorations = (explorations1 - explorations0) as f64;
    let re_rates = (re_rates1 - re_rates0) as f64;
    let hits = (counts1.hits - counts0.hits) as f64;
    let misses = (counts1.misses - counts0.misses) as f64;
    let candidates = (counts1.candidates - counts0.candidates) as f64;
    let distinct = (counts1.distinct - counts0.distinct) as f64;
    let nonempty_median = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    eprintln!(
        "serve_mixed: traced phase {} requests, {} first-sight; workers busy {:.1} %",
        traced.entries.len(),
        first_sight.len(),
        100.0 * handle_s / (WORKERS as f64 * traced.observed.wall_s)
    );
    let metrics = vec![
        ("petri.explore_s", explore_s / n_miss, "s"),
        ("petri.states", mean(&states), "count"),
        ("petri.edges", mean(&edges), "count"),
        ("petri.states_per_s", states.iter().sum::<f64>() / explore_s.max(1e-9), "1/s"),
        ("petri.explore_rss_mb", rss_growth, "MB"),
        ("petri.re_rate_s", rec.self_s("petri.re_rate") / n_miss, "s"),
        ("markov.stationary_s", rec.self_s("markov.stationary") / n_miss, "s"),
        ("markov.stationary_iterations", mean(&iterations), "count"),
        ("markov.residual", residual, "1"),
        ("markov.mttsf_s", rec.self_s("markov.mttsf") / n_miss, "s"),
        ("markov.uniformized_build_s", 0.0, "s"),
        ("markov.march_s", 0.0, "s"),
        ("markov.truncation_k", 0.0, "count"),
        ("markov.march_bytes", 0.0, "bytes_computed"),
        ("core.build_ms", rec.self_s("core.build") * 1e3 / n_miss, "ms"),
        ("core.explorations", explorations, "count"),
        ("core.re_rates", re_rates, "count"),
        ("core.rerate_fallbacks", (fallbacks1 - fallbacks0) as f64, "count"),
        ("core.reuse_ratio", re_rates / (re_rates + explorations).max(1.0), "ratio"),
        ("engine.expand_ms", rec.self_s("engine.expand") * 1e3 / n_req, "ms"),
        ("engine.key_ms", rec.self_s("engine.key") * 1e3 / n_req, "ms"),
        ("engine.cache.get_ms", nonempty_median(&get_ms), "ms"),
        ("engine.cache.hits", hits, "count"),
        ("engine.cache.misses", misses, "count"),
        ("engine.cache.joins", (counts1.joins - counts0.joins) as f64, "count"),
        ("engine.cache.evictions", (counts1.evictions - counts0.evictions) as f64, "count"),
        ("engine.cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        (
            "engine.executor.busy_share",
            handle_s / (WORKERS as f64 * traced.observed.wall_s),
            "ratio",
        ),
        ("engine.executor.dedup_ratio", (candidates - distinct) / candidates.max(1.0), "ratio"),
        ("search.rank_ms", 0.0, "ms"),
        ("search.breakeven_s", 0.0, "s"),
        ("search.probe_evaluations", 0.0, "count"),
        ("serve.handle_ms", handle_ms, "ms"),
        ("serve.queue_wait_ms", mean(&client_ms) - handle_ms, "ms"),
        (
            "serve.http_overhead_ms",
            handle_ms - 1e3 * rec.total_s("serve.inprocess") / n_req,
            "ms",
        ),
        ("serve.sheds", delta("dtc_http_sheds_total"), "count"),
        (
            "serve.keepalive_reuse",
            scrape_value(&String::from_utf8_lossy(&scrape2), KEEPALIVE_REUSE)
                - scrape_value(&text1, KEEPALIVE_REUSE),
            "count",
        ),
        ("serve.keepalive_p50_ms", stats::median(&keepalive.observed.latency_ms), "ms"),
        ("serve.generator_late_ms", stats::tail(&traced.observed.late_ms).0, "ms"),
        (
            "obs.trace_overhead",
            stats::median(&traced.observed.latency_ms)
                - stats::median(&untraced.observed.latency_ms),
            "ms",
        ),
    ];
    Outcome {
        correct: problems.is_empty(),
        attempted: (untraced.entries.len() + traced.entries.len() + keepalive.entries.len())
            as u64,
        failed: problems.len() as u64,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_follow_the_seed() {
        let mut a = Traffic::new(7);
        let mut b = Traffic::new(7);
        let (sa, sb) = (a.schedule(1, 100.0, 5.0), b.schedule(1, 100.0, 5.0));
        assert_eq!(sa.len(), sb.len());
        assert!(sa.iter().zip(&sb).all(|(x, y)| x.due_s == y.due_s && x.spec == y.spec));
        assert_eq!(
            a.specs.iter().map(|s| &s.body).collect::<Vec<_>>(),
            b.specs.iter().map(|s| &s.body).collect::<Vec<_>>()
        );
        let mut c = Traffic::new(8);
        let sc = c.schedule(1, 100.0, 5.0);
        assert_ne!(c.specs[c.hot].body, a.specs[a.hot].body);
        assert!((400..600).contains(&sa.len()) && !sc.is_empty());
        // Every first-sight spec is new.
        let bodies: HashSet<&String> = a.specs.iter().map(|s| &s.body).collect();
        assert_eq!(bodies.len(), a.specs.len());
        let hot = sa.iter().filter(|e| e.class == Class::Hot).count() as f64 / sa.len() as f64;
        assert!((0.78..0.92).contains(&hot), "hot share {hot}");
    }

    #[test]
    fn scrape_values_are_read_by_series() {
        let text = "# TYPE x counter\ndtc_http_sheds_total 3\n\
                    dtc_http_request_seconds_sum{route=\"/v2/evaluate\"} 1.5\n";
        assert_eq!(scrape_value(text, "dtc_http_sheds_total"), 3.0);
        assert_eq!(
            scrape_value(text, "dtc_http_request_seconds_sum{route=\"/v2/evaluate\"}"),
            1.5
        );
        assert_eq!(scrape_value(text, "dtc_http_keepalive_reuse_total"), 0.0);
    }

    /// Hit/miss classification from the bodies agrees with the server's
    /// cache counters, on a small live schedule.
    #[test]
    fn classification_matches_the_cache_counters() {
        let mut traffic = Traffic::new(3);
        let mut rng = Rng::new(3, 9);
        let fresh: Vec<usize> =
            (0..3).map(|_| traffic.first_sight(&mut rng, Tier::Spare)).collect();
        let entries = vec![
            Entry { due_s: 0.00, spec: 0, class: Class::Hot },
            Entry { due_s: 0.01, spec: fresh[0], class: Class::Miss },
            Entry { due_s: 0.02, spec: 1, class: Class::Hot },
            Entry { due_s: 0.03, spec: fresh[1], class: Class::Miss },
            Entry { due_s: 0.03, spec: fresh[1], class: Class::Join },
            Entry { due_s: 0.04, spec: fresh[2], class: Class::Miss },
            Entry { due_s: 0.05, spec: 0, class: Class::Hot },
        ];
        let config =
            ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
        let server = Server::start(&config).unwrap();
        for spec in &traffic.specs[..2] {
            let a =
                gen::request_once(server.addr(), &gen::post("/v2/evaluate", &spec.body, false))
                    .unwrap();
            assert_eq!(a.status, 200);
        }
        let ready = Ready { server, traffic, fixed: Vec::new() };
        let before = cache_counts(ready.server.addr());
        let phase = run_phase(&ready, entries, None);
        let after = cache_counts(ready.server.addr());
        ready.server.shutdown().unwrap();
        let replayed = replay_all(&ready.traffic, &specs_of([&phase]));
        let v = verdicts(&phase, &replayed);
        let (misses, hits) = classify(&phase.entries, &v).unwrap();
        assert_eq!((misses, hits), (3, 4));
        assert_eq!(
            ((after.misses - before.misses) as usize, (after.hits - before.hits) as usize),
            (misses, hits)
        );
        // A wrong body is caught.
        let mut bad = v.clone();
        bad[0] = Verdict::Solved;
        assert!(classify(&phase.entries, &bad).is_err());
    }
}
