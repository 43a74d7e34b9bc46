//! End-to-end integration over real TCP: an ephemeral-port server,
//! concurrent identical `POST /v1/evaluate` requests whose stats prove
//! single-flight solving, route/error behavior, keep-alive, the eviction
//! cap, and a `loadgen` run reporting RPS and latency percentiles.

use dtc_engine::value::Value;
use dtc_serve::{loadgen, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        queue: 64,
        eval_threads: 1,
        cache_path: None,
        cache_cap: None,
    }
}

/// One connection-per-request HTTP exchange; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let payload = body.unwrap_or("");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(payload.as_bytes()).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get_json(addr: SocketAddr, path: &str) -> Value {
    let (status, body) = request(addr, "GET", path, None);
    assert_eq!(status, 200, "GET {path}: {body}");
    Value::from_json(&body).expect("valid JSON")
}

fn int_at(v: &Value, a: &str, b: &str) -> i64 {
    v.get(a)
        .and_then(|x| x.get(b))
        .and_then(|x| x.as_i64())
        .unwrap_or_else(|| panic!("{a}.{b} missing in {}", v.to_json()))
}

#[test]
fn concurrent_identical_posts_are_single_flight_and_loadgen_reports() {
    const CLIENTS: usize = 8;
    let server = Server::start(&config()).expect("server starts");
    let addr = server.addr();
    let catalog = loadgen::tiny_catalog_json();

    // Fire the same catalog from 8 threads at once over real sockets.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (barrier, catalog) = (Arc::clone(&barrier), catalog.clone());
            std::thread::spawn(move || {
                barrier.wait();
                request(addr, "POST", "/v1/evaluate", Some(&catalog))
            })
        })
        .collect();
    let responses: Vec<(u16, String)> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();

    // Every response is a 200 with the same correct report.
    let mut reports = Vec::new();
    for (status, body) in &responses {
        assert_eq!(*status, 200, "{body}");
        let doc = Value::from_json(body).expect("valid JSON");
        let results = doc.get("results").and_then(|r| r.as_array()).expect("results array");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("status").and_then(|s| s.as_str()), Some("ok"));
        let report = results[0].get("report").expect("report present").clone();
        let availability =
            report.get("availability").and_then(|a| a.as_f64()).expect("availability");
        assert!((0.0..=1.0).contains(&availability));
        reports.push(report);
    }
    for r in &reports[1..] {
        assert_eq!(
            r.to_json(),
            reports[0].to_json(),
            "identical requests must yield identical reports"
        );
    }

    // The duplicated spec was solved exactly once: one miss, the other
    // seven calls were hits (stored entry or joined in-flight solve).
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), 1, "single-flight: one solve");
    assert_eq!(int_at(&stats, "cache", "hits"), (CLIENTS - 1) as i64);
    assert_eq!(int_at(&stats, "cache", "entries"), 1);
    assert_eq!(int_at(&stats, "server", "evaluations"), CLIENTS as i64);

    let keys = get_json(addr, "/v1/cache/keys");
    assert_eq!(keys.get("count").and_then(|c| c.as_i64()), Some(1));

    // loadgen against the same live server: everything is now a cache
    // hit, so this measures the HTTP + cache path end to end.
    let opts = loadgen::Options {
        addr: addr.to_string(),
        clients: 4,
        requests_per_client: 25,
        ..loadgen::Options::default()
    };
    let summary = loadgen::run(&opts);
    println!("{}", loadgen::render(&opts, &summary));
    assert_eq!(summary.total, 100);
    assert_eq!(summary.ok, 100, "no rejections below queue capacity");
    assert!(summary.rps > 0.0);
    assert!(summary.p50_ms > 0.0);
    assert!(summary.p95_ms >= summary.p50_ms);
    assert!(summary.p99_ms >= summary.p95_ms);

    // Still exactly one solve ever — the whole loadgen run hit the cache.
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), 1);
    assert_eq!(int_at(&stats, "queue", "rejected"), 0);

    server.shutdown().expect("clean shutdown");
}

#[test]
fn v2_runs_multi_analysis_set_from_one_state_space_construction() {
    let server = Server::start(&config()).expect("server starts");
    let addr = server.addr();

    let body = format!(
        "{{\"catalog\":{},\"analyses\":[\"steady_state\",\"mttsf\",\"capacity_thresholds\"]}}",
        loadgen::tiny_catalog_json()
    );
    let (status, text) = request(addr, "POST", "/v2/evaluate", Some(&body));
    assert_eq!(status, 200, "{text}");
    let doc = Value::from_json(&text).expect("valid JSON");

    // The response names the analysis set it ran.
    let kinds: Vec<&str> = doc
        .get("analyses")
        .and_then(|a| a.as_array())
        .expect("analyses array")
        .iter()
        .filter_map(|k| k.as_str())
        .collect();
    assert_eq!(kinds, ["steady_state", "mttsf", "capacity_thresholds"]);

    // One scenario, all three reports, each physically sensible.
    let results = doc.get("results").and_then(|r| r.as_array()).expect("results array");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].get("status").and_then(|s| s.as_str()), Some("ok"));
    let analyses = results[0].get("analyses").and_then(|a| a.as_array()).expect("report union");
    assert_eq!(analyses.len(), 3);
    let availability =
        analyses[0].get("availability").and_then(|a| a.as_f64()).expect("steady availability");
    assert!((0.0..=1.0).contains(&availability));
    let mttsf = analyses[1].get("hours").and_then(|h| h.as_f64()).expect("mttsf hours");
    assert!(mttsf > 0.0, "mttsf {mttsf}");
    let curve: Vec<f64> = analyses[2]
        .get("availability")
        .and_then(|c| c.as_array())
        .expect("capacity curve")
        .iter()
        .filter_map(|x| x.as_f64())
        .collect();
    assert_eq!(curve.len(), 2, "1 VM -> thresholds k = 0, 1");
    assert!((curve[0] - 1.0).abs() < 1e-12, "k=0 always satisfied");
    assert!((curve[1] - availability).abs() < 1e-10, "k=1 equals steady availability");
    // The v1-compatible steady field rides along.
    assert_eq!(
        results[0].get("report").and_then(|r| r.get("availability")).and_then(|a| a.as_f64()),
        Some(availability)
    );

    // All three metrics came from ONE state-space construction: a single
    // cache miss (one solve), zero hits so far.
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), 1, "one solve for the whole set");
    assert_eq!(int_at(&stats, "cache", "entries"), 1);

    // Re-POSTing the same set is a pure cache hit…
    let (status, text2) = request(addr, "POST", "/v2/evaluate", Some(&body));
    assert_eq!(status, 200);
    let doc2 = Value::from_json(&text2).unwrap();
    let union_of = |d: &Value| {
        d.get("results").unwrap().as_array().unwrap()[0].get("analyses").unwrap().to_json()
    };
    assert_eq!(union_of(&doc2), union_of(&doc), "cached union is bit-identical");
    assert_eq!(
        doc2.get("results").unwrap().as_array().unwrap()[0]
            .get("source")
            .and_then(|s| s.as_str()),
        Some("cache")
    );
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), 1);
    assert_eq!(int_at(&stats, "cache", "hits"), 1);

    // …while the analyses fallback (omitted field → catalog's [analyses]
    // section → steady state) is a *different* cache identity.
    let v1_style = format!("{{\"catalog\":{}}}", loadgen::tiny_catalog_json());
    let (status, _) = request(addr, "POST", "/v2/evaluate", Some(&v1_style));
    assert_eq!(status, 200);
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), 2, "steady-only set solves separately");

    // Bad requests are 400s.
    let (status, text) = request(addr, "POST", "/v2/evaluate", Some("{\"analyses\":[]}"));
    assert_eq!(status, 400);
    assert!(text.contains("catalog"), "{text}");
    let bad_kind =
        format!("{{\"catalog\":{},\"analyses\":[\"wat\"]}}", loadgen::tiny_catalog_json());
    let (status, text) = request(addr, "POST", "/v2/evaluate", Some(&bad_kind));
    assert_eq!(status, 400);
    assert!(text.contains("wat"), "{text}");

    server.shutdown().expect("clean shutdown");
}

#[test]
fn v2_sensitivity_rides_one_cache_miss_and_matches_the_cli_pipeline() {
    let server = Server::start(&config()).expect("server starts");
    let addr = server.addr();

    let body = format!(
        "{{\"catalog\":{},\"analyses\":[\"steady_state\",\"sensitivity\"]}}",
        loadgen::tiny_catalog_json()
    );
    let (status, text) = request(addr, "POST", "/v2/evaluate", Some(&body));
    assert_eq!(status, 200, "{text}");
    let doc = Value::from_json(&text).expect("valid JSON");
    let result = doc.get("results").unwrap().as_array().unwrap()[0].clone();
    assert_eq!(result.get("status").and_then(|s| s.as_str()), Some("ok"));
    let analyses = result.get("analyses").and_then(|a| a.as_array()).expect("report union");
    assert_eq!(analyses.len(), 2);
    assert_eq!(analyses[1].get("kind").and_then(|k| k.as_str()), Some("sensitivity"));
    assert_eq!(analyses[1].get("rel_step").and_then(|r| r.as_f64()), Some(0.05));

    // The tiny one-PM/one-VM architecture has exactly the five core knobs,
    // ranked by |elasticity| descending.
    let rows = analyses[1].get("rows").and_then(|r| r.as_array()).expect("rows");
    assert_eq!(rows.len(), 5, "{text}");
    let elasticities: Vec<f64> =
        rows.iter().map(|r| r.get("elasticity").and_then(|e| e.as_f64()).unwrap()).collect();
    for pair in elasticities.windows(2) {
        assert!(pair[0].abs() >= pair[1].abs(), "ranked strongest-first: {elasticities:?}");
    }
    let keys: Vec<&str> =
        rows.iter().map(|r| r.get("parameter").and_then(|p| p.as_str()).unwrap()).collect();
    assert!(keys.contains(&"ospm_mttf") && keys.contains(&"vm_start"), "{keys:?}");

    // Steady state + the whole sensitivity sweep cost ONE cache miss: the
    // baseline reuses the set's shared steady solve; only perturbed
    // variants were built, and none of that shows up as extra misses.
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), 1, "one miss for steady + sensitivity");
    assert_eq!(int_at(&stats, "cache", "entries"), 1);

    // Parity with the CLI: `dtc run --analyses sensitivity` drives the
    // same run_batch pipeline — its report union must be bit-identical to
    // what came over HTTP.
    let catalog =
        dtc_engine::Catalog::from_json_str(&loadgen::tiny_catalog_json()).expect("parses");
    let scenarios = catalog.expand().unwrap();
    let opts = dtc_engine::RunOptions {
        analyses: vec![
            dtc_engine::prelude::AnalysisRequest::SteadyState,
            dtc_engine::prelude::AnalysisRequest::Sensitivity {
                parameters: vec![],
                rel_step: 0.05,
            },
        ],
        ..dtc_engine::RunOptions::default()
    };
    let cache = Arc::new(dtc_engine::EvalCache::in_memory());
    let local = dtc_engine::run_batch(&scenarios, &cache, &opts);
    let local_union: Vec<Value> =
        local.outcomes[0].analyses().iter().map(dtc_engine::analysis_report_to_value).collect();
    assert_eq!(
        Value::Array(local_union).to_json(),
        result.get("analyses").unwrap().to_json(),
        "HTTP and CLI pipelines return identical ranked rows"
    );

    // Re-POSTing is a pure hit with a bit-identical union.
    let (status, text2) = request(addr, "POST", "/v2/evaluate", Some(&body));
    assert_eq!(status, 200);
    let doc2 = Value::from_json(&text2).unwrap();
    assert_eq!(
        doc2.get("results").unwrap().as_array().unwrap()[0].get("analyses").unwrap().to_json(),
        result.get("analyses").unwrap().to_json()
    );
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), 1);

    server.shutdown().expect("clean shutdown");
}

#[test]
fn v2_transient_curve_pinned_and_time_points_keep_request_order() {
    // Per-point engine outputs for the tiny loadgen catalog, captured (17
    // significant digits) immediately before the single-pass curve engine
    // replaced the per-point path. The HTTP surface must keep reproducing
    // them.
    #![allow(clippy::excessive_precision)] // 17 digits as captured
    const A24: f64 = 9.88616333757290966e-1;
    const A168: f64 = 9.87592518683237275e-1;
    const A720: f64 = 9.87592518326670277e-1;
    const A8760: f64 = 9.87592518326670388e-1;
    const IA8760: f64 = 9.87606023114894427e-1;
    const TOL: f64 = 1e-12;

    let server = Server::start(&config()).expect("server starts");
    let addr = server.addr();

    // Unsorted `time_points` with a duplicate and a zero: the availability
    // array must follow the REQUEST order (the engine sorts internally,
    // but the response order is the caller's — see docs/HTTP_API.md).
    let body = format!(
        "{{\"catalog\":{},\"analyses\":[\
         {{\"kind\":\"transient\",\"time_points\":[8760.0,24.0,0.0,24.0,720.0,168.0]}},\
         {{\"kind\":\"interval\",\"horizon_hours\":8760.0}}]}}",
        loadgen::tiny_catalog_json()
    );
    let (status, text) = request(addr, "POST", "/v2/evaluate", Some(&body));
    assert_eq!(status, 200, "{text}");
    let doc = Value::from_json(&text).expect("valid JSON");
    let result = doc.get("results").unwrap().as_array().unwrap()[0].clone();
    assert_eq!(result.get("status").and_then(|s| s.as_str()), Some("ok"), "{text}");
    let analyses = result.get("analyses").and_then(|a| a.as_array()).expect("report union");
    assert_eq!(analyses.len(), 2);

    let floats = |v: &Value, key: &str| -> Vec<f64> {
        v.get(key)
            .and_then(|x| x.as_array())
            .unwrap_or_else(|| panic!("{key} missing in {}", v.to_json()))
            .iter()
            .filter_map(|x| x.as_f64())
            .collect()
    };
    assert_eq!(analyses[0].get("kind").and_then(|k| k.as_str()), Some("transient"));
    let echoed = floats(&analyses[0], "time_points");
    assert_eq!(echoed, vec![8760.0, 24.0, 0.0, 24.0, 720.0, 168.0], "request order echoed");
    let got = floats(&analyses[0], "availability");
    let want = [A8760, A24, 1.0, A24, A720, A168];
    assert_eq!(got.len(), want.len());
    for ((g, w), t) in got.iter().zip(&want).zip(&echoed) {
        assert!((g - w).abs() < TOL, "A({t}) drifted: {g:.17e} vs {w:.17e}");
    }
    assert_eq!(got[1], got[3], "duplicate time points yield identical values");
    assert_eq!(analyses[1].get("kind").and_then(|k| k.as_str()), Some("interval"));
    let ia = analyses[1].get("availability").and_then(|a| a.as_f64()).expect("interval value");
    assert!((ia - IA8760).abs() < TOL, "IA(8760) drifted: {ia:.17e}");

    // The whole 6-point curve + SLA window cost ONE cache miss (one
    // state-space construction, one uniformization pass behind it).
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), 1, "one miss for the whole curve set");

    // Re-POSTing the identical set is a pure hit with a bit-identical
    // union (the curve round-trips through the store).
    let (status, text2) = request(addr, "POST", "/v2/evaluate", Some(&body));
    assert_eq!(status, 200);
    let doc2 = Value::from_json(&text2).unwrap();
    let union_of = |d: &Value| {
        d.get("results").unwrap().as_array().unwrap()[0].get("analyses").unwrap().to_json()
    };
    assert_eq!(union_of(&doc2), union_of(&doc));
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), 1);
    assert_eq!(int_at(&stats, "cache", "hits"), 1);

    server.shutdown().expect("clean shutdown");
}

#[test]
fn model_dot_route_renders_bundled_scenarios() {
    let server = Server::start(&config()).expect("server starts");
    let addr = server.addr();

    // A table7 scenario by its human name, percent-encoded.
    let (status, dot) = request(
        addr,
        "GET",
        "/v2/model/dot?catalog=table7&scenario=Cloud%20system%20with%20one%20machine",
        None,
    );
    assert_eq!(status, 200, "{dot}");
    assert!(dot.starts_with("digraph petri {"), "{}", &dot[..dot.len().min(80)]);
    assert!(dot.contains("OSPM_UP1"), "single-DC model places present");
    assert!(!dot.contains("TRP_12"), "no migration subnet in a one-DC model");

    // A grid-expanded fig7 point: brackets/equals/commas in the name.
    let name = "fig7%5Bsecondary%3DBrasilia%2Calpha%3D0.35%2Cdisaster_years%3D100%5D";
    let (status, dot) = request(addr, "GET", &format!("/v2/model/dot?scenario={name}"), None);
    assert_eq!(status, 200, "{dot}");
    assert!(dot.contains("TRP_12"), "two-DC model has the transmission subnet");
    assert!(dot.contains("BKP_UP"), "backup server present");

    // Error shapes: missing param, unknown catalog, unknown scenario,
    // wrong method.
    let (status, body) = request(addr, "GET", "/v2/model/dot", None);
    assert_eq!(status, 400);
    assert!(body.contains("scenario"), "{body}");
    let (status, body) = request(addr, "GET", "/v2/model/dot?scenario=x&catalog=wat", None);
    assert_eq!(status, 400);
    assert!(body.contains("wat"), "{body}");
    let (status, body) = request(addr, "GET", "/v2/model/dot?scenario=nope", None);
    assert_eq!(status, 404);
    assert!(body.contains("nope"), "{body}");
    let (status, _) = request(addr, "POST", "/v2/model/dot?scenario=x", Some("{}"));
    assert_eq!(status, 405);

    server.shutdown().expect("clean shutdown");
}

#[test]
fn loadgen_mix_exercises_distinct_specs() {
    let server = Server::start(&config()).expect("server starts");
    let addr = server.addr();

    const MIX: usize = 3;
    let opts = loadgen::Options {
        addr: addr.to_string(),
        clients: 3,
        requests_per_client: 4,
        mix: MIX,
        ..loadgen::Options::default()
    };
    let summary = loadgen::run(&opts);
    assert_eq!(summary.total, 12);
    assert_eq!(summary.ok, 12, "all mixed requests succeed");

    // Exactly MIX distinct specs were solved; everything else hit.
    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "misses"), MIX as i64);
    assert_eq!(int_at(&stats, "cache", "entries"), MIX as i64);

    server.shutdown().expect("clean shutdown");
}

#[test]
fn routes_and_error_paths() {
    let server = Server::start(&config()).expect("server starts");
    let addr = server.addr();

    let health = get_json(addr, "/healthz");
    assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));

    let (status, body) = request(addr, "GET", "/nope", None);
    assert_eq!(status, 404, "{body}");
    let (status, _) = request(addr, "POST", "/healthz", Some("{}"));
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/v1/evaluate", None);
    assert_eq!(status, 405);

    let (status, body) = request(addr, "POST", "/v1/evaluate", Some("this is not json"));
    assert_eq!(status, 400);
    assert!(body.contains("error"), "{body}");

    // Parses but does not expand: unknown city.
    let bad = r#"{"catalog":{"name":"x"},
                  "scenario":[{"name":"s","kind":"two_dc","secondary":"Oz"}]}"#;
    let (status, body) = request(addr, "POST", "/v1/evaluate", Some(bad));
    assert_eq!(status, 400);
    assert!(body.contains("Oz"), "{body}");

    server.shutdown().expect("clean shutdown");
}

/// Reads one response off a kept-alive connection: header bytes up to the
/// blank line, then exactly content-length body bytes.
fn read_kept_alive(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("header byte");
        raw.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&raw).to_lowercase();
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length header");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("body");
    String::from_utf8(body).expect("UTF-8 body")
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let server = Server::start(&config()).expect("server starts");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for _ in 0..3 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
        let body = read_kept_alive(&mut stream);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
    }
    drop(stream);

    let stats = get_json(addr, "/v1/stats");
    assert!(int_at(&stats, "server", "requests") >= 3);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn kept_alive_responses_do_not_wait_for_delayed_acks() {
    // A response written in pieces on a socket with Nagle's algorithm on
    // holds its second piece until the client ACKs the first, and the
    // client delays that ACK by ~40 ms: every answer after the first
    // stalls (19 of 20 took ~44 ms). The median answer must come well
    // before, which tolerates scheduling hiccups on a loaded machine.
    let server = Server::start(&config()).expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut latencies = Vec::new();
    for _ in 0..20 {
        let started = std::time::Instant::now();
        stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
        let body = read_kept_alive(&mut stream);
        latencies.push(started.elapsed());
        assert!(body.contains("\"status\":\"ok\""), "{body}");
    }
    let mut sorted = latencies.clone();
    sorted.sort();
    let median = sorted[sorted.len() / 2];
    assert!(
        median < Duration::from_millis(25),
        "median kept-alive answer took {median:?}: {latencies:?}"
    );
    drop(stream);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn disk_backed_cache_persists_after_evaluation_without_shutdown() {
    let dir = std::env::temp_dir().join(format!("dtc-serve-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store.json");
    let _ = std::fs::remove_file(&store);

    let mut cfg = config();
    cfg.cache_path = Some(store.clone());
    let server = Server::start(&cfg).expect("server starts");
    let (status, _) =
        request(server.addr(), "POST", "/v1/evaluate", Some(&loadgen::tiny_catalog_json()));
    assert_eq!(status, 200);

    // The store must already hold the solve — a `kill`ed server (the
    // normal way `dtc serve` stops) never reaches shutdown().
    let text = std::fs::read_to_string(&store).expect("store written after evaluation");
    let reloaded = dtc_engine::EvalCache::in_memory();
    reloaded.load_json(&text).expect("store parses");
    assert_eq!(reloaded.len(), 1, "solved entry persisted");

    server.shutdown().expect("clean shutdown");
    std::fs::remove_file(&store).unwrap();
}

#[test]
fn cache_cap_evicts_across_requests() {
    let mut cfg = config();
    cfg.cache_cap = Some(1);
    let server = Server::start(&cfg).expect("server starts");
    let addr = server.addr();

    let first = loadgen::tiny_catalog_json();
    // Same tiny architecture, different VM dependability → different key.
    let second = first.replace(
        "\"params\": {\"min_running_vms\": 1}",
        "\"params\": {\"min_running_vms\": 1, \"vm\": {\"mttf_hours\": 2000.0, \"mttr_hours\": 0.5}}",
    );
    assert_ne!(first, second);

    let (status, _) = request(addr, "POST", "/v1/evaluate", Some(&first));
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/v1/evaluate", Some(&second));
    assert_eq!(status, 200);

    let stats = get_json(addr, "/v1/stats");
    assert_eq!(int_at(&stats, "cache", "entries"), 1, "cap of one holds");
    assert_eq!(int_at(&stats, "cache", "evictions"), 1, "first entry was evicted");
    assert_eq!(int_at(&stats, "cache", "misses"), 2);

    server.shutdown().expect("clean shutdown");
}
