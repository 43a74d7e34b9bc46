//! Argument parsing and entry point for `dtc serve`.

use crate::{ServeConfig, Server};
use std::path::PathBuf;

const SERVE_USAGE: &str = "\
dtc serve — HTTP availability-evaluation service

usage: dtc serve [options]

options:
  --addr HOST:PORT    listen address (default 127.0.0.1:7878; port 0 = ephemeral)
  --threads N         HTTP worker threads (default: available cores)
  --queue N           pending-connection queue capacity (default 128);
                      the acceptor answers 503 beyond it
  --eval-threads N    solver threads inside one request batch (default 1)
  --cache FILE        persistent JSON evaluation cache
  --cache-cap N       cap resident cache entries (oldest evicted first)

routes:
  GET  /healthz         liveness
  GET  /metrics         Prometheus text exposition (HTTP, cache and solver-stage
                        metrics)
  GET  /v1/stats        cache + queue + server counters
  POST /v1/evaluate     evaluate a JSON catalog document (steady state)
  POST /v2/evaluate     {catalog, analyses} or a bare catalog document: run any
                        analysis set (steady_state, transient, interval, mttsf,
                        capacity_thresholds, cost, simulation, sensitivity)
                        from one state-space construction
  POST /v2/search       {catalog, search?} or a bare catalog document with a
                        [search] section: SLO-driven design search (feasible
                        set, Pareto frontier, cheapest-feasible pick,
                        break-even disaster rates); JSON is bit-identical to
                        `dtc search --format json`
  GET  /v2/model/dot    ?scenario=NAME[&catalog=table7|fig7] — the compiled
                        GSPN of a bundled-catalog scenario as Graphviz DOT
  GET  /v1/cache/keys   stored content-addressed keys
  GET  /v2/debug/trace  ?id=TRACE_ID — one request's span tree (the ID every
                        response echoes as X-Dtc-Trace-Id); POST /v2/evaluate
                        with ?trace=1 inlines the tree in the response
  GET  /v2/debug/traces recent traces, newest first (bounded ring)
  GET  /v2/debug/slow   slowest retained traces (survive ring rotation)

diagnostics are JSON lines on stderr; set DTC_LOG=error|warn|info|debug
(default info; debug logs every request with its trace id)

the full request/response cookbook is in docs/HTTP_API.md
";

fn parse_usize(name: &str, value: &str) -> Result<usize, String> {
    value.parse().map_err(|_| format!("{name} expects a number, got {value:?}"))
}

/// Parses `dtc serve` arguments into a [`ServeConfig`].
pub fn parse_serve_args(args: &[String]) -> Result<Option<ServeConfig>, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = take("--addr")?,
            "--threads" => config.threads = parse_usize("--threads", &take("--threads")?)?,
            "--queue" => config.queue = parse_usize("--queue", &take("--queue")?)?,
            "--eval-threads" => {
                config.eval_threads = parse_usize("--eval-threads", &take("--eval-threads")?)?
            }
            "--cache" => config.cache_path = Some(PathBuf::from(take("--cache")?)),
            "--cache-cap" => {
                config.cache_cap = Some(parse_usize("--cache-cap", &take("--cache-cap")?)?)
            }
            "--help" | "-h" | "help" => return Ok(None),
            other => return Err(format!("unknown serve option {other:?}")),
        }
    }
    Ok(Some(config))
}

/// `dtc serve` entry point; blocks until the process is killed.
pub fn run_serve(args: &[String]) -> i32 {
    let config = match parse_serve_args(args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            println!("{SERVE_USAGE}");
            return 0;
        }
        Err(msg) => {
            eprintln!("dtc serve: {msg}");
            return 2;
        }
    };
    match Server::start(&config) {
        Ok(server) => {
            dtc_obs::log::info(
                "dtc-serve",
                "listening",
                &[
                    ("addr", server.addr().to_string().into()),
                    ("workers", (config.threads.max(1) as i64).into()),
                    ("queue", (config.queue.max(1) as i64).into()),
                ],
            );
            server.join();
            0
        }
        Err(e) => {
            eprintln!("dtc serve: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_args_parse() {
        let config = parse_serve_args(&strs(&[
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "3",
            "--queue",
            "7",
            "--eval-threads",
            "2",
            "--cache-cap",
            "100",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.threads, 3);
        assert_eq!(config.queue, 7);
        assert_eq!(config.eval_threads, 2);
        assert_eq!(config.cache_cap, Some(100));

        assert!(parse_serve_args(&strs(&["--queue"])).is_err());
        assert!(parse_serve_args(&strs(&["--wat"])).is_err());
        assert!(parse_serve_args(&strs(&["--help"])).unwrap().is_none());
    }
}
