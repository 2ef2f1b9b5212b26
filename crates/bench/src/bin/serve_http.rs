//! `serve_http` — boot the HTTP/1.1 front end.
//!
//! Binds a `std::net` listener, spawns the worker threads, and serves the
//! corpus over `GET /run/<script>` plus `/health` and `/metrics` until
//! killed. The port is printed on stdout (and flushed) before blocking, so
//! scripts can parse it from the first line.
//!
//! Usage:
//!   serve_http [--addr HOST:PORT] [--workers N] [--faults SEED] [--memo]

use serve::{FaultPlan, HttpConfig, HttpServer, MemoCache};
use std::io::Write;
use std::sync::Arc;
use workloads::php_corpus::CorpusCache;

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers: usize = arg_value(&args, "--workers")
        .map(|v| v.parse().expect("--workers takes a positive integer"))
        .unwrap_or(2);
    let mut cfg = HttpConfig::loopback(workers);
    if let Some(addr) = arg_value(&args, "--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(seed) = arg_value(&args, "--faults") {
        let seed: u64 = seed.parse().expect("--faults takes a u64 seed");
        cfg.plan = FaultPlan::seeded(seed, 2, 5, 200);
    }
    if args.iter().any(|a| a == "--memo") {
        cfg.memo = Some(Arc::new(MemoCache::new(16)));
    }

    let corpus = Arc::new(CorpusCache::build());
    let server = HttpServer::start(cfg, Arc::clone(&corpus)).expect("bind http front end");
    println!("serve_http: listening on http://{}", server.addr());
    println!(
        "serve_http: {} workers, {} corpus scripts under /run/, /health and /metrics live",
        workers,
        corpus.len()
    );
    std::io::stdout().flush().expect("flush stdout");

    // Serve until killed; the handle keeps the workers alive.
    loop {
        std::thread::park();
    }
}
