//! The traced run: per-layer metrics for one workload.
//!
//! It runs apart from the timed trials, which trace nothing. A few short
//! untraced trials come first, so that the traced requests can be compared
//! with untraced ones in the same process. Then every request gets a root
//! span around the live call, and on the HTTP workloads the same request is
//! walked through the edge's stages by hand on a private rig:
//!
//! `http.parse` → `middleware.chain` → `admission.decide` → `server.serve`
//! (child: `interp.run`) → `server.reset` → `http.write`
//!
//! All timing is taken from outside, around calls into public functions.

use crate::adapter::{
    self, AppMachine, Apps, BareEngine, BareMachine, Corpus, EdgeServer, EdgeStages,
    MachineCounters, Rig,
};
use crate::mix::{block_shuffle, Rng};
use crate::procfs::{self, ThreadGroup};
use crate::stats::{iqr_share, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    app_order, corpus_requests, run_apps, run_trial, settled_uops, share, warm_apps, Client, Size,
    Trial, Workload, CLIENTS, WORKERS,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Untraced trials before the traced block, and their size as a share of
/// a timed trial's: long enough for the 10 ms CPU tick to resolve a
/// per-request cost and for the scheduler to settle, short enough to leave
/// the run to the traced block.
const UNTRACED_TRIALS: usize = 4;
const UNTRACED_SCALE: f64 = 0.4;
/// The HTTP traced block's size as a share of a timed trial's. The walk
/// doubles the work per request and writes eight spans for each.
const TRACED_HTTP_SCALE: f64 = 0.25;
/// `corpus_inproc` runs a whole timed trial's requests under the tracer, so
/// that its µops are that trial's exactly, but writes spans only for this
/// many of them: four spans a request would make a 40 MB trace.
const TRACED_CORPUS_SPANS: usize = 12_000;
/// Requests of the reference pass: 200 of each script.
const REFERENCE_PASS: usize = 2_400;
/// Figure 14's "+specialized, average" as EXPERIMENTS.md records it for the
/// paper. It holds no per-application paper value, so every application's
/// `paper_gap` is its distance (the absolute difference: lower is better)
/// from this average; `norm_time` beside it says on which side.
const PAPER_FIG14_SPECIALIZED: f64 = 0.7022;

/// What a traced run found.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl LayerReport {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.errors.len() < 8 {
                self.errors.push(why());
            }
        }
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn median_ns(samples: &[u64]) -> Option<f64> {
    let as_f64: Vec<f64> = samples.iter().map(|&n| n as f64).collect();
    median(&as_f64)
}

pub fn run_traced(workload: Workload, seed: u64, scale: f64, out_dir: &Path) -> LayerReport {
    let mut report = LayerReport::default();
    let untraced = untraced_trials(workload, seed, scale, &mut report);
    let size = workload.size(scale);
    let http_size = workload.size(scale * TRACED_HTTP_SCALE);
    let tracer = match workload {
        Workload::HttpKeepalive => traced_http(seed, http_size, false, &mut report),
        Workload::HttpChurn => traced_http(seed, http_size, true, &mut report),
        Workload::CorpusInproc => traced_corpus(seed, size, &mut report),
        Workload::AppsInproc => traced_apps(seed, size, &mut report),
    };
    // Every root span wraps one live call.
    let roots = tracer.durations(|s| s.parent == 0);
    if let (Some(traced), Some(plain)) = (median_ns(&roots), untraced) {
        report.set("trace.overhead_share", traced / plain - 1.0);
    }
    report.set("trace.spans", tracer.spans().len() as f64);
    let path = out_dir.join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        report.fail(1, || format!("cannot write {}: {e}", path.display()));
    }
    micro_rigs(seed, &mut report);
    report.set("loadgen.nproc", procfs::nproc() as f64);
    report.set(
        "loadgen.fail_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report
}

// ---------------------------------------------------------------------------
// Untraced trials
// ---------------------------------------------------------------------------

/// Short ordinary trials: the spread between them, the tail the end-to-end
/// metrics leave out, and (HTTP) the CPU split by thread name. Returns the
/// untraced median latency in ns, which the traced block is compared with.
fn untraced_trials(
    workload: Workload,
    seed: u64,
    scale: f64,
    report: &mut LayerReport,
) -> Option<f64> {
    let trials: Vec<Trial> = (0..UNTRACED_TRIALS)
        .map(|_| run_trial(workload, seed, scale * UNTRACED_SCALE))
        .collect();
    for t in &trials {
        report.attempted += t.attempted;
        report.fail(t.failed, || format!("untraced trial: {:?}", t.errors));
    }
    let per_trial =
        |f: &dyn Fn(&Trial) -> Option<f64>| -> Vec<f64> { trials.iter().filter_map(f).collect() };
    let rates = per_trial(&|t| Some(t.attempted as f64 / t.wall_s));
    report.set("loadgen.trial_iqr_share", iqr_share(&rates));
    if let Some(calib) = median(&per_trial(&|t| Some(t.calib_s))) {
        report.set("loadgen.calib_ms", calib * 1e3);
    }
    let p = |q: f64| per_trial(&|t| percentile(&t.latencies_ns, q).map(|n| n as f64));
    if let Some(p95) = median(&p(95.0)) {
        report.set("loadgen.latency_p95_us", us(p95));
    }
    if let Some(p99) = median(&p(99.0)) {
        report.set("loadgen.latency_p99_us", us(p99));
    }
    if let Some(max) = median(&p(100.0)) {
        report.set("loadgen.latency_max_us", us(max));
    }
    if workload.is_http() {
        http_thread_split(&trials, workload == Workload::HttpChurn, report);
        if let Some(connect) = median(&per_trial(&|t| median_ns(&t.connects_ns))) {
            report.set("http.connect_us", us(connect));
        }
    }
    median(&p(50.0))
}

/// CPU and run-queue time per request by the server's thread names, from
/// `schedstat` over each untraced trial's timed block.
fn http_thread_split(trials: &[Trial], churn: bool, report: &mut LayerReport) {
    let per_req = |f: &dyn Fn(&Trial) -> Option<f64>| -> Option<f64> {
        let v: Vec<f64> = trials
            .iter()
            .filter_map(|t| f(t).map(|ns| ns / t.attempted as f64))
            .collect();
        median(&v)
    };
    let run = |g: ThreadGroup| per_req(&|t| t.threads.map(|th| th.run_ns[g as usize] as f64));
    let wait = |g: ThreadGroup| per_req(&|t| t.threads.map(|th| th.wait_ns[g as usize] as f64));
    // A connection thread that has exited takes its schedstat with it, so
    // on a connection per request their CPU is what is left of the
    // process's total once every live group is taken out.
    let conn = if churn {
        per_req(&|t| {
            let th = t.threads?;
            let live: u64 = [
                ThreadGroup::Worker,
                ThreadGroup::Acceptor,
                ThreadGroup::Loadgen,
            ]
            .iter()
            .map(|&g| th.run_ns[g as usize])
            .sum();
            Some((t.cpu_s? * 1e9 - live as f64).max(0.0))
        })
    } else {
        run(ThreadGroup::Conn)
    };
    for (name, value) in [
        ("http.cpu_worker_us", run(ThreadGroup::Worker)),
        ("http.cpu_conn_us", conn),
        ("http.cpu_acceptor_us", run(ThreadGroup::Acceptor)),
        ("http.wait_worker_us", wait(ThreadGroup::Worker)),
        ("http.wait_conn_us", wait(ThreadGroup::Conn)),
        ("loadgen.cpu_us", run(ThreadGroup::Loadgen)),
    ] {
        if let Some(ns) = value {
            report.set(name, us(ns));
        }
    }
}

// ---------------------------------------------------------------------------
// Shared: what a rig's requests say about the layers below the edge
// ---------------------------------------------------------------------------

/// Per-script samples from a rig: host time of `serve` + `reset`, and µops.
struct PerScript {
    host_ns: Vec<Vec<u64>>,
    uops: Vec<Vec<u64>>,
}

impl PerScript {
    fn new(scripts: usize) -> PerScript {
        PerScript {
            host_ns: vec![Vec::new(); scripts],
            uops: vec![Vec::new(); scripts],
        }
    }

    fn absorb(&mut self, other: PerScript) {
        for (mine, theirs) in self.host_ns.iter_mut().zip(other.host_ns) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.uops.iter_mut().zip(other.uops) {
            mine.extend(theirs);
        }
    }

    fn report(&self, corpus: &Corpus, report: &mut LayerReport) {
        for s in 0..corpus.len() {
            let name = corpus.name(s);
            if let Some(ns) = median_ns(&self.host_ns[s]) {
                report.set(format!("corpus.{name}.host_us"), us(ns));
            }
            if let Some(uops) = median_ns(&self.uops[s]) {
                report.set(format!("corpus.{name}.sim_uops"), uops);
            }
        }
    }
}

/// One request on a rig with its spans: `server.serve` (child
/// `interp.run`) then `server.reset`, both children of `parent`.
fn rig_request(
    rig: &mut Rig,
    corpus: &Corpus,
    script: usize,
    req: u64,
    parent: u32,
    tracer: &mut Tracer,
    per_script: &mut PerScript,
) -> (bool, Vec<u8>) {
    let uops0 = rig.total_uops();
    let t0 = Instant::now();
    let served = rig.serve(corpus, script, req);
    let t1 = Instant::now();
    rig.reset();
    let t2 = Instant::now();
    let serve = tracer.record("server.serve", parent, req, t0, t1);
    tracer.record("interp.run", serve, req, served.interp.0, served.interp.1);
    tracer.record("server.reset", parent, req, t1, t2);
    per_script.host_ns[script].push(t2.duration_since(t0).as_nanos() as u64);
    per_script.uops[script].push(rig.total_uops() - uops0);
    (served.ok, served.body)
}

/// Per-request machine counters: the paper's activity split, the VM's
/// static savings and the accelerators' hit rates.
fn report_counters(c: &MachineCounters, requests: u64, report: &mut LayerReport) {
    let n = requests.max(1) as f64;
    for (label, uops) in adapter::category_labels().iter().zip(c.uops_by_category) {
        report.set(format!("core.uops.{label}"), uops as f64 / n);
    }
    // The split is only worth printing if it is a split.
    let sum: u64 = c.uops_by_category.iter().sum();
    report.fail(u64::from(sum != c.total_uops), || {
        format!(
            "core.uops.* sum to {sum}, the profiler's total is {}",
            c.total_uops
        )
    });
    report.set("core.accel_cycles_per_req", c.accel_cycles as f64 / n);
    report.set("core.context_switches", c.context_switches as f64);
    report.set("interp.vm_ops_per_req", c.vm_ops as f64 / n);
    report.set(
        "interp.vm_fused_share",
        c.vm_fused_ops as f64 / c.vm_ops.max(1) as f64,
    );
    report.set(
        "interp.transients_elided_per_req",
        c.vm_transients_elided as f64 / n,
    );
    report.set("htable.hit_rate", c.htable_hit_rate());
    report.set("htable.set_share", c.htable_set_share());
    report.set("heap.hit_rate", c.heap_hit_rate());
    report.set("straccel.cycles_per_req", c.straccel_cycles as f64 / n);
    report.set("regex.skip_fraction", c.regex_skip_fraction());
    report.set(
        "regex.reuse_hit_share",
        c.reuse_hits as f64 / c.reuse_lookups.max(1) as f64,
    );
    report.set(
        "runtime.arena_bytes_per_req",
        c.arena_bytes_reclaimed as f64 / n,
    );
    report.set("runtime.live_blocks_end", c.live_blocks as f64);
}

/// The extra pass every invocation makes: the first `REFERENCE_PASS` requests
/// of the mix once more on a server with the all-software reference
/// attached. Its mismatch count must be 0; the host time it adds per request
/// is `server.replay_us`.
fn reference_pass(
    corpus: &Corpus,
    timed: &[u16],
    memo: bool,
    plain_ns: Option<f64>,
    report: &mut LayerReport,
) {
    let sequence = &timed[..timed.len().min(REFERENCE_PASS)];
    let mut rig = Rig::new(memo, true);
    let mut with_reference = Vec::with_capacity(sequence.len());
    for (req, &script) in sequence.iter().enumerate() {
        let t = Instant::now();
        let served = rig.serve(corpus, script as usize, req as u64);
        rig.reset();
        with_reference.push(t.elapsed().as_nanos() as u64);
        report.fail(u64::from(!served.ok), || {
            format!("reference pass: request {req} failed")
        });
    }
    let (ok, mismatches) = rig.ok_and_mismatches();
    report.attempted += sequence.len() as u64;
    report.fail(mismatches, || {
        format!("{mismatches} responses differ from the all-software reference")
    });
    report.set("server.ok", ok as f64);
    report.set("server.mismatches", mismatches as f64);
    if let (Some(with), Some(plain)) = (median_ns(&with_reference), plain_ns) {
        report.set("server.replay_us", us(with - plain));
    }
}

/// Medians of the rig spans, and what they leave of a request's host time.
fn report_server_spans(
    selfs: &BTreeMap<&'static str, Vec<u64>>,
    tracer: &Tracer,
    report: &mut LayerReport,
) -> Option<f64> {
    let serve = median_ns(&tracer.durations(|s| s.name == "server.serve"))?;
    let reset = median_ns(selfs.get("server.reset")?)?;
    report.set("server.serve_us", us(serve));
    report.set("server.self_us", us(median_ns(selfs.get("server.serve")?)?));
    report.set("server.reset_us", us(reset));
    Some(serve + reset)
}

// ---------------------------------------------------------------------------
// HTTP workloads
// ---------------------------------------------------------------------------

fn traced_http(seed: u64, size: Size, churn: bool, report: &mut LayerReport) -> Tracer {
    let epoch = Instant::now();
    let corpus = Corpus::build();
    let expected = corpus.reference_bodies();
    let requests = corpus_requests(&corpus, churn);
    let server = match EdgeServer::start(&corpus, WORKERS) {
        Ok(s) => s,
        Err(e) => {
            report.fail(1, || format!("server did not start: {e}"));
            return Tracer::since(epoch);
        }
    };
    let addr = server.addr();
    let sequence = block_shuffle(seed, corpus.len(), size.warmup + size.timed);
    let (warm, timed) = sequence.split_at(size.warmup);

    struct Walked {
        tracer: Tracer,
        per_script: PerScript,
        counters: MachineCounters,
        memo_times: (Vec<u64>, Vec<u64>),
        failed: u64,
    }

    let walked: Vec<Walked> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (corpus, requests, expected) = (&corpus, &requests, &expected);
                scope.spawn(move || {
                    let mut client = Client::new(addr, churn, requests, expected);
                    let mut stages = EdgeStages::new();
                    let mut rig = Rig::new(true, false);
                    let mut tracer = Tracer::since(epoch);
                    let mut per_script = PerScript::new(corpus.len());
                    let mut failed = 0u64;
                    // Warm the live server and this thread's rig alike.
                    for (i, script) in share(warm, c).enumerate() {
                        failed += u64::from(client.get(script as usize).is_err());
                        rig.serve(corpus, script as usize, i as u64);
                        rig.reset();
                    }
                    rig.reset_metrics();
                    for (i, script) in share(timed, c).enumerate() {
                        let script = script as usize;
                        let req = (c + i * CLIENTS) as u64;
                        // The live call.
                        let t0 = Instant::now();
                        let live = client.get(script);
                        let t1 = Instant::now();
                        let root = tracer.record("http.roundtrip", 0, req, t0, t1);
                        match live {
                            Ok((_, connect)) if churn => {
                                tracer.record("http.connect", root, req, t0, t0 + connect);
                            }
                            Ok(_) => {}
                            Err(_) => failed += 1,
                        }
                        // The walk. Its spans are children of the live root
                        // by causation, not in time: they start after it
                        // ends, so the root's self time is what the walk
                        // cannot reach.
                        let t = Instant::now();
                        let target = stages.parse(&requests[script]);
                        tracer.record("http.parse", root, req, t, Instant::now());
                        let Some(target) = target else {
                            failed += 1;
                            continue;
                        };
                        let page = expected[script].clone();
                        let t = Instant::now();
                        let (status, page) = stages.chain(&target, page);
                        tracer.record("middleware.chain", root, req, t, Instant::now());
                        let t = Instant::now();
                        let admitted =
                            stages.admit(per_script.uops[script].last().copied().unwrap_or(0));
                        tracer.record("admission.decide", root, req, t, Instant::now());
                        let (ok, body) = rig_request(
                            &mut rig,
                            corpus,
                            script,
                            req,
                            root,
                            &mut tracer,
                            &mut per_script,
                        );
                        let right = ok && body == expected[script] && page == expected[script];
                        let t = Instant::now();
                        stages.write(body, !churn);
                        tracer.record("http.write", root, req, t, Instant::now());
                        failed += u64::from(!(right && admitted && status == 200));
                    }
                    Walked {
                        tracer,
                        per_script,
                        counters: rig.counters(),
                        memo_times: rig.time_memo(20),
                        failed,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });

    // What `GET /metrics` costs on a server that has served this much.
    let sent = (size.warmup + size.timed) as u64;
    if settled_uops(&server, sent).is_none() {
        report.fail(1, || "workers never published every request".into());
    }
    let renders: Vec<u64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(server.render_metrics());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    if let Some(ns) = median_ns(&renders) {
        report.set("http.metrics_render_us", us(ns));
    }
    let edge = server.shutdown();

    let mut tracer = Tracer::since(epoch);
    let mut per_script = PerScript::new(corpus.len());
    let mut counters = MachineCounters::default();
    let (mut lookups, mut stores) = (Vec::new(), Vec::new());
    for w in walked {
        tracer.absorb(w.tracer);
        per_script.absorb(w.per_script);
        counters.add(&w.counters);
        lookups.extend(w.memo_times.0);
        stores.extend(w.memo_times.1);
        report.fail(w.failed, || {
            format!("{} traced requests were wrong", w.failed)
        });
    }
    report.attempted += timed.len() as u64;
    report.fail(
        u64::from(edge.ok != sent || edge.shed != 0 || edge.parse_errors != 0),
        || format!("front end: {edge:?} after {sent} requests"),
    );

    // Stage medians; the residual closes the sum by construction.
    let selfs = tracer.self_times();
    let roundtrip = tracer.durations(|s| s.name == "http.roundtrip");
    let stage = |name: &str| selfs.get(name).and_then(|v| median_ns(v));
    let serve_reset = report_server_spans(&selfs, &tracer, report);
    if let (Some(rt), Some(parse), Some(chain), Some(admit), Some(write), Some(inner)) = (
        median_ns(&roundtrip),
        stage("http.parse"),
        stage("middleware.chain"),
        stage("admission.decide"),
        stage("http.write"),
        serve_reset,
    ) {
        let connect = stage("http.connect").unwrap_or(0.0);
        report.set("http.roundtrip_us", us(rt));
        report.set("http.parse_us", us(parse));
        report.set("middleware.chain_us", us(chain));
        report.set("admission.decide_ns", admit);
        report.set("http.write_us", us(write));
        report.set(
            "http.edge_residual_us",
            us(rt - (connect + parse + chain + admit + inner + write)),
        );
        if let Some(worker) = report.metrics.get("http.cpu_worker_us").copied() {
            report.set("http.worker_outside_serve_us", worker - us(inner));
        }
    }
    report.set("middleware.access_log_lines", edge.access_log_lines as f64);
    report.set("http.connections", edge.connections as f64);
    report.set("http.requests", edge.requests as f64);
    report.set("http.shed", edge.shed as f64);
    report.set("http.parse_errors", edge.parse_errors as f64);
    report.set(
        "memo.hit_share",
        edge.memo_hits as f64 / (edge.memo_hits + edge.memo_misses).max(1) as f64,
    );
    report.set("memo.entries", edge.memo_entries as f64);
    report.set("memo.invalidations", edge.memo_invalidations as f64);
    if let Some(ns) = median_ns(&lookups) {
        report.set("memo.lookup_ns", ns);
    }
    if let Some(ns) = median_ns(&stores) {
        report.set("memo.store_ns", ns);
    }
    report_counters(&counters, timed.len() as u64, report);
    per_script.report(&corpus, report);
    reference_pass(&corpus, timed, true, serve_reset, report);
    tracer
}

// ---------------------------------------------------------------------------
// In-process corpus
// ---------------------------------------------------------------------------

/// The same requests as a timed trial at this seed, so the µops split
/// printed here sums to that trial's `sim_uops_per_req` exactly.
fn traced_corpus(seed: u64, size: Size, report: &mut LayerReport) -> Tracer {
    let corpus = Corpus::build();
    let expected = corpus.reference_bodies();
    let mut rig = Rig::new(false, false);
    let sequence = block_shuffle(seed, corpus.len(), size.warmup + size.timed);
    let (warm, timed) = sequence.split_at(size.warmup);
    for (req, &script) in warm.iter().enumerate() {
        rig.serve(&corpus, script as usize, req as u64);
        rig.reset();
    }
    rig.reset_metrics();
    let mut tracer = Tracer::since(Instant::now());
    let mut per_script = PerScript::new(corpus.len());
    let mut wrong = 0u64;
    for (i, &script) in timed.iter().enumerate() {
        let script = script as usize;
        let req = (size.warmup + i) as u64;
        let (ok, body) = if i < TRACED_CORPUS_SPANS {
            let root = tracer.open("request", 0, req, Instant::now());
            let served = rig_request(
                &mut rig,
                &corpus,
                script,
                req,
                root,
                &mut tracer,
                &mut per_script,
            );
            tracer.close(root, Instant::now());
            served
        } else {
            let served = rig.serve(&corpus, script, req);
            rig.reset();
            (served.ok, served.body)
        };
        wrong += u64::from(!ok || body != expected[script]);
    }
    report.attempted += timed.len() as u64;
    report.fail(wrong, || {
        format!("{wrong} traced responses differ from the reference")
    });
    let serve_reset = report_server_spans(&tracer.self_times(), &tracer, report);
    report_counters(&rig.counters(), timed.len() as u64, report);
    per_script.report(&corpus, report);
    reference_pass(&corpus, timed, false, serve_reset, report);
    tracer
}

// ---------------------------------------------------------------------------
// In-process applications
// ---------------------------------------------------------------------------

fn traced_apps(seed: u64, size: Size, report: &mut LayerReport) -> Tracer {
    const SPAN_NAMES: [&str; 3] = ["apps.wordpress", "apps.drupal", "apps.mediawiki"];
    let mut tracer = Tracer::since(Instant::now());
    let mut specialized = Apps::build(seed, AppMachine::Specialized);
    let n = specialized.len();
    let mut host_ns: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut failed = warm_apps(&mut specialized, size);
    let order = app_order(seed, n, size);
    let mut req = 0u64;
    run_apps(
        &mut specialized,
        &order,
        &mut vec![0; n],
        size,
        |app, ok, t0, t1| {
            failed += u64::from(!ok);
            let name = SPAN_NAMES.get(app).copied().unwrap_or("apps.other");
            tracer.record(name, 0, req, t0, t1);
            req += 1;
            host_ns[app].push(t1.duration_since(t0).as_nanos() as u64);
        },
    );
    // The baseline machines are exact, so one run of the same requests
    // gives the Figure-14 ratio for this seed.
    let mut baseline = Apps::build(seed, AppMachine::Baseline);
    failed += warm_apps(&mut baseline, size);
    run_apps(
        &mut baseline,
        &order,
        &mut vec![0; n],
        size,
        |_, ok, _, _| failed += u64::from(!ok),
    );

    report.attempted += 2 * (n * size.timed) as u64;
    report.fail(failed, || format!("{failed} application requests panicked"));
    let mut counters = MachineCounters::default();
    for (app, samples) in host_ns.iter().enumerate() {
        let name = specialized.name(app);
        if let Some(ns) = median_ns(samples) {
            report.set(format!("apps.{name}.host_us"), us(ns));
        }
        let norm = baseline.normalized_time(&specialized, app);
        report.set(format!("apps.{name}.norm_time"), norm);
        report.set(
            format!("apps.{name}.paper_gap"),
            (norm - PAPER_FIG14_SPECIALIZED).abs(),
        );
        let c = specialized.counters(app);
        report.fail(c.live_blocks, || {
            format!("{name} leaked {} blocks", c.live_blocks)
        });
        counters.add(&c);
    }
    report_counters(&counters, (n * size.timed) as u64, report);
    tracer
}

// ---------------------------------------------------------------------------
// Micro-rigs: layers priced on their own, the same on every workload
// ---------------------------------------------------------------------------

/// A page of lower-case words with a sprinkling of the special characters
/// texturize looks for, made from the seed.
fn seeded_page(seed: u64, len: usize) -> Vec<u8> {
    const WORDS: [&str; 12] = [
        "the", "content", "article", "server", "side", "php", "request", "cache", "render",
        "template", "author", "comment",
    ];
    let mut rng = Rng::new(seed ^ 0x9a9e);
    let mut page = Vec::with_capacity(len + 16);
    while page.len() < len {
        page.extend_from_slice(WORDS[rng.below(WORDS.len())].as_bytes());
        page.push(match rng.below(40) {
            0 => b'\'',
            1 => b'"',
            2 => b'\n',
            3 => b'<',
            _ => b' ',
        });
    }
    page.truncate(len);
    page
}

fn micro_rigs(seed: u64, report: &mut LayerReport) {
    const ROUNDS: usize = 5;
    let rounds = |f: &mut dyn FnMut() -> f64| -> f64 {
        let v: Vec<f64> = (0..ROUNDS).map(|_| f()).collect();
        median(&v).expect("ROUNDS > 0")
    };

    // Build stages: what `setup_s` is made of.
    let corpus = Corpus::build();
    let scripts = corpus.len();
    let (mut parse, mut analyze, mut compile) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (mut p, mut a, mut c) = (0u64, 0u64, 0u64);
        for s in 0..scripts {
            let t = adapter::time_script_build(&corpus, s);
            p += t.lex_parse_ns;
            a += t.analyze_ns;
            c += t.compile_ns;
        }
        parse.push(p as f64 / scripts as f64);
        analyze.push(a as f64 / scripts as f64);
        compile.push(c as f64 / scripts as f64);
    }
    report.set(
        "interp.lex_parse_us",
        us(median(&parse).expect("ROUNDS > 0")),
    );
    report.set(
        "analysis.analyze_us",
        us(median(&analyze).expect("ROUNDS > 0")),
    );
    report.set(
        "interp.compile_us",
        us(median(&compile).expect("ROUNDS > 0")),
    );
    report.set(
        "interp.corpus_build_ms",
        rounds(&mut || {
            let t = Instant::now();
            std::hint::black_box(Corpus::build());
            t.elapsed().as_secs_f64() * 1e3
        }),
    );

    // Each engine alone on a bare machine: per-script medians, averaged
    // with the mix's equal weights.
    for (name, engine) in [
        ("interp.run_vm_us", BareEngine::Vm),
        ("interp.run_tree_us", BareEngine::TreeWalk),
    ] {
        let mut machine = BareMachine::new(engine);
        let mut per_script: Vec<Vec<u64>> = vec![Vec::new(); scripts];
        for _ in 0..40 {
            for (s, samples) in per_script.iter_mut().enumerate() {
                samples.push(machine.run(&corpus, s));
            }
        }
        let mean: f64 = per_script
            .iter()
            .map(|v| median_ns(v).expect("40 samples"))
            .sum::<f64>()
            / scripts as f64;
        report.set(name, us(mean));
    }

    // Accelerator models and the allocator, as host code.
    let page = seeded_page(seed, 8 << 10);
    let kb = page.len() as f64 / 1024.0;
    report.set(
        "htable.get_ns",
        rounds(&mut || adapter::time_htable_get(200_000)),
    );
    report.set(
        "heap.malloc_free_ns",
        rounds(&mut || adapter::time_heap_pair(100_000)),
    );
    report.set(
        "runtime.slab_alloc_free_ns",
        rounds(&mut || adapter::time_slab_pair(100_000)),
    );
    report.set(
        "straccel.find_ns_per_kb",
        rounds(&mut || adapter::time_straccel_find(&page, 200) / kb),
    );
    let (mut dfa, mut sift) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (d, s) = adapter::time_regex(&page, 200);
        dfa.push(d / kb);
        sift.push(s / kb);
    }
    report.set("regex.dfa_ns_per_kb", median(&dfa).expect("ROUNDS > 0"));
    report.set("regex.sift_ns_per_kb", median(&sift).expect("ROUNDS > 0"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_page_repeats_and_has_specials() {
        let a = seeded_page(5, 4096);
        assert_eq!(a.len(), 4096);
        assert_eq!(a, seeded_page(5, 4096));
        assert_ne!(a, seeded_page(6, 4096));
        for special in [b'\'', b'"', b'\n', b'<'] {
            assert!(a.contains(&special));
        }
    }
}
