//! The benchmark's declared shape: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is generated from these tables (`phpbench --print-spec`), and
//! every result the benchmark prints is checked against them.

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<&'static str>,
    pub paths: Vec<&'static str>,
    pub run_seconds: u32,
    pub workloads: Vec<(&'static str, &'static str)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

pub const RUN_SECONDS: u32 = 25;

/// Why each workload is there. `BENCHMARK.json` has no other free text, so
/// the first also says how every run measures: on one CPU, reporting the
/// best tenth of its 50 ms windows, not their median (`run::OF_WINDOWS` and
/// `procfs::pin_to_one_cpu` say why).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::HttpKeepalive => {
            "2 keep-alive clients on the serving config: parse, middleware, queue, reply channel, \
             snapshot publish, 4 hand-offs. Every workload runs on one CPU and reports the best \
             tenth of its 50 ms windows"
        }
        Workload::HttpChurn => {
            "same server and mix, a fresh TCP connection per request: accept, thread spawn and \
             conn_handles growth; a keep-alive-only gain that costs connection set-up shows here"
        }
        Workload::CorpusInproc => {
            "no sockets, one thread, memo off: php-interp, core and php-runtime do all the work, \
             so engine/opcode/allocator changes show here and edge changes must not"
        }
        Workload::AppsInproc => {
            "the paper's three applications on the specialized machine: the four accelerator \
             models and core do the work; this is the paper's Figure-14 quantity"
        }
    }
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end metrics, every value as the clocks read. The file has one
/// bound per metric, not per workload, so each is what its least steady
/// workload needs with room to spare (README, "How steady it is"): 15 % on
/// the host clock, because the host has states minutes long that move the
/// HTTP workloads by 7 % (in process the issue's 10 % would hold); 25 % for
/// `setup_s`, a tenth of a second of mixed work read once per trial, which
/// the driver's contract gives the widest bound. The simulated clock and
/// memory do not depend on the host's speed and repeat to a fraction of
/// their bounds. The issue's `latency_p95_us` could not hold 10 % on
/// `http_churn` and is the per-layer `loadgen.latency_p95_us`, as the issue
/// prescribes.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        e2e("setup_s", "s", Better::Lower, 0.25),
        e2e("req_per_s", "1/s", Better::Higher, 0.15),
        e2e("latency_p50_us", "us", Better::Lower, 0.15),
        e2e("cpu_us_per_req", "us", Better::Lower, 0.15),
        e2e("sim_uops_per_req", "uops", Better::Lower, 0.01),
        e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    ]
}

/// The per-layer metrics, in README order. `scripts` and `apps` name the
/// per-row breakdowns.
pub fn per_layer(scripts: &[&str], apps: &[String]) -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut out: Vec<Metric> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(Metric {
            name,
            unit,
            better,
            bound: None,
        })
    };
    for (name, unit, better) in [
        // serve::http
        ("http.parse_us", "us", Lower),
        ("http.write_us", "us", Lower),
        ("http.roundtrip_us", "us", Lower),
        ("http.edge_residual_us", "us", Lower),
        ("http.connect_us", "us", Lower),
        ("http.cpu_worker_us", "us", Lower),
        ("http.cpu_conn_us", "us", Lower),
        ("http.cpu_acceptor_us", "us", Lower),
        ("http.wait_worker_us", "us", Lower),
        ("http.wait_conn_us", "us", Lower),
        ("http.worker_outside_serve_us", "us", Lower),
        ("http.metrics_render_us", "us", Lower),
        ("http.connections", "count", Lower),
        ("http.requests", "count", Higher),
        ("http.shed", "count", Lower),
        ("http.parse_errors", "count", Lower),
        // serve::middleware
        ("middleware.chain_us", "us", Lower),
        ("middleware.access_log_lines", "count", Lower),
        // serve::admission
        ("admission.decide_ns", "ns", Lower),
        // serve::server
        ("server.serve_us", "us", Lower),
        ("server.self_us", "us", Lower),
        ("server.reset_us", "us", Lower),
        ("server.replay_us", "us", Lower),
        ("server.ok", "count", Higher),
        ("server.mismatches", "count", Lower),
        // serve::memo
        ("memo.lookup_ns", "ns", Lower),
        ("memo.store_ns", "ns", Lower),
        ("memo.hit_share", "ratio", Higher),
        ("memo.entries", "count", Lower),
        ("memo.invalidations", "count", Lower),
        // php-interp
        ("interp.lex_parse_us", "us", Lower),
        ("interp.compile_us", "us", Lower),
        ("interp.corpus_build_ms", "ms", Lower),
        ("interp.run_vm_us", "us", Lower),
        ("interp.run_tree_us", "us", Lower),
        ("interp.vm_ops_per_req", "count", Lower),
        ("interp.vm_fused_share", "ratio", Higher),
        ("interp.transients_elided_per_req", "count", Higher),
        // php-analysis
        ("analysis.analyze_us", "us", Lower),
        // core
        ("core.uops.hash-map", "uops", Lower),
        ("core.uops.heap", "uops", Lower),
        ("core.uops.string", "uops", Lower),
        ("core.uops.regex", "uops", Lower),
        ("core.uops.type-check", "uops", Lower),
        ("core.uops.refcount", "uops", Lower),
        ("core.uops.jit-code", "uops", Lower),
        ("core.uops.other", "uops", Lower),
        ("core.accel_cycles_per_req", "cycles", Lower),
        ("core.context_switches", "count", Lower),
        // accel-htable
        ("htable.hit_rate", "ratio", Higher),
        ("htable.set_share", "ratio", Lower),
        ("htable.get_ns", "ns", Lower),
        // accel-heap
        ("heap.hit_rate", "ratio", Higher),
        ("heap.malloc_free_ns", "ns", Lower),
        // accel-string
        ("straccel.cycles_per_req", "cycles", Lower),
        ("straccel.find_ns_per_kb", "ns", Lower),
        // accel-regex + regex-engine
        ("regex.skip_fraction", "ratio", Higher),
        ("regex.reuse_hit_share", "ratio", Higher),
        ("regex.dfa_ns_per_kb", "ns", Lower),
        ("regex.sift_ns_per_kb", "ns", Lower),
        // php-runtime
        ("runtime.arena_bytes_per_req", "bytes", Lower),
        ("runtime.live_blocks_end", "count", Lower),
        ("runtime.slab_alloc_free_ns", "ns", Lower),
    ] {
        add(name.to_string(), unit, better);
    }
    // workloads: one row per application and per corpus script.
    for app in apps {
        add(format!("apps.{app}.host_us"), "us", Lower);
        add(format!("apps.{app}.norm_time",), "ratio", Lower);
        add(format!("apps.{app}.paper_gap"), "ratio", Lower);
    }
    for script in scripts {
        add(format!("corpus.{script}.host_us"), "us", Lower);
        add(format!("corpus.{script}.sim_uops"), "uops", Lower);
    }
    // The benchmark itself: these qualify the other numbers.
    for (name, unit, better) in [
        ("loadgen.cpu_us", "us", Lower),
        ("loadgen.latency_p95_us", "us", Lower),
        ("loadgen.latency_p99_us", "us", Lower),
        ("loadgen.latency_max_us", "us", Lower),
        ("loadgen.trial_iqr_share", "ratio", Lower),
        ("loadgen.nproc", "count", Higher),
        ("loadgen.calib_ms", "ms", Lower),
        ("loadgen.fail_share", "ratio", Lower),
        ("trace.overhead_share", "ratio", Lower),
        ("trace.spans", "count", Lower),
    ] {
        add(name.to_string(), unit, better);
    }
    out
}

pub fn spec(scripts: &[&str], apps: &[String]) -> Spec {
    Spec {
        command: vec!["bash", "benchmark/run.sh"],
        paths: vec!["benchmark"],
        run_seconds: RUN_SECONDS,
        workloads: Workload::ALL.map(|w| (w.name(), why(w))).to_vec(),
        end_to_end: end_to_end(),
        per_layer: per_layer(scripts, apps),
    }
}

// ---------------------------------------------------------------------------
// Limits
// ---------------------------------------------------------------------------

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_alphanumeric())
        && name.len() <= 64
        && bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// At most 16 of letters, digits and `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Checks a spec against the limits `BENCHMARK.json` must keep.
pub fn validate(spec: &Spec) -> Result<(), String> {
    let count = |what: &str, n: usize, lo: usize, hi: usize| {
        if (lo..=hi).contains(&n) {
            Ok(())
        } else {
            Err(format!("{n} {what}, allowed {lo}..={hi}"))
        }
    };
    count("workloads", spec.workloads.len(), 2, 8)?;
    count("end-to-end metrics", spec.end_to_end.len(), 1, 16)?;
    count("per-layer metrics", spec.per_layer.len(), 1, 128)?;
    count("paths", spec.paths.len(), 1, 16)?;
    count("command words", spec.command.len(), 1, 32)?;
    count("run_seconds", spec.run_seconds as usize, 1, 60)?;
    let mut names: Vec<&str> = spec.workloads.iter().map(|(n, _)| *n).collect();
    names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
    names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
    for name in &names {
        if !valid_name(name) {
            return Err(format!("bad name {name:?}"));
        }
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    if names.len() != total {
        return Err("a name is used twice".into());
    }
    for (name, why) in &spec.workloads {
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload {name}: why must be one line of 1..=200 characters"
            ));
        }
    }
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        if !valid_unit(m.unit) {
            return Err(format!("metric {}: bad unit {:?}", m.name, m.unit));
        }
    }
    for m in &spec.end_to_end {
        match m.bound {
            Some(b) if (0.0..=0.25).contains(&b) => {}
            _ => return Err(format!("metric {}: bound must be in 0..=0.25", m.name)),
        }
    }
    if spec.per_layer.iter().any(|m| m.bound.is_some()) {
        return Err("per-layer metrics carry no bound".into());
    }
    let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower) {
        return Err("end_to_end needs setup_s in s, lower is better".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// The text of `BENCHMARK.json`.
pub fn to_json(spec: &Spec) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": {},\n", json_list(&spec.command)));
    out.push_str(&format!("  \"paths\": {},\n", json_list(&spec.paths)));
    out.push_str(&format!("  \"run_seconds\": {},\n", spec.run_seconds));
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = spec
        .workloads
        .iter()
        .map(|(name, why)| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    out.push_str(&format!("  \"workloads\": {},\n", rows(workloads)));
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(&m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        )
    };
    out.push_str(&format!(
        "  \"end_to_end\": {},\n",
        rows(spec.end_to_end.iter().map(metric).collect())
    ));
    out.push_str(&format!(
        "  \"per_layer\": {}\n",
        rows(spec.per_layer.iter().map(metric).collect())
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter;

    fn real() -> Spec {
        spec(&adapter::corpus_names(), &adapter::app_names())
    }

    #[test]
    fn the_declared_spec_keeps_every_limit() {
        let s = real();
        validate(&s).unwrap();
        assert_eq!(s.workloads.len(), 4);
        assert_eq!(s.end_to_end.len(), 6);
        assert_eq!(s.per_layer.len(), 106);
        assert!(to_json(&s).len() <= 64 * 1024);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "a",
            "latency_p50_us",
            "core.uops.hash-map",
            "9lives",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".a",
            "-a",
            "_a",
            "a b",
            "a/b",
            "µs",
            "a\n",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn units_are_validated() {
        for good in ["us", "1/s", "%", "MB", "uops", "x.y-z_w"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "a b", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    fn filler(n: usize, bound: Option<f64>) -> Vec<Metric> {
        (0..n)
            .map(|i| Metric {
                name: format!("m{i}{}", if bound.is_some() { "e" } else { "l" }),
                unit: "us",
                better: Better::Lower,
                bound,
            })
            .collect()
    }

    #[test]
    fn too_many_workloads_or_metrics_are_refused() {
        let mut s = real();
        s.workloads = vec![("only", "one")];
        assert!(validate(&s).is_err());
        s.workloads = (0..9).map(|_| ("w", "dup")).collect();
        assert!(validate(&s).is_err());

        let mut s = real();
        s.end_to_end.extend(filler(11, Some(0.1)));
        assert!(s.end_to_end.len() > 16);
        assert!(validate(&s).unwrap_err().contains("end-to-end"));

        let mut s = real();
        s.per_layer = filler(129, None);
        assert!(validate(&s).unwrap_err().contains("per-layer"));
        s.per_layer = filler(128, None);
        validate(&s).unwrap();
    }

    #[test]
    fn bounds_names_and_setup_are_checked() {
        let mut s = real();
        s.end_to_end[1].bound = Some(0.3);
        assert!(validate(&s).is_err());

        let mut s = real();
        s.per_layer[0].name = "latency_p50_us".into();
        assert!(validate(&s).unwrap_err().contains("twice"));

        let mut s = real();
        s.end_to_end.retain(|m| m.name != "setup_s");
        assert!(validate(&s).unwrap_err().contains("setup_s"));

        let mut s = real();
        s.workloads[0].1 = "two\nlines";
        assert!(validate(&s).is_err());
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // Not assert_eq!: a mismatch would print both 9 KB files.
        assert!(
            on_disk == to_json(&real()),
            "BENCHMARK.json is stale: benchmark/run.sh --print-spec > BENCHMARK.json"
        );
    }
}
