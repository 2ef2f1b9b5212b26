//! Prometheus text-format rendering of the serving metrics.
//!
//! `GET /metrics` on the HTTP front end renders a [`MetricsSnapshot`] with
//! [`render_prometheus`]: plain exposition format 0.0.4 (`# HELP`/`# TYPE`
//! comments, one `name{labels} value` sample per line), hand-written since
//! the workspace vendors no client library. The schema (all names
//! `phpaccel_`-prefixed):
//!
//! | metric | type | labels |
//! |---|---|---|
//! | `phpaccel_requests_total`, `_requests_ok_total`, `_timeouts_total`, `_ooms_total`, `_panics_total`, `_shed_total`, `_replay_mismatches_total` | counter | — |
//! | `phpaccel_degraded_requests_total`, `_faults_injected_total`, `_faults_detected_total`, `_breaker_trips_total`, `_breaker_recoveries_total` | counter | `domain` |
//! | `phpaccel_breaker_state` (0 closed / 1 half-open / 2 open) | gauge | `domain`, `worker` |
//! | `phpaccel_worker_uops_total` | counter | `worker` |
//! | `phpaccel_live_blocks` | gauge | — |
//! | `phpaccel_memo_{hits,misses,stores,invalidations}_total`, `phpaccel_memo_entries` | counter / gauge | — |
//! | `phpaccel_static_savings_total` | counter | `kind` |
//! | `phpaccel_queue_depth`, `phpaccel_queue_wait_uops`, `phpaccel_latency_uops` | histogram | `le` |
//! | `phpaccel_http_*` front-door counters | counter | — |
//!
//! Counters reconcile with [`crate::pool::PoolReport`]/[`crate::http::HttpReport`]
//! by construction: all three carry the same [`Totals`].

use crate::hist::Histogram;
use crate::http::FrontSnapshot;
use crate::memo::MemoCacheStats;
use crate::server::Totals;
use phpaccel_core::AccelId;
use std::fmt::Write;

/// Everything `/metrics` exports: the workers' merged [`Totals`] (which the
/// snapshot derefs to; front-door sheds folded into `stats`, see
/// `FrontState::metrics_snapshot` in [`crate::http`]) plus what only the
/// HTTP edge has.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Merged worker totals, one breaker-state and µop row per worker.
    pub totals: Totals,
    /// Shared memo-cache counters, when a tier is configured.
    pub memo: Option<MemoCacheStats>,
    /// Front-door counters.
    pub front: FrontSnapshot,
}

impl std::ops::Deref for MetricsSnapshot {
    type Target = Totals;

    fn deref(&self) -> &Totals {
        &self.totals
    }
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

fn per_domain(out: &mut String, name: &str, help: &str, kind: &str, values: &[u64; 4]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for id in AccelId::ALL {
        let _ = writeln!(
            out,
            "{name}{{domain=\"{}\"}} {}",
            id.name(),
            values[id.index()]
        );
    }
}

/// Renders a histogram as cumulative `_bucket{le=...}` samples plus `_sum`
/// and `_count`, per the Prometheus histogram convention.
fn histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, n) in h.bucket_counts().iter().enumerate() {
        cumulative += n;
        if i == 31 {
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        } else {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                Histogram::bucket_upper_bound(i)
            );
        }
    }
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Renders the full exposition document.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(8 * 1024);
    let s = &snap.stats;

    counter(
        &mut out,
        "phpaccel_requests_total",
        "Arrivals (served + shed).",
        s.requests,
    );
    counter(
        &mut out,
        "phpaccel_requests_ok_total",
        "Requests completed normally.",
        s.ok,
    );
    counter(
        &mut out,
        "phpaccel_timeouts_total",
        "Requests killed by the execution budget (504).",
        s.timeouts,
    );
    counter(
        &mut out,
        "phpaccel_ooms_total",
        "Requests killed by the memory ceiling (500).",
        s.ooms,
    );
    counter(
        &mut out,
        "phpaccel_panics_total",
        "Requests that panicked (500).",
        s.panics,
    );
    counter(
        &mut out,
        "phpaccel_shed_total",
        "Arrivals refused by admission control (503).",
        s.shed,
    );
    counter(
        &mut out,
        "phpaccel_replay_mismatches_total",
        "Successful responses that diverged from the all-software reference (must stay 0).",
        s.mismatches,
    );

    per_domain(
        &mut out,
        "phpaccel_degraded_requests_total",
        "Requests served with the domain degraded to software.",
        "counter",
        &s.degraded_requests,
    );
    per_domain(
        &mut out,
        "phpaccel_faults_injected_total",
        "Faults injected per accelerator domain.",
        "counter",
        &snap.injected,
    );
    per_domain(
        &mut out,
        "phpaccel_faults_detected_total",
        "Faults detected per accelerator domain.",
        "counter",
        &snap.detected,
    );
    per_domain(
        &mut out,
        "phpaccel_breaker_trips_total",
        "Circuit-breaker trips per domain.",
        "counter",
        &snap.trips,
    );
    per_domain(
        &mut out,
        "phpaccel_breaker_recoveries_total",
        "Circuit-breaker recoveries per domain.",
        "counter",
        &snap.recoveries,
    );

    let _ = writeln!(
        out,
        "# HELP phpaccel_breaker_state Breaker state: 0 closed, 1 half-open, 2 open."
    );
    let _ = writeln!(out, "# TYPE phpaccel_breaker_state gauge");
    for (w, states) in snap.breaker_states.iter().enumerate() {
        for id in AccelId::ALL {
            let _ = writeln!(
                out,
                "phpaccel_breaker_state{{domain=\"{}\",worker=\"{w}\"}} {}",
                id.name(),
                states[id.index()]
            );
        }
    }

    let _ = writeln!(
        out,
        "# HELP phpaccel_worker_uops_total Metered simulated µops per worker."
    );
    let _ = writeln!(out, "# TYPE phpaccel_worker_uops_total counter");
    for (w, uops) in snap.worker_uops.iter().enumerate() {
        let _ = writeln!(out, "phpaccel_worker_uops_total{{worker=\"{w}\"}} {uops}");
    }
    gauge(
        &mut out,
        "phpaccel_live_blocks",
        "Live allocator blocks across worker machines.",
        snap.live_blocks as u64,
    );

    counter(
        &mut out,
        "phpaccel_memo_hits_total",
        "Memo-tier lookups served from cache.",
        s.memo_hits,
    );
    counter(
        &mut out,
        "phpaccel_memo_misses_total",
        "Memo-tier lookups at proven sites that missed.",
        s.memo_misses,
    );
    counter(
        &mut out,
        "phpaccel_memo_stores_total",
        "Results stored into the memo tier.",
        s.memo_stores,
    );
    counter(
        &mut out,
        "phpaccel_memo_invalidations_total",
        "Memo entries dropped by dependency invalidation.",
        s.memo_invalidations,
    );
    if let Some(memo) = &snap.memo {
        gauge(
            &mut out,
            "phpaccel_memo_entries",
            "Entries resident in the shared memo cache.",
            memo.entries as u64,
        );
    }

    let sv = &snap.savings;
    let kinds: [(&str, u64); 17] = [
        ("type_checks_avoided", sv.type_checks_avoided),
        ("rc_incs_avoided", sv.rc_incs_avoided),
        ("rc_decs_avoided", sv.rc_decs_avoided),
        ("summaries_applied", sv.summaries_applied),
        ("regex_compiles_avoided", sv.regex_compiles_avoided),
        ("heap_classes_preseeded", sv.heap_classes_preseeded),
        ("taint_lints_flagged", sv.taint_lints_flagged),
        ("arena_safe_sites", sv.arena_safe_sites),
        ("arena_bytes_reclaimed", sv.arena_bytes_reclaimed),
        ("teardown_uops_saved", sv.teardown_uops_saved),
        ("vm_ops_executed", sv.vm_ops_executed),
        ("vm_fused_ops", sv.vm_fused_ops),
        ("vm_transients_elided", sv.vm_transients_elided),
        ("memo_hits", sv.memo_hits),
        ("memo_misses", sv.memo_misses),
        ("memo_stores", sv.memo_stores),
        ("memo_invalidations", sv.memo_invalidations),
    ];
    let _ = writeln!(
        out,
        "# HELP phpaccel_static_savings_total Static-analysis savings counters by kind."
    );
    let _ = writeln!(out, "# TYPE phpaccel_static_savings_total counter");
    for (kind, value) in kinds {
        let _ = writeln!(
            out,
            "phpaccel_static_savings_total{{kind=\"{kind}\"}} {value}"
        );
    }

    histogram(
        &mut out,
        "phpaccel_queue_depth",
        "Admission-queue depth observed at each arrival.",
        &s.queue_depth,
    );
    histogram(
        &mut out,
        "phpaccel_queue_wait_uops",
        "Queue wait of admitted requests in simulated µops (populated by the overload simulator).",
        &s.queue_wait,
    );
    histogram(
        &mut out,
        "phpaccel_latency_uops",
        "Service latency of admitted requests in simulated µops.",
        &s.latency,
    );

    let f = &snap.front;
    counter(
        &mut out,
        "phpaccel_http_connections_total",
        "Connections accepted.",
        f.connections,
    );
    counter(
        &mut out,
        "phpaccel_http_connections_refused_total",
        "Connections refused at the concurrency cap.",
        f.connections_refused,
    );
    counter(
        &mut out,
        "phpaccel_http_requests_total",
        "HTTP requests parsed successfully.",
        f.http_requests,
    );
    counter(
        &mut out,
        "phpaccel_http_parse_errors_total",
        "Requests refused by the parser (4xx/5xx + close).",
        f.parse_errors,
    );
    counter(
        &mut out,
        "phpaccel_http_not_found_total",
        "Requests for unknown paths or corpus scripts (404).",
        f.not_found,
    );
    counter(
        &mut out,
        "phpaccel_http_method_not_allowed_total",
        "Non-GET requests refused (405).",
        f.method_not_allowed,
    );
    counter(
        &mut out,
        "phpaccel_http_rate_limited_total",
        "Requests refused by the token bucket (429).",
        f.rate_limited,
    );
    counter(
        &mut out,
        "phpaccel_http_shed_over_budget_total",
        "Arrivals shed for predicted deadline misses (503).",
        f.shed_over_budget,
    );
    counter(
        &mut out,
        "phpaccel_http_shed_queue_full_total",
        "Arrivals shed because the bounded queue was full (503).",
        f.shed_queue_full,
    );
    counter(
        &mut out,
        "phpaccel_http_health_requests_total",
        "GET /health requests served.",
        f.health_requests,
    );
    counter(
        &mut out,
        "phpaccel_http_metrics_requests_total",
        "GET /metrics requests served.",
        f.metrics_requests,
    );
    out
}

/// Parses exposition text back into `(name{labels}, value)` samples —
/// the reconciliation tests use this to assert `/metrics` agrees with the
/// run's report. Comment and blank lines are skipped; every sample line
/// must parse.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("unparseable sample line: {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("bad value in sample line: {line:?}"))?;
        if name.is_empty() {
            return Err(format!("empty metric name: {line:?}"));
        }
        samples.push((name.to_string(), value));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeStats;

    fn snapshot() -> MetricsSnapshot {
        let mut stats = ServeStats {
            requests: 12,
            ok: 9,
            timeouts: 1,
            ooms: 0,
            panics: 0,
            shed: 2,
            degraded_requests: [1, 0, 0, 2],
            mismatches: 0,
            memo_hits: 5,
            memo_misses: 3,
            memo_stores: 3,
            memo_invalidations: 1,
            ..ServeStats::default()
        };
        stats.queue_depth.record(0);
        stats.queue_depth.record(7);
        stats.latency.record(1000);
        MetricsSnapshot {
            totals: Totals {
                stats,
                injected: [2, 0, 1, 0],
                detected: [2, 0, 1, 0],
                trips: [1, 0, 0, 0],
                recoveries: [1, 0, 0, 0],
                breaker_states: vec![[0, 0, 0, 0], [2, 0, 1, 0]],
                worker_uops: vec![123, 456],
                ..Totals::default()
            },
            memo: Some(MemoCacheStats {
                hits: 5,
                misses: 3,
                stores: 3,
                invalidations: 1,
                poison_recoveries: 0,
                entries: 2,
            }),
            front: FrontSnapshot {
                connections: 3,
                http_requests: 12,
                parse_errors: 1,
                ..FrontSnapshot::default()
            },
        }
    }

    #[test]
    fn renders_and_round_trips() {
        let text = render_prometheus(&snapshot());
        let samples = parse_prometheus(&text).expect("every sample line parses");
        let get = |name: &str| {
            samples
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(get("phpaccel_requests_total"), 12.0);
        assert_eq!(get("phpaccel_requests_ok_total"), 9.0);
        assert_eq!(get("phpaccel_shed_total"), 2.0);
        assert_eq!(get("phpaccel_replay_mismatches_total"), 0.0);
        assert_eq!(
            get("phpaccel_degraded_requests_total{domain=\"htable\"}"),
            1.0
        );
        assert_eq!(
            get("phpaccel_faults_injected_total{domain=\"string\"}"),
            1.0
        );
        assert_eq!(
            get("phpaccel_breaker_state{domain=\"htable\",worker=\"1\"}"),
            2.0
        );
        assert_eq!(get("phpaccel_worker_uops_total{worker=\"0\"}"), 123.0);
        assert_eq!(get("phpaccel_memo_entries"), 2.0);
        assert_eq!(get("phpaccel_http_parse_errors_total"), 1.0);
        // Histogram: cumulative buckets end at +Inf == count.
        assert_eq!(get("phpaccel_queue_depth_bucket{le=\"+Inf\"}"), 2.0);
        assert_eq!(get("phpaccel_queue_depth_count"), 2.0);
        assert_eq!(get("phpaccel_queue_depth_sum"), 7.0);
        assert_eq!(get("phpaccel_latency_uops_count"), 1.0);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_bounded() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 5, 100] {
            h.record(v);
        }
        let mut out = String::new();
        histogram(&mut out, "t", "test", &h);
        let samples = parse_prometheus(&out).unwrap();
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|(n, _)| n.starts_with("t_bucket"))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(buckets.len(), 32);
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "must be cumulative"
        );
        assert_eq!(*buckets.last().unwrap(), 5.0, "+Inf bucket equals count");
        // le="0" counts exactly the zero sample; le="1" adds the two ones.
        assert_eq!(buckets[0], 1.0);
        assert_eq!(buckets[1], 3.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_prometheus("name 1.0\n# comment\n").is_ok());
        assert!(parse_prometheus("no_value_here\n").is_err());
        assert!(parse_prometheus("name notanumber\n").is_err());
    }
}
