//! Telemetry regression gate: compares a run's [`TelemetryReport`]
//! against a committed baseline report, exactly.
//!
//! The determinism suite pins *traces* bit-for-bit; this gate pins the
//! *metrics* — a refactor that keeps the digest but silently doubles
//! `net.bulk.retries` or halves `core.tasks.accepted` gets caught here.
//! CI captures a baseline once (`telemetry-diff --write`), commits it,
//! and every subsequent run diffs against it:
//!
//! ```text
//! cargo run -p enviromic-bench --bin telemetry-diff -- \
//!     --baseline BASELINE_telemetry.json --current target/bench/BENCH_sweep.json
//! ```
//!
//! Every counter, gauge and histogram is a function of the run, so the
//! gate is as strict as the determinism contract: a metric drifts when
//! its value differs from the baseline's at all, or when it exists on
//! only one side. Spans are the one wall-clock channel of a report and
//! are never compared.

use enviromic_telemetry::TelemetryReport;
use std::fmt::Debug;

/// One metric whose value differs from the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// The drifting metric.
    pub metric: String,
    /// Baseline value, rendered; `None` when the metric is new.
    pub baseline: Option<String>,
    /// Current value, rendered; `None` when the metric disappeared.
    pub current: Option<String>,
}

/// Appends a [`Drift`] for every name in `base` or `cur` whose values are
/// not equal (a name present on one side only always drifts).
fn diff_entries<'a, T: PartialEq + Debug>(
    base: &'a [(String, T)],
    cur: &'a [(String, T)],
    drifts: &mut Vec<Drift>,
) {
    let find =
        |list: &'a [(String, T)], name: &str| list.iter().find(|(n, _)| n == name).map(|(_, v)| v);
    let show = |v: Option<&T>| v.map(|v| format!("{v:?}"));
    let mut names: Vec<&str> = base.iter().chain(cur).map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let (b, c) = (find(base, name), find(cur, name));
        if b != c {
            drifts.push(Drift {
                metric: name.to_string(),
                baseline: show(b),
                current: show(c),
            });
        }
    }
}

/// Diffs `current` against `baseline`, returning every counter, gauge
/// and histogram that differs — including metrics that disappeared or
/// newly appeared. Histograms compare as whole snapshots (count, sum,
/// extremes, percentiles and buckets); spans are never compared.
#[must_use]
pub fn diff(baseline: &TelemetryReport, current: &TelemetryReport) -> Vec<Drift> {
    let mut drifts = Vec::new();
    diff_entries(&baseline.counters, &current.counters, &mut drifts);
    diff_entries(&baseline.gauges, &current.gauges, &mut drifts);
    diff_entries(&baseline.histograms, &current.histograms, &mut drifts);
    drifts
}

/// Renders drifts one metric per block: the name, then the baseline and
/// current values (`-` when absent).
#[must_use]
pub fn render_drifts(drifts: &[Drift]) -> String {
    let mut out = String::new();
    for d in drifts {
        let show = |v: &Option<String>| v.clone().unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "  {}\n    baseline {}\n    current  {}\n",
            d.metric,
            show(&d.baseline),
            show(&d.current)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_telemetry::SpanSnapshot;

    fn sample() -> TelemetryReport {
        let reg = enviromic_telemetry::Registry::new();
        reg.counter("core.tasks.accepted").add(120);
        reg.counter("net.bulk.retries").add(7);
        reg.gauge("core.balance.beta").set(1.35);
        let h = reg.histogram("net.task.delay_ms");
        for v in [10.0, 20.0, 30.0, 40.0] {
            h.observe(v);
        }
        reg.report()
    }

    fn bump(report: &mut TelemetryReport, name: &str, up: bool) {
        let v = &mut report
            .counters
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap()
            .1;
        *v = if up { *v + 1 } else { *v - 1 };
    }

    #[test]
    fn gate_flags_exactly_the_metrics_that_differ() {
        type Edit = fn(&mut TelemetryReport);
        let cases: [(&str, Edit, &[&str]); 7] = [
            ("identical report", |_| {}, &[]),
            (
                "counter +1",
                |r| bump(r, "core.tasks.accepted", true),
                &["core.tasks.accepted"],
            ),
            (
                "counter -1",
                |r| bump(r, "net.bulk.retries", false),
                &["net.bulk.retries"],
            ),
            (
                "histogram buckets only",
                |r| {
                    let h = &mut r.histograms[0].1;
                    // Move one observation between buckets: count and
                    // sum are unchanged.
                    h.buckets[0].1 -= 1;
                    h.buckets[1].1 += 1;
                },
                &["net.task.delay_ms"],
            ),
            (
                "missing metric",
                |r| r.counters.retain(|(n, _)| n != "net.bulk.retries"),
                &["net.bulk.retries"],
            ),
            (
                "new metric",
                |r| r.gauges.push(("core.new.gauge".into(), 50.0)),
                &["core.new.gauge"],
            ),
            (
                "spans differ",
                |r| {
                    r.spans.push(SpanSnapshot {
                        path: "repro".into(),
                        count: 1,
                        secs: 3.5,
                    });
                },
                &[],
            ),
        ];
        let baseline = sample();
        for (label, edit, expected) in cases {
            let mut current = sample();
            edit(&mut current);
            let flagged: Vec<String> = diff(&baseline, &current)
                .into_iter()
                .map(|d| d.metric)
                .collect();
            assert_eq!(flagged, expected, "{label}");
        }
    }

    #[test]
    fn drifts_render_both_sides() {
        let mut current = sample();
        bump(&mut current, "core.tasks.accepted", true);
        current.counters.retain(|(n, _)| n != "net.bulk.retries");
        let rendered = render_drifts(&diff(&sample(), &current));
        assert!(rendered.contains("core.tasks.accepted"), "{rendered}");
        assert!(rendered.contains("baseline 120"), "{rendered}");
        assert!(rendered.contains("current  121"), "{rendered}");
        assert!(rendered.contains("current  -"), "{rendered}");
    }
}
