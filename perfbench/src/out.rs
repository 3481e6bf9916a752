//! Metric names, the result record every workload fills in, and its
//! rendering: human-readable lines, then one JSON object as the last line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them with tracing
/// off. `op` is the workload's unit of work, defined in `README.md`.
/// Times are scaled to the calibration's reference speed (`cal.rs`),
/// except synthetic-n200's long ops.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run. A layer the workload never
/// calls reads 0. Counts and times are per op unless the name says
/// otherwise.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.vs.calls", "count"),
    ("core.vs.busy_s", "s"),
    ("core.vs.ns_per_member", "ns"),
    ("core.table.build_s", "s"),
    ("coalition.approx.permutations", "count"),
    ("coalition.approx.evals", "count"),
    ("coalition.approx.self_s", "s"),
    ("coalition.shapley_exact.busy_s", "s"),
    ("coalition.nucleolus.busy_s", "s"),
    ("coalition.nucleolus.lp_solves", "count"),
    ("coalition.nucleolus.stages", "count"),
    ("simplex.solves", "count"),
    ("simplex.pivots", "count"),
    ("simplex.busy_s", "s"),
    ("simplex.us_per_pivot", "us"),
    ("policy.report.self_s", "s"),
    ("form.rounds", "count"),
    ("form.merges", "count"),
    ("form.splits", "count"),
    ("form.round_ms", "ms"),
    ("form.vs_cache_hit_ratio", "ratio"),
    ("form.vs.calls", "count"),
    ("desim.events", "count"),
    ("desim.events_per_s", "1/s"),
    ("sweep.points", "count"),
    ("sweep.self_s", "s"),
    ("serve.parse_ns", "ns"),
    ("serve.execute_us.cheap", "us"),
    ("serve.execute_us.whatif_hit", "us"),
    ("serve.execute_us.whatif_miss", "us"),
    ("obs.trace_overhead_ratio", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Errors, refusals, deadline misses, lost replies and mismatches.
    pub failed: u64,
    /// Metric name → value (the `END_TO_END` or `PER_LAYER` names).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON object.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!unit_of(name).is_empty(), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts `attempted` checked outputs, `failed` of them wrong, and
    /// names the check in the output when anything failed.
    pub fn checked(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.line(format!("gate FAILED {what}: {failed} of {attempted}"));
        }
    }

    /// Renders the result lines and the final JSON object. Metrics are
    /// the end-to-end set untraced and the per-layer set traced; a
    /// per-layer metric the workload never touched reads 0, a missing
    /// or non-finite end-to-end metric fails the run.
    pub fn render(&self, traced: bool) -> String {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        };
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        let mut json_metrics = Vec::new();
        let mut complete = true;
        for (name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if traced => 0.0,
                _ => {
                    complete = false;
                    let _ = writeln!(out, "metric {name} missing");
                    continue;
                }
            };
            let _ = writeln!(out, "metric {name} = {value} {unit}");
            json_metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = complete && self.failed == 0 && self.attempted > 0;
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json_metrics.join(", ")
        );
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_ends_with_the_result_object() {
        let mut o = Outcome::default();
        o.checked("x", 3, 0);
        for (name, _) in END_TO_END {
            o.set(name, 2.5);
        }
        let text = o.render(false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(last.contains("\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}"));
        let traced = o.render(true);
        assert!(traced
            .lines()
            .last()
            .unwrap()
            .contains("\"form.rounds\": {\"value\": 0.0"));
        let mut missing = Outcome::default();
        missing.checked("x", 1, 0);
        assert!(missing
            .render(false)
            .lines()
            .last()
            .unwrap()
            .contains("\"correct\": false"));
    }
}
