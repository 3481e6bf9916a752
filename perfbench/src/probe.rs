//! Reading what the program already emits: counters, span totals and
//! histogram sums from fedval-obs's registry, as differences between two
//! folds taken around a call; plus the timing helpers the workloads share.

use fedval_obs::{MetricsFold, RecordingSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Starts tracing into `sink` (installing resets the metric shards;
/// records accumulate in the sink across installs).
pub fn record(sink: &RecordingSink) {
    fedval_obs::install(Arc::new(sink.clone()));
}

/// What the registry gained between two folds.
pub struct Delta<'a> {
    before: &'a MetricsFold,
    after: &'a MetricsFold,
}

impl<'a> Delta<'a> {
    /// The change from `before` to `after`.
    pub fn new(before: &'a MetricsFold, after: &'a MetricsFold) -> Delta<'a> {
        Delta { before, after }
    }

    /// Counter increase.
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// Completed spans named `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.after
            .span_count(name)
            .saturating_sub(self.before.span_count(name))
    }

    /// Summed wall time of the spans named `name`, ns.
    pub fn span_ns(&self, name: &str) -> u64 {
        let total = |f: &MetricsFold| f.spans.get(name).map_or(0, |s| s.total_ns);
        total(self.after).saturating_sub(total(self.before))
    }

    /// Exact sum of a latency histogram's observations, ns.
    pub fn histogram_sum_ns(&self, name: &str) -> u64 {
        let sum = |f: &MetricsFold| f.histogram(name).map_or(0, |h| h.sum_ns);
        sum(self.after).saturating_sub(sum(self.before))
    }
}

/// Runs `f`, returning its result and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Ratio with a zero denominator reading 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A policy report's own time: its wall time minus the time its
/// callees in other layers account for, read from their existing spans
/// (table build, exact and sampled Shapley, nucleolus) and from the
/// simplex histogram. Simplex time inside the nucleolus is already in
/// the nucleolus span, so only the rest is taken off:
/// `simplex_in_nucleolus_ns` is one nucleolus solve's simplex time,
/// measured separately on the same game.
pub fn report_self_ns(wall_ns: u64, d: &Delta<'_>, simplex_in_nucleolus_ns: u64) -> u64 {
    let spans: u64 = [
        "core.scenario.table_build",
        "coalition.shapley.exact",
        "coalition.shapley.parallel",
        "coalition.shapley.approx",
        "coalition.nucleolus.solve",
    ]
    .iter()
    .map(|name| d.span_ns(name))
    .sum();
    let nucleoli = d.span_count("coalition.nucleolus.solve");
    let simplex_outside = d
        .histogram_sum_ns("simplex.solver.solve_ns")
        .saturating_sub(nucleoli * simplex_in_nucleolus_ns);
    wall_ns.saturating_sub(spans + simplex_outside)
}

/// Nanoseconds of a duration as `u64`.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
