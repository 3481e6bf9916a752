//! The sweep engine's record stream is independent of the thread count.

use fedval_bench::sweep::{run_sweep, span_sampled};
use fedval_obs::{MetricsSnapshot, RecordingSink};
use std::sync::Arc;

/// The obs registry is process-global, so every record-stream
/// scenario lives in this one test, alone in its own test binary: any
/// other test running in the process (parallel test threads) would
/// interleave its records with these.
#[test]
fn record_stream_is_thread_count_invariant() {
    let traced = |threads: usize| {
        let sink = RecordingSink::new();
        fedval_obs::install(Arc::new(sink.clone()));
        let points: Vec<u64> = (0..16).collect();
        let out = run_sweep(
            &points,
            |&p| {
                let _span = fedval_obs::span("t.sweep.point");
                fedval_obs::counter_add("t.sweep.evals", 1);
                fedval_obs::event("t.sweep.done", || vec![("p".into(), p.to_string())]);
                p + 1
            },
            threads,
        );
        let fold = fedval_obs::metrics_fold();
        fedval_obs::shutdown();
        (out, sink.records(), fold)
    };

    let sampled_points: Vec<usize> = (0..16).filter(|&i| span_sampled(i)).collect();
    assert!(
        !sampled_points.is_empty() && sampled_points.len() < 16,
        "the 16-point sample set must be a strict, nonempty subset: {sampled_points:?}"
    );

    let (seq_out, seq_records, seq_fold) = traced(1);
    // Shard-accumulated metrics count every point exactly once, span
    // sampling notwithstanding.
    assert_eq!(seq_fold.counter("t.sweep.evals"), 16);
    assert_eq!(seq_fold.counter("bench.sweep.points"), 16);
    assert_eq!(seq_fold.span_count("t.sweep.point"), 16);
    assert_eq!(seq_fold.span_count("bench.sweep"), 1);
    assert_eq!(
        seq_fold.histogram("bench.sweep.point_ns").map(|h| h.count),
        Some(16)
    );
    let seq_snap = MetricsSnapshot::from_parts(&seq_fold, &seq_records);
    // Events replay in input order, not completion order.
    let payloads: Vec<String> = (0..16).map(|p| format!("p={p}")).collect();
    assert_eq!(seq_snap.events["t.sweep.done"], payloads);
    // Only the sampled points contributed span-trace records; the
    // shutdown dump emits each counter exactly once.
    let point_span_ends = seq_records
        .iter()
        .filter(
            |r| matches!(r, fedval_obs::Record::SpanEnd { name, .. } if name == "t.sweep.point"),
        )
        .count();
    assert_eq!(point_span_ends, sampled_points.len());
    let eval_counter_emissions = seq_records
        .iter()
        .filter(
            |r| matches!(r, fedval_obs::Record::Counter { name, .. } if name == "t.sweep.evals"),
        )
        .count();
    assert_eq!(eval_counter_emissions, 1, "one dump emission per counter");

    // Timing-free shape of the record stream: kind + name, in order.
    let shape = |records: &[fedval_obs::Record]| -> Vec<String> {
        records
            .iter()
            .map(|r| {
                let kind = match r {
                    fedval_obs::Record::SpanStart { .. } => "start",
                    fedval_obs::Record::SpanEnd { .. } => "end",
                    fedval_obs::Record::Counter { .. } => "counter",
                    fedval_obs::Record::Gauge { .. } => "gauge",
                    fedval_obs::Record::Observe { .. } => "observe",
                    fedval_obs::Record::Event { .. } => "event",
                };
                format!("{kind}:{}", r.name())
            })
            .collect()
    };
    let seq_shape = shape(&seq_records);

    for threads in [2, 4, 8] {
        let (out, records, fold) = traced(threads);
        assert_eq!(out, seq_out, "threads={threads}");
        assert_eq!(
            shape(&records),
            seq_shape,
            "sampled record stream must be schedule-independent at threads={threads}"
        );
        let snap = MetricsSnapshot::from_parts(&fold, &records);
        assert_eq!(
            snap.to_text(),
            seq_snap.to_text(),
            "snapshot must be identical at threads={threads}"
        );
    }
}
