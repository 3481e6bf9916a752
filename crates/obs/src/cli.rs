//! Plumbing shared by the workspace's command-line tools: the sinks that
//! `--trace PATH` and `--metrics` ask for, the run report at the end of a
//! run, and how a closed stdout pipe ends one.

use crate::{install, metrics_fold, shutdown, FileSink, RecordingSink, RunReport, Sink, TeeSink};
use std::sync::Arc;

/// The observability one command-line run asked for.
pub struct CliObservability {
    recording: Option<RecordingSink>,
    active: bool,
}

impl CliObservability {
    /// Installs the sinks the flags ask for: a JSONL [`FileSink`] at
    /// `trace`, a [`RecordingSink`] for the `metrics` run report, a
    /// [`TeeSink`] for both, and nothing for neither.
    ///
    /// # Errors
    /// `--trace PATH: …` when the trace file cannot be created.
    pub fn install(trace: Option<&str>, metrics: bool) -> Result<CliObservability, String> {
        let recording = metrics.then(RecordingSink::new);
        let file = match trace {
            Some(path) => Some(FileSink::create(path).map_err(|e| format!("--trace {path}: {e}"))?),
            None => None,
        };
        let sink: Option<Arc<dyn Sink>> = match (file, recording.clone()) {
            (Some(f), Some(r)) => Some(Arc::new(TeeSink::new(f, r))),
            (Some(f), None) => Some(Arc::new(f)),
            (None, Some(r)) => Some(Arc::new(r)),
            (None, None) => None,
        };
        let active = sink.is_some();
        if let Some(sink) = sink {
            install(sink);
        }
        Ok(CliObservability { recording, active })
    }

    /// Ends the run: disables observability, which completes the trace
    /// file, and renders the `--metrics` run report if one was asked for.
    pub fn finish(self) -> Option<String> {
        // The fold is read first: shutdown dumps counter and gauge totals
        // into the record stream for trace files, and the report takes its
        // metrics from the shards.
        let fold = self.active.then(metrics_fold);
        if fold.is_some() {
            shutdown();
        }
        Some(RunReport::from_parts(&fold?, &self.recording?.records()).render())
    }
}

/// Whether a run failed only because its stdout reader went away
/// (`tool | head`). That reader has all the output it wants, so the tools
/// exit 0 and print nothing.
pub fn is_broken_pipe(error: &(dyn std::error::Error + 'static)) -> bool {
    error
        .downcast_ref::<std::io::Error>()
        .is_some_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe)
}
