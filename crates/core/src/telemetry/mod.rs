//! Telemetry: structured tracing, hot-path counters, and convergence
//! metrics for the convergent scheduler.
//!
//! The paper's central claim is that independent passes *converge*;
//! this module makes that process observable. Four kinds of signal
//! flow through one [`TelemetrySink`] trait threaded through
//! [`ConvergentScheduler`](crate::ConvergentScheduler):
//!
//! - **Spans** — the hierarchical timing tree of a run: `<run>` →
//!   `shard{k}` → stages (`<init>`, `<readoff>`, `<listsched>`,
//!   `<decompose>`, `<stitch>`) and passes → the metrics phase
//!   (`PASS/<metrics>`). Paths are plain strings; shard membership is
//!   encoded as a `shard{k}/` prefix (see [`split_shard_prefix`]). The
//!   legacy [`PassProfile`](crate::PassProfile) is now just one sink
//!   implementation, so `--profile` output is unchanged.
//! - **Counters** — hot-path event counts batched per pass
//!   ([`CounterTotals`]): weight ops by kind, band
//!   growths/densifications, boundary
//!   COMMs, and referee verdicts. The disabled path costs one
//!   predictable branch per already-cold call site; enabling is
//!   opt-in per [`PreferenceMap`](crate::PreferenceMap).
//! - **Convergence metrics** — per-pass measurements over the
//!   preference map ([`ConvergenceMetrics`]): mean confidence,
//!   decision churn, preference entropy, preplacement coverage.
//!   Computed only when a sink declares interest
//!   ([`SinkInterest::convergence`]), since the sweep costs a full
//!   pass worth of map reads.
//! - **Preference maps** — the whole map after `<init>` and after each
//!   pass ([`TelemetrySink::preference_map`]), the hook behind the
//!   paper's Figure 4. Monolithic runs only; per-shard buffers drop it.
//!
//! One exporter ships with the module: [`ChromeTraceSink`] renders
//! Perfetto-loadable trace-event JSON (`csched --trace out.json`).
//! Telemetry never alters scheduling decisions — a suite-wide test
//! proves schedules are byte-identical with sinks attached or not.

mod convergence;
mod counters;
mod sink;
mod trace_json;

pub use convergence::{measure, ConvergenceMetrics, CONFIDENCE_CAP, CONVERGENCE_SAMPLE_CAP};
pub use counters::CounterTotals;
pub(crate) use counters::{BandStats, MapCounters, OpKind};
pub use sink::{
    split_shard_prefix, MultiSink, SinkInterest, SpanKind, TelemetryBuffer, TelemetryEvent,
    TelemetrySink,
};
pub use trace_json::{validate_chrome_trace, ChromeTraceSink, TraceStats};
