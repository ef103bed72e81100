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
//!   `--profile` table sums the stage and pass spans of a recorded
//!   run ([`TelemetryBuffer::profile_table`]).
//! - **Counters** — hot-path event counts batched per pass
//!   ([`CounterTotals`]): weight ops by kind, band densifications,
//!   boundary COMMs, and referee verdicts. A
//!   [`PreferenceMap`](crate::PreferenceMap) always counts (one `u64`
//!   increment per mutation); the driver emits the counts only to a
//!   sink whose [`SinkInterest::counters`] asks for them.
//! - **Convergence metrics** — per-pass measurements over the
//!   preference map ([`ConvergenceMetrics`]): mean confidence,
//!   decision churn, cluster entropy, preplacement coverage.
//!   Computed only when a sink declares interest
//!   ([`SinkInterest::convergence`]), since the sweep costs a full
//!   pass worth of map reads.
//! - **Preference maps** — the whole map after `<init>` and after each
//!   pass ([`TelemetrySink::preference_map`]), the hook behind the
//!   paper's Figure 4. Monolithic runs only; per-shard buffers drop it.
//!
//! One recorder ships with the module: [`TelemetryBuffer`] keeps every
//! event a run emits, and the `--profile` table and the Chrome trace
//! are renderings of recorded buffers. [`chrome_trace`] writes
//! Perfetto-loadable trace-event JSON (`csched --trace out.json`) from
//! one or more runs laid end to end. Telemetry never alters scheduling
//! decisions — a suite-wide test proves schedules are byte-identical
//! with sinks attached or not.

mod convergence;
mod counters;
mod sink;
mod trace_json;

pub use convergence::{measure, ConvergenceMetrics, CONFIDENCE_CAP, CONVERGENCE_SAMPLE_CAP};
pub use counters::CounterTotals;
pub(crate) use counters::{MapCounters, OpKind};
pub use sink::{
    split_shard_prefix, SinkInterest, SpanKind, TelemetryBuffer, TelemetryEvent, TelemetrySink,
};
pub use trace_json::{chrome_trace, validate_chrome_trace, TraceStats};
