//! The sink trait: where the driver's telemetry goes.
//!
//! The driver never formats anything — it emits *events* (hierarchical
//! spans, batched counter deltas, convergence metrics) into a
//! [`TelemetrySink`] and each sink decides what to keep. The library
//! ships one recorder: [`TelemetryBuffer`] keeps every event, and the
//! `--profile` table ([`TelemetryBuffer::profile_table`]) and the
//! Chrome trace ([`super::chrome_trace`]) are renderings of recorded
//! buffers. `()` keeps nothing (it is what the untraced
//! [`crate::ConvergentScheduler::schedule`] runs with).
//! A sink declares up front which *expensive* event families it wants
//! ([`SinkInterest`]); the driver skips computing counters/convergence
//! metrics nobody asked for.
//!
//! Span paths are plain strings forming a hierarchy by convention:
//! `<run>` covers the whole schedule call; `shard3` (kind
//! [`SpanKind::Shard`]) covers one shard, whose inner events are
//! prefixed `shard3/`; stage spans (`<init>`, `<readoff>`,
//! `<listsched>`, `<decompose>`, `<stitch>`) and pass spans (`PATH`,
//! `COMM`, …) sit below; a pass's metric computation appears as the
//! phase `PASS/<metrics>`.

use super::convergence::ConvergenceMetrics;
use super::counters::CounterTotals;
use crate::PreferenceMap;

/// The level of a span in the run hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole `schedule()` call.
    Run,
    /// One shard's slice of a sharded run.
    Shard,
    /// A driver stage: `<init>`, `<readoff>`, `<listsched>`,
    /// `<decompose>`, `<stitch>`.
    Stage,
    /// One pass of the sequence.
    Pass,
    /// A phase inside a pass (metric computation).
    Phase,
}

/// Which expensive event families a sink wants. Spans are always
/// delivered (they are nearly free); counter deltas and convergence
/// metrics cost a map sweep or atomic traffic, so the driver only
/// produces them when at least one sink opts in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkInterest {
    /// Deliver per-span [`CounterTotals`] deltas (enables the map's
    /// hot-path counters).
    pub counters: bool,
    /// Deliver per-pass [`ConvergenceMetrics`] (costs one map sweep
    /// per pass).
    pub convergence: bool,
}

impl SinkInterest {
    /// Everything on.
    #[must_use]
    pub fn all() -> Self {
        SinkInterest {
            counters: true,
            convergence: true,
        }
    }

    /// Spans only (the default).
    #[must_use]
    pub fn spans_only() -> Self {
        SinkInterest::default()
    }
}

/// Receives telemetry events from the driver. All methods take `&mut
/// self` and are called from one thread at a time (sharded runs buffer
/// per shard and replay after the join, in shard order, so event order
/// is deterministic for a deterministic schedule).
pub trait TelemetrySink {
    /// Which expensive event families to produce for this sink.
    /// Called once per run, before any event.
    fn interest(&self) -> SinkInterest {
        SinkInterest::spans_only()
    }

    /// One completed span. `start_secs` is relative to the run epoch;
    /// `dur_secs` is the span's wall-clock duration.
    fn span(&mut self, path: &str, kind: SpanKind, start_secs: f64, dur_secs: f64);

    /// Counter activity attributed to the span `path` (a delta, not a
    /// running total). Only called when [`SinkInterest::counters`] was
    /// requested; zero deltas are skipped.
    fn counters(&mut self, path: &str, delta: &CounterTotals) {
        let _ = (path, delta);
    }

    /// Convergence metrics measured after the pass `path`. Only called
    /// when [`SinkInterest::convergence`] was requested.
    fn convergence(&mut self, path: &str, metrics: &ConvergenceMetrics) {
        let _ = (path, metrics);
    }

    /// The preference map after the stage or pass `path`: `"<init>"`
    /// once the fresh map is built, then each pass by the name its
    /// [`PassRecord`](crate::PassRecord) carries — the hook behind the
    /// paper's Figure 4. Delivered by monolithic runs only; per-shard
    /// buffers drop it.
    fn preference_map(&mut self, path: &str, map: &PreferenceMap) {
        let _ = (path, map);
    }
}

/// The null sink: keeps nothing and asks for spans only.
impl TelemetrySink for () {
    fn span(&mut self, _: &str, _: SpanKind, _: f64, _: f64) {}
}

/// Splits a `shard{k}/`-prefixed path (or a bare `shard{k}` container
/// span) into its shard index and the remainder.
#[must_use]
pub fn split_shard_prefix(path: &str) -> (Option<usize>, &str) {
    if let Some(rest) = path.strip_prefix("shard") {
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits > 0 {
            if let Ok(k) = rest[..digits].parse::<usize>() {
                let tail = &rest[digits..];
                if tail.is_empty() {
                    return (Some(k), "");
                }
                if let Some(inner) = tail.strip_prefix('/') {
                    return (Some(k), inner);
                }
            }
        }
    }
    (None, path)
}

/// One buffered telemetry event; see [`TelemetryBuffer`].
#[derive(Clone, Debug, PartialEq)]
pub enum TelemetryEvent {
    /// A completed span.
    Span {
        /// Span path.
        path: String,
        /// Hierarchy level.
        kind: SpanKind,
        /// Start, seconds from the run epoch.
        start_secs: f64,
        /// Duration in seconds.
        dur_secs: f64,
    },
    /// A per-span counter delta.
    Counters {
        /// Span path the delta is attributed to.
        path: String,
        /// The delta.
        delta: CounterTotals,
    },
    /// Per-pass convergence metrics.
    Convergence {
        /// Pass path.
        path: String,
        /// The metrics.
        metrics: ConvergenceMetrics,
    },
}

/// The recording sink: every event in arrival order. Sharded runs keep
/// worker-thread telemetry deterministic with it (each shard buffers,
/// the driver replays buffers in shard order after the join), and the
/// `--profile` table, the Chrome trace and the `--json` telemetry
/// reports are all renderings of a recorded buffer.
#[derive(Clone, Debug, Default)]
pub struct TelemetryBuffer {
    interest: SinkInterest,
    events: Vec<TelemetryEvent>,
}

impl TelemetryBuffer {
    /// An all-interest buffer.
    #[must_use]
    pub fn new() -> Self {
        TelemetryBuffer::with_interest(SinkInterest::all())
    }

    /// A buffer requesting only the given event families.
    #[must_use]
    pub fn with_interest(interest: SinkInterest) -> Self {
        TelemetryBuffer {
            interest,
            events: Vec::new(),
        }
    }

    /// The recorded events, in arrival order.
    #[must_use]
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Replays every event into `sink`, prefixing each path with
    /// `prefix`. Timestamps are passed through unchanged (buffers used
    /// for sharding share the parent run's epoch).
    pub fn replay_into(&self, prefix: &str, sink: &mut dyn TelemetrySink) {
        for ev in &self.events {
            match ev {
                TelemetryEvent::Span {
                    path,
                    kind,
                    start_secs,
                    dur_secs,
                } => sink.span(&format!("{prefix}{path}"), *kind, *start_secs, *dur_secs),
                TelemetryEvent::Counters { path, delta } => {
                    sink.counters(&format!("{prefix}{path}"), delta);
                }
                TelemetryEvent::Convergence { path, metrics } => {
                    sink.convergence(&format!("{prefix}{path}"), metrics);
                }
            }
        }
    }

    /// `(earliest_start, latest_end)` over the buffered spans, or
    /// `None` if no span was recorded — used to synthesize shard
    /// container spans.
    #[must_use]
    pub fn span_extent(&self) -> Option<(f64, f64)> {
        let mut extent: Option<(f64, f64)> = None;
        for ev in &self.events {
            if let TelemetryEvent::Span {
                start_secs,
                dur_secs,
                ..
            } = ev
            {
                let end = start_secs + dur_secs;
                extent = Some(match extent {
                    None => (*start_secs, end),
                    Some((lo, hi)) => (lo.min(*start_secs), hi.max(end)),
                });
            }
        }
        extent
    }

    /// Sum of every buffered counter delta.
    #[must_use]
    pub fn counter_total(&self) -> CounterTotals {
        let mut total = CounterTotals::default();
        for ev in &self.events {
            if let TelemetryEvent::Counters { delta, .. } = ev {
                total.merge(delta);
            }
        }
        total
    }

    /// The buffered `(path, metrics)` convergence entries, in order.
    pub fn convergence_entries(&self) -> impl Iterator<Item = (&str, &ConvergenceMetrics)> + '_ {
        self.events.iter().filter_map(|ev| match ev {
            TelemetryEvent::Convergence { path, metrics } => Some((path.as_str(), metrics)),
            _ => None,
        })
    }

    /// Stage and pass spans summed by full path: `(path, seconds,
    /// hits)` in first-seen order. A pass the sequence runs more than
    /// once is one row that counts every run in its hits; shard
    /// replays keep their `shard{k}/` prefix, so each shard gets its
    /// own rows. Run, shard and phase spans are left out, since they
    /// overlap the stages and passes.
    #[must_use]
    pub fn profile(&self) -> Vec<(&str, f64, u32)> {
        let mut rows: Vec<(&str, f64, u32)> = Vec::new();
        for ev in &self.events {
            if let TelemetryEvent::Span {
                path,
                kind: SpanKind::Stage | SpanKind::Pass,
                dur_secs,
                ..
            } = ev
            {
                match rows.iter_mut().find(|row| row.0 == path) {
                    Some(row) => {
                        row.1 += dur_secs;
                        row.2 += 1;
                    }
                    None => rows.push((path, *dur_secs, 1)),
                }
            }
        }
        rows
    }

    /// The `--profile` table: [`TelemetryBuffer::profile`] as aligned
    /// rows of path, seconds, share of the total and hits, then the
    /// total.
    #[must_use]
    pub fn profile_table(&self) -> String {
        let rows = self.profile();
        let total: f64 = rows.iter().map(|row| row.1).sum();
        let width = rows.iter().map(|row| row.0.len()).max().unwrap_or(4).max(4);
        let mut out = format!(
            "{:<width$}  {:>12}  {:>6}  {:>4}\n",
            "pass", "seconds", "share", "hits"
        );
        for (name, secs, hits) in &rows {
            out.push_str(&format!(
                "{name:<width$}  {secs:>12.6}  {:>5.1}%  {hits:>4}\n",
                100.0 * secs / total.max(f64::MIN_POSITIVE)
            ));
        }
        out.push_str(&format!("{:<width$}  {total:>12.6}\n", "total"));
        out
    }
}

impl TelemetrySink for TelemetryBuffer {
    fn interest(&self) -> SinkInterest {
        self.interest
    }

    fn span(&mut self, path: &str, kind: SpanKind, start_secs: f64, dur_secs: f64) {
        self.events.push(TelemetryEvent::Span {
            path: path.to_string(),
            kind,
            start_secs,
            dur_secs,
        });
    }

    fn counters(&mut self, path: &str, delta: &CounterTotals) {
        self.events.push(TelemetryEvent::Counters {
            path: path.to_string(),
            delta: *delta,
        });
    }

    fn convergence(&mut self, path: &str, metrics: &ConvergenceMetrics) {
        self.events.push(TelemetryEvent::Convergence {
            path: path.to_string(),
            metrics: *metrics,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_prefix_parsing() {
        assert_eq!(split_shard_prefix("shard0/PATH"), (Some(0), "PATH"));
        assert_eq!(split_shard_prefix("shard12/<init>"), (Some(12), "<init>"));
        assert_eq!(split_shard_prefix("shard3"), (Some(3), ""));
        assert_eq!(split_shard_prefix("shardX/PATH"), (None, "shardX/PATH"));
        assert_eq!(split_shard_prefix("PATH"), (None, "PATH"));
        assert_eq!(split_shard_prefix("shard1x"), (None, "shard1x"));
    }

    #[test]
    fn buffer_records_and_replays_with_prefix() {
        let mut buf = TelemetryBuffer::new();
        buf.span("<init>", SpanKind::Stage, 0.0, 0.5);
        buf.span("PATH", SpanKind::Pass, 0.5, 1.0);
        buf.counters(
            "PATH",
            &CounterTotals {
                set: 3,
                ..CounterTotals::default()
            },
        );
        buf.convergence(
            "PATH",
            &ConvergenceMetrics {
                mean_confidence: 1.0,
                decision_churn: 0.0,
                cluster_entropy: 0.0,
                preplacement_coverage: 1.0,
            },
        );
        assert_eq!(buf.span_extent(), Some((0.0, 1.5)));
        assert_eq!(buf.counter_total().set, 3);
        assert_eq!(buf.convergence_entries().count(), 1);

        let mut replayed = TelemetryBuffer::new();
        buf.replay_into("shard0/", &mut replayed);
        assert_eq!(replayed.events().len(), 4);
        match &replayed.events()[1] {
            TelemetryEvent::Span {
                path, start_secs, ..
            } => {
                assert_eq!(path, "shard0/PATH");
                assert_eq!(*start_secs, 0.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn profile_aggregates_by_path_in_order() {
        let mut buf = TelemetryBuffer::new();
        buf.span("<init>", SpanKind::Stage, 0.0, 0.5);
        buf.span("PATH", SpanKind::Pass, 0.5, 1.0);
        buf.span("PATHPROP", SpanKind::Pass, 1.5, 0.25);
        buf.span("PATHPROP", SpanKind::Pass, 1.75, 0.25);
        assert_eq!(
            buf.profile(),
            vec![("<init>", 0.5, 1), ("PATH", 1.0, 1), ("PATHPROP", 0.5, 2)]
        );
        assert_eq!(
            buf.profile_table(),
            concat!(
                "pass           seconds   share  hits\n",
                "<init>        0.500000   25.0%     1\n",
                "PATH          1.000000   50.0%     1\n",
                "PATHPROP      0.500000   25.0%     2\n",
                "total         2.000000\n",
            )
        );
    }

    #[test]
    fn profile_keeps_only_stage_and_pass_spans() {
        let mut buf = TelemetryBuffer::new();
        buf.span("<run>", SpanKind::Run, 0.0, 2.0);
        buf.span("shard0", SpanKind::Shard, 0.0, 1.0);
        buf.span("<init>", SpanKind::Stage, 0.0, 0.5);
        buf.span("PATH", SpanKind::Pass, 0.5, 1.0);
        buf.span("PATH/<metrics>", SpanKind::Phase, 0.6, 0.2);
        assert_eq!(buf.profile(), vec![("<init>", 0.5, 1), ("PATH", 1.0, 1)]);
    }

    #[test]
    fn profile_merges_replayed_shard_spans() {
        // Shard buffers replay the same span names repeatedly; the
        // profile aggregates by full (prefixed) path.
        let mut buf = TelemetryBuffer::new();
        buf.span("<decompose>", SpanKind::Stage, 0.0, 0.1);
        buf.span("shard0/PATH", SpanKind::Pass, 0.0, 0.5);
        buf.span("shard0/PATH", SpanKind::Pass, 0.5, 0.5);
        buf.span("shard0/<listsched>", SpanKind::Stage, 1.0, 0.25);
        assert_eq!(
            buf.profile(),
            vec![
                ("<decompose>", 0.1, 1),
                ("shard0/PATH", 1.0, 2),
                ("shard0/<listsched>", 0.25, 1)
            ]
        );
    }
}
