//! Chrome trace-event JSON rendering (plus a small validating parser).
//!
//! [`chrome_trace`] renders recorded [`TelemetryBuffer`]s as the trace
//! event format that Perfetto and `chrome://tracing` load: `"X"`
//! complete events for spans, `"C"` counter events for per-pass
//! counter/convergence tracks, and `"M"` metadata events naming the
//! process and threads. The driver's logical hierarchy maps onto
//! trace threads: tid 0 is the main driver, shard `k`'s events land on
//! tid `k + 1` (with the `shard{k}/` prefix stripped from names).
//!
//! The writer is hand-rolled (this workspace takes no external
//! dependencies); [`validate_chrome_trace`] re-parses the output with
//! an equally hand-rolled JSON reader, which is what the check-script
//! trace smoke and the golden-file tests run against.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use convergent_analysis::escape_json;

use super::convergence::CONFIDENCE_CAP;
use super::counters::CounterTotals;
use super::sink::{split_shard_prefix, SpanKind, TelemetryBuffer, TelemetryEvent};

/// One rendered trace event.
#[derive(Clone, Debug)]
struct Event {
    name: String,
    cat: &'static str,
    ph: char,
    ts_us: f64,
    dur_us: Option<f64>,
    tid: u64,
    /// Pre-rendered JSON for the `args` object (without braces).
    args: String,
}

/// Renders `runs` as one Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`), metadata first, then every event in
/// nondecreasing `ts` order.
///
/// Runs are laid end to end: each run's timestamps are offset past the
/// latest span end of the runs before it, so several runs (the
/// `compiletime` sizes, the traced `fuzz` cases) share one timeline
/// without overlapping. Counter and convergence samples are stamped at
/// the end of the span recorded just before them, right where the span
/// they describe ended.
#[must_use]
pub fn chrome_trace(runs: &[TelemetryBuffer]) -> String {
    let mut events = Vec::new();
    let mut max_end_us = 0.0f64;
    let mut last_span_end_us = 0.0f64;
    for run in runs {
        let base_us = max_end_us;
        for ev in run.events() {
            match ev {
                TelemetryEvent::Span {
                    path,
                    kind,
                    start_secs,
                    dur_secs,
                } => {
                    let (tid, name) = match split_shard_prefix(path) {
                        (Some(k), "") => ((k + 1) as u64, format!("shard{k}")),
                        (Some(k), inner) => ((k + 1) as u64, inner.to_string()),
                        (None, _) => (0, path.clone()),
                    };
                    let cat = match kind {
                        SpanKind::Run => "run",
                        SpanKind::Shard => "shard",
                        SpanKind::Stage => "stage",
                        SpanKind::Pass => "pass",
                        SpanKind::Phase => "phase",
                    };
                    let ts = base_us + start_secs * 1e6;
                    let dur = dur_secs * 1e6;
                    max_end_us = max_end_us.max(ts + dur);
                    last_span_end_us = ts + dur;
                    events.push(Event {
                        name,
                        cat,
                        ph: 'X',
                        ts_us: ts,
                        dur_us: Some(dur),
                        tid,
                        args: String::new(),
                    });
                }
                TelemetryEvent::Counters { path, delta } => {
                    push_counter_groups(&mut events, path, delta, last_span_end_us);
                }
                TelemetryEvent::Convergence { path, metrics } => events.push(Event {
                    name: track("convergence", path),
                    cat: "convergence",
                    ph: 'C',
                    ts_us: last_span_end_us,
                    dur_us: None,
                    tid: 0,
                    args: metrics.json_members(),
                }),
            }
        }
    }
    write_json(&events)
}

/// The counter track `group` for events of `path`: shard `k`'s samples
/// get their own `group (shard{k})` track.
fn track(group: &str, path: &str) -> String {
    match split_shard_prefix(path).0 {
        Some(k) => format!("{group} (shard{k})"),
        None => group.to_string(),
    }
}

/// One `"C"` event per counter group with a nonzero member.
fn push_counter_groups(events: &mut Vec<Event>, path: &str, delta: &CounterTotals, ts_us: f64) {
    let groups: [(&str, &[(&str, u64)]); 6] = [
        (
            "weight ops",
            &[
                ("set", delta.set),
                ("scale", delta.scale),
                ("scale_cluster", delta.scale_cluster),
                ("scale_time", delta.scale_time),
                ("set_window", delta.set_window),
                ("forbid_cluster", delta.forbid_cluster),
                ("normalize", delta.normalize),
                ("reset_uniform", delta.reset_uniform),
                ("row_batch", delta.row_batch),
            ],
        ),
        (
            "band",
            &[
                ("growths", delta.band_growths),
                ("densifications", delta.band_densifications),
            ],
        ),
        ("boundary comms", &[("inserted", delta.boundary_comms)]),
        (
            "governor",
            &[
                ("accepts", delta.governor_accepts),
                ("rejects", delta.governor_rejects),
            ],
        ),
        (
            "referee",
            &[
                ("validate_ok", delta.validate_ok),
                ("validate_fail", delta.validate_fail),
                ("oracle_agree", delta.oracle_agree),
                ("oracle_disagree", delta.oracle_disagree),
            ],
        ),
        (
            "contracts",
            &[
                ("proven", delta.contracts_proven),
                ("unproven", delta.contracts_unproven),
            ],
        ),
    ];
    for (group, fields) in groups {
        if fields.iter().all(|&(_, v)| v == 0) {
            continue;
        }
        let args: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        events.push(Event {
            name: track(group, path),
            cat: "counters",
            ph: 'C',
            ts_us,
            dur_us: None,
            tid: 0,
            args: args.join(","),
        });
    }
}

/// The JSON document: the process and thread metadata, then `events`
/// sorted by `ts` (stable, so ties keep their recording order).
fn write_json(events: &[Event]) -> String {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by(|&a, &b| {
        events[a]
            .ts_us
            .partial_cmp(&events[b].ts_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let tids: BTreeSet<u64> = events.iter().map(|ev| ev.tid).collect();
    let mut lines = vec![
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"csched\"}}"
            .to_string(),
    ];
    for tid in tids {
        let label = if tid == 0 {
            "driver".to_string()
        } else {
            format!("shard{}", tid - 1)
        };
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":\"{}\"}}}}",
            escape_json(&label)
        ));
    }
    for &k in &order {
        let ev = &events[k];
        let mut line = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            escape_json(&ev.name),
            ev.cat,
            ev.ph,
            ev.tid,
            fmt_us(ev.ts_us)
        );
        if let Some(dur) = ev.dur_us {
            let _ = write!(line, ",\"dur\":{}", fmt_us(dur));
        }
        let _ = write!(line, ",\"args\":{{{}}}}}", ev.args);
        lines.push(line);
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
}

/// Timestamps print as integers when whole (Perfetto is happiest with
/// integer µs) and shortest-round-trip decimals otherwise.
fn fmt_us(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---- a small validating JSON reader ----

/// A parsed JSON value (just enough for trace validation).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("peeked a byte");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// Summary of a validated Chrome trace; see [`validate_chrome_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events in `traceEvents`.
    pub total_events: usize,
    /// `"X"` (complete span) events.
    pub span_events: usize,
    /// `"C"` (counter) events.
    pub counter_events: usize,
    /// Distinct span names seen.
    pub span_names: std::collections::BTreeSet<String>,
}

/// Each convergence metric's range. Confidence may undershoot 1 by a
/// hair: the map breaks argmax ties within `1e-12` toward the lowest
/// cluster id.
const CONVERGENCE_RANGES: [(&str, f64, f64); 4] = [
    ("mean_confidence", 1.0 - 1e-6, CONFIDENCE_CAP),
    ("decision_churn", 0.0, 1.0),
    ("cluster_entropy", 0.0, f64::INFINITY),
    ("preplacement_coverage", 0.0, 1.0),
];

/// Checks one convergence sample's `args`: exactly the four metrics,
/// each a finite number in range.
fn check_convergence(args: Option<&Json>) -> Result<(), String> {
    if !matches!(args, Some(Json::Obj(pairs)) if pairs.len() == CONVERGENCE_RANGES.len()) {
        return Err("convergence sample does not hold exactly four metrics".to_string());
    }
    for (key, lo, hi) in CONVERGENCE_RANGES {
        match args.and_then(|a| a.get(key)).and_then(Json::as_f64) {
            Some(v) if v.is_finite() && (lo..=hi).contains(&v) => {}
            v => return Err(format!("{key} is {v:?}, not finite in [{lo}, {hi}]")),
        }
    }
    Ok(())
}

/// Parses `text` as Chrome trace-event JSON and checks the schema the
/// exporters promise: a `traceEvents` array whose members carry a
/// string `name`, a string `ph`, a numeric `ts ≥ 0` in nondecreasing
/// order, and a numeric `dur ≥ 0` on every `"X"` event. Every
/// `"convergence"` counter sample must carry exactly the four
/// convergence metrics, finite: churn and coverage in [0, 1],
/// confidence in [1, [`CONFIDENCE_CAP`]] and entropy ≥ 0.
///
/// # Errors
///
/// A description of the first schema violation (or parse error).
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let root = parse_json(text)?;
    let events = root
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .clone();
    let Json::Arr(events) = events else {
        return Err("traceEvents is not an array".to_string());
    };
    let mut stats = TraceStats {
        total_events: events.len(),
        ..TraceStats::default()
    };
    let mut prev_ts = f64::NEG_INFINITY;
    for (k, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {k}: missing string name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {k}: missing string ph"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {k}: missing numeric ts"))?;
        if ts < 0.0 {
            return Err(format!("event {k} ({name}): negative ts {ts}"));
        }
        if ts < prev_ts {
            return Err(format!(
                "event {k} ({name}): ts {ts} decreases below {prev_ts}"
            ));
        }
        prev_ts = ts;
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {k} ({name}): X without numeric dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {k} ({name}): negative dur {dur}"));
                }
                stats.span_events += 1;
                stats.span_names.insert(name.to_string());
            }
            "C" => {
                if ev.get("cat").and_then(Json::as_str) == Some("convergence") {
                    check_convergence(ev.get("args"))
                        .map_err(|e| format!("event {k} ({name}): {e}"))?;
                }
                stats.counter_events += 1;
            }
            "M" => {}
            other => {
                return Err(format!("event {k} ({name}): unexpected ph {other:?}"));
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetrySink;

    fn totals(set: u64) -> CounterTotals {
        CounterTotals {
            set,
            ..CounterTotals::default()
        }
    }

    #[test]
    fn buffer_renders_valid_monotone_trace() {
        let mut buf = TelemetryBuffer::new();
        buf.span("<init>", SpanKind::Stage, 0.0, 0.001);
        buf.span("PATH", SpanKind::Pass, 0.001, 0.002);
        buf.counters("PATH", &totals(7));
        buf.span("shard0/COMM", SpanKind::Pass, 0.003, 0.001);
        buf.span("shard0", SpanKind::Shard, 0.003, 0.001);
        buf.span("<run>", SpanKind::Run, 0.0, 0.004);
        let json = chrome_trace(&[buf]);
        let stats = validate_chrome_trace(&json).expect("trace validates");
        assert_eq!(stats.span_events, 5);
        assert!(stats.counter_events >= 1);
        assert!(stats.span_names.contains("PATH"));
        assert!(stats.span_names.contains("COMM")); // prefix stripped
        assert!(stats.span_names.contains("shard0"));
    }

    /// The `"ts"` of every event named `name`, in document order.
    fn stamps(json: &str, name: &str) -> Vec<f64> {
        let Json::Arr(events) = parse_json(json)
            .unwrap()
            .get("traceEvents")
            .unwrap()
            .clone()
        else {
            panic!("traceEvents is not an array");
        };
        events
            .iter()
            .filter(|ev| ev.get("name").and_then(Json::as_str) == Some(name))
            .filter_map(|ev| ev.get("ts").and_then(Json::as_f64))
            .collect()
    }

    #[test]
    fn runs_render_end_to_end() {
        let mut first = TelemetryBuffer::new();
        first.span("a", SpanKind::Pass, 0.0, 1.0);
        first.span("late", SpanKind::Pass, 0.5, 1.5);
        first.span("early", SpanKind::Pass, 0.25, 0.25);
        let mut second = TelemetryBuffer::new();
        second.span("b", SpanKind::Pass, 0.0, 1.0);
        let json = chrome_trace(&[first, second]);
        validate_chrome_trace(&json).expect("monotone across runs");
        // The second run starts where the first run's latest span
        // ended (`late`, at 2 s), not where its last-recorded one did.
        assert_eq!(stamps(&json, "b"), vec![2_000_000.0]);
    }

    #[test]
    fn referee_counters_after_the_run_render_at_the_trace_end() {
        let mut buf = TelemetryBuffer::new();
        buf.span("PATH", SpanKind::Pass, 0.0, 0.5);
        buf.span("<run>", SpanKind::Run, 0.0, 1.0);
        buf.counters(
            "<run>",
            &CounterTotals {
                validate_ok: 1,
                oracle_agree: 1,
                ..CounterTotals::default()
            },
        );
        let json = chrome_trace(&[buf]);
        validate_chrome_trace(&json).unwrap();
        assert_eq!(stamps(&json, "referee"), vec![1_000_000.0]);
        assert!(json.ends_with("\"args\":{\"validate_ok\":1,\"validate_fail\":0,\"oracle_agree\":1,\"oracle_disagree\":0}}\n]}\n"));
    }

    #[test]
    fn parser_round_trips_escapes() {
        let v = parse_json("{\"a\\n\\\"b\":[1,2.5,-3e2,true,null,\"\\u0041\"]}").unwrap();
        let arr = v.get("a\n\"b").unwrap();
        assert_eq!(
            *arr,
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0),
                Json::Bool(true),
                Json::Null,
                Json::Str("A".to_string()),
            ])
        );
    }

    #[test]
    fn validator_rejects_decreasing_ts() {
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":5,\"dur\":1},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":4,\"dur\":1}]}";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("decreases"));
    }

    #[test]
    fn validator_rejects_x_without_dur() {
        let bad = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("dur"));
    }
}
