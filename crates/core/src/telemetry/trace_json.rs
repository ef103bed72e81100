//! Chrome trace-event JSON exporter (plus a small validating parser).
//!
//! [`ChromeTraceSink`] renders the driver's telemetry as the trace
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

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::convergence::ConvergenceMetrics;
use super::counters::CounterTotals;
use super::sink::{split_shard_prefix, SinkInterest, SpanKind, TelemetrySink};

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

/// A [`TelemetrySink`] that renders Chrome trace-event JSON.
///
/// One sink can absorb several runs back to back (the `compiletime`
/// bench traces every size into one file): call
/// [`ChromeTraceSink::advance_base`] between runs so the next run's
/// events start after everything recorded so far.
#[derive(Clone, Debug, Default)]
pub struct ChromeTraceSink {
    events: Vec<Event>,
    /// Offset (µs) added to every incoming timestamp.
    base_us: f64,
    /// Latest event end seen (µs, absolute).
    max_end_us: f64,
    /// End of the most recent span (µs, absolute) — counter events are
    /// stamped here, right where the span they describe ended.
    last_span_end_us: f64,
}

impl ChromeTraceSink {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ChromeTraceSink::default()
    }

    /// Number of events recorded so far (spans + counters).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Moves the time base past everything recorded so far, so a
    /// subsequent run appears after (not on top of) the previous one.
    pub fn advance_base(&mut self) {
        self.base_us = self.max_end_us;
    }

    /// Records a standalone instantaneous counter sample at the end of
    /// the trace — used by harnesses to append referee verdicts or
    /// other totals that are not tied to a driver span.
    pub fn note_counters(&mut self, track: &str, delta: &CounterTotals) {
        let ts = self.max_end_us;
        self.push_counter_groups(track, delta, ts);
    }

    fn push_counter_groups(&mut self, suffix: &str, delta: &CounterTotals, ts_us: f64) {
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
            let mut args = String::new();
            for (k, v) in fields {
                if !args.is_empty() {
                    args.push(',');
                }
                let _ = write!(args, "{}:{v}", json_string(k));
            }
            let name = if suffix.is_empty() {
                group.to_string()
            } else {
                format!("{group} ({suffix})")
            };
            self.events.push(Event {
                name,
                cat: "counters",
                ph: 'C',
                ts_us,
                dur_us: None,
                tid: 0,
                args,
            });
        }
    }

    /// Renders the trace as a JSON document (`{"traceEvents": [...]}`).
    /// Events are emitted in nondecreasing `ts` order, metadata first.
    #[must_use]
    pub fn write_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| {
            self.events[a]
                .ts_us
                .partial_cmp(&self.events[b].ts_us)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut tids: BTreeMap<u64, &'static str> = BTreeMap::new();
        for ev in &self.events {
            tids.entry(ev.tid).or_insert("");
        }
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |line: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&line);
        };
        emit(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"csched\"}}"
                .to_string(),
            &mut first,
        );
        for &tid in tids.keys() {
            let label = if tid == 0 {
                "driver".to_string()
            } else {
                format!("shard{}", tid - 1)
            };
            emit(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":{}}}}}",
                    json_string(&label)
                ),
                &mut first,
            );
        }
        for &k in &order {
            let ev = &self.events[k];
            let mut line = format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
                json_string(&ev.name),
                ev.cat,
                ev.ph,
                ev.tid,
                fmt_us(ev.ts_us)
            );
            if let Some(dur) = ev.dur_us {
                let _ = write!(line, ",\"dur\":{}", fmt_us(dur));
            }
            let _ = write!(line, ",\"args\":{{{}}}}}", ev.args);
            emit(line, &mut first);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the rendered trace to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.write_json())
    }
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

impl TelemetrySink for ChromeTraceSink {
    fn interest(&self) -> SinkInterest {
        SinkInterest::all()
    }

    fn span(&mut self, path: &str, kind: SpanKind, start_secs: f64, dur_secs: f64) {
        let (shard, rest) = split_shard_prefix(path);
        let (tid, name) = match (shard, rest) {
            (Some(k), "") => ((k + 1) as u64, format!("shard{k}")),
            (Some(k), inner) => ((k + 1) as u64, inner.to_string()),
            (None, _) => (0, path.to_string()),
        };
        let cat = match kind {
            SpanKind::Run => "run",
            SpanKind::Shard => "shard",
            SpanKind::Stage => "stage",
            SpanKind::Pass => "pass",
            SpanKind::Phase => "phase",
        };
        let ts = self.base_us + start_secs * 1e6;
        let dur = dur_secs * 1e6;
        self.max_end_us = self.max_end_us.max(ts + dur);
        self.last_span_end_us = ts + dur;
        self.events.push(Event {
            name,
            cat,
            ph: 'X',
            ts_us: ts,
            dur_us: Some(dur),
            tid,
            args: String::new(),
        });
    }

    fn counters(&mut self, path: &str, delta: &CounterTotals) {
        let (shard, _) = split_shard_prefix(path);
        let suffix = shard.map(|k| format!("shard{k}")).unwrap_or_default();
        let ts = self.last_span_end_us;
        self.push_counter_groups(&suffix, delta, ts);
    }

    fn convergence(&mut self, path: &str, metrics: &ConvergenceMetrics) {
        let (shard, _) = split_shard_prefix(path);
        let name = match shard {
            Some(k) => format!("convergence (shard{k})"),
            None => "convergence".to_string(),
        };
        let args = format!(
            "\"mean_confidence\":{},\"decision_churn\":{},\"preference_entropy\":{},\"preplacement_coverage\":{}",
            finite(metrics.mean_confidence),
            finite(metrics.decision_churn),
            finite(metrics.preference_entropy),
            finite(metrics.preplacement_coverage),
        );
        self.events.push(Event {
            name,
            cat: "convergence",
            ph: 'C',
            ts_us: self.last_span_end_us,
            dur_us: None,
            tid: 0,
            args,
        });
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

/// Parses `text` as Chrome trace-event JSON and checks the schema the
/// exporters promise: a `traceEvents` array whose members carry a
/// string `name`, a string `ph`, a numeric `ts ≥ 0` in nondecreasing
/// order, and a numeric `dur ≥ 0` on every `"X"` event.
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

    fn totals(set: u64) -> CounterTotals {
        CounterTotals {
            set,
            ..CounterTotals::default()
        }
    }

    #[test]
    fn sink_renders_valid_monotone_trace() {
        let mut sink = ChromeTraceSink::new();
        sink.span("<init>", SpanKind::Stage, 0.0, 0.001);
        sink.span("PATH", SpanKind::Pass, 0.001, 0.002);
        sink.counters("PATH", &totals(7));
        sink.span("shard0/COMM", SpanKind::Pass, 0.003, 0.001);
        sink.span("shard0", SpanKind::Shard, 0.003, 0.001);
        sink.span("<run>", SpanKind::Run, 0.0, 0.004);
        let json = sink.write_json();
        let stats = validate_chrome_trace(&json).expect("trace validates");
        assert_eq!(stats.span_events, 5);
        assert!(stats.counter_events >= 1);
        assert!(stats.span_names.contains("PATH"));
        assert!(stats.span_names.contains("COMM")); // prefix stripped
        assert!(stats.span_names.contains("shard0"));
    }

    #[test]
    fn advance_base_separates_runs() {
        let mut sink = ChromeTraceSink::new();
        sink.span("a", SpanKind::Pass, 0.0, 1.0);
        sink.advance_base();
        sink.span("b", SpanKind::Pass, 0.0, 1.0);
        let json = sink.write_json();
        validate_chrome_trace(&json).expect("monotone after advance_base");
        assert!(json.contains("\"ts\":1000000"));
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

    #[test]
    fn referee_counters_appear_via_note_counters() {
        let mut sink = ChromeTraceSink::new();
        sink.span("<run>", SpanKind::Run, 0.0, 1.0);
        sink.note_counters(
            "",
            &CounterTotals {
                validate_ok: 1,
                oracle_agree: 1,
                ..CounterTotals::default()
            },
        );
        let json = sink.write_json();
        assert!(json.contains("referee"));
        validate_chrome_trace(&json).unwrap();
    }
}
