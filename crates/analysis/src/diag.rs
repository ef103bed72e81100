//! Structured diagnostics and lint reports.

use std::fmt;

use convergent_ir::InstrId;

use crate::Code;

/// How serious a diagnostic is.
///
/// Ordering is by severity: `Note < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory finding; the input is legal and schedulable.
    Note,
    /// Suspicious but schedulable; rejected under `--deny warnings`.
    Warning,
    /// The input cannot be scheduled correctly.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the static analyzer.
///
/// Diagnostics deliberately contain no floats, so they derive `Eq`
/// and can travel inside `ScheduleError` values compared by tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable catalogue code.
    pub code: Code,
    /// Severity (usually [`Code::default_severity`], but `CS012`
    /// downgrades to a warning on soft-preplacement machines).
    pub severity: Severity,
    /// Instructions the finding is about (may be empty for
    /// machine-level findings).
    pub instrs: Vec<InstrId>,
    /// Human-readable description.
    pub message: String,
    /// Optional evidence, e.g. a cycle path `"i2 -> i5 -> i2"`.
    pub witness: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    #[must_use]
    pub fn new(code: Code, instrs: Vec<InstrId>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            instrs,
            message: message.into(),
            witness: None,
        }
    }

    /// Overrides the severity.
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Attaches a witness string.
    #[must_use]
    pub fn with_witness(mut self, witness: impl Into<String>) -> Self {
        self.witness = Some(witness.into());
        self
    }

    /// Renders the diagnostic as a JSON object (hand-rolled; the
    /// workspace carries no serde dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let instrs: Vec<String> = self.instrs.iter().map(|i| i.index().to_string()).collect();
        let witness = match &self.witness {
            Some(w) => format!("\"{}\"", escape_json(w)),
            None => "null".to_string(),
        };
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"instrs\":[{}],\"message\":\"{}\",\"witness\":{}}}",
            self.code,
            self.severity,
            instrs.join(","),
            escape_json(&self.message),
            witness
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        if !self.instrs.is_empty() {
            let ids: Vec<String> = self.instrs.iter().map(|i| i.to_string()).collect();
            write!(f, " [{}]", ids.join(","))?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(w) = &self.witness {
            write!(f, " (witness: {w})")?;
        }
        Ok(())
    }
}

/// Escapes `s` for embedding between the quotes of a JSON string
/// literal: `"` and `\` get a backslash, and every control character
/// below U+0020 becomes `\n`, `\t`, `\r` or a `\u00XX` escape. The
/// workspace's one JSON string escaper.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The outcome of a lint run: an ordered list of diagnostics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        LintReport::default()
    }

    /// All diagnostics, in the order the checks produced them.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Adds a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every diagnostic of `other`.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// `true` if no diagnostics at all were produced.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The most severe finding, or `None` for an empty report.
    #[must_use]
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// `(errors, warnings, notes)` counts.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Note => c.2 += 1,
            }
        }
        c
    }

    /// `true` if the input passed: no errors, and — when
    /// `deny_warnings` — no warnings either. Notes never fail a lint.
    #[must_use]
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        let threshold = if deny_warnings {
            Severity::Warning
        } else {
            Severity::Error
        };
        self.diagnostics.iter().all(|d| d.severity < threshold)
    }

    /// Iterates over the error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Renders the whole report as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!("[{}]", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_and_json() {
        let d = Diagnostic::new(
            Code::Cycle,
            vec![InstrId::new(1), InstrId::new(2)],
            "cycle through 2 instructions",
        )
        .with_witness("i1 -> i2 -> i1");
        let s = d.to_string();
        assert!(s.starts_with("CS001 error [i1,i2]:"), "{s}");
        assert!(s.contains("witness: i1 -> i2 -> i1"), "{s}");
        let j = d.to_json();
        assert!(j.contains("\"code\":\"CS001\""), "{j}");
        assert!(j.contains("\"instrs\":[1,2]"), "{j}");
        assert!(j.contains("\"witness\":\"i1 -> i2 -> i1\""), "{j}");
    }

    #[test]
    fn json_escaping() {
        let d = Diagnostic::new(Code::EmptyGraph, vec![], "quote \" slash \\ newline \n");
        let j = d.to_json();
        assert!(j.contains("quote \\\" slash \\\\ newline \\n"), "{j}");
        assert_eq!(escape_json("a\u{1}b\u{1f}"), "a\\u0001b\\u001f");
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = LintReport::new();
        assert!(r.is_clean(true));
        assert_eq!(r.worst(), None);
        r.push(Diagnostic::new(Code::DeadValue, vec![InstrId::new(0)], "x"));
        assert!(r.is_clean(true), "notes never fail a lint");
        r.push(Diagnostic::new(Code::CommOpInInput, vec![], "y"));
        assert!(r.is_clean(false));
        assert!(!r.is_clean(true));
        r.push(Diagnostic::new(Code::Cycle, vec![], "z"));
        assert!(!r.is_clean(false));
        assert_eq!(r.counts(), (1, 1, 1));
        assert_eq!(r.worst(), Some(Severity::Error));
        assert_eq!(r.errors().count(), 1);
    }
}
