//! A tiny line-based text format for scheduling units (`.cdag`).
//!
//! Dependence graphs are the interface between a compiler front end
//! and this library; the `.cdag` format lets external tools produce
//! them without linking Rust. The format is deliberately trivial:
//!
//! ```text
//! # comment
//! unit mxm
//! i lw @2        # instruction 0: a load preplaced on cluster 2
//! i fmul         # instruction 1
//! i sw @2 C[0]   # instruction 2, with a debug name
//! e 0 1          # edge: instruction 0 -> instruction 1
//! e 1 2
//! ```
//!
//! Instruction ids are implicit (the order of `i` lines). Opcode
//! mnemonics are the same MIPS-flavoured ones [`Opcode`]'s `Display`
//! prints.

use std::error::Error;
use std::fmt;

use crate::{ClusterId, DagBuilder, InstrId, Instruction, Opcode, SchedulingUnit};

/// Errors parsing the `.cdag` text format.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TextError {
    /// A line did not match any directive.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// An unknown opcode mnemonic.
    UnknownOpcode {
        /// 1-based line number.
        line: usize,
        /// The mnemonic.
        mnemonic: String,
    },
    /// An edge referenced a not-yet-declared instruction.
    BadEdge {
        /// 1-based line number.
        line: usize,
    },
    /// The file contained no instructions.
    Empty,
    /// The edge set is cyclic or otherwise invalid.
    Invalid(String),
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextError::BadLine { line, content } => {
                write!(f, "line {line}: unrecognized directive '{content}'")
            }
            TextError::UnknownOpcode { line, mnemonic } => {
                write!(f, "line {line}: unknown opcode '{mnemonic}'")
            }
            TextError::BadEdge { line } => {
                write!(f, "line {line}: edge references an undeclared instruction")
            }
            TextError::Empty => write!(f, "no instructions in input"),
            TextError::Invalid(msg) => write!(f, "invalid graph: {msg}"),
        }
    }
}

impl Error for TextError {}

fn opcode_from_mnemonic(s: &str) -> Option<Opcode> {
    Some(match s {
        "add" => Opcode::IntAlu,
        "sll" => Opcode::Shift,
        "and" => Opcode::Logic,
        "mul" => Opcode::IntMul,
        "div" => Opcode::IntDiv,
        "lw" => Opcode::Load,
        "sw" => Opcode::Store,
        "fadd" => Opcode::FAdd,
        "fmul" => Opcode::FMul,
        "fdiv" => Opcode::FDiv,
        "fsqrt" => Opcode::FSqrt,
        "li" => Opcode::Const,
        "br" => Opcode::Branch,
        "copy" => Opcode::Copy,
        "send" => Opcode::Send,
        "recv" => Opcode::Recv,
        _ => return None,
    })
}

/// Parses what follows an `i`: a mnemonic, an optional `@cluster`
/// preplacement, then an optional `# name` whose words are rejoined
/// with single spaces. Other trailing words are ignored.
fn parse_instr<'a>(
    mut parts: impl Iterator<Item = &'a str>,
    line: usize,
    content: &str,
) -> Result<Instruction, TextError> {
    let bad_line = || TextError::BadLine {
        line,
        content: content.to_string(),
    };
    let mnemonic = parts.next().ok_or_else(bad_line)?;
    let opcode = opcode_from_mnemonic(mnemonic).ok_or_else(|| TextError::UnknownOpcode {
        line,
        mnemonic: mnemonic.to_string(),
    })?;
    let mut instr = Instruction::new(opcode);
    let mut next = parts.next();
    if let Some(cluster) = next.and_then(|w| w.strip_prefix('@')) {
        let c: u16 = cluster.parse().map_err(|_| bad_line())?;
        instr = Instruction::preplaced(opcode, ClusterId::new(c));
        next = parts.next();
    }
    if next == Some("#") {
        let mut name = String::new();
        for word in parts {
            if !name.is_empty() {
                name.push(' ');
            }
            name.push_str(word);
        }
        instr = instr.with_name(name);
    }
    Ok(instr)
}

/// A parsed-but-unvalidated `.cdag` document.
///
/// [`parse_raw`] stops after the syntactic layer: instructions and
/// edge pairs are collected exactly as written, *before* any of the
/// structural checks [`DagBuilder`] enforces (edge ranges, self-edges,
/// duplicates, acyclicity). This is the input static analysis wants —
/// a linter can report a cycle with a witness path or a dangling edge
/// as a structured diagnostic, where [`parse_unit`] could only return
/// an opaque error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawUnit {
    name: String,
    instrs: Vec<Instruction>,
    edges: Vec<(u32, u32)>,
    edge_lines: Vec<usize>,
}

impl RawUnit {
    /// The unit name (`"unnamed"` when the document has no `unit`
    /// directive).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instructions, in declaration order (implicit ids).
    #[must_use]
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }

    /// The raw `(src, dst)` edge pairs, unchecked: endpoints may be
    /// out of range, repeated, self-referential, or cyclic.
    #[must_use]
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// The 1-based source line of each edge, parallel to
    /// [`RawUnit::edges`].
    #[must_use]
    pub fn edge_lines(&self) -> &[usize] {
        &self.edge_lines
    }

    /// Validates and builds the unit, applying every structural check
    /// the strict parser applies.
    ///
    /// # Errors
    ///
    /// Returns [`TextError::Empty`] for instruction-less documents,
    /// [`TextError::BadEdge`] for out-of-range endpoints, and
    /// [`TextError::Invalid`] for self-edges, duplicates, and cycles.
    pub fn build(&self) -> Result<SchedulingUnit, TextError> {
        if self.instrs.is_empty() {
            return Err(TextError::Empty);
        }
        let n = self.instrs.len() as u32;
        let mut b = DagBuilder::with_capacity(self.instrs.len());
        for instr in &self.instrs {
            b.push(instr.clone());
        }
        for (k, &(src, dst)) in self.edges.iter().enumerate() {
            let line = self.edge_lines.get(k).copied().unwrap_or(0);
            if src >= n || dst >= n {
                return Err(TextError::BadEdge { line });
            }
            b.edge(InstrId::new(src), InstrId::new(dst))
                .map_err(|e| TextError::Invalid(e.to_string()))?;
        }
        let dag = b.build().map_err(|e| TextError::Invalid(e.to_string()))?;
        Ok(SchedulingUnit::new(self.name.clone(), dag))
    }
}

/// Parses a `.cdag` document without validating the graph structure.
///
/// Only syntactic problems are errors here (unrecognized directives,
/// unknown opcodes, non-numeric edge endpoints); everything structural
/// — empty units, dangling edges, self-edges, duplicates, cycles — is
/// preserved in the returned [`RawUnit`] for a linter to diagnose.
///
/// # Errors
///
/// Returns [`TextError::BadLine`], [`TextError::UnknownOpcode`], or
/// [`TextError::BadEdge`] (non-numeric endpoint) for syntax problems.
pub fn parse_raw(text: &str) -> Result<RawUnit, TextError> {
    let mut raw = RawUnit {
        name: String::from("unnamed"),
        instrs: Vec::new(),
        edges: Vec::new(),
        edge_lines: Vec::new(),
    };
    for (k, raw_line) in text.lines().enumerate() {
        let line = k + 1;
        let content = raw_line.trim();
        if content.is_empty() || content.starts_with('#') {
            continue;
        }
        let mut parts = content.split_whitespace();
        match parts.next() {
            Some("unit") => {
                if let Some(n) = parts.next() {
                    raw.name = n.to_string();
                }
            }
            Some("i") => raw.instrs.push(parse_instr(parts, line, content)?),
            Some("e") => {
                let parse_id = |s: Option<&str>| -> Result<u32, TextError> {
                    s.and_then(|x| x.parse().ok())
                        .ok_or(TextError::BadEdge { line })
                };
                let src = parse_id(parts.next())?;
                let dst = parse_id(parts.next())?;
                raw.edges.push((src, dst));
                raw.edge_lines.push(line);
            }
            _ => {
                return Err(TextError::BadLine {
                    line,
                    content: content.to_string(),
                })
            }
        }
    }
    Ok(raw)
}

/// Serializes a scheduling unit to the `.cdag` format.
///
/// # Example
///
/// ```
/// use convergent_ir::{parse_unit, to_text, DagBuilder, Opcode, SchedulingUnit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let x = b.instr(Opcode::Load);
/// let y = b.instr(Opcode::FMul);
/// b.edge(x, y)?;
/// let unit = SchedulingUnit::new("demo", b.build()?);
///
/// let text = to_text(&unit);
/// let back = parse_unit(&text)?;
/// assert_eq!(back.name(), "demo");
/// assert_eq!(back.dag().len(), 2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn to_text(unit: &SchedulingUnit) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "unit {}\n",
        unit.name().replace(char::is_whitespace, "_")
    ));
    for i in unit.dag().ids() {
        let instr = unit.dag().instr(i);
        out.push('i');
        out.push(' ');
        out.push_str(&instr.opcode().to_string());
        if let Some(home) = instr.preplacement() {
            out.push_str(&format!(" @{}", home.raw()));
        }
        if let Some(name) = instr.name() {
            out.push_str(&format!(" # {name}"));
        }
        out.push('\n');
    }
    for e in unit.dag().edges() {
        out.push_str(&format!("e {} {}\n", e.src.raw(), e.dst.raw()));
    }
    out
}

/// Parses a `.cdag` document into a scheduling unit.
///
/// # Errors
///
/// Returns [`TextError`] for syntax problems, unknown opcodes, edges
/// to undeclared instructions, empty inputs, and cyclic graphs.
pub fn parse_unit(text: &str) -> Result<SchedulingUnit, TextError> {
    let mut name = String::from("unnamed");
    let mut b = DagBuilder::new();
    let mut n_instrs: u32 = 0;
    for (k, raw_line) in text.lines().enumerate() {
        let line = k + 1;
        let content = raw_line.trim();
        if content.is_empty() || content.starts_with('#') {
            continue;
        }
        let mut parts = content.split_whitespace();
        match parts.next() {
            Some("unit") => {
                if let Some(n) = parts.next() {
                    name = n.to_string();
                }
            }
            Some("i") => {
                b.push(parse_instr(parts, line, content)?);
                n_instrs += 1;
            }
            Some("e") => {
                let parse_id = |s: Option<&str>| -> Result<InstrId, TextError> {
                    let v: u32 = s
                        .and_then(|x| x.parse().ok())
                        .ok_or(TextError::BadEdge { line })?;
                    if v >= n_instrs {
                        return Err(TextError::BadEdge { line });
                    }
                    Ok(InstrId::new(v))
                };
                let src = parse_id(parts.next())?;
                let dst = parse_id(parts.next())?;
                b.edge(src, dst)
                    .map_err(|e| TextError::Invalid(e.to_string()))?;
            }
            _ => {
                return Err(TextError::BadLine {
                    line,
                    content: content.to_string(),
                })
            }
        }
    }
    if n_instrs == 0 {
        return Err(TextError::Empty);
    }
    let dag = b.build().map_err(|e| TextError::Invalid(e.to_string()))?;
    Ok(SchedulingUnit::new(name, dag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    #[test]
    fn round_trip_preserves_structure() {
        let mut b = DagBuilder::new();
        let x = b.preplaced_instr(Opcode::Load, ClusterId::new(3));
        let y = b.instr(Opcode::FMul);
        let z = b.push(Instruction::new(Opcode::Store).with_name("out[0]"));
        b.edge(x, y).unwrap();
        b.edge(y, z).unwrap();
        let unit = SchedulingUnit::new("demo", b.build().unwrap());

        let text = to_text(&unit);
        let back = parse_unit(&text).unwrap();
        assert_eq!(back.name(), "demo");
        assert_eq!(back.dag().len(), 3);
        assert_eq!(back.dag().edge_count(), 2);
        assert_eq!(back.dag().instr(x).preplacement(), Some(ClusterId::new(3)));
        assert_eq!(back.dag().instr(z).name(), Some("out[0]"));
        // Idempotent: serializing again yields the same text.
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn every_opcode_round_trips() {
        for op in [
            Opcode::IntAlu,
            Opcode::Shift,
            Opcode::Logic,
            Opcode::IntMul,
            Opcode::IntDiv,
            Opcode::Load,
            Opcode::Store,
            Opcode::FAdd,
            Opcode::FMul,
            Opcode::FDiv,
            Opcode::FSqrt,
            Opcode::Const,
            Opcode::Branch,
            Opcode::Copy,
            Opcode::Send,
            Opcode::Recv,
        ] {
            assert_eq!(opcode_from_mnemonic(&op.to_string()), Some(op), "{op:?}");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# header\n\nunit t\ni add\n# middle\ni add\ne 0 1\n";
        let unit = parse_unit(text).unwrap();
        assert_eq!(unit.dag().len(), 2);
    }

    #[test]
    fn errors_are_precise() {
        assert!(matches!(parse_unit(""), Err(TextError::Empty)));
        assert!(matches!(
            parse_unit("i frobnicate\n"),
            Err(TextError::UnknownOpcode { line: 1, .. })
        ));
        assert!(matches!(
            parse_unit("i add\ne 0 5\n"),
            Err(TextError::BadEdge { line: 2 })
        ));
        assert!(matches!(
            parse_unit("bogus directive\n"),
            Err(TextError::BadLine { line: 1, .. })
        ));
        // FSqrt and FDiv share a class but not a mnemonic; cycle check
        // still applies.
        assert!(matches!(
            parse_unit("i add\ni add\ne 0 1\ne 1 0\n"),
            Err(TextError::Invalid(_))
        ));
    }
}
