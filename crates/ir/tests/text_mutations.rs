//! The `.cdag` readers on mutated bytes.
//!
//! Each case serializes a random unit with `to_text`, checks that the
//! text round-trips exactly, then damages it: flipped, inserted and
//! deleted bytes, a truncation, CRLF line ends and non-ASCII
//! whitespace. Neither `parse_unit` nor `parse_raw(..).build()` may
//! panic on the result, and whenever the strict reader accepts, the
//! raw one followed by `build` must accept too and yield the same unit.

use convergent_ir::{
    parse_raw, parse_unit, to_text, ClusterId, DagBuilder, InstrId, Instruction, Opcode,
    SchedulingUnit,
};
use proptest::prelude::*;

const CASES: u32 = if cfg!(miri) { 8 } else { 768 };

const OPCODES: [Opcode; 16] = [
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
];

/// Words for instruction names, some with non-ASCII letters and the
/// format's own tokens.
const WORDS: [&str; 6] = ["a[0]", "x", "#", "@3", "e", "größe"];

/// Bytes and strings an insertion draws from: format tokens, digits,
/// ASCII and non-ASCII whitespace, and a byte that is never UTF-8.
const INSERTS: [&[u8]; 16] = [
    b" ",
    b"\t",
    b"\n",
    b"\r",
    b"\r\n",
    b"#",
    b"@",
    b"e ",
    b"i ",
    b"7",
    b"-",
    b"\xff",
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    "\u{3000}".as_bytes(),
    "\u{85}".as_bytes(),
];

/// A unit of `n` instructions with forward edges from `pairs`.
fn unit(n: usize, instrs: &[(u8, u16, u8)], pairs: &[(usize, usize)]) -> SchedulingUnit {
    let mut b = DagBuilder::new();
    for k in 0..n {
        let (op, home, name) = instrs.get(k).copied().unwrap_or((0, 0, 0));
        let opcode = OPCODES[op as usize % OPCODES.len()];
        let mut instr = if home % 3 == 0 {
            Instruction::preplaced(opcode, ClusterId::new(home / 3))
        } else {
            Instruction::new(opcode)
        };
        if name % 4 == 0 {
            let words: Vec<&str> = (0..1 + name as usize % 3)
                .map(|w| WORDS[(name as usize / 4 + w) % WORDS.len()])
                .collect();
            instr = instr.with_name(words.join(" "));
        }
        b.push(instr);
    }
    for &(a, z) in pairs {
        let (a, z) = (a % n, z % n);
        if a < z {
            b.edge_dedup(InstrId::new(a as u32), InstrId::new(z as u32))
                .expect("forward edge between declared ids");
        }
    }
    SchedulingUnit::new("mut", b.build().expect("forward edges are acyclic"))
}

/// Applies mutation `kind` at byte `at` (taken modulo the length).
fn mutate(bytes: &mut Vec<u8>, kind: u8, at: usize, pick: u8) {
    let at = if bytes.is_empty() {
        0
    } else {
        at % bytes.len()
    };
    match kind % 6 {
        0 if !bytes.is_empty() => bytes[at] ^= 1 << (pick % 8),
        1 => {
            let s = INSERTS[pick as usize % INSERTS.len()];
            bytes.splice(at..at, s.iter().copied());
        }
        2 if !bytes.is_empty() => {
            bytes.remove(at);
        }
        3 => bytes.truncate(at),
        4 => {
            let crlf = String::from_utf8_lossy(bytes).replace('\n', "\r\n");
            *bytes = crlf.into_bytes();
        }
        _ => {
            // Swap an ASCII space for a non-ASCII one.
            if let Some(k) = bytes[at..].iter().position(|&b| b == b' ') {
                let ws = INSERTS[12 + pick as usize % 4];
                bytes.splice(at + k..=at + k, ws.iter().copied());
            }
        }
    }
}

/// Both readers on `text`: no panic, and the raw route accepts and
/// agrees whenever the strict one accepts.
fn readers_agree(text: &str) {
    let strict = parse_unit(text);
    let raw = parse_raw(text).map(|r| r.build());
    if let Ok(u) = strict {
        let v = raw
            .expect("parse_raw accepts what parse_unit accepts")
            .expect("RawUnit::build accepts what parse_unit accepts");
        assert_eq!(u.name(), v.name());
        assert_eq!(u.dag().instrs(), v.dag().instrs());
        assert!(u.dag().edges().eq(v.dag().edges()));
        assert_eq!(u.dag().topo_order(), v.dag().topo_order());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn readers_survive_mutated_bytes_and_agree(
        n in 1usize..20,
        instrs in proptest::collection::vec((0u8..=255, 0u16..12, 0u8..=255), 0..20),
        pairs in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
        mutations in proptest::collection::vec((0u8..=255, any::<u16>(), 0u8..=255), 1..5),
    ) {
        let text = to_text(&unit(n, &instrs, &pairs));
        let back = parse_unit(&text).expect("serializer output parses");
        prop_assert_eq!(&to_text(&back), &text);
        readers_agree(&text);

        let mut bytes = text.into_bytes();
        for &(kind, at, pick) in &mutations {
            mutate(&mut bytes, kind, usize::from(at), pick);
            readers_agree(&String::from_utf8_lossy(&bytes));
        }
    }
}
