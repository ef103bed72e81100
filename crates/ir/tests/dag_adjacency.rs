//! The compressed adjacency of a built `Dag` against a reference model
//! that keeps one `Vec` of successors and one of predecessors per
//! instruction, fed the same `edge`/`edge_dedup` calls.
//!
//! Every slice a scheduler reads must come out element for element as
//! the model's: `succs` and `preds` in edge insertion order,
//! `neighbors` as predecessors then successors, `edges()` by source id
//! then insertion order, and `topo_order()` as Kahn's algorithm with a
//! FIFO queue seeded in id order. The builder's errors (unknown
//! endpoint, self-edge, duplicate, empty graph, cycle and its witness)
//! must match the model's too. Cases include the empty graph, single
//! nodes, isolated nodes, repeated calls and, in one case in four,
//! edges in both directions so that some graphs are cyclic.

use convergent_ir::{Dag, DagBuilder, Edge, InstrId, IrError, Opcode};
use proptest::prelude::*;

const CASES: u32 = if cfg!(miri) { 8 } else { 512 };
const MAX_N: usize = 24;

/// The per-node-`Vec` graph the builder is checked against.
struct Model {
    succs: Vec<Vec<InstrId>>,
    preds: Vec<Vec<InstrId>>,
}

impl Model {
    fn new(n: usize) -> Self {
        Model {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        }
    }

    fn edge(&mut self, src: InstrId, dst: InstrId) -> Result<(), IrError> {
        let n = self.succs.len();
        if src.index() >= n {
            return Err(IrError::UnknownInstr(src));
        }
        if dst.index() >= n {
            return Err(IrError::UnknownInstr(dst));
        }
        if src == dst {
            return Err(IrError::SelfEdge(src));
        }
        if self.succs[src.index()].contains(&dst) {
            return Err(IrError::DuplicateEdge(src, dst));
        }
        self.succs[src.index()].push(dst);
        self.preds[dst.index()].push(src);
        Ok(())
    }

    /// Kahn's algorithm with a FIFO queue seeded in id order.
    fn topo(&self) -> Result<Vec<InstrId>, IrError> {
        let n = self.succs.len();
        if n == 0 {
            return Err(IrError::Empty);
        }
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: std::collections::VecDeque<InstrId> = (0..n as u32)
            .map(InstrId::new)
            .filter(|i| indeg[i.index()] == 0)
            .collect();
        let mut order = Vec::new();
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &s in &self.succs[i.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        match (0..n).find(|&i| indeg[i] > 0) {
            Some(w) => Err(IrError::Cycle {
                witness: InstrId::new(w as u32),
            }),
            None => Ok(order),
        }
    }
}

fn check_against(dag: &Dag, model: &Model, topo: &[InstrId]) {
    let n = model.succs.len();
    assert_eq!(dag.len(), n);
    let n_edges: usize = model.succs.iter().map(Vec::len).sum();
    assert_eq!(dag.edge_count(), n_edges);
    for i in dag.ids() {
        assert_eq!(dag.succs(i), &model.succs[i.index()][..], "succs({i:?})");
        assert_eq!(dag.preds(i), &model.preds[i.index()][..], "preds({i:?})");
        let both: Vec<InstrId> = model.preds[i.index()]
            .iter()
            .chain(&model.succs[i.index()])
            .copied()
            .collect();
        assert_eq!(
            dag.neighbors(i).collect::<Vec<_>>(),
            both,
            "neighbors({i:?})"
        );
    }
    let edges: Vec<Edge> = model
        .succs
        .iter()
        .enumerate()
        .flat_map(|(s, out)| {
            out.iter()
                .map(move |&d| Edge::new(InstrId::new(s as u32), d))
        })
        .collect();
    assert_eq!(dag.edges().collect::<Vec<_>>(), edges);
    assert_eq!(dag.topo_order(), topo);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn csr_adjacency_matches_per_node_vectors(
        n in 0usize..MAX_N,
        calls in proptest::collection::vec(
            (0u32..MAX_N as u32 + 2, 0u32..MAX_N as u32 + 2, any::<bool>()),
            0..64,
        ),
        repeats in proptest::collection::vec(0usize..64, 0..8),
        both_ways in 0u8..4,
    ) {
        let mut b = DagBuilder::new();
        for k in 0..n {
            b.instr(if k % 3 == 0 { Opcode::Load } else { Opcode::IntAlu });
        }
        let mut model = Model::new(n);
        // Endpoints reach two past the largest id, so some are unknown;
        // without `both_ways` every in-range edge points forward.
        let mut pairs: Vec<(u32, u32, bool)> = calls
            .iter()
            .map(|&(a, z, dedup)| {
                let (a, z) = (a % (n as u32 + 2), z % (n as u32 + 2));
                if both_ways == 0 || a >= n as u32 || z >= n as u32 {
                    (a, z, dedup)
                } else {
                    (a.min(z), a.max(z), dedup)
                }
            })
            .collect();
        let again: Vec<(u32, u32, bool)> = repeats
            .iter()
            .filter_map(|&k| pairs.get(k).copied())
            .collect();
        pairs.extend(again);

        for (a, z, dedup) in pairs {
            let (src, dst) = (InstrId::new(a), InstrId::new(z));
            let want = model.edge(src, dst);
            if dedup {
                let want = match want {
                    Err(IrError::DuplicateEdge(..)) => Ok(()),
                    other => other,
                };
                prop_assert_eq!(b.edge_dedup(src, dst), want);
            } else {
                prop_assert_eq!(b.edge(src, dst), want);
            }
        }

        match (b.build(), model.topo()) {
            (Ok(dag), Ok(topo)) => check_against(&dag, &model, &topo),
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (got, want) => panic!("builder gave {:?}, model {:?}", got.map(|d| d.len()), want),
        }
    }
}
