//! Immutable data-dependence DAGs and their builder.
//!
//! A [`Dag`] is constructed once through [`DagBuilder`] and never mutated
//! afterwards: every scheduler in the workspace walks the same graph, and
//! freezing it lets us precompute the topological order and share the
//! graph freely. Nodes are instructions; a directed edge `a -> b` means
//! `b` consumes a value produced by `a` (or is otherwise ordered after
//! `a`), so `b` may start no earlier than `a`'s issue time plus `a`'s
//! latency.

use crate::{IdSet, InstrId, Instruction, IrError, Opcode};

/// A directed dependence edge between two instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producer instruction.
    pub src: InstrId,
    /// Consumer instruction.
    pub dst: InstrId,
}

impl Edge {
    /// Creates an edge from `src` to `dst`.
    #[must_use]
    pub const fn new(src: InstrId, dst: InstrId) -> Self {
        Edge { src, dst }
    }
}

/// An immutable data-dependence DAG.
///
/// Construct with [`DagBuilder`]. The graph stores its adjacency in one
/// compressed-sparse-row array — each instruction's predecessors, then
/// its successors, both in edge insertion order — plus a topological
/// order; all of them are exposed as slices so analyses can iterate
/// without allocation.
#[derive(Clone, Debug)]
pub struct Dag {
    instrs: Vec<Instruction>,
    /// `adj[off[i]..split[i]]` are `i`'s predecessors and
    /// `adj[split[i]..off[i + 1]]` its successors.
    adj: Vec<InstrId>,
    off: Vec<u32>,
    split: Vec<u32>,
    topo: Vec<InstrId>,
}

impl Dag {
    /// Returns the number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` if the graph has no instructions.
    ///
    /// Note that [`DagBuilder::build`] rejects empty graphs, so a built
    /// `Dag` always returns `false`; the method exists for API
    /// completeness (clippy's `len_without_is_empty`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Returns the number of dependence edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Returns the instruction with id `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for this graph.
    #[must_use]
    pub fn instr(&self, i: InstrId) -> &Instruction {
        &self.instrs[i.index()]
    }

    /// Returns all instructions in id order.
    #[must_use]
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Iterates over all instruction ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = InstrId> + '_ {
        (0..self.instrs.len() as u32).map(InstrId::new)
    }

    /// Returns the direct successors (consumers) of `i`.
    #[must_use]
    pub fn succs(&self, i: InstrId) -> &[InstrId] {
        &self.adj[self.split[i.index()] as usize..self.off[i.index() + 1] as usize]
    }

    /// Returns the direct predecessors (producers) of `i`.
    #[must_use]
    pub fn preds(&self, i: InstrId) -> &[InstrId] {
        &self.adj[self.off[i.index()] as usize..self.split[i.index()] as usize]
    }

    /// Returns both predecessors and successors of `i` — the
    /// "neighbors" that the paper's COMM heuristic inspects.
    pub fn neighbors(&self, i: InstrId) -> impl Iterator<Item = InstrId> + '_ {
        self.adj[self.off[i.index()] as usize..self.off[i.index() + 1] as usize]
            .iter()
            .copied()
    }

    /// Returns instruction ids in a topological order (producers before
    /// consumers).
    #[must_use]
    pub fn topo_order(&self) -> &[InstrId] {
        &self.topo
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.ids()
            .flat_map(move |src| self.succs(src).iter().map(move |&dst| Edge::new(src, dst)))
    }

    /// Returns ids of instructions with no predecessors.
    pub fn roots(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.ids().filter(|&i| self.preds(i).is_empty())
    }

    /// Returns ids of instructions with no successors.
    pub fn leaves(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.ids().filter(|&i| self.succs(i).is_empty())
    }

    /// Returns ids of all preplaced instructions.
    pub fn preplaced(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.ids().filter(|&i| self.instr(i).is_preplaced())
    }

    /// Returns the number of preplaced instructions.
    #[must_use]
    pub fn preplaced_count(&self) -> usize {
        self.preplaced().count()
    }

    /// Builds the graph over `instrs` from `edges`, whose endpoints
    /// must be declared and distinct and which must hold no edge twice
    /// (the checks [`DagBuilder::edge`] makes). A counting sort fills
    /// the adjacency in insertion order; Kahn's algorithm then checks
    /// acyclicity, and its queue is the topological order.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Empty`] for a graph with no instructions and
    /// [`IrError::Cycle`] if the edges do not form a DAG.
    pub(crate) fn from_edges(instrs: Vec<Instruction>, edges: &[Edge]) -> Result<Dag, IrError> {
        let n = instrs.len();
        if n == 0 {
            return Err(IrError::Empty);
        }
        let slots = u32::try_from(2 * edges.len()).expect("fewer than 2^31 edges");
        // In-degrees, and in `split` each node's total degree.
        let mut indeg = vec![0u32; n];
        let mut split = vec![0u32; n];
        for e in edges {
            indeg[e.dst.index()] += 1;
            split[e.src.index()] += 1;
            split[e.dst.index()] += 1;
        }
        // Prefix sums: `off[i]` is the end of `i`'s predecessors and
        // `split[i]` the end of its successors.
        let mut off = Vec::with_capacity(n + 1);
        let mut end = 0;
        for (s, &d) in split.iter_mut().zip(&indeg) {
            off.push(end + d);
            end += *s;
            *s = end;
        }
        off.push(slots);
        // Fill back to front, so each run keeps insertion order and
        // each cursor stops at the start of its run.
        let mut adj = vec![InstrId::new(0); slots as usize];
        for e in edges.iter().rev() {
            let (s, d) = (e.src.index(), e.dst.index());
            off[d] -= 1;
            adj[off[d] as usize] = e.src;
            split[s] -= 1;
            adj[split[s] as usize] = e.dst;
        }
        let mut dag = Dag {
            instrs,
            adj,
            off,
            split,
            topo: Vec::new(),
        };

        // Kahn's algorithm: the queue of freed nodes is the order.
        let mut topo = Vec::with_capacity(n);
        topo.extend(dag.ids().filter(|i| indeg[i.index()] == 0));
        let mut head = 0;
        while let Some(&i) = topo.get(head) {
            head += 1;
            for &s in dag.succs(i) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    topo.push(s);
                }
            }
        }
        if topo.len() != n {
            let witness = dag
                .ids()
                .find(|i| indeg[i.index()] > 0)
                .expect("cycle implies a node with nonzero in-degree");
            return Err(IrError::Cycle { witness });
        }
        dag.topo = topo;
        Ok(dag)
    }
}

/// Incremental builder for [`Dag`].
///
/// # Example
///
/// ```
/// use convergent_ir::{DagBuilder, Opcode, ClusterId};
///
/// # fn main() -> Result<(), convergent_ir::IrError> {
/// let mut b = DagBuilder::new();
/// let ld = b.preplaced_instr(Opcode::Load, ClusterId::new(0));
/// let add = b.instr(Opcode::IntAlu);
/// b.edge(ld, add)?;
/// let dag = b.build()?;
/// assert_eq!(dag.succs(ld), &[add]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct DagBuilder {
    instrs: Vec<Instruction>,
    edges: Vec<Edge>,
    /// Dense ids hash with [`IdHasher`](crate::IdHasher). A file can
    /// choose which pairs of its declared ids it connects, so crafted
    /// collisions could slow its parse, never change its graph.
    edge_set: IdSet<(InstrId, InstrId)>,
}

impl DagBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        DagBuilder::default()
    }

    /// Creates a builder with capacity for `n` instructions.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        DagBuilder {
            instrs: Vec::with_capacity(n),
            edges: Vec::with_capacity(n * 2),
            edge_set: IdSet::with_capacity_and_hasher(n * 2, Default::default()),
        }
    }

    /// Adds an ordinary instruction and returns its id.
    pub fn instr(&mut self, opcode: Opcode) -> InstrId {
        self.push(Instruction::new(opcode))
    }

    /// Adds a preplaced instruction pinned to `home` and returns its id.
    pub fn preplaced_instr(&mut self, opcode: Opcode, home: crate::ClusterId) -> InstrId {
        self.push(Instruction::preplaced(opcode, home))
    }

    /// Adds a fully-specified instruction and returns its id.
    pub fn push(&mut self, instr: Instruction) -> InstrId {
        let id = InstrId::new(self.instrs.len() as u32);
        self.instrs.push(instr);
        id
    }

    /// Number of instructions added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` if no instructions have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Adds a dependence edge `src -> dst`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownInstr`] if either endpoint has not been
    /// added, [`IrError::SelfEdge`] for `src == dst`, and
    /// [`IrError::DuplicateEdge`] if the edge already exists.
    pub fn edge(&mut self, src: InstrId, dst: InstrId) -> Result<(), IrError> {
        let n = self.instrs.len();
        if src.index() >= n {
            return Err(IrError::UnknownInstr(src));
        }
        if dst.index() >= n {
            return Err(IrError::UnknownInstr(dst));
        }
        if src == dst {
            return Err(IrError::SelfEdge(src));
        }
        if !self.edge_set.insert((src, dst)) {
            return Err(IrError::DuplicateEdge(src, dst));
        }
        self.edges.push(Edge::new(src, dst));
        Ok(())
    }

    /// Adds a dependence edge, ignoring duplicates.
    ///
    /// Workload generators often emit the same dependence from several
    /// syntactic paths; this helper keeps them concise.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`DagBuilder::edge`] except
    /// [`IrError::DuplicateEdge`], which is silently ignored.
    pub fn edge_dedup(&mut self, src: InstrId, dst: InstrId) -> Result<(), IrError> {
        match self.edge(src, dst) {
            Err(IrError::DuplicateEdge(..)) | Ok(()) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Finalizes the graph, verifying acyclicity and computing the
    /// topological order.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Empty`] for a graph with no instructions and
    /// [`IrError::Cycle`] if the edges do not form a DAG.
    pub fn build(self) -> Result<Dag, IrError> {
        // Free the duplicate check before the fill allocates.
        drop(self.edge_set);
        Dag::from_edges(self.instrs, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterId;

    fn diamond() -> Dag {
        // 0 -> {1, 2} -> 3
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::Load);
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntMul);
        let z = b.instr(Opcode::Store);
        b.edge(a, x).unwrap();
        b.edge(a, y).unwrap();
        b.edge(x, z).unwrap();
        b.edge(y, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_diamond() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.succs(InstrId::new(0)).len(), 2);
        assert_eq!(d.preds(InstrId::new(3)).len(), 2);
        assert_eq!(d.roots().collect::<Vec<_>>(), vec![InstrId::new(0)]);
        assert_eq!(d.leaves().collect::<Vec<_>>(), vec![InstrId::new(3)]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = diamond();
        let pos: Vec<usize> = {
            let mut pos = vec![0; d.len()];
            for (k, &i) in d.topo_order().iter().enumerate() {
                pos[i.index()] = k;
            }
            pos
        };
        for e in d.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()], "{e:?}");
        }
    }

    #[test]
    fn neighbors_are_preds_and_succs() {
        let d = diamond();
        let n: Vec<InstrId> = d.neighbors(InstrId::new(1)).collect();
        assert_eq!(n, vec![InstrId::new(0), InstrId::new(3)]);
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let c = b.instr(Opcode::IntAlu);
        b.edge(a, c).unwrap();
        b.edge(c, a).unwrap();
        assert!(matches!(b.build(), Err(IrError::Cycle { .. })));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), IrError::Empty);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        assert_eq!(
            b.edge(a, InstrId::new(5)),
            Err(IrError::UnknownInstr(InstrId::new(5)))
        );
        assert_eq!(
            b.edge(InstrId::new(9), a),
            Err(IrError::UnknownInstr(InstrId::new(9)))
        );
        assert_eq!(b.edge(a, a), Err(IrError::SelfEdge(a)));
        let c = b.instr(Opcode::IntAlu);
        b.edge(a, c).unwrap();
        assert_eq!(b.edge(a, c), Err(IrError::DuplicateEdge(a, c)));
        // edge_dedup swallows only duplicates.
        b.edge_dedup(a, c).unwrap();
        assert!(b.edge_dedup(a, a).is_err());
    }

    #[test]
    fn preplaced_iteration() {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, ClusterId::new(1));
        b.instr(Opcode::IntAlu);
        b.preplaced_instr(Opcode::Store, ClusterId::new(3));
        let d = b.build().unwrap();
        assert_eq!(d.preplaced_count(), 2);
        let homes: Vec<ClusterId> = d
            .preplaced()
            .map(|i| d.instr(i).preplacement().unwrap())
            .collect();
        assert_eq!(homes, vec![ClusterId::new(1), ClusterId::new(3)]);
    }

    #[test]
    fn edges_iterator_matches_count() {
        let d = diamond();
        assert_eq!(d.edges().count(), d.edge_count());
    }

    #[test]
    fn singleton_graph_is_fine() {
        let mut b = DagBuilder::new();
        b.instr(Opcode::IntAlu);
        let d = b.build().unwrap();
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        assert_eq!(d.topo_order().len(), 1);
    }
}
