//! The reference PCC length estimate: Desoli's estimate recomputed
//! from scratch for a whole assignment, O(C·(N + E)) per call. This is
//! the estimate the descent probed before it became incremental, kept
//! as written (less one dead binding). `src/pcc.rs` includes this file
//! as a test-only child module; the checked estimate below runs the
//! real descent and compares the incremental estimate with the
//! reference on every probe and after every commit.

use super::{
    build_components, initial_assignment, ClusterId, Estimate, InstrId, LengthEstimate,
    PccScheduler, THETA,
};
use convergent_ir::Dag;
use convergent_machine::Machine;
use convergent_sim::Assignment;

/// The estimate of `asg`, which must equal the reference's.
pub(super) fn estimate(dag: &Dag, m: &Machine, asg: &Assignment) -> u32 {
    let got = LengthEstimate::new(dag, m, asg).length();
    assert_eq!(got, estimate_length(dag, m, asg));
    got
}

/// The incremental estimate with every probe and every commit
/// checked against the from-scratch reference on a shadow
/// assignment.
struct Checked<'a> {
    inner: LengthEstimate<'a>,
    dag: &'a Dag,
    machine: &'a Machine,
    shadow: Assignment,
    probes: u64,
    commits: u64,
}

impl Checked<'_> {
    fn reference(&self) -> u32 {
        estimate_length(self.dag, self.machine, &self.shadow)
    }

    fn shift(&mut self, moved: &[InstrId], to: ClusterId) {
        for &i in moved {
            self.shadow.set(i, to);
        }
    }
}

impl Estimate for Checked<'_> {
    fn length(&self) -> u32 {
        let got = self.inner.length();
        assert_eq!(
            got,
            self.reference(),
            "length after {} commits",
            self.commits
        );
        got
    }

    fn probe(&mut self, moved: &[InstrId], from: ClusterId, to: ClusterId) -> u32 {
        let got = self.inner.probe(moved, from, to);
        self.shift(moved, to);
        let want = self.reference();
        self.shift(moved, from);
        assert_eq!(
            got, want,
            "probe {} ({moved:?}: {from} -> {to})",
            self.probes
        );
        self.probes += 1;
        got
    }

    fn commit(&mut self, moved: &[InstrId], from: ClusterId, to: ClusterId) {
        self.inner.commit(moved, from, to);
        self.shift(moved, to);
        self.commits += 1;
        self.length();
    }
}

/// Runs PCC's descent on `dag` with every estimate checked against
/// the reference, and checks it ends where `assign` does. Returns
/// the number of probes.
pub(super) fn checked_descent(dag: &Dag, machine: &Machine) -> u64 {
    let pcc = PccScheduler::new();
    let components = build_components(dag, machine, THETA).unwrap();
    let mut assignment = initial_assignment(dag, machine, &components);
    let mut estimate = Checked {
        inner: LengthEstimate::new(dag, machine, &assignment),
        dag,
        machine,
        shadow: assignment.clone(),
        probes: 0,
        commits: 0,
    };
    let probes = pcc.descend(dag, machine, &components, &mut assignment, &mut estimate);
    assert_eq!(probes, estimate.probes);
    assert_eq!(assignment, estimate.shadow);
    assert_eq!(assignment, pcc.assign(dag, machine).unwrap());
    probes
}

/// Desoli-style schedule-length estimate for an assignment: the larger
/// of (a) the dependence height where every cross-cluster edge pays
/// the transfer latency and remote memory ops pay their penalty, and
/// (b) the busiest cluster's resource bound (operations per capable
/// functional unit, counting inserted copies on transfer units).
fn estimate_length(dag: &Dag, machine: &Machine, assignment: &Assignment) -> u32 {
    // (a) height with communication.
    let mut finish = vec![0u32; dag.len()];
    let mut height = 0u32;
    for &i in dag.topo_order() {
        let c = assignment.cluster(i);
        let ready = dag
            .preds(i)
            .iter()
            .map(|&p| finish[p.index()] + machine.comm_latency(assignment.cluster(p), c))
            .max()
            .unwrap_or(0);
        let lat = convergent_sim::effective_latency_in(dag, machine, i, c);
        finish[i.index()] = ready + lat;
        height = height.max(finish[i.index()]);
    }
    // (b) resource bound per cluster: ops per capable unit, plus one
    // transfer-unit slot per distinct (producer, consumer-cluster).
    let mut bound = 0u32;
    for c in machine.cluster_ids() {
        let cluster = machine.cluster(c);
        let mut per_fu = vec![0u32; cluster.issue_width()];
        for i in dag.ids() {
            if assignment.cluster(i) != c {
                continue;
            }
            // Charge the least-loaded capable unit (optimistic).
            let class = dag.instr(i).class();
            if let Some(k) = (0..cluster.issue_width())
                .filter(|&k| cluster.fus()[k].can_execute(class))
                .min_by_key(|&k| per_fu[k])
            {
                per_fu[k] += 1;
            }
        }
        if !machine.comm().register_mapped {
            let mut dests: std::collections::HashSet<(u32, usize)> =
                std::collections::HashSet::new();
            for e in dag.edges() {
                let (pc, uc) = (assignment.cluster(e.src), assignment.cluster(e.dst));
                if pc == c && uc != c {
                    dests.insert((e.src.raw(), uc.index()));
                }
            }
            if let Some(k) = (0..cluster.issue_width())
                .filter(|&k| cluster.fus()[k].can_execute(convergent_ir::OpClass::Copy))
                .min_by_key(|&k| per_fu[k])
            {
                per_fu[k] += dests.len() as u32;
            }
        }
        bound = bound.max(per_fu.into_iter().max().unwrap_or(0));
    }
    height.max(bound)
}
