//! REGPRESS — register-pressure smoothing.
//!
//! The paper's opening problem statement: "code sequences that expose
//! more instruction level parallelism also have longer live ranges
//! and higher register pressure", and its contribution list includes
//! "a novel approach to address the combined problems of cluster
//! assignment, scheduling, and register pressure". This pass is the
//! register-pressure member of the heuristic collection: it estimates,
//! from the current preferences, how many values would be live on each
//! cluster at each cycle, and where the estimate exceeds the register
//! file it *defers* the slack-richest producers — penalizing their
//! early time slots so their preferred times (and hence their
//! list-scheduling priorities) move later, serializing just enough of
//! the parallelism to fit the registers.
//!
//! Like every pass, it only nudges weights; a later pass can overrule
//! it. It is a no-op on schedules whose estimated pressure already
//! fits.

use convergent_analysis::{EffectOp, Interval, PassEffect};
use convergent_ir::InstrId;

use crate::{Pass, PassContext};

/// Penalty multiplier applied to a deferred instruction's early slots.
const PENALTY: f64 = 0.25;

/// The REGPRESS pass. See the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegPressure;

impl RegPressure {
    /// Creates the pass using the full register file and a 0.25×
    /// early-slot penalty.
    #[must_use]
    pub fn new() -> Self {
        RegPressure
    }
}

impl Pass for RegPressure {
    fn name(&self) -> &'static str {
        "REGPRESS"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let n_slots = ctx.weights.n_slots() as u32;
        // The estimate may fill the whole register file.
        let cap = ctx.machine.registers_per_cluster().max(1) as usize;

        // Estimated start (preferred time) per instruction. A value is
        // live from its producer's finish until its last consumer's
        // start (or one cycle past the finish for a consumer scheduled
        // under it); consumer starts are read from the undeferred
        // estimate, as a hard-assignment approximation.
        let start: Vec<u32> = ctx
            .dag
            .ids()
            .map(|i| ctx.weights.preferred_time(i).get())
            .collect();
        let interval = |i: InstrId, s: u32| -> (u32, u32) {
            let fin = s + ctx.time.latency(i);
            let d = ctx
                .dag
                .succs(i)
                .iter()
                .map(|&sc| start[sc.index()].max(fin))
                .max()
                .unwrap_or(fin);
            (fin, d.max(fin + 1))
        };

        for c in ctx.machine.cluster_ids() {
            // Values this cluster is expected to hold: producers whose
            // preferred cluster is c (a hard assignment's estimate).
            let mut here: Vec<InstrId> = ctx
                .dag
                .ids()
                .filter(|&i| !ctx.dag.succs(i).is_empty())
                .filter(|&i| ctx.weights.preferred_cluster(i) == c)
                .collect();
            here.sort_by_key(|&i| (start[i.index()], i));
            // Current (possibly deferred) start and live interval per
            // member; deferrals update both incrementally.
            let mut cur: Vec<u32> = here.iter().map(|&i| start[i.index()]).collect();
            let mut ivs: Vec<(u32, u32)> = here
                .iter()
                .zip(&cur)
                .map(|(&i, &s)| interval(i, s))
                .collect();

            // Sweep time; at each start event check the live estimate.
            for t in 0..n_slots {
                let live = |ivs: &[(u32, u32)]| -> Vec<usize> {
                    (0..here.len())
                        .filter(|&k| ivs[k].0 <= t && t < ivs[k].1)
                        .collect()
                };
                let mut live_now = live(&ivs);
                while live_now.len() > cap {
                    // Defer the live producer with the most slack whose
                    // start can still move later.
                    let candidate = live_now
                        .iter()
                        .copied()
                        .filter(|&k| {
                            let (_, hi) = ctx.weights.window(here[k]);
                            cur[k] < hi
                        })
                        .max_by_key(|&k| (ctx.time.slack(here[k]), here[k]));
                    let Some(k) = candidate else { break };
                    let i = here[k];
                    // Penalize everything at or before the current
                    // preferred start so the preference mass moves
                    // later.
                    let (lo, _) = ctx.weights.window(i);
                    for slot in lo..=cur[k].min(n_slots - 1) {
                        ctx.weights.scale_time(i, slot, PENALTY);
                    }
                    cur[k] += 1;
                    ivs[k] = interval(i, cur[k]);
                    live_now = live(&ivs);
                }
            }
        }
    }

    fn effect(&self) -> PassEffect {
        // A constant penalty on a deferred producer's early in-window
        // time slots. The same factor hits every cluster of a slot,
        // but different slots get different treatment, so spatial
        // marginals can shift: not a time-only pass (see the
        // `is_time_only` test below).
        PassEffect::new(vec![EffectOp::ScaleTimes {
            factor: Interval::point(PENALTY),
        }])
        .reads_windows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::Rig;
    use crate::passes::InitTime;
    use convergent_ir::{Dag, DagBuilder, Opcode};
    use convergent_machine::Machine;

    /// A long chain plus `n` slack-rich independent producers, all
    /// feeding one sink. The independent values are live from cycle 1
    /// until the sink — unless their starts are deferred into the
    /// chain's shadow.
    fn chain_plus_fan_in(n: usize) -> (Dag, Vec<convergent_ir::InstrId>) {
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 0..7 {
            let nxt = b.instr(Opcode::IntAlu);
            b.edge(prev, nxt).unwrap();
            prev = nxt;
        }
        let producers: Vec<_> = (0..n).map(|_| b.instr(Opcode::IntAlu)).collect();
        let sink = b.instr(Opcode::IntAlu);
        b.edge(prev, sink).unwrap();
        for &p in &producers {
            b.edge(p, sink).unwrap();
        }
        (b.build().unwrap(), producers)
    }

    #[test]
    fn overloaded_cluster_spreads_start_times() {
        let machine = Machine::raw(1).with_registers_per_cluster(3);
        let (dag, producers) = chain_plus_fan_in(6);
        let mut rig = Rig::new(dag, machine);
        rig.run(&InitTime::new());
        let before: std::collections::HashSet<u32> = producers
            .iter()
            .map(|&i| rig.weights.preferred_time(i).get())
            .collect();
        assert_eq!(before.len(), 1, "producers tie at the earliest slot");
        rig.run(&RegPressure::new());
        rig.weights.assert_invariants(1e-9);
        let after: std::collections::HashSet<u32> = producers
            .iter()
            .map(|&i| rig.weights.preferred_time(i).get())
            .collect();
        // The independent producers no longer all prefer one cycle.
        assert!(after.len() > 1, "{after:?}");
    }

    #[test]
    fn fitting_pressure_is_identity() {
        let machine = Machine::raw(1).with_registers_per_cluster(32);
        let (dag, _) = chain_plus_fan_in(4);
        let mut rig = Rig::new(dag, machine);
        rig.run(&InitTime::new());
        let before = rig.weights.clone();
        rig.run(&RegPressure::new());
        for i in rig.dag.ids() {
            assert_eq!(
                rig.weights.preferred_time(i),
                before.preferred_time(i),
                "{i}"
            );
        }
    }

    #[test]
    fn is_time_only_in_effect_but_reports_as_spatial() {
        // The pass scales whole time slots (all clusters), so it can in
        // principle change spatial preferences too; it reports itself
        // as a regular pass.
        assert!(!RegPressure::new().is_time_only());
        assert_eq!(RegPressure::new().name(), "REGPRESS");
    }
}
