//! The linter proper: structural, timing, placement, coverage, and
//! machine-model checks.

use std::collections::BTreeMap;

use convergent_ir::{Dag, InstrId, OpClass, RawUnit, SchedulingUnit};
use convergent_machine::Machine;

use crate::{Code, Diagnostic, GraphFacts, LintReport, Severity};

/// Knobs for a lint run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LintOptions {
    /// Also run the advisory (note-severity) analyses: dead values
    /// (`CS030`), register-pressure lower bounds (`CS031`), and
    /// comm-tight preplaced pairs (`CS013`). Off by default — these
    /// fire on legitimate synthetic workloads and are informational.
    pub pedantic: bool,
    /// The region-size target the scheduler will actually run with
    /// (`csched --region-size`). The shardability analyses (`CS041`)
    /// judge cuts against this target; `None` uses
    /// [`convergent_ir::DEFAULT_REGION_SIZE`], matching the
    /// scheduler's own default.
    pub region_size: Option<usize>,
}

impl LintOptions {
    /// Options with the advisory analyses enabled.
    #[must_use]
    pub fn pedantic() -> Self {
        LintOptions {
            pedantic: true,
            ..LintOptions::default()
        }
    }

    /// Sets the region-size target the shardability analyses assume.
    #[must_use]
    pub fn with_region_size(mut self, region_size: usize) -> Self {
        self.region_size = Some(region_size);
        self
    }
}

/// Lints a parsed-but-unvalidated unit.
///
/// Structural problems ([`Code::EmptyGraph`], [`Code::DanglingEdge`],
/// [`Code::SelfEdge`], [`Code::DuplicateEdge`], [`Code::Cycle`] with a
/// witness path) are reported first; when none are found the unit is
/// built and the full [`lint_dag`] analysis runs on it too, so a
/// structurally clean report covers everything `lint_dag` covers.
#[must_use]
pub fn lint_raw(raw: &RawUnit, machine: &Machine, opts: LintOptions) -> LintReport {
    let mut report = LintReport::new();
    let n = raw.instrs().len();
    if n == 0 {
        report.push(Diagnostic::new(
            Code::EmptyGraph,
            vec![],
            "scheduling unit has no instructions",
        ));
        return report;
    }
    let mut in_range_edges: Vec<(u32, u32)> = Vec::with_capacity(raw.edges().len());
    let mut seen = std::collections::HashSet::new();
    for (k, &(src, dst)) in raw.edges().iter().enumerate() {
        let line = raw.edge_lines().get(k).copied().unwrap_or(0);
        if src as usize >= n || dst as usize >= n {
            report.push(
                Diagnostic::new(
                    Code::DanglingEdge,
                    vec![],
                    format!(
                        "edge {src} -> {dst} references a nonexistent instruction (unit has {n})"
                    ),
                )
                .with_witness(format!("line {line}")),
            );
            continue;
        }
        if src == dst {
            report.push(Diagnostic::new(
                Code::SelfEdge,
                vec![InstrId::new(src)],
                format!("instruction i{src} depends on itself"),
            ));
            continue;
        }
        if !seen.insert((src, dst)) {
            report.push(Diagnostic::new(
                Code::DuplicateEdge,
                vec![InstrId::new(src), InstrId::new(dst)],
                format!("duplicate edge i{src} -> i{dst}"),
            ));
            continue;
        }
        in_range_edges.push((src, dst));
    }
    if let Some(cycle) = find_cycle(n, &in_range_edges) {
        let witness: Vec<String> = cycle.iter().map(|i| format!("i{i}")).collect();
        report.push(
            Diagnostic::new(
                Code::Cycle,
                cycle.iter().map(|&i| InstrId::new(i)).collect(),
                format!("dependence cycle through {} instructions", cycle.len() - 1),
            )
            .with_witness(witness.join(" -> ")),
        );
    }
    if report.is_empty() {
        match raw.build() {
            Ok(unit) => report.merge(lint_dag(unit.dag(), machine, opts)),
            // Unreachable when the structural checks above pass, but
            // never panic from a linter.
            Err(e) => report.push(Diagnostic::new(
                Code::Cycle,
                vec![],
                format!("unit failed validation: {e}"),
            )),
        }
    }
    report
}

/// Finds a directed cycle among `edges` over `n` nodes, returning a
/// closed witness path (first node repeated at the end), or `None` if
/// the graph is acyclic. Iterative DFS with tricolor marking.
fn find_cycle(n: usize, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
    let mut succs = vec![Vec::new(); n];
    for &(src, dst) in edges {
        succs[src as usize].push(dst);
    }
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Stack of (node, next-successor index); `path` mirrors it.
        let mut stack = vec![(start as u32, 0usize)];
        color[start] = 1;
        let mut path = vec![start as u32];
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&s) = succs[node as usize].get(*next) {
                *next += 1;
                match color[s as usize] {
                    0 => {
                        color[s as usize] = 1;
                        stack.push((s, 0));
                        path.push(s);
                    }
                    1 => {
                        // Found a back edge: the cycle is the path
                        // suffix from `s`, closed with `s` itself.
                        let pos = path.iter().position(|&p| p == s).unwrap();
                        let mut cycle: Vec<u32> = path[pos..].to_vec();
                        cycle.push(s);
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[node as usize] = 2;
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// Lints a validated DAG against a machine model.
///
/// Covers feasible windows (`CS010`), preplacement (`CS011`/`CS012`),
/// op-class coverage (`CS020`), communication pseudo-ops (`CS021`),
/// latency-table consistency (`CS050`/`CS051`), and — under
/// [`LintOptions::pedantic`] — dead values, register pressure, and
/// comm-tight preplaced pairs.
#[must_use]
pub fn lint_dag(dag: &Dag, machine: &Machine, opts: LintOptions) -> LintReport {
    let mut report = LintReport::new();
    if dag.is_empty() {
        report.push(Diagnostic::new(
            Code::EmptyGraph,
            vec![],
            "scheduling unit has no instructions",
        ));
        return report;
    }

    let n_clusters = machine.n_clusters();
    let hard = machine.memory().preplacement_is_hard();
    let mut uncoverable: BTreeMap<OpClass, Vec<InstrId>> = BTreeMap::new();
    let mut comm_ops: Vec<InstrId> = Vec::new();
    for i in dag.ids() {
        let instr = dag.instr(i);
        let class = instr.class();
        if instr.opcode().is_communication() {
            comm_ops.push(i);
        }
        if !machine
            .cluster_ids()
            .any(|c| machine.cluster_can_execute(c, class))
        {
            uncoverable.entry(class).or_default().push(i);
        }
        if let Some(home) = instr.preplacement() {
            if home.index() >= n_clusters {
                report.push(Diagnostic::new(
                    Code::BadHomeCluster,
                    vec![i],
                    format!(
                        "{i} ({instr}) is preplaced on {home}, but the machine has only {n_clusters} clusters"
                    ),
                ));
            } else if !machine.cluster_can_execute(home, class) {
                let severity = if hard {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                report.push(
                    Diagnostic::new(
                        Code::IncapableHome,
                        vec![i],
                        format!(
                            "{i} ({instr}) is preplaced on {home}, which cannot execute {class} operations"
                        ),
                    )
                    .with_severity(severity),
                );
            }
        }
    }
    for (class, instrs) in uncoverable {
        let shown = preview(&instrs);
        report.push(Diagnostic::new(
            Code::UncoverableClass,
            instrs,
            format!(
                "no cluster on `{}` can execute {class} operations ({shown})",
                machine.name()
            ),
        ));
    }
    if !comm_ops.is_empty() {
        let shown = preview(&comm_ops);
        report.push(Diagnostic::new(
            Code::CommOpInInput,
            comm_ops,
            format!("input graph contains scheduler-inserted communication pseudo-ops ({shown})"),
        ));
    }

    let facts = GraphFacts::compute(dag, machine);
    let overflows = facts.overflows();
    if !overflows.is_empty() {
        let first = overflows[0];
        let shown = preview(&overflows);
        report.push(
            Diagnostic::new(
                Code::InfeasibleWindow,
                overflows.clone(),
                format!(
                    "{} instruction(s) have infeasible windows: completion time exceeds u32 cycle arithmetic ({shown})",
                    overflows.len()
                ),
            )
            .with_witness(format!(
                "{first} starts no earlier than cycle {} with latency {}",
                facts.earliest_start(first),
                facts.latency(first)
            )),
        );
    }

    lint_latency_table(dag, machine, &mut report);

    if opts.pedantic {
        lint_pedantic(dag, machine, &facts, opts, &mut report);
    }
    report
}

/// Latency-table and comm-model consistency checks (`CS050`, `CS051`,
/// `CS052`).
fn lint_latency_table(dag: &Dag, machine: &Machine, report: &mut LintReport) {
    let mut zero: BTreeMap<OpClass, Vec<InstrId>> = BTreeMap::new();
    for i in dag.ids() {
        let class = dag.instr(i).class();
        if !dag.instr(i).opcode().is_communication() && machine.latencies().get(class) == 0 {
            zero.entry(class).or_default().push(i);
        }
    }
    for (class, instrs) in zero {
        let shown = preview(&instrs);
        report.push(Diagnostic::new(
            Code::ZeroLatency,
            instrs,
            format!(
                "latency table reports 0 cycles for {class}, so its results would be ready the cycle they issue ({shown})"
            ),
        ));
    }
    if machine.comm().register_mapped {
        let send = machine.latencies().get(OpClass::Send);
        let recv = machine.latencies().get(OpClass::Recv);
        if send != 0 || recv != 0 {
            report.push(Diagnostic::new(
                Code::CommLatencyMismatch,
                vec![],
                format!(
                    "`{}` is register-mapped (network occupancy is free) but the latency table charges Send={send}, Recv={recv} cycles",
                    machine.name()
                ),
            ));
        }
    } else if machine.n_clusters() > 1 {
        // Copy-based comms occupy an issue slot, so every cluster must
        // be able to source a transfer; the schedulers report this at
        // comm-insertion time (`NoTransferUnit`), the linter up front.
        for c in machine.cluster_ids() {
            if !machine.cluster_can_execute(c, OpClass::Copy) {
                report.push(Diagnostic::new(
                    Code::MissingTransferUnit,
                    vec![],
                    format!(
                        "cluster {c} of `{}` has no copy-capable unit; it can never source a cross-cluster transfer on a copy-based comm model",
                        machine.name()
                    ),
                ));
            }
        }
    }
}

/// Advisory analyses (`CS013`, `CS030`, `CS031`, `CS040`, `CS041`).
fn lint_pedantic(
    dag: &Dag,
    machine: &Machine,
    facts: &GraphFacts,
    opts: LintOptions,
    report: &mut LintReport,
) {
    if machine.memory().preplacement_is_hard() {
        for edge in dag.edges() {
            let (a, b) = (edge.src, edge.dst);
            let (ha, hb) = match (dag.instr(a).preplacement(), dag.instr(b).preplacement()) {
                (Some(ha), Some(hb)) if ha != hb => (ha, hb),
                _ => continue,
            };
            if ha.index() >= machine.n_clusters() || hb.index() >= machine.n_clusters() {
                continue;
            }
            let comm = u64::from(machine.comm_latency(ha, hb));
            let slack = facts.latest_start(b) - (facts.earliest_start(a) + facts.latency(a));
            if comm > slack {
                report.push(Diagnostic::new(
                    Code::TightPreplacedPair,
                    vec![a, b],
                    format!(
                        "{a}@{ha} -> {b}@{hb} needs {comm} cycles of communication but the edge has only {slack} cycles of slack; the nominal critical path will stretch"
                    ),
                ));
            }
        }
    }
    let dead = GraphFacts::dead_values(dag);
    if !dead.is_empty() {
        let shown = preview(&dead);
        report.push(Diagnostic::new(
            Code::DeadValue,
            dead,
            format!("side-effect-free instruction(s) with no consumers ({shown})"),
        ));
    }
    let pressure = GraphFacts::pressure_lower_bound(dag);
    let total_regs = machine.registers_per_cluster() as usize * machine.n_clusters();
    if pressure > total_regs {
        report.push(Diagnostic::new(
            Code::PressureOverRegisters,
            vec![],
            format!(
                "register-pressure lower bound {pressure} exceeds the machine's {total_regs} registers; spills are inevitable"
            ),
        ));
    }
    // Degenerate component structure (CS040): more than one
    // weakly-connected component, but one giant piece holds more than
    // 3/4 of the graph, so packing components cannot balance shards
    // and region sharding has to level-chop the giant.
    let components = convergent_ir::weakly_connected_components(dag);
    if components.len() > 1 {
        let giant = components.iter().map(Vec::len).max().unwrap_or(0);
        if giant * 4 > dag.len() * 3 {
            report.push(Diagnostic::new(
                Code::DegenerateShardStructure,
                vec![],
                format!(
                    "graph splits into {} weakly-connected components but the largest holds {giant} of {} instructions; region sharding cannot balance these pieces without cutting the giant component",
                    components.len(),
                    dag.len()
                ),
            ));
        }
    }
    // Degenerate region cut (CS041): the graph exceeds the effective
    // region-size target (the `--region-size` override when given,
    // the scheduler default otherwise), so a sharded run would try to
    // cut it — but the governed cut search the driver runs
    // (`plan_regions`, coarsening included) settles on no cut the
    // governor accepts. Such a run silently falls back to a monolithic
    // schedule.
    let policy = convergent_ir::RegionPolicy {
        max_shards: 2,
        region_size: opts.region_size,
    };
    let target = policy.target_region_size();
    if dag.len() > target {
        let plan = convergent_ir::plan_regions(dag, &policy);
        if !plan.accepted() {
            let a = plan
                .assessment
                .unwrap_or_else(|| convergent_ir::assess(dag, &plan.decomposition));
            report.push(Diagnostic::new(
                Code::DegenerateRegionCut,
                vec![],
                format!(
                    "graph holds {} instructions (region target {target}) but its best cut is degenerate ({} of {} edges crossing, largest region {}); sharded runs will fall back to a monolithic schedule",
                    dag.len(),
                    a.cross_edges,
                    a.total_edges,
                    a.largest_shard,
                ),
            ));
        }
    }
}

/// Lints a validated scheduling unit (convenience over [`lint_dag`]).
#[must_use]
pub fn lint_unit(unit: &SchedulingUnit, machine: &Machine, opts: LintOptions) -> LintReport {
    lint_dag(unit.dag(), machine, opts)
}

/// Short human preview of an instruction list: "i0, i1, i2, ... (+7 more)".
fn preview(instrs: &[InstrId]) -> String {
    const SHOW: usize = 4;
    let mut parts: Vec<String> = instrs.iter().take(SHOW).map(|i| i.to_string()).collect();
    if instrs.len() > SHOW {
        parts.push(format!("+{} more", instrs.len() - SHOW));
    }
    parts.join(", ")
}
