//! The convergent-scheduling driver.
//!
//! The driver runs a [`Sequence`] over a fresh [`PreferenceMap`],
//! normalizing after every pass, then reads off the converged
//! decisions: each instruction's *preferred cluster* becomes its
//! spatial assignment and its *preferred time* becomes its priority
//! for the shared list scheduler — exactly the interface Section 5
//! describes between the convergent scheduler and the existing Rawcc
//! and Chorus back ends.
//!
//! A [`ConvergenceTrace`] records, for every pass, the fraction of
//! instructions whose preferred cluster changed — the quantity plotted
//! in the paper's Figures 7 and 9.

use std::time::Instant;

use convergent_ir::{plan_regions, ClusterId, CutAssessment, Dag, RegionPolicy, TimeAnalysis};
use convergent_machine::Machine;
use convergent_rng::Rng;
use convergent_schedulers::{ListScheduler, ScheduleError, Scheduler};
use convergent_sim::{stitch, Assignment, SpaceTimeSchedule};

use crate::parallel::run_indexed;
use crate::telemetry::{
    measure, CounterTotals, SinkInterest, SpanKind, TelemetryBuffer, TelemetrySink,
};
use crate::{PassContext, PassScratch, PreferenceMap, Sequence};

/// Per-pass convergence measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct PassRecord {
    /// Pass name (paper spelling).
    pub name: &'static str,
    /// Fraction of instructions whose preferred cluster changed
    /// during this pass.
    pub changed_fraction: f64,
    /// `true` for passes that only adjust temporal preferences
    /// (excluded from the paper's Figures 7 and 9).
    pub time_only: bool,
}

/// The driver's internal telemetry handle: one sink, the run epoch
/// every span timestamp is relative to, and the sink's interest
/// (cached once so hot paths never re-ask).
struct Telemetry<'a> {
    sink: &'a mut dyn TelemetrySink,
    epoch: Instant,
    interest: SinkInterest,
}

impl<'a> Telemetry<'a> {
    /// A handle on `epoch`'s clock — a run's own start, or the parent
    /// run's for per-shard buffers.
    fn new(sink: &'a mut dyn TelemetrySink, epoch: Instant) -> Self {
        let interest = sink.interest();
        Telemetry {
            sink,
            epoch,
            interest,
        }
    }

    /// Emits a span from `start` to now.
    fn span_from(&mut self, path: &str, kind: SpanKind, start: Instant) {
        self.span_between(path, kind, start, Instant::now());
    }

    /// Emits a span with an explicit end.
    fn span_between(&mut self, path: &str, kind: SpanKind, start: Instant, end: Instant) {
        let start_secs = start.saturating_duration_since(self.epoch).as_secs_f64();
        let dur_secs = end.saturating_duration_since(start).as_secs_f64();
        self.sink.span(path, kind, start_secs, dur_secs);
    }
}

/// The per-pass convergence history of one scheduling run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConvergenceTrace {
    records: Vec<PassRecord>,
}

impl ConvergenceTrace {
    /// All records, in pass order.
    #[must_use]
    pub fn records(&self) -> &[PassRecord] {
        &self.records
    }

    /// Records for space-affecting passes only (what Figures 7 and 9
    /// plot).
    pub fn spatial(&self) -> impl Iterator<Item = &PassRecord> + '_ {
        self.records.iter().filter(|r| !r.time_only)
    }
}

/// Result of running the passes: an assignment plus time priorities.
struct AssignOutcome {
    assignment: Assignment,
    priorities: Vec<u32>,
    trace: ConvergenceTrace,
}

/// How a sharded run split the graph and reassembled the schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Instructions per shard, in shard order.
    pub shard_sizes: Vec<usize>,
    /// Cycle offset the stitch phase applied to each shard.
    pub offsets: Vec<u32>,
    /// Cross-shard transfers inserted by the boundary COMM fix-up.
    pub boundary_comms: usize,
    /// Dependence edges crossing shard boundaries.
    pub cross_edges: usize,
    /// Makespan of the stitched schedule.
    pub stitched_makespan: u32,
    /// The graph's critical-path length — a machine-independent lower
    /// bound on any schedule's makespan, what the cut governor compares
    /// the stitched makespan against.
    pub cp_lower_bound: u32,
}

impl ShardInfo {
    /// Stitched makespan over the critical-path lower bound (≥ 1.0);
    /// how much schedule length the cut cost at worst.
    #[must_use]
    pub fn stitch_ratio(&self) -> f64 {
        f64::from(self.stitched_makespan) / f64::from(self.cp_lower_bound.max(1))
    }
}

/// Result of a full schedule: assignment, priorities, and the final
/// space-time schedule.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    schedule: SpaceTimeSchedule,
    assignment: Assignment,
    trace: ConvergenceTrace,
    shard_info: Option<ShardInfo>,
    governor: Option<CutAssessment>,
}

impl ScheduleOutcome {
    /// The final space-time schedule.
    #[must_use]
    pub fn schedule(&self) -> &SpaceTimeSchedule {
        &self.schedule
    }

    /// The converged assignment.
    #[must_use]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The convergence history.
    #[must_use]
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.trace
    }

    /// Shard metadata when the run actually split the graph (`None`
    /// for monolithic runs and for sharded runs the decomposer or cut
    /// governor refused).
    #[must_use]
    pub fn shard_info(&self) -> Option<&ShardInfo> {
        self.shard_info.as_ref()
    }

    /// The cut governor's assessment, when a sharded run projected a
    /// non-trivial decomposition: `Accepted` on sharded outcomes,
    /// a rejection on runs that fell back to the monolithic path
    /// because the cut was degenerate. `None` when no cut was ever on
    /// the table (monolithic runs, trivial decompositions).
    #[must_use]
    pub fn governor(&self) -> Option<&CutAssessment> {
        self.governor.as_ref()
    }

    /// Extracts the schedule, discarding the rest.
    #[must_use]
    pub fn into_schedule(self) -> SpaceTimeSchedule {
        self.schedule
    }
}

/// The convergent scheduler: a [`Sequence`] plus a noise seed.
///
/// # Example
///
/// ```
/// use convergent_core::ConvergentScheduler;
/// use convergent_ir::{DagBuilder, Opcode};
/// use convergent_machine::Machine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let x = b.instr(Opcode::Load);
/// let y = b.instr(Opcode::FMul);
/// b.edge(x, y)?;
/// let dag = b.build()?;
///
/// let machine = Machine::chorus_vliw(4);
/// let outcome = ConvergentScheduler::vliw_default().schedule(&dag, &machine)?;
/// convergent_sim::validate(&dag, &machine, outcome.schedule())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConvergentScheduler {
    sequence: Sequence,
    seed: u64,
    use_time_priorities: bool,
    shards: usize,
    region_size: Option<usize>,
}

impl ConvergentScheduler {
    /// Creates a scheduler running `sequence`.
    #[must_use]
    pub fn new(sequence: Sequence) -> Self {
        ConvergentScheduler {
            sequence,
            seed: 42,
            use_time_priorities: true,
            shards: 1,
            region_size: None,
        }
    }

    /// The paper's Raw configuration (Table 1a).
    ///
    /// Matching Section 5 — "For Rawcc, however, the temporal
    /// assignments are computed independently by its own instruction
    /// scheduler" — this preset takes only the *spatial* assignment
    /// from the preference map and lets the list scheduler use its own
    /// critical-path priorities.
    #[must_use]
    pub fn raw_default() -> Self {
        let mut s = ConvergentScheduler::new(Sequence::raw());
        s.use_time_priorities = false;
        s
    }

    /// The paper's clustered-VLIW configuration (Table 1b).
    ///
    /// "Chorus uses the temporal assignments as priorities for the
    /// list scheduler", so this preset keeps the converged times.
    #[must_use]
    pub fn vliw_default() -> Self {
        ConvergentScheduler::new(Sequence::vliw())
    }

    /// The clustered-VLIW configuration re-tuned for this workspace's
    /// cost model ([`Sequence::vliw_tuned`]); used by the Figure 8
    /// experiment.
    #[must_use]
    pub fn vliw_tuned() -> Self {
        ConvergentScheduler::new(Sequence::vliw_tuned())
    }

    /// Chooses whether the converged preferred times drive the list
    /// scheduler (`true`, Chorus-style) or the list scheduler computes
    /// its own critical-path priorities (`false`, Rawcc-style).
    #[must_use]
    pub fn with_time_priorities(mut self, on: bool) -> Self {
        self.use_time_priorities = on;
        self
    }

    /// Sets the seed for the NOISE pass (runs are deterministic for a
    /// fixed seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shard budget for region-sharded scheduling.
    ///
    /// With `shards > 1`, [`ConvergentScheduler::schedule`] (and
    /// [`ConvergentScheduler::schedule_with_sink`]) first decomposes
    /// the graph ([`convergent_ir::plan_regions`]) into
    /// region shards — weakly-connected components packed into at most
    /// `shards` bins, with any region above the size target
    /// ([`ConvergentScheduler::with_region_size`]) recursively cut —
    /// runs the full pass pipeline plus list scheduling on every shard
    /// concurrently, and stitches the per-shard schedules back together
    /// with a boundary COMM fix-up ([`convergent_sim::stitch`]).
    ///
    /// Connected graphs at or under the region target are never split,
    /// so their schedules stay byte-identical to the monolithic driver
    /// at any shard count. Larger connected graphs are cut for
    /// compile-time, trading byte-identity for bounded region size; a
    /// cut governor ([`crate::assess`]) rejects degenerate cuts, and
    /// the search coarsens the region target (doubling it) while the
    /// rejection is for cross edges before the run falls back to the
    /// monolithic path.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shards must be at least 1");
        self.shards = shards;
        self
    }

    /// Sets the region-size target for sharded scheduling: regions
    /// larger than this are recursively cut while a profitable cut
    /// exists. Defaults to [`convergent_ir::DEFAULT_REGION_SIZE`].
    /// Has no effect unless the shard budget is above one. The target
    /// is a starting point, not a ceiling: when the cut governor
    /// rejects a cut for excessive cross edges the driver doubles the
    /// target and retries, so wide layered graphs settle on the
    /// finest granularity the governor will accept.
    ///
    /// # Panics
    ///
    /// Panics if `region_size` is zero.
    #[must_use]
    pub fn with_region_size(mut self, region_size: usize) -> Self {
        assert!(region_size > 0, "region size must be at least 1");
        self.region_size = Some(region_size);
        self
    }

    /// The configured sequence.
    #[must_use]
    pub fn sequence(&self) -> &Sequence {
        &self.sequence
    }

    /// Runs the passes and reads off assignment + priorities.
    fn converge(
        &self,
        dag: &Dag,
        machine: &Machine,
        tel: &mut Telemetry<'_>,
    ) -> Result<AssignOutcome, ScheduleError> {
        let interest = tel.interest;
        let t_init = Instant::now();
        convergent_schedulers::check_inputs(dag, machine)?;

        let time = TimeAnalysis::compute(dag, |i| machine.latency_of(i));
        let n_slots = (time.critical_path_length().max(1)) as usize;
        let mut weights = PreferenceMap::new(dag.len(), machine.n_clusters(), n_slots);
        if interest.counters {
            weights.enable_counters();
        }
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut scratch = PassScratch::default();
        let mut trace = ConvergenceTrace::default();
        tel.span_from("<init>", SpanKind::Stage, t_init);
        if interest.counters {
            // Static contract coverage of the sequence about to run:
            // clauses the abstract interpreter proved vs. clauses it
            // left unproven or refuted. Sampled once per region (per
            // driver run), so sharded schedules report per-region
            // coverage.
            let (proven, unproven) = crate::contract::sequence_proof_counts(&self.sequence);
            if proven + unproven > 0 {
                tel.sink.counters(
                    "<contracts>",
                    &CounterTotals {
                        contracts_proven: proven,
                        contracts_unproven: unproven,
                        ..CounterTotals::default()
                    },
                );
            }
        }
        tel.sink.preference_map("<init>", &weights);
        let mut counter_base = weights.counter_totals();

        let mut preferred: Vec<ClusterId> =
            dag.ids().map(|i| weights.preferred_cluster(i)).collect();
        for pass in self.sequence.passes() {
            let t_pass = Instant::now();
            let mut ctx = PassContext {
                dag,
                machine,
                time: &time,
                rng: &mut rng,
                weights: &mut weights,
                scratch: &mut scratch,
            };
            pass.run(&mut ctx);
            // O(N) on the lazy path: only per-instruction scale
            // factors move (see the PreferenceMap module docs).
            weights.normalize_all();
            let mut changed = 0usize;
            for i in dag.ids() {
                let now = weights.preferred_cluster(i);
                if now != preferred[i.index()] {
                    changed += 1;
                    preferred[i.index()] = now;
                }
            }
            let changed_fraction = changed as f64 / dag.len() as f64;
            // Expensive telemetry, gated on interest: the counter
            // delta this pass produced, and a convergence sweep over
            // the map. Computed before the pass span is emitted so
            // the span covers them; *emitted* after it so exporters
            // see the span first.
            let t_metrics = Instant::now();
            let delta = interest
                .counters
                .then(|| weights.counter_totals().delta_since(&counter_base));
            let metrics = interest
                .convergence
                .then(|| measure(dag, &weights, changed_fraction));
            let t_metrics_end = Instant::now();
            trace.records.push(PassRecord {
                name: pass.name(),
                changed_fraction,
                time_only: pass.is_time_only(),
            });
            tel.span_from(pass.name(), SpanKind::Pass, t_pass);
            if delta.is_some() || metrics.is_some() {
                tel.span_between(
                    &format!("{}/<metrics>", pass.name()),
                    SpanKind::Phase,
                    t_metrics,
                    t_metrics_end,
                );
            }
            if let Some(delta) = &delta {
                if !delta.is_zero() {
                    tel.sink.counters(pass.name(), delta);
                }
            }
            if let Some(m) = &metrics {
                tel.sink.convergence(pass.name(), m);
            }
            tel.sink.preference_map(pass.name(), &weights);
            if interest.counters {
                counter_base = weights.counter_totals();
            }
        }

        // Read off the converged decisions. Preplacement is a
        // correctness constraint: on hard-memory machines the final
        // assignment is forced home no matter what the heuristics
        // said (PLACE's ×100 makes disagreement rare).
        let t_readoff = Instant::now();
        let hard = machine.memory().preplacement_is_hard();
        let assignment: Assignment = dag
            .ids()
            .map(|i| match (dag.instr(i).preplacement(), hard) {
                (Some(home), true) => home,
                _ => weights.preferred_cluster(i),
            })
            .collect();
        // Critical-path runs (`with_time_priorities(false)`) never read
        // the priorities, so they skip the O(band) time scans.
        let priorities: Vec<u32> = if self.use_time_priorities {
            dag.ids().map(|i| weights.preferred_time(i).get()).collect()
        } else {
            Vec::new()
        };
        tel.span_from("<readoff>", SpanKind::Stage, t_readoff);
        Ok(AssignOutcome {
            assignment,
            priorities,
            trace,
        })
    }

    /// Runs the passes and list-schedules the result.
    ///
    /// With a shard budget above one
    /// ([`ConvergentScheduler::with_shards`]) and a graph that actually
    /// decomposes, the pipeline runs per shard concurrently and the
    /// per-shard schedules are stitched with a boundary COMM fix-up;
    /// otherwise this is the monolithic driver.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BadHomeCluster`] for preplacements
    /// referencing nonexistent clusters,
    /// [`ScheduleError::NoCapableCluster`] when an operation cannot
    /// execute anywhere on the machine, and any [`ScheduleError`] from
    /// the list scheduler; sharded runs report stitch failures as
    /// [`ScheduleError::ProducedInvalid`].
    pub fn schedule(&self, dag: &Dag, machine: &Machine) -> Result<ScheduleOutcome, ScheduleError> {
        self.schedule_with_sink(dag, machine, &mut ())
    }

    /// Like [`ConvergentScheduler::schedule`], streaming telemetry
    /// into `sink`: stage/pass spans (`"<init>"`, one per pass,
    /// `"<readoff>"`, `"<listsched>"`; sharded runs add
    /// `"<decompose>"` and `"<stitch>"`), plus per-pass counter deltas
    /// and convergence metrics when the sink's
    /// [interest](TelemetrySink::interest) asks for them, and the
    /// preference map after `"<init>"` and each pass
    /// ([`TelemetrySink::preference_map`], monolithic runs only). A
    /// spans-only [`TelemetryBuffer`] is enough for the `--profile`
    /// table ([`TelemetryBuffer::profile_table`]).
    /// Sharded runs buffer per-shard events on the worker threads and
    /// replay them in shard order after the join, so event order is
    /// deterministic; a synthetic `shard{k}` container span brackets
    /// each shard's events. The whole call is wrapped in a `"<run>"`
    /// span. Telemetry never changes the schedule — a suite-wide test
    /// holds it byte-identical to [`ConvergentScheduler::schedule`].
    ///
    /// # Errors
    ///
    /// Same as [`ConvergentScheduler::schedule`].
    pub fn schedule_with_sink(
        &self,
        dag: &Dag,
        machine: &Machine,
        sink: &mut dyn TelemetrySink,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let mut tel = Telemetry::new(sink, Instant::now());
        let (sharded, assessment) = self.try_schedule_sharded(dag, machine, &mut tel)?;
        let out = match sharded {
            Some(out) => out,
            None => {
                let outcome = self.converge(dag, machine, &mut tel)?;
                let t0 = Instant::now();
                let mut out = self.listsched(dag, machine, outcome)?;
                // A rejected cut still surfaces what the governor measured.
                out.governor = assessment;
                tel.span_from("<listsched>", SpanKind::Stage, t0);
                out
            }
        };
        tel.span_from("<run>", SpanKind::Run, tel.epoch);
        Ok(out)
    }

    /// The sharded scheduling path. Returns `(None, _)` when sharding
    /// does not apply — shard budget of one, a graph the decomposer
    /// refuses to split (connected and under the region target, or no
    /// profitable cut), or no decomposition the cut governor accepts
    /// even after coarsening the region target — in which case the
    /// caller must run the monolithic path, keeping those runs
    /// byte-identical to an unsharded driver. The second element
    /// carries the governor's assessment of the committed cut, or of
    /// the last rejected cut when the run fell back.
    fn try_schedule_sharded(
        &self,
        dag: &Dag,
        machine: &Machine,
        tel: &mut Telemetry<'_>,
    ) -> Result<(Option<ScheduleOutcome>, Option<CutAssessment>), ScheduleError> {
        if self.shards <= 1 {
            return Ok((None, None));
        }
        convergent_schedulers::check_inputs(dag, machine)?;
        let t0 = Instant::now();
        let plan = plan_regions(
            dag,
            &RegionPolicy {
                max_shards: self.shards,
                region_size: self.region_size,
            },
        );
        let (accepted, assessment, dec) = (plan.accepted(), plan.assessment, plan.decomposition);
        tel.span_from("<decompose>", SpanKind::Stage, t0);
        if tel.interest.counters && (accepted || plan.rejects > 0) {
            let delta = CounterTotals {
                governor_accepts: u64::from(accepted),
                governor_rejects: plan.rejects,
                ..CounterTotals::default()
            };
            tel.sink.counters("<decompose>", &delta);
        }
        if !accepted {
            return Ok((None, assessment));
        }
        let shards = dec.shards();
        let (interest, epoch) = (tel.interest, tel.epoch);

        // Full pipeline (passes + list scheduling) per shard, run
        // concurrently. Workers are capped at the host's parallelism:
        // oversubscribing (one thread per shard regardless of cores)
        // thrashes caches badly enough to erase the whole win on small
        // hosts. Results come back in shard order, so scheduling order
        // never affects output, and errors surface in shard order.
        // Telemetry from worker threads lands in a per-shard
        // TelemetryBuffer (timestamps on the parent epoch) and is
        // replayed into the real sink in shard order after the join.
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        let results = run_indexed(shards.len(), workers, |k| {
            let shard = shards[k].dag();
            let mut buf = TelemetryBuffer::with_interest(interest);
            let mut t = Telemetry::new(&mut buf, epoch);
            let outcome = self.converge(shard, machine, &mut t)?;
            let t0 = Instant::now();
            let out = self.listsched(shard, machine, outcome)?;
            t.span_from("<listsched>", SpanKind::Stage, t0);
            Ok::<_, ScheduleError>((out, buf))
        });

        let mut parts = Vec::with_capacity(shards.len());
        let mut traces = Vec::with_capacity(shards.len());
        for (k, res) in results.into_iter().enumerate() {
            let (out, buf) = res?;
            // Synthetic container span bracketing the shard's own
            // events, then the events themselves under `shard{k}/`.
            if let Some((lo, hi)) = buf.span_extent() {
                tel.sink
                    .span(&format!("shard{k}"), SpanKind::Shard, lo, hi - lo);
            }
            buf.replay_into(&format!("shard{k}/"), tel.sink);
            traces.push(out.trace().clone());
            parts.push(out.into_schedule());
        }

        let t0 = Instant::now();
        let report = stitch(dag, machine, &dec, &parts)
            .map_err(|e| ScheduleError::ProducedInvalid(format!("stitch failed: {e}")))?;
        tel.span_from("<stitch>", SpanKind::Stage, t0);
        if tel.interest.counters && report.boundary_comms > 0 {
            tel.sink.counters(
                "<stitch>",
                &CounterTotals {
                    boundary_comms: report.boundary_comms as u64,
                    ..CounterTotals::default()
                },
            );
        }

        // Aggregate the per-shard convergence traces, weighted by shard
        // size, so the merged trace still reads like one run of the
        // sequence.
        let total = dag.len() as f64;
        let mut records: Vec<PassRecord> = Vec::new();
        for (k, trace) in traces.iter().enumerate() {
            let w = shards[k].len() as f64 / total;
            for (j, r) in trace.records().iter().enumerate() {
                if records.len() <= j {
                    records.push(PassRecord {
                        name: r.name,
                        changed_fraction: 0.0,
                        time_only: r.time_only,
                    });
                }
                records[j].changed_fraction += w * r.changed_fraction;
            }
        }

        // The governor's post-hoc quality record: stitched makespan
        // against the graph-wide critical-path lower bound.
        let cp_lower_bound = TimeAnalysis::compute(dag, |i| machine.latency_of(i))
            .critical_path_length()
            .max(1);
        let shard_info = ShardInfo {
            shard_sizes: shards.iter().map(convergent_ir::Shard::len).collect(),
            offsets: report.offsets,
            boundary_comms: report.boundary_comms,
            cross_edges: dec.cross_edges().len(),
            stitched_makespan: report.schedule.makespan().get(),
            cp_lower_bound,
        };
        let assignment = report.schedule.assignment();
        Ok((
            Some(ScheduleOutcome {
                schedule: report.schedule,
                assignment,
                trace: ConvergenceTrace { records },
                shard_info: Some(shard_info),
                governor: assessment,
            }),
            assessment,
        ))
    }

    fn listsched(
        &self,
        dag: &Dag,
        machine: &Machine,
        outcome: AssignOutcome,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let schedule = if self.use_time_priorities {
            ListScheduler::new().schedule(dag, machine, &outcome.assignment, &outcome.priorities)?
        } else {
            ListScheduler::new().schedule_with_cp(dag, machine, &outcome.assignment)?
        };
        Ok(ScheduleOutcome {
            schedule,
            assignment: outcome.assignment,
            trace: outcome.trace,
            shard_info: None,
            governor: None,
        })
    }
}

impl Scheduler for ConvergentScheduler {
    fn name(&self) -> &str {
        "convergent"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> Result<SpaceTimeSchedule, ScheduleError> {
        ConvergentScheduler::schedule(self, dag, machine).map(ScheduleOutcome::into_schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convergent_ir::{DagBuilder, InstrId, Opcode};
    use convergent_sim::validate;

    fn c(k: u16) -> ClusterId {
        ClusterId::new(k)
    }

    fn star_with_preplacement() -> Dag {
        // Four banked loads feeding a reduction tree.
        let mut b = DagBuilder::new();
        let mut muls = Vec::new();
        for k in 0..4u16 {
            let ld = b.preplaced_instr(Opcode::Load, c(k));
            let mu = b.instr(Opcode::FMul);
            b.edge(ld, mu).unwrap();
            muls.push(mu);
        }
        let a1 = b.instr(Opcode::FAdd);
        let a2 = b.instr(Opcode::FAdd);
        let a3 = b.instr(Opcode::FAdd);
        b.edge(muls[0], a1).unwrap();
        b.edge(muls[1], a1).unwrap();
        b.edge(muls[2], a2).unwrap();
        b.edge(muls[3], a2).unwrap();
        b.edge(a1, a3).unwrap();
        b.edge(a2, a3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn raw_schedule_validates_and_honors_preplacement() {
        let dag = star_with_preplacement();
        let m = Machine::raw(4);
        let out = ConvergentScheduler::raw_default()
            .schedule(&dag, &m)
            .unwrap();
        validate(&dag, &m, out.schedule()).unwrap();
        assert!(out.assignment().respects_preplacement(&dag));
        // Each multiply follows its load's home tile.
        for k in 0..4u32 {
            let ld = InstrId::new(k * 2);
            let mu = InstrId::new(k * 2 + 1);
            assert_eq!(out.assignment().cluster(mu), out.assignment().cluster(ld));
        }
    }

    #[test]
    fn vliw_schedule_validates() {
        let dag = star_with_preplacement();
        let m = Machine::chorus_vliw(4);
        let out = ConvergentScheduler::vliw_default()
            .schedule(&dag, &m)
            .unwrap();
        validate(&dag, &m, out.schedule()).unwrap();
    }

    #[test]
    fn trace_covers_every_pass() {
        let dag = star_with_preplacement();
        let m = Machine::raw(4);
        let out = ConvergentScheduler::raw_default()
            .schedule(&dag, &m)
            .unwrap();
        assert_eq!(out.trace().records().len(), Sequence::raw().len());
        // EMPHCP is time-only and excluded from the spatial trace.
        assert_eq!(out.trace().spatial().count(), Sequence::raw().len() - 1);
        for r in out.trace().records() {
            assert!((0.0..=1.0).contains(&r.changed_fraction), "{r:?}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let dag = star_with_preplacement();
        let m = Machine::chorus_vliw(4);
        let s1 = ConvergentScheduler::vliw_default().with_seed(9);
        let s2 = ConvergentScheduler::vliw_default().with_seed(9);
        let a = s1.schedule(&dag, &m).unwrap();
        let b = s2.schedule(&dag, &m).unwrap();
        assert_eq!(a.assignment(), b.assignment());
        assert_eq!(a.schedule(), b.schedule());
    }

    /// Collects the names of the preference maps a run delivers.
    #[derive(Default)]
    struct MapNames(Vec<String>);

    impl TelemetrySink for MapNames {
        fn span(&mut self, _: &str, _: SpanKind, _: f64, _: f64) {}

        fn preference_map(&mut self, path: &str, map: &PreferenceMap) {
            map.assert_invariants(1e-6);
            self.0.push(path.to_string());
        }
    }

    #[test]
    fn sink_sees_map_after_init_plus_each_pass() {
        let dag = star_with_preplacement();
        let m = Machine::chorus_vliw(4);
        let mut names = MapNames::default();
        ConvergentScheduler::vliw_default()
            .schedule_with_sink(&dag, &m, &mut names)
            .unwrap();
        assert_eq!(names.0.len(), Sequence::vliw().len() + 1);
        assert_eq!(names.0[0], "<init>");
        assert_eq!(names.0[1], "INITTIME");
        // Per-shard buffers drop the map event.
        let mut sharded = MapNames::default();
        let out = ConvergentScheduler::vliw_default()
            .with_shards(3)
            .schedule_with_sink(&multi_component_dag(), &m, &mut sharded)
            .unwrap();
        assert!(out.shard_info().is_some());
        assert!(sharded.0.is_empty());
    }

    #[test]
    fn bad_home_rejected() {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, c(9));
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        assert!(matches!(
            ConvergentScheduler::vliw_default().schedule(&dag, &m),
            Err(ScheduleError::BadHomeCluster { .. })
        ));
    }

    #[test]
    fn empty_sequence_still_schedules() {
        // With no passes everything defaults to cluster 0 — legal,
        // just serial.
        let dag = star_with_preplacement();
        let m = Machine::chorus_vliw(4);
        let out = ConvergentScheduler::new(Sequence::new())
            .schedule(&dag, &m)
            .unwrap();
        validate(&dag, &m, out.schedule()).unwrap();
    }

    #[test]
    fn single_cluster_machine_degenerates_gracefully() {
        // With one cluster there is no spatial choice; confidence is
        // infinite everywhere and the pipeline still produces a valid,
        // serial-resource-bound schedule.
        let dag = star_with_preplacement();
        let folded = {
            // Fold homes onto cluster 0 for the 1-cluster machine.
            let mut b = convergent_ir::DagBuilder::new();
            for instr in dag.instrs() {
                let new = match instr.preplacement() {
                    Some(_) => {
                        convergent_ir::Instruction::preplaced(instr.opcode(), ClusterId::new(0))
                    }
                    None => convergent_ir::Instruction::new(instr.opcode()),
                };
                b.push(new);
            }
            for e in dag.edges() {
                b.edge(e.src, e.dst).unwrap();
            }
            b.build().unwrap()
        };
        let m = Machine::raw(1);
        let out = ConvergentScheduler::raw_default()
            .schedule(&folded, &m)
            .unwrap();
        validate(&folded, &m, out.schedule()).unwrap();
        // Single-issue tile: makespan at least the instruction count.
        assert!(out.schedule().makespan().get() >= folded.len() as u32);
    }

    #[test]
    fn single_instruction_graph_schedules() {
        let mut b = convergent_ir::DagBuilder::new();
        b.instr(convergent_ir::Opcode::FDiv);
        let dag = b.build().unwrap();
        for m in [Machine::raw(4), Machine::chorus_vliw(4)] {
            let out = ConvergentScheduler::raw_default()
                .schedule(&dag, &m)
                .unwrap();
            validate(&dag, &m, out.schedule()).unwrap();
            assert_eq!(out.schedule().op(InstrId::new(0)).start.get(), 0);
        }
    }

    #[test]
    fn profiled_schedule_matches_plain_and_reports_spans() {
        let dag = star_with_preplacement();
        let m = Machine::chorus_vliw(4);
        let plain = ConvergentScheduler::vliw_default()
            .schedule(&dag, &m)
            .unwrap();
        let mut buf = TelemetryBuffer::with_interest(SinkInterest::spans_only());
        let out = ConvergentScheduler::vliw_default()
            .schedule_with_sink(&dag, &m, &mut buf)
            .unwrap();
        assert_eq!(plain.assignment(), out.assignment());
        assert_eq!(plain.schedule(), out.schedule());
        let profile = buf.profile();
        let names: Vec<_> = profile.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(names.first(), Some(&"<init>"));
        assert!(names.contains(&"INITTIME"));
        assert!(names.contains(&"<readoff>"));
        assert_eq!(names.last(), Some(&"<listsched>"));
        assert!(profile.iter().all(|&(_, s, _)| s >= 0.0));
    }

    #[test]
    fn scheduler_trait_is_implemented() {
        let s = ConvergentScheduler::raw_default();
        assert_eq!(Scheduler::name(&s), "convergent");
        let dag = star_with_preplacement();
        let m = Machine::raw(4);
        let schedule = Scheduler::schedule(&s, &dag, &m).unwrap();
        validate(&dag, &m, &schedule).unwrap();
    }

    /// Two independent reduction trees plus a loose chain: three
    /// weakly-connected components, no preplacement.
    fn multi_component_dag() -> Dag {
        let mut b = DagBuilder::new();
        for _ in 0..2 {
            let mut muls = Vec::new();
            for _ in 0..4 {
                let ld = b.instr(Opcode::Load);
                let mu = b.instr(Opcode::FMul);
                b.edge(ld, mu).unwrap();
                muls.push(mu);
            }
            let a1 = b.instr(Opcode::FAdd);
            let a2 = b.instr(Opcode::FAdd);
            let a3 = b.instr(Opcode::FAdd);
            b.edge(muls[0], a1).unwrap();
            b.edge(muls[1], a1).unwrap();
            b.edge(muls[2], a2).unwrap();
            b.edge(muls[3], a2).unwrap();
            b.edge(a1, a3).unwrap();
            b.edge(a2, a3).unwrap();
        }
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 0..5 {
            let n = b.instr(Opcode::IntAlu);
            b.edge(prev, n).unwrap();
            prev = n;
        }
        b.build().unwrap()
    }

    #[test]
    fn sharding_is_identity_on_connected_graphs() {
        // A single weakly-connected component under the region target
        // is never cut, so ANY shard budget must produce the
        // byte-identical schedule.
        let dag = star_with_preplacement();
        for m in [Machine::raw(4), Machine::chorus_vliw(4)] {
            let plain = ConvergentScheduler::raw_default()
                .schedule(&dag, &m)
                .unwrap();
            for shards in [1, 2, 8] {
                let out = ConvergentScheduler::raw_default()
                    .with_shards(shards)
                    .schedule(&dag, &m)
                    .unwrap();
                assert_eq!(plain.schedule(), out.schedule(), "shards={shards}");
                assert_eq!(plain.assignment(), out.assignment());
                assert_eq!(plain.trace(), out.trace());
                assert!(out.shard_info().is_none());
            }
        }
    }

    #[test]
    fn sharded_multi_component_schedule_validates() {
        let dag = multi_component_dag();
        for m in [Machine::raw(4), Machine::chorus_vliw(4)] {
            for shards in [2, 3, 8] {
                let out = ConvergentScheduler::vliw_default()
                    .with_shards(shards)
                    .schedule(&dag, &m)
                    .unwrap();
                validate(&dag, &m, out.schedule()).unwrap();
                let info = out.shard_info().expect("graph decomposes");
                assert!(info.shard_sizes.len() >= 2);
                assert_eq!(info.shard_sizes.iter().sum::<usize>(), dag.len());
                assert_eq!(info.offsets.len(), info.shard_sizes.len());
                assert_eq!(info.offsets[0], 0);
            }
        }
    }

    #[test]
    fn sharded_trace_is_size_weighted_merge() {
        let dag = multi_component_dag();
        let m = Machine::chorus_vliw(4);
        let out = ConvergentScheduler::vliw_default()
            .with_shards(3)
            .schedule(&dag, &m)
            .unwrap();
        assert_eq!(out.trace().records().len(), Sequence::vliw().len());
        for r in out.trace().records() {
            assert!((0.0..=1.0).contains(&r.changed_fraction), "{r:?}");
        }
    }

    #[test]
    fn sharded_profile_reports_shard_and_stitch_spans() {
        let dag = multi_component_dag();
        let m = Machine::chorus_vliw(4);
        let mut buf = TelemetryBuffer::with_interest(SinkInterest::spans_only());
        let out = ConvergentScheduler::vliw_default()
            .with_shards(3)
            .schedule_with_sink(&dag, &m, &mut buf)
            .unwrap();
        assert!(out.shard_info().is_some());
        let names: Vec<_> = buf.profile().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names.first(), Some(&"<decompose>"));
        assert_eq!(names.last(), Some(&"<stitch>"));
        assert!(names.iter().any(|n| n.starts_with("shard0/")));
        assert!(names.contains(&"shard0/<listsched>"));
        // Plain and profiled sharded runs agree.
        let plain = ConvergentScheduler::vliw_default()
            .with_shards(3)
            .schedule(&dag, &m)
            .unwrap();
        assert_eq!(plain.schedule(), out.schedule());
    }

    #[test]
    fn sink_run_is_bit_identical_and_emits_run_span() {
        use crate::telemetry::{SinkInterest, TelemetryBuffer, TelemetryEvent};
        let dag = star_with_preplacement();
        let m = Machine::chorus_vliw(4);
        let plain = ConvergentScheduler::vliw_default()
            .schedule(&dag, &m)
            .unwrap();
        let mut buf = TelemetryBuffer::new();
        let out = ConvergentScheduler::vliw_default()
            .schedule_with_sink(&dag, &m, &mut buf)
            .unwrap();
        assert_eq!(plain.schedule(), out.schedule());
        assert_eq!(plain.assignment(), out.assignment());
        // Structure: <init> first, <run> last, one Pass span per pass,
        // counters and convergence for every pass.
        let spans: Vec<_> = buf
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Span { path, kind, .. } => Some((path.as_str(), *kind)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.first(), Some(&("<init>", SpanKind::Stage)));
        assert_eq!(spans.last(), Some(&("<run>", SpanKind::Run)));
        let passes = spans.iter().filter(|(_, k)| *k == SpanKind::Pass).count();
        assert_eq!(passes, Sequence::vliw().len());
        assert_eq!(
            buf.convergence_entries().count(),
            Sequence::vliw().len(),
            "one convergence measurement per pass"
        );
        let totals = buf.counter_total();
        assert!(totals.weight_ops() > 0);
        // Spans-only interest produces no counters/convergence.
        let mut lean = TelemetryBuffer::with_interest(SinkInterest::spans_only());
        let out2 = ConvergentScheduler::vliw_default()
            .schedule_with_sink(&dag, &m, &mut lean)
            .unwrap();
        assert_eq!(plain.schedule(), out2.schedule());
        assert!(lean.counter_total().is_zero());
        assert_eq!(lean.convergence_entries().count(), 0);
    }

    #[test]
    fn sink_sharded_run_replays_in_shard_order() {
        use crate::telemetry::{split_shard_prefix, TelemetryBuffer, TelemetryEvent};
        let dag = multi_component_dag();
        let m = Machine::chorus_vliw(4);
        let plain = ConvergentScheduler::vliw_default()
            .with_shards(3)
            .schedule(&dag, &m)
            .unwrap();
        let mut buf = TelemetryBuffer::new();
        let out = ConvergentScheduler::vliw_default()
            .with_shards(3)
            .schedule_with_sink(&dag, &m, &mut buf)
            .unwrap();
        assert_eq!(plain.schedule(), out.schedule());
        let info = out.shard_info().expect("graph decomposes");
        // Shard indices appear in nondecreasing order across events,
        // regardless of worker scheduling.
        let mut last = 0usize;
        let mut seen = 0usize;
        for ev in buf.events() {
            if let TelemetryEvent::Span { path, kind, .. } = ev {
                if *kind == SpanKind::Shard {
                    let (k, rest) = split_shard_prefix(path);
                    assert_eq!(rest, "");
                    let k = k.expect("shard span path");
                    assert!(k >= last, "shard spans out of order");
                    last = k;
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, info.shard_sizes.len());
        // The stitch counter delta reports the boundary COMMs.
        assert_eq!(
            buf.counter_total().boundary_comms as usize,
            info.boundary_comms
        );
    }
}
