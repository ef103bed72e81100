//! Exporter contracts, held as golden files: the Chrome trace-event
//! rendering of a recorded buffer must be this exact byte sequence for
//! a fixed event feed (so Perfetto keeps loading what we emit). A
//! recorded real driver run is then rendered and held to the schema
//! validator, and
//! the per-pass preference-map event (the Figure 4 hook) is checked
//! against the run's convergence trace.

use convergent_core::telemetry::{
    chrome_trace, validate_chrome_trace, ConvergenceMetrics, CounterTotals, SinkInterest, SpanKind,
    TelemetryBuffer, TelemetryEvent, TelemetrySink, CONFIDENCE_CAP, CONVERGENCE_SAMPLE_CAP,
};
use convergent_core::{ConvergentScheduler, PreferenceMap};
use convergent_ir::{ClusterId, Dag, DagBuilder, InstrId, Instruction, Opcode};
use convergent_machine::Machine;
use convergent_workloads::{tomcatv, StencilParams};

/// A small diamond DAG with one preplaced load — enough structure for
/// every pass to do real work.
fn diamond() -> convergent_ir::Dag {
    let mut b = DagBuilder::new();
    let a = b.push(Instruction::preplaced(Opcode::Load, ClusterId::new(0)));
    let l = b.push(Instruction::new(Opcode::IntAlu));
    let r = b.push(Instruction::new(Opcode::FMul));
    let s = b.push(Instruction::new(Opcode::Store));
    b.edge(a, l).unwrap();
    b.edge(a, r).unwrap();
    b.edge(l, s).unwrap();
    b.edge(r, s).unwrap();
    b.build().unwrap()
}

/// The golden file: a fixed feed of spans, counters, and convergence
/// samples must render to exactly these bytes. If this test fails
/// because the format deliberately changed, re-derive the expectation
/// with `println!("{json}")` — but know that the schema parts
/// (`traceEvents`, `ph`/`ts`/`dur` fields, metadata events) are what
/// Perfetto loads, so they should not change casually.
#[test]
fn chrome_trace_golden_file() {
    let mut sink = TelemetryBuffer::new();
    sink.span("<init>", SpanKind::Stage, 0.0, 0.000_25);
    sink.span("PATH", SpanKind::Pass, 0.000_25, 0.001);
    sink.counters(
        "PATH",
        &CounterTotals {
            scale_cluster: 12,
            ..CounterTotals::default()
        },
    );
    sink.convergence(
        "PATH",
        &ConvergenceMetrics {
            mean_confidence: 1.5,
            decision_churn: 0.25,
            cluster_entropy: 2.0,
            preplacement_coverage: 1.0,
        },
    );
    sink.span("shard0/COMM", SpanKind::Pass, 0.001_25, 0.000_5);
    sink.span("shard0", SpanKind::Shard, 0.001_25, 0.000_5);
    sink.span("<run>", SpanKind::Run, 0.0, 0.002);
    let json = chrome_trace(&[sink]);
    let expected = concat!(
        "{\"traceEvents\":[\n",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"csched\"}},\n",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"driver\"}},\n",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0,\"args\":{\"name\":\"shard0\"}},\n",
        "{\"name\":\"<init>\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":250,\"args\":{}},\n",
        "{\"name\":\"<run>\",\"cat\":\"run\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":2000,\"args\":{}},\n",
        "{\"name\":\"PATH\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":250,\"dur\":1000,\"args\":{}},\n",
        "{\"name\":\"weight ops\",\"cat\":\"counters\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1250,\"args\":{\"set\":0,\"scale\":0,\"scale_cluster\":12,\"scale_time\":0,\"set_window\":0,\"forbid_cluster\":0,\"normalize\":0,\"reset_uniform\":0,\"row_batch\":0}},\n",
        "{\"name\":\"convergence\",\"cat\":\"convergence\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1250,\"args\":{\"mean_confidence\":1.5,\"decision_churn\":0.25,\"cluster_entropy\":2,\"preplacement_coverage\":1}},\n",
        "{\"name\":\"COMM\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1250,\"dur\":500,\"args\":{}},\n",
        "{\"name\":\"shard0\",\"cat\":\"shard\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1250,\"dur\":500,\"args\":{}}\n",
        "]}\n",
    );
    assert_eq!(json, expected);
    // And the golden bytes themselves satisfy the schema validator.
    let stats = validate_chrome_trace(&json).expect("golden trace validates");
    assert_eq!(stats.span_events, 5);
    assert_eq!(stats.counter_events, 2);
}

/// Every convergence sample carries exactly the four metrics, each in
/// range: a stale key or an out-of-range churn fails the trace.
#[test]
fn validator_checks_convergence_samples() {
    let trace = |args: &str| {
        format!(
            "{{\"traceEvents\":[{{\"name\":\"convergence\",\"cat\":\"convergence\",\
             \"ph\":\"C\",\"ts\":0,\"args\":{{{args}}}}}]}}"
        )
    };
    let good = "\"mean_confidence\":1,\"decision_churn\":0.5,\
                \"cluster_entropy\":0,\"preplacement_coverage\":1";
    assert_eq!(
        validate_chrome_trace(&trace(good)).unwrap().counter_events,
        1
    );
    let stale = good.replace("cluster_entropy", "preference_entropy");
    let err = validate_chrome_trace(&trace(&stale)).unwrap_err();
    assert!(err.contains("cluster_entropy is None"), "{err}");
    let churn = good.replace("0.5", "1.5");
    let err = validate_chrome_trace(&trace(&churn)).unwrap_err();
    assert!(err.contains("decision_churn is Some(1.5)"), "{err}");
    let extra = format!("{good},\"preference_entropy\":0");
    assert!(validate_chrome_trace(&trace(&extra)).is_err());
    let null = good.replace("\"cluster_entropy\":0", "\"cluster_entropy\":null");
    assert!(validate_chrome_trace(&trace(&null)).is_err());
}

/// A recorded real driver run rendered as a Chrome trace: valid schema,
/// monotone timestamps (checked by the validator), and a span for
/// every pass of the sequence that ran.
#[test]
fn real_run_trace_validates_and_names_every_pass() {
    let dag = diamond();
    let machine = Machine::chorus_vliw(2);
    let sched = ConvergentScheduler::vliw_default();
    let mut buf = TelemetryBuffer::new();
    sched
        .schedule_with_sink(&dag, &machine, &mut buf)
        .expect("diamond schedules");
    let stats = validate_chrome_trace(&chrome_trace(&[buf])).expect("trace validates");
    for name in sched.sequence().names() {
        assert!(
            stats.span_names.contains(name),
            "pass {name} has no span in the trace"
        );
    }
    assert!(stats.span_names.contains("<run>"));
    assert!(stats.span_names.contains("<listsched>"));
    assert!(stats.counter_events > 0, "no counter samples in the trace");
}

/// Records each preference map the driver delivers: its name and the
/// map's invariant check at that point.
#[derive(Default)]
struct MapLog(Vec<(String, Result<(), String>)>);

impl TelemetrySink for MapLog {
    fn span(&mut self, _: &str, _: SpanKind, _: f64, _: f64) {}

    fn preference_map(&mut self, path: &str, map: &PreferenceMap) {
        self.0.push((path.to_string(), map.check_invariants(1e-9)));
    }
}

/// A monolithic run delivers the map after `<init>` and after each
/// pass, named as the convergence trace names them, every map sound;
/// and watching the maps never changes the schedule.
#[test]
fn preference_map_event_follows_init_and_every_pass() {
    let unit = tomcatv(StencilParams::for_banks(4));
    for (sched, machine) in [
        (ConvergentScheduler::raw_default(), Machine::raw(4)),
        (ConvergentScheduler::vliw_default(), Machine::chorus_vliw(4)),
    ] {
        let plain = sched.schedule(unit.dag(), &machine).expect("schedules");
        let mut log = MapLog::default();
        let out = sched
            .schedule_with_sink(unit.dag(), &machine, &mut log)
            .expect("schedules");
        let expected: Vec<&str> = std::iter::once("<init>")
            .chain(out.trace().records().iter().map(|r| r.name))
            .collect();
        let names: Vec<&str> = log.0.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, expected);
        assert_eq!(names.len(), sched.sequence().len() + 1);
        for (name, check) in &log.0 {
            if let Err(e) = check {
                panic!("map after {name} breaks an invariant: {e}");
            }
        }
        assert_eq!(out.schedule(), plain.schedule());
        assert_eq!(out.assignment(), plain.assignment());
    }
}

/// Recomputes each pass's convergence metrics from the map the driver
/// delivers right after them: the stride sample, with the entropy
/// taken straight from `cluster_weight` / `total`.
struct MetricsCheck<'a> {
    dag: &'a Dag,
    measured: Option<ConvergenceMetrics>,
    checked: usize,
}

impl TelemetrySink for MetricsCheck<'_> {
    fn interest(&self) -> SinkInterest {
        SinkInterest::all()
    }

    fn span(&mut self, _: &str, _: SpanKind, _: f64, _: f64) {}

    fn convergence(&mut self, _: &str, metrics: &ConvergenceMetrics) {
        self.measured = Some(*metrics);
    }

    fn preference_map(&mut self, path: &str, map: &PreferenceMap) {
        let Some(m) = self.measured.take() else {
            assert_eq!(path, "<init>");
            return;
        };
        let n = self.dag.len();
        let sample: Vec<InstrId> = (0..n)
            .step_by(n.div_ceil(CONVERGENCE_SAMPLE_CAP))
            .map(|k| InstrId::new(k as u32))
            .collect();
        assert!(sample.len() <= CONVERGENCE_SAMPLE_CAP);
        let (mut entropy, mut confidence, mut preplaced, mut covered) = (0.0, 0.0, 0usize, 0usize);
        for &i in &sample {
            for c in 0..map.n_clusters() {
                let p = map.cluster_weight(i, ClusterId::new(c as u16)) / map.total(i);
                if p > 0.0 {
                    entropy -= p * p.ln();
                }
            }
            confidence += map.confidence(i).min(CONFIDENCE_CAP);
            if let Some(home) = self.dag.instr(i).preplacement() {
                preplaced += 1;
                covered += usize::from(map.preferred_cluster(i) == home);
            }
        }
        let len = sample.len() as f64;
        assert!(
            (m.cluster_entropy - entropy / len).abs() < 1e-12,
            "{path}: {m:?}"
        );
        assert!(
            (m.mean_confidence - confidence / len).abs() < 1e-9,
            "{path}: {m:?}"
        );
        assert!(preplaced > 0);
        assert_eq!(m.preplacement_coverage, covered as f64 / preplaced as f64);
        self.checked += 1;
    }
}

/// On a region larger than the sample cap, every pass's metrics are
/// the means over the deterministic stride sample.
#[test]
fn convergence_metrics_are_stride_sample_means_of_the_cluster_marginals() {
    let unit = tomcatv(StencilParams::for_banks(4));
    assert!(unit.dag().len() > 4 * CONVERGENCE_SAMPLE_CAP);
    let sched = ConvergentScheduler::raw_default();
    let mut check = MetricsCheck {
        dag: unit.dag(),
        measured: None,
        checked: 0,
    };
    sched
        .schedule_with_sink(unit.dag(), &Machine::raw(4), &mut check)
        .expect("schedules");
    assert_eq!(check.checked, sched.sequence().len());
}

/// LOAD makes one bulk row op per instruction: with counters on, its
/// delta holds N `row_batch` ops and no `scale_cluster` op (a
/// per-cluster loop re-sums each row's total C times).
#[test]
fn load_counts_one_row_batch_per_instruction() {
    let unit = tomcatv(StencilParams::for_banks(4));
    let mut buf = TelemetryBuffer::new();
    ConvergentScheduler::raw_default()
        .schedule_with_sink(unit.dag(), &Machine::raw(16), &mut buf)
        .expect("schedules");
    let load: Vec<&CounterTotals> = buf
        .events()
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Counters { path, delta } if path == "LOAD" => Some(delta),
            _ => None,
        })
        .collect();
    assert_eq!(load.len(), 1);
    let n = unit.dag().len() as u64;
    assert_eq!((load[0].row_batch, load[0].scale_cluster), (n, 0));
}
