//! Exporter contracts, held as golden files: the Chrome trace-event
//! writer must produce this exact byte sequence for a fixed event feed
//! (so Perfetto keeps loading what we emit). A real driver run is then
//! pushed through the exporter and held to the schema validator, and
//! the per-pass preference-map event (the Figure 4 hook) is checked
//! against the run's convergence trace.

use convergent_core::telemetry::{
    validate_chrome_trace, ChromeTraceSink, ConvergenceMetrics, CounterTotals, MultiSink, SpanKind,
    TelemetrySink,
};
use convergent_core::{ConvergentScheduler, PreferenceMap};
use convergent_ir::{ClusterId, DagBuilder, Instruction, Opcode};
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
    let mut sink = ChromeTraceSink::new();
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
            preference_entropy: 2.0,
            preplacement_coverage: 1.0,
        },
    );
    sink.span("shard0/COMM", SpanKind::Pass, 0.001_25, 0.000_5);
    sink.span("shard0", SpanKind::Shard, 0.001_25, 0.000_5);
    sink.span("<run>", SpanKind::Run, 0.0, 0.002);
    let json = sink.write_json();
    let expected = concat!(
        "{\"traceEvents\":[\n",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"csched\"}},\n",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"driver\"}},\n",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0,\"args\":{\"name\":\"shard0\"}},\n",
        "{\"name\":\"<init>\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":250,\"args\":{}},\n",
        "{\"name\":\"<run>\",\"cat\":\"run\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":2000,\"args\":{}},\n",
        "{\"name\":\"PATH\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":250,\"dur\":1000,\"args\":{}},\n",
        "{\"name\":\"weight ops\",\"cat\":\"counters\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1250,\"args\":{\"set\":0,\"scale\":0,\"scale_cluster\":12,\"scale_time\":0,\"set_window\":0,\"forbid_cluster\":0,\"normalize\":0,\"reset_uniform\":0,\"row_batch\":0}},\n",
        "{\"name\":\"convergence\",\"cat\":\"convergence\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1250,\"args\":{\"mean_confidence\":1.5,\"decision_churn\":0.25,\"preference_entropy\":2,\"preplacement_coverage\":1}},\n",
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

/// A real driver run through the Chrome exporter: valid schema,
/// monotone timestamps (checked by the validator), and a span for
/// every pass of the sequence that ran.
#[test]
fn real_run_trace_validates_and_names_every_pass() {
    let dag = diamond();
    let machine = Machine::chorus_vliw(2);
    let sched = ConvergentScheduler::vliw_default();
    let mut sink = ChromeTraceSink::new();
    sched
        .schedule_with_sink(&dag, &machine, &mut sink)
        .expect("diamond schedules");
    let stats = validate_chrome_trace(&sink.write_json()).expect("trace validates");
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
/// a `MultiSink` member sees the same stream; and watching the maps
/// never changes the schedule.
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

        let mut member = MapLog::default();
        let mut chrome = ChromeTraceSink::new();
        let mut multi = MultiSink::new();
        multi.push(&mut member);
        multi.push(&mut chrome);
        let fanned = sched
            .schedule_with_sink(unit.dag(), &machine, &mut multi)
            .expect("schedules");
        drop(multi);
        assert_eq!(member.0, log.0);
        assert_eq!(fanned.schedule(), plain.schedule());
    }
}
