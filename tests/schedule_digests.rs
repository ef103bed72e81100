//! Full-schedule digests of all five schedulers on the benchmark's own
//! inputs: the Raw suite on the 16-tile Raw machine and the VLIW suite
//! on the 4-cluster Chorus VLIW.
//!
//! Each digest hashes every instruction's cluster, unit and issue cycle
//! and the whole communication list, so any change to a scheduler's
//! choices — which pair issues next in the list scheduler, which
//! cluster UAS settles on, how Rawcc merges and places its virtual
//! clusters — shows up here, even where the end-of-run reports pinned
//! in `end_to_end.rs` would not move. Raw16 is the machine on which the
//! list scheduler arbitrates 192 (cluster, class) pairs and Rawcc's
//! affinity placement has free tiles to choose from.

use convergent_scheduling::core::ConvergentScheduler;
use convergent_scheduling::ir::SchedulingUnit;
use convergent_scheduling::machine::Machine;
use convergent_scheduling::schedulers::{
    BugScheduler, PccScheduler, RawccScheduler, Scheduler, UasScheduler,
};
use convergent_scheduling::sim::{validate, SpaceTimeSchedule};
use convergent_scheduling::workloads::{raw_suite, vliw_suite};

/// 64-bit FNV-1a over a stream of words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Hashes each op's (cluster, unit, cycle) in instruction order, then
/// each comm's (producer, from, to, start, latency, unit) in recorded
/// order.
fn digest(s: &SpaceTimeSchedule) -> u64 {
    let ops = s.ops().iter().flat_map(|op| {
        [
            op.instr.index() as u64,
            op.cluster.index() as u64,
            op.fu as u64,
            u64::from(op.start.get()),
        ]
    });
    let comms = s.comms().iter().flat_map(|c| {
        [
            c.producer.index() as u64,
            c.from.index() as u64,
            c.to.index() as u64,
            u64::from(c.start.get()),
            u64::from(c.latency),
            c.fu.map_or(u64::MAX, |fu| fu as u64),
        ]
    });
    fnv1a(ops.chain([u64::MAX]).chain(comms))
}

fn check(
    machine: &Machine,
    suite: Vec<SchedulingUnit>,
    convergent: ConvergentScheduler,
    pinned: &[(&str, &str, u64)],
) {
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(UasScheduler::new()),
        Box::new(PccScheduler::new()),
        Box::new(RawccScheduler::new()),
        Box::new(BugScheduler::new()),
        Box::new(convergent),
    ];
    let mut digests = Vec::new();
    for sched in &schedulers {
        for unit in &suite {
            let s = sched
                .schedule(unit.dag(), machine)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", sched.name(), unit.name()));
            validate(unit.dag(), machine, &s)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", sched.name(), unit.name()));
            digests.push((
                sched.name().to_string(),
                unit.name().to_string(),
                digest(&s),
            ));
        }
    }
    let table: String = digests
        .iter()
        .map(|(s, u, d)| format!("    (\"{s}\", \"{u}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, String, u64)> = pinned
        .iter()
        .map(|&(s, u, d)| (s.to_string(), u.to_string(), d))
        .collect();
    assert_eq!(
        digests,
        expected,
        "schedules changed on {}; measured digests:\n{table}",
        machine.name()
    );
}

#[test]
fn schedules_are_unchanged_on_the_raw_suite_on_raw16() {
    check(
        &Machine::raw(16),
        raw_suite(16),
        ConvergentScheduler::raw_default(),
        RAW16,
    );
}

#[test]
fn schedules_are_unchanged_on_the_vliw_suite_on_vliw4() {
    check(
        &Machine::chorus_vliw(4),
        vliw_suite(4),
        ConvergentScheduler::vliw_tuned(),
        VLIW4,
    );
}

// Recorded before the list scheduler's per-cycle heap of pair tops,
// UAS's early exits and Rawcc's one-pass merge and placement existed.
const RAW16: &[(&str, &str, u64)] = &[
    ("uas", "cholesky", 0x4076d94990362294),
    ("uas", "tomcatv", 0x158a4e676783bec1),
    ("uas", "vpenta", 0xb9b079c0908d2b96),
    ("uas", "mxm", 0xf2038a6c964b656b),
    ("uas", "fpppp-kernel", 0x0c5ecb76ca616c02),
    ("uas", "sha", 0x545700bcbcddec6b),
    ("uas", "swim", 0x0715555dcea44485),
    ("uas", "jacobi", 0x66962e448d4be215),
    ("uas", "life", 0xe2baf2d249a3ceeb),
    ("pcc", "cholesky", 0x46ee4e03ee9843d5),
    ("pcc", "tomcatv", 0x75250e4d01f45f83),
    ("pcc", "vpenta", 0xe5a58edd702c9039),
    ("pcc", "mxm", 0x3799262187897b37),
    ("pcc", "fpppp-kernel", 0x6d68b21ed14fd683),
    ("pcc", "sha", 0x3443045491363601),
    ("pcc", "swim", 0x434448a11c422b91),
    ("pcc", "jacobi", 0x98edf17422263c47),
    ("pcc", "life", 0x045b13933f707f93),
    ("rawcc", "cholesky", 0x8daf62548d349ebd),
    ("rawcc", "tomcatv", 0x19aa054bfbf2482f),
    ("rawcc", "vpenta", 0xe5a58edd702c9039),
    ("rawcc", "mxm", 0x3799262187897b37),
    ("rawcc", "fpppp-kernel", 0xbc7217117415355f),
    ("rawcc", "sha", 0xc137c51aece8d543),
    ("rawcc", "swim", 0x71ae616470ffb644),
    ("rawcc", "jacobi", 0xca3beb79594505e1),
    ("rawcc", "life", 0x479f25a2d5661c16),
    ("bug", "cholesky", 0xe8bdf8b58b3df6bb),
    ("bug", "tomcatv", 0x4ef64481c4683734),
    ("bug", "vpenta", 0xe5a58edd702c9039),
    ("bug", "mxm", 0x96539944ccdaf89f),
    ("bug", "fpppp-kernel", 0xaf7344a390e735c2),
    ("bug", "sha", 0x1334dfa19c707df3),
    ("bug", "swim", 0x02a0758ee7daa1b0),
    ("bug", "jacobi", 0x3e44faa6c4c10fdc),
    ("bug", "life", 0xb77a87496fd68fc0),
    ("convergent", "cholesky", 0x07b5699c820b23f2),
    ("convergent", "tomcatv", 0xbe98d2acdd47cbd9),
    ("convergent", "vpenta", 0xe5a58edd702c9039),
    ("convergent", "mxm", 0xf6b3e207de174115),
    ("convergent", "fpppp-kernel", 0xde27b145352d2adf),
    ("convergent", "sha", 0xdedbae83af7b3879),
    ("convergent", "swim", 0xfce3e033f824ef53),
    ("convergent", "jacobi", 0xfd217504c22dc657),
    ("convergent", "life", 0x2c99ca42465b61cd),
];

const VLIW4: &[(&str, &str, u64)] = &[
    ("uas", "vvmul", 0xdffe4ccdb101853f),
    ("uas", "rbsorf", 0xa7e1f878cc2a44d6),
    ("uas", "yuv", 0xd005d50e20978e65),
    ("uas", "tomcatv", 0xe087a1347094a2ec),
    ("uas", "mxm", 0x7d8fca24069f0c11),
    ("uas", "fir", 0xc79a33f06a544e0c),
    ("uas", "cholesky", 0x38abe9ce8c5a6996),
    ("pcc", "vvmul", 0xc04c6d224199a3bd),
    ("pcc", "rbsorf", 0x6367bf20eae812a8),
    ("pcc", "yuv", 0x605aedc3d2f55939),
    ("pcc", "tomcatv", 0xe220c076a372c4c1),
    ("pcc", "mxm", 0x68391884ae8bc456),
    ("pcc", "fir", 0x56832304aa327223),
    ("pcc", "cholesky", 0x2b51575aff4c0902),
    ("rawcc", "vvmul", 0xc04c6d224199a3bd),
    ("rawcc", "rbsorf", 0x30c9ce609e1bcb34),
    ("rawcc", "yuv", 0x1e9d7ee596d26ef7),
    ("rawcc", "tomcatv", 0xd794308a0b2a1917),
    ("rawcc", "mxm", 0xae38fdc6574c88b2),
    ("rawcc", "fir", 0x0b9ba0f7350f0688),
    ("rawcc", "cholesky", 0x6aa79c46458961b8),
    ("bug", "vvmul", 0xc04c6d224199a3bd),
    ("bug", "rbsorf", 0x4c6ffc189958ca99),
    ("bug", "yuv", 0x409714caa7247eb5),
    ("bug", "tomcatv", 0x18eeee38cd780fdf),
    ("bug", "mxm", 0x123d40a9234425fa),
    ("bug", "fir", 0xb1199eb395538559),
    ("bug", "cholesky", 0x61e3f053545fbb58),
    ("convergent", "vvmul", 0xc04c6d224199a3bd),
    ("convergent", "rbsorf", 0x8592499284fb96c6),
    ("convergent", "yuv", 0xdcd211e3f008f2fd),
    ("convergent", "tomcatv", 0xe7645aa47e62c897),
    ("convergent", "mxm", 0xf8ad0eed764a99ad),
    ("convergent", "fir", 0x30a53f4ab41840ba),
    ("convergent", "cholesky", 0xad79374e70f2bead),
];
