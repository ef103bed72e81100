//! `csched lint --json` and `csched verify --json` must print valid
//! JSON whatever the unit is called: a control character in a `.cdag`
//! unit name reaches the output as a `\u00XX` escape, never raw.
//! `csched verify` also shards its convergent run on `--shards` and
//! refuses the schedule command's output options.

use std::path::PathBuf;
use std::process::Command;

/// Runs `csched` with `args` and returns its stdout; panics unless it
/// exits 0.
fn csched(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_csched"))
        .args(args)
        .output()
        .expect("csched starts");
    assert!(
        out.status.success(),
        "csched {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("csched prints UTF-8")
}

#[test]
fn json_reports_escape_control_characters_in_unit_names() {
    let dump = csched(&["--workload", "fir", "--machine", "vliw4", "--dump"]);
    let (first, body) = dump.split_once('\n').expect("a dump has a unit line");
    assert_eq!(first, "unit fir");
    let path: PathBuf =
        std::env::temp_dir().join(format!("csched-json-escape-{}.cdag", std::process::id()));
    std::fs::write(&path, format!("unit a\u{1}b\n{body}")).expect("write the .cdag");
    let file = path.to_str().expect("UTF-8 temp path");
    let reports = [
        csched(&["lint", file, "--machine", "vliw4", "--json"]),
        csched(&["verify", file, "--machine", "vliw4", "--json"]),
    ];
    std::fs::remove_file(&path).expect("remove the .cdag");
    for json in reports {
        assert!(json.contains("a\\u0001b"), "{json}");
        let body = json.trim_end_matches('\n');
        assert!(
            body.bytes().all(|b| b >= 0x20),
            "raw control byte in {json:?}"
        );
    }
}

/// Runs `csched` with `args`, expecting exit status 1, and returns its
/// stderr.
fn csched_fails(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_csched"))
        .args(args)
        .output()
        .expect("csched starts");
    assert_eq!(out.status.code(), Some(1), "csched {args:?}");
    String::from_utf8(out.stderr).expect("csched prints UTF-8")
}

/// `verify` shards its convergent run when asked: the cut governor
/// then reports a verdict, which an unsharded run never does. With
/// every scheduler running, the sharding reaches the convergent one
/// only.
#[test]
fn verify_passes_shards_and_region_size_to_the_convergent_run() {
    let sharding = ["--shards", "8", "--region-size", "50"];
    for explicit in [&["--scheduler", "convergent"][..], &[]] {
        let mut args = vec![
            "verify",
            "--workload",
            "tomcatv",
            "--machine",
            "vliw4",
            "--json",
        ];
        args.extend(explicit);
        let unsharded = csched(&args);
        args.extend(sharding);
        let sharded = csched(&args);
        let verdicts = "\"governor_accepts\":0,\"governor_rejects\":0";
        assert!(unsharded.contains(verdicts), "{unsharded}");
        assert!(!sharded.contains(verdicts), "{sharded}");
        assert!(sharded.contains("\"scheduler\":\"convergent\",\"status\":\"ok\""));
    }
    let err = csched_fails(&[
        "verify",
        "--workload",
        "fir",
        "--scheduler",
        "uas",
        "--shards",
        "2",
    ]);
    assert!(
        err.contains("--shards applies to the convergent scheduler only"),
        "{err}"
    );
}

#[test]
fn verify_rejects_schedule_only_options() {
    for flag in ["--profile", "--dump", "--dot", "--pressure"] {
        let err = csched_fails(&["verify", "--workload", "fir", "--machine", "vliw4", flag]);
        assert!(
            err.contains(&format!("{flag} applies to the schedule command")),
            "{err}"
        );
    }
}
