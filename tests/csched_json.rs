//! `csched lint --json` and `csched verify --json` must print valid
//! JSON whatever the unit is called: a control character in a `.cdag`
//! unit name reaches the output as a `\u00XX` escape, never raw.

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
