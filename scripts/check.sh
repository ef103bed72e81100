#!/usr/bin/env sh
# Full local gate: release build, tests, clippy (warnings are errors),
# formatting and the CLI smokes. Run from anywhere inside the repo.
# The workspace depends on no external crate, so it needs no network.
#
#   scripts/check.sh          # the full gate
#   scripts/check.sh --miri   # additionally run the recording-proxy,
#                             # row-kernel and abstract-domain
#                             # proptests under cargo miri (skipped
#                             # with a notice if miri is not installed)
set -eu

cd "$(dirname "$0")/.."

MIRI=0
if [ "${1:-}" = "--miri" ]; then
    MIRI=1
fi

# Each step prints its wall seconds when it ends, so a slow step shows
# up in every run.
STEP_T0=""
step() {
    step_end
    STEP_T0="$(date +%s)"
    echo "==> $1"
}
step_end() {
    if [ -n "$STEP_T0" ]; then
        echo "    ($(($(date +%s) - STEP_T0)) s)"
    fi
    STEP_T0=""
}

step "cargo build --release && cargo test -q"
cargo build --release && cargo test -q
step "no registry dependencies (cargo metadata)"
# Every package must come from this repository: a crates.io (or any
# registry) source would break the offline build.
if cargo metadata --format-version 1 | grep -Eq '"source":"(registry|sparse)\+'; then
    echo "check.sh: FAIL: cargo metadata lists a registry package" >&2
    exit 1
fi
step "cargo test -q --workspace"
cargo test -q --workspace
step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
step "cargo fmt --check"
cargo fmt --check
step "RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
# Broken, ambiguous or private intra-doc links fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
step "lint smoke: builtin workloads (--deny warnings)"
cargo run --release -q --bin csched -- lint --all-workloads --machine raw4 --deny warnings
cargo run --release -q --bin csched -- lint --all-workloads --machine vliw4 --deny warnings
step "analyze smoke: builtin sequences fully proven (--deny warnings)"
cargo run --release -q --bin csched -- analyze --machine raw4 \
    --sequence raw --sequence vliw --sequence vliw-tuned --deny warnings
# The deliberately broken probe pass must be rejected *statically* —
# nonzero exit, no scheduler constructed.
if cargo run --release -q --bin csched -- analyze --machine raw4 \
    --with-broken-probe >/dev/null 2>&1; then
    echo "check.sh: FAIL: analyze accepted a statically refuted probe pass" >&2
    exit 1
fi
# A degenerate machine spec is a usage error: exit 1, no panic.
degenerate_err="$(cargo run --release -q --bin csched -- --workload fir --machine raw0 2>&1 >/dev/null)" \
    && degenerate_status=0 || degenerate_status=$?
if [ "$degenerate_status" != 1 ] || printf '%s' "$degenerate_err" | grep -q panicked; then
    echo "check.sh: FAIL: csched --machine raw0 must exit 1 without panicking (exit $degenerate_status)" >&2
    exit 1
fi
step "huge-machine smoke (3 instructions at vliw65000/raw65000, every scheduler, ulimit -v)"
# A 3-instruction graph on a 65 000-cluster machine must schedule
# under a 2 GB address-space cap with every scheduler: exit 0, no
# panic. Per-cluster or per-unit state must stay small and lazy (an
# eager cycle table or an N·C matrix aborts here). The release binary
# runs directly so the cap does not also bind cargo.
huge_cdag="$(mktemp /tmp/csched-huge.XXXXXX.cdag)"
printf 'unit huge\ni lw\ni add\ni sw\ne 0 1\ne 1 2\n' >"$huge_cdag"
for m in vliw65000 raw65000; do
    for s in convergent uas pcc rawcc bug; do
        huge_err="$( (ulimit -v 2000000 && ./target/release/csched verify "$huge_cdag" \
            --machine "$m" --scheduler "$s") 2>&1 >/dev/null)" \
            && huge_status=0 || huge_status=$?
        if [ "$huge_status" != 0 ] || printf '%s' "$huge_err" | grep -q panicked; then
            echo "check.sh: FAIL: csched verify --machine $m --scheduler $s must exit 0 without panicking under ulimit -v 2000000 (exit $huge_status)" >&2
            exit 1
        fi
    done
done
rm -f "$huge_cdag"
# An unknown compiletime flag is a usage error: nonzero exit, no
# panic, no sweep.
args_err="$(cargo run --release -q -p convergent-bench --bin compiletime -- --no-such-flag 2>&1 >/dev/null)" \
    && args_status=0 || args_status=$?
if [ "$args_status" = 0 ] || printf '%s' "$args_err" | grep -q panicked; then
    echo "check.sh: FAIL: compiletime --no-such-flag must exit nonzero without panicking (exit $args_status)" >&2
    exit 1
fi
step "lint smoke: 500 fuzz graphs (seed 0)"
cargo run --release -q -p convergent-bench --bin fuzz -- --seed 0 --budget 500 --lint-only
step "fuzz smoke (seed 0, 200 cases)"
cargo run --release -q -p convergent-bench --bin fuzz -- --seed 0 --budget 200
step "fuzz smoke, large deep-chain (a 2 500-deep chain end to end)"
cargo run --release -q -p convergent-bench --bin fuzz -- \
    --seed 1 --budget 2 --family deep-chain --size 2500 --machines raw4,vliw4
step "fuzz smoke, wide layered on raw16 (LEVEL over 16 bins at width)"
cargo run --release -q -p convergent-bench --bin fuzz -- \
    --seed 1 --budget 2 --family layered --size 1000 --machines raw16
step "fuzz smoke, wide preplaced layered on vliw4/vliw8 (PCC's incremental estimate at width)"
cargo run --release -q -p convergent-bench --bin fuzz -- \
    --seed 1 --budget 4 --family layered-preplaced --size 1500 --machines vliw4,vliw8
step "compile-time scaling guard (200 vs 2000 instrs)"
# The banded preference map keeps the 200→2000 throughput ratio near
# 3x; the dense layout collapsed to 7.3x. Fail past 5x.
cargo run --release -q -p convergent-bench --bin compiletime -- \
    --sizes 200,2000 --budget-secs 0.5 --no-out --max-ratio 5.0
step "compile-time scaling guard (2000 vs 10000 instrs)"
# The bulk row kernels hold the 2000→10000 ratio near 1.5x (the
# per-cell path sat near 10x). Fail past 3x.
cargo run --release -q -p convergent-bench --bin compiletime -- \
    --sizes 2000,10000 --budget-secs 0.75 --no-out --max-ratio 3.0
step "sharded compile-time scaling guard (8 components, 1000 vs 10000 instrs)"
# Region sharding keeps per-shard inputs component-sized; the sharded
# 1000→10000 ratio sits near 2.6x. Fail past 4x.
cargo run --release -q -p convergent-bench --bin compiletime -- \
    --components 8 --shards 8 --sizes 1000,10000 --budget-secs 0.75 --no-out --max-ratio 4.0
step "connected compile-time scaling guard (--shards 8, 10000 vs 100000 instrs)"
# Recursive region cuts keep connected layered graphs in region-sized
# pieces; the sharded 10000→100000 ratio sits near 1.7x (the
# monolithic driver is superlinear past 3x). Fail past 3x.
cargo run --release -q -p convergent-bench --bin compiletime -- \
    --shards 8 --sizes 10000,100000 --budget-secs 0.75 --no-out --max-ratio 3.0
step "monolithic compile-time scaling guard (10000 vs 100000 instrs)"
# One 100k-instruction region through the whole pass sequence. The
# 10000→100000 ratio read 1.3–2.5x over ten runs on a 2-vCPU host
# (host noise, not the code, sets that spread). Fail past 3x.
cargo run --release -q -p convergent-bench --bin compiletime -- \
    --sizes 10000,100000 --budget-secs 0.75 --no-out --max-ratio 3.0
step "sharded-determinism smoke (--shards 1/2/8 identical on a connected builtin)"
# Connected graphs at or under the region target (tomcatv is well
# under the default 2000) are never cut, so any shard budget must
# reproduce the monolithic schedule byte for byte (placement included).
base="$(cargo run --release -q --bin csched -- --workload tomcatv --machine vliw4 --verbose)"
for s in 1 2 8; do
    got="$(cargo run --release -q --bin csched -- --workload tomcatv --machine vliw4 --verbose --shards "$s")"
    if [ "$got" != "$base" ]; then
        echo "check.sh: FAIL: --shards $s diverged from the unsharded schedule on tomcatv" >&2
        exit 1
    fi
done
step "governor-fallback smoke (degenerate cut falls back to the monolithic schedule)"
# Forcing a tiny region target on fir makes every candidate cut
# mostly-crossing; the governor must reject it and the fallback must
# be byte-identical to the monolithic schedule.
fir_base="$(cargo run --release -q --bin csched -- --workload fir --machine vliw4 --verbose)"
fir_got="$(cargo run --release -q --bin csched -- --workload fir --machine vliw4 --verbose --shards 8 --region-size 16)"
if [ "$fir_got" != "$fir_base" ]; then
    echo "check.sh: FAIL: governor fallback diverged from the unsharded schedule on fir" >&2
    exit 1
fi
step "trace smoke (csched --trace parses and names every pass)"
# trace-check re-parses the Chrome trace with the hand-rolled JSON
# reader and requires a span for each pass of the vliw4 sequence.
trace_tmp="$(mktemp /tmp/csched-trace.XXXXXX.json)"
cargo run --release -q --bin csched -- --workload tomcatv --machine vliw4 --trace "$trace_tmp" >/dev/null
cargo run --release -q --bin csched -- trace-check "$trace_tmp" --machine vliw4
step "sharded trace smoke (--profile and --trace render one recorded run)"
# Shard k's events land on their own trace thread; the profile table
# and the trace come from the same buffer.
cargo run --release -q --bin csched -- --workload tomcatv --machine vliw4 --shards 8 \
    --region-size 16 --profile --trace "$trace_tmp" >/dev/null
cargo run --release -q --bin csched -- trace-check "$trace_tmp" --machine vliw4
step "multi-run trace smoke (fuzz lays its traced runs end to end)"
cargo run --release -q -p convergent-bench --bin fuzz -- --seed 0 --budget 40 \
    --trace "$trace_tmp" >/dev/null
cargo run --release -q --bin csched -- trace-check "$trace_tmp" --machine raw16
rm -f "$trace_tmp"
step "Figure 4 smoke (the per-pass preference-map event drives the convergence_trace example)"
cargo run --release -q --example convergence_trace >/dev/null
step "third-party pass example (its effect summary proves its contract)"
cargo run --release -q --example custom_pass >/dev/null
step "telemetry on/off byte-identity (suite-wide, shards)"
cargo test -q -p convergent-bench --test telemetry_determinism
step "benchmark smoke tests (schedbench builds against the workspace crates)"
# schedbench is a package of its own (its own [workspace]), so no
# workspace command builds it; this catches an API change that breaks
# the benchmark.
cargo test --release --offline --manifest-path schedbench/Cargo.toml
if [ "$MIRI" = 1 ]; then
    step "recording-proxy, row-kernel, and abstract-domain proptests under miri"
    if cargo miri --version >/dev/null 2>&1; then
        # Undefined behaviour in the WeightOp logging hot path would
        # invalidate every contract verdict; miri checks the proxy's
        # transparency/fidelity proptests at the bitwise level. The
        # row-kernel differentials drive the bulk kernels' slice
        # splitting (band storage) the same way.
        cargo miri test -p convergent-core --test recording_proxy --test row_kernels
        # The abstract interpreter's lattice laws underpin every
        # `Proven` verdict the contract checker reports.
        cargo miri test -p convergent-analysis --test absint
    else
        echo "check.sh: miri not installed (rustup component add miri); skipping"
    fi
fi
if [ "${TSAN:-0}" = 1 ]; then
    step "ThreadSanitizer: parallel driver + telemetry (TSAN=1 opt-in)"
    # The sharded regions and the telemetry sinks are the only
    # threaded code; tsan needs
    # nightly (-Zsanitizer) and an explicit --target so build scripts
    # stay uninstrumented.
    if rustup run nightly rustc --version >/dev/null 2>&1; then
        host="$(rustc -vV | sed -n 's/^host: //p')"
        RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
            --target "$host" -p convergent-core --lib
        RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
            --target "$host" -p convergent-bench --test telemetry_determinism
    else
        echo "check.sh: nightly toolchain not installed (rustup toolchain install nightly); skipping tsan"
    fi
fi
step_end
echo "check.sh: all green"
