#!/usr/bin/env bash
# Offline CI gate: build, test (twice, at two pool widths), format check,
# and a perf-report smoke run. No network access is required — the
# workspace has no external crate dependencies (see flh-rng for the
# in-tree PRNG).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, all crates) =="
cargo build --release --workspace --offline

# Strips everything timing- or build-dependent from a `cargo test` log so
# two runs can be diffed: wall-clock suffixes and cargo's compile chatter.
normalize() {
    sed -E -e 's/; finished in [0-9.]+s//' \
        -e '/^ *(Compiling|Finished|Running|Doc-tests) /d'
}

echo "== tests (all crates, FLH_THREADS=1) =="
FLH_THREADS=1 cargo test -q --workspace --offline 2>&1 | tee /tmp/flh_ci_t1.log

echo "== tests (all crates, FLH_THREADS=4) =="
FLH_THREADS=4 cargo test -q --workspace --offline 2>&1 | tee /tmp/flh_ci_t4.log

echo "== determinism gate (FLH_THREADS=1 vs 4) =="
if ! diff <(normalize </tmp/flh_ci_t1.log) <(normalize </tmp/flh_ci_t4.log); then
    echo "DETERMINISM GATE FAILED: test output depends on FLH_THREADS" >&2
    exit 1
fi
echo "identical test output at both pool widths"

echo "== formatting =="
cargo fmt --all --check

echo "== clippy (guarded: workspace deny set on opted-in crates) =="
# The [workspace.lints] deny set (clippy::unwrap_used, dbg_macro, todo;
# rustc unused_must_use) applies to the crates with `[lints] workspace =
# true`. Clippy ships with the toolchain here, but minimal toolchains may
# lack it — skip with a notice rather than fail the whole gate.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline -p flh-netlist -p flh-sim -p flh-lint -p flh-serve \
        -p flh-atpg -p flh-exec -p flh-obs --all-targets
else
    echo "NOTICE: cargo clippy unavailable in this toolchain; skipping the lint step"
fi

echo "== determinism lint (hash collections in determinism-critical crates) =="
./scripts/determinism_lint.sh

bench_tmp="$(mktemp -d)"
trap 'rm -rf "$bench_tmp"' EXIT

echo "== static netlist verification (flh_lint, 11 profiles x 3 holding styles) =="
# Zero error-severity diagnostics across the whole generated grid; the
# JSON summary is the machine-readable record of the gate.
cargo run -q --release --offline -p flh-lint --bin flh_lint -- \
    --profiles all --quiet --json "$bench_tmp/lint_summary.json"
if ! grep -q '"total_errors":0' "$bench_tmp/lint_summary.json"; then
    echo "LINT GATE FAILED: error diagnostics on the profile grid" >&2
    exit 1
fi
# The bytecode verifier (FLH015-023) and the X-taint cross-check (FLH026)
# run inside the same grid; none of their codes may fire on any profile.
if grep -qE '"FLH01[5-9]"|"FLH02[0-3]"|"FLH026"' "$bench_tmp/lint_summary.json"; then
    echo "LINT GATE FAILED: bytecode verifier violations on the profile grid" >&2
    exit 1
fi

echo "== static analysis gate (flh analyze, verifier + prune consistency) =="
# `analyze` exits nonzero on any verifier violation; `--check-sim` cross-
# checks the static untestability classifier, and the transition faults
# the FIRE redundancy pass flags in every style, against random stuck-at
# and transition fault simulation on the largest mid-size profile. The
# report, redundancy column included, must also be byte-identical at any
# pool width.
FLH_THREADS=1 cargo run -q --release --offline --bin flh -- \
    analyze s9234 --check-sim | tee "$bench_tmp/analyze_w1.txt"
if ! grep -q '^prune-consistency: OK$' "$bench_tmp/analyze_w1.txt"; then
    echo "ANALYZE GATE FAILED: static filter pruned a simulated-detectable fault" >&2
    exit 1
fi
if ! grep -qE ' [1-9][0-9]* redundant transition faults over all styles$' \
    "$bench_tmp/analyze_w1.txt"; then
    echo "ANALYZE GATE FAILED: no redundancy-pass faults were cross-checked" >&2
    exit 1
fi
FLH_THREADS=4 cargo run -q --release --offline --bin flh -- \
    analyze s9234 --check-sim > "$bench_tmp/analyze_w4.txt"
if ! diff "$bench_tmp/analyze_w1.txt" "$bench_tmp/analyze_w4.txt"; then
    echo "ANALYZE GATE FAILED: analyze report depends on FLH_THREADS" >&2
    exit 1
fi
echo "verifier clean, prune-consistent, pool-width invariant"

echo "== metrics gate (deterministic counters, FLH_THREADS=1 vs 2, 3, 4) =="
# The flh-obs deterministic section must be byte-identical at any pool
# width: same campaign, several widths, diff the deterministic-metrics
# JSON against width 1. The campaign deals its fault list out in chunks;
# width 3 deals unevenly.
for w in 1 2 3 4; do
    FLH_THREADS=$w cargo run -q --release --offline --bin flh -- \
        campaign s9234 --pairs 192 --seed 7 \
        --metrics-det-json "$bench_tmp/metrics_w$w.json" >/dev/null
done
for w in 2 3 4; do
    if ! diff "$bench_tmp/metrics_w1.json" "$bench_tmp/metrics_w$w.json"; then
        echo "METRICS GATE FAILED: deterministic metrics differ at FLH_THREADS=$w" >&2
        exit 1
    fi
done
echo "identical deterministic metrics at pool widths 1, 2, 3 and 4"

echo "== ATPG gate (flh atpg s1196 + s9234: pinned pattern files, repeatable metrics) =="
# PODEM's decisions are pinned: every decision, backtrack and frontier
# choice shows in the pattern file, whose FNV-1a hash (as
# flh_serve::fnv1a computes it) must stay the recorded value. Two runs
# must also agree on every deterministic counter (podem.backtracks,
# podem.decisions, podem.aborts, replay work, atpg.redundancy.*).
fnv1a() {
    local h=$((0xcbf29ce484222325)) b
    for b in $(od -An -v -tu1 "$1"); do
        h=$(((h ^ b) * 0x100000001b3))
    done
    printf '%016x\n' "$h"
}
for run in 1 2; do
    cargo run -q --release --offline --bin flh -- atpg s1196 \
        --out "$bench_tmp/atpg_$run.txt" \
        --metrics-det-json "$bench_tmp/atpg_metrics_$run.json"
    hash="$(fnv1a "$bench_tmp/atpg_$run.txt")"
    if [ "$hash" != 5f98df5b980b665c ]; then
        echo "ATPG GATE FAILED: s1196 pattern file hash $hash, pinned 5f98df5b980b665c" >&2
        exit 1
    fi
done
if ! diff "$bench_tmp/atpg_metrics_1.json" "$bench_tmp/atpg_metrics_2.json"; then
    echo "ATPG GATE FAILED: deterministic metrics differ between two runs" >&2
    exit 1
fi
# s9234 is where the redundancy pass prunes the most faults (2315): a pass
# that pruned a testable fault would change this file.
cargo run -q --release --offline --bin flh -- atpg s9234 --out "$bench_tmp/atpg_s9234.txt"
hash="$(fnv1a "$bench_tmp/atpg_s9234.txt")"
if [ "$hash" != 6343ac2adb30cb58 ]; then
    echo "ATPG GATE FAILED: s9234 pattern file hash $hash, pinned 6343ac2adb30cb58" >&2
    exit 1
fi
echo "pinned pattern files and identical deterministic metrics on both runs"

echo "== flowbench helper tests =="
# The end-to-end benchmark is a package of its own, outside the workspace;
# its helpers (metric tables vs BENCHMARK.json, statistics, argument
# parsing, the serve mix) are tested here.
cargo test -q --release --offline --manifest-path flowbench/Cargo.toml

echo "== serve smoke (scripted session, cache hit, FLH_THREADS=1 vs 4) =="
# Three jobs — the third an exact duplicate of the first — through the
# line protocol. The duplicate must be served from the compiled-circuit
# cache, and the whole transcript must be byte-identical at both widths.
cat > "$bench_tmp/serve_script.jsonl" <<'EOF'
{"op":"submit","circuit":"s298","pairs":96,"seed":7}
{"op":"submit","circuit":"s420","pairs":96,"seed":7}
{"op":"submit","circuit":"s298","pairs":96,"seed":7}
{"op":"status"}
{"op":"stats"}
{"op":"wait"}
{"op":"stats"}
{"op":"shutdown"}
EOF
FLH_THREADS=1 cargo run -q --release --offline --bin flh -- serve \
    < "$bench_tmp/serve_script.jsonl" > "$bench_tmp/serve_w1.jsonl"
FLH_THREADS=4 cargo run -q --release --offline --bin flh -- serve \
    < "$bench_tmp/serve_script.jsonl" > "$bench_tmp/serve_w4.jsonl"
if ! diff "$bench_tmp/serve_w1.jsonl" "$bench_tmp/serve_w4.jsonl"; then
    echo "SERVE GATE FAILED: protocol transcript depends on FLH_THREADS" >&2
    exit 1
fi
if ! grep -q '"cache":"hit"' "$bench_tmp/serve_w1.jsonl"; then
    echo "SERVE GATE FAILED: duplicate submission missed the compiled-circuit cache" >&2
    exit 1
fi
if ! grep -q '"hits":1' "$bench_tmp/serve_w1.jsonl"; then
    echo "SERVE GATE FAILED: farewell summary does not report one cache hit" >&2
    exit 1
fi
# The campaign jobs must stream per-batch progress events, clock-free by
# default (pairs_per_s/eta_ms appear only under `serve --timings`).
if ! grep -q '"event":"progress"' "$bench_tmp/serve_w1.jsonl"; then
    echo "SERVE GATE FAILED: campaign jobs streamed no progress events" >&2
    exit 1
fi
if grep -q '"pairs_per_s"' "$bench_tmp/serve_w1.jsonl"; then
    echo "SERVE GATE FAILED: default transcript carries wall-clock progress fields" >&2
    exit 1
fi
# The stats verb answered mid-script; its deterministic metrics document
# (ledger, gauges, per-job latency histograms, coverage series) must be
# byte-identical at both widths. The full-transcript diff above covers
# this too — the explicit diff attributes a failure to the stats verb.
if ! grep '"event":"stats"' "$bench_tmp/serve_w1.jsonl" > "$bench_tmp/stats_w1.jsonl"; then
    echo "SERVE GATE FAILED: no stats responses in the transcript" >&2
    exit 1
fi
grep '"event":"stats"' "$bench_tmp/serve_w4.jsonl" > "$bench_tmp/stats_w4.jsonl" || true
if ! diff "$bench_tmp/stats_w1.jsonl" "$bench_tmp/stats_w4.jsonl"; then
    echo "SERVE GATE FAILED: stats document depends on FLH_THREADS" >&2
    exit 1
fi
if ! grep -q 'serve.queue.depth' "$bench_tmp/stats_w1.jsonl" \
    || ! grep -q 'serve.cache.hit_ratio_bp' "$bench_tmp/stats_w1.jsonl" \
    || ! grep -q 'serve.job.bytecode_insts' "$bench_tmp/stats_w1.jsonl"; then
    echo "SERVE GATE FAILED: stats document lacks the queue/cache gauges or latency histograms" >&2
    exit 1
fi
echo "identical serve transcript (incl. stats documents) at both pool widths; duplicate job hit the cache"

echo "== codegen equivalence gate (bytecode vs event-driven reference) =="
# The lowered bytecode must agree with the event-driven simulator on every
# profile x style cell, for the packed kernels and both replay engines.
# The suite already ran inside the workspace pass above; this names it as
# its own gate so a failure is attributed to codegen, not "tests".
cargo test -q --offline -p flh-bench --test codegen_equivalence

echo "== replay superword gate (256-lane vs four 64-lane replays) =="
# The 256-lane production replay must detect exactly what four 64-lane
# replays of the same generic engine detect, on every profile x style,
# and its early exit must stay sound. Named so a failure is attributed
# to the superword rebuild, not "tests".
cargo test -q --offline -p flh-bench --test replay_superword_equivalence

echo "== perf report smoke (--quick, temp outputs, recorder on) =="
# Quick-mode reports go to a temp dir so the committed full-run
# BENCH_*.json files are never clobbered by a smoke run. The recorder is
# on here so check_bench below sees both schema shapes: the committed
# reports carry {"recorded": false}, the quick ones a full section.
cargo run -q --release --offline -p flh-bench --bin perf_report -- --quick \
    --out "$bench_tmp/BENCH_compiled_ir.json" \
    --out-parallel "$bench_tmp/BENCH_parallel_fsim.json" \
    --out-transition "$bench_tmp/BENCH_transition_fsim.json" \
    --metrics-json "$bench_tmp/perf_metrics.json" \
    | tee "$bench_tmp/perf_report.log"
if ! grep -q '^codegen_v2' "$bench_tmp/perf_report.log"; then
    echo "PERF SMOKE FAILED: perf_report printed no codegen_v2 section" >&2
    exit 1
fi
if ! grep -q '"codegen_v2"' "$bench_tmp/BENCH_compiled_ir.json"; then
    echo "PERF SMOKE FAILED: BENCH_compiled_ir.json lacks the codegen_v2 section" >&2
    exit 1
fi
if ! grep -q '"replay_superword"' "$bench_tmp/BENCH_parallel_fsim.json"; then
    echo "PERF SMOKE FAILED: BENCH_parallel_fsim.json lacks the replay_superword section" >&2
    exit 1
fi
if ! grep -q '"replay_superword"' "$bench_tmp/BENCH_transition_fsim.json"; then
    echo "PERF SMOKE FAILED: BENCH_transition_fsim.json lacks the replay_superword section" >&2
    exit 1
fi

echo "== bench report schema (committed + quick outputs) =="
cargo run -q --release --offline -p flh-bench --bin check_bench -- \
    BENCH_*.json "$bench_tmp"/BENCH_*.json

echo "== bench trend gate (committed baselines vs quick run) =="
# Quick mode runs a scaled-down workload on a possibly loaded CI host, so
# the tolerances are generous: this gate catches collapses (superword path
# off, parallel replay gone), not noise. The transition report's headline
# speedup shrinks legitimately under quick's small workload — the naive
# baseline amortizes better — hence its wider tolerance.
cargo run -q --release --offline -p flh-bench --bin check_bench -- \
    --trend BENCH_compiled_ir.json "$bench_tmp/BENCH_compiled_ir.json" --tol 0.5
cargo run -q --release --offline -p flh-bench --bin check_bench -- \
    --trend BENCH_parallel_fsim.json "$bench_tmp/BENCH_parallel_fsim.json" --tol 0.5
cargo run -q --release --offline -p flh-bench --bin check_bench -- \
    --trend BENCH_transition_fsim.json "$bench_tmp/BENCH_transition_fsim.json" --tol 0.8
# Negative check: a synthetically degraded copy must trip the gate, or the
# trend comparison is decorative.
sed -E 's/"([a-z_0-9]*speedup[a-z_0-9]*)": *[0-9.]+/"\1": 0.001/' \
    BENCH_compiled_ir.json > "$bench_tmp/BENCH_degraded.json"
if cargo run -q --release --offline -p flh-bench --bin check_bench -- \
    --trend BENCH_compiled_ir.json "$bench_tmp/BENCH_degraded.json" >/dev/null 2>&1; then
    echo "TREND GATE FAILED: synthetically degraded report passed the trend check" >&2
    exit 1
fi

echo "CI OK"
