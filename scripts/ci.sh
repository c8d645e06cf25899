#!/usr/bin/env bash
# Offline CI gate: build, test (twice, at two pool widths), format check,
# golden deterministic counts and a short end-to-end benchmark run. No
# network access is required — the workspace has no external crate
# dependencies (see flh-rng for the in-tree PRNG).
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

echo "== clippy (guarded: no warnings on the opted-in crates) =="
# The [workspace.lints] deny set (clippy::unwrap_used, dbg_macro, todo;
# rustc unused_must_use) applies to the crates with `[lints] workspace =
# true`, and every other warning fails the step too. Clippy ships with the
# toolchain here, but minimal toolchains may lack it — skip with a notice
# rather than fail the whole gate.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline -p flh-netlist -p flh-sim -p flh-lint -p flh-serve \
        -p flh-atpg -p flh-exec -p flh-obs --all-targets -- -D warnings
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
# and transition fault simulation on the largest mid-size profile.
# `analyze` simulates on the serial pool whatever FLH_THREADS says, so the
# FLH_THREADS=4 rerun below checks that the report, redundancy column
# included, is byte-identical from one run to the next, not across widths.
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
# `--check-sim` is the golden flow for stuck-at fault simulation: its
# deterministic counters (fsim.stuck.*, fsim.transition.*, replay work,
# drops) must reproduce tests/golden/analyze_s1196.det.json byte for byte
# on every run of the loop (the serial path reads no width; the region
# deal's width invariance is the metrics gate's and the tier-1 tests').
for w in 1 2 3 4; do
    FLH_THREADS=$w cargo run -q --release --offline --bin flh -- \
        analyze s1196 --check-sim \
        --metrics-det-json "$bench_tmp/analyze_metrics_w$w.json" >/dev/null
    if ! diff tests/golden/analyze_s1196.det.json "$bench_tmp/analyze_metrics_w$w.json"; then
        echo "ANALYZE GATE FAILED: deterministic metrics at FLH_THREADS=$w differ from the golden" >&2
        exit 1
    fi
done
echo "verifier clean, prune-consistent, pool-width invariant, golden stuck-at counts"

echo "== metrics gate (deterministic counters vs golden, FLH_THREADS=1, 2, 3, 4) =="
# The flh-obs deterministic section is a golden: the same campaign at
# several widths must reproduce tests/golden/campaign_s9234.det.json byte
# for byte (the tier-1 test in tests/cli.rs checks widths 1 and 2). Any
# algorithmic change moves a count, so there is no tolerance: superword
# replay off moves replay.lanes_per_call and replay.superword_calls, early
# exit off moves replay.events and replay.early_exits. The campaign deals
# its fault list out in chunks of whole fanout-free regions, so each stem
# replay happens on one shard; width 3 deals unevenly.
for w in 1 2 3 4; do
    FLH_THREADS=$w cargo run -q --release --offline --bin flh -- \
        campaign s9234 --pairs 192 --seed 7 \
        --metrics-det-json "$bench_tmp/metrics_w$w.json" >/dev/null
    if ! diff tests/golden/campaign_s9234.det.json "$bench_tmp/metrics_w$w.json"; then
        echo "METRICS GATE FAILED: deterministic metrics at FLH_THREADS=$w differ from the golden" >&2
        exit 1
    fi
done
echo "golden deterministic metrics at pool widths 1, 2, 3 and 4"

echo "== ATPG gate (flh atpg s1196, s9234, s13207: pinned pattern files, golden metrics, PODEM steps) =="
# PODEM's decisions are pinned: every decision, backtrack and frontier
# choice shows in the pattern file, whose FNV-1a hash (as
# flh_serve::fnv1a computes it) must stay the recorded value. Each run
# must also reproduce every deterministic counter of
# tests/golden/atpg_s1196.det.json (podem.backtracks, podem.decisions,
# podem.aborts, the SAT checks' atpg.sat.*, replay work,
# atpg.redundancy.*): the redundancy pass off moves podem.* and
# atpg.redundancy.*, the SAT check off moves podem.* and atpg.sat.*. The
# run repeats at every pool width.
fnv1a() {
    local h=$((0xcbf29ce484222325)) b
    for b in $(od -An -v -tu1 "$1"); do
        h=$(((h ^ b) * 0x100000001b3))
    done
    printf '%016x\n' "$h"
}
for run in 1 2 3 4; do
    FLH_THREADS=$run cargo run -q --release --offline --bin flh -- atpg s1196 \
        --out "$bench_tmp/atpg_$run.txt" \
        --metrics-det-json "$bench_tmp/atpg_metrics_$run.json"
    hash="$(fnv1a "$bench_tmp/atpg_$run.txt")"
    if [ "$hash" != 5f98df5b980b665c ]; then
        echo "ATPG GATE FAILED: s1196 pattern file hash $hash, pinned 5f98df5b980b665c" >&2
        exit 1
    fi
    if ! diff tests/golden/atpg_s1196.det.json "$bench_tmp/atpg_metrics_$run.json"; then
        echo "ATPG GATE FAILED: deterministic metrics at FLH_THREADS=$run differ from the golden" >&2
        exit 1
    fi
done
# The two large circuits: s9234 is where the redundancy pass prunes the
# most faults (2315), so a pass that pruned a testable fault would change
# its file. A pattern hash alone does not prove that PODEM took the same
# steps to reach the same cubes, so each run must also report the pinned
# podem.aborts, .backtracks and .decisions, and the SAT checks' calls,
# unsatisfiable verdicts and conflicts.
for pin in s9234:6343ac2adb30cb58:1441:467416:609015:278:225:362 \
    s13207:298ad92551cb8882:1255:404038:597753:389:187:685; do
    IFS=: read -r circuit pinned aborts backtracks decisions calls unsat conflicts <<<"$pin"
    cargo run -q --release --offline --bin flh -- atpg "$circuit" \
        --out "$bench_tmp/atpg_$circuit.txt" \
        --metrics-det-json "$bench_tmp/atpg_metrics_$circuit.json"
    hash="$(fnv1a "$bench_tmp/atpg_$circuit.txt")"
    if [ "$hash" != "$pinned" ]; then
        echo "ATPG GATE FAILED: $circuit pattern file hash $hash, pinned $pinned" >&2
        exit 1
    fi
    for count in "podem.aborts\":$aborts," "podem.backtracks\":$backtracks," \
        "podem.decisions\":$decisions," "atpg.sat.calls\":$calls," \
        "atpg.sat.unsat\":$unsat}" "atpg.sat.conflicts\":$conflicts,"; do
        if ! grep -qF "\"$count" "$bench_tmp/atpg_metrics_$circuit.json"; then
            echo "ATPG GATE FAILED: $circuit deterministic metrics lack \"$count" >&2
            exit 1
        fi
    done
done
# Re-simulating the pinned file with `flh fsim` (the serial pattern-list
# path, which reads no pool width) must reproduce the coverage `flh atpg
# s9234` reports, on each of the two runs.
for w in 1 4; do
    fsim="$(FLH_THREADS=$w cargo run -q --release --offline --bin flh -- \
        fsim s9234 "$bench_tmp/atpg_s9234.txt")"
    if [ "$fsim" != "872 pattern pairs detect 7706/11688 transition faults (65.93%)" ]; then
        echo "ATPG GATE FAILED: flh fsim s9234 at FLH_THREADS=$w printed: $fsim" >&2
        exit 1
    fi
done
echo "pinned pattern files and PODEM steps, golden deterministic metrics on s1196 at widths 1-4, s9234 re-simulated at widths 1 and 4"

echo "== PODEM callers gate (broadside, path-delay and fill binaries vs golden stdout, FLH_THREADS=1 and 2) =="
# Every other PODEM flow reaches the search through generate_with_goals,
# justify_all or justify: E8's broadside ceilings (coverage_styles), the
# path-delay tests (path_delay_critical), the per-style ATPG comparison
# (coverage_invariance) and the fill study (lowpower_fill). Their stdout
# is pinned, so a change to the search that moved any cube shows here.
cargo build -q --release --offline -p flh-bench
for bin in coverage_styles path_delay_critical coverage_invariance lowpower_fill; do
    for w in 1 2; do
        FLH_THREADS=$w "./target/release/$bin" > "$bench_tmp/$bin.w$w.txt"
        if ! diff "tests/golden/$bin.txt" "$bench_tmp/$bin.w$w.txt"; then
            echo "PODEM CALLERS GATE FAILED: $bin at FLH_THREADS=$w differs from tests/golden/$bin.txt" >&2
            exit 1
        fi
    done
done
echo "golden stdout of the four PODEM-calling binaries at widths 1 and 2"

echo "== paper binaries gate (tables, figures and studies vs golden stdout, FLH_THREADS=1 and 2) =="
# The binaries behind EXPERIMENTS.md's area, delay, power, fanout, test
# time, test-mode power, BIST, sizing and analog figures (E1-E6, E9-E11,
# E13-E15). Their stdout is pinned, so a change that moves a paper number
# shows here and re-pins its golden. variation_robustness is left out: it
# takes about 96 s (ROADMAP item 4).
for bin in table1_area table2_delay table3_power table4_fanout_opt test_time \
    testmode_power bist_coverage ablation_sizing fig2_floating_decay fig4_flh_hold; do
    for w in 1 2; do
        FLH_THREADS=$w "./target/release/$bin" > "$bench_tmp/$bin.w$w.txt"
        if ! diff "tests/golden/$bin.txt" "$bench_tmp/$bin.w$w.txt"; then
            echo "PAPER BINARIES GATE FAILED: $bin at FLH_THREADS=$w differs from tests/golden/$bin.txt" >&2
            exit 1
        fi
    done
done
echo "golden stdout of the ten paper binaries at widths 1 and 2"

echo "== flowbench helper tests =="
# The end-to-end benchmark is a package of its own, outside the workspace;
# its helpers (metric tables vs BENCHMARK.json, statistics, argument
# parsing, the serve mix) are tested here.
cargo test -q --release --offline --manifest-path flowbench/Cargo.toml

echo "== flowbench collapse gate (atpg, campaign: wall_s within 2x of the reference) =="
# A short end-to-end run of the two flows the paper's Section IV rests on
# (flowbench/README.md). The references are the slowest of at least five
# such runs on a 2-vCPU x86-64 host whose speed drifts about 2x between
# phases, and the bound is 2x of them: the gate catches a flow that
# collapses, not noise. The golden metrics above gate the counts exactly.
flowbench_reference_s=(atpg:0.165 campaign:0.509)

# Checks one flowbench result line: correct, no failed operation, and
# wall_s at most twice the reference. Says why and returns 1 otherwise.
flowbench_check() {
    local workload="$1" line="$2" reference="$3" wall
    if [[ "$line" != *'"correct":true,'* || "$line" != *'"failed":0,'* ]]; then
        echo "FLOWBENCH GATE FAILED: $workload result is not correct or has failed operations: $line" >&2
        return 1
    fi
    wall="$(sed -nE 's/.*"wall_s":\{"value":([0-9.eE+-]+),.*/\1/p' <<<"$line")"
    if [[ -z "$wall" ]]; then
        echo "FLOWBENCH GATE FAILED: $workload result has no wall_s: $line" >&2
        return 1
    fi
    if ! awk -v w="$wall" -v r="$reference" 'BEGIN { exit !(w <= 2 * r) }'; then
        echo "FLOWBENCH GATE FAILED: $workload wall_s ${wall}s exceeds 2x the ${reference}s reference" >&2
        return 1
    fi
    echo "$workload: wall_s ${wall}s, reference ${reference}s, bound 2x"
}

for entry in "${flowbench_reference_s[@]}"; do
    workload="${entry%%:*}"
    reference="${entry#*:}"
    if ! cargo run -q --release --offline --manifest-path flowbench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 5 --trace 0 \
        > "$bench_tmp/flowbench_$workload.txt"; then
        echo "FLOWBENCH GATE FAILED: the $workload run exited non-zero" >&2
        tail -n 1 "$bench_tmp/flowbench_$workload.txt" >&2
        exit 1
    fi
    line="$(tail -n 1 "$bench_tmp/flowbench_$workload.txt")"
    flowbench_check "$workload" "$line" "$reference" || exit 1
    # Negative check: the same line with wall_s at 10x the reference must
    # trip the bound, or the gate is decorative.
    slow="$(awk -v r="$reference" 'BEGIN { print 10 * r }')"
    degraded="$(sed -E "s/(\"wall_s\":\\{\"value\":)[0-9.eE+-]+/\\1$slow/" <<<"$line")"
    if flowbench_check "$workload" "$degraded" "$reference" >/dev/null 2>"$bench_tmp/negative.txt" \
        || ! grep -q 'exceeds 2x' "$bench_tmp/negative.txt"; then
        echo "FLOWBENCH GATE FAILED: a $workload result at 10x the reference did not trip the bound" >&2
        exit 1
    fi
done

echo "== serve smoke (scripted session vs golden transcript, FLH_THREADS=1 and 4) =="
# Three jobs — the third an exact duplicate of the first — through the
# line protocol (tests/golden/serve_smoke.requests.jsonl). The duplicate
# must be served from the compiled-circuit cache, and the whole transcript,
# the metrics inside its done and stats replies included, must equal
# tests/golden/serve_smoke.jsonl byte for byte at both widths.
for w in 1 4; do
    FLH_THREADS=$w cargo run -q --release --offline --bin flh -- serve \
        < tests/golden/serve_smoke.requests.jsonl > "$bench_tmp/serve_w$w.jsonl"
    if ! diff tests/golden/serve_smoke.jsonl "$bench_tmp/serve_w$w.jsonl"; then
        echo "SERVE GATE FAILED: protocol transcript at FLH_THREADS=$w differs from the golden" >&2
        exit 1
    fi
done
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
echo "golden serve transcript (incl. stats documents) at both pool widths; duplicate job hit the cache"

echo "== serve memory gate (a 10^8-pair campaign under a 4 GB address-space limit) =="
# A campaign's shards stream their pair blocks, so memory does not grow
# with the pair count. A job of 10^8 pairs on s13207 once built its whole
# pair stream up front and aborted the process ("memory allocation ...
# failed", exit 134) within seconds; it must now still be running when the
# timeout ends the session (exit 124). The release binary runs directly,
# so the limit applies to flh alone.
huge_status=0
(
    ulimit -v 4000000
    printf '%s\n' \
        '{"op":"submit","circuit":"s13207","pairs":100000000,"seed":7}' \
        '{"op":"wait"}' '{"op":"shutdown"}' \
        | timeout 15 ./target/release/flh serve >"$bench_tmp/huge.jsonl" 2>"$bench_tmp/huge.err"
) || huge_status=$?
if [ "$huge_status" -ne 124 ]; then
    echo "SERVE MEMORY GATE FAILED: the session exited $huge_status before the timeout" >&2
    cat "$bench_tmp/huge.err" >&2
    exit 1
fi
if ! grep -q '"event":"started"' "$bench_tmp/huge.jsonl" \
    || grep -q 'memory allocation' "$bench_tmp/huge.err"; then
    echo "SERVE MEMORY GATE FAILED: the job never started, or an allocation failed" >&2
    exit 1
fi
echo "the 10^8-pair job ran until the timeout within the address-space limit"

echo "== codegen equivalence gate (bytecode vs event-driven reference) =="
# The lowered bytecode must agree with the event-driven simulator on every
# profile x style cell, for the packed kernels and both replay engines.
# The suite already ran inside the workspace pass above; this names it as
# its own gate so a failure is attributed to codegen, not "tests".
cargo test -q --offline -p flh-bench --test codegen_equivalence

echo "== replay superword gate (256-lane replay vs the reference oracles) =="
# The 256-lane production replay must detect exactly what the from-scratch
# reference oracles detect, on every profile x style, and its early exit
# must stay sound. Named so a failure is attributed to the superword
# replay, not "tests".
cargo test -q --offline -p flh-bench --test replay_superword_equivalence

echo "CI OK"
