#!/usr/bin/env bash
# Determinism lint.
#
# The campaign engine (flh-exec) and the fault tools (flh-atpg) promise
# bit-identical results at any FLH_THREADS width, and `scripts/ci.sh`
# diffs test logs across pool widths to hold them to it. Iterating a std
# HashMap/HashSet is the classic way to silently break that promise: the
# iteration order varies per process (RandomState), so any result built by
# walking one is nondeterministic.
#
# This pass greps those crates for hash-collection uses. Every use must
# carry a `det-ok:` justification — on the same line or the line above —
# stating why iteration order cannot leak into results (e.g. the set is
# only probed for membership, or the map is only indexed by key).
#
#     // det-ok: membership test only; the set is never iterated.
#     let mut seen = std::collections::HashSet::new();
#
# Order-preserving alternatives (BTreeMap/BTreeSet, dense Vec indexed by
# CellId) need no annotation.
set -euo pipefail
cd "$(dirname "$0")/.."

# Whole determinism-critical crates — flh-power, flh-core and flh-timing
# produce the Table I-III numbers and every serve evaluate result — plus
# the result-bearing files of flh-netlist, whose other modules keep
# HashMap name indexes.
TARGETS=(
    crates/exec/src crates/atpg/src crates/obs/src crates/sim/src
    crates/lint/src crates/serve/src crates/bist/src
    crates/power/src crates/core/src crates/timing/src
    crates/netlist/src/bytecode.rs
    crates/netlist/src/static_analysis.rs
    src/bin
)

# A target that no longer exists would silently shrink the scan (grep's
# "No such file" is swallowed below), so a stale entry fails the lint.
for target in "${TARGETS[@]}"; do
    if [[ ! -e "$target" ]]; then
        echo "determinism lint: target $target does not exist" >&2
        exit 1
    fi
done

# The span layer is the *declared* wall-clock side of flh-obs — every
# number it produces lands in the nondeterministic metrics section by
# construction, so clock reads there need no per-line justification.
TIME_EXEMPT=(
    crates/obs/src/span.rs
)

is_time_exempt() {
    local file="$1"
    for exempt in "${TIME_EXEMPT[@]}"; do
        [[ "$file" == "$exempt" ]] && return 0
    done
    return 1
}

# Scan one pattern over the targets, requiring a `$tag:` justification on
# the hit line or the line above.
scan() {
    local pattern="$1" tag="$2" what="$3"
    local found=0
    for dir in "${TARGETS[@]}"; do
        while IFS= read -r hit; do
            file="${hit%%:*}"
            rest="${hit#*:}"
            line="${rest%%:*}"
            text="${rest#*:}"
            if [[ "$tag" == "time-ok" ]] && is_time_exempt "$file"; then
                continue
            fi
            prev=""
            if (( line > 1 )); then
                prev="$(sed -n "$((line - 1))p" "$file")"
            fi
            if [[ "$text" == *"$tag:"* || "$prev" == *"$tag:"* ]]; then
                continue
            fi
            echo "determinism lint: $file:$line: unannotated $what in a determinism-critical crate" >&2
            echo "    $text" >&2
            found=1
        done < <(grep -rn --include='*.rs' -E "$pattern" "$dir" || true)
    done
    return "$found"
}

fail=0
scan 'Hash(Map|Set)' 'det-ok' 'hash collection' || fail=1
# Clock reads are the other classic determinism leak: any `Instant` /
# `SystemTime` outside the span layer must justify — with a `time-ok:`
# comment — why the measured duration can only reach the nondeterministic
# metrics section, never a result.
scan 'std::time|\bInstant\b|\bSystemTime\b' 'time-ok' 'clock read' || fail=1

if (( fail )); then
    cat >&2 <<'EOF'
Hash collections have per-process iteration order, and clock reads vary
per run. Either switch to a deterministic alternative (BTreeMap/BTreeSet,
dense Vec; counters instead of durations) or add a `det-ok:` / `time-ok:`
comment on the use (or the line above) justifying why it cannot reach any
deterministic result.
EOF
    exit 1
fi
echo "determinism lint OK"
