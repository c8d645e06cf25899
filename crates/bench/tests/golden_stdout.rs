//! Paper results under golden: each paper binary of this package, run
//! from the test's own build, prints `tests/golden/<binary>.txt` byte for
//! byte. The binaries inherit `FLH_THREADS`, so a test run at two pool
//! widths checks both. `bist_coverage` (several seconds at the dev
//! profile) and `variation_robustness` are left to `scripts/ci.sh`, whose
//! golden gates diff the release builds.

use std::path::Path;
use std::process::Command;

/// `(name, path cargo built it at)` for each binary named.
macro_rules! binaries {
    ($($name:ident),* $(,)?) => {
        [$((stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))))),*]
    };
}

const BINARIES: [(&str, &str); 13] = binaries![
    ablation_sizing,
    coverage_invariance,
    coverage_styles,
    fig2_floating_decay,
    fig4_flh_hold,
    lowpower_fill,
    path_delay_critical,
    table1_area,
    table2_delay,
    table3_power,
    table4_fanout_opt,
    test_time,
    testmode_power,
];

/// The first line where `got` and `want` differ, 1-based, with both sides.
fn first_difference(got: &str, want: &str) -> String {
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (None, None) => break,
            (g, w) if g != w => {
                return format!("line {line}: printed {g:?}, golden {w:?}");
            }
            _ => {}
        }
    }
    "line endings differ".into()
}

#[test]
fn paper_binaries_print_their_golden_stdout() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut differences = Vec::new();
    for (name, exe) in BINARIES {
        let out = Command::new(exe)
            .output()
            .unwrap_or_else(|e| panic!("{name} did not start: {e}"));
        assert!(
            out.status.success(),
            "{name} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let path = golden.join(format!("{name}.txt"));
        let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if out.stdout != want {
            let got = String::from_utf8_lossy(&out.stdout);
            let want = String::from_utf8_lossy(&want);
            differences.push(format!("{name}: {}", first_difference(&got, &want)));
        }
    }
    assert!(
        differences.is_empty(),
        "stdout differs from tests/golden:\n{}",
        differences.join("\n")
    );
}
