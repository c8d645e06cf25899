//! Simulation-based fault diagnosis (effect–cause candidate ranking).
//!
//! The paper motivates scan-based structural delay testing because it
//! "not only helps detection but also diagnosis of delay faults". This
//! module provides the classic cause–effect dictionaryless diagnosis for
//! the stuck-at model: given the tester's observed responses to a pattern
//! set, every candidate fault is simulated and scored by how exactly its
//! predicted responses match the observation, failing patterns and passing
//! patterns alike.

use crate::fault::Fault;
use crate::fsim::stuck_coverage;
use crate::tview::TestView;

/// One scored diagnosis candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnosisCandidate {
    /// The candidate fault.
    pub fault: Fault,
    /// Patterns whose full observed response the candidate predicts
    /// exactly.
    pub matching_patterns: usize,
    /// Failing patterns (observed ≠ golden) the candidate explains.
    pub explained_failures: usize,
    /// Failing patterns the candidate predicts but the tester did not see
    /// (mispredictions — perfect candidates have zero).
    pub mispredicted_failures: usize,
}

impl DiagnosisCandidate {
    /// True when the candidate reproduces the observation bit-exactly on
    /// every pattern.
    pub fn is_perfect(&self, total_patterns: usize) -> bool {
        self.matching_patterns == total_patterns
    }
}

/// Golden (fault-free) responses for a pattern set, one observation vector
/// per pattern, in [`TestView::observations`] order.
pub fn golden_responses(view: &TestView<'_>, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
    responses(view, None, patterns)
}

/// Responses of the circuit with `fault` injected.
pub fn faulty_responses(
    view: &TestView<'_>,
    fault: &Fault,
    patterns: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    responses(view, Some(fault), patterns)
}

/// Responses with `fault` injected, if any: 64 patterns per
/// [`TestView::eval64`] call, pattern `k` of each chunk in lane `k`.
///
/// # Panics
///
/// Panics if a pattern's length differs from the assignable count.
fn responses(view: &TestView<'_>, fault: Option<&Fault>, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let mut words = vec![0u64; view.assignable().len()];
    let mut out = Vec::with_capacity(patterns.len());
    for chunk in patterns.chunks(64) {
        words.fill(0);
        for (lane, p) in chunk.iter().enumerate() {
            assert_eq!(p.len(), words.len(), "pattern length mismatch");
            for (w, &b) in words.iter_mut().zip(p) {
                *w |= u64::from(b) << lane;
            }
        }
        let observed = view.observe64(&view.eval64(&words, fault));
        out.extend(
            (0..chunk.len()).map(|lane| observed.iter().map(|&w| w >> lane & 1 == 1).collect()),
        );
    }
    out
}

/// Ranks every candidate in `faults` against the observed responses.
///
/// Candidates are returned sorted best-first: by exact-match count, then by
/// explained failures, then by fewest mispredictions. A cheap
/// pre-screening pass (parallel-pattern fault simulation over the *failing*
/// patterns only) drops candidates that cannot explain any failure before
/// the expensive per-pattern comparison.
pub fn diagnose(
    view: &TestView<'_>,
    faults: &[Fault],
    patterns: &[Vec<bool>],
    observed: &[Vec<bool>],
) -> Vec<DiagnosisCandidate> {
    assert_eq!(patterns.len(), observed.len(), "one response per pattern");
    let golden = golden_responses(view, patterns);
    let failing: Vec<usize> = (0..patterns.len())
        .filter(|&i| golden[i] != observed[i])
        .collect();

    // Pre-screen: a real candidate must be *detected* by at least one
    // failing pattern.
    let screened: Vec<&Fault> = if failing.is_empty() {
        faults.iter().collect()
    } else {
        let failing_patterns: Vec<Vec<bool>> =
            failing.iter().map(|&i| patterns[i].clone()).collect();
        let detected = stuck_coverage(view, faults, &failing_patterns);
        faults
            .iter()
            .zip(&detected)
            .filter(|(_, &d)| d)
            .map(|(f, _)| f)
            .collect()
    };

    let mut candidates: Vec<DiagnosisCandidate> = screened
        .into_iter()
        .map(|fault| {
            let predicted = faulty_responses(view, fault, patterns);
            let mut matching = 0;
            let mut explained = 0;
            let mut mispredicted = 0;
            for i in 0..patterns.len() {
                let fails_pred = predicted[i] != golden[i];
                let fails_obs = golden[i] != observed[i];
                if predicted[i] == observed[i] {
                    matching += 1;
                    if fails_obs {
                        explained += 1;
                    }
                } else if fails_pred && !fails_obs {
                    mispredicted += 1;
                }
            }
            DiagnosisCandidate {
                fault: *fault,
                matching_patterns: matching,
                explained_failures: explained,
                mispredicted_failures: mispredicted,
            }
        })
        .collect();
    candidates.sort_by(|a, b| {
        b.matching_patterns
            .cmp(&a.matching_patterns)
            .then(b.explained_failures.cmp(&a.explained_failures))
            .then(a.mispredicted_failures.cmp(&b.mispredicted_failures))
    });
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{enumerate_stuck_faults, StuckValue};
    use flh_netlist::{generate_circuit, GeneratorConfig, Netlist};
    use flh_rng::Rng;

    fn circuit() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "diag".into(),
            primary_inputs: 6,
            primary_outputs: 5,
            flip_flops: 8,
            gates: 70,
            logic_depth: 7,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 515,
        })
        .unwrap()
    }

    fn random_patterns(view: &TestView<'_>, count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..view.assignable().len()).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn injected_fault_ranks_first() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let patterns = random_patterns(&view, 200, 1);
        // Pick a fault that the pattern set actually detects.
        let detected = crate::fsim::stuck_coverage(&view, &faults, &patterns);
        let culprit = faults
            .iter()
            .zip(&detected)
            .find(|(_, &d)| d)
            .map(|(f, _)| *f)
            .expect("some detectable fault");
        let observed = faulty_responses(&view, &culprit, &patterns);
        let ranking = diagnose(&view, &faults, &patterns, &observed);
        assert!(!ranking.is_empty());
        let top = &ranking[0];
        assert!(top.is_perfect(patterns.len()));
        // The true culprit must be among the perfect candidates (it may
        // share the top with logically equivalent faults).
        let perfect: Vec<_> = ranking
            .iter()
            .take_while(|c| c.is_perfect(patterns.len()))
            .collect();
        assert!(
            perfect.iter().any(|c| c.fault == culprit),
            "culprit {culprit:?} not among {} perfect candidates",
            perfect.len()
        );
        // Diagnosis resolution: the equivalence class should be small.
        assert!(
            perfect.len() <= 8,
            "poor resolution: {} perfect candidates",
            perfect.len()
        );
    }

    #[test]
    fn clean_observation_yields_no_explained_failures() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let patterns = random_patterns(&view, 50, 2);
        let observed = golden_responses(&view, &patterns);
        let ranking = diagnose(&view, &faults, &patterns, &observed);
        for c in &ranking {
            assert_eq!(c.explained_failures, 0);
        }
    }

    #[test]
    fn prescreen_drops_unrelated_faults() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let patterns = random_patterns(&view, 200, 3);
        let detected = crate::fsim::stuck_coverage(&view, &faults, &patterns);
        let culprit = faults
            .iter()
            .zip(&detected)
            .find(|(_, &d)| d)
            .map(|(f, _)| *f)
            .unwrap();
        let observed = faulty_responses(&view, &culprit, &patterns);
        let ranking = diagnose(&view, &faults, &patterns, &observed);
        // The screen drops faults no failing pattern detects; the survivors
        // are a strict subset, and the best of them explains failures.
        assert!(ranking.len() < faults.len());
        assert!(ranking[0].explained_failures > 0);
    }

    #[test]
    fn two_distinguishable_faults_do_not_tie() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let patterns = random_patterns(&view, 300, 4);
        let detected = crate::fsim::stuck_coverage(&view, &faults, &patterns);
        let mut detectable = faults
            .iter()
            .zip(&detected)
            .filter(|(_, &d)| d)
            .map(|(f, _)| *f);
        let fault_a = detectable.next().unwrap();
        let fault_b = detectable
            .find(|f| {
                faulty_responses(&view, f, &patterns)
                    != faulty_responses(&view, &fault_a, &patterns)
            })
            .expect("a distinguishable second fault");
        let observed = faulty_responses(&view, &fault_a, &patterns);
        let ranking = diagnose(&view, &faults, &patterns, &observed);
        let score = |f: &Fault| {
            ranking
                .iter()
                .find(|c| c.fault == *f)
                .map(|c| c.matching_patterns)
        };
        let sa = score(&fault_a).expect("culprit ranked");
        if let Some(sb) = score(&fault_b) {
            assert!(sa > sb, "culprit {sa} should outscore bystander {sb}");
        }
    }

    #[test]
    fn stuck_value_duals_are_distinguished() {
        // s-a-0 and s-a-1 at the same site can never both be perfect.
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let patterns = random_patterns(&view, 200, 5);
        let detected = crate::fsim::stuck_coverage(&view, &faults, &patterns);
        let culprit = faults
            .iter()
            .zip(&detected)
            .find(|(f, &d)| d && f.stuck == StuckValue::Zero)
            .map(|(f, _)| *f)
            .unwrap();
        let dual = Fault {
            stuck: StuckValue::One,
            ..culprit
        };
        let observed = faulty_responses(&view, &culprit, &patterns);
        let ranking = diagnose(&view, &faults, &patterns, &observed);
        let perfect: Vec<_> = ranking
            .iter()
            .take_while(|c| c.is_perfect(patterns.len()))
            .map(|c| c.fault)
            .collect();
        assert!(perfect.contains(&culprit));
        assert!(!perfect.contains(&dual));
    }
}
