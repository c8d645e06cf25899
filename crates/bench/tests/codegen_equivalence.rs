//! Bytecode-vs-reference equivalence for the codegen v2 stack, across the
//! full ISCAS89 profile set and the paper's three DFT styles.
//!
//! The lowered [`Program`] replaced the CSR interpreter in three engines —
//! the scalar/packed logic settles, the stuck-at deviation replay and the
//! transition-fault replay. Each test drives one engine over every
//! `circuit × style` combination and holds it against an implementation
//! that never touches the bytecode:
//!
//! * the packed [`Dual64`] settle against the event-driven [`LogicSim`],
//!   lane by lane, with injected unknowns;
//! * [`StuckSimulator`] batches against the brute-force two-evaluation
//!   [`stuck_detects_reference`];
//! * [`TransitionSimulator`] batches against
//!   [`transition_detects_reference`];
//! * plus structural invariants of every lowered program (fixed-stride
//!   stream, full cell coverage, batch tiling, fusion accounting).

use flh_atpg::{
    enumerate_stuck_faults, enumerate_transition_faults, stuck_detects_reference,
    transition_detects_reference, StuckSimulator, TestView, TransitionSimulator,
};
use flh_bench::build_circuit;
use flh_core::{apply_style, DftStyle};
use flh_netlist::bytecode::INST_WORDS;
use flh_netlist::{
    iscas89_profiles, CompiledCircuit, Dual64, Netlist, Packed256, PatternWord, Program,
};
use flh_rng::Rng;
use flh_sim::{lane_to_logic, logic_to_lane, settle_packed, Logic, LogicSim};

const STYLES: [DftStyle; 3] = [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh];

/// Lanes checked against the scalar reference.
const CHECK_LANES: [u32; 3] = [0, 17, 63];

/// Every k-th element, bounding debug-build runtime while spanning the
/// whole fault-id range.
fn subsample<T: Clone>(items: &[T], max: usize) -> Vec<T> {
    let step = items.len().div_ceil(max).max(1);
    items.iter().step_by(step).cloned().collect()
}

fn random_logic(rng: &mut Rng) -> Logic {
    match rng.gen::<u64>() % 8 {
        0 => Logic::X,
        r if r % 2 == 0 => Logic::Zero,
        _ => Logic::One,
    }
}

fn styled(netlist: &Netlist, style: DftStyle, name: &str) -> Netlist {
    apply_style(netlist, style)
        .unwrap_or_else(|e| panic!("{name} / {style}: style application failed: {e}"))
        .netlist
}

#[test]
fn packed_bytecode_settle_matches_event_driven_on_all_profiles_and_styles() {
    for (pi, profile) in iscas89_profiles().iter().enumerate() {
        let circuit = build_circuit(profile);
        for (si, &style) in STYLES.iter().enumerate() {
            let n = styled(&circuit, style, &profile.name);
            let c = CompiledCircuit::compile(&n)
                .unwrap_or_else(|e| panic!("{} / {style}: compile failed: {e}", profile.name));
            let p = Program::lower(&c);
            let mut rng = Rng::seed_from_u64(0xCE11 + (pi * 8 + si) as u64);

            // One independent stimulus per checked lane of the 64-lane word.
            let mut packed = vec![Dual64::all_x(); c.cell_count()];
            let mut scalars: Vec<Vec<Logic>> = Vec::new();
            for &lane in &CHECK_LANES {
                let mut scalar = vec![Logic::X; c.cell_count()];
                for &src in c.inputs().iter().chain(c.flip_flops()) {
                    let v = random_logic(&mut rng);
                    scalar[src as usize] = v;
                    let d = logic_to_lane(v, lane);
                    packed[src as usize].one |= d.one;
                    packed[src as usize].zero |= d.zero;
                }
                scalars.push(scalar);
            }
            settle_packed(&p, &mut packed);

            for (&lane, scalar) in CHECK_LANES.iter().zip(&scalars) {
                let mut reference = LogicSim::new(&n).expect("acyclic after scan insertion");
                for (i, &pin) in c.inputs().iter().enumerate() {
                    reference.set_input(i, scalar[pin as usize]);
                }
                for (i, &ff) in c.flip_flops().iter().enumerate() {
                    reference.set_ff_by_index(i, scalar[ff as usize]);
                }
                reference.settle();
                for (id, _) in n.iter() {
                    let want = reference.value(id);
                    assert_eq!(
                        lane_to_logic(packed[id.index()], lane),
                        want,
                        "{} / {style}: lane {lane} {id:?}",
                        profile.name
                    );
                }
            }
        }
    }
}

#[test]
fn bytecode_stuck_replay_matches_brute_force_on_all_profiles_and_styles() {
    for (pi, profile) in iscas89_profiles().iter().enumerate() {
        let circuit = build_circuit(profile);
        for (si, &style) in STYLES.iter().enumerate() {
            let n = styled(&circuit, style, &profile.name);
            let faults = subsample(&enumerate_stuck_faults(&n), 24);
            let view = TestView::new(&n).expect("acyclic after scan insertion");
            let mut rng = Rng::seed_from_u64(0x57CC + (pi * 8 + si) as u64);
            let words: Vec<u64> = (0..view.assignable().len()).map(|_| rng.gen()).collect();

            let mut sim = StuckSimulator::new(&view);
            let mut detected = vec![false; faults.len()];
            let wide: Vec<Packed256> = words.iter().map(|&w| Packed256::from_word(w)).collect();
            sim.run_batch(&wide, Packed256::mask_lanes(64), &faults, &mut detected);

            for (f, &got) in faults.iter().zip(&detected) {
                let want = stuck_detects_reference(&view, f, &words, !0) != 0;
                assert_eq!(got, want, "{} / {style}: {f:?}", profile.name);
            }
        }
    }
}

#[test]
fn bytecode_transition_replay_matches_brute_force_on_all_profiles_and_styles() {
    for (pi, profile) in iscas89_profiles().iter().enumerate() {
        let circuit = build_circuit(profile);
        for (si, &style) in STYLES.iter().enumerate() {
            let n = styled(&circuit, style, &profile.name);
            let faults = subsample(&enumerate_transition_faults(&n), 24);
            let view = TestView::new(&n).expect("acyclic after scan insertion");
            let mut rng = Rng::seed_from_u64(0x7247 + (pi * 8 + si) as u64);
            let nv = view.assignable().len();
            let v1_words: Vec<u64> = (0..nv).map(|_| rng.gen()).collect();
            let v2_words: Vec<u64> = (0..nv).map(|_| rng.gen()).collect();

            let mut sim = TransitionSimulator::new(&view);
            let mut detected = vec![false; faults.len()];
            let w1: Vec<Packed256> = v1_words.iter().map(|&w| Packed256::from_word(w)).collect();
            let w2: Vec<Packed256> = v2_words.iter().map(|&w| Packed256::from_word(w)).collect();
            sim.run_batch(&w1, &w2, Packed256::mask_lanes(64), &faults, &mut detected);

            for (f, &got) in faults.iter().zip(&detected) {
                let want = transition_detects_reference(&view, f, &v1_words, &v2_words, !0) != 0;
                assert_eq!(got, want, "{} / {style}: {f:?}", profile.name);
            }
        }
    }
}

#[test]
fn lowered_programs_are_well_formed_on_all_profiles_and_styles() {
    for profile in iscas89_profiles() {
        let circuit = build_circuit(&profile);
        for &style in &STYLES {
            let n = styled(&circuit, style, &profile.name);
            let c = CompiledCircuit::compile(&n)
                .unwrap_or_else(|e| panic!("{} / {style}: compile failed: {e}", profile.name));
            let p = Program::lower(&c);

            assert_eq!(p.cell_words(), c.cell_count());
            assert_eq!(
                p.code_words(),
                p.inst_count() * INST_WORDS,
                "{} / {style}: fixed-stride stream",
                profile.name
            );
            assert!(
                p.micro_ops() >= p.inst_count() as u64,
                "{} / {style}: fusion can only shrink the stream",
                profile.name
            );

            // Every non-source cell owns a chain; sources own none. The
            // chains tile the instruction stream exactly.
            let mut chained = 0usize;
            for id in 0..c.cell_count() as u32 {
                let len = p.chain_len(id);
                if c.level_of(id) == 0 {
                    assert_eq!(len, 0, "{} / {style}: source {id}", profile.name);
                } else {
                    assert!(len >= 1, "{} / {style}: cell {id} unlowered", profile.name);
                }
                chained += len;
            }
            assert_eq!(chained, p.inst_count(), "{} / {style}", profile.name);

            // Batches tile the stream in level-major order.
            let mut covered = 0u32;
            let mut last_level = 0u32;
            for b in p.batches() {
                assert_eq!(b.start, covered, "{} / {style}", profile.name);
                assert!(b.level >= last_level && b.level as usize <= c.levels());
                covered = b.end;
                last_level = b.level;
            }
            assert_eq!(
                covered as usize,
                p.code_words(),
                "{} / {style}",
                profile.name
            );
        }
    }
}
