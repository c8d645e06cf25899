//! # flh — First Level Hold delay-test DFT
//!
//! Facade crate for the reproduction of *"A Novel Low-overhead Delay Testing
//! Technique for Arbitrary Two-Pattern Test Application"* (Bhunia, Mahmoodi,
//! Raychowdhury, Roy — DATE 2005).
//!
//! The paper's contribution — holding the combinational state via supply
//! gating of the first level of logic instead of an enhanced-scan hold
//! latch — lives in [`core`]; the surrounding EDA substrates each have their
//! own crate, re-exported here under a stable path:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`netlist`] | `flh-netlist` | gate-level netlist, `.bench` I/O, generator, mapper |
//! | [`exec`] | `flh-exec` | deterministic scoped thread pool (`FLH_THREADS`) for transition campaigns, the serve session's bounded job queue |
//! | [`tech`] | `flh-tech` | 70 nm device model and transistor-level cell library |
//! | [`sim`] | `flh-sim` | event-driven logic simulation, scan machinery |
//! | [`analog`] | `flh-analog` | transient circuit simulation (Fig. 2 / Fig. 4) |
//! | [`timing`] | `flh-timing` | static timing analysis |
//! | [`power`] | `flh-power` | dynamic + leakage power estimation |
//! | [`core`] | `flh-core` | scan insertion, DFT styles, FLH transform, fanout optimization |
//! | [`atpg`] | `flh-atpg` | fault models, PODEM, transition ATPG, fault simulation |
//! | [`bist`] | `flh-bist` | LFSR/MISR test-per-scan BIST with FLH holding |
//! | [`lint`] | `flh-lint` | static verification: `FLH0xx` diagnostics over netlists and the FLH transform |
//! | [`obs`] | `flh-obs` | deterministic counters, span timing, JSON/Chrome-trace export (`FLH_TRACE`) |
//! | [`serve`] | `flh-serve` | session-oriented `JobEngine`, compiled-circuit cache, `flh serve` protocol |
//!
//! # Quickstart
//!
//! ```
//! use flh::netlist::{iscas89_profile, generate_circuit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let profile = iscas89_profile("s298").ok_or("unknown circuit")?;
//! let circuit = generate_circuit(&profile.generator_config())?;
//! assert_eq!(circuit.flip_flops().len(), 14);
//! # Ok(())
//! # }
//! ```

pub use flh_analog as analog;
pub use flh_atpg as atpg;
pub use flh_bist as bist;
pub use flh_core as core;
pub use flh_exec as exec;
pub use flh_lint as lint;
pub use flh_netlist as netlist;
pub use flh_obs as obs;
pub use flh_power as power;
pub use flh_rng as rng;
pub use flh_serve as serve;
pub use flh_sim as sim;
pub use flh_tech as tech;
pub use flh_timing as timing;
