//! Pins the circuits the synthetic ISCAS89-profile generator builds. Every
//! benchmark number in the repository starts from these netlists, so any
//! change to the generator's random draws or wiring order shows up here as
//! a different hash of the `.bench` text, even when the profile statistics
//! happen to stay the same.

use flh::netlist::bench_io::write_bench;
use flh::netlist::{generate_circuit, iscas89_profiles};
use flh::serve::fnv1a;

#[test]
fn every_profile_generates_a_pinned_netlist() {
    let expected = [
        ("s298", "2ac1f94a48843542"),
        ("s344", "1ec9b89d918c0856"),
        ("s420", "4eb2db3f4b3ffa77"),
        ("s526", "ef21ecad0f0fa93b"),
        ("s641", "c7ba69a57118f6c3"),
        ("s838", "d054222ce1b7e9e2"),
        ("s1196", "dba34e86ddaff001"),
        ("s1423", "709e9a95562ac9f5"),
        ("s5378", "d37708552d5c8f47"),
        ("s9234", "0b263e77db5bcfda"),
        ("s13207", "28dbeb2f20d81b19"),
    ];
    let hashes: Vec<(String, String)> = iscas89_profiles()
        .iter()
        .map(|profile| {
            let netlist = generate_circuit(&profile.generator_config()).expect("generates");
            let hash = fnv1a(write_bench(&netlist).as_bytes());
            (profile.name.to_string(), format!("{hash:016x}"))
        })
        .collect();
    let expected: Vec<(String, String)> = expected
        .iter()
        .map(|&(name, hash)| (name.to_string(), hash.to_string()))
        .collect();
    assert_eq!(hashes, expected);
}
