//! Rendered sweep reports, pinned across commits.
//!
//! The other report tests compare a sweep against itself (across
//! `--jobs`, across reruns). This one compares it against a recording:
//! each of the four named sweeps at seed 42, rendered exactly as
//! `ab_scenario render --sweep <name> --seed 42 --jobs 1` prints it, must
//! hash to the FNV-1a digest recorded below. A refactor that moves one
//! byte of any report fails here.
//!
//! A change that alters a report on purpose re-records the digest (the
//! `render` command's output piped through any FNV-1a 64 tool) and lists
//! the changed fields in CHANGES.md.

use ab_scenario::sweep::{run_sweep, SweepSpec};

/// `(sweep, FNV-1a 64 of its pretty-rendered report at seed 42)`.
const PINNED: [(&str, u64); 4] = [
    ("default", 0x2bd9_d96a_c029_61a9),
    ("chaos", 0xec25_92c9_2078_049b),
    ("lossy", 0xfdc0_6440_75a7_bc29),
    ("adversarial", 0x9f52_6a25_2c94_06b2),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_named_sweep_renders_its_pinned_bytes() {
    for (name, pinned) in PINNED {
        let spec = match name {
            "default" => SweepSpec::default_sweep(42),
            "chaos" => SweepSpec::chaos_sweep(42),
            "lossy" => SweepSpec::lossy_sweep(42),
            _ => SweepSpec::adversarial_sweep(42),
        };
        let doc = run_sweep(&spec).to_json().render_pretty();
        let digest = fnv1a(doc.as_bytes());
        assert_eq!(
            digest,
            pinned,
            "{name} sweep report changed: FNV-1a {digest:#018x}, pinned {pinned:#018x} \
             ({} bytes)",
            doc.len()
        );
    }
}
