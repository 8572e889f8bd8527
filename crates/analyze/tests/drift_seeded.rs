//! Seeded-drift integration test: prove the S01/S02 pipeline catches an
//! unserialized field end to end, and that the prescribed remediation
//! (bump `SCHEMA_VERSION`, `--fix-fingerprint`, serialize the field)
//! actually settles the gate.

mod common;

use common::{temp_tree, write};
use melreq_analyze::{analyze, FingerprintStatus};

const MODEL_COVERED: &str = r#"pub struct Bank {
    ready_at: u64,
    row: u64,
}

impl Bank {
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.ready_at);
        out.push(self.row);
    }

    pub fn load_state(&mut self, src: &[u64]) {
        self.ready_at = src[0];
        self.row = src[1];
    }
}
"#;

const MODEL_DRIFTED: &str = r#"pub struct Bank {
    ready_at: u64,
    row: u64,
    lost: u64,
}

impl Bank {
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.ready_at);
        out.push(self.row);
    }

    pub fn load_state(&mut self, src: &[u64]) {
        self.ready_at = src[0];
        self.row = src[1];
    }
}
"#;

const MODEL_REPAIRED: &str = r#"pub struct Bank {
    ready_at: u64,
    row: u64,
    lost: u64,
}

impl Bank {
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.ready_at);
        out.push(self.row);
        out.push(self.lost);
    }

    pub fn load_state(&mut self, src: &[u64]) {
        self.ready_at = src[0];
        self.row = src[1];
        self.lost = src[2];
    }
}
"#;

#[test]
fn seeded_drift_gates_until_version_bump_and_refresh() {
    let root = temp_tree("drift");
    write(&root, "crates/dram/src/model.rs", MODEL_COVERED);

    // Establish the baseline fingerprint.
    let r = analyze(&root, true).expect("baseline analyzes");
    assert_eq!(r.fingerprint, FingerprintStatus::Fixed);
    assert!(r.clean(), "baseline must be clean, got: {:?}", r.findings);
    let r = analyze(&root, false).expect("committed baseline analyzes");
    assert_eq!(r.fingerprint, FingerprintStatus::Ok);
    assert!(r.clean());
    let baseline_layout = r.layout_hash;

    // Seed drift: a new field nobody serializes.
    write(&root, "crates/dram/src/model.rs", MODEL_DRIFTED);
    let r = analyze(&root, false).expect("drifted tree analyzes");
    assert_eq!(r.fingerprint, FingerprintStatus::Drift);
    assert!(!r.clean(), "an unserialized field must fail the gate");
    assert_ne!(r.layout_hash, baseline_layout, "field changes must move the layout hash");
    assert!(
        r.findings.iter().any(|f| f.rule == "S01" && f.message.contains("`Bank.lost`")),
        "S01 names the dropped field: {:?}",
        r.findings
    );
    let s02 = r.findings.iter().find(|f| f.rule == "S02").expect("layout drift fires S02");
    assert!(s02.message.contains("without a SCHEMA_VERSION bump"));
    assert!(s02.message.contains("Bank"), "the diff names the changed struct: {}", s02.message);

    // Bumping SCHEMA_VERSION downgrades the hard drift to a stale
    // fingerprint asking for a refresh...
    write(&root, "crates/snap/src/lib.rs", "pub const SCHEMA_VERSION: u32 = 2;\n");
    let r = analyze(&root, false).expect("bumped tree analyzes");
    assert_eq!(r.fingerprint, FingerprintStatus::Stale);
    assert_eq!(r.schema_version, 2);
    assert!(r.findings.iter().any(|f| f.rule == "S02" && f.message.contains("--fix-fingerprint")));

    // ...and refreshing plus serializing the field settles the tree.
    let r = analyze(&root, true).expect("refresh analyzes");
    assert_eq!(r.fingerprint, FingerprintStatus::Fixed);
    write(&root, "crates/dram/src/model.rs", MODEL_REPAIRED);
    let r = analyze(&root, false).expect("repaired tree analyzes");
    assert_eq!(r.fingerprint, FingerprintStatus::Ok);
    assert!(r.clean(), "repaired tree must be clean, got: {:?}", r.findings);

    let _ = std::fs::remove_dir_all(&root);
}

/// `Bank` plus a derived field nobody serializes, justified for both
/// rules — or, to show the refusal, with the S02 allow on a serialized field.
fn model_with_derived(s02_on_serialized_field: bool) -> String {
    let (on_row, on_wake) = if s02_on_serialized_field {
        (" // melreq-allow(S02): fixture claims this is derived", "")
    } else {
        ("", "    // melreq-allow(S02): derived wake-up bound, never written\n")
    };
    format!(
        r#"pub struct Bank {{
{on_wake}    wake: u64, // melreq-allow(S01): derived, reset by load_state
    ready_at: u64,
    row: u64,{on_row}
}}

impl Bank {{
    pub fn save_state(&self, out: &mut Vec<u64>) {{
        out.push(self.ready_at);
        out.push(self.row);
    }}

    pub fn load_state(&mut self, src: &[u64]) {{
        self.ready_at = src[0];
        self.row = src[1];
        self.wake = 0;
    }}
}}
"#
    )
}

#[test]
fn derived_field_with_an_s02_allow_leaves_the_layout_alone() {
    let root = temp_tree("derived");
    write(&root, "crates/dram/src/model.rs", MODEL_COVERED);
    let baseline = analyze(&root, true).expect("baseline analyzes").layout_hash;

    // A field save_state never writes, carrying both justifications: no
    // drift, no version bump, and the exclusion is on the record.
    write(&root, "crates/dram/src/model.rs", &model_with_derived(false));
    let r = analyze(&root, false).expect("derived-field tree analyzes");
    assert_eq!(r.fingerprint, FingerprintStatus::Ok);
    assert_eq!(r.layout_hash, baseline, "a derived field is no part of the layout");
    assert!(r.clean(), "got: {:?}", r.findings);
    assert!(
        r.suppressed.iter().any(|f| f.rule == "S02"
            && f.message.contains("`Bank.wake`")
            && f.suppressed.as_deref() == Some("derived wake-up bound, never written")),
        "the excluded field is listed with its reason: {:?}",
        r.suppressed
    );

    // The same allow on a field save_state writes is refused.
    write(&root, "crates/dram/src/model.rs", &model_with_derived(true));
    let r = analyze(&root, false).expect("mis-allowed tree analyzes");
    assert!(
        r.findings.iter().any(|f| f.rule == "S02" && f.message.contains("save_state writes it")),
        "an S02 allow on a serialized field must fail the gate: {:?}",
        r.findings
    );
    assert_eq!(r.fingerprint, FingerprintStatus::Drift, "the unexcused `wake` field is drift");

    let _ = std::fs::remove_dir_all(&root);
}
