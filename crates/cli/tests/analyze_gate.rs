//! End-to-end proof that `melreq analyze` exits nonzero on a seeded
//! snapshot-coverage hole, and that the `--out` artifact is written
//! before the gate decision (so CI keeps the report on failure).

use melreq_cli::{parse_args, run_command};
use melreq_core::api::MelreqError;
use std::path::{Path, PathBuf};

fn temp_tree(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("melreq-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    write(&root, "crates/snap/src/lib.rs", "pub const SCHEMA_VERSION: u32 = 1;\n");
    root
}

fn write(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("relative path has a parent"))
        .expect("create fixture dirs");
    std::fs::write(path, contents).expect("write fixture file");
}

const DRIFTED: &str = r#"pub struct Bank {
    ready_at: u64,
    lost: u64,
}

impl Bank {
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.ready_at);
    }

    pub fn load_state(&mut self, src: &[u64]) {
        self.ready_at = src[0];
    }
}
"#;

#[test]
fn unserialized_field_fails_the_gate_with_exit_7() {
    let root = temp_tree("gate");
    write(&root, "crates/dram/src/model.rs", DRIFTED);
    let out_path = root.join("analyze.json");

    let (root_arg, out_arg) = (root.display().to_string(), out_path.display().to_string());
    let cmd = parse_args(&["analyze", "--json", "--root", &root_arg, "--out", &out_arg])
        .expect("analyze command line");
    let err = run_command(&cmd).expect_err("a dropped field must fail the gate");
    assert_eq!(err.exit_code(), 7, "static-analysis findings map to exit code 7");
    match &err {
        MelreqError::Analysis(payload) => {
            assert!(payload.contains("\"rule\":\"S01\""), "payload carries the report");
            assert!(payload.contains("Bank.lost"));
        }
        other => panic!("expected MelreqError::Analysis, got {other:?}"),
    }

    // The artifact exists even though the command failed.
    let artifact = std::fs::read_to_string(&out_path).expect("--out written before gating");
    assert!(artifact.contains("\"rule\":\"S01\""));
    assert!(artifact.contains("\"tool\":\"melreq-analyze\""));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn clean_tree_passes_after_fix_fingerprint() {
    let root = temp_tree("gate-clean");
    let cmd = parse_args(&["analyze", "--fix-fingerprint", "--root", &root.display().to_string()])
        .expect("analyze command line");
    let rendered = run_command(&cmd).expect("empty tree with fixed fingerprint is clean");
    assert!(rendered.contains("0 finding(s)"));

    let _ = std::fs::remove_dir_all(&root);
}
