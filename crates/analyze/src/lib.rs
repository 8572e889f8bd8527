//! # melreq-analyze — workspace determinism & snapshot-coverage analyzer
//!
//! Everything this reproduction proves — bit-exact fast-forward vs
//! tick-exact kernels, snapshot forking across policies, byte-identical
//! `reproduce` artifacts — rests on determinism invariants that used to
//! be enforced only by runtime tests and reviewer discipline. This crate
//! is a dependency-free static pass over the workspace's *own Rust
//! sources* (a small lexer + item/field/impl extractor — no `syn`,
//! consistent with the vendored-offline build) that turns those
//! invariants into a `cargo test`-time / CI gate:
//!
//! | rule | hazard |
//! |------|--------|
//! | D01  | `HashMap`/`HashSet` in simulation crates (iteration order) |
//! | D02  | ambient entropy (`Instant::now`, `SystemTime`, `RandomState`, `env::var`) outside serve/cli |
//! | S01  | snapshot-coverage drift: a field missing from `save_state`/`load_state` |
//! | S02  | snapshot layout changed without a `SCHEMA_VERSION` bump (`snap.fingerprint`); a field `save_state` never writes leaves the layout with `melreq-allow(S02)` |
//! | A01  | narrowing `as` casts / unchecked cycle arithmetic in dram/memctrl timing modules |
//!
//! Findings carry a stable rule ID and a `file:line` span and are
//! suppressible in place with `// melreq-allow(RULE): reason` (the
//! reason is mandatory — a bare allow does not count). The CLI surfaces
//! the pass as `melreq analyze [--json] [--fix-fingerprint]`.

pub mod fingerprint;
pub mod items;
pub mod lexer;
pub mod rules;

use fingerprint::{LayoutSet, FINGERPRINT_FILE};
use melreq_snap::json_esc as esc;
use rules::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Outcome of the S02 fingerprint comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintStatus {
    /// Committed fingerprint matches the tree.
    Ok,
    /// Layouts changed while `SCHEMA_VERSION` did not: the hard gate.
    Drift,
    /// `SCHEMA_VERSION` moved (or layouts changed alongside a bump):
    /// the fingerprint must be regenerated with `--fix-fingerprint`.
    Stale,
    /// No `snap.fingerprint` committed yet.
    Missing,
    /// `--fix-fingerprint` rewrote the file this run.
    Fixed,
}

impl FingerprintStatus {
    /// Lower-case label used in the JSON report.
    pub fn label(self) -> &'static str {
        match self {
            FingerprintStatus::Ok => "ok",
            FingerprintStatus::Drift => "drift",
            FingerprintStatus::Stale => "stale",
            FingerprintStatus::Missing => "missing",
            FingerprintStatus::Fixed => "fixed",
        }
    }
}

/// The full result of one analysis pass.
#[derive(Debug)]
pub struct Report {
    /// Workspace root analyzed.
    pub root: PathBuf,
    /// Number of `.rs` files scanned under `crates/*/src`.
    pub files_scanned: usize,
    /// Unsuppressed findings — any entry here fails the gate.
    pub findings: Vec<Finding>,
    /// Findings carrying a `melreq-allow` justification.
    pub suppressed: Vec<Finding>,
    /// S02 status.
    pub fingerprint: FingerprintStatus,
    /// `SCHEMA_VERSION` read from `crates/snap/src/lib.rs`.
    pub schema_version: u32,
    /// Combined layout hash of every snapshot'd struct.
    pub layout_hash: u64,
    /// Snapshot'd struct count contributing to the fingerprint.
    pub snap_structs: usize,
}

impl Report {
    /// Whether the gate passes (no unsuppressed findings).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule counts of unsuppressed findings.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> =
            [("A01", 0), ("D01", 0), ("D02", 0), ("S01", 0), ("S02", 0)].into_iter().collect();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}: {}:{}: {}", f.rule, f.file, f.line, f.message);
        }
        let _ = writeln!(
            out,
            "melreq-analyze: {} file(s), {} snapshot'd struct(s), layout {:016x}, \
             fingerprint {}; {} finding(s), {} suppressed",
            self.files_scanned,
            self.snap_structs,
            self.layout_hash,
            self.fingerprint.label(),
            self.findings.len(),
            self.suppressed.len(),
        );
        out
    }

    /// Single-line machine-readable rendering, schema-stamped like every
    /// other machine output in the workspace (the stamp is the *snap*
    /// schema version: the report describes snapshot-governed state).
    pub fn render_json(&self) -> String {
        fn finding(f: &Finding) -> String {
            let mut s = format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"",
                f.rule,
                esc(&f.file),
                f.line,
                esc(&f.message)
            );
            if let Some(reason) = &f.suppressed {
                let _ = write!(s, ",\"reason\":\"{}\"", esc(reason));
            }
            s.push('}');
            s
        }
        let findings: Vec<String> = self.findings.iter().map(finding).collect();
        let suppressed: Vec<String> = self.suppressed.iter().map(finding).collect();
        let counts: Vec<String> =
            self.counts().iter().map(|(r, n)| format!("\"{r}\":{n}")).collect();
        format!(
            "{{\"schema_version\":{},\"tool\":\"melreq-analyze\",\"files_scanned\":{},\
             \"findings\":[{}],\"suppressed\":[{}],\
             \"fingerprint\":{{\"status\":\"{}\",\"schema_version\":{},\
             \"layout\":\"{:016x}\",\"structs\":{}}},\"counts\":{{{}}}}}",
            melreq_snap::SCHEMA_VERSION,
            self.files_scanned,
            findings.join(","),
            suppressed.join(","),
            self.fingerprint.label(),
            self.schema_version,
            self.layout_hash,
            self.snap_structs,
            counts.join(","),
        )
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyze the workspace rooted at `root` (the directory containing
/// `crates/`). With `fix_fingerprint`, `snap.fingerprint` is rewritten
/// from the current tree before the S02 comparison.
pub fn analyze(root: &Path, fix_fingerprint: bool) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory — run from the workspace root or pass --root",
            root.display()
        ));
    }
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for dir in &crate_dirs {
        rust_files(&dir.join("src"), &mut files)?;
    }

    let mut all: Vec<Finding> = Vec::new();
    let mut layouts = LayoutSet::default();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let lexed = lexer::lex(&src);
        let items = items::extract(&lexed);
        rules::d01(&rel, &lexed, &items, &mut all);
        rules::d02(&rel, &lexed, &items, &mut all);
        rules::s01(&rel, &lexed, &items, &mut all);
        rules::a01(&rel, &lexed, &items, &mut all);
        for s in &items.structs {
            let Some(snap) = items.snaps.get(&s.name) else { continue };
            if let (Some(save), Some(_)) = (&snap.save, &snap.load) {
                layouts.add(&rel, &rules::persisted_layout(&rel, &lexed, s, save, &mut all));
            }
        }
    }

    for dup in &layouts.duplicates {
        all.push(Finding {
            rule: "S02",
            file: FINGERPRINT_FILE.to_string(),
            line: 0,
            message: format!(
                "two snapshot'd structs named `{dup}`: fingerprint entries collide — \
                 rename one"
            ),
            suppressed: None,
        });
    }

    let schema_version = fingerprint::schema_version_from_source(root)?;
    if fix_fingerprint {
        let path = root.join(FINGERPRINT_FILE);
        std::fs::write(&path, layouts.render(schema_version))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let status = match fingerprint::read_committed(root)? {
        None => {
            all.push(Finding {
                rule: "S02",
                file: FINGERPRINT_FILE.to_string(),
                line: 0,
                message: "no committed snapshot-layout fingerprint; generate one with \
                          `melreq analyze --fix-fingerprint` and commit it"
                    .to_string(),
                suppressed: None,
            });
            FingerprintStatus::Missing
        }
        Some(committed) if fix_fingerprint => {
            debug_assert_eq!(committed.layout, layouts.combined());
            FingerprintStatus::Fixed
        }
        Some(committed) => {
            let layout_matches = committed.layout == layouts.combined();
            if layout_matches && committed.schema_version == schema_version {
                FingerprintStatus::Ok
            } else if committed.schema_version == schema_version {
                all.push(Finding {
                    rule: "S02",
                    file: FINGERPRINT_FILE.to_string(),
                    line: 0,
                    message: format!(
                        "snapshot layout changed without a SCHEMA_VERSION bump \
                         ({}) — bump SCHEMA_VERSION in crates/snap/src/lib.rs in \
                         the same diff, then run `melreq analyze --fix-fingerprint`",
                        fingerprint::diff(&committed, &layouts)
                    ),
                    suppressed: None,
                });
                FingerprintStatus::Drift
            } else {
                all.push(Finding {
                    rule: "S02",
                    file: FINGERPRINT_FILE.to_string(),
                    line: 0,
                    message: format!(
                        "SCHEMA_VERSION moved ({} -> {schema_version}); refresh the \
                         fingerprint with `melreq analyze --fix-fingerprint` and \
                         commit it",
                        committed.schema_version
                    ),
                    suppressed: None,
                });
                FingerprintStatus::Stale
            }
        }
    };

    all.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let (suppressed, findings): (Vec<_>, Vec<_>) =
        all.into_iter().partition(|f| f.suppressed.is_some());

    Ok(Report {
        root: root.to_path_buf(),
        files_scanned: files.len(),
        findings,
        suppressed,
        fingerprint: status,
        schema_version,
        layout_hash: layouts.combined(),
        snap_structs: layouts.structs.len(),
    })
}
