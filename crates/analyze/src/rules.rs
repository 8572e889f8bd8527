//! The rule catalogue. Every rule has a stable ID, fires with a
//! `file:line` span, and is suppressible at the span with a
//! `// melreq-allow(RULE): reason` comment (same line or the line
//! above). See DESIGN.md "Static analysis" for the contract.

use crate::items::{FileItems, SnapMethod, StructDecl};
use crate::lexer::{Lexed, TokenKind};

/// Crates whose simulation state must be iteration-order deterministic
/// (rule D01): a `HashMap`/`HashSet` anywhere in them is a hazard
/// because any iteration is host-RandomState ordered.
pub const D01_CRATES: &[&str] =
    &["cpu", "dram", "memctrl", "cache", "core", "trace", "stats", "snap"];

/// Crates allowed to touch ambient entropy (wall clocks, environment):
/// the service, the CLI and the analyzer itself.
/// Everything else is simulation code where rule D02 applies.
pub const D02_EXEMPT_CRATES: &[&str] = &["serve", "cli", "analyze"];

/// The dram/memctrl timing modules where rule A01 additionally flags
/// bare `+`/`-`/`*` arithmetic: these files compute the cycle horizons
/// (`ready_at`, bus occupancy, refresh schedules) where a silent wrap
/// would corrupt timing rather than crash.
pub const A01_TIMING_FILES: &[&str] =
    &["crates/dram/src/timing.rs", "crates/dram/src/bank.rs", "crates/dram/src/channel.rs"];

/// Crates where A01's narrowing-cast and `wrapping_*` checks apply.
pub const A01_CRATES: &[&str] = &["dram", "memctrl"];

/// One reported finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`D01`, `D02`, `S01`, `S02`, `A01`).
    pub rule: &'static str,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the hazard.
    pub message: String,
    /// `Some(reason)` when a `melreq-allow` comment suppresses it.
    pub suppressed: Option<String>,
}

/// Emit a finding, attaching any matching allow-comment suppression.
fn emit(
    out: &mut Vec<Finding>,
    lexed: &Lexed,
    rule: &'static str,
    file: &str,
    line: u32,
    message: String,
) {
    let suppressed = lexed.allow_for(rule, line).map(|a| a.reason.clone());
    out.push(Finding { rule, file: file.to_string(), line, message, suppressed });
}

/// The crate a repo-relative `crates/<name>/src/...` path belongs to.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/")?.split('/').next()
}

/// D01 — no `HashMap`/`HashSet` in simulation crates. Iteration order
/// of the std hash containers is seeded per-process; any iteration in
/// simulation state silently breaks byte-exact reproduction. Use
/// `BTreeMap`/`BTreeSet`/`Vec`, or justify keyed-lookup-only use with
/// an allow comment.
pub fn d01(rel_path: &str, lexed: &Lexed, items: &FileItems, out: &mut Vec<Finding>) {
    let Some(krate) = crate_of(rel_path) else { return };
    if !D01_CRATES.contains(&krate) {
        return;
    }
    for (i, t) in lexed.tokens.iter().enumerate() {
        if let TokenKind::Ident(w) = &t.kind {
            if (w == "HashMap" || w == "HashSet") && !items.in_test(i) {
                emit(
                    out,
                    lexed,
                    "D01",
                    rel_path,
                    t.line,
                    format!(
                        "{w} in simulation crate `{krate}`: iteration order is \
                         host-seeded; use BTreeMap/BTreeSet/Vec or justify with \
                         melreq-allow(D01)"
                    ),
                );
            }
        }
    }
}

/// D02 — no ambient entropy in simulation crates: `Instant::now`,
/// `SystemTime`, `RandomState`, `env::var`/`env::var_os`. Wall clocks
/// and environment reads are fine for *reporting*, but every use in a
/// simulation crate must carry a written justification that it cannot
/// feed simulated state.
pub fn d02(rel_path: &str, lexed: &Lexed, items: &FileItems, out: &mut Vec<Finding>) {
    let Some(krate) = crate_of(rel_path) else { return };
    if D02_EXEMPT_CRATES.contains(&krate) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if items.in_test(i) {
            continue;
        }
        let line = toks[i].line;
        let TokenKind::Ident(w) = &toks[i].kind else { continue };
        let path_call = |name: &str| {
            matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokenKind::PathSep))
                && matches!(toks.get(i + 2).map(|t| &t.kind),
                            Some(TokenKind::Ident(m)) if m == name)
        };
        let hazard = match w.as_str() {
            "Instant" if path_call("now") => Some("Instant::now() is wall-clock"),
            "SystemTime" => Some("SystemTime is wall-clock"),
            "RandomState" => Some("RandomState is per-process entropy"),
            "env" if path_call("var") || path_call("var_os") => {
                Some("environment reads make behavior host-dependent")
            }
            _ => None,
        };
        if let Some(why) = hazard {
            emit(
                out,
                lexed,
                "D02",
                rel_path,
                line,
                format!(
                    "ambient entropy in simulation crate `{krate}`: {why}; move it \
                     behind serve/cli or justify with melreq-allow(D02)"
                ),
            );
        }
    }
}

/// S01 — snapshot-coverage drift: every field of a struct with
/// `save_state`/`load_state` must be referenced in BOTH methods (or
/// carry an allow on the field naming why it is deliberately not
/// serialized). This is exactly the hazard byte-exact snapshot forking
/// created: a forgotten field silently diverges after restore.
pub fn s01(rel_path: &str, lexed: &Lexed, items: &FileItems, out: &mut Vec<Finding>) {
    for s in &items.structs {
        let Some(snap) = items.snaps.get(&s.name) else { continue };
        let (Some(save), Some(load)) = (&snap.save, &snap.load) else {
            // A type with only one half is itself drift.
            let (present, missing, line) = match (&snap.save, &snap.load) {
                (Some(m), None) => ("save_state", "load_state", m.line),
                (None, Some(m)) => ("load_state", "save_state", m.line),
                _ => continue,
            };
            emit(
                out,
                lexed,
                "S01",
                rel_path,
                line,
                format!("`{}` has {present} but no {missing} in this file", s.name),
            );
            continue;
        };
        for f in &s.fields {
            let in_save = save.idents.contains(&f.name);
            let in_load = load.idents.contains(&f.name);
            if in_save && in_load {
                continue;
            }
            let missing = match (in_save, in_load) {
                (false, false) => "save_state or load_state",
                (false, true) => "save_state",
                (true, false) => "load_state",
                (true, true) => unreachable!(),
            };
            emit(
                out,
                lexed,
                "S01",
                rel_path,
                f.line,
                format!(
                    "field `{}.{}` is not referenced in {missing}: snapshot \
                     round-trips will silently drop it (serialize it, or \
                     melreq-allow(S01) on the field with why it is safe)",
                    s.name, f.name
                ),
            );
        }
    }
}

/// S02, per field — the persisted layout of snapshot'd struct `s`: its
/// declaration minus the fields that carry `melreq-allow(S02)`. Such a
/// field is derived run-time state (a wake-up bound, a host counter) that
/// `save_state` never writes, so adding one changes no checkpoint byte and
/// must not force a `SCHEMA_VERSION` bump; each is listed among the
/// suppressed findings. An allow on a field `save_state` *does* write is
/// refused — that field is layout. (S01 separately demands the reason the
/// field is not serialized.)
pub fn persisted_layout(
    rel_path: &str,
    lexed: &Lexed,
    s: &StructDecl,
    save: &SnapMethod,
    out: &mut Vec<Finding>,
) -> StructDecl {
    let mut layout = s.clone();
    layout.fields.retain(|f| {
        let Some(allow) = lexed.allow_for("S02", f.line) else { return true };
        let written = save.idents.contains(&f.name);
        out.push(Finding {
            rule: "S02",
            file: rel_path.to_string(),
            line: f.line,
            message: if written {
                format!(
                    "field `{}.{}` carries melreq-allow(S02) but save_state writes it: \
                     a serialized field is part of the snapshot layout",
                    s.name, f.name
                )
            } else {
                format!(
                    "field `{}.{}` is excluded from the snapshot-layout fingerprint",
                    s.name, f.name
                )
            },
            suppressed: (!written).then(|| allow.reason.clone()),
        });
        written
    });
    layout
}

/// Integer types a cast *to* is considered narrowing for A01.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// A01 — unchecked cycle/timing arithmetic, generalizing the
/// `DramTiming::scaled` overflow-checked precedent: in dram/memctrl,
/// flag narrowing `as` casts and `wrapping_*` calls; in the designated
/// timing modules additionally flag bare `+`/`-`/`*` (and their
/// compound assignments), which wrap silently in release builds.
pub fn a01(rel_path: &str, lexed: &Lexed, items: &FileItems, out: &mut Vec<Finding>) {
    let Some(krate) = crate_of(rel_path) else { return };
    if !A01_CRATES.contains(&krate) {
        return;
    }
    let toks = &lexed.tokens;
    let timing_file = A01_TIMING_FILES.contains(&rel_path);
    for i in 0..toks.len() {
        if items.in_test(i) {
            continue;
        }
        let line = toks[i].line;
        match &toks[i].kind {
            TokenKind::Ident(w) if w == "as" => {
                if let Some(TokenKind::Ident(ty)) = toks.get(i + 1).map(|t| &t.kind) {
                    if NARROW_INTS.contains(&ty.as_str()) {
                        emit(
                            out,
                            lexed,
                            "A01",
                            rel_path,
                            line,
                            format!(
                                "narrowing `as {ty}` cast: silently truncates; use \
                                 `{ty}::try_from(..)` or melreq-allow(A01) with the \
                                 bound that makes it safe"
                            ),
                        );
                    }
                }
            }
            TokenKind::Ident(w) if w.starts_with("wrapping_") => {
                emit(
                    out,
                    lexed,
                    "A01",
                    rel_path,
                    line,
                    format!(
                        "`{w}` on dram/memctrl state: wrapping semantics corrupt \
                         timing silently; use checked arithmetic"
                    ),
                );
            }
            TokenKind::Punct(op @ ('+' | '-' | '*')) if timing_file => {
                // Binary-operator heuristic: the previous token must be
                // something an expression can end with. This excludes
                // unary deref/negation, `&`-patterns and attributes.
                let binary = matches!(
                    toks.get(i.wrapping_sub(1)).map(|t| &t.kind),
                    Some(
                        TokenKind::Ident(_)
                            | TokenKind::Literal(_)
                            | TokenKind::Punct(')')
                            | TokenKind::Punct(']')
                    )
                ) && i > 0;
                if binary {
                    emit(
                        out,
                        lexed,
                        "A01",
                        rel_path,
                        line,
                        format!(
                            "bare `{op}` on cycle/timing values in a timing module: \
                             wraps silently in release builds; use the checked \
                             helpers (melreq_stats::types::cyc_add/cyc_mul) or \
                             melreq-allow(A01) with the bound"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;

    fn run_all(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let items = extract(&lexed);
        let mut out = Vec::new();
        d01(path, &lexed, &items, &mut out);
        d02(path, &lexed, &items, &mut out);
        s01(path, &lexed, &items, &mut out);
        a01(path, &lexed, &items, &mut out);
        out
    }

    #[test]
    fn d01_fires_in_sim_crates_only() {
        let src = "use std::collections::HashMap;";
        assert_eq!(run_all("crates/core/src/x.rs", src).len(), 1);
        assert!(run_all("crates/serve/src/x.rs", src).is_empty());
        assert!(run_all("crates/cli/src/x.rs", src).is_empty());
    }

    #[test]
    fn d02_matches_calls_not_type_mentions() {
        let hit = "fn f() { let t = Instant::now(); }";
        let miss = "fn f(deadline: Instant) -> Instant { deadline }";
        assert_eq!(
            run_all("crates/core/src/x.rs", hit).iter().filter(|f| f.rule == "D02").count(),
            1
        );
        assert!(run_all("crates/core/src/x.rs", miss).iter().all(|f| f.rule != "D02"));
        let env = "fn f() { std::env::var(\"X\").ok(); }";
        assert_eq!(
            run_all("crates/core/src/x.rs", env).iter().filter(|f| f.rule == "D02").count(),
            1
        );
        assert!(run_all("crates/cli/src/x.rs", env).is_empty());
    }

    #[test]
    fn s01_flags_unserialized_field_and_halves() {
        let src = "struct A { x: u64, y: u64 }\n\
            impl A { fn save_state(&self, e: &mut Enc) { e.u64(self.x); }\n\
            fn load_state(&mut self, d: &mut Dec<'_>) -> R { self.x = d.u64()?; Ok(()) } }";
        let f = run_all("crates/dram/src/x.rs", src);
        let s: Vec<_> = f.iter().filter(|f| f.rule == "S01").collect();
        assert_eq!(s.len(), 1);
        assert!(s[0].message.contains("A.y"));
        assert_eq!(s[0].line, 1);

        let half =
            "struct B { x: u64 }\nimpl B { fn save_state(&self, e: &mut Enc) { e.u64(self.x); } }";
        let f = run_all("crates/dram/src/x.rs", half);
        assert!(f.iter().any(|f| f.rule == "S01" && f.message.contains("no load_state")));
    }

    #[test]
    fn a01_flags_narrowing_casts_and_bare_ops_in_timing_files() {
        let cast = "fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(run_all("crates/dram/src/system.rs", cast).len(), 1);
        assert!(run_all("crates/core/src/x.rs", cast).is_empty(), "A01 scoped to dram/memctrl");
        // Widening casts are fine.
        assert!(run_all("crates/dram/src/system.rs", "fn f(x: u32) -> u64 { x as u64 }").is_empty());

        let arith = "fn f(a: Cycle, b: Cycle) -> Cycle { a + b }";
        assert_eq!(run_all("crates/dram/src/bank.rs", arith).len(), 1);
        assert!(
            run_all("crates/dram/src/system.rs", arith).is_empty(),
            "bare ops only in timing files"
        );

        // Unary deref and negation are not binary arithmetic.
        let unary = "fn f(a: &mut u64) { *a = 1; let _b = -1i64; }";
        assert!(run_all("crates/dram/src/bank.rs", unary).is_empty());

        let wrap = "fn f(a: u64) -> u64 { a.wrapping_add(1) }";
        assert!(run_all("crates/memctrl/src/queue.rs", wrap).iter().any(|f| f.rule == "A01"));
    }

    #[test]
    fn allow_comments_suppress_with_reason() {
        let src = "use std::collections::HashMap; // melreq-allow(D01): keyed lookup only\n";
        let f = run_all("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].suppressed.as_deref(), Some("keyed lookup only"));
        // Wrong rule ID does not suppress.
        let src = "use std::collections::HashMap; // melreq-allow(D02): wrong rule\n";
        assert!(run_all("crates/core/src/x.rs", src)[0].suppressed.is_none());
    }

    #[test]
    fn test_modules_are_exempt_everywhere() {
        let src = "struct R { a: u8 }\n#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n fn f() { let _ = Instant::now(); let _ = 1 + 2; }\n}";
        assert!(run_all("crates/dram/src/bank.rs", src).is_empty());
    }
}
