//! The open policy registry: one static table from which every layer —
//! CLI `--policy` parsing, canonical request serialization, `compare`
//! set enumeration, service request validation, and the `GET /policies`
//! endpoint — derives its view of the scheduler zoo.
//!
//! Each [`PolicyDescriptor`] names a policy (stable id + aliases),
//! documents its typed parameters with defaults, carries capability
//! flags, and holds a factory closing over nothing, so adding a
//! scheduler is one table row plus its `SchedulerPolicy` impl.
//!
//! The grammar accepted by [`PolicyKind::parse`] is
//! `name` or `name(key=val,...)` — e.g. `bliss(threshold=8)` — with
//! omitted keys taking their registered defaults. [`canonical_name`]
//! is the inverse: parameters are emitted only when they differ from
//! the defaults, so `parse → canonical_name → parse` is the identity
//! for every registered id and alias.

use crate::policy::{Bliss, PolicyKind, TcmCluster};
use std::fmt::Write as _;

/// One typed policy parameter with its default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// Key accepted inside `name(key=val)`.
    pub key: &'static str,
    /// Value used when the key is omitted.
    pub default: u64,
    /// Smallest value [`PolicyKind::parse`] accepts (input validation:
    /// below it the scheduler would assert, not schedule).
    pub min: u64,
    /// One-line description.
    pub doc: &'static str,
}

/// One registered scheduling policy.
#[derive(Debug, Clone, Copy)]
pub struct PolicyDescriptor {
    /// Stable lowercase id — the canonical parse token.
    pub id: &'static str,
    /// Display name used in reports (the paper's shorthand).
    pub display: &'static str,
    /// Additional accepted parse tokens.
    pub aliases: &'static [&'static str],
    /// Typed parameters, in factory-argument order.
    pub params: &'static [ParamSpec],
    /// One-line description.
    pub doc: &'static str,
    /// Whether the policy consumes a profiled memory-efficiency vector.
    pub needs_me_profile: bool,
    /// Position in the paper-figure compare set (Figure 2 order), when
    /// the policy belongs to it.
    pub paper_figure: Option<u8>,
    /// Factory: builds the [`PolicyKind`] from parameter values given in
    /// `params` order (callers pass defaults for omitted keys).
    pub make: fn(&[u64]) -> PolicyKind,
}

impl PolicyDescriptor {
    /// The policy built with every parameter at its default.
    pub fn default_kind(&self) -> PolicyKind {
        let defaults: Vec<u64> = self.params.iter().map(|p| p.default).collect();
        (self.make)(&defaults)
    }

    /// Single-line JSON rendering (one element of `GET /policies`).
    pub fn json(&self) -> String {
        let mut s = String::new();
        write!(s, "{{\"id\":\"{}\",\"display\":\"{}\"", self.id, self.display).unwrap();
        let aliases: Vec<String> = self.aliases.iter().map(|a| format!("\"{a}\"")).collect();
        write!(s, ",\"aliases\":[{}]", aliases.join(",")).unwrap();
        let params: Vec<String> = self
            .params
            .iter()
            .map(|p| {
                format!("{{\"key\":\"{}\",\"default\":{},\"doc\":\"{}\"}}", p.key, p.default, p.doc)
            })
            .collect();
        write!(s, ",\"params\":[{}]", params.join(",")).unwrap();
        write!(s, ",\"doc\":\"{}\"", self.doc).unwrap();
        write!(s, ",\"needs_me_profile\":{}", self.needs_me_profile).unwrap();
        let read_first = self.default_kind().build(&[1.0], 1, 0).read_first();
        write!(s, ",\"read_first\":{read_first}").unwrap();
        match self.paper_figure {
            Some(i) => write!(s, ",\"paper_figure\":{i}}}").unwrap(),
            None => s.push_str(",\"paper_figure\":null}"),
        }
        s
    }
}

/// The registry itself: every policy resolvable by name, paper schemes
/// first in Figure 2 order, then the straw-men and extensions.
static REGISTRY: &[PolicyDescriptor] = &[
    PolicyDescriptor {
        id: "hf-rf",
        display: "HF-RF",
        aliases: &["hfrf", "baseline"],
        params: &[],
        doc: "hit-first + read-first, the paper's baseline",
        needs_me_profile: false,
        paper_figure: Some(0),
        make: |_| PolicyKind::HfRf,
    },
    PolicyDescriptor {
        id: "me",
        display: "ME",
        aliases: &[],
        params: &[],
        doc: "fixed core priority by profiled memory efficiency",
        needs_me_profile: true,
        paper_figure: Some(1),
        make: |_| PolicyKind::Me,
    },
    PolicyDescriptor {
        id: "rr",
        display: "RR",
        aliases: &["round-robin"],
        params: &[],
        doc: "round-robin over cores",
        needs_me_profile: false,
        paper_figure: Some(2),
        make: |_| PolicyKind::RoundRobin,
    },
    PolicyDescriptor {
        id: "lreq",
        display: "LREQ",
        aliases: &[],
        params: &[],
        doc: "fewest pending reads first",
        needs_me_profile: false,
        paper_figure: Some(3),
        make: |_| PolicyKind::Lreq,
    },
    PolicyDescriptor {
        id: "me-lreq",
        display: "ME-LREQ",
        aliases: &["melreq"],
        params: &[],
        doc: "the paper's contribution: quantized ME/PendingRead priority",
        needs_me_profile: true,
        paper_figure: Some(4),
        make: |_| PolicyKind::MeLreq,
    },
    PolicyDescriptor {
        id: "fcfs",
        display: "FCFS",
        aliases: &[],
        params: &[],
        doc: "strict arrival order, no read bypass",
        needs_me_profile: false,
        paper_figure: None,
        make: |_| PolicyKind::Fcfs,
    },
    PolicyDescriptor {
        id: "fcfs-rf",
        display: "FCFS-RF",
        aliases: &[],
        params: &[],
        doc: "arrival order with reads bypassing writes",
        needs_me_profile: false,
        paper_figure: None,
        make: |_| PolicyKind::FcfsRf,
    },
    PolicyDescriptor {
        id: "me-lreq-on",
        display: "ME-LREQ-ON",
        aliases: &["online"],
        params: &[ParamSpec {
            key: "epoch",
            default: 50_000,
            min: 1,
            doc: "online ME re-estimation period in CPU cycles",
        }],
        doc: "ME-LREQ with online memory-efficiency estimation",
        needs_me_profile: false,
        paper_figure: None,
        make: |v| PolicyKind::MeLreqOnline { epoch_cycles: v[0] },
    },
    PolicyDescriptor {
        id: "fix-0123",
        display: "FIX-0123",
        aliases: &[],
        params: &[],
        doc: "straw-man fixed priority, lowest core id first (Figure 3)",
        needs_me_profile: false,
        paper_figure: None,
        make: |_| PolicyKind::Fixed { descending: false },
    },
    PolicyDescriptor {
        id: "fix-3210",
        display: "FIX-3210",
        aliases: &[],
        params: &[],
        doc: "straw-man fixed priority, highest core id first (Figure 3)",
        needs_me_profile: false,
        paper_figure: None,
        make: |_| PolicyKind::Fixed { descending: true },
    },
    PolicyDescriptor {
        id: "fq",
        display: "FQ",
        aliases: &["fair-queueing"],
        params: &[],
        doc: "start-time fair queueing over memory service",
        needs_me_profile: false,
        paper_figure: None,
        make: |_| PolicyKind::Fq,
    },
    PolicyDescriptor {
        id: "stf",
        display: "STF",
        aliases: &["stall-time-fair"],
        params: &[],
        doc: "stall-time-fairness heuristic (queueing-delay debt)",
        needs_me_profile: false,
        paper_figure: None,
        make: |_| PolicyKind::Stf,
    },
    PolicyDescriptor {
        id: "bliss",
        display: "BLISS",
        aliases: &[],
        params: &[
            ParamSpec {
                key: "threshold",
                default: Bliss::DEFAULT_THRESHOLD as u64,
                min: 0,
                doc: "consecutive grants before a core is blacklisted",
            },
            ParamSpec {
                key: "clear",
                default: Bliss::DEFAULT_CLEAR_INTERVAL,
                min: 0,
                doc: "grants between blacklist clearings",
            },
        ],
        doc: "BLISS blacklisting: demote cores with long grant streaks",
        needs_me_profile: false,
        paper_figure: None,
        make: |v| PolicyKind::Bliss {
            threshold: u32::try_from(v[0].clamp(1, u64::from(u32::MAX))).expect("clamped"),
            clear_interval: v[1].max(1),
        },
    },
    PolicyDescriptor {
        id: "tcm",
        display: "TCM",
        aliases: &["tcm-cluster"],
        params: &[ParamSpec {
            key: "quantum",
            default: TcmCluster::DEFAULT_QUANTUM,
            min: 0,
            doc: "grants per re-clustering quantum",
        }],
        doc: "TCM-style two-cluster scheduling with bandwidth-cluster shuffle",
        needs_me_profile: false,
        paper_figure: None,
        make: |v| PolicyKind::TcmCluster { quantum: v[0].max(1) },
    },
];

/// Every registered policy, paper-figure schemes first.
pub fn registry() -> &'static [PolicyDescriptor] {
    REGISTRY
}

/// Resolve a lowercase token (id or alias) to its descriptor.
pub fn find(token: &str) -> Option<&'static PolicyDescriptor> {
    REGISTRY.iter().find(|d| d.id == token || d.aliases.contains(&token))
}

/// The descriptor a [`PolicyKind`] belongs to — where its display name
/// and flags are written down.
pub fn descriptor_of(kind: &PolicyKind) -> &'static PolicyDescriptor {
    let id = match kind {
        PolicyKind::Fcfs => "fcfs",
        PolicyKind::FcfsRf => "fcfs-rf",
        PolicyKind::HfRf => "hf-rf",
        PolicyKind::RoundRobin => "rr",
        PolicyKind::Lreq => "lreq",
        PolicyKind::Me => "me",
        PolicyKind::MeLreq => "me-lreq",
        PolicyKind::MeLreqOnline { .. } => "me-lreq-on",
        PolicyKind::Fixed { descending: false } => "fix-0123",
        PolicyKind::Fixed { descending: true } => "fix-3210",
        PolicyKind::Fq => "fq",
        PolicyKind::Stf => "stf",
        PolicyKind::Bliss { .. } => "bliss",
        PolicyKind::TcmCluster { .. } => "tcm",
    };
    find(id).expect("every policy kind is registered")
}

/// Current parameter values of `kind`, in its descriptor's `params`
/// order (empty for parameter-free policies).
fn param_values(kind: &PolicyKind) -> Vec<u64> {
    match kind {
        PolicyKind::MeLreqOnline { epoch_cycles } => vec![*epoch_cycles],
        PolicyKind::Bliss { threshold, clear_interval } => {
            vec![u64::from(*threshold), *clear_interval]
        }
        PolicyKind::TcmCluster { quantum } => vec![*quantum],
        _ => Vec::new(),
    }
}

/// The canonical parse token of `kind`: the registry id, with
/// `(key=val,...)` appended only for parameters that differ from their
/// defaults.
pub fn canonical_name(kind: &PolicyKind) -> String {
    let desc = descriptor_of(kind);
    let values = param_values(kind);
    let overrides: Vec<String> = desc
        .params
        .iter()
        .zip(&values)
        .filter(|(spec, &v)| v != spec.default)
        .map(|(spec, v)| format!("{}={v}", spec.key))
        .collect();
    if overrides.is_empty() {
        desc.id.to_string()
    } else {
        format!("{}({})", desc.id, overrides.join(","))
    }
}

/// Single-line JSON array of every descriptor (`GET /policies` body).
pub fn registry_json() -> String {
    let items: Vec<String> = REGISTRY.iter().map(PolicyDescriptor::json).collect();
    format!("[{}]", items.join(","))
}

/// Levenshtein edit distance (iterative two-row DP).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<u8> = a.bytes().collect();
    let b: Vec<u8> = b.bytes().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The registered id or alias nearest to `token` by edit distance
/// (ties to the lexicographically smaller name).
pub fn suggest(token: &str) -> &'static str {
    REGISTRY
        .iter()
        .flat_map(|d| std::iter::once(d.id).chain(d.aliases.iter().copied()))
        .min_by_key(|name| (edit_distance(token, name), *name))
        .expect("registry is non-empty")
}

/// The standard unknown-policy error, with a nearest-name suggestion.
fn unknown_policy(token: &str) -> String {
    format!("unknown policy '{token}'; did you mean '{}'?", suggest(token))
}

impl PolicyKind {
    /// Parse a policy token — `name` or `name(key=val,...)` — against
    /// the registry. Case-insensitive; omitted parameters take their
    /// registered defaults; unknown names are rejected with a
    /// nearest-name suggestion.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let (name, args) = match s.find('(') {
            Some(open) => {
                if !s.ends_with(')') {
                    return Err(format!("policy '{s}': missing closing ')'"));
                }
                (&s[..open], Some(&s[open + 1..s.len() - 1]))
            }
            None => (s, None),
        };
        let token = name.trim().to_ascii_lowercase();
        let Some(desc) = find(&token) else {
            return Err(unknown_policy(&token));
        };
        let mut values: Vec<u64> = desc.params.iter().map(|p| p.default).collect();
        if let Some(args) = args {
            for part in args.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let Some((key, val)) = part.split_once('=') else {
                    return Err(format!(
                        "policy '{}': expected 'key=value', got '{part}'",
                        desc.id
                    ));
                };
                let key = key.trim().to_ascii_lowercase();
                let Some(idx) = desc.params.iter().position(|p| p.key == key) else {
                    let valid: Vec<&str> = desc.params.iter().map(|p| p.key).collect();
                    return Err(if valid.is_empty() {
                        format!("policy '{}' takes no parameters", desc.id)
                    } else {
                        format!(
                            "policy '{}': unknown parameter '{key}' (valid: {})",
                            desc.id,
                            valid.join(", ")
                        )
                    });
                };
                values[idx] = val.trim().parse::<u64>().map_err(|_| {
                    format!("policy '{}': parameter '{key}' wants an unsigned integer", desc.id)
                })?;
                let min = desc.params[idx].min;
                if values[idx] < min {
                    return Err(format!(
                        "policy '{}': parameter '{key}' must be at least {min}",
                        desc.id
                    ));
                }
            }
        }
        Ok((desc.make)(&values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_and_alias_round_trips() {
        for d in registry() {
            for token in std::iter::once(d.id).chain(d.aliases.iter().copied()) {
                let kind = PolicyKind::parse(token).expect("registered token parses");
                let canon = canonical_name(&kind);
                assert_eq!(canon, d.id, "alias '{token}' must canonicalize to the id");
                let again = PolicyKind::parse(&canon).expect("canonical name parses");
                assert_eq!(kind, again, "parse → canonical_name → parse must be identity");
            }
        }
    }

    #[test]
    fn parameterized_tokens_parse_and_round_trip() {
        let k = PolicyKind::parse("bliss(threshold=8, clear=500)").expect("parse");
        assert_eq!(k, PolicyKind::Bliss { threshold: 8, clear_interval: 500 });
        assert_eq!(canonical_name(&k), "bliss(threshold=8,clear=500)");
        assert_eq!(PolicyKind::parse(&canonical_name(&k)).expect("round trip"), k);

        let k = PolicyKind::parse("me-lreq-on(epoch=1000)").expect("parse");
        assert_eq!(k, PolicyKind::MeLreqOnline { epoch_cycles: 1000 });
        assert_eq!(canonical_name(&k), "me-lreq-on(epoch=1000)");

        // Defaults collapse to the bare id.
        let k = PolicyKind::parse("tcm(quantum=2000)").expect("parse");
        assert_eq!(canonical_name(&k), "tcm");
        assert_eq!(
            PolicyKind::parse("me-lreq-on").expect("default"),
            PolicyKind::MeLreqOnline { epoch_cycles: 50_000 }
        );
    }

    #[test]
    fn unknown_policy_suggests_the_nearest_name() {
        let err = PolicyKind::parse("me-lerq").expect_err("typo rejected");
        assert!(err.contains("unknown policy 'me-lerq'"), "{err}");
        assert!(err.contains("did you mean 'me-lreq'?"), "{err}");
        let err = PolicyKind::parse("blis").expect_err("typo rejected");
        assert!(err.contains("'bliss'"), "{err}");
        let err = PolicyKind::parse("tmc").expect_err("typo rejected");
        assert!(err.contains("did you mean"), "{err}");
    }

    #[test]
    fn bad_parameter_syntax_is_rejected() {
        assert!(PolicyKind::parse("bliss(threshold=8").is_err(), "missing ')'");
        assert!(PolicyKind::parse("bliss(threshold)").is_err(), "missing '='");
        assert!(PolicyKind::parse("bliss(limit=2)").is_err(), "unknown key");
        assert!(PolicyKind::parse("bliss(threshold=abc)").is_err(), "non-numeric");
        assert!(PolicyKind::parse("hf-rf(x=1)").is_err(), "params on a param-less policy");
        let err = PolicyKind::parse("me-lreq-on(epoch=0)").expect_err("below its minimum");
        assert!(err.contains("me-lreq-on") && err.contains("'epoch'"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        assert!(PolicyKind::parse("bliss(threshold=0)").is_ok(), "clamped by its factory");
        assert!(PolicyKind::parse("tcm(quantum=0)").is_ok(), "clamped by its factory");
        let err = PolicyKind::parse("hf-rf(x=1)").expect_err("rejected");
        assert!(err.contains("takes no parameters"), "{err}");
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(PolicyKind::parse(" HF-RF ").expect("parse"), PolicyKind::HfRf);
        assert_eq!(
            PolicyKind::parse("BLISS(THRESHOLD=2)").expect("parse"),
            PolicyKind::Bliss { threshold: 2, clear_interval: Bliss::DEFAULT_CLEAR_INTERVAL }
        );
    }

    #[test]
    fn ids_and_aliases_are_unique_and_lowercase() {
        let mut seen = Vec::new();
        for d in registry() {
            for token in std::iter::once(d.id).chain(d.aliases.iter().copied()) {
                assert_eq!(token, token.to_ascii_lowercase(), "token '{token}' must be lowercase");
                assert!(!seen.contains(&token), "token '{token}' registered twice");
                seen.push(token);
            }
        }
    }

    #[test]
    fn registry_json_is_well_formed_and_complete() {
        let json = registry_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        for d in registry() {
            assert!(json.contains(&format!("\"id\":\"{}\"", d.id)), "{} missing", d.id);
        }
        assert!(json.contains("\"key\":\"threshold\""));
        assert!(json.contains("\"paper_figure\":0"));
        assert_eq!(json.matches("{\"id\":").count(), registry().len());
    }

    /// The `GET /policies` body, byte for byte: what a client reads off
    /// the registry (the derived `read_first` keys included) moves only
    /// when a row does.
    #[test]
    fn registry_json_is_pinned() {
        let json = registry_json();
        assert_eq!(
            (melreq_snap::fnv1a(json.as_bytes()), json.len()),
            (0xfabb_3272_ab14_7c50, 2869)
        );
    }

    #[test]
    fn edit_distance_is_sane() {
        assert_eq!(edit_distance("bliss", "bliss"), 0);
        assert_eq!(edit_distance("blis", "bliss"), 1);
        assert_eq!(edit_distance("", "tcm"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
