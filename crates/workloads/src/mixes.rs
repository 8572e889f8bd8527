//! The workload mixes of Table 3.

use crate::apps::{app_by_code, AppSpec, SliceKind};
use melreq_trace::InstrStream;

/// MEM-only or MEM+ILP mix, per the paper's naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixKind {
    /// All applications memory-intensive (nMEM-k workloads).
    Mem,
    /// Half memory-intensive, half compute-intensive (nMIX-k workloads).
    Mixed,
}

/// One multiprogrammed workload (a row of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Workload name, e.g. "4MEM-1".
    pub name: &'static str,
    /// Application codes, one per core, in core order.
    pub codes: &'static str,
    /// MEM or MIX group.
    pub kind: MixKind,
}

impl Mix {
    /// Number of cores this mix occupies.
    pub fn cores(&self) -> usize {
        self.codes.len()
    }

    /// Resolve the application specs, in core order.
    pub fn apps(&self) -> Vec<AppSpec> {
        self.codes.chars().map(app_by_code).collect()
    }

    /// Evaluation slice `slice` of every application at its first op, in
    /// core order: the streams a machine running this mix is built on.
    pub fn eval_streams(&self, slice: u32) -> Vec<Box<dyn InstrStream + Send>> {
        self.apps()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                Box::new(a.build_stream(i, SliceKind::Evaluation(slice)))
                    as Box<dyn InstrStream + Send>
            })
            .collect()
    }
}

/// All 36 mixes of Table 3 (verbatim codes).
pub fn all_mixes() -> Vec<Mix> {
    use MixKind::{Mem, Mixed};
    vec![
        // 2-core group.
        Mix { name: "2MEM-1", codes: "bc", kind: Mem },
        Mix { name: "2MEM-2", codes: "de", kind: Mem },
        Mix { name: "2MEM-3", codes: "fj", kind: Mem },
        Mix { name: "2MEM-4", codes: "kl", kind: Mem },
        Mix { name: "2MEM-5", codes: "np", kind: Mem },
        Mix { name: "2MEM-6", codes: "qv", kind: Mem },
        Mix { name: "2MIX-1", codes: "ab", kind: Mixed },
        Mix { name: "2MIX-2", codes: "cr", kind: Mixed },
        Mix { name: "2MIX-3", codes: "hd", kind: Mixed },
        Mix { name: "2MIX-4", codes: "ez", kind: Mixed },
        Mix { name: "2MIX-5", codes: "mf", kind: Mixed },
        Mix { name: "2MIX-6", codes: "oj", kind: Mixed },
        // 4-core group.
        Mix { name: "4MEM-1", codes: "bcde", kind: Mem },
        Mix { name: "4MEM-2", codes: "fgij", kind: Mem },
        Mix { name: "4MEM-3", codes: "npqv", kind: Mem },
        Mix { name: "4MEM-4", codes: "bdkl", kind: Mem },
        Mix { name: "4MEM-5", codes: "qvce", kind: Mem },
        Mix { name: "4MEM-6", codes: "cjkq", kind: Mem },
        Mix { name: "4MIX-1", codes: "arbc", kind: Mixed },
        Mix { name: "4MIX-2", codes: "hzde", kind: Mixed },
        Mix { name: "4MIX-3", codes: "mofj", kind: Mixed },
        Mix { name: "4MIX-4", codes: "stkl", kind: Mixed },
        Mix { name: "4MIX-5", codes: "uxnp", kind: Mixed },
        Mix { name: "4MIX-6", codes: "ywqv", kind: Mixed },
        // 8-core group.
        Mix { name: "8MEM-1", codes: "bcdefjkl", kind: Mem },
        Mix { name: "8MEM-2", codes: "npqvbdfv", kind: Mem },
        Mix { name: "8MEM-3", codes: "gicecjkq", kind: Mem },
        Mix { name: "8MEM-4", codes: "bcdenpqv", kind: Mem },
        Mix { name: "8MEM-5", codes: "qvcefjkl", kind: Mem },
        // NOTE: the published table prints 8MEM-6 as "bygicipa", which
        // contains codes Table 2 classes as ILP (y = twolf, a = gzip) —
        // almost certainly a typesetting/scan artifact in the source. We
        // keep the row verbatim rather than invent a correction.
        Mix { name: "8MEM-6", codes: "bygicipa", kind: Mem },
        Mix { name: "8MIX-1", codes: "arhzbcde", kind: Mixed },
        Mix { name: "8MIX-2", codes: "mostfjkl", kind: Mixed },
        Mix { name: "8MIX-3", codes: "uxywnpqv", kind: Mixed },
        Mix { name: "8MIX-4", codes: "armobcfj", kind: Mixed },
        Mix { name: "8MIX-5", codes: "uxhznpde", kind: Mixed },
        Mix { name: "8MIX-6", codes: "stywayfk", kind: Mixed },
    ]
}

/// The mixes for one core count (2, 4 or 8), optionally filtered by kind.
pub fn mixes_for_cores(cores: usize, kind: Option<MixKind>) -> Vec<Mix> {
    all_mixes()
        .into_iter()
        .filter(|m| m.cores() == cores && kind.is_none_or(|k| m.kind == k))
        .collect()
}

/// Look up one mix by its Table 3 name.
pub fn mix_by_name(name: &str) -> Mix {
    all_mixes()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown workload mix '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppClass;

    #[test]
    fn thirty_six_mixes() {
        assert_eq!(all_mixes().len(), 36);
    }

    #[test]
    fn all_codes_resolve() {
        for m in all_mixes() {
            let apps = m.apps();
            assert_eq!(apps.len(), m.cores(), "{}", m.name);
        }
    }

    #[test]
    fn mem_mixes_are_all_mem_class() {
        // 8MEM-6 is excluded: the published row contains ILP codes (a
        // typesetting artifact in the source paper; see `all_mixes`).
        for m in all_mixes().into_iter().filter(|m| m.kind == MixKind::Mem && m.name != "8MEM-6") {
            for a in m.apps() {
                assert_eq!(a.class, AppClass::Mem, "{} contains non-MEM app {}", m.name, a.name);
            }
        }
    }

    #[test]
    fn mixed_mixes_contain_both_classes() {
        for m in all_mixes().into_iter().filter(|m| m.kind == MixKind::Mixed) {
            let apps = m.apps();
            assert!(apps.iter().any(|a| a.class == AppClass::Mem), "{} has no MEM app", m.name);
            assert!(apps.iter().any(|a| a.class == AppClass::Ilp), "{} has no ILP app", m.name);
        }
    }

    #[test]
    fn core_counts_partition() {
        assert_eq!(mixes_for_cores(2, None).len(), 12);
        assert_eq!(mixes_for_cores(4, None).len(), 12);
        assert_eq!(mixes_for_cores(8, None).len(), 12);
        assert_eq!(mixes_for_cores(4, Some(MixKind::Mem)).len(), 6);
    }

    #[test]
    fn paper_examples_match_section_4_2() {
        // "workload 2MEM-1 consists of two memory-intensive applications
        // wupwise and swim".
        let m = mix_by_name("2MEM-1");
        let apps = m.apps();
        assert_eq!(apps[0].name, "wupwise");
        assert_eq!(apps[1].name, "swim");
        // "workload 4MIX-2 mixes two MEM applications mgrid and applu with
        // two ILP applications mesa and apsi".
        let m = mix_by_name("4MIX-2");
        let names: Vec<&str> = m.apps().iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["mesa", "apsi", "mgrid", "applu"]);
    }

    #[test]
    #[should_panic(expected = "unknown workload mix")]
    fn unknown_mix_panics() {
        let _ = mix_by_name("9MEM-1");
    }
}
