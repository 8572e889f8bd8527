//! The 26 benchmark models (Table 2 substitute).

use melreq_stats::types::Addr;
use melreq_trace::{AddressPattern, OpMix, StreamParams, SyntheticStream};

/// The paper's MEM / ILP classification (Section 4.2: MEM applications
/// gain ≥ 15% under a perfect memory system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// Memory-intensive.
    Mem,
    /// Compute-intensive.
    Ilp,
}

impl std::fmt::Display for AppClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppClass::Mem => write!(f, "M"),
            AppClass::Ilp => write!(f, "I"),
        }
    }
}

/// Which "simpoint" of the program to run: the paper randomly selects a
/// 10 M-instruction slice for profiling and different 100 M-instruction
/// slices for evaluation. For a statistical model this maps to disjoint
/// RNG seeds of the same parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SliceKind {
    /// The off-line profiling slice used to measure memory efficiency.
    Profiling,
    /// An evaluation slice; the index lets experiments draw several
    /// distinct slices.
    Evaluation(u32),
}

impl SliceKind {
    fn seed_offset(self) -> u64 {
        match self {
            SliceKind::Profiling => 0,
            SliceKind::Evaluation(k) => 0x1000 + k as u64,
        }
    }
}

/// One benchmark model.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Benchmark name (e.g. "swim").
    pub name: &'static str,
    /// Single-letter code used by the workload tables (Table 2/3).
    pub code: char,
    /// MEM or ILP class per Table 2.
    pub class: AppClass,
    /// Stream model parameters.
    pub params: StreamParams,
}

impl AppSpec {
    /// Instantiate the program for `core_index` (placing its data and code
    /// in a disjoint address region) running slice `slice`.
    pub fn build_stream(&self, core_index: usize, slice: SliceKind) -> SyntheticStream {
        let data_base: Addr = ((core_index as u64) + 1) << 33;
        let code_base: Addr = data_base + (1 << 30);
        // Seed mixes the program identity, the core and the slice so every
        // (app, slot, slice) triple is a distinct but reproducible stream.
        let seed = (self.code as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((core_index as u64) << 8)
            .wrapping_add(slice.seed_offset());
        SyntheticStream::new(self.name, self.params.clone(), data_base, code_base, seed)
    }
}

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

fn mem_params(mem_frac: f64, ws: u64, seq: f64, chase: f64, mix: OpMix, dep: f64) -> StreamParams {
    StreamParams {
        mem_frac,
        load_frac: 0.72,
        pattern: AddressPattern { working_set: ws, seq_prob: seq, stride: 8, chase_prob: chase },
        mix,
        mean_dep_dist: dep,
        chase_dep_frac: if chase > 0.0 { 0.3 } else { 0.0 },
        mispredict_rate: 0.02,
        code_footprint: 64 * KB,
    }
}

fn ilp_params(mem_frac: f64, ws: u64, dep: f64, mispredict: f64, mix: OpMix) -> StreamParams {
    StreamParams {
        mem_frac,
        load_frac: 0.70,
        pattern: AddressPattern { working_set: ws, seq_prob: 0.6, stride: 8, chase_prob: 0.0 },
        mix,
        mean_dep_dist: dep,
        chase_dep_frac: 0.0,
        mispredict_rate: mispredict,
        code_footprint: 32 * KB,
    }
}

/// The full Table 2 roster: 26 models with per-benchmark parameters.
///
/// The tuning targets the paper's *relative* memory-efficiency landscape:
/// streaming FP MEM codes near the bottom (ME ≈ 1–4), irregular MEM codes
/// low, lighter MEM codes in the tens, and cache-resident ILP codes from
/// the tens to the thousands.
pub fn spec2000() -> Vec<AppSpec> {
    let fp = OpMix::floating();
    let int = OpMix::integer();
    vec![
        // --- Integer suite ---
        AppSpec {
            name: "gzip",
            code: 'a',
            class: AppClass::Ilp,
            params: ilp_params(0.25, 256 * KB, 3.0, 0.02, int),
        },
        AppSpec {
            name: "vpr",
            code: 'f',
            class: AppClass::Mem,
            params: mem_params(0.045, 16 * MB, 0.60, 0.10, int, 3.5),
        },
        AppSpec {
            name: "gcc",
            code: 'g',
            class: AppClass::Mem,
            params: mem_params(0.05, 16 * MB, 0.65, 0.06, int, 3.5),
        },
        AppSpec {
            name: "mcf",
            code: 'k',
            class: AppClass::Mem,
            params: mem_params(0.08, 48 * MB, 0.15, 0.45, int, 2.5),
        },
        AppSpec {
            name: "crafty",
            code: 'm',
            class: AppClass::Ilp,
            params: ilp_params(0.22, 320 * KB, 3.5, 0.03, int),
        },
        AppSpec {
            name: "parser",
            code: 'r',
            class: AppClass::Ilp,
            params: ilp_params(0.28, 512 * KB, 2.5, 0.04, int),
        },
        AppSpec {
            name: "eon",
            code: 't',
            class: AppClass::Ilp,
            params: ilp_params(0.20, 48 * KB, 4.0, 0.01, int),
        },
        AppSpec {
            name: "perlbmk",
            code: 'u',
            class: AppClass::Ilp,
            params: ilp_params(0.22, 96 * KB, 3.5, 0.015, int),
        },
        AppSpec {
            name: "gap",
            code: 'v',
            class: AppClass::Mem,
            params: mem_params(0.08, 16 * MB, 0.65, 0.05, int, 5.0),
        },
        AppSpec {
            name: "vortex",
            code: 'w',
            class: AppClass::Ilp,
            params: ilp_params(0.27, 448 * KB, 2.8, 0.03, int),
        },
        AppSpec {
            name: "bzip2",
            code: 'x',
            class: AppClass::Ilp,
            params: ilp_params(0.24, 384 * KB, 3.0, 0.02, int),
        },
        AppSpec {
            name: "twolf",
            code: 'y',
            class: AppClass::Ilp,
            params: ilp_params(0.24, 128 * KB, 3.0, 0.02, int),
        },
        // --- Floating-point suite ---
        AppSpec {
            name: "wupwise",
            code: 'b',
            class: AppClass::Mem,
            params: mem_params(0.05, 16 * MB, 0.80, 0.0, fp, 5.0),
        },
        AppSpec {
            name: "swim",
            code: 'c',
            class: AppClass::Mem,
            params: mem_params(0.26, 64 * MB, 0.92, 0.0, fp, 9.0),
        },
        AppSpec {
            name: "mgrid",
            code: 'd',
            class: AppClass::Mem,
            params: mem_params(0.24, 32 * MB, 0.88, 0.0, fp, 9.0),
        },
        AppSpec {
            name: "applu",
            code: 'e',
            class: AppClass::Mem,
            params: mem_params(0.28, 96 * MB, 0.90, 0.0, fp, 9.0),
        },
        AppSpec {
            name: "mesa",
            code: 'h',
            class: AppClass::Ilp,
            params: ilp_params(0.26, 512 * KB, 3.0, 0.02, fp),
        },
        AppSpec {
            name: "galgel",
            code: 'i',
            class: AppClass::Mem,
            params: mem_params(0.14, 16 * MB, 0.75, 0.0, fp, 7.0),
        },
        AppSpec {
            name: "art",
            code: 'j',
            class: AppClass::Mem,
            params: mem_params(0.05, 16 * MB, 0.70, 0.05, fp, 4.0),
        },
        AppSpec {
            name: "equake",
            code: 'l',
            class: AppClass::Mem,
            params: mem_params(0.25, 48 * MB, 0.80, 0.10, fp, 8.0),
        },
        AppSpec {
            name: "facerec",
            code: 'n',
            class: AppClass::Mem,
            params: mem_params(0.035, 16 * MB, 0.85, 0.0, fp, 5.0),
        },
        AppSpec {
            name: "ammp",
            code: 'o',
            class: AppClass::Ilp,
            params: ilp_params(0.24, 256 * KB, 3.2, 0.02, fp),
        },
        AppSpec {
            name: "lucas",
            code: 'p',
            class: AppClass::Mem,
            params: mem_params(0.26, 80 * MB, 0.85, 0.05, fp, 8.0),
        },
        AppSpec {
            name: "fma3d",
            code: 'q',
            class: AppClass::Mem,
            params: mem_params(0.22, 24 * MB, 0.70, 0.05, fp, 8.0),
        },
        AppSpec {
            name: "sixtrack",
            code: 's',
            class: AppClass::Ilp,
            params: ilp_params(0.25, 512 * KB, 3.0, 0.02, fp),
        },
        AppSpec {
            name: "apsi",
            code: 'z',
            class: AppClass::Ilp,
            params: ilp_params(0.27, 640 * KB, 2.8, 0.03, fp),
        },
    ]
}

/// Look up an application by its Table 2 single-letter code.
pub fn app_by_code(code: char) -> AppSpec {
    spec2000()
        .into_iter()
        .find(|a| a.code == code)
        .unwrap_or_else(|| panic!("unknown application code '{code}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_trace::InstrStream;

    #[test]
    fn roster_has_26_unique_codes() {
        let apps = spec2000();
        assert_eq!(apps.len(), 26);
        let mut codes: Vec<char> = apps.iter().map(|a| a.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 26, "duplicate codes");
    }

    #[test]
    fn class_split_matches_table_2() {
        let apps = spec2000();
        let mem = apps.iter().filter(|a| a.class == AppClass::Mem).count();
        let ilp = apps.iter().filter(|a| a.class == AppClass::Ilp).count();
        assert_eq!(mem, 14, "Table 2 has 14 MEM applications");
        assert_eq!(ilp, 12, "Table 2 has 12 ILP applications");
    }

    #[test]
    fn table2_codes_resolve() {
        for (code, name) in [('a', "gzip"), ('c', "swim"), ('k', "mcf"), ('t', "eon")] {
            assert_eq!(app_by_code(code).name, name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown application code")]
    fn bad_code_panics() {
        let _ = app_by_code('!');
    }

    #[test]
    fn mem_apps_exceed_l2_ilp_apps_fit() {
        // MEM working sets must not fit in the 4 MB shared L2 alone; a
        // single ILP app must fit comfortably.
        for a in spec2000() {
            match a.class {
                AppClass::Mem => assert!(
                    a.params.pattern.working_set > 4 << 20,
                    "{} working set fits in L2",
                    a.name
                ),
                AppClass::Ilp => assert!(
                    a.params.pattern.working_set <= 2 << 20,
                    "{} working set too large for ILP class",
                    a.name
                ),
            }
        }
    }

    #[test]
    fn streams_are_core_and_slice_distinct() {
        let app = app_by_code('c');
        let mut a = app.build_stream(0, SliceKind::Profiling);
        let mut b = app.build_stream(0, SliceKind::Evaluation(0));
        let mut c = app.build_stream(1, SliceKind::Profiling);
        let mut same_ab = 0;
        for _ in 0..256 {
            let (oa, ob, oc) = (a.next_op(), b.next_op(), c.next_op());
            if oa == ob {
                same_ab += 1;
            }
            // Different core slots use disjoint address regions.
            assert_ne!(oa.pc >> 33, oc.pc >> 33);
        }
        assert!(same_ab < 128, "profiling and evaluation slices identical");
    }

    #[test]
    fn streams_are_reproducible() {
        let app = app_by_code('k');
        let mut a = app.build_stream(2, SliceKind::Evaluation(3));
        let mut b = app.build_stream(2, SliceKind::Evaluation(3));
        for _ in 0..512 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}
