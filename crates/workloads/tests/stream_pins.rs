//! The 26 application streams, pinned op by op.
//!
//! Every result in the tree is a function of these streams, and the
//! generator is on the kernel's hot path, so it gets rewritten for speed.
//! The constants below were captured before such a rewrite (PR 17, at the
//! parent commit): FNV-1a over the first 100 000 `MicroOp`s of each
//! application's profiling slice and evaluation slice 0 on core 0. A
//! generator change that alters one draw of one stream fails here, by
//! name, before it shows up as a moved results hash. Each stream is
//! hashed twice, on its own and read through a [`TapedStream`] (24 chunks
//! of its tape): the forked runs of a sweep see their ops that way.

use melreq_snap::{fnv1a, fnv1a_from};
use melreq_trace::{InstrStream, MicroOp, OpKind, OpTape, TapedStream};
use melreq_workloads::{spec2000, SliceKind};

const OPS: usize = 100_000;

/// `(code, profiling-slice hash, evaluation-slice-0 hash)`.
const PINS: [(char, u64, u64); 26] = [
    ('a', 0x485f_b498_6da5_f091, 0x9c3d_9f49_988d_975d),
    ('f', 0x0f5d_4d76_6f65_f6d6, 0xe971_5218_1487_e028),
    ('g', 0xd629_f850_3cf0_61df, 0x5717_fa3c_a099_6c9c),
    ('k', 0xc53c_8ea2_a857_31a2, 0x226b_445f_8903_14d8),
    ('m', 0x700f_8ea4_69ce_d896, 0xeaef_d03c_6797_2925),
    ('r', 0x3d17_2218_0c00_1452, 0xa913_8bd2_8a3a_20a3),
    ('t', 0x282f_0ca4_4e6e_caf8, 0x382d_18a4_5232_557f),
    ('u', 0x8269_1b44_2eed_230a, 0x88d2_cb3e_539a_4796),
    ('v', 0xc4c7_acba_b23c_0b2e, 0x7069_0782_5407_aa20),
    ('w', 0x1ff4_ad05_8487_5409, 0x19c8_5c35_e42f_5fe9),
    ('x', 0x1717_6cc3_c2fe_7779, 0x4641_4df6_6d92_3146),
    ('y', 0x62fc_5a31_16bf_3cc0, 0xd9a3_71c4_2c2f_b49e),
    ('b', 0xa54e_f939_d499_e0cd, 0xb856_24ac_9871_82a7),
    ('c', 0xc079_8c4e_c380_c36f, 0x10f3_b4e3_0407_6471),
    ('d', 0x1438_a7f5_acde_e8a7, 0x5008_0465_6b88_1b22),
    ('e', 0xde38_2a88_6670_eb86, 0xce60_c9b6_db3f_d947),
    ('h', 0x5d9f_97a5_3bb0_2053, 0x0bb1_3713_50e4_2ba6),
    ('i', 0xad91_bcca_dfb6_5334, 0x222d_c658_d40d_9b9f),
    ('j', 0xdb42_946a_3179_5aba, 0xe217_6958_1ce4_cd67),
    ('l', 0x6758_dce4_bf9d_baab, 0x02ac_ea03_7a14_9e65),
    ('n', 0xeea1_3303_370b_4f8b, 0x390a_5615_3796_5f71),
    ('o', 0x86d0_469b_cbfe_0cdf, 0x0586_c84b_1020_1d14),
    ('p', 0xb437_0dfc_6b7e_3982, 0x600c_5391_a588_2def),
    ('q', 0xffe6_063a_e8a0_f98f, 0xffb6_9343_244b_cfe2),
    ('s', 0xf189_216b_c1af_e30a, 0xac98_7a6c_9a94_50a4),
    ('z', 0xe9e5_3783_1b47_457f, 0xb062_c21d_76af_fc6a),
];

fn hash_ops(stream: &mut dyn InstrStream) -> u64 {
    let mut hash = fnv1a(&[]);
    for _ in 0..OPS {
        let MicroOp { pc, kind, dep_dist } = stream.next_op();
        let (tag, operand) = match kind {
            OpKind::IntAlu => (0, 0),
            OpKind::IntMult => (1, 0),
            OpKind::FpAlu => (2, 0),
            OpKind::FpMult => (3, 0),
            OpKind::Branch { mispredict } => (4, u64::from(mispredict)),
            OpKind::Load { addr } => (5, addr),
            OpKind::Store { addr } => (6, addr),
        };
        for word in [pc, tag, operand, u64::from(dep_dist)] {
            hash = fnv1a_from(hash, &word.to_le_bytes());
        }
    }
    hash
}

#[test]
fn first_100k_ops_of_every_stream_are_pinned() {
    let apps = spec2000();
    assert_eq!(apps.len(), PINS.len(), "one pin per application");
    for (app, (code, profiling, evaluation)) in apps.iter().zip(PINS) {
        assert_eq!(app.code, code, "pins follow the roster order");
        let stream = |taped: bool, slice: SliceKind| -> Box<dyn InstrStream> {
            let plain = || Box::new(app.build_stream(0, slice));
            if taped {
                Box::new(TapedStream::new(OpTape::new(plain()), plain()))
            } else {
                plain()
            }
        };
        for taped in [false, true] {
            let got = (
                hash_ops(&mut *stream(taped, SliceKind::Profiling)),
                hash_ops(&mut *stream(taped, SliceKind::Evaluation(0))),
            );
            assert_eq!(
                got,
                (profiling, evaluation),
                "{} ({code}, taped: {taped}): ops moved — ('{code}', {:#018x}, {:#018x})",
                app.name,
                got.0,
                got.1
            );
        }
    }
}
