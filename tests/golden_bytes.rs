//! Golden bytes: the compiler's output, pinned byte for byte.
//!
//! Every cell is FNV-1a ([`dpu_core::isa::Fnv1a`]) over
//! [`Compiled::to_bytes`] with `stats.compile_ms` zeroed (the one
//! wall-clock field in the payload): the Table I small suite on the three
//! Fig. 11 optima at three scales, plus five cells that leave the default
//! path (a spilling point, the random bank policy, the partitioned path,
//! a crossbar output interconnect, and `B = 128`). Each cell is compiled
//! twice and the two byte strings compared, so "a recompile is
//! byte-identical" is checked over the whole table as well.
//!
//! The literals were last regenerated when step 1 (`decompose`) began to
//! schedule blocks by readiness, and are never edited by a change that
//! claims to emit the same programs. A deliberate change to what the
//! compiler emits regenerates them: a failing test prints its table in
//! literal form.
//!
//! Scale 0.1 runs in every build; 0.25 and 1.0 are release-only (seconds
//! there, minutes in a debug build):
//! `cargo test --release -q --test golden_bytes`.

use dpu_core::compiler::{compile, BankPolicy, CompileOptions, Compiled};
use dpu_core::dag::Dag;
use dpu_core::isa::{ArchConfig, Fnv1a, Topology};
use dpu_core::workloads::suite;

/// The three Fig. 11 optima `dse_sweep` compiles for: min-EDP, min-latency
/// and min-energy.
const CONFIGS: [(u32, u32, u32); 3] = [(3, 64, 32), (3, 64, 128), (3, 16, 64)];

fn golden(compiled: &Compiled) -> u64 {
    let mut c = compiled.clone();
    c.stats.compile_ms = 0.0;
    let mut h = Fnv1a::default();
    h.bytes(&c.to_bytes());
    h.finish()
}

/// Compiles twice, checks the two results are byte-identical, returns the
/// hash and the program.
fn cell(dag: &Dag, cfg: &ArchConfig, opts: &CompileOptions, what: &str) -> (u64, Compiled) {
    let first = compile(dag, cfg, opts).unwrap_or_else(|e| panic!("{what}: {e}"));
    let again = compile(dag, cfg, opts).unwrap_or_else(|e| panic!("{what}: {e}"));
    let (a, b) = (golden(&first), golden(&again));
    assert_eq!(a, b, "{what}: a recompile changed the bytes");
    (a, first)
}

fn suite_table(scale: f64) -> Vec<(&'static str, [u64; 3])> {
    suite::small_suite()
        .iter()
        .map(|spec| {
            let dag = spec.generate_scaled(scale);
            let row = CONFIGS.map(|(d, b, r)| {
                let cfg = ArchConfig::new(d, b, r).expect("Fig. 11 optimum");
                let what = format!("{} at scale {scale} on ({d},{b},{r})", spec.name);
                cell(&dag, &cfg, &CompileOptions::default(), &what).0
            });
            (spec.name, row)
        })
        .collect()
}

fn assert_table(scale: f64, expected: &[(&str, [u64; 3])]) {
    let actual = suite_table(scale);
    let printed: String = actual
        .iter()
        .map(|(name, [a, b, c])| format!("    ({name:?}, [{a:#018x}, {b:#018x}, {c:#018x}]),\n"))
        .collect();
    assert!(
        actual == expected,
        "compiled bytes moved at scale {scale}; this build's table:\n{printed}"
    );
}

const SCALE_0_10: [(&str, [u64; 3]); 12] = [
    (
        "tretail",
        [0x1d82d2391fc1e18c, 0x4dc19e8688285221, 0x73c7f103e6d64991],
    ),
    (
        "mnist",
        [0xe6fda498411ff0e0, 0x7cfc15e1227d7421, 0xd6d956f83a00f5e3],
    ),
    (
        "nltcs",
        [0xea94ce26062ed3cb, 0x306422aaa2ace7dd, 0x3a637daf40ff28fb],
    ),
    (
        "msnbc",
        [0x4575cb3644918632, 0x51fc2eaea1f80b6c, 0xcedc9ef8fdaca91a],
    ),
    (
        "msweb",
        [0xc16fc2551ac7bc70, 0x1b769a75d63cb14e, 0xac5c4b299c9a2023],
    ),
    (
        "bnetflix",
        [0xaf34799712002977, 0x332747db67b4f06f, 0xe045126fb6af2e1a],
    ),
    (
        "bp_200",
        [0x2b6f2241eef478de, 0x8708c79bb46e3e66, 0x40541e728233d3a3],
    ),
    (
        "west2021",
        [0x0e68f4b466feaa56, 0x67896a8a7512ff44, 0x515dc4a19d81c7ae],
    ),
    (
        "sieber",
        [0x946afbe2d6a2989c, 0x423dac2257645563, 0x5906e4072e79fd03],
    ),
    (
        "jagmesh4",
        [0x1753fc5671095c98, 0xae72460b731012be, 0xf4ece6dd57d78797],
    ),
    (
        "rdb968",
        [0xe84c1d085c205997, 0xff486a63491494d8, 0x7f35148d29334784],
    ),
    (
        "dw2048",
        [0x65e734e3b2a004b5, 0x84007efe039d304f, 0x878b16cfa74433f8],
    ),
];

const SCALE_0_25: [(&str, [u64; 3]); 12] = [
    (
        "tretail",
        [0x1bdf9e37e6b3c0f2, 0x28c1e81c2df7d72d, 0x36170307134fb449],
    ),
    (
        "mnist",
        [0x5edd178048b18f6a, 0xf6b155927d28fb93, 0xe52d5b985d9699f2],
    ),
    (
        "nltcs",
        [0x348204524ce659c2, 0x6509cf214196e733, 0xea80e0b895a43ec2],
    ),
    (
        "msnbc",
        [0x13c8148f185636ff, 0x415644612a8f3530, 0xb8c7a2218f90fd1f],
    ),
    (
        "msweb",
        [0x32999250ff81f3f4, 0xe1067b07fb2671db, 0x2eee92c1e3a4edba],
    ),
    (
        "bnetflix",
        [0x5b826ced105c39fe, 0x99b08f05dc1a1c20, 0x2f037da5b73343db],
    ),
    (
        "bp_200",
        [0xbc66fdf08b76f12b, 0x914d22aa587de455, 0xef1b0da9f6d3d8a2],
    ),
    (
        "west2021",
        [0xf82e3ad7e2269ae9, 0x4b1117a3607eb9f7, 0x979988069da54f16],
    ),
    (
        "sieber",
        [0x5ba0bec69397eeb7, 0x19ce77a8da588810, 0x974845b738758cea],
    ),
    (
        "jagmesh4",
        [0x38527a2d9b8441cd, 0xab0b35cbb043b14a, 0x419ccdf9ad0068b1],
    ),
    (
        "rdb968",
        [0x6e1c5921679ffc09, 0x4b3f315ea5317aa0, 0xecbe213e09189177],
    ),
    (
        "dw2048",
        [0x47a7d0f535192b57, 0xb684e21f3c672a81, 0x9f6cf1ab80c684f0],
    ),
];

const SCALE_1_00: [(&str, [u64; 3]); 12] = [
    (
        "tretail",
        [0x529ed087f24b8fb2, 0x865f46793c344d97, 0x994b570051d99ed7],
    ),
    (
        "mnist",
        [0xefa68ccde21393d2, 0x6d0a748fb9be2f67, 0xe13b1d6a81f4f68e],
    ),
    (
        "nltcs",
        [0x88b186918cc8036f, 0xbb7824af99ba387e, 0xe1df3d8db8c67375],
    ),
    (
        "msnbc",
        [0x086c28e293099ae5, 0x87f91f2dda6deec3, 0x8c181fe85a4d107f],
    ),
    (
        "msweb",
        [0x1fbdcf6beab5fea4, 0x1b43b7e24ef75197, 0xa4c8342806748775],
    ),
    (
        "bnetflix",
        [0x817379c5e681ea98, 0x4240736fa38e9f99, 0xd1099cf5e2cb2f77],
    ),
    (
        "bp_200",
        [0x484a64291b5d88f2, 0xa345f1f97b0593d9, 0xe825e335a8bb4739],
    ),
    (
        "west2021",
        [0x28e1f329b718df1e, 0xd3e5a9c989087d8a, 0x266e4ae8412e9a91],
    ),
    (
        "sieber",
        [0x1f256d88bcf0f075, 0x302d62f4be5cbf73, 0x9533841f554fac12],
    ),
    (
        "jagmesh4",
        [0x496fe1eeaa4ca1ef, 0x818c15b8b3ec4e3a, 0x819419411406985b],
    ),
    (
        "rdb968",
        [0x5c37284447e01b45, 0x74b0210d894c8dde, 0x5ce894f79f00ac36],
    ),
    (
        "dw2048",
        [0xe51c85a1bab17c0a, 0xfb020f58ab68f56c, 0x1c98ebb507e47d21],
    ),
];

#[test]
fn small_suite_at_scale_0_10() {
    assert_table(0.1, &SCALE_0_10);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "quarter-scale suite: release builds only")]
fn small_suite_at_scale_0_25() {
    assert_table(0.25, &SCALE_0_25);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale suite: release builds only")]
fn small_suite_at_scale_1_00() {
    assert_table(1.0, &SCALE_1_00);
}

/// The five cells off the default path, each on one PC (`tretail`) and one
/// SpTRSV (`bp_200`) at scale 0.1: `[pc, sptrsv]`.
const OFF_DEFAULT_PATH: [(&str, [u64; 2]); 5] = [
    ("spilling, R = 4", [0x9e13957769079f31, 0x4954a89b12e3155f]),
    (
        "BankPolicy::Random",
        [0xfa5b9d4a6e62d401, 0xbcf99519ac0cd535],
    ),
    (
        "partition_threshold: 500",
        [0x705c17fdc9e97417, 0x0c9b182e565df95f],
    ),
    (
        "Topology::CrossbarBoth",
        [0x193b3f2b7939c2ff, 0x85e61ce03a8ebd03],
    ),
    ("B = 128", [0xecc90e2c46493764, 0xce0d9e3f0a3a18d9]),
];

#[test]
fn cells_off_the_default_path() {
    let specs = suite::small_suite();
    let dags = ["tretail", "bp_200"].map(|name| {
        let spec = specs.iter().find(|s| s.name == name).expect("in Table I");
        spec.generate_scaled(0.1)
    });
    let default = CompileOptions::default();
    let cells: [(&str, ArchConfig, CompileOptions); 5] = [
        (
            "spilling, R = 4",
            ArchConfig::new(3, 16, 4).expect("valid"),
            default.clone(),
        ),
        (
            "BankPolicy::Random",
            ArchConfig::min_edp(),
            CompileOptions {
                bank_policy: BankPolicy::Random,
                ..default.clone()
            },
        ),
        (
            "partition_threshold: 500",
            ArchConfig::min_edp(),
            CompileOptions {
                partition_threshold: 500,
                ..default.clone()
            },
        ),
        (
            "Topology::CrossbarBoth",
            ArchConfig::with_topology(3, 64, 32, Topology::CrossbarBoth).expect("valid"),
            default.clone(),
        ),
        (
            "B = 128",
            ArchConfig::new(3, 128, 32).expect("valid"),
            default.clone(),
        ),
    ];
    let actual: Vec<(&str, [u64; 2])> = cells
        .iter()
        .map(|(name, cfg, opts)| {
            let row = [0, 1].map(|i| {
                let what = format!("{name}, dag {i}");
                let (hash, compiled) = cell(&dags[i], cfg, opts, &what);
                if cfg.regs_per_bank == 4 {
                    assert!(compiled.stats.spill_stores > 0, "{what}: expected to spill");
                }
                hash
            });
            (*name, row)
        })
        .collect();
    let printed: String = actual
        .iter()
        .map(|(name, [a, b])| format!("    ({name:?}, [{a:#018x}, {b:#018x}]),\n"))
        .collect();
    assert!(
        actual == OFF_DEFAULT_PATH,
        "compiled bytes moved off the default path; this build's table:\n{printed}"
    );
}
