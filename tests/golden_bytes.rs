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
//! The literals were last regenerated when step 3 (`reorder`) took its
//! critical-path priority and write-port reservations, and are never
//! edited by a change that claims to emit the same programs. A deliberate change to what the compiler emits
//! regenerates them: a failing test prints its table in literal form.
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
        [0x25a7a3b9477aa775, 0x7f92844a21c87fde, 0xcba00f794e55776b],
    ),
    (
        "mnist",
        [0xe188816eab04a3a7, 0x55b2c8b812328211, 0x13b168e2c4407ac8],
    ),
    (
        "nltcs",
        [0x3a608540239530b8, 0xea4c18444da30d91, 0x27bc24f46f25281d],
    ),
    (
        "msnbc",
        [0xeb9b08c723a44c58, 0xd242d8dc9ab3a835, 0x65f11ad8ffd62f7e],
    ),
    (
        "msweb",
        [0x9934cf54bda70be8, 0x61a0da5ba18d9003, 0x62fa81c19e8635c5],
    ),
    (
        "bnetflix",
        [0xd868c60d3dffa9b7, 0x5d8dca88c263496f, 0xf05f64992de8390d],
    ),
    (
        "bp_200",
        [0x883dae45491819a9, 0xf3913c67f20b4d7f, 0xc0e61aa89e302970],
    ),
    (
        "west2021",
        [0x966455035b327c6a, 0xcbf76ffe461d04ef, 0x82481da2bed5aaa3],
    ),
    (
        "sieber",
        [0xccc8c8831180c746, 0x36856d5ac78e55b8, 0x48224bb6846ebcb0],
    ),
    (
        "jagmesh4",
        [0x0b6ddbc6936b491c, 0x944c4674fe753089, 0x38e122f9daac6a3c],
    ),
    (
        "rdb968",
        [0x02d2ef8df7b8327d, 0xfbc8edd2695362d6, 0x9505f5e6ab6567ef],
    ),
    (
        "dw2048",
        [0x6187e88e1c333281, 0xcbec2ff869ca08af, 0xecbbad13e34983dc],
    ),
];

const SCALE_0_25: [(&str, [u64; 3]); 12] = [
    (
        "tretail",
        [0x44f4a2776af3ce4d, 0x5ed670688219a3d1, 0x53483f072e87c01f],
    ),
    (
        "mnist",
        [0x996709ca6d4c59f8, 0xb24647c1aecb9c5c, 0xa6b2e6547d01d6c8],
    ),
    (
        "nltcs",
        [0x008b8bf54c743b80, 0x6f7fcde36d0ba6b8, 0xd737100c650b8ad1],
    ),
    (
        "msnbc",
        [0x0d0082a0631d9ab0, 0x3d74fa390089dc18, 0x2af05cdf78196c41],
    ),
    (
        "msweb",
        [0x18d45ea493716ece, 0x70a8cc665e3eed6c, 0xf70fd92cc1548bef],
    ),
    (
        "bnetflix",
        [0x26e06d2fd3d4d068, 0x1764808ec3c783e7, 0x9ea22da7bca02ade],
    ),
    (
        "bp_200",
        [0x01bdec974022f2f5, 0x396500a60855c54e, 0x844c7a2c474116a3],
    ),
    (
        "west2021",
        [0xcbd4f7142e8a9853, 0x032f14638c150a84, 0xcc6ab9a88613e06d],
    ),
    (
        "sieber",
        [0x119d914cb7d0a852, 0xc6eeb1bcb34124e9, 0x726d67dbcbc0fe43],
    ),
    (
        "jagmesh4",
        [0xd4b1804fdd880cd4, 0x1f98c3f525193253, 0x2e966df6b8ed5e42],
    ),
    (
        "rdb968",
        [0x8511b2365d957e63, 0x17c084d25ba971a6, 0xc7854dbac8208acf],
    ),
    (
        "dw2048",
        [0x36dcbd085870fa99, 0xecd089d740e51a3e, 0xc756f2b933da0d37],
    ),
];

const SCALE_1_00: [(&str, [u64; 3]); 12] = [
    (
        "tretail",
        [0x2a41e0f6953046cb, 0x63d2371407bc58d8, 0xb457d6cef4b7ec5e],
    ),
    (
        "mnist",
        [0x9f7e3b3d8475debc, 0x2c42515dd0bb4560, 0xf92f37b297a5a036],
    ),
    (
        "nltcs",
        [0x5fa61e89ac81eec5, 0x88951e3e1b1f6f7a, 0x016d02e1cc71255f],
    ),
    (
        "msnbc",
        [0xc67a9c87e2b32e6c, 0x981162465a68cee4, 0x1e5d56cbfeb7f69f],
    ),
    (
        "msweb",
        [0x2b83ed6f618b2a64, 0x36bbdf999b655f7e, 0xad67f4282da6e7eb],
    ),
    (
        "bnetflix",
        [0xcc28503f7b377855, 0x3593755c9c979456, 0x721d36939badd990],
    ),
    (
        "bp_200",
        [0x175105f449d51b47, 0xb11224a82eb75cc8, 0x7a077e574aa0217a],
    ),
    (
        "west2021",
        [0x09441b7ff1719b7e, 0x69786a81712df2c4, 0xecc5edc6ef6dab7c],
    ),
    (
        "sieber",
        [0x36d394559b50c28f, 0x9f167201d7309b49, 0x22b21d58e0f06b15],
    ),
    (
        "jagmesh4",
        [0xcb6be72900faff6d, 0x9a45230930819be1, 0x8cf0bad564a8d53a],
    ),
    (
        "rdb968",
        [0xe7d46ab5f3a26ac1, 0x8bccce8959d919d8, 0x8e7bffce1a9160a7],
    ),
    (
        "dw2048",
        [0xe4617e9c18e77a48, 0x6137083d074da848, 0xe30fde8b8f7415a2],
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
    ("spilling, R = 4", [0x4440dab0c4b250b0, 0x119b9a287a8f54be]),
    (
        "BankPolicy::Random",
        [0xbed8c40d1b6be8cb, 0x08f28cdd07573fbc],
    ),
    (
        "partition_threshold: 500",
        [0x09ecd673d8abf7ba, 0x9101de640ee98e47],
    ),
    (
        "Topology::CrossbarBoth",
        [0x9c36a5ca64ce87d7, 0xc2f30951d68579c3],
    ),
    ("B = 128", [0xb1ef42709bc6b563, 0xce0d9e3f0a3a18d9]),
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
