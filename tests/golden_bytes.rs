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
//! The literals were taken at the commit *before* the compiler's passes
//! moved to dense tables and are never edited by a change that claims to
//! emit the same programs. A deliberate change to what the compiler emits
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
        [0x0acffb685b24ada5, 0x9950fc77b3571f91, 0xc277b71c76d29b0b],
    ),
    (
        "mnist",
        [0x3c9de5455cd796bf, 0xdc98bf05fe3e8abe, 0x8f9215efff3dd476],
    ),
    (
        "nltcs",
        [0x68fd5c7a53e28aba, 0x87f2eb6477a3d5b2, 0xa2de360f122c5bbf],
    ),
    (
        "msnbc",
        [0xc619a40c5d6fc11d, 0x3995313dd3e157ed, 0xfa953b6c2da1a389],
    ),
    (
        "msweb",
        [0x4ce9c8ddff6b4ef6, 0x7eb38f45e9f7fe5b, 0x32a07bc2bd9ea170],
    ),
    (
        "bnetflix",
        [0x2e98b9790629c256, 0x8d105dd592607ed0, 0x843fcee5d862a9c2],
    ),
    (
        "bp_200",
        [0x88e0598597d439f7, 0xee602c1b8c1cf5f1, 0xec559a2188cc9863],
    ),
    (
        "west2021",
        [0x276cfd30f09d5ac2, 0x58589831fa44c24f, 0x85f9cba636e74770],
    ),
    (
        "sieber",
        [0x36f582d89cfe3e01, 0xbccb1ade923490ec, 0x57ec28fc65bc9d08],
    ),
    (
        "jagmesh4",
        [0x21051ef17874b80b, 0x292d799b90c15f1d, 0xbadba56ebd4a6b57],
    ),
    (
        "rdb968",
        [0x92178a32d2b7af8b, 0x3ae12e9432fc0695, 0xc87326e2f262678c],
    ),
    (
        "dw2048",
        [0xe8f3bcede9e3090f, 0x5a0c16010967d0a5, 0x284ac05760427eb7],
    ),
];

const SCALE_0_25: [(&str, [u64; 3]); 12] = [
    (
        "tretail",
        [0xc8409f18680611c7, 0x4a79465be2636f36, 0x7f5e7076ddb9e635],
    ),
    (
        "mnist",
        [0xfb0086cddcf7036a, 0xb8684cfb331f4966, 0x32f42274ef5ba223],
    ),
    (
        "nltcs",
        [0xdcf3d300fc003b94, 0xc10a9f7aafeab7f1, 0x47eb6d21a1af7300],
    ),
    (
        "msnbc",
        [0x68ce832122e08802, 0xbe6a82f7bacf4e54, 0x069a0e20571bcc63],
    ),
    (
        "msweb",
        [0x21e84bacdb9c22ed, 0x4bca14927d3b51bd, 0x223ff44b6973267c],
    ),
    (
        "bnetflix",
        [0xa0c34b2f0f9416d0, 0xa8a81a6af55b85ef, 0x6adfaff52ab3cdcc],
    ),
    (
        "bp_200",
        [0x2256b601dac8fcdd, 0x637d131521d36f48, 0x9ed9064183a2a30b],
    ),
    (
        "west2021",
        [0x0c34497ef8d3c1db, 0x0f98c35c75d97f0c, 0x927fa20b085a0459],
    ),
    (
        "sieber",
        [0xf84a670de1a722f7, 0xe9b23183baa75ab2, 0x670b22f97ab8d652],
    ),
    (
        "jagmesh4",
        [0xb13dfae9d60fc11b, 0x89a373af27f10ed0, 0x6d64dc11da7d058d],
    ),
    (
        "rdb968",
        [0xd169451579d043f4, 0xdde67c2c813e289d, 0x41077d11c2f33c7b],
    ),
    (
        "dw2048",
        [0xe1dfc684ff0f3555, 0xb73c46777edb0df4, 0x8e01bedc43dbd882],
    ),
];

const SCALE_1_00: [(&str, [u64; 3]); 12] = [
    (
        "tretail",
        [0x2b4c890c22ee3a2b, 0x823aef329e991b57, 0xa9bc79667328d8db],
    ),
    (
        "mnist",
        [0x4133253ded1ab1aa, 0x20679064b62c8bfd, 0xb36bb7cba5d4349b],
    ),
    (
        "nltcs",
        [0x9473bb7512849114, 0x64753d692ef85355, 0x1df092e9aeb6b4bc],
    ),
    (
        "msnbc",
        [0x1d1aadfbfd89e7a4, 0xda4f70c4381406b3, 0x7644bbf8c1247e01],
    ),
    (
        "msweb",
        [0xde03d33c3ce2c2df, 0x52bd76a0865ae05c, 0x77b6db7816420e45],
    ),
    (
        "bnetflix",
        [0x0af84c1a426d21f8, 0x7cb12b23e75ed6a1, 0x49637044d587719c],
    ),
    (
        "bp_200",
        [0x03755c6eb188c27f, 0x60ca0dc876eae268, 0x038ad53ba2f21a74],
    ),
    (
        "west2021",
        [0x7a470f905fbe3748, 0x8658abfbf50c79fe, 0x52c203456bdfca98],
    ),
    (
        "sieber",
        [0xf1d5afbb9e98e93e, 0xea334e56a905d28d, 0xd462988c753b8924],
    ),
    (
        "jagmesh4",
        [0x097caf6d0a5f40e9, 0x5ee10d58e7a7e5cb, 0xf8a8d73b6cfdd0e6],
    ),
    (
        "rdb968",
        [0xf0cd68f0ac5dd4c2, 0x24dc033431a27611, 0xac18611c0bdc0506],
    ),
    (
        "dw2048",
        [0x0122c92392373253, 0x7c5076fc7303a2ac, 0xa63686e7465e5936],
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
    ("spilling, R = 4", [0x891ab8fe17636351, 0x36e684dccf550af6]),
    (
        "BankPolicy::Random",
        [0x584de905cf3ba35c, 0xc2517d9c908d8b2a],
    ),
    (
        "partition_threshold: 500",
        [0x6bc9009b9afdad97, 0x31483cdd29ecdf65],
    ),
    (
        "Topology::CrossbarBoth",
        [0x5127538919d49d7f, 0xc3ae841e230d537a],
    ),
    ("B = 128", [0xae64bfc78f8c3f6e, 0x135fedfd049cab75]),
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
