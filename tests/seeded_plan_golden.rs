//! Goldens for every seeded decision stream: model faults, crashes, disk
//! and net faults, and the five content perturbations.
//!
//! Chaos runs are only replayable if each plan keeps mapping the same
//! `(seed, rate, key)` to the same decision with the same drawn
//! parameters. This test evaluates every decision function over seeds
//! {0, 7, 42}, rates {0.05, 0.3, 1.0} and keys `0..4096`, renders each
//! scheduled decision as one `key {:?}` line, and compares the result with
//! the committed files under `tests/golden/seeded_plans/`:
//!
//! * the lines for keys `0..64` are pinned verbatim, so a drift shows the
//!   exact decision that changed;
//! * the whole key range is pinned by one FNV-64 digest per 256-key
//!   block over the same lines, with the block's scheduled count.
//!
//! Random keys cannot see an edge of a kind table that drifted by one
//! ulp, so a last test pins the edges themselves to their literals.
//!
//! Bless intentional stream changes with
//! `UPDATE_GOLDEN=1 cargo test --test seeded_plan_golden`.

use std::fmt::{Debug, Write as _};
use std::path::PathBuf;

use smokescreen::rt::fault::{
    pick, CrashKind, CrashPlan, DiskFaultKind, DiskFaultPlan, FaultPlan, KindTable, NetFaultKind,
    NetFaultPlan, CRASH_KINDS, DISK_WRITE_KINDS, NET_KINDS,
};
use smokescreen::rt::journal::checksum64;
use smokescreen::rt::rng::StdRng;
use smokescreen::video::{PerturbKind, PerturbPlan};

const SEEDS: [u64; 3] = [0, 7, 42];
const RATES: [f64; 3] = [0.05, 0.3, 1.0];
const KEYS: u64 = 4096;
const VERBATIM_KEYS: u64 = 64;
const BLOCK: u64 = 256;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/seeded_plans")
}

/// Renders one plan's decisions over `0..KEYS` under a `# label` header.
fn render<T: Debug>(out: &mut String, label: &str, decide: impl Fn(u64) -> Option<T>) {
    writeln!(out, "# {label}").unwrap();
    let lines: Vec<(u64, String)> = (0..KEYS)
        .filter_map(|key| decide(key).map(|d| (key, format!("{key} {d:?}\n"))))
        .collect();
    for (_, line) in lines.iter().filter(|(key, _)| *key < VERBATIM_KEYS) {
        out.push_str(line);
    }
    for lo in (0..KEYS).step_by(BLOCK as usize) {
        let block: String = lines
            .iter()
            .filter(|(key, _)| (lo..lo + BLOCK).contains(key))
            .map(|(_, line)| line.as_str())
            .collect();
        writeln!(
            out,
            "digest {lo}..{} scheduled={} fnv64={:016x}",
            lo + BLOCK,
            block.lines().count(),
            checksum64(block.as_bytes())
        )
        .unwrap();
    }
}

/// Renders `decide` for every (seed, rate) pair of the grid.
fn render_grid<T: Debug>(
    out: &mut String,
    name: &str,
    decide: impl Fn(u64, f64, u64) -> Option<T>,
) {
    for seed in SEEDS {
        for rate in RATES {
            render(out, &format!("{name}({seed}, {rate})"), |key| {
                decide(seed, rate, key)
            });
        }
    }
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if golden != actual {
        let (line, want, got) = golden
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| (i + 1, a, b))
            .unwrap_or((golden.lines().count().min(actual.lines().count()) + 1, "<end>", "<end>"));
        panic!(
            "{name} drifted from the pinned decision stream at line {line}:\n  \
             golden: {want}\n  actual: {got}\n\
             (bless intentional changes with UPDATE_GOLDEN=1)"
        );
    }
}

#[test]
fn fault_plan_stream_is_pinned() {
    let mut out = String::new();
    render_grid(&mut out, "FaultPlan::new", |seed, rate, key| {
        FaultPlan::new(seed, rate).fault_for(key)
    });
    // Explicit per-mode rates: one mix summing below 1, and one summing
    // past 1, where the coin always hits and the last mode takes the tail.
    for seed in SEEDS {
        for rates in [[0.02, 0.1, 0.05, 0.03], [0.3, 0.3, 0.3, 0.3]] {
            let [t, tr, s, p] = rates;
            let plan = FaultPlan::with_rates(seed, t, tr, s, p);
            render(
                &mut out,
                &format!("FaultPlan::with_rates({seed}, {t}, {tr}, {s}, {p})"),
                |key| plan.fault_for(key),
            );
        }
    }
    assert_golden("fault_for.txt", &out);
}

#[test]
fn crash_plan_stream_is_pinned() {
    let mut out = String::new();
    render_grid(&mut out, "CrashPlan::new", |seed, rate, key| {
        CrashPlan::new(seed, rate).crash_at(key)
    });
    assert_golden("crash_at.txt", &out);
}

#[test]
fn disk_fault_streams_are_pinned() {
    let mut out = String::new();
    render_grid(&mut out, "DiskFaultPlan::new", |seed, rate, key| {
        DiskFaultPlan::new(seed, rate).write_fault(key)
    });
    assert_golden("disk_write_fault.txt", &out);
    let mut out = String::new();
    render_grid(&mut out, "DiskFaultPlan::new", |seed, rate, key| {
        DiskFaultPlan::new(seed, rate).read_fault(key)
    });
    assert_golden("disk_read_fault.txt", &out);
}

#[test]
fn net_fault_stream_is_pinned() {
    let mut out = String::new();
    render_grid(&mut out, "NetFaultPlan::new", |seed, rate, key| {
        NetFaultPlan::new(seed, rate).fault_for(key)
    });
    assert_golden("net_fault_for.txt", &out);
}

#[test]
fn perturb_plan_streams_are_pinned() {
    for kind in PerturbKind::ALL {
        let mut out = String::new();
        render_grid(&mut out, &format!("PerturbPlan::new[{kind}]"), |seed, rate, key| {
            PerturbPlan::new(seed, rate, kind).decision(key, KEYS)
        });
        assert_golden(&format!("perturb_{kind}.txt"), &out);
    }
}

/// Edges of each kind table, in order.
fn edges<K>(table: &KindTable<K>) -> Vec<f64> {
    table.iter().map(|&(edge, _)| edge).collect()
}

/// The largest `f64` below `x` (for `x > 0`).
fn below(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Random keys almost never draw a coin within one ulp of an edge, so
/// the stream goldens above cannot see an edge that drifted by rounding
/// (in `f64`, `0.7 + 0.2` is `0.8999999999999999`, not `0.9`). The kind
/// tables therefore must hold the exact literal edges, and a coin on
/// each side of an edge must land on the kinds either side of it.
#[test]
fn kind_table_edges_are_exact_literals() {
    assert_eq!(edges(CRASH_KINDS), [0.5, 1.0]);
    assert_eq!(edges(DISK_WRITE_KINDS), [0.40, 0.70, 1.0]);
    assert_eq!(edges(NET_KINDS), [0.25, 0.50, 0.70, 0.90, 1.0]);
    for rate in RATES {
        let (t, tr, s, p) = (0.25 * rate, 0.40 * rate, 0.20 * rate, 0.15 * rate);
        let plan = FaultPlan::new(7, rate);
        assert_eq!(edges(&plan.kinds()), [t, t + tr, t + tr + s, t + tr + s + p]);
        assert_eq!(plan.total_rate(), t + tr + s + p);
    }
    let plan = FaultPlan::with_rates(7, 0.02, 0.1, 0.05, 0.03);
    let summed = [0.02, 0.02 + 0.1, 0.02 + 0.1 + 0.05, 0.02 + 0.1 + 0.05 + 0.03];
    assert_eq!(edges(&plan.kinds()), summed);

    let rng = &mut StdRng::seed_from_u64(0);
    let delay = pick(NET_KINDS, below(0.90), rng);
    assert!(matches!(delay, Some(NetFaultKind::Delay { .. })), "{delay:?}");
    assert_eq!(pick(NET_KINDS, 0.90, rng), Some(NetFaultKind::Reset));
    assert_eq!(pick(DISK_WRITE_KINDS, below(0.70), rng), Some(DiskFaultKind::TornSync));
    assert_eq!(pick(DISK_WRITE_KINDS, 0.70, rng), Some(DiskFaultKind::Eio));
    assert_eq!(pick(CRASH_KINDS, below(0.5), rng), Some(CrashKind::AfterAppend));
    assert_eq!(pick(&FaultPlan::new(7, 0.3).kinds(), 0.5, rng), None, "past the last edge");
}
