//! `trajectory` — run the perf-trajectory suite, emit `BENCH_<n>.json`,
//! and gate on regressions against the previous trajectory file.
//!
//! ```text
//! trajectory run [--smoke] [--out DIR] [--baseline FILE] [--threshold X]
//!                [--reps N] [--threads N] [--pr N] [--schema-golden FILE]
//! trajectory check --prev FILE --cur FILE [--threshold X]
//! ```
//!
//! `run` executes the suite, writes `BENCH_<pr>.json` under `--out`
//! (default `bench_results/`), optionally validates its structural schema
//! against a golden, compares against `--baseline` (default: the highest
//! `BENCH_<m>.json` with `m < pr` in the out dir), and on full (non-smoke)
//! runs asserts the slice-path ingest floors. `check` compares two
//! existing files. Exit codes: 0 ok, 1 regression or floor failure, 2
//! usage/schema/IO error.
//!
//! Knobs: `SMOKESCREEN_BENCH_REPS` (repetitions, overridden by `--reps`),
//! `SMOKESCREEN_BENCH_THRESHOLD` (regression threshold, overridden by
//! `--threshold`). Flags and knobs parse strictly, before anything runs:
//! `--reps`, `--threads` and `--pr` must be positive integers and the
//! threshold a finite non-negative number, else the exit code is 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use smokescreen_bench::trajectory::{
    compare, flag, git_rev, highest_bench_number, latest_bench_below, reps, run, schema_of,
    threshold, Trajectory, TrajectoryConfig,
};
use smokescreen_rt::json::Json;
use smokescreen_rt::knob;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        _ => {
            eprintln!("usage: trajectory run [flags] | trajectory check --prev F --cur F");
            ExitCode::from(2)
        }
    }
}

/// Pulls the value of `--flag VALUE` out of `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Applies the numeric run flags to `config`; returns the threshold and
/// the `--pr` number, if given.
fn run_options(
    args: &[String],
    config: &mut TrajectoryConfig,
) -> Result<(f64, Option<u64>), String> {
    config.reps = reps(args, config.reps)?;
    if let Some(threads) = flag(args, "--threads", &knob::POSITIVE)? {
        config.threads = threads;
    }
    let threshold = threshold(args)?;
    let pr = flag(args, "--pr", &knob::POSITIVE)?;
    Ok((threshold, pr.map(|pr| pr as u64)))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut config = if has_flag(args, "--smoke") {
        TrajectoryConfig::smoke()
    } else {
        TrajectoryConfig::full()
    };
    let (threshold, pr) = match run_options(args, &mut config) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("trajectory: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = flag_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_results"));
    let pr = pr.unwrap_or_else(|| highest_bench_number(&out_dir).map_or(6, |n| n + 1));

    let rev = git_rev(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")));
    eprintln!(
        "trajectory: {} run, {} reps, {} threads, rev {rev}, PR {pr}",
        if config.smoke { "smoke" } else { "full" },
        config.reps,
        config.threads
    );
    let trajectory = run(&config, pr, rev);
    let path = match trajectory.save(&out_dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trajectory: writing {}: {e}", out_dir.display());
            return ExitCode::from(2);
        }
    };
    println!("wrote {}", path.display());

    if let Some(golden) = flag_value(args, "--schema-golden") {
        if let Err(e) = check_schema(&trajectory, Path::new(&golden)) {
            eprintln!("trajectory: schema mismatch: {e}");
            return ExitCode::from(2);
        }
        println!("schema matches {golden}");
    }

    // Full runs must demonstrate the slice-path ingest win (ISSUE 6
    // acceptance floor) and the persistent-pool scaling curve plus the
    // zero-alloc cell path (ISSUE 8) in the same file that records them.
    // Smoke corpora are too small for stable ratios.
    if !config.smoke {
        let d = trajectory.derived;
        for (name, v, floor) in [
            ("ingest_speedup_max", d.ingest_speedup_max, 1.5),
            ("ingest_speedup_median", d.ingest_speedup_median, 1.5),
            ("parallel_speedup_8w", d.parallel_speedup_8w, 2.8),
            ("parallel_speedup_16w", d.parallel_speedup_16w, 5.0),
        ] {
            if v < floor {
                eprintln!("trajectory: floor failed: {name} = {v:.2}× < {floor:.1}×");
                return ExitCode::from(1);
            }
        }
        if let Some(cell) = trajectory.bench("cell_path_steady_ingest") {
            if cell.alloc_count != 0 {
                eprintln!(
                    "trajectory: floor failed: cell_path_steady_ingest made {} steady-state \
                     allocations ({} B); the cell path must be zero-alloc",
                    cell.alloc_count, cell.alloc_bytes
                );
                return ExitCode::from(1);
            }
        } else {
            eprintln!("trajectory: cell_path_steady_ingest bench missing from run");
            return ExitCode::from(1);
        }
    }

    let baseline = flag_value(args, "--baseline").map(PathBuf::from).or_else(|| {
        latest_bench_below(&out_dir, pr).map(|(n, p)| {
            eprintln!("trajectory: baseline {} (PR {n})", p.display());
            p
        })
    });
    match baseline {
        Some(prev_path) => {
            let prev = match Trajectory::load(&prev_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("trajectory: {e}");
                    return ExitCode::from(2);
                }
            };
            report_comparison(&prev, &trajectory, threshold)
        }
        None => {
            println!("no baseline trajectory found — nothing to compare");
            ExitCode::SUCCESS
        }
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let (Some(prev_path), Some(cur_path)) =
        (flag_value(args, "--prev"), flag_value(args, "--cur"))
    else {
        eprintln!("usage: trajectory check --prev FILE --cur FILE [--threshold X]");
        return ExitCode::from(2);
    };
    let threshold = match threshold(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trajectory: {e}");
            return ExitCode::from(2);
        }
    };
    let (prev, cur) = match (
        Trajectory::load(Path::new(&prev_path)),
        Trajectory::load(Path::new(&cur_path)),
    ) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("trajectory: {e}");
            return ExitCode::from(2);
        }
    };
    report_comparison(&prev, &cur, threshold)
}

fn report_comparison(prev: &Trajectory, cur: &Trajectory, threshold: f64) -> ExitCode {
    let comparison = compare(prev, cur, threshold);
    println!("{}", comparison.table.render());
    if comparison.regressed() {
        for r in &comparison.regressions {
            eprintln!("trajectory: REGRESSION: {r}");
        }
        ExitCode::from(1)
    } else {
        println!("no regressions past {:.0}%", threshold * 100.0);
        ExitCode::SUCCESS
    }
}

fn check_schema(trajectory: &Trajectory, golden_path: &Path) -> Result<(), String> {
    use smokescreen_rt::json::ToJson;
    let golden_text = std::fs::read_to_string(golden_path)
        .map_err(|e| format!("{}: {e}", golden_path.display()))?;
    let golden =
        Json::parse(&golden_text).map_err(|e| format!("{}: {e}", golden_path.display()))?;
    let actual = schema_of(&trajectory.to_json());
    if actual == golden {
        Ok(())
    } else {
        Err(format!(
            "schema drift vs {} — regen with UPDATE_GOLDEN=1 cargo test -p smokescreen \
             --test trajectory_schema\nactual: {}",
            golden_path.display(),
            actual.encode_pretty()
        ))
    }
}
