//! End-to-end benchmark of Smokescreen: profile generation for a camera
//! fleet, and the profile-serving daemon under read-heavy and mixed load.
//!
//! ```text
//! e2ebench --workload <profile-fleet|serve-read|serve-mixed>
//!          [--seed N] [--seconds S] [--trace 0|1] [--size full|small]
//! ```
//!
//! Prints report lines, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate run that reports the
//! per-layer split instead. Layers a workload does not exercise report 0.
//! Exits non-zero when any output check fails.

mod common;
mod fleet;
mod serving;

use std::process::ExitCode;

use common::{Options, Outcome, Size, WorkDir, DEFAULT_SEED};

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run.
const PER_LAYER: [(&str, &str); 32] = [
    ("video.synth_ms", "ms"),
    ("core.correction_ms", "ms"),
    ("models.model_runs", "count"),
    ("models.cache_hit_ratio", "ratio"),
    ("models.detect_us", "us"),
    ("degrade.fetch_ms", "ms"),
    ("stats.ingest_ms", "ms"),
    ("stats.bound_ms", "ms"),
    ("core.repair_ms", "ms"),
    ("rt.journal_ms", "ms"),
    ("rt.journal_bytes", "bytes"),
    ("core.generate_ms", "ms"),
    ("core.residual_ms", "ms"),
    ("quality.bound_coverage", "share"),
    ("quality.bound_width", "err_b"),
    ("protocol.req_bytes", "bytes"),
    ("protocol.resp_bytes", "bytes"),
    ("protocol.encode_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.decode_us", "us"),
    ("store.open_ms", "ms"),
    ("store.get_hit_us", "us"),
    ("store.get_miss_us", "us"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.put_us", "us"),
    ("store.fsync_probe_us", "us"),
    ("store.scrubbed_per_s", "1/s"),
    ("server.request_us", "us"),
    ("server.residual_us", "us"),
    ("server.refused", "count"),
    ("serve.read_p50_ms", "ms"),
    ("serve.put_p50_ms", "ms"),
];

const USAGE: &str = "usage: e2ebench --workload <profile-fleet|serve-read|serve-mixed> \
[--seed N] [--seconds S] [--trace 0|1] [--size full|small]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err(bad("expected 0 < seconds <= 60"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                opts.size = match value.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => return Err(bad("expected full or small")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<Outcome, String> {
    let work = WorkDir::create().map_err(|e| format!("creating work dir: {e}"))?;
    match opts.workload.as_str() {
        "profile-fleet" => fleet::run(opts, &work),
        "serve-read" => serving::run(opts, &work, serving::Mix::Read),
        "serve-mixed" => serving::run(opts, &work, serving::Mix::Mixed),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Orders the metrics as declared, fills layers the workload did not
/// exercise with 0, and fails the run on anything missing or non-finite.
fn finish(opts: &Options, mut out: Outcome) -> Outcome {
    let declared: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in declared {
        match out.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, value, u)) if u == unit && value.is_finite() => {
                metrics.push((name.to_string(), *value, unit.to_string()));
            }
            Some((_, value, u)) => {
                out.errors.push(format!(
                    "metric {name} = {value} {u} is not a finite {unit}"
                ));
            }
            None if opts.trace => metrics.push((name.to_string(), 0.0, unit.to_string())),
            None => out.errors.push(format!("metric {name} was not measured")),
        }
    }
    for (name, _, _) in &out.metrics {
        if !declared.iter().any(|(n, _)| n == name) {
            out.errors.push(format!("metric {name} is not declared"));
        }
    }
    out.metrics = metrics;
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            let out = finish(&opts, out);
            for line in &out.notes {
                println!("# {line}");
            }
            for e in &out.errors {
                eprintln!("e2ebench: check failed: {e}");
            }
            println!("{}", out.result_line());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
