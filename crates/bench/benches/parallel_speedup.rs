//! Wall-clock speedup of parallel profile generation.
//!
//! The §5.3.1 breakdown shows model time dominating estimation time by
//! orders of magnitude, and real model invocations are latency-bound
//! (GPU/accelerator round trips), not host-CPU-bound. The simulated
//! detectors here answer in nanoseconds, so to measure what `rt::pool`
//! buys on the paper's actual bottleneck this bench wraps a detector in a
//! fixed per-inference latency and times `ProfileGenerator::generate` at
//! 1/2/4/8/16 workers. Sleeping inferences overlap across workers even on
//! a single-core host, so the measured ratio reflects the
//! deployment-shaped speedup rather than the host's core count.
//!
//! Results land in `bench_results/parallel_speedup.csv`; the test also
//! asserts the scaling floors (≥2× at 4 workers, ≥2.5× at 8, ≥4× at 16 —
//! the committed `BENCH_8.json` records the tighter full-run numbers)
//! and that every parallel profile is byte-identical to the sequential
//! one.

use std::path::Path;
use std::time::{Duration, Instant};

use smokescreen_bench::table::{fmt, Table};
use smokescreen_bench::workloads::LatencyDetector;
use smokescreen_core::{Aggregate, GeneratorConfig, ProfileGenerator, Workload};
use smokescreen_degrade::{CandidateGrid, RestrictionIndex};
use smokescreen_models::SimYoloV4;
use smokescreen_video::synth::DatasetPreset;
use smokescreen_video::{ObjectClass, Resolution};

#[test]
fn bench_parallel_generation_speedup() {
    let corpus = DatasetPreset::Detrac.generate(1).slice(0, 1_000);
    let detector = LatencyDetector {
        inner: SimYoloV4::new(1),
        latency: Duration::from_micros(300),
    };
    let restrictions =
        RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person, ObjectClass::Face]);
    let workload = Workload {
        corpus: &corpus,
        detector: &detector,
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    };
    // Sixteen resolutions × two combos: enough heavy (cold-cache) cells
    // that 16 workers still have candidate-level parallelism to consume,
    // on top of the per-frame parallelism inside each cell.
    let grid = CandidateGrid::explicit(
        vec![0.02, 0.05, 0.1],
        (2..=17).map(|i| Resolution::square(i * 32)).collect(),
        vec![vec![], vec![ObjectClass::Person]],
    );

    let mut timed = Vec::new();
    let mut profiles = Vec::new();
    for threads in [1usize, 2, 4, 8, 16] {
        let gen = ProfileGenerator::new(
            &workload,
            &restrictions,
            GeneratorConfig {
                early_stop_improvement: None,
                threads,
                ..GeneratorConfig::default()
            },
        );
        let start = Instant::now();
        let (profile, report) = gen.generate(&grid, None).unwrap();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "parallel_speedup/threads={threads}: {wall_ms:.1} ms wall, \
             {} model runs, {} cache hits",
            report.model_runs, report.cache_hits
        );
        timed.push((threads, wall_ms));
        profiles.push(profile);
    }

    for (i, profile) in profiles.iter().enumerate().skip(1) {
        assert_eq!(
            &profiles[0], profile,
            "profile at {} workers must be byte-identical to sequential",
            timed[i].0
        );
    }

    let mut table = Table::new(
        "Parallel profile generation: wall-clock vs. workers (300µs simulated inference latency, UA-DETRAC 1000 frames, 96-candidate grid)",
        &["threads", "wall_ms", "speedup_vs_seq"],
    );
    for &(threads, wall_ms) in &timed {
        table.push_row(vec![
            threads.to_string(),
            fmt(wall_ms),
            fmt(timed[0].1 / wall_ms),
        ]);
    }
    // cwd is crates/bench under `cargo test`; resolve the workspace root.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    let path = table.write_csv(&dir, "parallel_speedup").unwrap();
    println!("{}", table.render());
    println!("wrote {}", path.display());

    // Conservative in-test floors: shared CI hosts are noisy, so the
    // tighter ISSUE 8 targets (≥2.8× at 8, ≥5× at 16) are gated on the
    // committed full trajectory run instead (`trajectory` binary).
    for (want_threads, floor) in [(4usize, 2.0), (8, 2.5), (16, 4.0)] {
        let (_, wall) = timed
            .iter()
            .copied()
            .find(|&(t, _)| t == want_threads)
            .expect("bench ran this worker count");
        let speedup = timed[0].1 / wall;
        assert!(
            speedup >= floor,
            "{want_threads} workers must be ≥{floor}× over sequential on \
             latency-bound inference, got {speedup:.2}×"
        );
    }
}
