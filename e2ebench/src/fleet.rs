//! `profile-fleet`: profile generation for a fleet of cameras.
//!
//! Set-up synthesizes the camera corpora (both presets, distinct seeds),
//! builds their restriction indexes and candidate grids (the paper's
//! default: 100 fractions × 10 resolutions × removal subsets of
//! {person, face}), and the jobs: many per (camera, aggregate), each
//! with its own correction set and sampling seed. The timed loop then
//! generates profiles round-robin over the jobs, AVG / COUNT / MAX /
//! MEDIAN in turn, at 2 threads, with the default configuration (no
//! checkpoint journal: with one `fdatasync` per cell, the profile latency
//! followed the host's disk rather than the program). A run's window holds
//! about one pass over the jobs, and its figures pool every profile of the
//! window, so each run averages over every job variant the seed made.
//!
//! Checks: every profile generates without error, a repeated job is
//! bit-identical to its first profile, and the pooled share of points
//! whose `err_b` covers the true error on the full corpus is at least
//! `1 − δ`.
//!
//! The traced run generates with a checkpoint journal, as `repro --resume`
//! does, and replays each job's cells from this file through the public
//! layer APIs (degraded view, output cache, kernel, repair, journal) with a
//! span around each call. The replay must produce exactly the points
//! `generate` produced.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use smokescreen_core::repair::best_bound_for_random;
use smokescreen_core::{
    build_correction_set, corrected_bound, Aggregate, AggregateKernel, CorrectionConfig,
    CorrectionSet, GeneratorConfig, Profile, ProfileGenerator, ProfilePoint, Workload,
};
use smokescreen_degrade::{
    CandidateGrid, DegradedView, InterventionSet, RangeOutputs, RestrictionIndex,
};
use smokescreen_models::detector::{Detections, ModelResult};
use smokescreen_models::{Detector, OutputCache, SimMaskRcnn, SimYoloV4};
use smokescreen_rt::journal::{checksum64, Journal};
use smokescreen_rt::json::{Json, ToJson};
use smokescreen_video::synth::DatasetPreset;
use smokescreen_video::{Frame, ObjectClass, Resolution, VideoCorpus};

use crate::common::{self, Options, Outcome, Rng, Size, WorkDir};

/// Confidence parameter of every profile.
const DELTA: f64 = 0.05;
/// Worker threads for generation.
const THREADS: usize = 2;
/// Smallest resolution side of the candidate grid.
const MIN_SIDE: u32 = 64;
/// Classes whose removal subsets the grid enumerates.
const SENSITIVE: [ObjectClass; 2] = [ObjectClass::Person, ObjectClass::Face];

/// The rotated aggregates.
const AGGREGATES: [(&str, Aggregate); 4] = [
    ("AVG", Aggregate::Avg),
    ("COUNT", Aggregate::Count { at_least: 1.0 }),
    ("MAX", Aggregate::Max { r: 0.99 }),
    ("MEDIAN", Aggregate::Quantile { r: 0.5 }),
];

struct Camera {
    name: String,
    corpus: VideoCorpus,
    detector: Box<dyn Detector>,
    restrictions: RestrictionIndex,
    grid: CandidateGrid,
}

struct Job {
    camera: usize,
    /// Index into [`AGGREGATES`].
    agg: usize,
    aggregate: Aggregate,
    label: String,
    correction: CorrectionSet,
    /// Sampling-permutation seed of the generator.
    gen_seed: u64,
}

struct Fleet {
    cameras: Vec<Camera>,
    jobs: Vec<Job>,
}

/// Set-up span split (traced runs).
#[derive(Default)]
struct SetupSpans {
    synth_ms: f64,
    correction_ms: f64,
}

/// Jobs regenerated after the window, untimed, to check that a repeat is
/// bit-identical to its first profile.
const REPEATS: usize = 4;

/// The fleet's cameras: `(preset, corpus seed, frames)`. The cameras are
/// the workload's fixed dataset, as the paper's datasets are; the
/// workload seed drives the correction sets and the sampling of every
/// profile.
fn camera_specs(size: Size) -> Vec<(DatasetPreset, u64, usize)> {
    let (per_preset, frames) = match size {
        Size::Full => (4, usize::MAX),
        Size::Small => (1, 1_000),
    };
    let mut specs = Vec::new();
    for k in 0..per_preset {
        specs.push((DatasetPreset::Detrac, 101 + k, frames));
        specs.push((DatasetPreset::NightStreet, 201 + k, frames));
    }
    specs
}

/// Jobs per (camera, aggregate) pair. At full size the 1,024 jobs are
/// about one 50 s window's worth of profiles.
fn variants(size: Size) -> usize {
    match size {
        Size::Full => 32,
        Size::Small => 1,
    }
}

/// Cold start until the first profile can run.
fn setup(opts: &Options, spans: &mut SetupSpans) -> Result<Fleet, String> {
    let mut cameras = Vec::new();
    for (preset, cam_seed, frames) in camera_specs(opts.size) {
        let mut scene = preset.config();
        scene.frames = scene.frames.min(frames);
        let t0 = Instant::now();
        let corpus = scene.generate(cam_seed);
        spans.synth_ms += common::secs(t0) * 1e3;
        let detector: Box<dyn Detector> = match preset {
            DatasetPreset::Detrac => Box::new(SimYoloV4::new(cam_seed)),
            DatasetPreset::NightStreet => Box::new(SimMaskRcnn::new(cam_seed)),
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &SENSITIVE);
        let grid = CandidateGrid::default_for(detector.as_ref(), MIN_SIDE, &SENSITIVE);
        cameras.push(Camera {
            name: format!("{}-{cam_seed}", preset.name()),
            corpus,
            detector,
            restrictions,
            grid,
        });
    }
    let mut rng = Rng::new(opts.seed, 0xc0ffee);
    let mut jobs = Vec::new();
    // Every job has its own correction set and sampling seed, so a job
    // whose bounds come out unusually expensive (see README) is one
    // profile among hundreds rather than a fixed share of every run.
    // Consecutive jobs rotate cameras, then aggregates.
    for _ in 0..variants(opts.size) {
        for (agg, (agg_name, aggregate)) in AGGREGATES.into_iter().enumerate() {
            for (camera, cam) in cameras.iter().enumerate() {
                let workload = workload(cam, aggregate, cam.detector.as_ref());
                let t0 = Instant::now();
                let correction = build_correction_set(
                    &workload,
                    &cam.restrictions,
                    &CorrectionConfig::default(),
                    rng.next_u64(),
                    None,
                )
                .map_err(|e| format!("correction set for {} {agg_name}: {e}", cam.name))?;
                spans.correction_ms += common::secs(t0) * 1e3;
                jobs.push(Job {
                    camera,
                    agg,
                    aggregate,
                    label: format!("{} {agg_name}", cam.name),
                    correction,
                    gen_seed: rng.next_u64(),
                });
            }
        }
    }
    Ok(Fleet { cameras, jobs })
}

fn workload<'a>(cam: &'a Camera, aggregate: Aggregate, detector: &'a dyn Detector) -> Workload<'a> {
    Workload {
        corpus: &cam.corpus,
        detector,
        class: ObjectClass::Car,
        aggregate,
        delta: DELTA,
    }
}

fn generator_config(job: &Job, threads: usize, checkpoint: Option<&Path>) -> GeneratorConfig {
    GeneratorConfig {
        seed: job.gen_seed,
        threads,
        checkpoint: checkpoint.map(Path::to_path_buf),
        ..GeneratorConfig::default()
    }
}

/// Removes every journal in the checkpoint directory, so the next profile
/// starts cold instead of resuming.
fn clear_checkpoints(dir: &Path) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Ground truth per camera: native-resolution outputs on the full corpus.
struct Oracle {
    /// Per camera, ascending population outputs (rank truth).
    sorted: Vec<Vec<f64>>,
    /// Per camera and aggregate, `Workload::true_answer` (value truth).
    truth: Vec<[f64; AGGREGATES.len()]>,
}

impl Oracle {
    fn truth(&self, job: &Job) -> f64 {
        self.truth[job.camera][job.agg]
    }
}

fn oracle(fleet: &Fleet) -> Oracle {
    let sorted = fleet
        .cameras
        .iter()
        .map(|cam| {
            let mut pop = workload(cam, Aggregate::Avg, cam.detector.as_ref()).population_outputs();
            pop.sort_by(f64::total_cmp);
            pop
        })
        .collect();
    let truth = fleet
        .cameras
        .iter()
        .map(|cam| AGGREGATES.map(|(_, a)| workload(cam, a, cam.detector.as_ref()).true_answer()))
        .collect();
    Oracle { sorted, truth }
}

/// `true_rank_error` of the stats crate, on an ascending population with
/// binary-search ranks: the relative distance between the population
/// ranks of `y` and of the true `r`-quantile.
fn rank_error(sorted: &[f64], y: f64, r: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = |v: f64| sorted.partition_point(|&x| x <= v) as f64 / n as f64;
    let idx = ((r * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank_true = rank(sorted[idx]);
    if rank_true == 0.0 {
        return 0.0;
    }
    (rank(y) - rank_true).abs() / rank_true
}

/// A digest of a profile's points, for comparing repeats without keeping
/// the profiles.
fn digest(points: &[ProfilePoint]) -> u64 {
    let mut bytes = Vec::with_capacity(points.len() * 40);
    for p in points {
        bytes.extend_from_slice(&p.set.sample_fraction.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.y_approx.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.err_b.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(p.n as u64).to_le_bytes());
        bytes.push(u8::from(p.corrected));
        bytes.extend_from_slice(format!("{:?}{:?}", p.set.resolution, p.set.restricted).as_bytes());
    }
    checksum64(&bytes)
}

/// Pooled bound quality over profiles.
#[derive(Default)]
struct Quality {
    points: usize,
    covered: usize,
    /// Points whose bound is finite, and the sum of those bounds.
    finite: usize,
    err_b_sum: f64,
}

impl Quality {
    fn add(&mut self, profile: &Profile, aggregate: Aggregate, sorted_pop: &[f64], truth: f64) {
        for p in &profile.points {
            let err = match aggregate.quantile_r() {
                // Rank aggregates carry rank-relative bounds.
                Some(r) if aggregate.is_rank_metric() => rank_error(sorted_pop, p.y_approx, r),
                _ if truth == 0.0 => {
                    if p.y_approx == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                }
                _ => (p.y_approx - truth).abs() / truth.abs(),
            };
            self.points += 1;
            self.covered += usize::from(err <= p.err_b);
            if p.err_b.is_finite() {
                self.finite += 1;
                self.err_b_sum += p.err_b;
            }
        }
    }

    fn coverage(&self) -> f64 {
        self.covered as f64 / self.points.max(1) as f64
    }

    /// Mean of the finite bounds (an infinite bound carries no width).
    fn width(&self) -> f64 {
        self.err_b_sum / self.finite.max(1) as f64
    }
}

/// Builds the fleet `reps` times from cold and keeps the last one; the
/// set-up time reported is the median.
fn timed_setups(opts: &Options, reps: usize) -> Result<(Fleet, Vec<f64>, Vec<SetupSpans>), String> {
    common::warm_pool(THREADS);
    let mut times = Vec::new();
    let mut spans = Vec::new();
    let mut fleet = None;
    for _ in 0..reps {
        drop(fleet.take());
        let mut s = SetupSpans::default();
        let t0 = Instant::now();
        let f = setup(opts, &mut s)?;
        times.push(common::secs(t0));
        spans.push(s);
        fleet = Some(f);
    }
    Ok((fleet.expect("at least one set-up"), times, spans))
}

fn setup_reps(size: Size) -> usize {
    match size {
        Size::Full => 5,
        Size::Small => 2,
    }
}

pub fn run(opts: &Options, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (fleet, setup_times, setup_spans) = timed_setups(opts, setup_reps(opts.size))?;
    let setup_rss_mb = common::peak_rss_mb();
    let oracle = oracle(&fleet);
    let candidates = fleet.cameras[0].grid.len();
    out.note(format!(
        "profile-fleet: {} cameras, {} jobs, {} candidates per profile, {} threads, seed {}",
        fleet.cameras.len(),
        fleet.jobs.len(),
        candidates,
        THREADS,
        opts.seed
    ));

    if opts.trace {
        let ckpt = work.sub("checkpoints").map_err(|e| e.to_string())?;
        return traced(&fleet, &oracle, &ckpt, &setup_spans, opts.seconds, out);
    }

    let mut latencies = Vec::new();
    // Candidates profiled (points emitted) and generation seconds.
    let (mut profiled, mut busy_s) = (0usize, 0.0);
    let mut reference: HashMap<usize, u64> = HashMap::new();
    let mut slowest = (0.0, String::new(), 0usize);
    let mut quality = Quality::default();
    let opened = Instant::now();
    let deadline = opened + std::time::Duration::from_secs_f64(opts.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let j = i % fleet.jobs.len();
        i += 1;
        out.attempted += 1;
        let Some((profile, dt)) = profile_job(&fleet, j, &mut out) else {
            continue;
        };
        let job = &fleet.jobs[j];
        let d = digest(&profile.points);
        match reference.get(&j) {
            Some(&first) if first != d => {
                out.fail(format!(
                    "{}: repeat profile differs from the first",
                    job.label
                ));
                continue;
            }
            Some(_) => {}
            None => {
                quality.add(
                    &profile,
                    job.aggregate,
                    &oracle.sorted[job.camera],
                    oracle.truth(job),
                );
                reference.insert(j, d);
            }
        }
        if dt > slowest.0 {
            slowest = (dt, job.label.clone(), profile.points.len());
        }
        latencies.push(dt * 1e3);
        profiled += profile.points.len();
        busy_s += dt;
    }
    // Untimed repeats of the first jobs, whether or not the window wrapped.
    for j in (0..REPEATS).filter(|j| reference.contains_key(j)) {
        out.attempted += 1;
        if let Some((profile, _)) = profile_job(&fleet, j, &mut out) {
            if digest(&profile.points) != reference[&j] {
                out.fail(format!(
                    "{}: repeat profile differs from the first",
                    fleet.jobs[j].label
                ));
            }
        }
    }

    check_quality(&quality, &mut out);
    let lat = common::Latency::of(&mut latencies);
    out.note(format!(
        "profile-fleet: {} distinct jobs; per profile {}",
        reference.len(),
        lat.describe()
    ));
    out.note(format!(
        "profile-fleet: slowest profile {} at {:.1} ms with {} points",
        slowest.1,
        slowest.0 * 1e3,
        slowest.2
    ));
    out.note(format!(
        "profile-fleet quality: bound_coverage {:.4} (1-delta = {:.2}) over {} points, bound_width {:.5} over {} finite bounds",
        quality.coverage(),
        1.0 - DELTA,
        quality.points,
        quality.width(),
        quality.finite
    ));
    out.metric("setup_s", common::median(&setup_times), "s");
    out.metric("throughput_per_s", profiled as f64 / busy_s.max(1e-9), "1/s");
    out.metric("p50_ms", lat.p50, "ms");
    out.note(format!(
        "profile-fleet: peak RSS {setup_rss_mb:.1} MB through set-up, {:.1} MB through the window",
        common::peak_rss_mb()
    ));
    out.metric("peak_rss_mb", setup_rss_mb, "MB");
    Ok(out)
}

/// Generates job `j`'s profile the way the timed loop does; returns it and
/// its wall time in seconds, or records the failure.
fn profile_job(fleet: &Fleet, j: usize, out: &mut Outcome) -> Option<(Profile, f64)> {
    let job = &fleet.jobs[j];
    let cam = &fleet.cameras[job.camera];
    let w = workload(cam, job.aggregate, cam.detector.as_ref());
    // The production default: no checkpoint journal. The traced run
    // profiles with one, so the journal layer is split out there.
    let gen = ProfileGenerator::new(&w, &cam.restrictions, generator_config(job, THREADS, None));
    let t0 = Instant::now();
    let result = gen.generate(&cam.grid, Some(&job.correction));
    let dt = common::secs(t0);
    match result {
        Ok((profile, _)) => Some((profile, dt)),
        Err(e) => {
            out.fail(format!("{}: generate failed: {e}", job.label));
            None
        }
    }
}

fn check_quality(quality: &Quality, out: &mut Outcome) {
    if quality.points == 0 {
        out.fail("no profile points to score");
    } else if quality.coverage() < 1.0 - DELTA {
        out.fail(format!(
            "bound coverage {:.4} below 1-delta {:.2}",
            quality.coverage(),
            1.0 - DELTA
        ));
    }
}

// ---------------------------------------------------------------------
// Traced run: per-layer split.

/// Detector wrapper that times every model call.
struct TimedDetector<'a> {
    inner: &'a dyn Detector,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl<'a> TimedDetector<'a> {
    fn new(inner: &'a dyn Detector) -> Self {
        TimedDetector {
            inner,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    fn record(&self, t0: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

impl Detector for TimedDetector<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn native_resolution(&self) -> Resolution {
        self.inner.native_resolution()
    }

    fn supports(&self, res: Resolution) -> bool {
        self.inner.supports(res)
    }

    fn detect(&self, frame: &Frame, res: Resolution) -> Detections {
        let t0 = Instant::now();
        let d = self.inner.detect(frame, res);
        self.record(t0);
        d
    }

    fn try_detect(&self, frame: &Frame, res: Resolution) -> ModelResult<Detections> {
        let t0 = Instant::now();
        let d = self.inner.try_detect(frame, res);
        self.record(t0);
        d
    }

    fn count(&self, frame: &Frame, res: Resolution, class: ObjectClass) -> f64 {
        let t0 = Instant::now();
        let c = self.inner.count(frame, res, class);
        self.record(t0);
        c
    }

    fn inference_cost_ms(&self, res: Resolution) -> f64 {
        self.inner.inference_cost_ms(res)
    }
}

/// Per-profile layer spans of one replay, in ns.
#[derive(Default, Clone, Copy)]
struct ReplaySpans {
    detect: u64,
    detect_calls: u64,
    fetch: u64,
    ingest: u64,
    bound: u64,
    repair: u64,
    journal: u64,
}

impl ReplaySpans {
    fn total(&self) -> u64 {
        self.detect + self.fetch + self.ingest + self.bound + self.repair + self.journal
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Replays `generate` for one job cell by cell, single-threaded, with a
/// span around every layer call. Mirrors the generator's sweep: one view
/// per cell at the largest fraction, nested-prefix fetches through a
/// shared output cache, incremental kernel ingest, repair against the
/// correction set, early stopping, and a journal commit per cell.
fn replay(
    job: &Job,
    cam: &Camera,
    journal_dir: &Path,
) -> Result<(Vec<ProfilePoint>, ReplaySpans), String> {
    let config = GeneratorConfig::default();
    let timed = TimedDetector::new(cam.detector.as_ref());
    let cache = OutputCache::new(&timed);
    let w = workload(cam, job.aggregate, &timed);
    let grid = &cam.grid;
    let mut spans = ReplaySpans::default();

    let path = journal_dir.join("replay.journal");
    let _ = fs::remove_file(&path);
    let (mut journal, _) = Journal::open(&path, "e2ebench-replay", |_, _| true)
        .map_err(|e| format!("opening replay journal: {e}"))?;

    let combos: Vec<Vec<ObjectClass>> = if grid.class_combos.is_empty() {
        vec![Vec::new()]
    } else {
        grid.class_combos.clone()
    };
    let resolutions: Vec<Option<Resolution>> = if grid.resolutions.is_empty() {
        vec![None]
    } else {
        grid.resolutions.iter().copied().map(Some).collect()
    };
    let max_fraction = grid
        .fractions
        .iter()
        .copied()
        .filter(|f| *f > 0.0 && *f <= 1.0)
        .fold(f64::NAN, f64::max);

    let mut all_points = Vec::new();
    let mut cell = 0u32;
    for &resolution in &resolutions {
        for combo in &combos {
            let effective_res = resolution.filter(|&r| r != cam.corpus.native_resolution);
            let cell_set = |fraction: f64| {
                let mut set = InterventionSet::sampling(fraction).with_restricted(combo);
                set.resolution = effective_res;
                set
            };
            let mut points = Vec::new();
            let mut skipped = 0usize;
            let detect_before = timed.ns();
            let t0 = Instant::now();
            let view = if max_fraction.is_finite() {
                DegradedView::new(
                    &cam.corpus,
                    cell_set(max_fraction),
                    &cam.restrictions,
                    job.gen_seed,
                )
                .ok()
            } else {
                None
            };
            spans.fetch += ns_since(t0);
            if let Some(view) = view {
                let population = cam.corpus.len();
                let mut kernel = AggregateKernel::with_capacity(job.aggregate, view.len());
                let mut fresh = RangeOutputs::default();
                let mut prev_err: Option<f64> = None;
                let mut stopped = false;
                let mut seen = 0usize;
                let mut prefix_pos = 0usize;
                for &fraction in &grid.fractions {
                    if stopped {
                        skipped += 1;
                        continue;
                    }
                    let Ok(n_f) = view.sample_size_for_fraction(fraction) else {
                        continue;
                    };
                    if n_f < prefix_pos {
                        kernel = AggregateKernel::with_capacity(job.aggregate, view.len());
                        prefix_pos = 0;
                    }
                    if n_f > prefix_pos {
                        let t0 = Instant::now();
                        view.try_outputs_cached_range_into(
                            &cache,
                            w.class,
                            prefix_pos..n_f,
                            &mut fresh,
                        );
                        spans.fetch += ns_since(t0);
                        if fresh.lost != 0 {
                            return Err(format!(
                                "{}: replay lost frames without a fault plan",
                                job.label
                            ));
                        }
                        let t0 = Instant::now();
                        kernel.extend(&fresh.values);
                        spans.ingest += ns_since(t0);
                        prefix_pos = n_f;
                    }
                    let set = cell_set(fraction);
                    let t0 = Instant::now();
                    let est = kernel
                        .estimate(population, w.delta)
                        .map_err(|e| e.to_string())?;
                    spans.bound += ns_since(t0);
                    let t0 = Instant::now();
                    let (err_b, corrected) = if !set.is_random_only() {
                        (
                            corrected_bound(&est, &job.correction).map_err(|e| e.to_string())?,
                            true,
                        )
                    } else {
                        let best = best_bound_for_random(&est, &job.correction)
                            .map_err(|e| e.to_string())?;
                        (best, best < est.err_b())
                    };
                    spans.repair += ns_since(t0);
                    let point = ProfilePoint {
                        set,
                        y_approx: est.y_approx(),
                        err_b,
                        corrected,
                        n: est.n(),
                    };
                    seen += 1;
                    if let (Some(threshold), Some(prev)) = (config.early_stop_improvement, prev_err)
                    {
                        if seen >= config.early_stop_min_points
                            && (prev - point.err_b).abs() < threshold
                        {
                            stopped = true;
                        }
                    }
                    prev_err = Some(point.err_b);
                    points.push(point);
                }
            }
            // The model time inside the fetch spans belongs to the model
            // layer; what remains is the degraded view's own work.
            let detected = timed.ns() - detect_before;
            spans.fetch = spans.fetch.saturating_sub(detected);
            spans.detect += detected;

            let t0 = Instant::now();
            let payload = Json::obj([
                ("cell", (cell as usize).to_json()),
                ("points", points.to_json()),
                ("skipped", skipped.to_json()),
                ("frames_lost", 0usize.to_json()),
                ("quarantined", Option::<String>::None.to_json()),
            ])
            .encode();
            journal
                .append(cell, payload.as_bytes())
                .map_err(|e| format!("replay journal append: {e}"))?;
            spans.journal += ns_since(t0);
            cell += 1;
            all_points.extend(points);
        }
    }
    drop(journal);
    let _ = fs::remove_file(&path);
    spans.detect_calls = timed.calls.load(Ordering::Relaxed);
    Ok((all_points, spans))
}

fn traced(
    fleet: &Fleet,
    oracle: &Oracle,
    ckpt: &Path,
    setup_spans: &[SetupSpans],
    seconds: f64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut quality = Quality::default();
    let mut model_runs = 0usize;
    let mut cache_hits = 0usize;
    let mut journal_bytes = 0u64;
    let mut generate_1t_ns = 0u64;
    let mut sum = ReplaySpans::default();
    let mut profiles = 0u64;

    // At least one job per (camera, aggregate) pair, then on until the
    // window closes.
    let pairs = fleet.cameras.len() * AGGREGATES.len();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    for (j, job) in fleet.jobs.iter().enumerate() {
        if j >= pairs && Instant::now() >= deadline {
            break;
        }
        let cam = &fleet.cameras[job.camera];
        let w = workload(cam, job.aggregate, cam.detector.as_ref());
        out.attempted += 1;

        let gen = ProfileGenerator::new(
            &w,
            &cam.restrictions,
            generator_config(job, THREADS, Some(ckpt)),
        );
        let result = gen.generate(&cam.grid, Some(&job.correction));
        clear_checkpoints(ckpt)?;
        let (profile, report) = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{}: generate failed: {e}", job.label));
                continue;
            }
        };
        if report.cells_resumed != 0 || report.journal_bytes == 0 {
            out.fail(format!(
                "{}: journal not cold (resumed {} cells, {} bytes)",
                job.label, report.cells_resumed, report.journal_bytes
            ));
            continue;
        }

        let gen1 =
            ProfileGenerator::new(&w, &cam.restrictions, generator_config(job, 1, Some(ckpt)));
        let t0 = Instant::now();
        let single = gen1.generate(&cam.grid, Some(&job.correction));
        let wall_1t = ns_since(t0);
        clear_checkpoints(ckpt)?;
        match single {
            Ok((p1, _)) if p1.points == profile.points => {}
            Ok(_) => {
                out.fail(format!(
                    "{}: 1-thread profile differs from the 2-thread one",
                    job.label
                ));
                continue;
            }
            Err(e) => {
                out.fail(format!("{}: 1-thread generate failed: {e}", job.label));
                continue;
            }
        }

        let (points, spans) = replay(job, cam, ckpt)?;
        if points != profile.points {
            out.fail(format!(
                "{}: replayed cells give {} points, generate gave {}",
                job.label,
                points.len(),
                profile.points.len()
            ));
            continue;
        }
        quality.add(
            &profile,
            job.aggregate,
            &oracle.sorted[job.camera],
            oracle.truth(job),
        );
        model_runs += report.model_runs;
        cache_hits += report.cache_hits;
        journal_bytes += report.journal_bytes;
        generate_1t_ns += wall_1t;
        sum.detect += spans.detect;
        sum.detect_calls += spans.detect_calls;
        sum.fetch += spans.fetch;
        sum.ingest += spans.ingest;
        sum.bound += spans.bound;
        sum.repair += spans.repair;
        sum.journal += spans.journal;
        profiles += 1;
    }
    check_quality(&quality, &mut out);

    let per = profiles.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / per;
    let synth: Vec<f64> = setup_spans.iter().map(|s| s.synth_ms).collect();
    let correction: Vec<f64> = setup_spans.iter().map(|s| s.correction_ms).collect();
    let residual_ms = (generate_1t_ns as f64 - sum.total() as f64) / 1e6 / per;
    out.note(format!(
        "profile-fleet trace: {profiles} profiles replayed; 1-thread generate {:.3} ms = spans {:.3} ms + residual {:.3} ms",
        ms(generate_1t_ns),
        ms(sum.total()),
        residual_ms
    ));
    out.metric("video.synth_ms", common::median(&synth), "ms");
    out.metric("core.correction_ms", common::median(&correction), "ms");
    out.metric("models.model_runs", model_runs as f64 / per, "count");
    out.metric(
        "models.cache_hit_ratio",
        cache_hits as f64 / (cache_hits + model_runs).max(1) as f64,
        "ratio",
    );
    out.metric(
        "models.detect_us",
        sum.detect as f64 / 1e3 / sum.detect_calls.max(1) as f64,
        "us",
    );
    out.metric("degrade.fetch_ms", ms(sum.fetch), "ms");
    out.metric("stats.ingest_ms", ms(sum.ingest), "ms");
    out.metric("stats.bound_ms", ms(sum.bound), "ms");
    out.metric("core.repair_ms", ms(sum.repair), "ms");
    out.metric("rt.journal_ms", ms(sum.journal), "ms");
    out.metric("rt.journal_bytes", journal_bytes as f64 / per, "bytes");
    out.metric("core.generate_ms", ms(generate_1t_ns), "ms");
    out.metric("core.residual_ms", residual_ms, "ms");
    out.metric("quality.bound_coverage", quality.coverage(), "share");
    out.metric("quality.bound_width", quality.width(), "err_b");
    Ok(out)
}
