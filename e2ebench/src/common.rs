//! Shared pieces: run options, the result record, order statistics,
//! process and filesystem probes, and the scratch directory.

use std::ffi::CString;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How big a run is. `Full` is what the benchmark measures; `Small` is the
/// self-test's size, the same code paths on smaller inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// The default workload seed (used when `--seed` is not given).
pub const DEFAULT_SEED: u64 = 1;

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Mismatches and failed checks, one line each.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable report lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check. Each one counts as a failed op.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.errors.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The one-line result object the benchmark ends its output with.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Arithmetic mean (`0` for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Order statistics of a latency sample (sorted in place).
pub struct Latency {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub samples: usize,
    /// Samples above the p99.
    pub beyond_p99: usize,
}

impl Latency {
    pub fn of(values: &mut [f64]) -> Latency {
        values.sort_by(f64::total_cmp);
        let p99 = percentile(values, 0.99);
        Latency {
            p50: percentile(values, 0.5),
            p95: percentile(values, 0.95),
            p99,
            samples: values.len(),
            beyond_p99: values.iter().filter(|&&v| v > p99).count(),
        }
    }

    /// One report line: the percentiles with their sample counts.
    pub fn describe(&self) -> String {
        format!(
            "p50 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms over {} samples ({} beyond the p99)",
            self.p50, self.p95, self.p99, self.samples, self.beyond_p99
        )
    }
}

/// Groups `(completion time in s since the window opened, value)` samples
/// into `k` equal sub-windows of `[0, span]`. A run reports the median of
/// its sub-windows' statistics, so a burst of host noise that spoils one
/// sub-window does not move the result.
pub fn sub_windows(samples: &[(f64, f64)], span: f64, k: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); k];
    for &(t, v) in samples {
        let i = ((t / span * k as f64) as usize).min(k - 1);
        out[i].push(v);
    }
    out
}

/// Splitmix64: the benchmark's own input generator, independent of the
/// program's PRNG so the inputs do not move when the program changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

extern "C" {
    fn statfs(path: *const std::os::raw::c_char, buf: *mut u64) -> i32;
}

/// Peak resident set size of the whole process (daemon threads included),
/// in MiB: `VmHWM` of `/proc/self/status`. Not `getrusage`, whose
/// `ru_maxrss` keeps the peak of the process image before `execve`, that
/// is of `cargo run` when cargo launched the benchmark.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of `path`, from `statfs`'s magic number.
pub fn fs_type(path: &Path) -> String {
    let Ok(c) = CString::new(path.as_os_str().as_encoded_bytes()) else {
        return "unknown".into();
    };
    // Larger than any `struct statfs`; `f_type` is its first word.
    let mut buf = [0u64; 32];
    // SAFETY: `buf` outlives the call and is larger than the struct the
    // kernel fills.
    let rc = unsafe { statfs(c.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return "unknown".into();
    }
    match buf[0] & 0xffff_ffff {
        0xef53 => "ext4".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683e => "btrfs".into(),
        0x0102_1994 => "tmpfs".into(),
        0x794c_7630 => "overlayfs".into(),
        0x6573_5546 => "fuse".into(),
        other => format!("fs-0x{other:x}"),
    }
}

/// Median latency, in µs, of a 4 KiB write followed by `fdatasync` on a
/// probe file in `dir`: the device's own flush cost, not the program's.
pub fn fsync_probe_us(dir: &Path, rounds: usize) -> std::io::Result<f64> {
    let path = dir.join("fsync-probe");
    let mut f = fs::File::create(&path)?;
    let block = [0x5au8; 4096];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        f.write_all(&block)?;
        f.sync_data()?;
        samples.push(secs(t0) * 1e6);
    }
    drop(f);
    fs::remove_file(&path)?;
    Ok(median(&samples))
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        // Relative on purpose: Unix socket paths stay short wherever the
        // checkout lives.
        let path = PathBuf::from(".bench_work").join(std::process::id().to_string());
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either.
        let _ = fs::remove_dir(".bench_work");
    }
}

/// Copies every regular file of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Warms the persistent `rt::pool` helper threads to `width` so no timed
/// span pays their first spawn.
pub fn warm_pool(width: usize) {
    let items: Vec<usize> = (0..width * 4).collect();
    smokescreen_rt::pool::Pool::with_threads(width).parallel_map(&items, |_, &i| {
        std::thread::sleep(std::time::Duration::from_millis(2));
        i
    });
}
