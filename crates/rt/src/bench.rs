//! A minimal in-tree benchmark timer replacing Criterion.
//!
//! [`bench_repeated`] keeps every sample and reports median/p95, which is
//! what the `trajectory` harness persists into `BENCH_*.json` for
//! regression gating — the one source of timing numbers in the
//! workspace.
//!
//! The [`alloc`] submodule installs a counting global allocator whose
//! thread-local counters are armed only inside [`alloc::measure`]; every
//! [`bench_repeated`] repetition runs under it, and the *last* repetition's
//! counts are reported as the steady-state allocation profile (warm caches,
//! warm scratch buffers) — the number the zero-alloc hot-path claims in
//! `BENCH_*.json` are gated on.

use std::time::Instant;

pub mod alloc {
    //! Steady-state allocation counting.
    //!
    //! [`CountingAllocator`] wraps the system allocator and is installed as
    //! the workspace's `#[global_allocator]` here (the workspace is
    //! zero-dependency, so this is the only candidate). Counting is
    //! *opt-in per thread*: outside [`measure`] the hook is a single
    //! thread-local load per allocation, and nothing is ever recorded.
    //! Counters are thread-local, so a measurement covers exactly the
    //! calling thread — which is the point: the zero-alloc contract is a
    //! statement about the worker running the hot loop, not about
    //! whatever background threads do meanwhile.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Allocation counts observed by one [`measure`] call.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AllocStats {
        /// Heap allocations (`alloc`, `alloc_zeroed`, and growing
        /// `realloc` calls each count once).
        pub count: u64,
        /// Total bytes requested across those allocations.
        pub bytes: u64,
    }

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
        static COUNT: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
    }

    /// A pass-through allocator that tallies per-thread allocation counts
    /// while a [`measure`] call has them armed.
    pub struct CountingAllocator;

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    #[inline]
    fn record(bytes: usize) {
        // `try_with`: the allocator can be re-entered during TLS teardown,
        // where touching a destroyed thread-local would abort the process.
        let _ = ENABLED.try_with(|e| {
            if e.get() {
                let _ = COUNT.try_with(|c| c.set(c.get() + 1));
                let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
            }
        });
    }

    // SAFETY: defers entirely to `System` for memory management; the
    // counting side channel never touches the returned pointers.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    /// Runs `f` with this thread's allocation counters armed and returns
    /// what it allocated alongside its result. Nested measurements are
    /// supported: the inner call's allocations are reported by the inner
    /// call *and* folded back into the outer one's totals.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (AllocStats, R) {
        let prev_enabled = ENABLED.with(|e| e.replace(true));
        let prev_count = COUNT.with(|c| c.replace(0));
        let prev_bytes = BYTES.with(|b| b.replace(0));
        let out = f();
        let stats = AllocStats {
            count: COUNT.with(|c| c.get()),
            bytes: BYTES.with(|b| b.get()),
        };
        COUNT.with(|c| c.set(prev_count + stats.count));
        BYTES.with(|b| b.set(prev_bytes + stats.bytes));
        ENABLED.with(|e| e.set(prev_enabled));
        (stats, out)
    }
}

/// A benchmark measurement that keeps every per-repetition sample, so
/// order statistics (median/p95) survive into machine-readable output.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatedMeasurement {
    /// Wall time of each timed repetition, in milliseconds, in run order.
    pub samples_ms: Vec<f64>,
    /// Allocations made by the *last* timed repetition on the bench
    /// thread — the steady-state profile, after caches and scratch
    /// buffers have warmed through the warm-up and earlier repetitions.
    pub steady_allocs: alloc::AllocStats,
}

impl RepeatedMeasurement {
    /// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample
    /// such that at least `p`% of samples are ≤ it — `sorted[⌈p/100·n⌉−1]`.
    /// Never interpolates, so the result is always an observed sample.
    /// Returns 0.0 when empty.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let n = self.samples_ms.len();
        if n == 0 {
            return 0.0;
        }
        let mut sorted = self.samples_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        sorted[rank.clamp(1, n) - 1]
    }

    /// Median wall time (nearest-rank 50th percentile).
    pub fn median_ms(&self) -> f64 {
        self.percentile_ms(50.0)
    }

    /// 95th-percentile wall time (nearest-rank).
    pub fn p95_ms(&self) -> f64 {
        self.percentile_ms(95.0)
    }

    /// Fastest repetition (0.0 when empty).
    pub fn min_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return 0.0;
        }
        self.samples_ms.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Repetitions timed.
    pub fn reps(&self) -> usize {
        self.samples_ms.len()
    }
}

/// Times `f` for `reps` repetitions (after one untimed warm-up), keeping
/// every sample. Prints a `name  median  p95  min` line and returns the
/// measurement. The repetition count is the caller's — deterministic, not
/// adaptive — so trajectory runs are comparable across commits.
pub fn bench_repeated<R>(name: &str, reps: usize, mut f: impl FnMut() -> R) -> RepeatedMeasurement {
    std::hint::black_box(f());
    let mut samples_ms = Vec::with_capacity(reps.max(1));
    let mut steady_allocs = alloc::AllocStats::default();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (stats, out) = alloc::measure(&mut f);
        std::hint::black_box(out);
        samples_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        steady_allocs = stats;
    }
    let m = RepeatedMeasurement {
        samples_ms,
        steady_allocs,
    };
    println!(
        "bench {name:<48} median {:>10.3} ms p95 {:>10.3} ms min {:>10.3} ms ({} reps, steady allocs {}/{} B)",
        m.median_ms(),
        m.p95_ms(),
        m.min_ms(),
        m.reps(),
        m.steady_allocs.count,
        m.steady_allocs.bytes,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_repeated_runs_and_measures() {
        let mut calls = 0u32;
        let m = bench_repeated("noop-repeated", 7, || {
            calls += 1;
            calls
        });
        assert_eq!(m.reps(), 7);
        assert_eq!(calls, 8, "one warm-up plus seven timed repetitions");
        assert!(m.min_ms() <= m.median_ms());
        assert!(m.median_ms() <= m.p95_ms());
    }

    #[test]
    fn percentiles_match_hand_computed_nearest_rank() {
        // Ten samples 10..=100: nearest-rank median = ⌈0.5·10⌉ = 5th
        // smallest = 50; p95 = ⌈0.95·10⌉ = 10th = 100; p90 = 9th = 90.
        let m = RepeatedMeasurement {
            samples_ms: vec![70.0, 10.0, 90.0, 30.0, 50.0, 100.0, 20.0, 40.0, 80.0, 60.0],
            steady_allocs: alloc::AllocStats::default(),
        };
        assert_eq!(m.median_ms(), 50.0);
        assert_eq!(m.p95_ms(), 100.0);
        assert_eq!(m.percentile_ms(90.0), 90.0);
        assert_eq!(m.percentile_ms(100.0), 100.0);
        assert_eq!(m.percentile_ms(1.0), 10.0);
        assert_eq!(m.min_ms(), 10.0);

        // Odd count: 5 samples, median = ⌈0.5·5⌉ = 3rd smallest.
        let m = RepeatedMeasurement {
            samples_ms: vec![5.0, 1.0, 4.0, 2.0, 3.0],
            steady_allocs: alloc::AllocStats::default(),
        };
        assert_eq!(m.median_ms(), 3.0);
        assert_eq!(m.p95_ms(), 5.0);

        // Single sample: every percentile is that sample.
        let m = RepeatedMeasurement {
            samples_ms: vec![42.0],
            steady_allocs: alloc::AllocStats::default(),
        };
        assert_eq!(m.median_ms(), 42.0);
        assert_eq!(m.p95_ms(), 42.0);

        // Empty: all zeros, no panic.
        let m = RepeatedMeasurement {
            samples_ms: vec![],
            steady_allocs: alloc::AllocStats::default(),
        };
        assert_eq!(m.median_ms(), 0.0);
        assert_eq!(m.p95_ms(), 0.0);
        assert_eq!(m.min_ms(), 0.0);
        assert_eq!(m.reps(), 0);
    }

    #[test]
    fn alloc_measure_counts_heap_traffic_on_this_thread() {
        let (stats, v) = alloc::measure(|| vec![1u8; 4096]);
        assert!(stats.count >= 1, "a Vec allocation must be counted");
        assert!(stats.bytes >= 4096, "bytes track the requested size");
        drop(v);

        // A heap-free closure measures clean zero.
        let (stats, x) = alloc::measure(|| {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert_eq!(stats, alloc::AllocStats::default(), "no-alloc closure");
        assert_eq!(x, 328350);

        // Nested measurements fold inner counts into the outer total.
        let (outer, inner) = alloc::measure(|| alloc::measure(|| vec![0u8; 128]).0);
        assert!(inner.count >= 1);
        assert!(outer.count >= inner.count);
    }

    #[test]
    fn bench_repeated_reports_steady_state_allocs() {
        // Allocating closure: the last rep's traffic is recorded.
        let m = bench_repeated("alloc-steady", 3, || vec![0u8; 256]);
        assert!(m.steady_allocs.count >= 1);
        assert!(m.steady_allocs.bytes >= 256);

        // Steady-state-clean closure: warm-up allocates, timed reps reuse.
        let mut buf: Vec<u8> = Vec::new();
        let m = bench_repeated("alloc-warm", 3, || {
            if buf.capacity() == 0 {
                buf.reserve(512);
            }
            buf.clear();
            buf.extend(std::iter::repeat_n(7u8, 512));
            buf.len()
        });
        assert_eq!(
            m.steady_allocs,
            alloc::AllocStats::default(),
            "warm reps must be allocation-free"
        );
    }
}
