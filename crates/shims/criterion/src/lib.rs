//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API subset the benchmark suite uses: `Criterion`,
//! `benchmark_group` with `sample_size` / `measurement_time`,
//! `bench_function` / `bench_with_input`, `Bencher::iter`, `BenchmarkId`
//! and the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is a plain calibrated wall-clock loop: one warm-up run
//! estimates the per-iteration cost, each sample then runs enough
//! iterations to fill its share of the measurement window, and the median /
//! mean per-iteration times are reported. Every benchmark also emits a
//! machine-readable line
//! `BENCHJSON {"id":..., "median_ns":..., "mean_ns":..., "samples":...}`
//! that tooling (e.g. `BENCH_pr1.json` generation) can scrape.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 20,
            measurement_time: Duration::from_secs(3),
        }
    }

    /// Benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(&id.full(None), 20, Duration::from_secs(3), |b| f(b));
        self
    }
}

/// A benchmark identifier: function name plus optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    param: Option<String>,
}

impl BenchmarkId {
    /// Identifier with a parameter component.
    pub fn new(name: impl Display, param: impl Display) -> BenchmarkId {
        BenchmarkId {
            name: name.to_string(),
            param: Some(param.to_string()),
        }
    }

    /// Identifier from the parameter only.
    pub fn from_parameter(param: impl Display) -> BenchmarkId {
        BenchmarkId {
            name: String::new(),
            param: Some(param.to_string()),
        }
    }

    fn full(&self, group: Option<&str>) -> String {
        let mut s = String::new();
        if let Some(g) = group {
            s.push_str(g);
            s.push('/');
        }
        s.push_str(&self.name);
        if let Some(p) = &self.param {
            if !self.name.is_empty() {
                s.push('/');
            }
            s.push_str(p);
        }
        s
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            name: s.to_string(),
            param: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId {
            name: s,
            param: None,
        }
    }
}

/// A group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Target wall-clock budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(
            &id.full(Some(&self.name)),
            self.sample_size,
            self.measurement_time,
            |b| f(b),
        );
        self
    }

    /// Benchmark a closure over a shared input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(
            &id.full(Some(&self.name)),
            self.sample_size,
            self.measurement_time,
            |b| f(b, input),
        );
        self
    }

    /// End the group (formatting no-op).
    pub fn finish(self) {}
}

/// Timing context handed to benchmark closures.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    /// Per-iteration sample times, in nanoseconds.
    samples: Vec<f64>,
}

impl Bencher {
    /// Measure `f`, collecting per-iteration timings.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up + calibration run.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));

        let per_sample = self.measurement_time.as_nanos() as u64 / self.sample_size as u64;
        let iters = (per_sample / once.as_nanos().max(1) as u64).clamp(1, 1_000_000);

        let budget = Instant::now();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let el = t.elapsed();
            self.samples.push(el.as_nanos() as f64 / iters as f64);
            // Never run more than ~2x the window, but keep >= 3 samples.
            if budget.elapsed() > self.measurement_time * 2 && self.samples.len() >= 3 {
                break;
            }
        }
    }

    /// Measure with caller-controlled timing: `f` runs `iters` iterations
    /// and returns the total elapsed time it measured itself.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        // Calibration run.
        let once = f(1).max(Duration::from_nanos(1));
        let per_sample = self.measurement_time.as_nanos() as u64 / self.sample_size as u64;
        let iters = (per_sample / once.as_nanos().max(1) as u64).clamp(1, 1_000_000);

        let budget = Instant::now();
        for _ in 0..self.sample_size {
            let total = f(iters);
            self.samples.push(total.as_nanos() as f64 / iters as f64);
            if budget.elapsed() > self.measurement_time * 2 && self.samples.len() >= 3 {
                break;
            }
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    id: &str,
    sample_size: usize,
    measurement_time: Duration,
    mut f: F,
) {
    let mut b = Bencher {
        sample_size,
        measurement_time,
        samples: Vec::new(),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("bench {id:<50} (no samples)");
        return;
    }
    let mut sorted = b.samples.clone();
    sorted.sort_by(|a, x| a.partial_cmp(x).unwrap());
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    println!(
        "bench {id:<50} median {:>12}  mean {:>12}  ({} samples)",
        fmt_ns(median),
        fmt_ns(mean),
        sorted.len()
    );
    println!(
        "BENCHJSON {{\"id\":\"{id}\",\"median_ns\":{median:.1},\"mean_ns\":{mean:.1},\"samples\":{}}}",
        sorted.len()
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Bundle benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Entry point running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.measurement_time(Duration::from_millis(30));
        g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        g.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
    }
}
