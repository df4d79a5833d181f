//! Offline stand-in for `criterion`.
//!
//! Provides the API surface the workspace's `harness = false` bench targets
//! use — `Criterion`, `benchmark_group`, `Bencher::iter`,
//! `Bencher::iter_batched`, `Throughput`, `black_box`, `criterion_group!`,
//! `criterion_main!` — backed by a simple
//! wall-clock timer instead of criterion's statistical machinery. Each
//! `bench_function` runs a short warm-up plus a fixed number of timed
//! iterations and prints the mean per-iteration time, so `cargo bench` gives
//! usable (if unstatistical) numbers offline.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark (reported alongside timings).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Accept (and ignore) CLI arguments; present for API compatibility.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: 10,
            throughput: None,
            _criterion: self,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&name.to_string(), 10, None, f);
        self
    }
}

/// A named collection of benchmarks sharing sample-count/throughput settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Accept (and ignore) a measurement-time hint.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accept (and ignore) a warm-up-time hint.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Annotate subsequent benchmarks with a throughput figure.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Time one benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_benchmark(&full, self.samples, self.throughput, f);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// How many inputs `iter_batched` sets up ahead of timing; only the
/// variant the workspace uses (the shim builds one input per timed call
/// regardless).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// One input per iteration.
    PerIteration,
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    samples: usize,
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Time `f`, running it once per sample after one warm-up call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f()); // warm-up, untimed
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        self.total += start.elapsed();
        self.iters += self.samples as u64;
    }

    /// Time `routine` on a fresh input from `setup` per call; `setup`
    /// and dropping the output are not timed.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        black_box(routine(setup())); // warm-up, untimed
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            self.total += start.elapsed();
            drop(output);
        }
        self.iters += self.samples as u64;
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    name: &str,
    samples: usize,
    tp: Option<Throughput>,
    mut f: F,
) {
    let mut b = Bencher {
        samples,
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);
    let mean_ns = if b.iters == 0 {
        0.0
    } else {
        b.total.as_nanos() as f64 / b.iters as f64
    };
    let rate = match tp {
        Some(Throughput::Bytes(n)) if mean_ns > 0.0 => {
            format!(
                "  {:.2} GiB/s",
                n as f64 / mean_ns * 1e9 / (1u64 << 30) as f64
            )
        }
        Some(Throughput::Elements(n)) if mean_ns > 0.0 => {
            format!("  {:.2} Melem/s", n as f64 / mean_ns * 1e3)
        }
        _ => String::new(),
    };
    println!("bench {name:<60} {:>12.1} ns/iter{rate}", mean_ns);
}

/// Collect benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

/// Emit `main` running the given groups (for `harness = false` targets).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(3).throughput(Throughput::Bytes(1024));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_runs() {
        benches();
    }

    #[test]
    fn bench_function_direct() {
        let mut c = Criterion::default();
        c.bench_function("direct", |b| b.iter(|| black_box(1 + 1)));
    }
}
