//! Offline shim for the subset of `criterion` this workspace uses.
//!
//! See the root `Cargo.toml` (`[workspace.dependencies]`) for why these
//! exist. The statistics engine is replaced with a plain warmup +
//! timed-iterations loop that prints mean time per iteration (and derived
//! throughput) to stdout. Good enough to keep `cargo bench` runnable and
//! the bench sources compiling; the serious, gated numbers come from the
//! repo's own `bench_*` binaries, which never used criterion.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

pub struct Bencher {
    iters: u64,
    total: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One warmup call, then the timed loop.
        black_box(f());
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.total = start.elapsed();
    }
}

pub struct Criterion {
    sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    pub fn warm_up_time(self, _d: Duration) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            throughput: None,
            _parent: std::marker::PhantomData,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_one(name, self.sample_size, None, f);
        self
    }

    pub fn final_summary(&self) {}
}

pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
    _parent: std::marker::PhantomData<&'a ()>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchId,
        f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into_bench_id());
        run_one(&label, self.sample_size, self.throughput, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    pub fn finish(&mut self) {}
}

pub trait IntoBenchId {
    fn into_bench_id(self) -> String;
}

impl IntoBenchId for BenchmarkId {
    fn into_bench_id(self) -> String {
        self.id
    }
}

impl IntoBenchId for &str {
    fn into_bench_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchId for String {
    fn into_bench_id(self) -> String {
        self
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, iters: u64, tp: Option<Throughput>, mut f: F) {
    let mut b = Bencher {
        iters,
        total: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = if b.iters > 0 {
        b.total / b.iters as u32
    } else {
        Duration::ZERO
    };
    match tp {
        Some(Throughput::Elements(n)) if !per_iter.is_zero() => println!(
            "bench {label}: {per_iter:?}/iter, {:.0} elem/s",
            n as f64 / per_iter.as_secs_f64()
        ),
        Some(Throughput::Bytes(n)) if !per_iter.is_zero() => println!(
            "bench {label}: {per_iter:?}/iter, {:.1} MiB/s",
            n as f64 / per_iter.as_secs_f64() / (1024.0 * 1024.0)
        ),
        _ => println!("bench {label}: {per_iter:?}/iter"),
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $config;
            $($target(&mut c);)+
        }
    };
}

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
    fn group_and_bencher_run() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.throughput(Throughput::Elements(10));
        let mut count = 0u64;
        g.bench_function("count", |b| b.iter(|| count += 1));
        g.bench_with_input(BenchmarkId::from_parameter(5), &5u64, |b, &k| {
            b.iter(|| black_box(k * 2))
        });
        g.finish();
        // warmup + 3 timed iters
        assert_eq!(count, 4);
    }
}
