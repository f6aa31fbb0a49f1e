#![warn(missing_docs)]

//! Minimal, dependency-free stand-in for the `criterion` benchmark crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the subset of the Criterion API its benches use:
//! [`Criterion`] with `sample_size`, `bench_function` and
//! `benchmark_group`, a [`BenchmarkGroup`] with an element
//! [`Throughput`], [`Bencher`] with `iter` / `iter_batched`,
//! [`BatchSize`], [`black_box`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Timing is a plain wall-clock median over `sample_size` samples — good
//! enough to spot order-of-magnitude regressions, with no statistics,
//! plotting, or baseline storage.
//!
//! Setting `GPA_BENCH_SAMPLES=<n>` overrides every benchmark's sample
//! count (including explicit `sample_size` configuration) — CI uses
//! `GPA_BENCH_SAMPLES=1` as a smoke mode that proves the bench paths
//! compile and run without paying for stable medians.
//!
//! Setting `GPA_BENCH_JSON=<path>` additionally writes every result to
//! `<path>` as a JSON object mapping benchmark id to
//! `{"median_ns": …, "samples": …}`. The file is rewritten after each
//! benchmark completes, so an interrupted run still leaves valid JSON
//! covering everything that finished. Entries already in the file that
//! this process has not (re)measured are preserved, so several bench
//! binaries pointed at the same path **merge** their result sets —
//! delete the file first to regenerate it from scratch. This is how
//! tracked `BENCH_*.json` files are produced and how CI checks that the
//! benchmark set matches the tracked one.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Results recorded so far in this process, in completion order —
/// rewritten to `GPA_BENCH_JSON` wholesale after every benchmark.
static RESULTS: Mutex<Vec<(String, u128, usize)>> = Mutex::new(Vec::new());

/// Minimal JSON string escaping (benchmark ids are plain ASCII, but a
/// stray quote or backslash must not corrupt the file).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape`] (the shim only ever parses files it wrote itself).
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// Parse one `  "id": {"median_ns": N, "samples": M},` line of a results
/// file this shim wrote earlier; `None` for braces and malformed lines.
fn parse_entry_line(line: &str) -> Option<(String, u128, usize)> {
    let line = line.trim().trim_end_matches(',');
    let rest = line.strip_prefix('"')?;
    let (id, rest) = rest.split_once("\": {\"median_ns\": ")?;
    let (ns, rest) = rest.split_once(", \"samples\": ")?;
    let n = rest.strip_suffix('}')?;
    Some((unescape(id), ns.parse().ok()?, n.parse().ok()?))
}

/// Append one result and rewrite `GPA_BENCH_JSON`, if configured.
///
/// Entries found in the file but not measured by this process (another
/// bench binary's results) are kept, ahead of this process's results.
fn record_json(id: &str, median_ns: u128, samples: usize) {
    let Ok(path) = std::env::var("GPA_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut results = RESULTS.lock().unwrap();
    results.push((id.to_owned(), median_ns, samples));
    let mut merged: Vec<(String, u128, usize)> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            if let Some(entry) = parse_entry_line(line) {
                if !results.iter().any(|(rid, _, _)| *rid == entry.0) {
                    merged.push(entry);
                }
            }
        }
    }
    merged.extend(results.iter().cloned());
    let mut out = String::from("{\n");
    for (i, (id, ns, n)) in merged.iter().enumerate() {
        let comma = if i + 1 < merged.len() { "," } else { "" };
        out.push_str(&format!(
            "  \"{}\": {{\"median_ns\": {ns}, \"samples\": {n}}}{comma}\n",
            escape(id)
        ));
    }
    out.push_str("}\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("criterion shim: cannot write GPA_BENCH_JSON={path}: {e}");
    }
}

/// Opaque value barrier; defers to [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup cost. All variants behave the same
/// in this shim (setup is always excluded from timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One setup per measured iteration.
    PerIteration,
}

/// Measures one benchmark routine.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_count: usize,
}

impl Bencher {
    fn new(sample_count: usize) -> Bencher {
        Bencher {
            samples: Vec::new(),
            sample_count,
        }
    }

    /// Time `routine`, called repeatedly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..self.sample_count {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Time `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.sample_count {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }

    fn median_ns(&mut self) -> u128 {
        if self.samples.is_empty() {
            return 0;
        }
        self.samples.sort();
        self.samples[self.samples.len() / 2].as_nanos()
    }
}

/// Benchmark driver (registration + reporting).
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Set how many samples each benchmark takes.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Run one named benchmark and print its median time.
    ///
    /// The `GPA_BENCH_SAMPLES` environment variable, when set to a
    /// positive integer, overrides the configured sample count (CI smoke
    /// mode).
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id, None, f);
        self
    }

    /// Start a group of benchmarks whose ids are prefixed `name/`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    fn run<F>(&mut self, id: &str, throughput: Option<Throughput>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let samples = std::env::var("GPA_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(self.sample_size);
        let mut b = Bencher::new(samples);
        f(&mut b);
        let ns = b.median_ns();
        record_json(id, ns, samples);
        let (value, unit) = if ns >= 1_000_000_000 {
            (ns as f64 / 1e9, "s")
        } else if ns >= 1_000_000 {
            (ns as f64 / 1e6, "ms")
        } else if ns >= 1_000 {
            (ns as f64 / 1e3, "µs")
        } else {
            (ns as f64, "ns")
        };
        let per = match throughput {
            Some(Throughput::Elements(n)) if n > 0 => {
                format!(", {:.1} ns/element", ns as f64 / n as f64)
            }
            _ => String::new(),
        };
        println!("{id:<40} median {value:>10.3} {unit} ({samples} samples){per}");
    }
}

/// How much one iteration of a benchmark processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements per iteration: the report adds the median time per
    /// element.
    Elements(u64),
}

/// Benchmarks sharing an id prefix and, optionally, a [`Throughput`]
/// ([`Criterion::benchmark_group`]).
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Report the benchmarks that follow per element as well.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run benchmark `name/id`, as [`Criterion::bench_function`] does.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{id}", self.name);
        self.criterion.run(&id, self.throughput, f);
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

/// Group benchmark functions under one registration entry point.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Emit a `main` that runs the named groups.
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

    fn quick(c: &mut Criterion) {
        c.bench_function("sum_small", |b| b.iter(|| (0..100u64).sum::<u64>()));
        c.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u32; 64],
                |v| v.iter().sum::<u32>(),
                BatchSize::SmallInput,
            )
        });
    }

    fn grouped(c: &mut Criterion) {
        let mut group = c.benchmark_group("group");
        group.throughput(Throughput::Elements(100));
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.finish();
    }

    criterion_group!(smoke, quick, grouped);

    #[test]
    fn group_runs() {
        smoke();
    }

    #[test]
    fn json_emission_writes_every_result() {
        let path = std::env::temp_dir().join(format!("gpa-bench-json-{}.json", std::process::id()));
        // A pre-existing entry from "another bench binary" must survive
        // this process's rewrites (multi-binary merge mode).
        std::fs::write(
            &path,
            "{\n  \"other/bench\": {\"median_ns\": 7, \"samples\": 3}\n}\n",
        )
        .unwrap();
        std::env::set_var("GPA_BENCH_JSON", &path);
        let mut c = Criterion::default().sample_size(1);
        c.bench_function("shim/alpha", |b| b.iter(|| 1 + 1));
        c.bench_function("shim/\"beta\"", |b| b.iter(|| 2 + 2));
        std::env::remove_var("GPA_BENCH_JSON");

        let text = std::fs::read_to_string(&path).expect("results file written");
        let _ = std::fs::remove_file(&path);
        assert!(text.trim_start().starts_with('{'), "{text}");
        assert!(text.trim_end().ends_with('}'), "{text}");
        assert!(text.contains("\"shim/alpha\": {\"median_ns\": "), "{text}");
        // Quotes in an id arrive escaped, keeping the JSON well-formed.
        assert!(text.contains("shim/\\\"beta\\\""), "{text}");
        assert!(
            text.contains("\"other/bench\": {\"median_ns\": 7, \"samples\": 3}"),
            "foreign entry dropped: {text}"
        );
    }

    #[test]
    fn entry_lines_round_trip() {
        let line = format!(
            "  \"{}\": {{\"median_ns\": 123, \"samples\": 4}},",
            escape("serve/\"odd\"\\id")
        );
        let (id, ns, n) = parse_entry_line(&line).unwrap();
        assert_eq!(id, "serve/\"odd\"\\id");
        assert_eq!((ns, n), (123, 4));
        assert_eq!(parse_entry_line("{"), None);
        assert_eq!(parse_entry_line("}"), None);
        assert_eq!(parse_entry_line("  \"no-median\": {}"), None);
    }
}
