//! The repository's benchmark: paper-scale `assess` runs, cold and
//! warm, and the resident daemon under open-loop load, with per-layer
//! times taken from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-paper|warm-edit|serve-small [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced pass with
//! `--trace 1`. Progress and the sample counts behind each figure go to
//! standard error. See `perfbench/README.md` for what each workload and
//! metric means.

mod assess;
mod cpu;
mod serve;
mod stats;
mod traced;
mod tracer;

use adsafe::corpus::GeneratedFile;
use adsafe::trace::alloc::CountingAlloc;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Counting allocator, as the `adsafe` CLI installs it: inert until
/// profiling is switched on for a peak-memory run or the traced pass.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `ApolloSpec::paper_scale().seed` (0x26262): the paper-calibrated corpus.
pub const DEFAULT_SEED: u64 = 156_258;

/// How many times set-up runs per benchmark run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Operations attempted and failed in one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` is false for wrong bytes, a degraded
    /// report, or a request that was not answered 200 in time.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench").join(format!("work-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(std::fs::canonicalize(&dir)?))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times from scratch, keeping the last
/// state; returns it with the median processor time of one set-up, in
/// seconds, over every thread it ran on.
pub fn repeated_setup<S>(
    mut setup: impl FnMut(usize) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut state = None;
    for k in 0..SETUP_REPEATS {
        let (t, c) = (Instant::now(), cpu::process_seconds());
        let s = setup(k)?;
        cpu.push(cpu::process_seconds() - c);
        wall.push(t.elapsed().as_secs_f64());
        state = Some(s); // the previous state drops here, outside the timing
    }
    eprintln!("perfbench: set-up processor times {cpu:.3?} s, wall {wall:.3?} s");
    Ok((state.expect("SETUP_REPEATS > 0"), stats::median(&cpu)))
}

/// Module, path and text of each generated file, as the pipeline takes them.
pub fn triples(files: &[GeneratedFile]) -> Vec<(String, String, String)> {
    files
        .iter()
        .map(|f| (f.module.clone(), f.path.clone(), f.text.clone()))
        .collect()
}

/// SplitMix64: the benchmark's only randomness, derived from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn print_result(out: &Outcome) {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        assert!(
            m.value.is_finite(),
            "metric {} is not finite: {}",
            m.name,
            m.value
        );
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            std::process::exit(3);
        }
    };
    let result = match args.workload.as_str() {
        "cold-paper" => assess::run(assess::Kind::Cold, &args, &work),
        "warm-edit" => assess::run(assess::Kind::Warm, &args, &work),
        "serve-small" => serve::run(&args, &work),
        other => Err(format!(
            "unknown workload `{other}` (cold-paper, warm-edit, serve-small)"
        )),
    };
    drop(work);
    match result {
        Ok(out) => {
            eprintln!(
                "perfbench: fail_ratio {} ({} failed of {} attempted)",
                out.failed as f64 / out.attempted as f64,
                out.failed,
                out.attempted
            );
            print_result(&out)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
