//! `perfbench` — the host-time benchmark of the Footprint Cache
//! reproduction.
//!
//! ```text
//! perfbench --workload designspace|sampled|serve [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --pin > perfbench/pinned_digests.txt
//! ```
//!
//! `--trace 0` runs the workload's timed loop and reports the
//! end-to-end metrics; `--trace 1` runs the per-layer attribution
//! instead (see `layers.rs`) and writes one Chrome trace. Every run
//! checks the simulated results: at seed 42 against the digests pinned
//! in `pinned_digests.txt`, at any other seed against report
//! invariants. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod layers;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads every workload uses.
pub const THREADS: usize = 2;

/// The seed whose results are pinned in `pinned_digests.txt`.
pub const PINNED_SEED: u64 = 42;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (percentiles and medians); `None` for
    /// totals and ratios.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn sampled(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Self {
        Self {
            samples: Some(n),
            ..Self::new(name, value, unit)
        }
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable findings: check failures and extra breakdowns.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.notes.push(format!("FAIL {reason}"));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload designspace|sampled|serve [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --pin"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => args.trace = value() == "1",
            "--pin" => args.pin = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if !args.pin && !workloads::NAMES.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload `{}`", args.workload));
    }
    args
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// A fixed integer loop whose wall time lets readers normalise other
/// host times across machines (median of three runs, seconds).
pub fn calibrate() -> f64 {
    let once = || {
        let started = Instant::now();
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for i in 0..30_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x ^ i);
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64()
    };
    median(&[once(), once(), once()])
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where result files, the Chrome trace and the serve store live.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `fnv1a` over the root manifest, lock file and every `.rs`/`.toml`
/// file under `crates/` (path and contents, in path order): names the
/// measured code where no git commit is at hand.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", fc_types::fnv1a(&bytes))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", fc_types::json::escape(s))
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn write_result_file(args: &Args, outcome: &Outcome, calib_s: f64, wall_s: f64) -> PathBuf {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let samples = m.samples.map_or("null".to_string(), |n| n.to_string());
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {samples}}}",
                json_str(&m.name),
                json_f64(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    let text = format!(
        "{{\n  \"provenance\": {{\"git_commit\": {}, \"source_digest\": {}, \"nproc\": {nproc}, \"threads\": {THREADS}, \
         \"seed\": {}, \"workload\": {}, \"trace\": {}, \"seconds\": {}, \"rustc\": {}, \
         \"host.calib_s\": {}, \"wall_s\": {}}},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"metrics\": {{\n{}\n  }},\n  \"notes\": [{}]\n}}\n",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&source_digest()),
        args.seed,
        json_str(&args.workload),
        args.trace,
        args.seconds,
        json_str(&command_line("rustc", &["--version"])),
        json_f64(calib_s),
        json_f64(wall_s),
        outcome.attempted,
        outcome.failed,
        metrics.join(",\n"),
        notes.join(", ")
    );
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    fc_types::atomic_write(&path, text.as_bytes()).expect("write result file");
    path
}

fn main() {
    let args = parse_args();
    if args.pin {
        print!("{}", check::pin_all());
        return;
    }
    let started = Instant::now();
    let calib_s = calibrate();
    let pins = check::Pins::load(args.seed);
    let mut outcome = if args.trace {
        layers::run(&args.workload, args.seed, &pins)
    } else {
        workloads::run(&args.workload, args.seed, args.seconds, &pins)
    };
    if args.trace {
        outcome.push(Metric::new("host.calib_s", calib_s, "s"));
    }
    let path = write_result_file(&args, &outcome, calib_s, started.elapsed().as_secs_f64());

    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("{:<34} {:>16.6} {}{samples}", m.name, m.value, m.unit);
    }
    println!(
        "# {} attempted, {} failed (fail_ratio {}), host.calib_s {calib_s:.4}, result file {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        path.display()
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_f64(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}
