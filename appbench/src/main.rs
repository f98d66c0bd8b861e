//! Application benchmark: one workload per application family of the paper
//! plus the job server, driven through public entry points.
//!
//! ```text
//! appbench --workload <qaoa_noisy|trotter_sweep|reservoir_digital|serve_mixed|all>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload's entry point for `--seconds` seconds and
//! reports the end-to-end metrics; `all` runs each workload in a process of
//! its own. `--trace 1` replays every workload's
//! entry point as its sequence of public layer calls, checks that the replay
//! reproduces the entry point bit for bit, and reports the per-layer
//! metrics. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod qaoa;
mod reservoir;
mod serve;
mod trace;
mod trotter;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] =
    ["qaoa_noisy", "trotter_sweep", "reservoir_digital", "serve_mixed"];

/// Metrics, failure counts and human-readable notes of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records one attempted unit that failed iff `ok` is false.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<40} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { format!("{value:?}") } else { "null".into() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A deterministic stream of pseudo-random numbers (SplitMix64), used for
/// every input the benchmark generates from its seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of input `index` of a workload run with seed `seed`.
pub fn derive(seed: u64, index: u64) -> u64 {
    let mut mix = SplitMix::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    mix.next_u64()
}

/// Median of the samples (mean of the two middle ones for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Mean wall time in seconds of one call of `f` over `reps` calls.
pub fn per_call<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

/// Calls `f` once untimed as a warm-up (the process's first call pays for
/// thread-pool start-up and first-touch page faults), then once per input
/// for `seconds` seconds: at least once, and again only while another call
/// as long as the last one still ends in time. `f` gets the input index and
/// returns the wall time of its timed part in seconds; the warm-up uses the
/// last input index, so the timed calls see inputs `0, 1, 2, ...`.
pub fn repeat_for(seconds: f64, mut f: impl FnMut(u64) -> f64) -> Vec<f64> {
    f(u64::MAX);
    let mut samples = Vec::new();
    within(seconds, |index| samples.push(f(index)));
    samples
}

/// Calls `f(0), f(1), ...` for `seconds` seconds: at least once, and again
/// only while another call as long as the last one still ends in time.
pub fn within(seconds: f64, mut f: impl FnMut(u64)) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut index = 0;
    loop {
        let start = Instant::now();
        f(index);
        index += 1;
        if Instant::now() + start.elapsed() > deadline {
            return;
        }
    }
}

/// A human-readable line listing per-call wall times.
pub fn samples_note(samples_s: &[f64]) -> String {
    let ms: Vec<String> = samples_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    format!("solve samples ms [{}]", ms.join(", "))
}

/// `latency_p50_ms` of a closed loop with one client, where each request
/// is one entry-point call: the median per-call wall time.
pub fn latency_metric(report: &mut Report, latencies_s: &[f64]) {
    report.metric("latency_p50_ms", median(latencies_s) * 1e3, "ms");
    report.note(format!("latency samples {}", latencies_s.len()));
}

/// Peak resident set size (VmHWM) of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// Runs one workload untraced: the end-to-end metrics.
fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Report {
    match workload {
        "qaoa_noisy" => qaoa::run(seed, seconds),
        "trotter_sweep" => trotter::run(seed, seconds),
        "reservoir_digital" => reservoir::run(seed, seconds),
        _ => serve::run(seed, seconds),
    }
}

/// The traced run: every workload's replay, so that each traced run
/// reports every per-layer metric, plus the overall tracing overhead.
fn run_traced(seed: u64) -> Report {
    let mut report = Report::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for workload in WORKLOADS {
        let (part, traced, untraced) = match workload {
            "qaoa_noisy" => qaoa::traced(seed),
            "trotter_sweep" => trotter::traced(seed),
            "reservoir_digital" => reservoir::traced(seed),
            _ => serve::traced(seed),
        };
        traced_s += traced;
        untraced_s += untraced;
        report.metric(format!("trace.overhead_frac.{workload}"), traced / untraced - 1.0, "ratio");
        report.absorb(part);
    }
    report.metric("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    report
}

/// `--workload all`: each workload in its own process, one after another.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("appbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for workload in WORKLOADS {
        let mut args: Vec<String> = raw.to_vec();
        if let Some(pos) = args.iter().position(|a| a == "--workload") {
            args[pos + 1] = workload.to_string();
        }
        println!("== {workload}");
        let output = match Command::new(&exe).args(&args).output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("appbench: cannot run {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        correct &= output.status.success() && last.contains("\"correct\": true");
        attempted += json_count(last, "attempted");
        failed += json_count(last, "failed");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The whole-number value of `"key": n` in a result line (0 if absent).
fn json_count(line: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\": ");
    line.find(&pattern)
        .map(|at| &line[at + pattern.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("appbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" && !args.trace {
        return run_all(&raw);
    }
    println!(
        "appbench workload {} seed {} seconds {} trace {} | nproc {} par::max_threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        qudit_core::par::max_threads()
    );
    let report = if args.trace {
        run_traced(args.seed)
    } else {
        let mut report = run_untraced(&args.workload, args.seed, args.seconds);
        match peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
            None => {
                eprintln!("appbench: VmHWM is not readable from /proc/self/status");
                return ExitCode::FAILURE;
            }
        }
        report.note(format!(
            "failed_frac {} ({} of {} units)",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.failed,
            report.attempted
        ));
        report
    };
    report.print();
    ExitCode::SUCCESS
}
