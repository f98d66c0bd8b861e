//! `serve_mixed`: a 2-worker `ServeEngine` fed a seeded mixed job stream.
//! Three of every four jobs are statevector jobs on parameterized QAOA
//! ansatz circuits of three seeded 6-node graphs (dim 729); the fourth is a
//! density job on a 4-qutrit ansatz (dim 81). Every job carries its own
//! angles. Two phases, each on a freshly started engine with a warmed plan
//! cache:
//!
//! * `open` — the stream offered at a fixed rate (open loop), latency timed
//!   from each job's due time;
//! * `burst` — the same stream offered all at once, so queued same-plan jobs
//!   coalesce into ensemble passes.
//!
//! The engine derives each job's RNG stream from its id, and both phases
//! assign the same ids to the same jobs, so every burst payload must equal
//! its open payload bit for bit.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use qopt::{ColoringProblem, Graph, QaoaConfig, QuditQaoa};
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{DensityMatrixSimulator, GuardConfig, StatevectorSimulator};
use qudit_circuit::Circuit;
use qudit_serve::{JobOutcome, JobSpec, ServeConfig, ServeEngine, ServeStats};

use crate::{derive, median, percentile, Report, SplitMix};

/// Jobs in the stream of one phase.
const JOBS: usize = 1200;
/// Offered rate of the open phase. Fixed across commits; never recalibrated.
const OPEN_RATE_PER_S: f64 = 300.0;
const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 2 * JOBS;
const SV_CIRCUITS: usize = 3;
/// Index of the density circuit in the stream's circuit list.
const DENSITY_CIRCUIT: usize = SV_CIRCUITS;
/// Burst phases after each open phase of the untraced run.
const BURSTS_PER_ROUND: usize = 4;
/// Engine starts (each with plan-cache warm-up) timed before every phase.
const SETUP_REPS: usize = 5;
/// Untraced and traced bursts each of the traced run.
const TRACED_BURSTS: usize = 3;
/// Direct runs per kind for the per-job execution time.
const EXEC_REPS: usize = 32;

/// The engine's per-job RNG stream derivation (seed ⊕ id · golden ratio),
/// used to reproduce a density job outside the engine.
fn job_seed(engine_seed: u64, id: u64) -> u64 {
    engine_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

struct Stream {
    /// Statevector circuits first, then the density circuit.
    circuits: Vec<Circuit>,
    /// Per job: circuit index and angles.
    jobs: Vec<(usize, Vec<f64>)>,
    engine_seed: u64,
}

fn ansatz(graph: Graph) -> Circuit {
    let problem = ColoringProblem::new(graph, 3).expect("3 colours is a valid problem");
    QuditQaoa::new(problem, QaoaConfig { layers: 1, ..QaoaConfig::default() })
        .ansatz()
        .expect("the QAOA ansatz builds")
}

fn stream(seed: u64) -> Stream {
    let mut circuits: Vec<Circuit> = (0..SV_CIRCUITS as u64)
        .map(|g| ansatz(Graph::random_regular(6, 3, derive(seed, 100 + g)).expect("3 < 6")))
        .collect();
    circuits.push(ansatz(Graph::cycle(4).expect("a 4-cycle is valid")));
    let jobs = (0..JOBS)
        .map(|j| {
            let mut rng = SplitMix::new(derive(seed, 1000 + j as u64));
            let angles = vec![1.2 * rng.unit(), 1.2 * rng.unit()];
            let circuit = if j % 4 == 3 { DENSITY_CIRCUIT } else { j % SV_CIRCUITS };
            (circuit, angles)
        })
        .collect();
    Stream { circuits, jobs, engine_seed: derive(seed, 7) }
}

fn noise() -> NoiseModel {
    NoiseModel::depolarizing(0.01, 0.005)
}

fn config(stream: &Stream) -> ServeConfig {
    ServeConfig::default()
        .with_workers(WORKERS)
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_threads_per_job(1)
        .with_noise(noise())
        .with_seed(stream.engine_seed)
}

fn spec(stream: &Stream, circuit: usize, angles: &[f64]) -> JobSpec {
    let c = stream.circuits[circuit].clone();
    let spec =
        if circuit == DENSITY_CIRCUIT { JobSpec::density(c) } else { JobSpec::statevector(c) };
    spec.with_params(angles.to_vec())
}

/// Starts an engine and warms its plan caches with one job per circuit;
/// returns the engine, the set-up time and the id of the first stream job.
fn start(stream: &Stream) -> (ServeEngine, f64, u64) {
    let begin = Instant::now();
    let engine = ServeEngine::start(config(stream));
    let handles: Vec<_> = (0..stream.circuits.len())
        .map(|c| {
            engine.submit(spec(stream, c, &[0.3, 0.4])).expect("the queue admits warm-up jobs")
        })
        .collect();
    for h in &handles {
        assert!(matches!(h.wait(), JobOutcome::Completed(_)), "warm-up job failed");
    }
    let first_id = handles.len() as u64;
    (engine, begin.elapsed().as_secs_f64(), first_id)
}

/// One payload per job in stream order; `None` where no outcome arrived.
type Payloads = Vec<Option<Vec<f64>>>;

/// What one phase observed, per job in stream order.
struct Phase {
    payloads: Payloads,
    /// Completion minus due time, seconds.
    latency_s: Vec<f64>,
    /// Wall time inside `submit`, seconds.
    submit_s: Vec<f64>,
    /// `queue_len()` just before each submit (traced runs only).
    queue_len: Vec<f64>,
    /// How late each submit started against its due time, seconds.
    lag_s: Vec<f64>,
    /// Phase start to last completion, seconds.
    drain_s: f64,
    stats: ServeStats,
}

/// Offers the stream to `engine` from this thread — at `rate` jobs per
/// second, or all at once for `None` — while a collector thread waits on
/// each handle in submission order and stamps its completion.
fn offer(
    engine: &ServeEngine,
    specs: Vec<JobSpec>,
    rate: Option<f64>,
    sample_queue: bool,
) -> Phase {
    let before = engine.stats();
    let n = specs.len();
    let mut phase = Phase {
        payloads: vec![None; n],
        latency_s: vec![f64::NAN; n],
        submit_s: Vec::with_capacity(n),
        queue_len: Vec::new(),
        lag_s: Vec::with_capacity(n),
        drain_s: 0.0,
        stats: ServeStats::default(),
    };
    let start = Instant::now() + Duration::from_millis(if rate.is_some() { 5 } else { 0 });
    let (tx, rx) = mpsc::channel::<(usize, Instant, qudit_serve::JobHandle)>();
    let done = thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::with_capacity(n);
            for (j, due, handle) in rx {
                let outcome = handle.wait();
                done.push((j, due, Instant::now(), outcome));
            }
            done
        });
        for (j, spec) in specs.into_iter().enumerate() {
            let due = match rate {
                Some(r) => start + Duration::from_secs_f64(j as f64 / r),
                None => start,
            };
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            if sample_queue {
                phase.queue_len.push(engine.queue_len() as f64);
            }
            let t0 = Instant::now();
            let submitted = engine.submit(spec);
            phase.submit_s.push(t0.elapsed().as_secs_f64());
            phase.lag_s.push(t0.saturating_duration_since(due).as_secs_f64());
            // A refused submission leaves its payload empty, which fails
            // the job's check; the engine counts it in `ServeStats::rejected`.
            if let Ok(handle) = submitted {
                tx.send((j, due, handle)).expect("the collector outlives the generator");
            }
        }
        drop(tx);
        collector.join().expect("the collector thread does not panic")
    });
    let mut last = start;
    for (j, due, finished, outcome) in done {
        last = last.max(finished);
        phase.latency_s[j] = (finished - due).as_secs_f64();
        if let JobOutcome::Completed(values) = outcome {
            phase.payloads[j] = Some(values);
        }
    }
    phase.drain_s = (last - start).as_secs_f64();
    phase.stats = delta(engine.stats(), before);
    phase
}

fn delta(after: ServeStats, before: ServeStats) -> ServeStats {
    let cache = |a: qudit_serve::CacheStats, b: qudit_serve::CacheStats| qudit_serve::CacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        evictions: a.evictions - b.evictions,
        coalesced: a.coalesced - b.coalesced,
    };
    ServeStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        failed: after.failed - before.failed,
        cancelled: after.cancelled - before.cancelled,
        panicked: after.panicked - before.panicked,
        shed: after.shed - before.shed,
        rejected: after.rejected - before.rejected,
        retries: after.retries - before.retries,
        batches: after.batches - before.batches,
        batched_jobs: after.batched_jobs - before.batched_jobs,
        statevector_cache: cache(after.statevector_cache, before.statevector_cache),
        density_cache: cache(after.density_cache, before.density_cache),
    }
}

/// Runs one phase on a fresh engine. Before it, the engine is started
/// `SETUP_REPS` times, and the phase runs on the last start; returns the
/// phase, the set-up time of each start and the id of the first stream job.
fn phase(stream: &Stream, rate: Option<f64>, sample_queue: bool) -> (Phase, Vec<f64>, u64) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut started = start(stream);
    setups.push(started.1);
    for _ in 1..SETUP_REPS {
        started.0.join();
        started = start(stream);
        setups.push(started.1);
    }
    let (engine, _, first_id) = started;
    let specs: Vec<JobSpec> = stream.jobs.iter().map(|(c, a)| spec(stream, *c, a)).collect();
    let observed = offer(&engine, specs, rate, sample_queue);
    engine.join();
    (observed, setups, first_id)
}

/// Density diagonals computed directly, for every density job of the stream.
fn direct_density(stream: &Stream, first_id: u64) -> Payloads {
    let noise = noise();
    let mut plan = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .compile(&stream.circuits[DENSITY_CIRCUIT])
        .expect("the density ansatz compiles");
    stream
        .jobs
        .iter()
        .enumerate()
        .map(|(j, (circuit, angles))| {
            if *circuit != DENSITY_CIRCUIT {
                return None;
            }
            plan.bind(angles).expect("two angles bind the ansatz");
            let rho = DensityMatrixSimulator::new()
                .with_seed(job_seed(stream.engine_seed, first_id + j as u64))
                .with_noise(noise.clone())
                .with_threads(1)
                .with_guard(GuardConfig::enabled())
                .run_compiled(&plan)
                .expect("the density job runs directly");
            let m = rho.matrix();
            Some((0..m.rows()).map(|i| m[(i, i)].re).collect())
        })
        .collect()
}

/// Checks every job of a phase and records one unit per job.
fn check_phase(
    report: &mut Report,
    stream: &Stream,
    observed: &Phase,
    reference: &[Option<Vec<f64>>],
    direct: &[Option<Vec<f64>>],
) {
    for j in 0..stream.jobs.len() {
        let ok = match &observed.payloads[j] {
            None => false,
            Some(p) => {
                let kind_ok = match &direct[j] {
                    Some(d) => {
                        p.len() == d.len() && p.iter().zip(d).all(|(a, b)| (a - b).abs() <= 1e-12)
                    }
                    None => (p.iter().sum::<f64>() - 1.0).abs() <= 1e-9,
                };
                let same = reference[j].as_ref().is_some_and(|r| {
                    r.len() == p.len() && r.iter().zip(p).all(|(a, b)| a.to_bits() == b.to_bits())
                });
                kind_ok && same
            }
        };
        // A refused submission has no payload, so it fails here.
        report.check(ok);
    }
}

pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let stream = stream(seed);
    let mut setups = Vec::new();
    let (mut opens, mut bursts): (Vec<Phase>, Vec<Phase>) = (Vec::new(), Vec::new());
    let mut reference: Option<(Payloads, Payloads)> = None;
    // Each phase is checked as soon as it ends and its payloads dropped, so
    // the process's peak memory does not grow with the run length.
    let mut keep = |report: &mut Report, mut observed: Phase, first_id: u64| {
        let (open_payloads, direct) = reference
            .get_or_insert_with(|| (observed.payloads.clone(), direct_density(&stream, first_id)));
        check_phase(report, &stream, &observed, open_payloads, direct);
        observed.payloads = Vec::new();
        observed
    };
    crate::within(seconds, |_| {
        let (open, setup_s, first_id) = phase(&stream, Some(OPEN_RATE_PER_S), false);
        setups.extend(setup_s);
        opens.push(keep(&mut report, open, first_id));
        for _ in 0..BURSTS_PER_ROUND {
            let (burst, setup_s, first_id) = phase(&stream, None, false);
            setups.extend(setup_s);
            bursts.push(keep(&mut report, burst, first_id));
        }
    });
    // Per-phase statistics, then their median across the run's phases.
    let drains: Vec<f64> = bursts.iter().map(|b| b.drain_s).collect();
    let per_open =
        |q: f64| -> Vec<f64> { opens.iter().map(|p| percentile(&p.latency_s, q) * 1e3).collect() };
    report.metric("setup_s", median(&setups), "s");
    report.metric("solve_s", median(&drains), "s");
    report.metric("latency_p50_ms", median(&per_open(0.5)), "ms");
    let lag_ms: Vec<f64> = opens.iter().flat_map(|p| p.lag_s.iter().map(|s| s * 1e3)).collect();
    report.note(format!(
        "open phases {} of {JOBS} jobs at {OPEN_RATE_PER_S} jobs/s | p99 per phase ms {:?} | generator_lag_p99_ms {}",
        opens.len(),
        per_open(0.99),
        percentile(&lag_ms, 0.99)
    ));
    report.note(format!(
        "burst phases {} of {JOBS} jobs | drain s {drains:?} | burst_jobs_per_s {}",
        bursts.len(),
        JOBS as f64 / median(&drains)
    ));
    report
}

/// Median wall time in ms of one job of the given circuit run directly with
/// the engine's noise, guard and thread count.
fn exec_ms(stream: &Stream, circuit: usize) -> f64 {
    let noise = noise();
    let samples: Vec<f64> = if circuit == DENSITY_CIRCUIT {
        let mut plan = DensityMatrixSimulator::new()
            .with_noise(noise.clone())
            .compile(&stream.circuits[circuit])
            .expect("the density ansatz compiles");
        (0..EXEC_REPS)
            .map(|k| {
                plan.bind(&stream.jobs[k].1).expect("two angles bind the ansatz");
                let sim = DensityMatrixSimulator::new()
                    .with_seed(k as u64)
                    .with_noise(noise.clone())
                    .with_threads(1)
                    .with_guard(GuardConfig::enabled());
                crate::timed(|| sim.run_compiled(&plan).expect("the density job runs")).1
            })
            .collect()
    } else {
        let mut plan = StatevectorSimulator::new()
            .with_noise(noise.clone())
            .compile(&stream.circuits[circuit])
            .expect("the QAOA ansatz compiles");
        (0..EXEC_REPS)
            .map(|k| {
                plan.bind(&stream.jobs[k].1).expect("two angles bind the ansatz");
                let sim = StatevectorSimulator::with_seed(k as u64)
                    .with_noise(noise.clone())
                    .with_threads(1)
                    .with_guard(GuardConfig::enabled());
                crate::timed(|| sim.run_compiled(&plan).expect("the statevector job runs")).1
            })
            .collect()
    };
    median(&samples) * 1e3
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-layer metrics of one phase, suffixed with the phase name.
fn phase_metrics(report: &mut Report, stream: &Stream, p: &Phase, name: &str, exec: [f64; 2]) {
    let us: Vec<f64> = p.submit_s.iter().map(|s| s * 1e6).collect();
    let is_density = |j: usize| stream.jobs[j].0 == DENSITY_CIRCUIT;
    let latency_ms = |density: bool| -> Vec<f64> {
        (0..p.latency_s.len())
            .filter(|&j| is_density(j) == density)
            .map(|j| p.latency_s[j] * 1e3)
            .collect()
    };
    let wait_ms: Vec<f64> = (0..p.latency_s.len())
        .map(|j| p.latency_s[j] * 1e3 - exec[usize::from(is_density(j))])
        .collect();
    let s = &p.stats;
    let sv = s.statevector_cache;
    let dm = s.density_cache;
    report.metric(format!("serve.submit.p50_us.{name}"), median(&us), "us");
    report.metric(format!("serve.submit.p99_us.{name}"), percentile(&us, 0.99), "us");
    report.metric(format!("serve.queue_len.p50.{name}"), median(&p.queue_len), "count");
    report.metric(format!("serve.queue_len.max.{name}"), percentile(&p.queue_len, 1.0), "count");
    report.metric(format!("serve.wait.p50_ms.{name}"), median(&wait_ms), "ms");
    report.metric(format!("serve.latency_p50_ms.sv.{name}"), median(&latency_ms(false)), "ms");
    report.metric(format!("serve.latency_p50_ms.density.{name}"), median(&latency_ms(true)), "ms");
    report.metric(
        format!("serve.sv_cache.hit_ratio.{name}"),
        ratio(sv.hits, sv.hits + sv.misses),
        "ratio",
    );
    report.metric(
        format!("serve.density_cache.hit_ratio.{name}"),
        ratio(dm.hits, dm.hits + dm.misses),
        "ratio",
    );
    report.metric(format!("serve.cache.misses.{name}"), (sv.misses + dm.misses) as f64, "count");
    report.metric(format!("serve.batches.{name}"), s.batches as f64, "count");
    report.metric(
        format!("serve.batched_frac.{name}"),
        ratio(s.batched_jobs, s.completed),
        "ratio",
    );
    report.metric(format!("serve.retries.{name}"), s.retries as f64, "count");
    report.metric(format!("serve.shed.{name}"), s.shed as f64, "count");
    report.metric(format!("serve.rejected.{name}"), s.rejected as f64, "count");
}

/// One traced open phase, then an untimed warm-up burst and alternating
/// untraced and traced bursts (queue length sampled at every traced
/// submit). The tracing overhead is measured on the median drain times.
pub fn traced(seed: u64) -> (Report, f64, f64) {
    let mut report = Report::default();
    let stream = stream(seed);
    let (open, _, first_id) = phase(&stream, Some(OPEN_RATE_PER_S), true);
    let direct = direct_density(&stream, first_id);
    check_phase(&mut report, &stream, &open, &open.payloads, &direct);
    let _ = phase(&stream, None, false);
    let (mut plain_s, mut traced_s, mut burst) = (Vec::new(), Vec::new(), None);
    for _ in 0..TRACED_BURSTS {
        for sample_queue in [false, true] {
            let (observed, _, _) = phase(&stream, None, sample_queue);
            check_phase(&mut report, &stream, &observed, &open.payloads, &direct);
            if sample_queue {
                traced_s.push(observed.drain_s);
                burst.get_or_insert(observed);
            } else {
                plain_s.push(observed.drain_s);
            }
        }
    }
    let burst = burst.expect("at least one traced burst ran");
    let exec = [exec_ms(&stream, 0), exec_ms(&stream, DENSITY_CIRCUIT)];
    report.metric("serve.exec.sv_ms", exec[0], "ms");
    report.metric("serve.exec.density_ms", exec[1], "ms");
    phase_metrics(&mut report, &stream, &open, "open", exec);
    phase_metrics(&mut report, &stream, &burst, "burst", exec);
    let lag_ms: Vec<f64> = open.lag_s.iter().map(|s| s * 1e3).collect();
    report.metric("serve.generator_lag_p99_ms", percentile(&lag_ms, 0.99), "ms");
    report.metric("serve.burst_jobs_per_s", JOBS as f64 / median(&traced_s), "1/s");
    for (p, name) in [(&open, "open"), (&burst, "burst")] {
        let ms: Vec<f64> = p.latency_s.iter().map(|s| s * 1e3).collect();
        report.metric(format!("serve.latency_p99_ms.{name}"), percentile(&ms, 0.99), "ms");
    }
    (report, median(&traced_s), median(&plain_s))
}
