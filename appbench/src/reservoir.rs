//! `reservoir_digital`: `evaluate_quantum_digital` on a seeded
//! short-term-memory task (200 samples, delay 2) with the paper's
//! reference reservoir at 7 levels and 8 substeps (ρ is 49 × 49).

use qrc::tasks::{memory_task, nmse, TimeSeriesTask};
use qrc::{evaluate_quantum_digital, fit_ridge, DigitalReservoir, ReservoirParams};

use crate::trace::Tracer;
use crate::{derive, latency_metric, mean, median, per_call, repeat_for, timed, Report};

const LENGTH: usize = 200;
const DELAY: usize = 2;
const TRAIN_FRACTION: f64 = 0.7;
const RIDGE: f64 = 1e-4;
/// Leading samples the pipeline excludes from training.
const WASHOUT: usize = 5;
/// Constructions averaged into one set-up sample; one sample is taken
/// before every solve, so the samples spread over the whole run.
const SETUP_REPS: u32 = 64;

fn params() -> ReservoirParams {
    ReservoirParams { levels: 7, substeps: 8, ..ReservoirParams::paper_reference() }
}

fn task(seed: u64, index: u64) -> TimeSeriesTask {
    memory_task(LENGTH, DELAY, derive(seed, index))
}

/// `(train_nmse, test_nmse)` bits of one evaluation, for exact comparison.
type NmseBits = (u64, u64);

/// `evaluate_quantum_digital` replayed as its public layer calls; returns
/// the NMSE bits and whether every feature was finite.
fn replay(
    params: &ReservoirParams,
    task: &TimeSeriesTask,
    tracer: &Tracer,
) -> qrc::Result<(NmseBits, bool)> {
    let mut reservoir =
        tracer.span("qrc.reservoir_new", || DigitalReservoir::new(params.clone()))?;
    let features = tracer.span("qrc.reservoir_run", || reservoir.run(&task.inputs))?;
    let finite = features.iter().flatten().all(|v| v.is_finite());
    let split = ((task.len() as f64) * TRAIN_FRACTION).round() as usize;
    let split = split.clamp(WASHOUT + 2, task.len() - 2);
    let (train_x, test_x) = (&features[WASHOUT..split], &features[split..]);
    let (train_y, test_y) = (&task.targets[WASHOUT..split], &task.targets[split..]);
    let readout = tracer.span("qrc.fit_ridge", || fit_ridge(train_x, train_y, RIDGE))?;
    let bits = tracer.span("qrc.readout", || {
        let train = nmse(&readout.predict_batch(train_x), train_y);
        let test = nmse(&readout.predict_batch(test_x), test_y);
        (train.to_bits(), test.to_bits())
    });
    Ok((bits, finite))
}

pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let params = params();
    let mut first = None;
    let (mut setups, mut test_nmse) = (Vec::new(), Vec::new());
    let solves = repeat_for(seconds, |index| {
        setups.push(per_call(SETUP_REPS, || (self::params(), task(seed, index))));
        let task = task(seed, index);
        let (eval, elapsed) =
            timed(|| evaluate_quantum_digital(&params, &task, TRAIN_FRACTION, RIDGE));
        let ok = eval.is_ok_and(|e| {
            test_nmse.push(e.test_nmse);
            if index == 0 {
                first = Some((e.train_nmse.to_bits(), e.test_nmse.to_bits()));
            }
            e.test_nmse.is_finite() && e.train_nmse.is_finite()
        });
        report.check(ok);
        elapsed
    });
    // The first evaluation against its replay, outside the timed phase.
    let replayed = replay(&params, &task(seed, 0), &Tracer::new());
    report.check(matches!((replayed, first), (Ok((bits, true)), Some(f)) if bits == f));
    report.metric("setup_s", median(&setups), "s");
    report.metric("solve_s", median(&solves), "s");
    report.note(crate::samples_note(&solves));
    latency_metric(&mut report, &solves);
    report.note(format!("test_nmse {} (mean over {} tasks)", mean(&test_nmse), test_nmse.len()));
    report
}

/// Traced replay of task 0; returns the report with the traced and untraced
/// wall times of the entry point.
pub fn traced(seed: u64) -> (Report, f64, f64) {
    let mut report = Report::default();
    let params = params();
    let task = task(seed, 0);
    // Warm-up, untraced, traced, traced, untraced, as in the other replays.
    let evaluate = || evaluate_quantum_digital(&params, &task, TRAIN_FRACTION, RIDGE);
    let _ = evaluate();
    let (reference, mut untraced_s) = timed(evaluate);
    let reference = reference.expect("the reservoir pipeline succeeds on the benchmark task");
    let expected = (reference.train_nmse.to_bits(), reference.test_nmse.to_bits());
    let tracer = Tracer::new();
    let (replayed, mut traced_s) =
        timed(|| tracer.span("qrc.evaluate_quantum_digital", || replay(&params, &task, &tracer)));
    report.check(matches!(replayed, Ok((bits, true)) if bits == expected));
    let (again, elapsed) = timed(|| {
        let tracer = Tracer::new();
        tracer.span("qrc.evaluate_quantum_digital", || replay(&params, &task, &tracer))
    });
    traced_s += elapsed;
    report.check(matches!(again, Ok((bits, true)) if bits == expected));
    let (again, elapsed) = timed(evaluate);
    untraced_s += elapsed;
    report.check(again.is_ok_and(|e| (e.train_nmse.to_bits(), e.test_nmse.to_bits()) == expected));

    let run_s = tracer.total_s("qrc.reservoir_run");
    report.metric("qrc.reservoir_new.s", tracer.total_s("qrc.reservoir_new"), "s");
    report.metric("qrc.reservoir_run.s", run_s, "s");
    report.metric("qrc.reservoir_run.ms_per_sample", run_s * 1e3 / LENGTH as f64, "ms");
    report.metric("qrc.fit_ridge.s", tracer.total_s("qrc.fit_ridge"), "s");
    report.metric("qrc.readout.s", tracer.total_s("qrc.readout"), "s");
    report.metric("qrc.samples", LENGTH as f64, "count");
    report.metric("test_nmse", reference.test_nmse, "ratio");
    report.notes.extend(tracer.summary());
    (report, traced_s, untraced_s)
}
