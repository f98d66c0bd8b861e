//! `trotter_sweep`: `TrotterSweep::states_at` on a 7-site, d = 4 sQED chain
//! (dim 16384), 2nd-order splitting, 8 steps, 128 time points, from a
//! seeded random product state.

use lgt::hamiltonian::{sqed_chain, LatticeHamiltonian, SqedParams};
use lgt::trotter::{trotter_ansatz, TrotterOrder, TrotterSweep};
use qudit_circuit::sim::{CompiledCircuit, RunOutput, StatevectorSimulator};
use qudit_core::complex::c64;
use qudit_core::state::QuditState;

use crate::trace::Tracer;
use crate::{latency_metric, median, repeat_for, timed, Report, SplitMix};

const SITES: usize = 7;
const LINK_DIM: usize = 4;
const STEPS: usize = 8;
const ORDER: TrotterOrder = TrotterOrder::Second;
const TIME_POINTS: usize = 128;
const MAX_TIME: f64 = 2.0;
/// Columns compared against the serial `state_at` in the untraced run.
const CHECKED_COLUMNS: [usize; 3] = [0, TIME_POINTS / 2, TIME_POINTS - 1];

fn hamiltonian() -> LatticeHamiltonian {
    sqed_chain(&SqedParams { sites: SITES, link_dim: LINK_DIM, ..SqedParams::default() })
        .expect("the sQED chain parameters are valid")
}

fn times() -> Vec<f64> {
    (1..=TIME_POINTS).map(|k| MAX_TIME * k as f64 / TIME_POINTS as f64).collect()
}

/// A seeded random product state, one normalised random vector per site.
fn initial_state(dims: &[usize], seed: u64) -> QuditState {
    let mut rng = SplitMix::new(seed);
    let mut state: Option<QuditState> = None;
    for &d in dims {
        let amps = (0..d).map(|_| c64(rng.unit() - 0.5, rng.unit() - 0.5)).collect();
        let mut site = QuditState::from_amplitudes(vec![d], amps).expect("amplitudes match dim");
        site.normalize().expect("a random vector is not zero");
        state = Some(match state {
            None => site,
            Some(s) => s.tensor(&site),
        });
    }
    state.expect("the chain has sites")
}

fn same_state(a: &QuditState, b: &QuditState) -> bool {
    a.amplitudes().len() == b.amplitudes().len()
        && a.amplitudes()
            .iter()
            .zip(b.amplitudes())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let h = hamiltonian();
    let times = times();
    let mut setups = Vec::new();
    let solves = repeat_for(seconds, |index| {
        // Each solve compiles its own sweep: one set-up sample per solve.
        let (sweep, setup_s) = timed(|| TrotterSweep::new(&h, STEPS, ORDER));
        setups.push(setup_s);
        let mut sweep = sweep.expect("the Trotter ansatz compiles");
        let initial = initial_state(&h.dims, crate::derive(seed, index));
        let (states, elapsed) = timed(|| sweep.states_at(&times, &initial));
        let ok = states.is_ok_and(|states| {
            states.len() == TIME_POINTS
                && states.iter().all(|s| (s.norm() - 1.0).abs() <= 1e-10)
                && CHECKED_COLUMNS.iter().all(|&c| {
                    sweep.state_at(times[c], &initial).is_ok_and(|s| same_state(&s, &states[c]))
                })
        });
        report.check(ok);
        elapsed
    });
    report.metric("setup_s", median(&setups), "s");
    report.metric("solve_s", median(&solves), "s");
    report.note(crate::samples_note(&solves));
    latency_metric(&mut report, &solves);
    report
}

type Replayed = (CompiledCircuit, Vec<qudit_circuit::Result<RunOutput>>);

/// `TrotterSweep::new` + `states_at` replayed as `trotter_ansatz`,
/// `compile`, `bind_batch` and `run_ensemble_from`.
fn replay(
    h: &LatticeHamiltonian,
    times: &[f64],
    initial: &QuditState,
    sim: &StatevectorSimulator,
    tracer: &Tracer,
) -> Result<Replayed, String> {
    tracer.span("lgt.states_at", || {
        let ansatz = tracer
            .span("lgt.ansatz", || trotter_ansatz(h, STEPS, ORDER))
            .map_err(|e| e.to_string())?;
        let plan =
            tracer.span("circuit.compile", || sim.compile(&ansatz)).map_err(|e| e.to_string())?;
        let population: Vec<Vec<f64>> = times.iter().map(|&t| vec![t / STEPS as f64]).collect();
        let batch = tracer
            .span("circuit.bind_batch", || plan.bind_batch(&population))
            .map_err(|e| e.to_string())?;
        let columns = tracer
            .span("circuit.run_ensemble", || sim.run_ensemble_from(&plan, &batch, initial))
            .map_err(|e| e.to_string())?;
        Ok((plan, columns))
    })
}

fn same_columns(columns: &[qudit_circuit::Result<RunOutput>], reference: &[QuditState]) -> bool {
    columns.len() == reference.len()
        && columns
            .iter()
            .zip(reference)
            .all(|(c, r)| c.as_ref().is_ok_and(|out| same_state(&out.state, r)))
}

/// Traced replay of the sweep on initial state 0, plus the serial
/// `run_bound_from` loop over the same times; returns the report with the
/// traced and untraced wall times of the entry point.
pub fn traced(seed: u64) -> (Report, f64, f64) {
    let mut report = Report::default();
    let h = hamiltonian();
    let times = times();
    let initial = initial_state(&h.dims, crate::derive(seed, 0));
    let sweep =
        || TrotterSweep::new(&h, STEPS, ORDER).and_then(|mut s| s.states_at(&times, &initial));
    // Warm-up, untraced, traced, traced, untraced, as in the other replays.
    let _ = sweep();
    let (reference, mut untraced_s) = timed(sweep);
    let reference = reference.expect("states_at succeeds on the benchmark chain");
    let tracer = Tracer::new();
    let sim = StatevectorSimulator::new();
    let (replayed, mut traced_s) = timed(|| replay(&h, &times, &initial, &sim, &tracer));
    let (mut plan, columns) = replayed.expect("the replayed sweep runs");
    report.check(same_columns(&columns, &reference));
    drop(columns);
    let (again, elapsed) = timed(|| replay(&h, &times, &initial, &sim, &Tracer::new()));
    traced_s += elapsed;
    report.check(again.is_ok_and(|(_, columns)| same_columns(&columns, &reference)));
    let (again, elapsed) = timed(sweep);
    untraced_s += elapsed;
    report.check(again.is_ok_and(|states| {
        states.len() == reference.len()
            && states.iter().zip(&reference).all(|(a, b)| same_state(a, b))
    }));

    // The serial rebind loop over the same times: the path the ensemble
    // replaces, and the ensemble-equals-serial contract.
    tracer.span("circuit.run_bound_loop", || {
        for (t, expected) in times.iter().zip(&reference) {
            let out = sim.run_bound_from(&mut plan, &[t / STEPS as f64], &initial);
            report.check(out.is_ok_and(|out| same_state(&out.state, expected)));
        }
    });

    let stats = plan.fusion_stats();
    let dim: usize = h.dims.iter().product();
    let run_ensemble_s = tracer.total_s("circuit.run_ensemble");
    let bytes = (plan.num_steps() * dim * TIME_POINTS * 32) as f64;
    report.metric("lgt.ansatz.s", tracer.total_s("lgt.ansatz"), "s");
    report.metric("circuit.compile.s", tracer.total_s("circuit.compile"), "s");
    report.metric("circuit.bind_batch.s", tracer.total_s("circuit.bind_batch"), "s");
    report.metric("circuit.run_ensemble.s", run_ensemble_s, "s");
    report.metric("circuit.run_bound_loop.s", tracer.total_s("circuit.run_bound_loop"), "s");
    report.metric("circuit.plan.steps", plan.num_steps() as f64, "count");
    report.metric("circuit.fusion.unitaries_in", stats.unitaries_in as f64, "count");
    report.metric("circuit.fusion.unitaries_out", stats.unitary_steps_out as f64, "count");
    report.metric("circuit.fusion.max_block_dim", stats.max_block_dim as f64, "count");
    report.metric("circuit.run_ensemble.bytes_computed", bytes, "B");
    report.metric("circuit.run_ensemble.gbps_computed", bytes / run_ensemble_s / 1e9, "GB/s");
    report.notes.extend(tracer.summary());
    (report, traced_s, untraced_s)
}
