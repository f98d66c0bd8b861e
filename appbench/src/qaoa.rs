//! `qaoa_noisy`: `QuditQaoa::optimize` on seeded random 3-regular, 6-node,
//! 3-colouring instances under depolarising noise (trajectory backend).

use std::cell::{Cell, RefCell};

use qopt::optimizer::{coordinate_ascent, grid_points};
use qopt::{ColoringProblem, Graph, QaoaConfig, QaoaOutcome, QuditQaoa};
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::TrajectorySimulator;

use crate::trace::Tracer;
use crate::{derive, latency_metric, mean, median, per_call, repeat_for, timed, Report};

const NODES: usize = 6;
const DEGREE: usize = 3;
const COLORS: usize = 3;
/// Constructions averaged into one set-up sample; one sample is taken
/// before every solve, so the samples spread over the whole run.
const SETUP_REPS: u32 = 64;
/// Shots `optimize` samples at the optimum.
const SHOTS: usize = 64;
/// Coordinate-ascent rounds. Ascent stops early only after twelve
/// non-improving rounds, so with twelve rounds every instance costs the same
/// 1 + 4 × 12 = 49 objective evaluations and solve time does not depend on
/// when an instance converges.
const OPTIMIZER_ROUNDS: usize = 12;
/// Coordinate-ascent initial step used by `optimize`.
const INITIAL_STEP: f64 = 0.25;

struct Instance {
    qaoa: QuditQaoa,
    config: QaoaConfig,
    edges: usize,
}

fn instance(seed: u64, index: u64) -> Instance {
    let s = derive(seed, index);
    let graph = Graph::random_regular(NODES, DEGREE, s).expect("degree 3 is below 6 nodes");
    let edges = graph.num_edges();
    let problem = ColoringProblem::new(graph, COLORS).expect("3 colours is a valid problem");
    let config = QaoaConfig {
        layers: 1,
        optimizer_rounds: OPTIMIZER_ROUNDS,
        seed: s,
        ..QaoaConfig::default()
    };
    Instance { qaoa: QuditQaoa::new(problem, config), config, edges }
}

fn noise() -> NoiseModel {
    NoiseModel::depolarizing(0.01, 0.005)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_outcome(a: &QaoaOutcome, b: &QaoaOutcome) -> bool {
    same_bits(&a.gammas, &b.gammas)
        && same_bits(&a.betas, &b.betas)
        && a.expected_value.to_bits() == b.expected_value.to_bits()
        && a.best_assignment == b.best_assignment
        && a.best_value == b.best_value
}

pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let noise = noise();
    let (mut setups, mut ratios) = (Vec::new(), Vec::new());
    let solves = repeat_for(seconds, |index| {
        setups.push(per_call(SETUP_REPS, || (instance(seed, index), self::noise())));
        let inst = instance(seed, index);
        let (outcome, elapsed) = timed(|| inst.qaoa.optimize(&noise));
        let ok = outcome.is_ok_and(|o| {
            ratios.push(o.expected_value / inst.edges as f64);
            // A fresh evaluation at the returned angles reproduces the
            // optimiser's objective bit for bit.
            let fresh = inst.qaoa.expected_value(&o.gammas, &o.betas, &noise);
            fresh.is_ok_and(|v| v.to_bits() == o.expected_value.to_bits())
                && inst.qaoa.problem().properly_colored(&o.best_assignment) == o.best_value
        });
        report.check(ok);
        elapsed
    });
    report.metric("setup_s", median(&setups), "s");
    report.metric("solve_s", median(&solves), "s");
    report.note(crate::samples_note(&solves));
    latency_metric(&mut report, &solves);
    report.note(format!("approx_ratio {} (mean over {} instances)", mean(&ratios), ratios.len()));
    report
}

/// `optimize` replayed as its public layer calls: evaluator, grid
/// population, coordinate ascent over `expected_value_bound`, sampling.
fn replay(
    inst: &Instance,
    noise: &NoiseModel,
    tracer: &Tracer,
    visited: &RefCell<Vec<Vec<f64>>>,
    population: &Cell<usize>,
) -> qopt::Result<QaoaOutcome> {
    let q = &inst.qaoa;
    let mut eval = tracer.span("qopt.evaluator", || q.evaluator(noise))?;
    let grid = grid_points(2, 0.1, 1.2, 5);
    let values = tracer.span("qopt.population", || {
        let schedules: Vec<(Vec<f64>, Vec<f64>)> =
            grid.iter().map(|x| (vec![x[0]], vec![x[1]])).collect();
        population.set(schedules.len());
        q.expected_values_population(&mut eval, &schedules)
    })?;
    let mut initial = grid[0].clone();
    let mut best = f64::NEG_INFINITY;
    for (x, &value) in grid.iter().zip(&values) {
        if value > best {
            best = value;
            initial = x.clone();
        }
    }
    let (angles, expected_value) = coordinate_ascent(
        &initial,
        |x| {
            visited.borrow_mut().push(x.to_vec());
            tracer.span("qopt.objective", || {
                let (g, b) = x.split_at(1);
                q.expected_value_bound(&mut eval, g, b).unwrap_or(0.0)
            })
        },
        inst.config.optimizer_rounds,
        INITIAL_STEP,
    );
    let (gammas, betas) = angles.split_at(1);
    let samples =
        tracer.span("qopt.sample", || q.sample_assignments(gammas, betas, noise, SHOTS))?;
    let (best_assignment, best_value) =
        samples.into_iter().max_by_key(|(_, v)| *v).unwrap_or((vec![0; NODES], 0));
    Ok(QaoaOutcome {
        gammas: gammas.to_vec(),
        betas: betas.to_vec(),
        expected_value,
        best_assignment,
        best_value,
    })
}

/// Traced replay of instance 0; returns the report with the traced and
/// untraced wall times of the entry point.
pub fn traced(seed: u64) -> (Report, f64, f64) {
    let mut report = Report::default();
    let inst = instance(seed, 0);
    let noise = noise();
    // An untimed warm-up call, then untraced, traced, traced, untraced: the
    // overhead is biased neither by the process's first call nor by order.
    let _ = inst.qaoa.optimize(&noise);
    let (reference, mut untraced_s) = timed(|| inst.qaoa.optimize(&noise));
    let reference = reference.expect("optimize succeeds on the benchmark instance");
    let tracer = Tracer::new();
    let visited = RefCell::new(Vec::new());
    let population = Cell::new(0);
    let (replayed, mut traced_s) = timed(|| {
        tracer.span("qopt.optimize", || replay(&inst, &noise, &tracer, &visited, &population))
    });
    report.check(replayed.is_ok_and(|r| same_outcome(&r, &reference)));
    let (again, elapsed) = timed(|| {
        let (tracer, visited, population) = (Tracer::new(), RefCell::new(Vec::new()), Cell::new(0));
        tracer.span("qopt.optimize", || replay(&inst, &noise, &tracer, &visited, &population))
    });
    traced_s += elapsed;
    report.check(again.is_ok_and(|r| same_outcome(&r, &reference)));
    let (again, elapsed) = timed(|| inst.qaoa.optimize(&noise));
    untraced_s += elapsed;
    report.check(again.is_ok_and(|r| same_outcome(&r, &reference)));

    // The trajectory layer on the same plan and the same angles: the serial
    // executor `optimize` uses per objective evaluation, and the batched one.
    let sim = TrajectorySimulator::new(inst.config.trajectories)
        .with_seed(inst.config.seed)
        .with_noise(noise.clone());
    let mut plan = inst
        .qaoa
        .ansatz()
        .map_err(|e| e.to_string())
        .and_then(|a| sim.compile(&a).map_err(|e| e.to_string()))
        .expect("the QAOA ansatz compiles");
    let points = visited.into_inner();
    let serial = tracer.span("circuit.trajectory.serial", || {
        points.iter().map(|x| sim.outcome_distribution_bound(&mut plan, x)).collect::<Vec<_>>()
    });
    let batched = tracer.span("circuit.trajectory.batched", || {
        points
            .iter()
            .map(|x| sim.outcome_distribution_bound_batched(&mut plan, x))
            .collect::<Vec<_>>()
    });
    for (s, b) in serial.iter().zip(&batched) {
        report.check(matches!((s, b), (Ok(s), Ok(b)) if same_bits(s, b)));
    }

    let evals = points.len() as f64;
    let objective_s = tracer.total_s("qopt.objective");
    let serial_s = tracer.total_s("circuit.trajectory.serial");
    let objective_ms: Vec<f64> =
        tracer.durations_s("qopt.objective").iter().map(|s| s * 1e3).collect();
    report.metric("qopt.evaluator.s", tracer.total_s("qopt.evaluator"), "s");
    report.metric("qopt.population.s", tracer.total_s("qopt.population"), "s");
    report.metric("qopt.population.evals", population.get() as f64, "count");
    report.metric("qopt.objective.s", objective_s, "s");
    report.metric("qopt.objective.evals", evals, "count");
    report.metric("qopt.objective.p50_ms", median(&objective_ms), "ms");
    report.metric("qopt.sample.s", tracer.total_s("qopt.sample"), "s");
    report.metric("qopt.decode.s", objective_s - serial_s, "s");
    report.metric("circuit.trajectory.serial.ms_per_eval", serial_s * 1e3 / evals, "ms");
    report.metric(
        "circuit.trajectory.batched.ms_per_eval",
        tracer.total_s("circuit.trajectory.batched") * 1e3 / evals,
        "ms",
    );
    report.metric("approx_ratio", reference.expected_value / inst.edges as f64, "ratio");
    report.notes.extend(tracer.summary());
    (report, traced_s, untraced_s)
}
