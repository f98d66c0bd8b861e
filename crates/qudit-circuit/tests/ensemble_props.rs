//! Property tests for the repeated-plan executors: a population of bindings
//! run through `run_ensemble` must be **bitwise identical**, column for
//! column, to the serial `run_bound` loop — states, measurement records, and
//! guard health reports alike — and the chunked branch-prefix trajectory
//! executor must reproduce the trajectory-by-trajectory fold bitwise,
//! mid-circuit measurement splits, guard checkpoints, readout flips and all.
//!
//! `run_single` runs the same pure-state executor as a one-member chunk, so
//! folding it checks chunk width `n` against width 1 (kept for fused plans).
//! Unfused plans are also checked against an independent serial interpreter
//! of the source circuit built from public primitives only (`interpret`):
//! `run_detailed` states and records, and every trajectory estimate.
//! Density-backed consumers pin the same populations at 1e-12.
//! Cancellation mid-batch fails the whole call with the standard `Cancelled`
//! error.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::error::CircuitError;
use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::{
    CancelToken, DensityMatrixSimulator, FusionConfig, GuardConfig, GuardPolicy,
    StatevectorSimulator, TrajectorySimulator,
};
use qudit_circuit::{Circuit, Gate, Instruction, Observable, Param};
use qudit_core::apply::{ApplyPlan, OpKind};
use qudit_core::error::CoreError;
use qudit_core::matrix::CMatrix;
use qudit_core::state::QuditState;
use qudit_core::Complex64;

const TOL: f64 = 1e-12;

fn random_hermitian(rng: &mut StdRng, d: usize) -> CMatrix {
    let a = CMatrix::from_fn(d, d, |_, _| {
        Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
    });
    a.hermitian_part()
}

fn push_random_param_gate(c: &mut Circuit, dims: &[usize], idx: usize, rng: &mut StdRng) {
    let n = dims.len();
    let q = rng.gen_range(0..n);
    let d = dims[q];
    match rng.gen_range(0..3) {
        0 => {
            let weights: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let g = Gate::parameterized(
                format!("sep{idx}"),
                vec![d],
                &CMatrix::diag_real(&weights),
                Param::Free(idx),
            )
            .unwrap();
            c.push(g, &[q]).unwrap();
        }
        1 => {
            let h = random_hermitian(rng, d);
            let g =
                Gate::parameterized(format!("mix{idx}"), vec![d], &h, Param::Free(idx)).unwrap();
            c.push(g, &[q]).unwrap();
        }
        _ if n >= 2 => {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            let dd = dims[a] * dims[b];
            let weights: Vec<f64> = (0..dd).map(|_| rng.gen::<f64>()).collect();
            let g = Gate::parameterized(
                format!("zz{idx}"),
                vec![dims[a], dims[b]],
                &CMatrix::diag_real(&weights),
                Param::Free(idx),
            )
            .unwrap();
            c.push(g, &[a, b]).unwrap();
        }
        _ => {
            let h = random_hermitian(rng, d);
            let g =
                Gate::parameterized(format!("mix{idx}"), vec![d], &h, Param::Free(idx)).unwrap();
            c.push(g, &[q]).unwrap();
        }
    }
}

fn push_random_const_gate(c: &mut Circuit, dims: &[usize], rng: &mut StdRng) {
    let n = dims.len();
    if n >= 2 && rng.gen::<f64>() < 0.35 {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        c.push(Gate::csum(dims[a], dims[b]), &[a, b]).unwrap();
    } else {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..3) {
            0 => c.push(Gate::fourier(dims[q]), &[q]).unwrap(),
            1 => c.push(Gate::shift_x(dims[q]), &[q]).unwrap(),
            _ => c.push(Gate::clock_z(dims[q]), &[q]).unwrap(),
        }
    }
}

/// A randomized parameterized circuit with `num_params` free angles; with
/// `stochastic` it mixes in mid-circuit measurements, resets and explicit
/// Kraus channels, the ingredients that force branch handling in the
/// ensemble executors.
fn random_param_circuit(
    rng: &mut StdRng,
    num_params: usize,
    stochastic: bool,
) -> (Circuit, Vec<usize>) {
    let n = rng.gen_range(2..=3);
    let dims: Vec<usize> = (0..n).map(|_| rng.gen_range(2..=3)).collect();
    let mut c = Circuit::new(dims.clone());
    let len = rng.gen_range(10..=16);
    let mut used = Vec::new();
    for step in 0..len {
        let roll = rng.gen::<f64>();
        if roll < 0.35 {
            let idx = step % num_params;
            used.push(idx);
            push_random_param_gate(&mut c, &dims, idx, rng);
        } else if roll < 0.75 || !stochastic {
            push_random_const_gate(&mut c, &dims, rng);
        } else if roll < 0.85 {
            let q = rng.gen_range(0..n);
            c.measure(&[q]).unwrap();
        } else if roll < 0.92 {
            let q = rng.gen_range(0..n);
            c.reset(q).unwrap();
        } else {
            let q = rng.gen_range(0..n);
            let ch = if rng.gen::<bool>() {
                KrausChannel::photon_loss(dims[q], 0.2).unwrap()
            } else {
                KrausChannel::depolarizing(dims[q], 0.15).unwrap()
            };
            c.push_channel(ch, &[q]).unwrap();
        }
    }
    for idx in 0..num_params {
        if !used.contains(&idx) {
            push_random_param_gate(&mut c, &dims, idx, rng);
        }
    }
    (c, dims)
}

fn random_population(rng: &mut StdRng, num_params: usize, size: usize) -> Vec<Vec<f64>> {
    (0..size).map(|_| (0..num_params).map(|_| rng.gen::<f64>() * 3.0 - 1.5).collect()).collect()
}

// ---------------------------------------------------------------------------
// Parameter-batched statevector runs.
// ---------------------------------------------------------------------------

#[test]
fn ensemble_population_is_bitwise_identical_to_serial_run_bound() {
    // Stochastic circuits (measurements, resets, Kraus channels) under a
    // gate-level noise model with readout error and an enabled guard: the
    // full RunOutput — state, measurement records, health report — must be
    // bitwise identical per column.
    for trial in 0..12 {
        let mut rng = StdRng::seed_from_u64(91_000 + trial);
        let num_params = 3;
        let (c, _) = random_param_circuit(&mut rng, num_params, true);
        let noise = NoiseModel::depolarizing(0.02, 0.04).with_readout_flip(0.05);
        let guard =
            GuardConfig::enabled().with_cadence(3).with_policy(GuardPolicy::RenormalizeAndCount);
        let sim = StatevectorSimulator::with_seed(400 + trial).with_noise(noise).with_guard(guard);
        let plan = sim.compile(&c).unwrap();
        let population = random_population(&mut rng, num_params, 5);
        let batch = plan.bind_batch(&population).unwrap();
        assert_eq!(batch.len(), population.len());

        let ensemble = sim.run_ensemble(&plan, &batch).unwrap();
        assert_eq!(ensemble.len(), population.len());
        for (b, params) in population.iter().enumerate() {
            let mut serial_plan = plan.clone();
            let serial = sim.run_bound(&mut serial_plan, params).unwrap();
            let col = ensemble[b].as_ref().unwrap_or_else(|e| {
                panic!("trial {trial}, column {b}: ensemble run failed: {e:?}")
            });
            assert_eq!(
                col.state.amplitudes(),
                serial.state.amplitudes(),
                "trial {trial}, column {b}: states must be bitwise identical"
            );
            assert_eq!(col.measurements, serial.measurements, "trial {trial}, column {b}");
            assert_eq!(col.health, serial.health, "trial {trial}, column {b}");
        }
    }
}

#[test]
fn ensemble_width_one_and_duplicate_bindings_behave() {
    let mut rng = StdRng::seed_from_u64(555);
    let (c, _) = random_param_circuit(&mut rng, 2, true);
    let sim = StatevectorSimulator::with_seed(8).with_noise(NoiseModel::depolarizing(0.03, 0.03));
    let plan = sim.compile(&c).unwrap();
    let theta: Vec<f64> = vec![0.4, -0.9];
    // Duplicate bindings share the simulator seed, so every column replays
    // the identical serial run.
    let batch = plan.bind_batch(&[theta.clone(), theta.clone(), theta.clone()]).unwrap();
    let ensemble = sim.run_ensemble(&plan, &batch).unwrap();
    let mut serial_plan = plan.clone();
    let serial = sim.run_bound(&mut serial_plan, &theta).unwrap();
    for (b, col) in ensemble.iter().enumerate() {
        let col = col.as_ref().unwrap();
        assert_eq!(col.state.amplitudes(), serial.state.amplitudes(), "column {b}");
        assert_eq!(col.measurements, serial.measurements, "column {b}");
    }
    // Empty populations are a no-op.
    let empty = plan.bind_batch(&[]).unwrap();
    assert!(empty.is_empty());
    assert!(sim.run_ensemble(&plan, &empty).unwrap().is_empty());
}

#[test]
fn seeded_ensemble_columns_are_thread_count_invariant() {
    // Columns run on the worker pool, each from the simulator's seed: every
    // thread count must give the serial run of that seed, bit for bit.
    let mut rng = StdRng::seed_from_u64(92_000);
    let (c, dims) = random_param_circuit(&mut rng, 3, true);
    let noise = NoiseModel::depolarizing(0.03, 0.05).with_readout_flip(0.05);
    let guard = GuardConfig::enabled().with_cadence(2);
    let population = random_population(&mut rng, 3, 7);
    let initial = QuditState::zero(dims).unwrap();
    for seed in [1_000, 1_001] {
        for threads in 1..=4 {
            let sim = StatevectorSimulator::with_seed(seed)
                .with_noise(noise.clone())
                .with_guard(guard)
                .with_threads(threads);
            let plan = sim.compile(&c).unwrap();
            let batch = plan.bind_batch(&population).unwrap();
            let columns = sim.run_ensemble_from(&plan, &batch, &initial).unwrap();
            assert_eq!(columns.len(), population.len());
            for (b, col) in columns.iter().enumerate() {
                let col = col.as_ref().unwrap();
                let serial_sim = StatevectorSimulator::with_seed(seed)
                    .with_noise(noise.clone())
                    .with_guard(guard);
                let mut serial_plan = plan.clone();
                let serial =
                    serial_sim.run_bound_from(&mut serial_plan, &population[b], &initial).unwrap();
                let ctx = format!("seed {seed}, threads {threads}, column {b}");
                assert_eq!(col.state.amplitudes(), serial.state.amplitudes(), "{ctx}");
                assert_eq!(col.measurements, serial.measurements, "{ctx}");
                assert_eq!(col.health, serial.health, "{ctx}");
            }
        }
    }
}

#[test]
fn ensemble_population_matches_density_backend_at_tolerance() {
    // Deterministic (noiseless, measurement-free) populations: every
    // ensemble column's probability vector must match the exact
    // density-matrix evolution of the same bound circuit at 1e-12.
    for trial in 0..6 {
        let mut rng = StdRng::seed_from_u64(77_000 + trial);
        let num_params = 2;
        let (c, _) = random_param_circuit(&mut rng, num_params, false);
        let sim = StatevectorSimulator::new();
        let plan = sim.compile(&c).unwrap();
        let population = random_population(&mut rng, num_params, 4);
        let batch = plan.bind_batch(&population).unwrap();
        let ensemble = sim.run_ensemble(&plan, &batch).unwrap();
        let dsim = DensityMatrixSimulator::new();
        for (b, params) in population.iter().enumerate() {
            let col = ensemble[b].as_ref().unwrap();
            let rho = dsim.run(&c.with_bound(params).unwrap()).unwrap();
            let sv_probs = col.state.probabilities();
            for (i, (p, q)) in sv_probs.iter().zip(rho.probabilities().iter()).enumerate() {
                assert!((p - q).abs() < TOL, "trial {trial}, column {b}, outcome {i}: {p} vs {q}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batched trajectories against the serial oracle.
// ---------------------------------------------------------------------------

/// The per-trajectory seed `TrajectorySimulator` derives from its base seed
/// (pinned here so the oracle can replay the sampling stream).
fn traj_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// The serial trajectory fold, rebuilt from the public `run_single`: every
/// trajectory's final state, one at a time, in trajectory order.
fn oracle_states(sim: &TrajectorySimulator, c: &Circuit) -> Vec<QuditState> {
    (0..sim.n_trajectories()).map(|t| sim.run_single(c, t).unwrap()).collect()
}

/// Sample mean and standard error folded in trajectory order.
fn oracle_estimate(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = if values.len() > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, (var / n).sqrt())
}

fn oracle_expectation(states: &[QuditState], obs: &Observable) -> (f64, f64) {
    let values: Vec<f64> = states.iter().map(|s| obs.expectation(s).unwrap()).collect();
    oracle_estimate(&values)
}

fn oracle_distribution(states: &[QuditState]) -> Vec<f64> {
    let mut acc = vec![0.0; states[0].probabilities().len()];
    for state in states {
        for (a, p) in acc.iter_mut().zip(state.probabilities()) {
            *a += p;
        }
    }
    acc.iter().map(|a| a / states.len() as f64).collect()
}

fn oracle_counts(
    states: &[QuditState],
    seed: u64,
    shots: usize,
    readout_flip: f64,
) -> HashMap<Vec<usize>, usize> {
    let mut counts = HashMap::new();
    for (t, state) in states.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(traj_seed(seed, t).wrapping_add(0xABCD));
        let cdf = state.cdf();
        for _ in 0..shots {
            let mut digits = state.radix().digits_of(cdf.try_draw(&mut rng).unwrap()).unwrap();
            qudit_circuit::sim::apply_readout_flip(
                &mut digits,
                state.radix().dims(),
                readout_flip,
                &mut rng,
            );
            *counts.entry(digits).or_insert(0) += 1;
        }
    }
    counts
}

#[test]
fn batched_trajectories_are_bitwise_identical_to_serial_fold() {
    // 70 trajectories crosses the 64-trajectory chunk boundary; stochastic
    // circuits force branch-prefix splits at channels, measurements and
    // resets; readout error consumes extra RNG draws that must stay
    // stream-aligned; the enabled guard runs per-group checkpoints.
    for trial in 0..6 {
        let mut rng = StdRng::seed_from_u64(33_000 + trial);
        let (c, dims) = random_param_circuit(&mut rng, 2, true);
        let noise = NoiseModel::depolarizing(0.03, 0.05).with_readout_flip(0.04);
        let obs = Observable::number(0, dims[0]);
        let sim = TrajectorySimulator::new(70)
            .with_seed(900 + trial)
            .with_noise(noise)
            .with_guard(GuardConfig::enabled().with_policy(GuardPolicy::RenormalizeAndCount));
        let states = oracle_states(&sim, &c);

        let est = sim.expectation(&c, &obs).unwrap();
        let (mean, std_error) = oracle_expectation(&states, &obs);
        assert_eq!(est.mean, mean, "trial {trial}: means must be bitwise identical");
        assert_eq!(est.std_error, std_error, "trial {trial}");
        assert_eq!(est.n_trajectories, 70);

        let dist = sim.outcome_distribution(&c).unwrap();
        assert_eq!(dist, oracle_distribution(&states), "trial {trial}: distributions differ");
    }
}

#[test]
fn batched_trajectory_compiled_and_bound_paths_match_serial() {
    let mut rng = StdRng::seed_from_u64(4242);
    let (c, dims) = random_param_circuit(&mut rng, 2, true);
    let noise = NoiseModel::cavity(0.05, 0.1, 0.0);
    let obs = Observable::number(0, dims[0]);
    let sim = TrajectorySimulator::new(40).with_seed(13).with_noise(noise);
    let mut plan = sim.compile(&c).unwrap();
    let mut theta = Vec::new();
    for round in 0..2 {
        theta = (0..2).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let states = oracle_states(&sim, &c.with_bound(&theta).unwrap());
        let est = sim.expectation_bound(&mut plan, &theta, &obs).unwrap();
        assert_eq!((est.mean, est.std_error), oracle_expectation(&states, &obs), "round {round}");
        let dist = sim.outcome_distribution_bound(&mut plan, &theta).unwrap();
        assert_eq!(dist, oracle_distribution(&states), "round {round}");
    }
    // Compiled (no rebind) path too: the plan still holds the last binding.
    let states = oracle_states(&sim, &c.with_bound(&theta).unwrap());
    let est = sim.expectation_compiled(&plan, &obs).unwrap();
    assert_eq!((est.mean, est.std_error), oracle_expectation(&states, &obs));
    assert_eq!(sim.outcome_distribution_compiled(&plan).unwrap(), oracle_distribution(&states));
}

#[test]
fn trajectory_estimates_match_serial_oracle_at_every_width_and_thread_count() {
    // Chunk width is min(64, ceil(n / threads)), so these sizes cover one
    // trajectory, ragged last chunks, exact multiples and several waves.
    let mut rng = StdRng::seed_from_u64(52_000);
    let (random, random_dims) = random_param_circuit(&mut rng, 2, true);
    // Fusion off with explicit loss channels between Fourier/CSUM layers and
    // no gate noise (noisy gates would bar fusion anyway): `run_single`, the
    // oracle, must honour the simulator's fusion config exactly as the chunk
    // executor does.
    let lossy_dims = vec![3; 3];
    let mut lossy = Circuit::new(lossy_dims.clone());
    for q in 0..3 {
        lossy.push(Gate::fourier(3), &[q]).unwrap();
    }
    lossy.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    lossy.push_channel(KrausChannel::photon_loss(3, 0.2).unwrap(), &[1]).unwrap();
    lossy.push(Gate::csum(3, 3), &[1, 2]).unwrap();
    lossy.push_channel(KrausChannel::photon_loss(3, 0.2).unwrap(), &[2]).unwrap();
    for idx in 0..2 {
        push_random_param_gate(&mut lossy, &lossy_dims, idx, &mut rng);
    }
    lossy.push(Gate::fourier(3), &[0]).unwrap();
    lossy.push_channel(KrausChannel::photon_loss(3, 0.2).unwrap(), &[0]).unwrap();
    let inputs = [
        (
            random,
            random_dims,
            NoiseModel::depolarizing(0.04, 0.06).with_readout_flip(0.03),
            FusionConfig::default(),
        ),
        (
            lossy,
            lossy_dims,
            NoiseModel::noiseless().with_readout_flip(0.03),
            FusionConfig::disabled(),
        ),
    ];
    let theta = vec![0.7, -0.3];
    let cadence = 2;
    let guard = GuardConfig::enabled().with_cadence(cadence);
    let shots = 5;
    for (input, (c, dims, noise, fusion)) in inputs.iter().enumerate() {
        let bound = c.with_bound(&theta).unwrap();
        let obs = Observable::number(0, dims[0]);
        for n in [1usize, 7, 40, 65, 130] {
            let base = TrajectorySimulator::new(n)
                .with_seed(77)
                .with_noise(noise.clone())
                .with_fusion(fusion.clone());
            let states = oracle_states(&base, &bound);
            let expected_est = oracle_expectation(&states, &obs);
            let expected_dist = oracle_distribution(&states);
            let expected_counts = oracle_counts(&states, 77, shots, noise.readout_flip);
            let steps = base.compile(&bound).unwrap().num_steps();
            for threads in 1..=4 {
                let sim = base.clone().with_threads(threads).with_guard(guard);
                let ctx = format!("input {input}, n = {n}, threads = {threads}");
                let (est, health) = sim.expectation_detailed(&bound, &obs).unwrap();
                assert_eq!((est.mean, est.std_error), expected_est, "{ctx}");
                assert_eq!(health.checks_run, n * (steps / cadence + 1), "{ctx}: {health:?}");
                assert_eq!(health.renormalizations, 0, "{ctx}");
                let mut plan = sim.compile(c).unwrap();
                let dist = sim.outcome_distribution_bound(&mut plan, &theta).unwrap();
                assert_eq!(dist, expected_dist, "{ctx}");
                assert_eq!(sim.sample_counts(&bound, shots).unwrap(), expected_counts, "{ctx}");
            }
        }
    }
}

#[test]
fn batched_trajectories_converge_to_density_result() {
    // The density back-end is exact; the trajectory average must approach
    // it within the Monte-Carlo error bar (a consistency anchor for the
    // chunked executor, not a statistics test).
    let mut c = Circuit::uniform(2, 3);
    c.push(Gate::fourier(3), &[0]).unwrap();
    c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
    let noise = NoiseModel::cavity(0.08, 0.15, 0.0);
    let obs = Observable::number(1, 3);
    let exact =
        DensityMatrixSimulator::new().with_noise(noise.clone()).expectation(&c, &obs).unwrap();
    let est = TrajectorySimulator::new(600)
        .with_seed(17)
        .with_noise(noise)
        .expectation(&c, &obs)
        .unwrap();
    assert!(
        (est.mean - exact).abs() < 5.0 * est.std_error.max(0.02),
        "batched mean {} vs exact {} (stderr {})",
        est.mean,
        exact,
        est.std_error
    );
}

// ---------------------------------------------------------------------------
// An independent serial interpreter over the unfused source circuit.
// ---------------------------------------------------------------------------

/// One stochastic Kraus step on a single state, from public primitives only:
/// branch weights `‖K_k ψ‖²` by `ApplyPlan::norm_sqr_after`, one uniform
/// draw scaled by their sum, a scan that never selects a zero-weight branch
/// (top-edge rounding falls back to the last positive one), then the chosen
/// operator and a renormalisation. A one-operator channel is unitary and
/// draws nothing.
fn interpret_channel(
    state: &mut QuditState,
    channel: &KrausChannel,
    targets: &[usize],
    rng: &mut StdRng,
) {
    let ops = channel.operators();
    if ops.len() == 1 {
        state.apply_operator(&ops[0], targets).unwrap();
        return;
    }
    let plan = ApplyPlan::new(state.radix(), targets).unwrap();
    let mut scratch = Vec::new();
    let weights: Vec<f64> = ops
        .iter()
        .map(|op| {
            plan.norm_sqr_after(&OpKind::classify(op), op, state.amplitudes(), &mut scratch)
                .unwrap()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    let mut r = rng.gen::<f64>() * total;
    let mut chosen = None;
    for (k, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        chosen = Some(k);
        if r < w {
            break;
        }
        r -= w;
    }
    state.apply_operator(&ops[chosen.unwrap()], targets).unwrap();
    state.normalize().unwrap();
}

/// Measurement records: `(targets, digits)` per measurement, in order.
type Records = Vec<(Vec<usize>, Vec<usize>)>;

/// Runs `circuit` from `|0…0⟩` one source instruction at a time, with no
/// compiled plan: each gate is followed by the model's
/// `channels_after_gate`, each barrier by idle photon loss on every qudit
/// in order, each measurement by readout flips of its digits. Returns the
/// final state and the `(targets, digits)` records.
fn interpret(circuit: &Circuit, noise: &NoiseModel, rng: &mut StdRng) -> (QuditState, Records) {
    let dims = circuit.dims();
    let zeros = vec![0.0; circuit.num_params()];
    let mut state = QuditState::zero(dims.to_vec()).unwrap();
    let mut records = Vec::new();
    for inst in circuit.instructions() {
        match inst {
            Instruction::Unitary { gate, targets } => {
                state.apply_operator(&gate.bound_matrix(&zeros).unwrap(), targets).unwrap();
                for (channel, q) in noise.channels_after_gate(targets, dims).unwrap() {
                    interpret_channel(&mut state, &channel, &[q], rng);
                }
            }
            Instruction::Measure { targets } => {
                let mut digits = state.measure(targets, rng).unwrap();
                let target_dims: Vec<usize> = targets.iter().map(|&t| dims[t]).collect();
                qudit_circuit::sim::apply_readout_flip(
                    &mut digits,
                    &target_dims,
                    noise.readout_flip,
                    rng,
                );
                records.push((targets.clone(), digits));
            }
            Instruction::Reset { target } => {
                let level = state.measure(&[*target], rng).unwrap()[0];
                if level != 0 {
                    // The shift X^(d - level) rotates the observed level to 0.
                    let d = dims[*target];
                    let back = CMatrix::from_fn(d, d, |row, col| {
                        if row == (col + d - level) % d {
                            Complex64::ONE
                        } else {
                            Complex64::ZERO
                        }
                    });
                    state.apply_operator(&back, &[*target]).unwrap();
                }
            }
            Instruction::Channel { channel, targets } => {
                interpret_channel(&mut state, channel, targets, rng);
            }
            Instruction::Barrier => {
                if noise.idle_photon_loss > 0.0 {
                    for (q, &d) in dims.iter().enumerate() {
                        let loss = KrausChannel::photon_loss(d, noise.idle_photon_loss).unwrap();
                        interpret_channel(&mut state, &loss, &[q], rng);
                    }
                }
            }
        }
    }
    (state, records)
}

/// A stochastic circuit for the interpreter: a bound random circuit with a
/// barrier after every third instruction.
fn interpreter_circuit(rng: &mut StdRng) -> (Circuit, Vec<usize>) {
    let (c, dims) = random_param_circuit(rng, 2, true);
    let theta: Vec<f64> = (0..2).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    let bound = c.with_bound(&theta).unwrap();
    let mut out = Circuit::new(dims.clone());
    for (i, inst) in bound.instructions().iter().enumerate() {
        match inst {
            Instruction::Unitary { gate, targets } => out.push(gate.clone(), targets).unwrap(),
            Instruction::Measure { targets } => out.measure(targets).unwrap(),
            Instruction::Reset { target } => out.reset(*target).unwrap(),
            Instruction::Channel { channel, targets } => {
                out.push_channel(channel.clone(), targets).unwrap();
            }
            Instruction::Barrier => out.barrier(),
        }
        if i % 3 == 2 {
            out.barrier();
        }
    }
    (out, dims)
}

/// Noise models for the interpreter comparisons: cavity loss with idle loss
/// at barriers, and depolarizing noise, both with readout error.
fn interpreter_noise() -> [NoiseModel; 2] {
    [
        NoiseModel::cavity(0.06, 0.1, 0.08).with_readout_flip(0.05),
        NoiseModel::depolarizing(0.04, 0.06).with_readout_flip(0.03),
    ]
}

#[test]
fn unfused_runs_match_the_independent_interpreter_bitwise() {
    for trial in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(71_000 + trial);
        let (c, _) = interpreter_circuit(&mut rng);
        for (m, noise) in interpreter_noise().into_iter().enumerate() {
            let seed = 500 + trial;
            let mut sim = StatevectorSimulator::with_seed(seed)
                .with_noise(noise.clone())
                .with_fusion(FusionConfig::disabled());
            if trial % 2 == 1 {
                sim = sim.with_guard(GuardConfig::enabled().with_cadence(3));
            }
            let out = sim.run_detailed(&c).unwrap();
            let (state, records) = interpret(&c, &noise, &mut StdRng::seed_from_u64(seed));
            assert_eq!(out.state.amplitudes(), state.amplitudes(), "trial {trial}, model {m}");
            assert_eq!(out.measurements, records, "trial {trial}, model {m}");
        }
    }
}

#[test]
fn unfused_trajectory_estimates_match_the_independent_interpreter_bitwise() {
    let shots = 4;
    for trial in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(72_000 + trial);
        let (c, dims) = interpreter_circuit(&mut rng);
        let obs = Observable::number(0, dims[0]);
        for (m, noise) in interpreter_noise().into_iter().enumerate() {
            let seed = 40 + trial;
            let n = 70;
            let states: Vec<QuditState> = (0..n)
                .map(|t| interpret(&c, &noise, &mut StdRng::seed_from_u64(traj_seed(seed, t))).0)
                .collect();
            for threads in [1, 3] {
                let sim = TrajectorySimulator::new(n)
                    .with_seed(seed)
                    .with_noise(noise.clone())
                    .with_fusion(FusionConfig::disabled())
                    .with_threads(threads);
                let ctx = format!("trial {trial}, model {m}, threads {threads}");
                let est = sim.expectation(&c, &obs).unwrap();
                assert_eq!((est.mean, est.std_error), oracle_expectation(&states, &obs), "{ctx}");
                assert_eq!(sim.outcome_distribution(&c).unwrap(), oracle_distribution(&states));
                assert_eq!(
                    sim.sample_counts(&c, shots).unwrap(),
                    oracle_counts(&states, seed, shots, noise.readout_flip),
                    "{ctx}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cancellation mid-batch.
// ---------------------------------------------------------------------------

#[test]
fn cancellation_mid_batch_fails_the_whole_ensemble_pass() {
    let mut rng = StdRng::seed_from_u64(616);
    let (c, _) = random_param_circuit(&mut rng, 2, false);
    let token = CancelToken::new().with_check_budget(2);
    // Fusion off keeps one plan step per gate, so the check budget runs out
    // mid-sweep rather than after the (fused) plan has already finished.
    let sim = StatevectorSimulator::new()
        .with_fusion(FusionConfig::disabled())
        .with_guard(GuardConfig::disabled().with_cadence(1))
        .with_cancel(token);
    let plan = sim.compile(&c).unwrap();
    let population = random_population(&mut rng, 2, 4);
    let batch = plan.bind_batch(&population).unwrap();
    // The budget trips at the first cadence boundary: the whole pass fails
    // with the standard Cancelled error rather than per-column failures.
    let err = sim.run_ensemble(&plan, &batch).unwrap_err();
    assert!(
        matches!(err, CircuitError::Core(CoreError::Cancelled { .. })),
        "expected whole-pass cancellation, got {err:?}"
    );
}

#[test]
fn cancellation_mid_batch_stops_batched_trajectories() {
    let mut rng = StdRng::seed_from_u64(617);
    let (c, dims) = random_param_circuit(&mut rng, 2, true);
    let token = CancelToken::new().with_check_budget(3);
    let sim = TrajectorySimulator::new(50)
        .with_noise(NoiseModel::depolarizing(0.02, 0.02))
        .with_guard(GuardConfig::disabled().with_cadence(1))
        .with_cancel(token);
    let err = sim.expectation(&c, &Observable::number(0, dims[0])).unwrap_err();
    assert!(
        matches!(err, CircuitError::Core(CoreError::Cancelled { .. })),
        "expected cancellation, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Input validation.
// ---------------------------------------------------------------------------

#[test]
fn ensemble_rejects_mismatched_seeds_and_short_bindings() {
    let mut rng = StdRng::seed_from_u64(618);
    let (c, dims) = random_param_circuit(&mut rng, 2, false);
    let sim = StatevectorSimulator::new();
    let plan = sim.compile(&c).unwrap();
    assert!(plan.bind_batch(&[vec![0.1]]).is_err(), "short member bindings must be rejected");
    let batch = plan.bind_batch(&[vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
    let mut wrong_dims = dims;
    wrong_dims.push(2);
    let initial = qudit_core::QuditState::zero(wrong_dims).unwrap();
    assert!(
        sim.run_ensemble_from(&plan, &batch, &initial).is_err(),
        "an initial state on another register must be rejected"
    );
}
