//! Monte-Carlo quantum-trajectory simulation.
//!
//! Each trajectory is one stochastic state-vector run (noise channels are
//! unravelled into random Kraus jumps); observables are averaged over
//! trajectories. Memory cost is that of a state vector, so this back-end
//! reaches register sizes the density-matrix simulator cannot, at the price
//! of statistical error `∝ 1/√N`.
//!
//! Trajectories are independent by construction — trajectory `t` seeds its
//! own RNG from `t` — so every estimate is a fold over per-trajectory final
//! states in trajectory order. They execute through the branch-prefix chunk
//! executor (see `sim::ensemble`): a chunk of up to 64 trajectories evolves
//! as one lazily splitting panel, chunks fan out over [`qudit_core::par`]
//! worker threads, and values fold in trajectory order, so every estimate is
//! **bitwise identical** to running each trajectory alone
//! ([`TrajectorySimulator::run_single`]) regardless of thread count. The
//! per-instruction stride plans, operator classifications and noise channels
//! are precompiled once and shared (read-only) by all chunks — including the
//! wire-local fused plan, which may re-order disjoint-support blocks past
//! mid-circuit measurements (see [`crate::sim::fusion`]; estimates are
//! unchanged because disjoint operations commute).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qudit_core::cancel::CancelToken;
use qudit_core::guard::{GuardConfig, RunHealth};
use qudit_core::state::QuditState;

use crate::circuit::Circuit;
use crate::error::{CircuitError, Result};
use crate::noise::NoiseModel;
use crate::observable::Observable;
use crate::sim::ensemble::run_chunk;
use crate::sim::exec::ExecConfig;
use crate::sim::fusion::FusionConfig;
use crate::sim::kernels::{BindBuffers, CircuitKernels};
use crate::sim::statevector::{count_samples, CompiledCircuit, StatevectorSimulator};

/// Most trajectories per chunk. Bounds the panel width (memory is
/// `dim × width` amplitudes) while leaving enough members per chunk for
/// branch-prefix grouping to amortise plan traversal and branch-probability
/// work.
const MAX_CHUNK: usize = 64;

/// A Monte-Carlo trajectory simulator.
///
/// # Example
///
/// ```
/// use qudit_circuit::noise::NoiseModel;
/// use qudit_circuit::sim::TrajectorySimulator;
/// use qudit_circuit::{Circuit, Gate, Observable};
///
/// let mut c = Circuit::uniform(1, 4);
/// c.push(Gate::shift_x(4), &[0]).unwrap(); // |0⟩ → |1⟩
///
/// let sim = TrajectorySimulator::new(200)
///     .with_seed(3)
///     .with_noise(NoiseModel::cavity(0.2, 0.2, 0.0));
/// let est = sim.expectation(&c, &Observable::number(0, 4)).unwrap();
/// // One photon, 20% loss per gate: ⟨n⟩ ≈ 0.8, within Monte-Carlo error.
/// assert!((est.mean - 0.8).abs() < 5.0 * est.std_error.max(0.02));
/// ```
#[derive(Debug, Clone)]
pub struct TrajectorySimulator {
    exec: ExecConfig,
    n_trajectories: usize,
}

/// Mean and standard error of a trajectory-averaged expectation value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryEstimate {
    /// Sample mean over trajectories.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Number of trajectories used.
    pub n_trajectories: usize,
}

impl TrajectorySimulator {
    /// Creates a simulator averaging over `n_trajectories` runs.
    pub fn new(n_trajectories: usize) -> Self {
        Self { exec: ExecConfig::new(0x7247), n_trajectories: n_trajectories.max(1) }
    }

    /// Sets the base random seed.
    #[must_use]
    pub fn with_seed(self, seed: u64) -> Self {
        Self { exec: ExecConfig { seed, ..self.exec }, ..self }
    }

    /// Attaches a gate-level noise model.
    #[must_use]
    pub fn with_noise(self, noise: NoiseModel) -> Self {
        Self { exec: ExecConfig { noise, ..self.exec }, ..self }
    }

    /// Sets the worker-thread count (`0` = automatic). Trajectories run in
    /// chunks of `min(64, ⌈n / threads⌉)` that fan out over the worker pool;
    /// estimates are bitwise independent of this setting.
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        Self { exec: ExecConfig { threads, ..self.exec }, ..self }
    }

    /// Sets the gate-fusion configuration used when compiling the circuit
    /// (enabled by default; see [`crate::sim::fusion`]).
    #[must_use]
    pub fn with_fusion(self, fusion: FusionConfig) -> Self {
        Self { exec: ExecConfig { fusion, ..self.exec }, ..self }
    }

    /// Attaches a runtime health-guard configuration (disabled by default;
    /// see [`qudit_core::guard`]). Checkpoints run per branch-prefix group at
    /// the cadence of a single-state run, and each group's report counts once
    /// per member, so the summed [`RunHealth`] equals the total over
    /// individual trajectories (plus worker-pool chunk retries); retrieve it
    /// with [`TrajectorySimulator::expectation_detailed`].
    #[must_use]
    pub fn with_guard(self, guard: GuardConfig) -> Self {
        Self { exec: ExecConfig { guard, ..self.exec }, ..self }
    }

    /// Attaches a cooperative [`CancelToken`], polled before each wave of
    /// chunks is dispatched, between worker-pool chunks, and at the guard-
    /// cadence boundaries inside every chunk's run. A tripped token surfaces
    /// as [`qudit_core::error::CoreError::Cancelled`]; partial waves are
    /// discarded wholesale, never folded into an estimate.
    #[must_use]
    pub fn with_cancel(self, token: CancelToken) -> Self {
        Self { exec: ExecConfig { cancel: Some(token), ..self.exec }, ..self }
    }

    /// Number of trajectories.
    pub fn n_trajectories(&self) -> usize {
        self.n_trajectories
    }

    /// Compiles a circuit against this simulator's noise model and fusion
    /// configuration into the reusable execution plan all trajectories
    /// share. The plan is rebindable ([`CompiledCircuit::bind`]); pair it
    /// with [`TrajectorySimulator::expectation_bound`] for parameter sweeps.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledCircuit> {
        self.exec.compile(circuit)
    }

    /// Runs every trajectory through the branch-prefix chunk executor, maps
    /// each final group state once with `group_f`, and calls `fold(t, value)`
    /// per trajectory in ascending order, so any consumer that is a pure
    /// function of the per-trajectory final states gets results bitwise
    /// identical to running the trajectories one at a time.
    ///
    /// Chunks of `min(64, ⌈n / threads⌉)` trajectories fan out over the
    /// worker pool in waves of `threads` chunks; a wave's mapped values are
    /// folded before the next wave starts, which bounds memory. Returns the
    /// summed health of all trajectories plus any chunk retries.
    fn fold_trajectories<T: Send>(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
        group_f: impl Fn(&QuditState) -> Result<T> + Sync,
        mut fold: impl FnMut(usize, &T),
    ) -> Result<RunHealth> {
        let initial = QuditState::zero(kernels.dims.clone()).map_err(CircuitError::Core)?;
        let n = self.n_trajectories;
        let threads = self.exec.resolved_threads().max(1);
        let width = MAX_CHUNK.min(n.div_ceil(threads));
        let n_chunks = n.div_ceil(width);
        let run_one_chunk = |chunk: usize| {
            let start = chunk * width;
            let mut rngs: Vec<StdRng> = (start..n.min(start + width))
                .map(|t| StdRng::seed_from_u64(self.traj_seed(t)))
                .collect();
            run_chunk(&self.exec, kernels, binds, &initial, &mut rngs)?
                .groups
                .into_iter()
                .map(|g| {
                    let members = g.members.iter().map(|&m| start + m).collect::<Vec<_>>();
                    Ok((group_f(&g.state)?, members, g.health))
                })
                .collect::<Result<Vec<_>>>()
        };
        let mut health = RunHealth::default();
        for wave in (0..n_chunks).step_by(threads) {
            let len = threads.min(n_chunks - wave);
            let run_wave = |i: usize| run_one_chunk(wave + i);
            // Between-wave checkpoint: a long ensemble stops within one wave
            // even when individual chunks are short.
            if let Some(token) = &self.exec.cancel {
                token.check(wave * width).map_err(CircuitError::Core)?;
            }
            let (chunks, retries) = self.exec.par_map(len, run_wave)?;
            health.retries += retries;
            for groups in chunks {
                let groups = groups?;
                let mut order: Vec<(usize, usize)> = Vec::new();
                for (g, (_, members, group_health)) in groups.iter().enumerate() {
                    health.merge(&group_health.scaled_by(members.len()));
                    order.extend(members.iter().map(|&t| (t, g)));
                }
                order.sort_unstable();
                for (t, g) in order {
                    fold(t, &groups[g].0);
                }
            }
        }
        Ok(health)
    }

    /// Trajectory-averaged expectation value of an observable on the final
    /// state.
    ///
    /// # Errors
    /// Returns an error for invalid instructions or observable dimensions.
    pub fn expectation(
        &self,
        circuit: &Circuit,
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        Ok(self.expectation_detailed(circuit, observable)?.0)
    }

    /// Like [`TrajectorySimulator::expectation`], but also returns the summed
    /// [`RunHealth`] report of all trajectories (all-zero when the guard is
    /// disabled): total checkpoints run, worst observed drift, repairs, and
    /// worker-pool chunk retries across the whole ensemble.
    ///
    /// # Errors
    /// Returns an error for invalid instructions, observable mismatches, or
    /// [`qudit_core::error::CoreError::NumericalHealth`] when an enabled
    /// guard detects damage it is not allowed to repair.
    pub fn expectation_detailed(
        &self,
        circuit: &Circuit,
        observable: &Observable,
    ) -> Result<(TrajectoryEstimate, RunHealth)> {
        let kernels = self.exec.kernels(circuit)?;
        self.expectation_prepared(&kernels, &BindBuffers::default(), observable)
    }

    /// Trajectory-averaged expectation through a precompiled plan (see
    /// [`TrajectorySimulator::compile`]): the fusion pass, stride plans and
    /// noise channels are reused across calls.
    ///
    /// # Errors
    /// Returns an error for an observable/dimension mismatch or a noise model
    /// mismatch.
    pub fn expectation_compiled(
        &self,
        compiled: &CompiledCircuit,
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        self.exec.check_noise(&compiled.noise)?;
        Ok(self.expectation_prepared(&compiled.topology, &compiled.binds, observable)?.0)
    }

    /// Rebinds a compiled plan to `params` and estimates the observable: the
    /// rebind-per-step entry point for noisy variational sweeps.
    ///
    /// # Errors
    /// Returns an error for a short binding or a noise model mismatch.
    pub fn expectation_bound(
        &self,
        compiled: &mut CompiledCircuit,
        params: &[f64],
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        // Validate before binding so a failed call leaves the plan untouched.
        self.exec.check_noise(&compiled.noise)?;
        compiled.bind(params)?;
        self.expectation_compiled(compiled, observable)
    }

    fn expectation_prepared(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
        observable: &Observable,
    ) -> Result<(TrajectoryEstimate, RunHealth)> {
        let mut values = Vec::with_capacity(self.n_trajectories);
        let health = self.fold_trajectories(
            kernels,
            binds,
            |state| observable.expectation(state),
            |_, &v| values.push(v),
        )?;
        Ok((estimate(&values), health))
    }

    /// Trajectory-averaged probability of each full-register basis outcome.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn outcome_distribution(&self, circuit: &Circuit) -> Result<Vec<f64>> {
        let kernels = self.exec.kernels(circuit)?;
        self.outcome_distribution_prepared(&kernels, &BindBuffers::default())
    }

    /// Trajectory-averaged outcome distribution through a precompiled plan.
    ///
    /// # Errors
    /// Returns an error for invalid dimensions or a noise model mismatch.
    pub fn outcome_distribution_compiled(&self, compiled: &CompiledCircuit) -> Result<Vec<f64>> {
        self.exec.check_noise(&compiled.noise)?;
        self.outcome_distribution_prepared(&compiled.topology, &compiled.binds)
    }

    /// Rebinds a compiled plan to `params` and returns the trajectory-
    /// averaged outcome distribution.
    ///
    /// # Errors
    /// Returns an error for a short binding or a noise model mismatch.
    pub fn outcome_distribution_bound(
        &self,
        compiled: &mut CompiledCircuit,
        params: &[f64],
    ) -> Result<Vec<f64>> {
        // Validate before binding so a failed call leaves the plan untouched.
        self.exec.check_noise(&compiled.noise)?;
        compiled.bind(params)?;
        self.outcome_distribution_compiled(compiled)
    }

    /// Former name of [`TrajectorySimulator::outcome_distribution_bound`].
    ///
    /// # Errors
    /// As [`TrajectorySimulator::outcome_distribution_bound`].
    #[doc(hidden)]
    pub fn outcome_distribution_bound_batched(
        &self,
        compiled: &mut CompiledCircuit,
        params: &[f64],
    ) -> Result<Vec<f64>> {
        self.outcome_distribution_bound(compiled, params)
    }

    fn outcome_distribution_prepared(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
    ) -> Result<Vec<f64>> {
        let total_dim: usize = kernels.dims.iter().product();
        let mut acc = vec![0.0; total_dim];
        self.fold_trajectories(
            kernels,
            binds,
            |state| Ok(state.probabilities()),
            |_, probs| {
                for (a, p) in acc.iter_mut().zip(probs.iter()) {
                    *a += p;
                }
            },
        )?;
        for p in &mut acc {
            *p /= self.n_trajectories as f64;
        }
        Ok(acc)
    }

    /// Samples `shots_per_trajectory` measurements from each trajectory and
    /// aggregates the counts.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn sample_counts(
        &self,
        circuit: &Circuit,
        shots_per_trajectory: usize,
    ) -> Result<HashMap<Vec<usize>, usize>> {
        let kernels = self.exec.kernels(circuit)?;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        self.fold_trajectories(
            &kernels,
            &BindBuffers::default(),
            |state| Ok(state.cdf()),
            |t, cdf| {
                let mut rng = StdRng::seed_from_u64(self.traj_seed(t).wrapping_add(0xABCD));
                let (radix, flip) = (circuit.radix(), self.exec.noise.readout_flip);
                count_samples(&mut counts, cdf, radix, flip, &mut rng, shots_per_trajectory);
            },
        )?;
        Ok(counts)
    }

    /// Runs a single trajectory with an index-derived seed, under this
    /// simulator's noise model, fusion config, guard and cancel token: a
    /// [`StatevectorSimulator`] run seeded with the trajectory's seed.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn run_single(&self, circuit: &Circuit, index: usize) -> Result<QuditState> {
        let exec = ExecConfig { seed: self.traj_seed(index), ..self.exec.clone() };
        Ok(StatevectorSimulator { exec }.run_detailed(circuit)?.state)
    }

    fn traj_seed(&self, index: usize) -> u64 {
        self.exec
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }
}

fn estimate(values: &[f64]) -> TrajectoryEstimate {
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
    } else {
        0.0
    };
    TrajectoryEstimate { mean, std_error: (var / n as f64).sqrt(), n_trajectories: n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::sim::DensityMatrixSimulator;

    #[test]
    fn noiseless_trajectories_are_deterministic() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        let sim = TrajectorySimulator::new(10);
        let obs = Observable::number(1, 3);
        let est = sim.expectation(&c, &obs).unwrap();
        assert!(est.std_error < 1e-12);
        assert!((est.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_average_converges_to_density_matrix_result() {
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
            "trajectory mean {} vs exact {} (stderr {})",
            est.mean,
            exact,
            est.std_error
        );
    }

    #[test]
    fn outcome_distribution_is_normalised() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        let sim = TrajectorySimulator::new(50).with_noise(NoiseModel::depolarizing(0.05, 0.1));
        let dist = sim.outcome_distribution(&c).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_counts_aggregate_over_trajectories() {
        let mut c = Circuit::uniform(1, 3);
        c.push(Gate::shift_x(3), &[0]).unwrap();
        let sim = TrajectorySimulator::new(4).with_noise(NoiseModel::cavity(0.2, 0.2, 0.0));
        let counts = sim.sample_counts(&c, 100).unwrap();
        let total: usize = counts.values().sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn estimates_are_reproducible() {
        let mut c = Circuit::uniform(1, 4);
        c.push(Gate::fourier(4), &[0]).unwrap();
        let noise = NoiseModel::depolarizing(0.1, 0.1);
        let obs = Observable::number(0, 4);
        let a = TrajectorySimulator::new(30)
            .with_seed(5)
            .with_noise(noise.clone())
            .expectation(&c, &obs)
            .unwrap();
        let b = TrajectorySimulator::new(30)
            .with_seed(5)
            .with_noise(noise)
            .expectation(&c, &obs)
            .unwrap();
        assert_eq!(a.mean, b.mean);
    }
}
