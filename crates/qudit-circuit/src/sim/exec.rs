//! The executor core of all three simulators: [`ExecConfig`], the run
//! settings they share, and [`drive`], the only loop over plan steps. `drive`
//! owns the checkpoint policy and hands the state evolution to a
//! [`Backend`]: the pure-state branch-prefix chunk (`sim::ensemble`) or the
//! density matrix (`sim::density`).

use std::sync::Arc;

use qudit_core::cancel::CancelToken;
use qudit_core::guard::GuardConfig;
use qudit_core::par;

use crate::circuit::Circuit;
use crate::error::{CircuitError, Result};
use crate::noise::NoiseModel;
use crate::sim::fusion::FusionConfig;
use crate::sim::kernels::{BindBuffers, CircuitKernels};
use crate::sim::statevector::CompiledCircuit;

/// The run settings shared by every simulator. Each simulator holds one,
/// plus only its own extra field.
#[derive(Debug, Clone)]
pub(crate) struct ExecConfig {
    pub seed: u64,
    pub noise: NoiseModel,
    /// Worker threads (`0` = automatic).
    pub threads: usize,
    pub fusion: FusionConfig,
    pub guard: GuardConfig,
    pub cancel: Option<CancelToken>,
}

impl ExecConfig {
    /// Noiseless, fused, unguarded, uncancellable settings with `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            seed,
            noise: NoiseModel::noiseless(),
            threads: 0,
            fusion: FusionConfig::default(),
            guard: GuardConfig::disabled(),
            cancel: None,
        }
    }

    /// Rejects a plan compiled under another noise model: its gate-level
    /// channels are baked in, so running it here would silently mix the two.
    pub(crate) fn check_noise(&self, compiled: &NoiseModel) -> Result<()> {
        if *compiled != self.noise {
            return Err(CircuitError::Unsupported(
                "compiled circuit was built under a different noise model; recompile with \
                 this simulator's model"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The worker-thread count, with `0` resolved to the pool default.
    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            par::max_threads()
        } else {
            self.threads
        }
    }

    /// Compiles `circuit` under these settings' noise model and fusion
    /// configuration.
    pub(crate) fn kernels(&self, circuit: &Circuit) -> Result<CircuitKernels> {
        CircuitKernels::with_config(circuit, &self.noise, &self.fusion)
    }

    /// Compiles `circuit` into a rebindable pure-state plan handle.
    pub(crate) fn compile(&self, circuit: &Circuit) -> Result<CompiledCircuit> {
        Ok(CompiledCircuit {
            topology: Arc::new(self.kernels(circuit)?),
            binds: BindBuffers::default(),
            noise: self.noise.clone(),
        })
    }

    /// Maps `f` over `0..n` on the worker pool at the resolved thread count,
    /// in index order, polling the cancel token (if any) on entry and
    /// between chunks. Returns the values and the number of retried chunks.
    pub(crate) fn par_map<T: Send>(
        &self,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Result<(Vec<T>, usize)> {
        par::par_map_threads_counted_cancel(n, self.resolved_threads(), self.cancel.as_ref(), f)
            .map_err(CircuitError::Core)
    }
}

/// Rejects an initial state whose register differs from the plan's.
pub(crate) fn check_register(initial: &[usize], plan: &[usize]) -> Result<()> {
    if initial != plan {
        return Err(CircuitError::InvalidTargets(format!(
            "initial state register {initial:?} does not match circuit register {plan:?}"
        )));
    }
    Ok(())
}

/// The state a plan runs on, as [`drive`] sees it.
pub(crate) trait Backend {
    /// One compiled plan step.
    type Step;
    /// Applies plan step `index`.
    fn apply(&mut self, index: usize, step: &Self::Step) -> Result<()>;
    /// The flat state data, for the fault-injection hook.
    #[cfg(feature = "fault-inject")]
    fn amplitudes_mut(&mut self) -> &mut [qudit_core::complex::Complex64];
    /// Runs the guard checkpoint after step `index` (`steps.len()` for the
    /// final one).
    fn checkpoint(&mut self, index: usize) -> Result<()>;
}

/// Whether the step at `index` ends a cadence window: every `cadence` steps,
/// with a cadence of `0` treated as `1`.
fn at_boundary(index: usize, cadence: usize) -> bool {
    (index + 1).is_multiple_of(cadence.max(1))
}

/// Runs `steps` on `backend`. The token (if any) is checked on entry; at
/// every cadence boundary the guard checkpoint runs before the cancel check,
/// so damage outranks cancellation (a budget-armed token spends one unit per
/// boundary, guard or not). An enabled guard checks once more at the end, so
/// every guarded run checks at least once.
pub(crate) fn drive<B: Backend>(
    backend: &mut B,
    steps: &[B::Step],
    guard: &GuardConfig,
    cancel: Option<&CancelToken>,
) -> Result<()> {
    let core = CircuitError::Core;
    if let Some(token) = cancel {
        token.check(0).map_err(core)?;
    }
    for (index, step) in steps.iter().enumerate() {
        backend.apply(index, step)?;
        #[cfg(feature = "fault-inject")]
        qudit_core::guard::inject::apply_state_faults(index, backend.amplitudes_mut());
        if at_boundary(index, guard.cadence) {
            if guard.enabled {
                backend.checkpoint(index)?;
            }
            if let Some(token) = cancel {
                token.check(index).map_err(core)?;
            }
        }
    }
    if guard.enabled {
        backend.checkpoint(steps.len())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::complex::{c64, Complex64};
    use qudit_core::guard::{HealthMonitor, RunHealth};

    /// No-op steps; checkpoints are recorded and check a unit state.
    struct Probe {
        monitor: HealthMonitor,
        amps: Vec<Complex64>,
        checkpoints: Vec<usize>,
    }

    impl Backend for Probe {
        type Step = ();
        fn apply(&mut self, _: usize, _: &()) -> Result<()> {
            Ok(())
        }
        #[cfg(feature = "fault-inject")]
        fn amplitudes_mut(&mut self) -> &mut [Complex64] {
            &mut self.amps
        }
        fn checkpoint(&mut self, index: usize) -> Result<()> {
            self.checkpoints.push(index);
            self.monitor
                .check_statevector_col(index, &mut self.amps, 1, 0)
                .map_err(CircuitError::Core)
        }
    }

    /// Checkpoint indices and health of `n_steps` no-op steps under `guard`.
    fn probe(guard: GuardConfig, n_steps: usize) -> (Vec<usize>, RunHealth) {
        let mut p = Probe {
            monitor: HealthMonitor::new(guard),
            amps: vec![c64(0.5, 0.0); 4],
            checkpoints: Vec::new(),
        };
        drive(&mut p, &vec![(); n_steps], &guard, None).unwrap();
        (p.checkpoints, p.monitor.health())
    }

    #[test]
    fn default_config_is_disabled_and_checkpoints_never_fire() {
        let guard = GuardConfig::default();
        assert!(!guard.enabled);
        let (checkpoints, health) = probe(guard, 100);
        assert!(checkpoints.is_empty());
        assert_eq!(health, RunHealth::default());
    }

    #[test]
    fn cadence_counts_steps() {
        let fired: Vec<bool> = (0..9).map(|i| at_boundary(i, 3)).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false, true]);
        // Mid-run checkpoints on those boundaries, then the final one.
        let (checkpoints, health) = probe(GuardConfig::enabled().with_cadence(3), 9);
        assert_eq!(checkpoints, vec![2, 5, 8, 9]);
        assert_eq!(health.checks_run, 4);
    }

    #[test]
    fn zero_cadence_is_clamped_to_every_step() {
        let config = GuardConfig::enabled().with_cadence(0);
        assert_eq!(config.cadence, 1, "with_cadence(0) documents clamping to 1");
        assert_eq!(probe(config, 2).0, vec![0, 1, 2], "cadence 1 fires after every step");
        // A zero cadence set on the field directly is read as 1 as well.
        let raw = GuardConfig { cadence: 0, ..GuardConfig::enabled() };
        assert_eq!(probe(raw, 2).0, vec![0, 1, 2]);
    }

    #[test]
    fn cadence_beyond_step_count_never_fires_mid_run() {
        // Only the final checkpoint runs, so `checks_run >= 1` even here.
        let (checkpoints, health) = probe(GuardConfig::enabled().with_cadence(1000), 5);
        assert_eq!(checkpoints, vec![5]);
        assert_eq!(health.checks_run, 1);
    }
}
