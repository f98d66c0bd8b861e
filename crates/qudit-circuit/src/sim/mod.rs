//! Circuit simulators.
//!
//! Three back-ends with different cost/fidelity trade-offs:
//!
//! * [`StatevectorSimulator`] — pure-state evolution; noise channels and
//!   measurements are handled stochastically (a single quantum trajectory).
//! * [`DensityMatrixSimulator`] — exact open-system evolution under a
//!   [`crate::noise::NoiseModel`]; cost scales with the *square* of the
//!   Hilbert-space dimension.
//! * [`TrajectorySimulator`] — Monte-Carlo averaging of many stochastic
//!   state-vector runs; approaches the density-matrix result as the number of
//!   trajectories grows, at state-vector memory cost.
//!
//! All three consume circuits through a compiled execution plan: the
//! [`fusion`] pass first coalesces runs of adjacent gates into fused
//! superblocks (configurable via [`FusionConfig`], on by default), and the
//! per-step stride plans, operator classifications and noise channels are
//! precomputed once and reused across shots and trajectories. Use
//! [`StatevectorSimulator::compile`] to hold on to the plan across calls.
//!
//! One step loop runs every plan. It checks a [`CancelToken`] on entry and,
//! every [`GuardConfig`] `cadence` steps (guard on or off), runs the guard
//! checkpoint and then the cancel check; an enabled guard checks once more at
//! the end. Its pure-state backend runs a chunk of stochastic runs as one
//! lazily splitting panel ([`StatevectorSimulator`]: one member per run;
//! [`TrajectorySimulator`]: up to 64); its density backend evolves ρ in place.
//!
//! The density-matrix back-end re-compiles the shared plan one step further:
//! every channel whose superoperator `Σ K ⊗ conj(K)` is profitable executes
//! as a single strided sweep over vectorised ρ (see [`qudit_core::superop`]),
//! and channel-adjacent unitary runs fold into the same sweep under a
//! fusion-style cost rule (configurable via [`SuperopConfig`], on by
//! default). [`DensityMatrixSimulator::compile`] exposes the compiled
//! density plan and its [`SuperopStats`].

pub mod fusion;
pub mod introspect;

mod density;
mod ensemble;
mod exec;
mod kernels;
mod statevector;
mod trajectory;

pub use density::{CompiledDensityCircuit, DensityMatrixSimulator};
pub use fusion::{FlushPolicy, FusionConfig, FusionStats};
pub use kernels::{SuperopConfig, SuperopStats};
pub use statevector::{BatchBindings, CompiledCircuit, RunOutput, StatevectorSimulator};
pub use trajectory::{TrajectoryEstimate, TrajectorySimulator};

// Re-exported so guard configuration does not require a direct qudit-core
// dependency at the call site (see `qudit_core::guard` for the full module).
pub use qudit_core::guard::{GuardConfig, GuardPolicy, HealthMetric, RunHealth};

// Re-exported for the same reason: every simulator's `with_cancel` takes a
// token (see `qudit_core::cancel` for the full module).
pub use qudit_core::cancel::{CancelReason, CancelToken};

use rand::Rng;

/// Applies classical readout error to a measured digit string: each digit is
/// replaced by a uniformly random *different* level with probability `p_flip`.
pub fn apply_readout_flip<R: Rng + ?Sized>(
    digits: &mut [usize],
    dims: &[usize],
    p_flip: f64,
    rng: &mut R,
) {
    if p_flip <= 0.0 {
        return;
    }
    for (i, digit) in digits.iter_mut().enumerate() {
        if rng.gen::<f64>() < p_flip {
            let d = dims[i];
            let mut new = rng.gen_range(0..d - 1);
            if new >= *digit {
                new += 1;
            }
            *digit = new;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::noise::KrausChannel;
    use qudit_core::state::QuditState;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stochastic_channel_preserves_normalisation() {
        let ch = KrausChannel::photon_loss(4, 0.3).unwrap();
        let initial = QuditState::basis(vec![4, 4], &[3, 2]).unwrap();
        for len in 1..=20 {
            let mut c = Circuit::uniform(2, 4);
            for _ in 0..len {
                c.push_channel(ch.clone(), &[0]).unwrap();
            }
            let out = StatevectorSimulator::with_seed(len).run_from(&c, &initial).unwrap();
            assert!((out.state.norm() - 1.0).abs() < 1e-10, "{len} channels");
        }
    }

    #[test]
    fn stochastic_channel_statistics_match_exact_channel() {
        // Average photon number over many trajectories ≈ exact loss.
        let d = 5;
        let gamma = 0.4;
        let ch = KrausChannel::photon_loss(d, gamma).unwrap();
        let n_op = crate::gates::number_operator(d);
        let initial = QuditState::basis(vec![d], &[3]).unwrap();
        let mut c = Circuit::uniform(1, d);
        c.push_channel(ch, &[0]).unwrap();
        let n_traj = 3000;
        let mut acc = 0.0;
        for t in 0..n_traj {
            let out = StatevectorSimulator::with_seed(7 + t).run_from(&c, &initial).unwrap();
            acc += out.state.expectation(&n_op, &[0]).unwrap().re;
        }
        let mean = acc / n_traj as f64;
        assert!((mean - 3.0 * (1.0 - gamma)).abs() < 0.1);
    }

    #[test]
    fn readout_flip_respects_probability() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut flipped = 0usize;
        let n = 10_000;
        for _ in 0..n {
            let mut digits = vec![1usize];
            apply_readout_flip(&mut digits, &[3], 0.25, &mut rng);
            if digits[0] != 1 {
                flipped += 1;
                assert!(digits[0] < 3);
            }
        }
        let rate = flipped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02);
    }

    #[test]
    fn readout_flip_zero_probability_is_noop() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut digits = vec![2usize, 0, 1];
        apply_readout_flip(&mut digits, &[3, 3, 3], 0.0, &mut rng);
        assert_eq!(digits, vec![2, 0, 1]);
    }
}
