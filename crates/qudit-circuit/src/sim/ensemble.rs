//! Branch-prefix trajectory execution: one compiled-plan traversal over a
//! chunk of stochastic trajectories.
//!
//! Trajectories share one binding, so deterministic steps batch across *all*
//! live trajectories of a chunk as matrix–panel products over the interleaved
//! panel of [`qudit_core::ensemble::EnsembleState`]. Shots are grouped by
//! their Kraus-branch prefix: a group holds one panel column plus the member
//! trajectories whose stochastic history is identical so far. At a stochastic
//! event the group draws each member's branch from that member's own RNG
//! (seeded per trajectory index, exactly as a single `run_single` trajectory
//! is seeded), then splits lazily — the parent column is cloned *before* any
//! branch operator touches it. Branch probabilities are computed once per
//! group instead of once per trajectory, while per-member RNG streams keep
//! every trajectory bitwise identical to its serial run.
//!
//! [`crate::sim::TrajectorySimulator`] is the only caller: it cuts the
//! trajectories into chunks and fans the chunks out over the worker pool.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_core::apply::{ApplyPlan, OpKind};
use qudit_core::cancel::CancelToken;
use qudit_core::ensemble::EnsembleState;
use qudit_core::error::CoreError;
use qudit_core::guard::{GuardConfig, HealthMonitor, RunHealth};
use qudit_core::matrix::CMatrix;
use qudit_core::sampling::Cdf;
use qudit_core::state::QuditState;
use qudit_core::Radix;

use crate::error::{CircuitError, Result};
use crate::sim::apply_readout_flip;
use crate::sim::kernels::{BindBuffers, ChannelKernel, CircuitKernels, ExecStep, RunScratch};
use crate::sim::statevector::power_of_shift;

/// The simulator settings a trajectory chunk needs, passed explicitly so the
/// executor stays decoupled from the simulator struct.
pub(crate) struct EnsembleConfig<'a> {
    pub guard: GuardConfig,
    pub cancel: Option<&'a CancelToken>,
    pub readout_flip: f64,
}

/// Applies `op` to a single ensemble column through the **serial**
/// unit-stride kernel: the column is gathered into a contiguous buffer,
/// evolved by [`ApplyPlan::apply`] — the exact kernel a single-state run
/// uses — and scattered back, so branch operators stay bitwise identical to
/// the serial arithmetic.
fn apply_col(
    plan: &ApplyPlan,
    kind: &OpKind,
    op: &CMatrix,
    ens: &mut EnsembleState,
    col: usize,
    scratch: &mut RunScratch,
) -> std::result::Result<(), CoreError> {
    let width = ens.width();
    if width == 1 {
        // A width-1 panel is already contiguous.
        return plan.apply(kind, op, ens.data_mut(), &mut scratch.block);
    }
    let buf = &mut scratch.col;
    buf.clear();
    buf.extend(ens.data()[col..].iter().step_by(width));
    plan.apply(kind, op, buf, &mut scratch.block)?;
    for (slot, &a) in ens.data_mut()[col..].iter_mut().step_by(width).zip(buf.iter()) {
        *slot = a;
    }
    Ok(())
}

/// One branch-prefix group at the end of a trajectory chunk: the shared
/// final state, the (ascending) trajectory indices that followed this
/// stochastic history, and the group's per-member health report (scale by
/// the member count to aggregate).
pub(crate) struct TrajGroupOutcome {
    pub state: QuditState,
    pub members: Vec<usize>,
    pub health: RunHealth,
}

/// A live branch-prefix group during a chunk run: its panel column, its
/// member positions (indices into the chunk's member list, ascending), and
/// its lineage's health monitor (cloned at splits, so each group carries the
/// checks its members' serial runs would have accumulated).
struct Group {
    col: usize,
    members: Vec<usize>,
    monitor: HealthMonitor,
}

/// Runs `members` (trajectory index, RNG seed) through a compiled plan as a
/// lazily splitting ensemble. Deterministic steps batch across all live
/// columns; stochastic events compute branch probabilities once per *group*,
/// draw each member's branch from its own RNG (streams aligned draw-for-draw
/// with a single-state run), and split the panel at divergence points.
///
/// Any member's failure (guard trip, zero-mass branch) fails the whole
/// chunk: a trajectory estimate has no meaning with a member missing.
pub(crate) fn run_trajectory_chunk(
    cfg: &EnsembleConfig<'_>,
    kernels: &CircuitKernels,
    binds: &BindBuffers,
    initial: &QuditState,
    members: &[(usize, u64)],
) -> Result<Vec<TrajGroupOutcome>> {
    let core = CircuitError::Core;
    if members.is_empty() {
        return Ok(Vec::new());
    }
    if initial.radix().dims() != kernels.dims {
        return Err(CircuitError::InvalidTargets(format!(
            "initial state register {:?} does not match circuit register {:?}",
            initial.radix().dims(),
            kernels.dims
        )));
    }
    if let Some(token) = cfg.cancel {
        token.check(0).map_err(core)?;
    }
    let cadence = cfg.guard.cadence.max(1);
    let mut ens = EnsembleState::from_state(initial, 1).map_err(core)?;
    let mut groups = vec![Group {
        col: 0,
        members: (0..members.len()).collect(),
        monitor: HealthMonitor::new(cfg.guard),
    }];
    let mut rngs: Vec<StdRng> =
        members.iter().map(|&(_, seed)| StdRng::seed_from_u64(seed)).collect();
    let mut cursor = 0usize;
    let mut scratch = RunScratch::default();

    for (step_index, step) in kernels.steps.iter().enumerate() {
        match step {
            ExecStep::Apply { plan, kind, op, noise, .. } => {
                let (kind, op) = binds.resolve(&mut cursor, step_index, kind, op);
                let w = ens.width();
                plan.apply_batched(kind, op, ens.data_mut(), w, 0..w, &mut scratch.block)
                    .map_err(core)?;
                for channel in noise {
                    channel_event(&mut ens, &mut groups, &mut rngs, channel, &mut scratch)?;
                }
            }
            ExecStep::Measure { targets } => {
                trajectory_measure_event(
                    &mut ens,
                    &mut groups,
                    &mut rngs,
                    targets,
                    cfg.readout_flip,
                )?;
            }
            ExecStep::Reset { target } => {
                trajectory_reset_event(&mut ens, &mut groups, &mut rngs, *target, &mut scratch)?;
            }
            ExecStep::Channel(channel) => {
                channel_event(&mut ens, &mut groups, &mut rngs, channel, &mut scratch)?;
            }
            ExecStep::Barrier => {
                for channel in &kernels.barrier_loss {
                    channel_event(&mut ens, &mut groups, &mut rngs, channel, &mut scratch)?;
                }
            }
        }
        #[cfg(feature = "fault-inject")]
        qudit_core::guard::inject::apply_state_faults(step_index, ens.data_mut());
        let w = ens.width();
        for group in groups.iter_mut() {
            if group.monitor.due() {
                group
                    .monitor
                    .check_statevector_col(step_index, ens.data_mut(), w, group.col)
                    .map_err(core)?;
            }
        }
        if let Some(token) = cfg.cancel {
            if (step_index + 1) % cadence == 0 {
                token.check(step_index).map_err(core)?;
            }
        }
    }
    let w = ens.width();
    for group in groups.iter_mut() {
        if group.monitor.is_enabled() {
            group
                .monitor
                .check_statevector_col(kernels.steps.len(), ens.data_mut(), w, group.col)
                .map_err(core)?;
        }
    }
    groups
        .into_iter()
        .map(|g| {
            Ok(TrajGroupOutcome {
                state: ens.column_state(g.col).map_err(core)?,
                members: g.members.iter().map(|&i| members[i].0).collect(),
                health: g.monitor.health(),
            })
        })
        .collect()
}

/// Splits `groups[gi]` by per-member branch `choices` (parallel to its member
/// list). The parent column is cloned for every selected branch beyond the
/// first **before** `apply` touches any copy — the branch-prefix splitting
/// rule that keeps every column's history exactly one serial trajectory's.
/// `apply(ens, column, branch)` then finalises each branch column.
fn split_group(
    ens: &mut EnsembleState,
    groups: &mut Vec<Group>,
    gi: usize,
    choices: &[usize],
    n_branches: usize,
    mut apply: impl FnMut(&mut EnsembleState, usize, usize) -> Result<()>,
) -> Result<()> {
    let col = groups[gi].col;
    let mut by_branch: Vec<Vec<usize>> = vec![Vec::new(); n_branches];
    for (&m, &k) in groups[gi].members.iter().zip(choices) {
        by_branch[k].push(m);
    }
    let selected: Vec<usize> = (0..n_branches).filter(|&k| !by_branch[k].is_empty()).collect();
    let mut branch_cols = vec![col];
    for _ in 1..selected.len() {
        branch_cols.push(ens.push_clone_of(col));
    }
    for (&bc, &k) in branch_cols.iter().zip(selected.iter()) {
        apply(ens, bc, k)?;
    }
    groups[gi].members = std::mem::take(&mut by_branch[selected[0]]);
    let monitor = groups[gi].monitor.clone();
    for (&bc, &k) in branch_cols.iter().zip(selected.iter()).skip(1) {
        groups.push(Group {
            col: bc,
            members: std::mem::take(&mut by_branch[k]),
            monitor: monitor.clone(),
        });
    }
    Ok(())
}

/// A Kraus channel event over every live group: probabilities once per
/// group, one draw per member (stream-aligned with the serial loop), lazy
/// panel splits at divergence.
fn channel_event(
    ens: &mut EnsembleState,
    groups: &mut Vec<Group>,
    rngs: &mut [StdRng],
    kernel: &ChannelKernel,
    scratch: &mut RunScratch,
) -> Result<()> {
    let core = CircuitError::Core;
    let ops = kernel.channel.operators();
    // Unitary channel: deterministic, so it batches across the whole panel —
    // no draws, no renormalisation, no splits (serial fast path likewise).
    if ops.len() == 1 {
        let w = ens.width();
        kernel
            .plan
            .apply_batched(&kernel.kinds[0], &ops[0], ens.data_mut(), w, 0..w, &mut scratch.block)
            .map_err(core)?;
        return Ok(());
    }
    let n_groups = groups.len();
    for gi in 0..n_groups {
        let col = groups[gi].col;
        let w = ens.width();
        scratch.branch_probs.clear();
        for (op, kind) in ops.iter().zip(kernel.kinds.iter()) {
            let p = kernel
                .plan
                .norm_sqr_after_col(kind, op, ens.data(), w, col, &mut scratch.block)
                .map_err(core)?;
            scratch.branch_probs.push(p);
        }
        let total: f64 = scratch.branch_probs.iter().sum();
        if total <= 0.0 || total.is_nan() {
            return Err(core(CoreError::InvalidProbability(
                "channel branch probabilities carry no mass (zero state)".into(),
            )));
        }
        let mut choices = Vec::with_capacity(groups[gi].members.len());
        for &m in &groups[gi].members {
            // One `gen::<f64>()` per member, exactly as the serial channel
            // unravelling draws it; the scan below replicates the serial
            // selection (zero-probability branches skipped, top-edge
            // rounding falls back to the last positive branch).
            let mut r: f64 = rngs[m].gen::<f64>();
            r *= total;
            let mut selected = None;
            for (k, &p) in scratch.branch_probs.iter().enumerate() {
                if p <= 0.0 {
                    continue;
                }
                selected = Some(k);
                if r < p {
                    break;
                }
                r -= p;
            }
            choices.push(selected.expect("a positive total implies a positive branch"));
        }
        split_group(ens, groups, gi, &choices, ops.len(), |ens, bc, k| {
            apply_col(&kernel.plan, &kernel.kinds[k], &ops[k], ens, bc, &mut *scratch)
                .map_err(core)?;
            ens.normalize_col(bc).map_err(core)
        })?;
    }
    Ok(())
}

/// A mid-circuit measurement over every live group. Outcome draws and
/// readout-flip draws are consumed per member to keep RNG streams aligned
/// with a single-state run; measurement records themselves are not retained
/// (trajectory consumers fold final states only).
fn trajectory_measure_event(
    ens: &mut EnsembleState,
    groups: &mut Vec<Group>,
    rngs: &mut [StdRng],
    targets: &[usize],
    readout_flip: f64,
) -> Result<()> {
    let core = CircuitError::Core;
    let radix = ens.radix().clone();
    let plan = ApplyPlan::new(&radix, targets).map_err(core)?;
    let target_dims: Vec<usize> = targets.iter().map(|&t| radix.dims()[t]).collect();
    let target_radix = Radix::new(target_dims.clone()).map_err(core)?;
    let n_groups = groups.len();
    for gi in 0..n_groups {
        let col = groups[gi].col;
        let w = ens.width();
        let probs = plan.marginal_probabilities_strided(ens.data(), w, col, |z| z.norm_sqr());
        let cdf = Cdf::from_weights(probs);
        let mut choices = Vec::with_capacity(groups[gi].members.len());
        for &m in &groups[gi].members {
            let outcome = cdf.try_draw(&mut rngs[m]).ok_or_else(|| {
                core(CoreError::InvalidProbability(
                    "measurement targets carry no probability mass (zero state)".into(),
                ))
            })?;
            let mut digits = target_radix.digits_of(outcome).map_err(core)?;
            apply_readout_flip(&mut digits, &target_dims, readout_flip, &mut rngs[m]);
            choices.push(outcome);
        }
        split_group(ens, groups, gi, &choices, plan.sub_dim(), |ens, bc, outcome| {
            let w = ens.width();
            plan.collapse_col(ens.data_mut(), w, bc, outcome);
            ens.normalize_col(bc).map_err(core)
        })?;
    }
    Ok(())
}

/// A reset over every live group: measure the target (one draw per member),
/// split by observed level, rotate each branch column back to `|0⟩`.
fn trajectory_reset_event(
    ens: &mut EnsembleState,
    groups: &mut Vec<Group>,
    rngs: &mut [StdRng],
    target: usize,
    scratch: &mut RunScratch,
) -> Result<()> {
    let core = CircuitError::Core;
    let radix = ens.radix().clone();
    let plan = ApplyPlan::new(&radix, &[target]).map_err(core)?;
    let d = radix.dims()[target];
    let n_groups = groups.len();
    for gi in 0..n_groups {
        let col = groups[gi].col;
        let w = ens.width();
        let probs = plan.marginal_probabilities_strided(ens.data(), w, col, |z| z.norm_sqr());
        let cdf = Cdf::from_weights(probs);
        let mut choices = Vec::with_capacity(groups[gi].members.len());
        for &m in &groups[gi].members {
            let level = cdf.try_draw(&mut rngs[m]).ok_or_else(|| {
                core(CoreError::InvalidProbability(
                    "measurement targets carry no probability mass (zero state)".into(),
                ))
            })?;
            choices.push(level);
        }
        split_group(ens, groups, gi, &choices, d, |ens, bc, level| {
            let w = ens.width();
            plan.collapse_col(ens.data_mut(), w, bc, level);
            ens.normalize_col(bc).map_err(core)?;
            if level != 0 {
                let shift_back = power_of_shift(d, d - level);
                let kind = OpKind::classify(&shift_back);
                apply_col(&plan, &kind, &shift_back, ens, bc, &mut *scratch).map_err(core)?;
            }
            Ok(())
        })?;
    }
    Ok(())
}
