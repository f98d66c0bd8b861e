//! The pure-state executor: one compiled-plan traversal over a chunk of
//! stochastic runs that share one binding, as a backend of the shared step
//! loop (`sim::exec::drive`, which owns the guard and cancel checkpoints).
//!
//! Deterministic steps batch across *all* live runs of a chunk as
//! matrix–panel products over the interleaved panel of
//! [`qudit_core::ensemble::EnsembleState`]. Runs are grouped by their
//! Kraus-branch prefix: a group holds one panel column plus the member runs
//! whose stochastic history is identical so far. At a stochastic event the
//! group draws each member's branch from that member's own caller-owned RNG,
//! then splits lazily — the parent column is cloned *before* any branch
//! operator touches it. Branch probabilities are computed once per group
//! instead of once per member, while per-member RNG streams keep every
//! member bitwise identical to running it as a chunk of one.
//!
//! Both pure-state simulators run here:
//! [`crate::sim::StatevectorSimulator`] runs every shot, population column
//! and served job as a one-member chunk, and
//! [`crate::sim::TrajectorySimulator`] cuts its trajectories into chunks and
//! fans the chunks out over the worker pool. A one-member chunk never splits,
//! and every panel kernel falls back to its contiguous single-state twin at
//! width 1, so a single run costs what a dedicated single-state loop would.

use rand::rngs::StdRng;
use rand::Rng;

use qudit_core::apply::{ApplyPlan, OpKind};
use qudit_core::complex::Complex64;
use qudit_core::ensemble::EnsembleState;
use qudit_core::error::CoreError;
use qudit_core::guard::{HealthMonitor, RunHealth};
use qudit_core::matrix::CMatrix;
use qudit_core::sampling::Cdf;
use qudit_core::state::QuditState;
use qudit_core::Radix;

use crate::error::{CircuitError, Result};
use crate::sim::apply_readout_flip;
use crate::sim::exec::{check_register, drive, Backend, ExecConfig};
use crate::sim::kernels::{BindBuffers, ChannelKernel, CircuitKernels, ExecStep, RunScratch};

/// One recorded measurement: `(targets, observed digits after readout
/// flip)`.
pub(crate) type Record = (Vec<usize>, Vec<usize>);

/// One branch-prefix group at the end of a chunk: the shared final state,
/// the (ascending) member positions that followed this stochastic history,
/// and the group's per-member health report (scale by the member count to
/// aggregate).
pub(crate) struct GroupOutcome {
    pub state: QuditState,
    pub members: Vec<usize>,
    pub health: RunHealth,
}

/// Everything a chunk run leaves behind: its final groups and, per member
/// position, the measurement records in program order.
pub(crate) struct ChunkOutput {
    pub groups: Vec<GroupOutcome>,
    pub records: Vec<Vec<Record>>,
}

/// A live branch-prefix group during a chunk run. Group `g` owns panel
/// column `g`: a split appends its new columns and their groups in the same
/// order. `members` holds positions into the chunk's RNG slice (ascending),
/// and `monitor` is the lineage's health monitor (cloned at splits, so each
/// group carries the checks its members' single runs would have
/// accumulated).
struct Group {
    members: Vec<usize>,
    monitor: HealthMonitor,
}

/// Runs one member per RNG in `rngs` through a compiled plan from `initial`
/// as a lazily splitting ensemble, under the settings' guard, cancel token
/// and readout flip. Deterministic steps batch across all live columns;
/// stochastic events compute branch probabilities once per *group*, draw
/// each member's branch from its own RNG, and split the panel at divergence
/// points. Each RNG is left where its member's stream ends, so a caller can
/// keep drawing from it.
///
/// Any member's failure (guard trip, zero-mass branch) fails the whole
/// chunk: a trajectory estimate has no meaning with a member missing.
pub(crate) fn run_chunk(
    exec: &ExecConfig,
    kernels: &CircuitKernels,
    binds: &BindBuffers,
    initial: &QuditState,
    rngs: &mut [StdRng],
) -> Result<ChunkOutput> {
    if rngs.is_empty() {
        return Ok(ChunkOutput { groups: Vec::new(), records: Vec::new() });
    }
    check_register(initial.radix().dims(), &kernels.dims)?;
    let mut chunk = Chunk {
        kernels,
        binds,
        readout_flip: exec.noise.readout_flip,
        ens: EnsembleState::from_state(initial),
        groups: vec![Group {
            members: (0..rngs.len()).collect(),
            monitor: HealthMonitor::new(exec.guard),
        }],
        records: vec![Vec::new(); rngs.len()],
        rngs,
        cursor: 0,
        scratch: RunScratch::default(),
    };
    drive(&mut chunk, &kernels.steps, &exec.guard, exec.cancel.as_ref())?;
    let Chunk { ens, groups, records, .. } = chunk;
    let groups = ens
        .into_states()
        .map_err(CircuitError::Core)?
        .into_iter()
        .zip(groups)
        .map(|(state, g)| GroupOutcome { state, members: g.members, health: g.monitor.health() })
        .collect();
    Ok(ChunkOutput { groups, records })
}

/// A chunk in flight: the panel, its branch-prefix groups, the caller's
/// RNGs, the per-member records and the bind cursor.
struct Chunk<'a> {
    kernels: &'a CircuitKernels,
    binds: &'a BindBuffers,
    readout_flip: f64,
    ens: EnsembleState,
    groups: Vec<Group>,
    records: Vec<Vec<Record>>,
    rngs: &'a mut [StdRng],
    cursor: usize,
    scratch: RunScratch,
}

impl Backend for Chunk<'_> {
    type Step = ExecStep;

    fn apply(&mut self, index: usize, step: &ExecStep) -> Result<()> {
        match step {
            ExecStep::Apply { plan, kind, op, noise, .. } => {
                let (kind, op) = self.binds.resolve(&mut self.cursor, index, kind, op);
                let w = self.ens.width();
                plan.apply_batched(kind, op, self.ens.data_mut(), w, &mut self.scratch.block)
                    .map_err(CircuitError::Core)?;
                noise.iter().try_for_each(|channel| self.channel_event(channel))
            }
            ExecStep::Measure { targets } => self.measure_event(targets),
            ExecStep::Reset { target } => self.reset_event(*target),
            ExecStep::Channel(channel) => self.channel_event(channel),
            ExecStep::Barrier => {
                self.kernels.barrier_loss.iter().try_for_each(|channel| self.channel_event(channel))
            }
        }
    }

    #[cfg(feature = "fault-inject")]
    fn amplitudes_mut(&mut self) -> &mut [Complex64] {
        self.ens.data_mut()
    }

    fn checkpoint(&mut self, index: usize) -> Result<()> {
        let w = self.ens.width();
        for (col, group) in self.groups.iter_mut().enumerate() {
            group
                .monitor
                .check_statevector_col(index, self.ens.data_mut(), w, col)
                .map_err(CircuitError::Core)?;
        }
        Ok(())
    }
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

/// Splits `groups[gi]` by per-member branch `choices` (parallel to its member
/// list). The parent column is cloned for every selected branch beyond the
/// first **before** `apply` touches any copy — the branch-prefix splitting
/// rule that keeps every column's history exactly one single run's.
/// `apply(ens, column, branch)` then finalises each branch column. A group
/// whose members all chose one branch stays whole.
fn split_group(
    ens: &mut EnsembleState,
    groups: &mut Vec<Group>,
    gi: usize,
    choices: &[usize],
    n_branches: usize,
    mut apply: impl FnMut(&mut EnsembleState, usize, usize) -> Result<()>,
) -> Result<()> {
    if let Some(&first) = choices.first() {
        if choices.iter().all(|&k| k == first) {
            return apply(ens, gi, first);
        }
    }
    let mut by_branch: Vec<Vec<usize>> = vec![Vec::new(); n_branches];
    for (&m, &k) in groups[gi].members.iter().zip(choices) {
        by_branch[k].push(m);
    }
    let selected: Vec<usize> = (0..n_branches).filter(|&k| !by_branch[k].is_empty()).collect();
    let mut branch_cols = vec![gi];
    for _ in 1..selected.len() {
        branch_cols.push(ens.push_clone_of(gi));
    }
    for (&bc, &k) in branch_cols.iter().zip(selected.iter()) {
        apply(ens, bc, k)?;
    }
    groups[gi].members = std::mem::take(&mut by_branch[selected[0]]);
    let monitor = groups[gi].monitor.clone();
    for &k in selected.iter().skip(1) {
        groups.push(Group { members: std::mem::take(&mut by_branch[k]), monitor: monitor.clone() });
    }
    Ok(())
}

/// Selects a Kraus branch for one uniform draw `r ∈ [0, 1)` from branch
/// weights summing to `total`, matching the [`Cdf`] contract:
/// zero-probability branches are never selected, and rounding at the top
/// edge (`r` within one ulp of the total) falls back to the last *positive*
/// branch rather than the last branch unconditionally.
fn select_branch(probs: &[f64], total: f64, r: f64) -> Option<usize> {
    let mut r = r * total;
    let mut selected = None;
    for (k, &p) in probs.iter().enumerate() {
        if p <= 0.0 {
            continue;
        }
        selected = Some(k);
        if r < p {
            break;
        }
        r -= p;
    }
    selected
}

/// The outcome draw of a measurement or reset: one
/// [`Cdf::try_draw`] from the member's stream over the group's marginal.
fn draw_outcome(cdf: &Cdf, rng: &mut StdRng) -> Result<usize> {
    cdf.try_draw(rng).ok_or_else(|| {
        CircuitError::Core(CoreError::InvalidProbability(
            "measurement targets carry no probability mass (zero state)".into(),
        ))
    })
}

/// The target marginal of group column `col`.
fn marginal_cdf(plan: &ApplyPlan, data: &[Complex64], width: usize, col: usize) -> Cdf {
    Cdf::from_weights(plan.marginal_probabilities_strided(data, width, col, |z| z.norm_sqr()))
}

impl Chunk<'_> {
    /// A Kraus channel event over every live group: probabilities once per
    /// group, one draw per member, lazy panel splits at divergence.
    fn channel_event(&mut self, kernel: &ChannelKernel) -> Result<()> {
        let Chunk { ens, groups, rngs, scratch, .. } = self;
        let core = CircuitError::Core;
        let ops = kernel.channel.operators();
        // Unitary channel: deterministic, so it batches across the whole panel —
        // no draws, no renormalisation, no splits.
        if ops.len() == 1 {
            let w = ens.width();
            kernel
                .plan
                .apply_batched(&kernel.kinds[0], &ops[0], ens.data_mut(), w, &mut scratch.block)
                .map_err(core)?;
            return Ok(());
        }
        let n_groups = groups.len();
        for gi in 0..n_groups {
            let w = ens.width();
            scratch.branch_probs.clear();
            for (op, kind) in ops.iter().zip(kernel.kinds.iter()) {
                let p = kernel
                    .plan
                    .norm_sqr_after_col(kind, op, ens.data(), w, gi, &mut scratch.block)
                    .map_err(core)?;
                scratch.branch_probs.push(p);
            }
            let total: f64 = scratch.branch_probs.iter().sum();
            if total <= 0.0 || total.is_nan() {
                // All branch norms vanish only for a zero state (Kraus channels
                // are trace-preserving).
                return Err(core(CoreError::InvalidProbability(
                    "channel branch probabilities carry no mass (zero state)".into(),
                )));
            }
            // One `gen::<f64>()` per member; a positive total implies a positive
            // branch, so the selection always succeeds.
            let choices: Vec<usize> = groups[gi]
                .members
                .iter()
                .map(|&m| select_branch(&scratch.branch_probs, total, rngs[m].gen::<f64>()))
                .collect::<Option<_>>()
                .ok_or_else(|| {
                    core(CoreError::InvalidProbability(
                        "channel branch probabilities carry no mass".into(),
                    ))
                })?;
            split_group(ens, groups, gi, &choices, ops.len(), |ens, bc, k| {
                apply_col(&kernel.plan, &kernel.kinds[k], &ops[k], ens, bc, &mut *scratch)
                    .map_err(core)?;
                ens.normalize_col(bc).map_err(core)
            })?;
        }
        Ok(())
    }

    /// A mid-circuit measurement over every live group. Each member draws its
    /// outcome and then its readout-flip draws from its own stream, and records
    /// `(targets, flipped digits)`; the group splits by the drawn (unflipped)
    /// outcome.
    fn measure_event(&mut self, targets: &[usize]) -> Result<()> {
        let Chunk { ens, groups, rngs, records, readout_flip, .. } = self;
        let core = CircuitError::Core;
        let radix = ens.radix().clone();
        let plan = ApplyPlan::new(&radix, targets).map_err(core)?;
        let target_dims: Vec<usize> = targets.iter().map(|&t| radix.dims()[t]).collect();
        let target_radix = Radix::new(target_dims.clone()).map_err(core)?;
        let n_groups = groups.len();
        for gi in 0..n_groups {
            let cdf = marginal_cdf(&plan, ens.data(), ens.width(), gi);
            let mut choices = Vec::with_capacity(groups[gi].members.len());
            for &m in &groups[gi].members {
                let outcome = draw_outcome(&cdf, &mut rngs[m])?;
                let mut digits = target_radix.digits_of(outcome).map_err(core)?;
                apply_readout_flip(&mut digits, &target_dims, *readout_flip, &mut rngs[m]);
                records[m].push((targets.to_vec(), digits));
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
    fn reset_event(&mut self, target: usize) -> Result<()> {
        let Chunk { ens, groups, rngs, scratch, .. } = self;
        let core = CircuitError::Core;
        let radix = ens.radix().clone();
        let plan = ApplyPlan::new(&radix, &[target]).map_err(core)?;
        let d = radix.dims()[target];
        let n_groups = groups.len();
        for gi in 0..n_groups {
            let cdf = marginal_cdf(&plan, ens.data(), ens.width(), gi);
            let choices = groups[gi]
                .members
                .iter()
                .map(|&m| draw_outcome(&cdf, &mut rngs[m]))
                .collect::<Result<Vec<_>>>()?;
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
}

/// `X^k` for the generalised shift, used to un-compute reset outcomes.
/// `X^k` maps `|c⟩ → |c + k mod d⟩`, so it is constructed directly as the
/// index permutation rather than by `k` repeated O(d³) matrix products.
fn power_of_shift(d: usize, k: usize) -> CMatrix {
    let mut m = CMatrix::zeros(d, d);
    for c in 0..d {
        m[((c + k) % d, c)] = Complex64::ONE;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_shift_matches_repeated_multiplication() {
        for d in [2usize, 3, 5] {
            for k in 0..=d + 1 {
                let x = crate::gates::shift_x(d);
                let mut expected = CMatrix::identity(d);
                for _ in 0..(k % d) {
                    expected = x.matmul(&expected).unwrap();
                }
                let direct = power_of_shift(d, k);
                assert!((&direct - &expected).max_abs() < 1e-15, "d = {d}, k = {k}");
            }
        }
    }
}
