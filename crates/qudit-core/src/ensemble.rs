//! Interleaved ensembles of state vectors for batched execution.
//!
//! [`EnsembleState`] stores `width` state vectors of one register in a single
//! packed panel: register index `i` of column `b` lives at
//! `data[i * width + b]`. That layout makes one plan traversal sweep every
//! column — [`crate::apply::ApplyPlan::apply_batched`] turns dense blocks
//! into matrix–panel products and diagonal/monomial steps into row-scaled
//! broadcasts — while keeping each column's per-scalar arithmetic order
//! identical to the serial unit-stride kernels.
//!
//! The panel is always packed to the *active* column count: the pure-state
//! executor starts every chunk at width 1 ([`EnsembleState::from_state`])
//! and grows the panel lazily at stochastic divergence points via
//! [`EnsembleState::push_clone_of`], which re-interleaves in place so cache
//! locality tracks the live ensemble, not a preallocated capacity. A
//! one-column panel is a plain contiguous state vector, and the per-column
//! helpers take contiguous passes over it.
//!
//! Per-column reductions ([`EnsembleState::norm_sqr_col`],
//! [`EnsembleState::normalize_col`]) reproduce the exact accumulation order
//! of their [`crate::state::QuditState`] counterparts, which is what lets a
//! chunk of many runs promise bitwise-identical results to running each
//! member on its own.

use crate::complex::Complex64;
use crate::error::{CoreError, Result};
use crate::radix::Radix;
use crate::state::QuditState;

/// A packed, interleaved panel of `width` state vectors over one register.
#[derive(Clone, Debug)]
pub struct EnsembleState {
    radix: Radix,
    width: usize,
    data: Vec<Complex64>,
}

impl EnsembleState {
    /// Creates a one-column ensemble holding `state`.
    pub fn from_state(state: &QuditState) -> Self {
        Self { radix: state.radix().clone(), width: 1, data: state.amplitudes().to_vec() }
    }

    /// Number of columns (ensemble members) currently held.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Hilbert-space dimension of each column.
    #[inline]
    pub fn dim(&self) -> usize {
        self.data.len() / self.width
    }

    /// The register description shared by every column.
    #[inline]
    pub fn radix(&self) -> &Radix {
        &self.radix
    }

    /// The packed interleaved panel: entry `(i, b)` at `data[i * width + b]`.
    #[inline]
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable access to the packed panel. Callers own normalisation.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Copies column `col` out into a contiguous amplitude vector.
    pub fn column_amplitudes(&self, col: usize) -> Vec<Complex64> {
        assert!(col < self.width, "column {col} out of range for width {}", self.width);
        self.data[col..].iter().step_by(self.width).copied().collect()
    }

    /// Extracts column `col` as a standalone [`QuditState`].
    ///
    /// # Errors
    /// Returns an error if the column has (numerically) zero norm.
    pub fn column_state(&self, col: usize) -> Result<QuditState> {
        QuditState::from_amplitudes(self.radix.dims().to_vec(), self.column_amplitudes(col))
    }

    /// Splits the panel into one standalone state per column, in column
    /// order. A one-column panel hands its buffer over without a copy.
    ///
    /// # Errors
    /// Returns an error if any column has (numerically) zero norm.
    pub fn into_states(self) -> Result<Vec<QuditState>> {
        if self.width == 1 {
            return Ok(vec![QuditState::from_amplitudes(self.radix.dims().to_vec(), self.data)?]);
        }
        (0..self.width).map(|col| self.column_state(col)).collect()
    }

    /// Squared 2-norm of column `col`, accumulated in ascending index order
    /// (bitwise identical to [`QuditState::norm_sqr`] on that column).
    pub fn norm_sqr_col(&self, col: usize) -> f64 {
        assert!(col < self.width, "column {col} out of range for width {}", self.width);
        if self.width == 1 {
            return self.data.iter().map(|a| a.norm_sqr()).sum();
        }
        self.data[col..].iter().step_by(self.width).map(|a| a.norm_sqr()).sum()
    }

    /// Renormalises column `col` to unit norm, reproducing
    /// [`QuditState::normalize`] exactly (same fold order, same threshold,
    /// same `scale` multiply).
    ///
    /// # Errors
    /// Returns an error if the column norm is numerically zero.
    pub fn normalize_col(&mut self, col: usize) -> Result<()> {
        let n = self.norm_sqr_col(col).sqrt();
        if n < 1e-300 {
            return Err(CoreError::InvalidArgument("cannot normalise a zero vector".into()));
        }
        let inv = 1.0 / n;
        if self.width == 1 {
            // A one-column panel is contiguous.
            for a in &mut self.data {
                *a = a.scale(inv);
            }
            return Ok(());
        }
        for a in self.data[col..].iter_mut().step_by(self.width) {
            *a = a.scale(inv);
        }
        Ok(())
    }

    /// Appends a new column cloned from column `src`, growing the panel by
    /// one and re-interleaving in place (rows move back to front, so no
    /// second buffer is needed). Returns the new column's index.
    ///
    /// This is the lazy panel split used at trajectory divergence points:
    /// clone the shared prefix *before* branch operators touch either copy.
    pub fn push_clone_of(&mut self, src: usize) -> usize {
        assert!(src < self.width, "column {src} out of range for width {}", self.width);
        let (w, dim) = (self.width, self.dim());
        self.data.resize(dim * (w + 1), Complex64::ZERO);
        // Walk rows from the back: row i's destination starts at i*(w+1),
        // which never overlaps a not-yet-moved row's source range.
        for i in (0..dim).rev() {
            self.data.copy_within(i * w..(i + 1) * w, i * (w + 1));
        }
        for i in 0..dim {
            self.data[i * (w + 1) + w] = self.data[i * (w + 1) + src];
        }
        self.width = w + 1;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn test_state(dims: Vec<usize>, salt: f64) -> QuditState {
        let dim: usize = dims.iter().product();
        let amps: Vec<Complex64> = (0..dim)
            .map(|i| c64(0.3 + 0.05 * i as f64 + salt, -0.2 + 0.01 * i as f64 * salt))
            .collect();
        QuditState::from_amplitudes(dims, amps).unwrap()
    }

    /// A panel holding `states` as its columns, built the way the executor
    /// grows one: start from the first state, clone columns, then write each
    /// column through the interleaved layout.
    fn panel(states: &[QuditState]) -> EnsembleState {
        let mut ens = EnsembleState::from_state(&states[0]);
        for _ in 1..states.len() {
            ens.push_clone_of(0);
        }
        let width = ens.width();
        for (b, state) in states.iter().enumerate() {
            for (i, &a) in state.amplitudes().iter().enumerate() {
                ens.data_mut()[i * width + b] = a;
            }
        }
        ens
    }

    #[test]
    fn round_trips_columns_through_the_interleaved_layout() {
        let states = [test_state(vec![2, 3], 0.1), test_state(vec![2, 3], 0.7)];
        let ens = panel(&states);
        assert_eq!(ens.width(), 2);
        assert_eq!(ens.dim(), 6);
        for (b, s) in states.iter().enumerate() {
            assert_eq!(ens.column_amplitudes(b), s.amplitudes());
            assert_eq!(ens.column_state(b).unwrap().amplitudes(), s.amplitudes());
        }
        let split = ens.into_states().unwrap();
        assert_eq!(split.len(), 2);
        for (out, s) in split.iter().zip(&states) {
            assert_eq!(out.amplitudes(), s.amplitudes());
        }
        // A one-column panel is the state itself.
        let single = EnsembleState::from_state(&states[1]);
        assert_eq!(single.width(), 1);
        assert_eq!(single.data(), states[1].amplitudes());
        assert_eq!(single.into_states().unwrap()[0].amplitudes(), states[1].amplitudes());
    }

    #[test]
    fn column_norms_match_serial_states_bitwise() {
        let states = [test_state(vec![3, 2], 0.2), test_state(vec![3, 2], 0.9)];
        let mut ens = panel(&states);
        for (b, s) in states.iter().enumerate() {
            assert_eq!(ens.norm_sqr_col(b).to_bits(), s.norm_sqr().to_bits());
        }
        let mut serial = states[1].clone();
        serial.normalize().unwrap();
        ens.normalize_col(1).unwrap();
        assert_eq!(ens.column_amplitudes(1), serial.amplitudes());
        // Column 0 untouched.
        assert_eq!(ens.column_amplitudes(0), states[0].amplitudes());
        // The contiguous width-1 passes agree bitwise too.
        let mut single = EnsembleState::from_state(&states[1]);
        assert_eq!(single.norm_sqr_col(0).to_bits(), states[1].norm_sqr().to_bits());
        single.normalize_col(0).unwrap();
        assert_eq!(single.data(), serial.amplitudes());
    }

    #[test]
    fn push_clone_grows_and_preserves_existing_columns() {
        let states = [test_state(vec![2, 2], 0.3), test_state(vec![2, 2], 1.3)];
        let mut ens = panel(&states);
        let new_col = ens.push_clone_of(0);
        assert_eq!(new_col, 2);
        assert_eq!(ens.width(), 3);
        assert_eq!(ens.column_amplitudes(0), states[0].amplitudes());
        assert_eq!(ens.column_amplitudes(1), states[1].amplitudes());
        assert_eq!(ens.column_amplitudes(2), states[0].amplitudes());
    }

    #[test]
    fn rejects_degenerate_ensembles() {
        let ens = panel(&[test_state(vec![2, 2], 0.1), test_state(vec![2, 2], 0.4)]);
        // Zero columns cannot be extracted as states.
        let mut dead = ens.clone();
        dead.data_mut()[0] = Complex64::ZERO;
        dead.data_mut()[2] = Complex64::ZERO;
        dead.data_mut()[4] = Complex64::ZERO;
        dead.data_mut()[6] = Complex64::ZERO;
        assert!(dead.column_state(0).is_err());
        assert!(dead.normalize_col(0).is_err());
        assert!(dead.column_state(1).is_ok());
        assert!(dead.into_states().is_err());
        let mut single = EnsembleState::from_state(&test_state(vec![2], 0.1));
        single.data_mut().fill(Complex64::ZERO);
        assert!(single.clone().normalize_col(0).is_err());
        assert!(single.into_states().is_err());
    }
}
