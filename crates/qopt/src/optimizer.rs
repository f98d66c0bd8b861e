//! Derivative-free classical outer-loop optimisers for variational circuits.

/// Maximises `f` by cyclic coordinate ascent with an adaptive step size.
///
/// Starting from `initial`, each round tries `± step` moves on every
/// coordinate, keeping improvements; the step shrinks when a full round makes
/// no progress. Deterministic and dependency-free — sufficient for the small
/// parameter counts (2p QAOA angles) used here.
pub fn coordinate_ascent(
    initial: &[f64],
    mut f: impl FnMut(&[f64]) -> f64,
    rounds: usize,
    initial_step: f64,
) -> (Vec<f64>, f64) {
    let mut x = initial.to_vec();
    let mut best = f(&x);
    let mut step = initial_step;
    for _ in 0..rounds {
        let mut improved = false;
        for i in 0..x.len() {
            for delta in [step, -step] {
                let mut trial = x.clone();
                trial[i] += delta;
                let value = f(&trial);
                if value > best {
                    best = value;
                    x = trial;
                    improved = true;
                }
            }
        }
        if !improved {
            step *= 0.5;
            if step < 1e-4 {
                break;
            }
        }
    }
    (x, best)
}

/// Coarse grid search over `[lo, hi]^dims` with `points` samples per axis,
/// returning the best grid point. Intended as an initialiser for
/// [`coordinate_ascent`]; the grid size grows as `points^dims`, so keep
/// `dims ≤ 3`.
pub fn grid_search(
    dims: usize,
    lo: f64,
    hi: f64,
    points: usize,
    mut f: impl FnMut(&[f64]) -> f64,
) -> (Vec<f64>, f64) {
    let mut best_x = vec![lo; dims];
    let mut best_val = f64::NEG_INFINITY;
    for x in grid_points(dims, lo, hi, points) {
        let value = f(&x);
        if value > best_val {
            best_val = value;
            best_x = x;
        }
    }
    (best_x, best_val)
}

/// The grid [`grid_search`] walks, in its exact evaluation order — for
/// callers that want to evaluate the whole grid as one *population* (e.g.
/// one `run_ensemble` call) and take the argmax themselves.
pub fn grid_points(dims: usize, lo: f64, hi: f64, points: usize) -> Vec<Vec<f64>> {
    assert!(points >= 2 && dims >= 1, "grid search needs at least 2 points and 1 dimension");
    let total = points.pow(dims as u32);
    let mut grid = Vec::with_capacity(total);
    for code in 0..total {
        let mut c = code;
        let mut x = Vec::with_capacity(dims);
        for _ in 0..dims {
            let idx = c % points;
            c /= points;
            x.push(lo + (hi - lo) * idx as f64 / (points - 1) as f64);
        }
        grid.push(x);
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_ascent_finds_quadratic_maximum() {
        let target = [1.5, -0.7, 0.3];
        let f = |x: &[f64]| -> f64 {
            -x.iter().zip(target.iter()).map(|(a, b)| (a - b).powi(2)).sum::<f64>()
        };
        let (x, value) = coordinate_ascent(&[0.0, 0.0, 0.0], f, 200, 0.5);
        for (a, b) in x.iter().zip(target.iter()) {
            assert!((a - b).abs() < 1e-2, "x = {x:?}");
        }
        assert!(value > -1e-3);
    }

    #[test]
    fn grid_search_finds_coarse_maximum() {
        let f = |x: &[f64]| -(x[0] - 0.5).powi(2) - (x[1] + 0.25).powi(2);
        let (x, _) = grid_search(2, -1.0, 1.0, 9, f);
        assert!((x[0] - 0.5).abs() < 0.26);
        assert!((x[1] + 0.25).abs() < 0.26);
    }

    #[test]
    fn grid_then_ascent_composes() {
        let f = |x: &[f64]| x[0].sin() + (2.0 * x[1]).cos();
        let (x0, _) = grid_search(2, 0.0, 3.0, 5, f);
        let (_, best) = coordinate_ascent(&x0, f, 100, 0.2);
        assert!(best > 1.9);
    }
}
