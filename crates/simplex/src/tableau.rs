//! Dense simplex tableau with Bland's-rule pivoting.
//!
//! The tableau stores the constraint matrix in canonical (basis = identity)
//! form together with a cost row. Phase bookkeeping lives in
//! [`crate::solver`]; this module only knows how to pivot.

use crate::approx::is_zero;
use crate::EPSILON;

/// Outcome of running the simplex iteration loop on a tableau.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PivotOutcome {
    /// No entering column improves the objective: current basis is optimal.
    Optimal,
    /// An improving column has no positive pivot entry: objective unbounded.
    Unbounded,
    /// The iteration cap was reached before convergence. Bland's rule rules
    /// out true cycling, so this indicates numerical trouble (reduced costs
    /// hovering around the tolerance) rather than a theoretical cycle.
    Stalled,
}

/// A dense tableau in canonical form.
///
/// Row layout: `rows × (n_cols + 1)` where the last column is the
/// right-hand side. The cost row is stored separately in `cost` with the
/// (negated) objective value in `cost_rhs`.
pub(crate) struct Tableau {
    /// Constraint rows, each `n_cols + 1` long (rhs last).
    pub rows: Vec<Vec<f64>>,
    /// Reduced-cost row, `n_cols` long. Convention: we *minimize*, and a
    /// column with `cost < -EPSILON` is eligible to enter.
    pub cost: Vec<f64>,
    /// Current objective value (of the minimization) times −1.
    pub cost_rhs: f64,
    /// Basis: `basis[r]` is the column index basic in row `r`.
    pub basis: Vec<usize>,
    /// Total number of structural + slack + artificial columns.
    pub n_cols: usize,
    /// Pivots performed on this tableau (for observability counters).
    pub pivots: usize,
}

impl Tableau {
    pub fn new(rows: Vec<Vec<f64>>, cost: Vec<f64>, basis: Vec<usize>, n_cols: usize) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == n_cols + 1));
        debug_assert_eq!(cost.len(), n_cols);
        debug_assert_eq!(basis.len(), rows.len());
        Tableau {
            rows,
            cost,
            cost_rhs: 0.0,
            basis,
            n_cols,
            pivots: 0,
        }
    }

    /// Makes the reduced costs of all basic columns zero by eliminating them
    /// with their rows ("pricing out"). Required after installing a new cost
    /// row over an existing basis (start of each phase).
    pub fn price_out_basis(&mut self) {
        for r in 0..self.rows.len() {
            let b = self.basis[r];
            let c = self.cost[b];
            if c.abs() > 0.0 {
                self.eliminate_from_cost(r, c);
            }
        }
    }

    fn eliminate_from_cost(&mut self, row: usize, factor: f64) {
        for j in 0..self.n_cols {
            self.cost[j] -= factor * self.rows[row][j];
        }
        self.cost_rhs -= factor * self.rows[row][self.n_cols];
    }

    /// Upper bound on pivots for a tableau with `m` rows and `n` columns.
    ///
    /// Bland's rule visits each basis at most once, so any run that exceeds a
    /// generous polynomial budget is numerically stuck, not still converging.
    pub fn iteration_cap(m: usize, n: usize) -> usize {
        64 * (m + 1) * (n + 1)
    }

    /// Runs simplex iterations (minimization) until optimal, unbounded, or
    /// `max_iters` pivots have been performed.
    ///
    /// `allowed` restricts the entering columns (used in phase 2 to freeze
    /// artificial columns out of the basis). Bland's rule — smallest-index
    /// entering column among eligible, smallest-index leaving basic variable
    /// among ratio-test ties — guarantees termination without cycling; the
    /// explicit cap turns float-noise stalls into [`PivotOutcome::Stalled`]
    /// instead of a hung loop.
    pub fn run(&mut self, allowed: &dyn Fn(usize) -> bool, max_iters: usize) -> PivotOutcome {
        for _ in 0..max_iters {
            // Bland: first column with negative reduced cost.
            let entering = (0..self.n_cols)
                .find(|&j| allowed(j) && self.cost[j] < -EPSILON && !self.in_basis(j));
            let Some(entering) = entering else {
                return PivotOutcome::Optimal;
            };

            // Ratio test with Bland tie-break on basic variable index.
            let mut leaving: Option<(usize, f64)> = None;
            for r in 0..self.rows.len() {
                let a = self.rows[r][entering];
                if a > EPSILON {
                    let ratio = self.rows[r][self.n_cols] / a;
                    match leaving {
                        None => leaving = Some((r, ratio)),
                        Some((best_r, best_ratio)) => {
                            if ratio < best_ratio - EPSILON
                                || ((ratio - best_ratio).abs() <= EPSILON
                                    && self.basis[r] < self.basis[best_r])
                            {
                                leaving = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((leave_row, _)) = leaving else {
                return PivotOutcome::Unbounded;
            };
            self.pivot(leave_row, entering);
        }
        PivotOutcome::Stalled
    }

    fn in_basis(&self, col: usize) -> bool {
        self.basis.contains(&col)
    }

    /// Pivots on `(row, col)`: normalizes the row and eliminates the column
    /// from every other row and the cost row.
    ///
    /// The pivot row is taken out of the tableau for the elimination, so
    /// each update is a `zip` over two slices: no bounds checks, and the
    /// loop vectorizes. Each entry still gets exactly `t -= factor * p`.
    pub fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let mut pivot_row = std::mem::take(&mut self.rows[row]);
        let pivot_val = pivot_row[col];
        debug_assert!(pivot_val.abs() > EPSILON, "pivot on ~zero element");
        let inv = 1.0 / pivot_val;
        for v in &mut pivot_row {
            *v *= inv;
        }
        // Re-normalize the pivot element exactly to dodge drift.
        pivot_row[col] = 1.0;

        for (r, target) in self.rows.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = target[col];
            // Exact-zero skip (eps = 0): eliminating with a zero factor is
            // a no-op; any nonzero factor, however tiny, must eliminate.
            if !is_zero(factor, 0.0) {
                for (t, &p) in target.iter_mut().zip(&pivot_row) {
                    *t -= factor * p;
                }
                target[col] = 0.0;
            }
        }
        let factor = self.cost[col];
        if !is_zero(factor, 0.0) {
            for (c, &p) in self.cost.iter_mut().zip(&pivot_row) {
                *c -= factor * p;
            }
            self.cost_rhs -= factor * pivot_row[self.n_cols];
            self.cost[col] = 0.0;
        }
        self.rows[row] = pivot_row;
        self.basis[row] = col;
    }

    /// Extracts the value of column `col` in the current basic solution.
    pub fn value_of(&self, col: usize) -> f64 {
        self.basis
            .iter()
            .position(|&b| b == col)
            .map_or(0.0, |r| self.rows[r][self.n_cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// min −3x −2y  s.t. x+y+s1 = 4, x+3y+s2 = 6 — optimum at x=4, y=0.
    fn toy() -> Tableau {
        let rows = vec![vec![1.0, 1.0, 1.0, 0.0, 4.0], vec![1.0, 3.0, 0.0, 1.0, 6.0]];
        let cost = vec![-3.0, -2.0, 0.0, 0.0];
        Tableau::new(rows, cost, vec![2, 3], 4)
    }

    #[test]
    fn pivots_to_optimum() {
        let mut t = toy();
        let outcome = t.run(&|_| true, 1000);
        assert_eq!(outcome, PivotOutcome::Optimal);
        assert!((t.value_of(0) - 4.0).abs() < 1e-9);
        assert!(t.value_of(1).abs() < 1e-9);
        // cost_rhs = −(objective of minimization) = 12
        assert!((t.cost_rhs - 12.0).abs() < 1e-9);
    }

    #[test]
    fn detects_unbounded() {
        // min −x with x − y ≤ 1 → x can grow with y.
        let rows = vec![vec![1.0, -1.0, 1.0, 1.0]];
        let cost = vec![-1.0, 0.0, 0.0];
        let mut t = Tableau::new(rows, cost, vec![2], 3);
        // First pivot brings x in; afterwards y has negative reduced cost and
        // no positive entries.
        assert_eq!(t.run(&|_| true, 1000), PivotOutcome::Unbounded);
    }

    #[test]
    fn zero_iteration_budget_reports_stalled() {
        let mut t = toy();
        assert_eq!(t.run(&|_| true, 0), PivotOutcome::Stalled);
        // With the budget restored the same tableau still converges.
        assert_eq!(t.run(&|_| true, 1000), PivotOutcome::Optimal);
    }

    #[test]
    fn price_out_clears_basic_costs() {
        let rows = vec![vec![1.0, 2.0, 3.0]];
        let cost = vec![5.0, 0.0];
        let mut t = Tableau::new(rows, cost, vec![0], 2);
        t.price_out_basis();
        assert_eq!(t.cost[0], 0.0);
        assert!((t.cost[1] + 10.0).abs() < 1e-12);
        assert!((t.cost_rhs + 15.0).abs() < 1e-12);
    }

    /// Indexed scalar elimination: the bit-for-bit reference for the
    /// sliced kernel in `pivot`.
    fn pivot_scalar_reference(t: &mut Tableau, row: usize, col: usize) {
        let inv = 1.0 / t.rows[row][col];
        for v in &mut t.rows[row] {
            *v *= inv;
        }
        t.rows[row][col] = 1.0;
        for r in 0..t.rows.len() {
            if r == row {
                continue;
            }
            let factor = t.rows[r][col];
            if !is_zero(factor, 0.0) {
                for j in 0..=t.n_cols {
                    let delta = factor * t.rows[row][j];
                    t.rows[r][j] -= delta;
                }
                t.rows[r][col] = 0.0;
            }
        }
        let factor = t.cost[col];
        if !is_zero(factor, 0.0) {
            for j in 0..t.n_cols {
                t.cost[j] -= factor * t.rows[row][j];
            }
            t.cost_rhs -= factor * t.rows[row][t.n_cols];
            t.cost[col] = 0.0;
        }
        t.basis[row] = col;
    }

    /// A dense entry: about one in four is an exact zero, so the
    /// zero-factor skip is exercised on both the rows and the cost row.
    fn entry() -> impl Strategy<Value = f64> {
        (-40i32..=40, 0u32..4).prop_map(|(v, z)| if z == 0 { 0.0 } else { f64::from(v) / 7.0 })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pivot_matches_scalar_reference_bit_for_bit(
            m in 1usize..=8,
            n_cols in 1usize..=24,
            cells in prop::collection::vec(entry(), 8 * 25),
            cost in prop::collection::vec(entry(), 24),
            cost_rhs in -100i32..=100,
            row_pick in 0usize..8,
            col_pick in 0usize..24,
        ) {
            let rows: Vec<Vec<f64>> = cells
                .chunks(25)
                .take(m)
                .map(|c| c[..=n_cols].to_vec())
                .collect();
            let (row, col) = (row_pick % m, col_pick % n_cols);
            prop_assume!(rows[row][col].abs() > EPSILON);
            let mut fast = Tableau::new(rows, cost[..n_cols].to_vec(), vec![0; m], n_cols);
            fast.cost_rhs = f64::from(cost_rhs) / 3.0;
            let mut slow = Tableau::new(
                fast.rows.clone(),
                fast.cost.clone(),
                fast.basis.clone(),
                n_cols,
            );
            slow.cost_rhs = fast.cost_rhs;

            fast.pivot(row, col);
            pivot_scalar_reference(&mut slow, row, col);

            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (a, b) in fast.rows.iter().zip(&slow.rows) {
                prop_assert_eq!(bits(a), bits(b));
            }
            prop_assert_eq!(bits(&fast.cost), bits(&slow.cost));
            prop_assert_eq!(fast.cost_rhs.to_bits(), slow.cost_rhs.to_bits());
            prop_assert_eq!(&fast.basis, &slow.basis);
        }
    }
}
