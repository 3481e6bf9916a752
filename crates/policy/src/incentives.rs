//! Provision incentives (§4.4, Fig. 9): how a facility's payoff responds
//! to upgrading its contribution under different sharing schemes.

use crate::scheme::SharingScheme;
use fedval_coalition::CoalitionError;
use fedval_core::{Demand, Facility, FederationScenario};

/// One point of an incentive curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncentivePoint {
    /// The contribution level swept (e.g. `L₁`).
    pub level: u32,
    /// The facility's monetary payoff `sᵢ·V(N)` at that level.
    pub payoff: f64,
}

/// Sweeps facility `target`'s contribution level and records its payoff
/// under `scheme`.
///
/// `make_facilities(level)` must return the full facility vector with the
/// target's contribution set to `level` — the Fig. 9 sweep passes the
/// paper's fixed `L₂ = 400, L₃ = 800` and varies `L₁`.
///
/// # Errors
/// The first [`SharingScheme::payoffs`] error along the sweep.
pub fn incentive_curve(
    make_facilities: &dyn Fn(u32) -> Vec<Facility>,
    demand: &Demand,
    scheme: &SharingScheme,
    target: usize,
    levels: &[u32],
) -> Result<Vec<IncentivePoint>, CoalitionError> {
    levels
        .iter()
        .map(|&level| {
            let scenario = FederationScenario::new(make_facilities(level), demand.clone());
            let payoff = scheme.payoffs(&scenario)?[target];
            Ok(IncentivePoint { level, payoff })
        })
        .collect()
}

/// The marginal payoff of each step of an incentive curve:
/// `(payoff[k+1] − payoff[k]) / (level[k+1] − level[k])`.
pub fn marginal_payoffs(curve: &[IncentivePoint]) -> Vec<f64> {
    curve
        .windows(2)
        .map(|w| (w[1].payoff - w[0].payoff) / f64::from(w[1].level - w[0].level).max(1.0))
        .collect()
}

/// Summary of how strongly a scheme rewards provision around thresholds:
/// the largest single-step marginal payoff in the curve. The paper notes
/// Shapley "creates powerful incentives for resource provision around the
/// threshold points" — this statistic quantifies that (and its potential
/// instability).
pub fn peak_marginal(curve: &[IncentivePoint]) -> f64 {
    marginal_payoffs(curve)
        .into_iter()
        .fold(0.0f64, |a, b| a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::{paper_facilities_with_locations, ExperimentClass};

    fn fig9_facilities(l1: u32) -> Vec<Facility> {
        paper_facilities_with_locations([l1.max(1), 400, 800], [80, 60, 20])
    }

    fn capacity_demand(l: f64) -> Demand {
        Demand::capacity_filling(ExperimentClass::simple("e", l, 1.0))
    }

    #[test]
    fn proportional_curve_is_smooth_when_threshold_zero() {
        let demand = capacity_demand(0.0);
        let levels: Vec<u32> = (100..=1000).step_by(300).collect();
        let curve = incentive_curve(
            &fig9_facilities,
            &demand,
            &SharingScheme::Proportional,
            0,
            &levels,
        )
        .expect("n = 3");
        // π₁ = 80·L₁ / (80·L₁ + 40000); payoff = π̂₁·V(N) and with l = 0,
        // V(N) = total slots, so payoff = 80·L₁ exactly.
        for p in &curve {
            assert!(
                (p.payoff - 80.0 * f64::from(p.level)).abs() < 1e-6,
                "L1 = {}, payoff = {}",
                p.level,
                p.payoff
            );
        }
    }

    #[test]
    fn shapley_rewards_crossing_the_threshold() {
        // With l = 800, facility 1 matters mostly via coalitions; payoffs
        // should be non-trivially larger once L₁ lets coalitions serve.
        let demand = capacity_demand(790.0);
        let levels = [100, 400, 800, 1000];
        let curve = incentive_curve(
            &fig9_facilities,
            &demand,
            &SharingScheme::Shapley,
            0,
            &levels,
        )
        .expect("n = 3");
        assert!(
            curve.last().unwrap().payoff > curve.first().unwrap().payoff,
            "more locations must eventually pay off: {curve:?}"
        );
        assert!(peak_marginal(&curve) > 0.0);
    }

    #[test]
    fn marginal_payoffs_lengths() {
        let demand = capacity_demand(0.0);
        let levels = [100, 200, 300];
        let curve = incentive_curve(
            &fig9_facilities,
            &demand,
            &SharingScheme::Proportional,
            0,
            &levels,
        )
        .expect("n = 3");
        assert_eq!(marginal_payoffs(&curve).len(), 2);
    }
}
