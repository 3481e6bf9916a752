//! Sharing schemes as first-class policy objects.

use fedval_coalition::CoalitionError;
use fedval_core::FederationScenario;
use serde::{Deserialize, Serialize};

/// A profit/value sharing scheme — the `s = {s₁, …, s_N}` of §3.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SharingScheme {
    /// Normalized Shapley value ϕ̂ (eq. 5) — the paper's proposal.
    Shapley,
    /// Contribution-proportional π̂ (eq. 6).
    Proportional,
    /// Consumption-proportional ρ̂ (eq. 7).
    Consumption,
    /// Nucleolus-based shares (§3.2.3).
    Nucleolus,
    /// Equal split (the "equity approach").
    Equal,
    /// Externally fixed weights (e.g. ϕ̂ computed off-line on expected
    /// demand, as the paper recommends for practical policy).
    Fixed(Vec<f64>),
}

impl SharingScheme {
    /// Short display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            SharingScheme::Shapley => "shapley",
            SharingScheme::Proportional => "proportional",
            SharingScheme::Consumption => "consumption",
            SharingScheme::Nucleolus => "nucleolus",
            SharingScheme::Equal => "equal",
            SharingScheme::Fixed(_) => "fixed",
        }
    }

    /// Normalized shares under this scheme for a scenario.
    ///
    /// # Errors
    /// The scenario's table-backed query errors for the Shapley and
    /// nucleolus schemes (see [`FederationScenario::try_game`] and
    /// [`FederationScenario::nucleolus_shares`]); the other schemes never
    /// enumerate coalitions and never fail.
    ///
    /// # Panics
    /// Panics if `Fixed` weights have the wrong length.
    pub fn shares(&self, scenario: &FederationScenario) -> Result<Vec<f64>, CoalitionError> {
        let n = scenario.facilities().len();
        Ok(match self {
            SharingScheme::Shapley => scenario.shapley_shares()?,
            SharingScheme::Proportional => scenario.proportional_shares(),
            SharingScheme::Consumption => scenario.consumption_shares(),
            SharingScheme::Nucleolus => scenario.nucleolus_shares()?,
            SharingScheme::Equal => fedval_core::sharing::normalized(vec![1.0; n]),
            SharingScheme::Fixed(w) => {
                assert_eq!(w.len(), n, "fixed weights length mismatch");
                fedval_core::sharing::normalized(w.clone())
            }
        })
    }

    /// Monetary payoffs `vᵢ = sᵢ·V(N)`.
    ///
    /// # Errors
    /// As [`SharingScheme::shares`], plus [`FederationScenario::payoffs`].
    pub fn payoffs(&self, scenario: &FederationScenario) -> Result<Vec<f64>, CoalitionError> {
        scenario.payoffs(&self.shares(scenario)?)
    }

    /// All built-in schemes, for sweep comparisons.
    pub fn all_builtin() -> Vec<SharingScheme> {
        vec![
            SharingScheme::Shapley,
            SharingScheme::Proportional,
            SharingScheme::Consumption,
            SharingScheme::Nucleolus,
            SharingScheme::Equal,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::{paper_facilities, Demand, ExperimentClass};

    fn scenario() -> FederationScenario {
        FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
        )
    }

    #[test]
    fn every_builtin_scheme_sums_to_one() {
        let s = scenario();
        for scheme in SharingScheme::all_builtin() {
            let shares = scheme.shares(&s).expect("n = 3");
            let total: f64 = shares.iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{} sums to {total}",
                scheme.name()
            );
        }
    }

    #[test]
    fn shapley_and_proportional_match_paper() {
        let s = scenario();
        let phi = SharingScheme::Shapley.shares(&s).expect("n = 3");
        let pi = SharingScheme::Proportional.shares(&s).expect("n = 3");
        assert!((phi[1] - 2.0 / 13.0).abs() < 1e-12);
        assert!((pi[1] - 4.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_weights_are_normalized() {
        let s = scenario();
        let shares = SharingScheme::Fixed(vec![2.0, 2.0, 4.0]).shares(&s).expect("n = 3");
        assert!((shares[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn payoffs_scale_with_grand_value() {
        let s = scenario();
        let p = SharingScheme::Equal.payoffs(&s).expect("n = 3");
        assert!((p.iter().sum::<f64>() - 1300.0).abs() < 1e-9);
    }
}
