//! Location-overlap models (§2.1).
//!
//! "Some locations can host resources from multiple facilities. We can
//! capture this by introducing the probability of overlap `o_ij` between
//! the sets `Lᵢ` and `Lⱼ`. For simplicity, we could assume that these
//! probabilities are independent…"
//!
//! Two constructions:
//!
//! * [`IndependentCoverage`] — the paper's independent model: a universe
//!   of `L` locations, facility `i` covering each independently with
//!   probability `pᵢ`, so `o_ij = pᵢ·pⱼ` per location.
//! * [`block_overlap`] — a deterministic construction with exact shared
//!   location counts, for tests and worked examples.
//!
//! Overlap *discounts diversity*: a coalition's distinct-location count is
//! `|∪ Lᵢ| ≤ Σ Lᵢ`, so facilities covering the same places add capacity
//! but little diversity. [`diversity_discount`] quantifies it.

use crate::facility::Facility;
use crate::location::{LocationId, LocationOffer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's independent-coverage overlap model.
#[derive(Debug, Clone)]
pub struct IndependentCoverage {
    /// Size of the location universe `L`.
    pub universe: u32,
    /// Per-facility coverage probability `pᵢ` and per-location capacity.
    pub facilities: Vec<(f64, u64)>,
}

impl IndependentCoverage {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics if any coverage probability is outside `[0, 1]` or a
    /// capacity is zero.
    pub fn new(universe: u32, facilities: Vec<(f64, u64)>) -> IndependentCoverage {
        assert!(facilities
            .iter()
            .all(|&(p, r)| (0.0..=1.0).contains(&p) && r > 0));
        IndependentCoverage {
            universe,
            facilities,
        }
    }

    /// Expected per-location overlap probability `o_ij = pᵢ·pⱼ`.
    pub fn expected_overlap(&self, i: usize, j: usize) -> f64 {
        self.facilities[i].0 * self.facilities[j].0
    }

    /// Expected number of distinct locations a coalition of all facilities
    /// covers: `L·(1 − Π(1 − pᵢ))`.
    pub fn expected_union_size(&self) -> f64 {
        let miss: f64 = self.facilities.iter().map(|&(p, _)| 1.0 - p).product();
        f64::from(self.universe) * (1.0 - miss)
    }

    /// Samples a concrete facility set (seeded, reproducible).
    pub fn sample(&self, seed: u64) -> Vec<Facility> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.facilities
            .iter()
            .enumerate()
            .map(|(i, &(p, r))| {
                let mut offer = LocationOffer::new();
                for loc in 0..self.universe {
                    if rng.random::<f64>() < p {
                        offer.add(loc as LocationId, r);
                    }
                }
                Facility::new(format!("facility-{}", i + 1), offer)
            })
            .collect()
    }
}

/// Deterministic overlap: `own[i]` exclusive locations per facility plus
/// one block of `shared` locations covered by *every* facility
/// (capacity `r` each, everywhere).
pub fn block_overlap(own: &[u32], shared: u32, r: u64) -> Vec<Facility> {
    let mut next: LocationId = shared; // 0..shared is the common block
    own.iter()
        .enumerate()
        .map(|(i, &count)| {
            let mut offer = LocationOffer::contiguous(0, shared, r);
            for (l, cap) in LocationOffer::contiguous(next, count, r).iter() {
                offer.add(l, cap);
            }
            next += count;
            Facility::new(format!("facility-{}", i + 1), offer)
        })
        .collect()
}

/// Diversity discount of a facility set: distinct locations of the union
/// divided by the sum of individual location counts (1 = fully disjoint,
/// → 1/n as overlap becomes total).
pub fn diversity_discount(facilities: &[Facility]) -> f64 {
    let sum: usize = facilities.iter().map(|f| f.n_locations()).sum();
    if sum == 0 {
        return 1.0;
    }
    let union = LocationOffer::merge(facilities.iter().map(|f| &f.offer)).n_locations();
    union as f64 / sum as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Demand, ExperimentClass};
    use crate::scenario::FederationScenario;

    #[test]
    fn block_overlap_counts() {
        let fs = block_overlap(&[5, 10], 3, 2);
        assert_eq!(fs[0].n_locations(), 8);
        assert_eq!(fs[1].n_locations(), 13);
        let union = LocationOffer::merge(fs.iter().map(|f| &f.offer));
        assert_eq!(union.n_locations(), 3 + 5 + 10);
        // Shared block has doubled capacity.
        assert_eq!(union.capacity_at(0), 4);
        assert_eq!(union.capacity_at(3), 2);
    }

    #[test]
    fn diversity_discount_ranges() {
        let disjoint = block_overlap(&[5, 5], 0, 1);
        assert!((diversity_discount(&disjoint) - 1.0).abs() < 1e-12);
        let total = block_overlap(&[0, 0], 6, 1);
        assert!((diversity_discount(&total) - 0.5).abs() < 1e-12);
        let mixed = block_overlap(&[2, 2], 2, 1);
        // union 6, sum 8.
        assert!((diversity_discount(&mixed) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn independent_model_expectations() {
        let m = IndependentCoverage::new(1000, vec![(0.3, 1), (0.5, 1)]);
        assert!((m.expected_overlap(0, 1) - 0.15).abs() < 1e-12);
        assert!((m.expected_union_size() - 650.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_reproducible_and_near_expectation() {
        let m = IndependentCoverage::new(2000, vec![(0.3, 1), (0.5, 2)]);
        let a = m.sample(7);
        let b = m.sample(7);
        assert_eq!(a[0].n_locations(), b[0].n_locations());
        // Within 4σ of binomial expectation.
        let n0 = a[0].n_locations() as f64;
        let exp0 = 2000.0 * 0.3;
        let sd0 = (2000.0f64 * 0.3 * 0.7).sqrt();
        assert!((n0 - exp0).abs() < 4.0 * sd0, "n0 = {n0}");
        // Capacities respected.
        assert!(a[1].offer.iter().all(|(_, r)| r == 2));
    }

    #[test]
    fn overlap_erodes_the_diversity_premium() {
        // A diversity-hungry experiment (needs > 12 distinct locations).
        // Disjoint: facility 2's 6 extra locations are pivotal.
        // Fully overlapping facility 2 adds no diversity: its Shapley
        // share collapses.
        let demand = Demand::one_experiment(ExperimentClass::simple("e", 12.0, 1.0));

        let disjoint = block_overlap(&[8, 6], 0, 1); // union 14 > 12
        let s1 = FederationScenario::new(disjoint, demand.clone());
        assert!(s1.grand_value().expect("n = 2") > 0.0);
        let phi_disjoint = s1.shapley_shares().expect("n = 2");

        // Facility 2 covers only locations facility 1 already covers,
        // plus too few of its own: union 8+1 = 9 < 13 ⇒ no value at all.
        let overlapping = block_overlap(&[8, 1], 0, 1);
        let mut shared = overlapping;
        // Rebuild facility 2 to sit on facility 1's range: 6 locations
        // all shared.
        shared[1] = Facility::new("facility-2", LocationOffer::contiguous(0, 6, 1));
        let s2 = FederationScenario::new(shared, demand);
        assert_eq!(s2.grand_value(), Ok(0.0), "no diversity gained ⇒ no value");

        // And in the disjoint case facility 2 earns a strictly positive,
        // pivotal share.
        assert!(phi_disjoint[1] > 0.3);
    }
}
