//! Resource providers — the paper's *facilities* (§2.1).

use crate::location::{CapacityProfile, LocationId, LocationOffer};
use serde::{Deserialize, Serialize};

/// A facility (resource provider): a testbed authority such as PlanetLab
/// Central, PlanetLab Europe, or PlanetLab Japan.
///
/// The model characterizes a facility by the locations it covers and the
/// capacity it provides at each (`R_{il}`), its availability `Tᵢ ∈ (0, 1]`
/// (the paper's analysis fixes `Tᵢ = 1`), and its affiliated users `Uᵢ`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Facility {
    /// Human-readable name (e.g. "PLE").
    pub name: String,
    /// Locations covered and capacity at each.
    pub offer: LocationOffer,
    /// Fraction of time the resources are available (`Tᵢ`).
    pub availability: f64,
    /// Number of affiliated users (`Uᵢ`); relevant in the P2P scenario.
    pub users: u64,
}

impl Facility {
    /// Creates a facility with full availability and no affiliated users.
    pub fn new(name: impl Into<String>, offer: LocationOffer) -> Facility {
        Facility {
            name: name.into(),
            offer,
            availability: 1.0,
            users: 0,
        }
    }

    /// Convenience constructor for the paper's uniform setups: `n_locations`
    /// contiguous locations starting at `first_location`, capacity `r` each.
    pub fn uniform(
        name: impl Into<String>,
        first_location: LocationId,
        n_locations: u32,
        r: u64,
    ) -> Facility {
        Facility::new(
            name,
            LocationOffer::contiguous(first_location, n_locations, r),
        )
    }

    /// Sets availability `Tᵢ` (builder style).
    ///
    /// # Panics
    /// Panics unless `0 < availability ≤ 1`.
    pub fn with_availability(mut self, availability: f64) -> Facility {
        assert!(availability > 0.0 && availability <= 1.0);
        self.availability = availability;
        self
    }

    /// Sets the affiliated-user count `Uᵢ` (builder style).
    pub fn with_users(mut self, users: u64) -> Facility {
        self.users = users;
        self
    }

    /// The paper's diversity contribution `Lᵢ = |Lᵢ|`.
    pub fn n_locations(&self) -> usize {
        self.offer.n_locations()
    }

    /// Total slots contributed (`Lᵢ·Rᵢ` in the uniform case).
    pub fn total_slots(&self) -> u64 {
        self.offer.total_slots()
    }

    /// This facility's stand-alone capacity profile.
    pub fn profile(&self) -> CapacityProfile {
        CapacityProfile::from_offer(&self.offer)
    }
}

/// Builds the joint capacity profile of a set of facilities, summing
/// capacity at overlapping locations. This per-location merge is the
/// reference that [`ProfileIndex`]'s histogram sums are tested against.
pub fn coalition_profile<'a, I: IntoIterator<Item = &'a Facility>>(
    facilities: I,
) -> CapacityProfile {
    let merged = LocationOffer::merge(facilities.into_iter().map(|f| &f.offer));
    CapacityProfile::from_offer(&merged)
}

/// Every facility's offer regrouped by location: one `(location, facility
/// index, capacity)` entry per offered location of positive capacity,
/// sorted by location, then facility. The entries of one location (a
/// `chunk_by` on the id) are the facilities sharing it (Fig. 1), and
/// their capacities sum to the merged offer's; walking them attributes a
/// location's usage without a per-facility lookup.
pub fn offers_by_location(facilities: &[Facility]) -> Vec<(LocationId, usize, u64)> {
    let mut entries = Vec::with_capacity(facilities.iter().map(Facility::n_locations).sum());
    for (i, f) in facilities.iter().enumerate() {
        entries.extend(
            f.offer
                .iter()
                .filter(|&(_, cap)| cap > 0)
                .map(|(l, cap)| (l, i, cap)),
        );
    }
    entries.sort_unstable();
    entries
}

/// Each facility's `(capacity → #locations)` histogram on one shared
/// capacity axis, plus whether the facilities' offers are pairwise
/// disjoint.
///
/// When no location is offered by two facilities, merging offers never
/// adds capacities, so a coalition's [`CapacityProfile`] is exactly the
/// sum of its members' histograms: O(#groups) per member instead of a
/// per-location merge. Overlapping offers fall back to merging locations
/// (DESIGN.md §14.1).
#[derive(Debug, Clone)]
pub struct ProfileIndex {
    /// Every capacity any facility offers, strictly ascending.
    capacities: Vec<u64>,
    /// Per facility: `(position in capacities, #locations)` pairs.
    histograms: Vec<Vec<(usize, u64)>>,
    disjoint: bool,
}

impl ProfileIndex {
    /// Indexes `facilities` in O(L log L) for L offered locations in all.
    pub fn new(facilities: &[Facility]) -> ProfileIndex {
        // Each offer as maximal runs of consecutive location ids; the
        // offers are disjoint iff no two runs intersect, which after a
        // sort by start shows up between neighbours.
        let mut runs: Vec<(LocationId, LocationId)> = Vec::new();
        for f in facilities {
            let mut run: Option<(LocationId, LocationId)> = None;
            for (l, _) in f.offer.iter() {
                run = match run {
                    Some((start, end)) if end.checked_add(1) == Some(l) => Some((start, l)),
                    other => {
                        runs.extend(other);
                        Some((l, l))
                    }
                };
            }
            runs.extend(run);
        }
        runs.sort_unstable();
        let disjoint = runs.windows(2).all(|w| w[0].1 < w[1].0);

        let profiles: Vec<CapacityProfile> = facilities.iter().map(Facility::profile).collect();
        let mut capacities: Vec<u64> = profiles
            .iter()
            .flat_map(|p| p.groups().iter().map(|&(c, _)| c))
            .collect();
        capacities.sort_unstable();
        capacities.dedup();
        let histograms = profiles
            .iter()
            .map(|p| {
                p.groups()
                    .iter()
                    .map(|&(c, n)| match capacities.binary_search(&c) {
                        Ok(slot) | Err(slot) => (slot, n),
                    })
                    .collect()
            })
            .collect();
        ProfileIndex {
            capacities,
            histograms,
            disjoint,
        }
    }

    /// True when no location is offered by two facilities, so coalition
    /// profiles are histogram sums.
    pub fn is_disjoint(&self) -> bool {
        self.disjoint
    }
}

/// A coalition's capacity profile, built one member at a time: a running
/// histogram sum when the [`ProfileIndex`] is disjoint, a running
/// location merge (as in [`coalition_profile`]) when offers overlap.
/// Either way [`ProfileBuilder::profile`] equals [`coalition_profile`] of
/// the members added so far.
pub(crate) struct ProfileBuilder<'a> {
    facilities: &'a [Facility],
    index: &'a ProfileIndex,
    counts: Vec<u64>,
    merged: LocationOffer,
}

impl<'a> ProfileBuilder<'a> {
    /// The empty coalition; `index` must be `ProfileIndex::new(facilities)`.
    pub(crate) fn new(facilities: &'a [Facility], index: &'a ProfileIndex) -> ProfileBuilder<'a> {
        let slots = if index.disjoint {
            index.capacities.len()
        } else {
            0
        };
        ProfileBuilder {
            facilities,
            index,
            counts: vec![0; slots],
            merged: LocationOffer::new(),
        }
    }

    /// Adds facility `member` (not already added).
    pub(crate) fn add(&mut self, member: usize) {
        if self.index.disjoint {
            for &(slot, n) in &self.index.histograms[member] {
                self.counts[slot] += n;
            }
        } else {
            for (l, r) in self.facilities[member].offer.iter() {
                self.merged.add(l, r);
            }
        }
    }

    /// The profile of the members added so far.
    pub(crate) fn profile(&self) -> CapacityProfile {
        if self.index.disjoint {
            CapacityProfile::from_histogram(&self.index.capacities, &self.counts)
        } else {
            CapacityProfile::from_offer(&self.merged)
        }
    }
}

/// The three-facility configuration used throughout the paper's numerical
/// analysis (§4): `L = (100, 400, 800)` disjoint locations with uniform
/// per-location capacities `r = (r₁, r₂, r₃)`.
pub fn paper_facilities(r: [u64; 3]) -> Vec<Facility> {
    paper_facilities_with_locations([100, 400, 800], r)
}

/// Like [`paper_facilities`] but with custom location counts.
pub fn paper_facilities_with_locations(l: [u32; 3], r: [u64; 3]) -> Vec<Facility> {
    let names = ["facility-1", "facility-2", "facility-3"];
    let mut start: LocationId = 0;
    names
        .iter()
        .zip(l)
        .zip(r)
        .map(|((name, li), ri)| {
            let f = Facility::uniform(*name, start, li, ri);
            start += li;
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_dimensions() {
        let fs = paper_facilities([1, 1, 1]);
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0].n_locations(), 100);
        assert_eq!(fs[1].n_locations(), 400);
        assert_eq!(fs[2].n_locations(), 800);
        let profile = coalition_profile(&fs);
        assert_eq!(profile.n_locations(), 1300);
        assert_eq!(profile.total_slots(), 1300);
    }

    #[test]
    fn fig6_setup_has_equal_products() {
        // Fig. 6: R = (80, 20, 10) ⇒ Lᵢ·Rᵢ = 8000 for every facility.
        let fs = paper_facilities([80, 20, 10]);
        for f in &fs {
            assert_eq!(f.total_slots(), 8000);
        }
    }

    #[test]
    fn coalition_profile_merges_disjoint_sets() {
        let fs = paper_facilities([80, 20, 10]);
        let p12 = coalition_profile([&fs[0], &fs[1]]);
        assert_eq!(p12.groups(), &[(20, 400), (80, 100)]);
        assert_eq!(p12.usable_slots(40), 100 * 40 + 400 * 20);
    }

    #[test]
    fn overlapping_facilities_add_capacity() {
        let a = Facility::uniform("a", 0, 10, 2);
        let b = Facility::uniform("b", 5, 10, 3); // 5 shared locations
        let p = coalition_profile([&a, &b]);
        assert_eq!(p.n_locations(), 15);
        assert_eq!(p.total_slots(), 20 + 30);
        assert_eq!(p.max_capacity(), 5);
    }

    #[test]
    fn disjointness_is_detected() {
        assert!(ProfileIndex::new(&paper_facilities([1, 1, 1])).is_disjoint());
        assert!(ProfileIndex::new(&paper_facilities([80, 20, 10])).is_disjoint());
        // Adjacent ranges touch but do not overlap.
        let adjacent = [
            Facility::uniform("a", 0, 5, 1),
            Facility::uniform("b", 5, 5, 2),
        ];
        assert!(ProfileIndex::new(&adjacent).is_disjoint());
        assert!(ProfileIndex::new(&crate::overlap::block_overlap(&[5, 5], 0, 1)).is_disjoint());
        // A shared block, a one-location overlap, and sampled coverage.
        assert!(!ProfileIndex::new(&crate::overlap::block_overlap(&[5, 10], 3, 2)).is_disjoint());
        let touching = [
            Facility::uniform("a", 0, 5, 1),
            Facility::uniform("b", 4, 5, 2),
        ];
        assert!(!ProfileIndex::new(&touching).is_disjoint());
        let sampled = crate::overlap::IndependentCoverage::new(200, vec![(0.3, 1), (0.5, 2)]);
        assert!(!ProfileIndex::new(&sampled.sample(7)).is_disjoint());
    }

    #[test]
    fn builder_sums_equal_the_merge() {
        let fs = paper_facilities([80, 20, 10]);
        let index = ProfileIndex::new(&fs);
        let mut builder = ProfileBuilder::new(&fs, &index);
        assert_eq!(builder.profile(), CapacityProfile::empty());
        for (k, p) in [2, 0, 1].into_iter().enumerate() {
            builder.add(p);
            let members: Vec<&Facility> = [2, 0, 1][..=k].iter().map(|&q| &fs[q]).collect();
            assert_eq!(builder.profile(), coalition_profile(members));
        }
        let overlapping = crate::overlap::block_overlap(&[5, 10], 3, 2);
        let index = ProfileIndex::new(&overlapping);
        let mut builder = ProfileBuilder::new(&overlapping, &index);
        builder.add(1);
        builder.add(0);
        assert_eq!(builder.profile(), coalition_profile(&overlapping));
    }

    #[test]
    fn builder_setters() {
        let f = Facility::uniform("x", 0, 2, 1)
            .with_availability(0.5)
            .with_users(42);
        assert_eq!(f.availability, 0.5);
        assert_eq!(f.users, 42);
    }

    #[test]
    #[should_panic]
    fn availability_must_be_positive() {
        let _ = Facility::uniform("x", 0, 1, 1).with_availability(0.0);
    }
}
