#![deny(missing_docs)]

//! Economic model of federated virtualized infrastructures — the primary
//! contribution of *"Federation of virtualized infrastructures: sharing
//! the value of diversity"* (ACM CoNEXT 2010).
//!
//! The model (paper §2–§3):
//!
//! * **Facilities** ([`Facility`]) contribute resources at distinct
//!   **locations** — `Lᵢ` locations with capacity `R_{il}` each; overlap
//!   sums capacity.
//! * **Experiments** ([`ExperimentClass`]) demand `l` distinct locations
//!   (the *diversity* requirement), `r` resources per location, holding
//!   time `t`, and value their assignment through the threshold-power
//!   utility `u(x) = x^d·1{x > l}` ([`ThresholdPower`], eq. 1).
//! * **Allocation** ([`allocation`]) solves eq. 2: which experiments to
//!   admit and how many locations to give each, maximizing total utility.
//! * The optimum defines the **federation game** ([`FederationGame`]),
//!   whose Shapley value (via `fedval-coalition`) is the paper's proposed
//!   sharing rule; [`sharing`] also provides the proportional (eq. 6),
//!   consumption-based (eq. 7), equal, and nucleolus alternatives.
//! * The **P2P scenario** ([`p2p_allocate`]) shares value through allocation under
//!   individual-rationality constraints (eq. 3).
//!
//! # Quickstart
//!
//! ```
//! use fedval_core::{Demand, ExperimentClass, FederationScenario, paper_facilities};
//!
//! // The paper's §4.1 example: L = (100, 400, 800), one experiment
//! // requiring more than 500 distinct locations.
//! let scenario = FederationScenario::new(
//!     paper_facilities([1, 1, 1]),
//!     Demand::one_experiment(ExperimentClass::simple("measurement", 500.0, 1.0)),
//! );
//! let shapley = scenario.shapley_shares();
//! let proportional = scenario.proportional_shares();
//! assert!((shapley[1] - 2.0 / 13.0).abs() < 1e-12);
//! assert!((proportional[1] - 4.0 / 13.0).abs() < 1e-12);
//! ```

pub mod allocation;
mod availability;
mod cost;
mod dynamics;
mod experiment;
mod facility;
mod location;
mod overlap;
mod p2p;
mod scenario;
pub mod sharing;
mod utility;
mod value;

pub use availability::{AvailabilityError, AvailabilityGame};
pub use cost::CostModel;
pub use dynamics::{DynamicClass, DynamicDemand, DynamicFederationGame, ValueMode};
pub use experiment::{Demand, DemandComponent, ExperimentClass, Volume};
pub use facility::{
    coalition_profile, paper_facilities, paper_facilities_with_locations, Facility, ProfileIndex,
};
pub use location::{CapacityProfile, LocationId, LocationOffer};
pub use overlap::{block_overlap, diversity_discount, IndependentCoverage};
pub use p2p::{p2p_allocate, P2pMode, P2pOutcome};
pub use scenario::{FederationScenario, PlayerCountMismatch};
pub use utility::{ThresholdPower, Utility};
pub use value::FederationGame;

// Re-export the game-theory engine so downstream users need one import.
pub use fedval_coalition as coalition;

// The workspace-wide float-comparison discipline (see fedval-lint's
// `float-eq` rule): tolerance helpers live in the dependency-free
// `fedval-simplex` crate and are re-exported here as the canonical path
// for the model/testbed/policy layers.
pub use fedval_simplex::approx;
pub use fedval_simplex::approx::{approx_eq, is_zero, NOISE_EPS};

// Lock-order-validated mutex wrappers (DESIGN.md §12): the canonical
// path for model-layer code that needs a named, checkable lock.
pub use fedval_obs::{lockorder, OrderedMutex, OrderedRwLock};
