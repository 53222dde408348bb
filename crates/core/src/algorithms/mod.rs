//! Oracle-setting algorithms of Section 3 (Algorithms 1–5).

pub mod greedy;
#[cfg(test)]
mod reference;
pub mod rm_oracle;
pub mod search;
pub mod threshold_greedy;

pub use greedy::{greedy_single, GreedyOutcome};
pub use rm_oracle::{rm_with_oracle, OracleSolution};
pub use search::{gamma_max, search, SearchOutcome};
pub use threshold_greedy::{fill, threshold_greedy, ThresholdGreedyOutcome};
