//! The rmsa benchmark: workloads, generators and measurement helpers.
//! See `README.md` in this directory for what each workload measures.

pub mod cold;
pub mod daemon;
pub mod gen;
pub mod json;
pub mod outcome;
pub mod replay;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod sys;
