//! The admission service's benchmark.
//!
//! Three workloads ([`workload::Workload`]) drive `traj-serve`'s line
//! loop from one closed-loop client thread. An untraced run reports the
//! end-to-end metrics; a traced run replays the same seeded stream
//! through the layers' public calls and reports the per-layer ledger.
//! See README.md for the metrics and what each should move.

pub mod check;
pub mod host;
pub mod run;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;
