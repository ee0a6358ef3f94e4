//! BOLT's contract generator — the paper's primary contribution.
//!
//! [`generate`] implements Algorithm 2: it takes the feasible paths the
//! symbolic engine found through the model-linked NF build, walks each
//! path's instruction trace, charges constant costs for stateless events
//! (with the conservative hardware model supplying the cycles metric),
//! and substitutes each recorded stateful call with the contract case the
//! path's constraints selected. The result is an [`NfContract`]: one
//! [`PathContract`] per feasible path, each carrying a [`bolt_expr::PerfExpr`] per
//! metric over the library's PCVs.
//!
//! [`InputClass`] describes packet classes ("all valid IPv4 packets",
//! "broadcast frames", "packets from the internal network") as
//! constraints over packet fields and path tags; querying a contract for
//! a class returns the *worst* compatible path's prediction under a PCV
//! binding (§5.1's methodology: "BOLT reports the predicted performance
//! value of the execution path with the worst predicted performance").
//!
//! [`chain`] composes contracts of chained NFs (§3.4) by pairing paths,
//! conjoining their constraints with equality links between the upstream
//! NF's output packet expressions and the downstream NF's input symbols,
//! and keeping only solver-feasible pairs. [`composer`] is the unified
//! front door ([`Composer`]): one builder for the solver cache, worker
//! threads, and the chain parallelization planner, which proves adjacent
//! stages order-independent and turns the chain's cycle contract from a
//! sum into per-group `max + merge` ([`ChainPlan`]).
//!
//! [`nf`] is the unified NF abstraction: the [`NetworkFunction`] trait
//! gives every NF the explore→generate→query pipeline for free, the
//! fluent [`Bolt`] entrypoint chains it
//! (`Bolt::nf(...).explore(level).contract().query(...)`), and
//! [`Pipeline`] composes heterogeneous NFs into chain contracts via
//! trait objects.

//! [`store`] is the persistence layer: exploration is deterministic per
//! (NF config, stack level), so [`store::StoreExt::get_or_explore`]
//! turns contract extraction into a compile-once/query-forever artifact
//! — warm runs decode stored paths instead of re-running the explorer
//! and solver ([`codec`] holds the contract codec itself).

pub mod chain;
pub mod classes;
pub mod codec;
pub mod composer;
pub mod contract;
pub mod nf;
pub mod store;

pub use chain::{naive_add, stages_commute, ChainPlan, ChainReport, CommuteWitness, Pipeline};
pub use classes::{ClassSpec, InputClass};
pub use codec::{decode_contract, encode_contract, encode_plan};
pub use composer::Composer;
pub use contract::{generate, NfContract, PathContract, QueryResult};
pub use nf::{AbstractNf, Bolt, Contract, Exploration, NetworkFunction};
pub use store::{
    compose_key, level_name, store_key, ContractStore, Fingerprint, Fingerprinter, StoreExt,
};
