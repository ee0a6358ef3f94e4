//! # bolt — performance contracts for software network functions
//!
//! A Rust reproduction of *"Performance Contracts for Software Network
//! Functions"* (Iyer et al., NSDI 2019). This umbrella crate re-exports
//! the whole toolchain; see the README for the architecture, and
//! `cargo run --release -p bolt-bench` for the paper's tables and figures.
//!
//! The pipeline, end to end, through the fluent [`Bolt`] entrypoint:
//!
//! ```
//! use bolt::core::{ClassSpec, InputClass};
//! use bolt::expr::PcvAssignment;
//! use bolt::nfs::ExampleRouter;
//! use bolt::see::StackLevel;
//! use bolt::trace::Metric;
//! use bolt::Bolt;
//!
//! // 1. Symbolically execute the NF's analysis build (models linked in)
//! //    and generate the performance contract (Algorithm 2).
//! let mut contract = Bolt::nf(ExampleRouter::default())
//!     .explore(StackLevel::FullStack)
//!     .contract();
//! // 2. Query it: what do invalid packets cost, in instructions?
//! let invalid = InputClass::new(
//!     "invalid packets",
//!     ClassSpec::field_ne(bolt::dpdk::headers::ETHER_TYPE, 2, 0x0800),
//! );
//! let mut env = PcvAssignment::new();
//! env.set(contract.ids.trie.l, 32); // worst-case matched prefix length
//! let q = contract
//!     .query(&invalid, Metric::Instructions, &env)
//!     .unwrap();
//! assert!(q.value > 0);
//! ```
//!
//! Chains compose the same way (§3.4) — a chain is a [`Pipeline`] of NF
//! descriptors:
//!
//! ```
//! use bolt::nfs::{Firewall, StaticRouter};
//! use bolt::see::StackLevel;
//! use bolt::Pipeline;
//!
//! let chain = Pipeline::new()
//!     .push(Firewall::default())
//!     .push(StaticRouter::default())
//!     .contract(StackLevel::NfOnly)
//!     .unwrap();
//! assert!(!chain.paths.is_empty());
//! ```

pub use bolt_core as core;
pub use bolt_distiller as distiller;
pub use bolt_expr as expr;
pub use bolt_fault as fault;
pub use bolt_hw as hw;
pub use bolt_nfs as nfs;
pub use bolt_obs as obs;
pub use bolt_serve as serve;
pub use bolt_solver as solver;
pub use bolt_store as store;
pub use bolt_trace as trace;
pub use bolt_workloads as workloads;
pub use dpdk_sim as dpdk;
pub use nf_lib as lib;

pub use bolt_core::nf::{AbstractNf, Bolt, NetworkFunction};
pub use bolt_core::store::{ContractStore, StoreExt};
pub use bolt_core::{ChainPlan, Composer, Pipeline};

/// Re-export of the symbolic/concrete execution engine with the stack
/// level alias used throughout the examples.
pub mod see {
    pub use bolt_see::*;
    pub use dpdk_sim::StackLevel;
}
