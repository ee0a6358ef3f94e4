//! Pre-analysed stateful data-structure library for network functions.
//!
//! BOLT adopts Vigor's development model (§3.1–§3.2): experts write a
//! library of common NF data structures once, together with (a) a
//! *symbolic model* of each method for the analysis build and (b) a
//! manually derived *performance contract* for each method. NF developers
//! write stateless code against the library, and the contract generator
//! combines the stateless trace with the library contracts.
//!
//! Every structure in this crate therefore ships in three parts:
//!
//! 1. a **concrete implementation** of its operations trait for
//!    [`bolt_see::ConcreteCtx`], instrumented at x86-instruction
//!    granularity (every logical step reports its cost and simulated
//!    memory addresses through the ambient tracer);
//! 2. a **symbolic model**: the operations trait implemented for
//!    [`bolt_see::SymbolicCtx`] by the one [`model::DsModel`], which
//!    returns fresh symbols, forks the path per contract case, and
//!    records a [`bolt_trace::StatefulCall`] event instead of executing;
//! 3. a **manual performance contract** ([`registry::MethodContract`])
//!    expressing each case's cost as a polynomial over the structure's
//!    PCVs. Contract and implementation are built from the *same* cost
//!    constants; the contract coalesces data-dependent branches into
//!    their worst case, which is exactly the paper's source of the ≤7%
//!    conservative gap (§3.2, §6).
//!
//! Inventory (everything the paper's four NFs plus §5's use cases need):
//!
//! | module | structure | used by |
//! |---|---|---|
//! | [`flow_table`] | chained hash map with double-chain expiry | NAT, LB, bridge |
//! | [`mac_table`]  | MAC learning table with rehash defence | bridge (§5.2) |
//! | [`lpm_trie`]   | binary trie LPM (§2 running example) | example router |
//! | [`lpm_dir24_8`]| DPDK-style two-tier LPM table | LPM router |
//! | [`maglev`]     | Maglev consistent-hash ring + backend pool | load balancer |
//! | [`port_alloc`] | port allocators A (linked list) and B (scan) | NAT (§5.3) |
//! | [`clock`]      | timestamp source with configurable granularity | NAT bug (§5.3) |

pub mod clock;
pub mod flow_table;
pub mod lpm_dir24_8;
pub mod lpm_trie;
pub mod mac_table;
pub mod maglev;
pub mod model;
pub mod port_alloc;
pub mod registry;

pub use registry::{CaseContract, DsContract, DsRegistry, MethodContract};
