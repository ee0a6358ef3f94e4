//! Symbolic expressions and performance polynomials for BOLT.
//!
//! This crate provides the two expression languages the BOLT pipeline is
//! built on:
//!
//! * [`Term`]s — hash-consed symbolic *bit-vector* expressions used by the
//!   symbolic execution engine (`bolt-see`) to describe packet contents,
//!   data-structure model outputs, and path constraints. Terms live in a
//!   [`TermPool`] and are referenced by copyable [`TermRef`] handles.
//! * [`PerfExpr`]s — multivariate polynomials over *performance-critical
//!   variables* (PCVs, see [`PcvTable`]). These are the bodies of
//!   performance contracts: expressions like `245·e + 82·e·c + 882` from
//!   Table 4 of the paper. They support exact evaluation, addition and
//!   multiplication, and render in the paper's human-legible format.
//!
//! The split mirrors the paper: terms describe *which inputs take which
//! path*; performance expressions describe *what that path costs*.
//!
//! [`FxHasher`] and [`FxHashMap`] are the unseeded fast hash the
//! analysis maps use (the solver's memos, the explorer's symbol memos
//! and per-run maps); the pool's intern table keys on each term's
//! content hash instead. Keys that come from outside the process keep
//! std's seeded hasher.

mod fxhash;
pub mod perf;
pub mod pool;
pub mod term;

pub use fxhash::{FxHashMap, FxHasher};
pub use perf::{Monomial, PcvAssignment, PcvId, PcvTable, PerfExpr};
pub use pool::TermPool;
pub use term::{BinOp, SymId, Term, TermRef, UnOp, Width};
