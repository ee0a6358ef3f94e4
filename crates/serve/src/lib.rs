//! `bolt serve` — contracts as a long-lived query service.
//!
//! Compile-once/query-forever (the store crates) still paid a per-query
//! process cost: every `bolt_cli query` re-opened the store, re-decoded
//! the record, and re-rehydrated the term pool. This crate keeps all of
//! that hot: a server opens the [`bolt_store::ContractStore`] once,
//! caches decoded contracts in memory under an LRU byte budget, and
//! answers query/diff/list/provenance requests from many concurrent
//! clients over a length-prefixed framed protocol (Unix socket and/or
//! TCP).
//!
//! The layering, bottom-up:
//!
//! * [`protocol`] — frames, opcodes, request/response bodies (no I/O
//!   beyond `Read`/`Write`); one frame layout with per-request
//!   correlation ids, and `Hello` window negotiation.
//! * [`cache`] — the hot-contract LRU with per-contract query memos and
//!   batched last-used touches back to the store (so `sweep --budget`
//!   and the server agree on MRU order).
//! * [`service`] — [`service::ServeCore`], the engine mapping requests
//!   to answers; also used in-process by `bolt_cli`, so local and remote
//!   output is rendered by one code path. Classifies each request as
//!   inline-fast or offload-cold ([`service::Dispatch`]).
//! * [`server`] — the event-driven connection engine: a fixed pool of
//!   poll-driven workers over nonblocking sockets, request pipelining
//!   at a negotiated depth, cold requests offloaded to a handler pool.
//!   Built with [`Server::builder`].
//! * [`client`] — the blocking client (`bolt_cli --remote`): the
//!   resilient [`Client`] (built with [`Client::builder`]) and the raw
//!   pipelined [`client::Session`].
//!
//! A warm repeat of the same query is answered from the memo: zero
//! explorations, zero solver requests, zero record decodes — the
//! property the protocol tests assert via the `serve.*` counters of
//! the `metrics` reply.

// The event loop is Linux poll(2), and `server::readiness` passes the
// poll set's length as Linux's `nfds_t`: elsewhere the crate would
// compile and call poll wrongly, so it refuses to build instead. A
// second platform comes with a CI job that builds it, not with a branch
// nothing compiles.
const _: () = assert!(
    cfg!(target_os = "linux"),
    "bolt-serve builds on Linux only: its event loop is poll(2)"
);

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use cache::{CacheConfig, ContractCache};
pub use client::{
    Client, ClientBuilder, Endpoint, ParseEndpointError, ServeError, Session, Ticket,
};
pub use protocol::{
    DiffRequest, MetricsReply, QueryReply, QueryRequest, Request, Response, MAX_FRAME,
    MAX_PIPELINE_DEPTH,
};
pub use server::{Server, ServerBuilder};
pub use service::{nf_by_name, Dispatch, Phase, ServeCore, StatsReply, NF_NAMES};
