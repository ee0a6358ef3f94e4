//! Workload generation: the MoonGen side of the paper's testbed.
//!
//! Each generator produces a timed packet sequence ([`TimedPacket`])
//! matching one of the evaluation's input classes: uniform random flows,
//! churn-controlled NAT traffic, broadcast/unicast bridge frames,
//! adversarially colliding MACs (the CASTAN-substitute for attack
//! workloads), LPM address mixes, and backend heartbeats. The harnesses,
//! the Distiller and the benchmark all take their traffic from these
//! generators.

pub mod generators;

pub use generators::*;

/// One workload packet: arrival time, frame bytes, ingress port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedPacket {
    /// Arrival timestamp in nanoseconds.
    pub t_ns: u64,
    /// The frame.
    pub frame: Vec<u8>,
    /// Ingress device port.
    pub port: u16,
}
