//! The BOLT Distiller (§4).
//!
//! A performance contract has hundreds of paths with their own
//! assumptions; the Distiller tells the user *which assumptions hold in
//! practice*. It consumes the trace of a concrete run (the production
//! build processing a packet sample) and logs, per packet, the values
//! every PCV took — then aggregates them into the reports the paper's
//! use cases are built on: the expired-flow PDFs of Tables 7/8, the
//! bucket-traversal CCDF of Figure 2, and worst-case PCV bindings for
//! conservative class queries.
//!
//! The Distiller is a [`Tracer`]: pair it with the counting sink and the
//! hardware model when running a workload. It never affects the
//! contract (§4: "the distiller does not affect the generated performance
//! contract in any way").

pub mod runner;

pub use runner::NfRunner;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bolt_expr::{PcvAssignment, PcvId, PcvTable};
use bolt_trace::{Marker, TraceEvent, Tracer};

/// Per-packet PCV observations. Within one packet, repeated observations
/// of the same PCV keep the maximum (the conservative per-packet binding)
/// and the sum (useful for totals like "collisions seen while expiring").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketObs {
    /// Packet sequence number.
    pub seq: u64,
    /// `(pcv, max, sum)` in order of first observation: a packet sees a
    /// handful of PCVs at most, and none costs no allocation.
    obs: Box<[(PcvId, u64, u64)]>,
}

impl PacketObs {
    /// The largest value `pcv` took in this packet (0 if unobserved).
    pub fn max(&self, pcv: PcvId) -> u64 {
        self.obs.iter().find(|o| o.0 == pcv).map_or(0, |o| o.1)
    }

    /// The sum of the values `pcv` took in this packet.
    pub fn sum(&self, pcv: PcvId) -> u64 {
        self.obs.iter().find(|o| o.0 == pcv).map_or(0, |o| o.2)
    }

    /// The packet's max-combined binding of every PCV it observed.
    pub fn max_assignment(&self) -> PcvAssignment {
        let mut out = PcvAssignment::new();
        self.max_into(&mut out);
        out
    }

    /// Raise `out` pointwise to this packet's maxima.
    fn max_into(&self, out: &mut PcvAssignment) {
        for &(pcv, max, _) in self.obs.iter() {
            out.set(pcv, out.get(pcv).max(max));
        }
    }
}

/// The Distiller sink.
#[derive(Debug, Default)]
pub struct Distiller {
    packets: Vec<PacketObs>,
    /// Sequence number of the packet in flight, whose observations
    /// gather in `scratch` until it closes.
    current: Option<u64>,
    scratch: Vec<(PcvId, u64, u64)>,
}

impl Distiller {
    /// New empty distiller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `packets` more packets' observations.
    pub(crate) fn reserve(&mut self, packets: usize) {
        self.packets.reserve(packets);
    }

    /// Per-packet observations, in arrival order.
    pub fn packets(&self) -> &[PacketObs] {
        &self.packets
    }

    /// File the packet in flight, if any.
    fn close(&mut self) {
        if let Some(seq) = self.current.take() {
            let obs = self.scratch.as_slice().into();
            self.scratch.clear();
            self.packets.push(PacketObs { seq, obs });
        }
    }

    /// Histogram of a PCV's per-packet (max) values.
    pub fn histogram(&self, pcv: PcvId) -> BTreeMap<u64, u64> {
        let mut h = BTreeMap::new();
        for p in &self.packets {
            *h.entry(p.max(pcv)).or_insert(0u64) += 1;
        }
        h
    }

    /// Probability density (value, fraction) of a PCV.
    pub fn pdf(&self, pcv: PcvId) -> Vec<(u64, f64)> {
        let n = self.packets.len().max(1) as f64;
        self.histogram(pcv)
            .into_iter()
            .map(|(v, c)| (v, c as f64 / n))
            .collect()
    }

    /// Complementary CDF of a PCV: `(value, P[X > value])`.
    pub fn ccdf(&self, pcv: PcvId) -> Vec<(u64, f64)> {
        let n = self.packets.len().max(1) as f64;
        let h = self.histogram(pcv);
        let mut above = self.packets.len() as u64;
        let mut out = Vec::with_capacity(h.len());
        for (v, c) in h {
            above -= c;
            out.push((v, above as f64 / n));
        }
        out
    }

    /// The worst observed value of a PCV.
    pub fn worst(&self, pcv: PcvId) -> u64 {
        self.packets.iter().map(|p| p.max(pcv)).max().unwrap_or(0)
    }

    /// The pointwise-worst PCV binding over the whole trace — the binding
    /// the conservative class queries use.
    pub fn worst_assignment(&self) -> PcvAssignment {
        self.worst_assignment_from(0)
    }

    /// The pointwise-worst PCV binding over packets with `seq ≥ from`
    /// (scoping a query to the measurement phase of a run, past any
    /// state-preparation traffic).
    pub fn worst_assignment_from(&self, from: u64) -> PcvAssignment {
        let mut out = PcvAssignment::new();
        for p in self.packets.iter().filter(|p| p.seq >= from) {
            p.max_into(&mut out);
        }
        out
    }

    /// Render a Table 7/8-style report: the PDF of one PCV, bucketing
    /// values above `tail_from` into a `N+` row.
    pub fn report(&self, pcvs: &PcvTable, pcv: PcvId, tail_from: u64) -> String {
        let mut s = String::new();
        let name = pcvs.name(pcv);
        let _ = writeln!(s, "{:<24} probability density (%)", name);
        let n = self.packets.len().max(1) as f64;
        let mut tail = 0u64;
        for (v, c) in self.histogram(pcv) {
            if v >= tail_from {
                tail += c;
            } else {
                let _ = writeln!(s, "{:<24} {:.4}", v, c as f64 / n * 100.0);
            }
        }
        if tail > 0 {
            let _ = writeln!(
                s,
                "{:<24} {:.4}",
                format!("{tail_from}+"),
                tail as f64 / n * 100.0
            );
        }
        s
    }
}

impl Tracer for Distiller {
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Mark(Marker::PacketStart(seq)) => {
                // Burst runs emit all PacketStart markers before the NF
                // body (see `DpdkEnv::process_burst`): close out the
                // packet in flight instead of silently merging it, so
                // `packets` stays one observation per packet. Within a
                // burst, the body's observations land on the burst's
                // last packet — coarse (and conservative for max-style
                // queries), exactly the attribution the burst trades
                // away.
                self.close();
                self.current = Some(seq);
            }
            TraceEvent::Mark(Marker::PacketEnd(_)) => self.close(),
            TraceEvent::Pcv { pcv, value } if self.current.is_some() => {
                match self.scratch.iter_mut().find(|o| o.0 == pcv) {
                    Some(o) => *o = (pcv, o.1.max(value), o.2 + value),
                    None => self.scratch.push((pcv, value, value)),
                }
            }
            _ => {}
        }
    }
}

/// CCDF over arbitrary float samples (for latency plots — Figures 2/4).
pub fn ccdf_samples(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len().max(1) as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, 1.0 - (i + 1) as f64 / n))
        .collect()
}

/// Percentile of float samples (0.0 ≤ q ≤ 1.0).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::PcvTable;

    fn feed(distiller: &mut Distiller, per_packet: &[&[(u32, u64)]]) {
        for (seq, obs) in per_packet.iter().enumerate() {
            distiller.event(TraceEvent::Mark(Marker::PacketStart(seq as u64)));
            for &(pcv, v) in obs.iter() {
                distiller.event(TraceEvent::Pcv {
                    pcv: PcvId(pcv),
                    value: v,
                });
            }
            distiller.event(TraceEvent::Mark(Marker::PacketEnd(seq as u64)));
        }
    }

    #[test]
    fn per_packet_max_and_sum() {
        let mut d = Distiller::new();
        feed(&mut d, &[&[(0, 3), (0, 7), (0, 2)]]);
        assert_eq!(d.packets().len(), 1);
        assert_eq!(d.packets()[0].max(PcvId(0)), 7);
        assert_eq!(d.packets()[0].sum(PcvId(0)), 12);
        assert_eq!(d.packets()[0].max_assignment().get(PcvId(0)), 7);
    }

    #[test]
    fn histogram_and_pdf() {
        let mut d = Distiller::new();
        feed(&mut d, &[&[(0, 1)], &[(0, 1)], &[(0, 3)], &[]]);
        let h = d.histogram(PcvId(0));
        assert_eq!(h[&1], 2);
        assert_eq!(h[&3], 1);
        assert_eq!(h[&0], 1, "packets without observations read 0");
        let pdf = d.pdf(PcvId(0));
        let total: f64 = pdf.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ccdf_monotone_nonincreasing() {
        let mut d = Distiller::new();
        feed(&mut d, &[&[(0, 1)], &[(0, 2)], &[(0, 2)], &[(0, 5)]]);
        let ccdf = d.ccdf(PcvId(0));
        for w in ccdf.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        assert_eq!(ccdf.last().unwrap().1, 0.0);
    }

    #[test]
    fn worst_assignment_is_pointwise_max() {
        let mut d = Distiller::new();
        feed(&mut d, &[&[(0, 5), (1, 1)], &[(0, 2), (1, 9)]]);
        let w = d.worst_assignment();
        assert_eq!(w.get(PcvId(0)), 5);
        assert_eq!(w.get(PcvId(1)), 9);
        assert_eq!(d.worst(PcvId(1)), 9);
    }

    #[test]
    fn report_buckets_tail() {
        let mut t = PcvTable::new();
        let e = t.intern("e");
        let mut d = Distiller::new();
        feed(&mut d, &[&[(0, 0)], &[(0, 64)], &[(0, 65)], &[(0, 70)]]);
        let rep = d.report(&t, e, 66);
        assert!(rep.contains("66+"));
        assert!(rep.contains("64"));
    }

    #[test]
    fn float_cdf_helpers() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        let ccdf = ccdf_samples(&samples);
        assert_eq!(ccdf[3].1, 0.0);
        assert_eq!(percentile(&samples, 0.5), 3.0); // round-half-up convention
        assert_eq!(percentile(&samples, 1.0), 4.0);
    }
}
