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
use std::fmt::{self, Write as _};

use bolt_expr::{PcvAssignment, PcvId, PcvTable};
use bolt_trace::{Marker, TraceEvent, Tracer};

/// One PCV observation of a packet: `(pcv, max, sum)`.
type Obs = (PcvId, u64, u64);

/// Observations per block of the distiller's store: 24 KiB.
const BLOCK: usize = 1024;

/// Per-packet PCV observations. Within one packet, repeated observations
/// of the same PCV keep the maximum (the conservative per-packet binding)
/// and the sum (useful for totals like "collisions seen while expiring").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketObs<'a> {
    /// Packet sequence number.
    pub seq: u64,
    /// `(pcv, max, sum)` in order of first observation: a packet sees a
    /// handful of PCVs at most.
    obs: &'a [Obs],
}

impl PacketObs<'_> {
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
        for &(pcv, max, _) in self.obs {
            out.set(pcv, out.get(pcv).max(max));
        }
    }
}

/// Where a closed packet's observations are: `len` of them from `start`
/// in block `block`.
#[derive(Debug, Clone, Copy)]
struct Filed {
    seq: u64,
    block: u32,
    start: u16,
    len: u16,
}

impl Filed {
    fn obs(self, blocks: &[Vec<Obs>]) -> PacketObs<'_> {
        let obs = match self.len {
            0 => &[],
            n => &blocks[self.block as usize][usize::from(self.start)..][..usize::from(n)],
        };
        PacketObs { seq: self.seq, obs }
    }
}

/// Every closed packet's observations, in arrival order: what
/// [`Distiller::packets`] returns.
#[derive(Clone, Copy)]
pub struct Packets<'a> {
    filed: &'a [Filed],
    blocks: &'a [Vec<Obs>],
}

impl<'a> Packets<'a> {
    /// Number of packets.
    pub fn len(&self) -> usize {
        self.filed.len()
    }

    /// Whether no packet closed.
    pub fn is_empty(&self) -> bool {
        self.filed.is_empty()
    }

    /// The packets, in arrival order.
    pub fn iter(&self) -> PacketIter<'a> {
        PacketIter {
            filed: self.filed.iter(),
            blocks: self.blocks,
        }
    }
}

impl<'a> IntoIterator for Packets<'a> {
    type Item = PacketObs<'a>;
    type IntoIter = PacketIter<'a>;

    fn into_iter(self) -> PacketIter<'a> {
        self.iter()
    }
}

/// Two runs' packets are equal when they observed the same, packet for
/// packet.
impl PartialEq for Packets<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Packets<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over [`Packets`].
#[derive(Debug, Clone)]
pub struct PacketIter<'a> {
    filed: std::slice::Iter<'a, Filed>,
    blocks: &'a [Vec<Obs>],
}

impl<'a> Iterator for PacketIter<'a> {
    type Item = PacketObs<'a>;

    fn next(&mut self) -> Option<PacketObs<'a>> {
        Some(self.filed.next()?.obs(self.blocks))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.filed.size_hint()
    }
}

impl ExactSizeIterator for PacketIter<'_> {}

/// The Distiller sink. Observations are filed packet after packet into
/// blocks of fixed size, and a packet keeps where its own are: a packet
/// costs no allocation of its own, whatever it observes, and the store
/// holds at most one block it does not use (a growing vector would hold
/// up to its whole length).
#[derive(Debug, Default)]
pub struct Distiller {
    /// Per closed packet, in arrival order.
    filed: Vec<Filed>,
    /// The observations; the packet in flight's are the last block's
    /// from `open` on.
    blocks: Vec<Vec<Obs>>,
    /// Sequence number of the packet in flight.
    current: Option<u64>,
    /// Where the packet in flight's observations start in the last block.
    open: usize,
}

impl Distiller {
    /// New empty distiller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `packets` more packets' observations.
    pub(crate) fn reserve(&mut self, packets: usize) {
        self.filed.reserve(packets);
    }

    /// Per-packet observations, in arrival order.
    pub fn packets(&self) -> Packets<'_> {
        Packets {
            filed: &self.filed,
            blocks: &self.blocks,
        }
    }

    /// File the packet in flight, if any.
    fn close(&mut self) {
        if let Some(seq) = self.current.take() {
            let end = self.blocks.last().map_or(0, Vec::len);
            let short = |n: usize| u16::try_from(n).expect("a packet observes under 65 536 PCVs");
            self.filed.push(Filed {
                seq,
                block: self.blocks.len().saturating_sub(1) as u32,
                start: short(self.open),
                len: short(end - self.open),
            });
            self.open = end;
        }
    }

    /// Record `value` for `pcv` in the packet in flight.
    fn observe(&mut self, pcv: PcvId, value: u64) {
        if let Some(o) = self
            .blocks
            .last_mut()
            .and_then(|b| b[self.open..].iter_mut().find(|o| o.0 == pcv))
        {
            *o = (pcv, o.1.max(value), o.2 + value);
            return;
        }
        let block = match self.blocks.last_mut() {
            // Room left, or the packet in flight fills the block alone.
            Some(b) if b.len() < b.capacity() || self.open == 0 => b,
            // Full (or none yet): the packet in flight moves to a new block.
            _ => {
                let mut fresh = Vec::with_capacity(BLOCK);
                if let Some(full) = self.blocks.last_mut() {
                    fresh.extend(full.drain(self.open..));
                }
                self.open = 0;
                self.blocks.push(fresh);
                self.blocks.last_mut().expect("just pushed")
            }
        };
        block.push((pcv, value, value));
    }

    /// Histogram of a PCV's per-packet (max) values.
    pub fn histogram(&self, pcv: PcvId) -> BTreeMap<u64, u64> {
        let mut h = BTreeMap::new();
        for p in self.packets() {
            *h.entry(p.max(pcv)).or_insert(0u64) += 1;
        }
        h
    }

    /// Probability density (value, fraction) of a PCV.
    pub fn pdf(&self, pcv: PcvId) -> Vec<(u64, f64)> {
        let n = self.filed.len().max(1) as f64;
        self.histogram(pcv)
            .into_iter()
            .map(|(v, c)| (v, c as f64 / n))
            .collect()
    }

    /// Complementary CDF of a PCV: `(value, P[X > value])`.
    pub fn ccdf(&self, pcv: PcvId) -> Vec<(u64, f64)> {
        let n = self.filed.len().max(1) as f64;
        let h = self.histogram(pcv);
        let mut above = self.filed.len() as u64;
        let mut out = Vec::with_capacity(h.len());
        for (v, c) in h {
            above -= c;
            out.push((v, above as f64 / n));
        }
        out
    }

    /// The worst observed value of a PCV.
    pub fn worst(&self, pcv: PcvId) -> u64 {
        self.packets().iter().map(|p| p.max(pcv)).max().unwrap_or(0)
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
        for p in self.packets().iter().filter(|p| p.seq >= from) {
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
        let n = self.filed.len().max(1) as f64;
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
            TraceEvent::Pcv { pcv, value } if self.current.is_some() => self.observe(pcv, value),
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
        let p = d.packets().iter().next().unwrap();
        assert_eq!(p.max(PcvId(0)), 7);
        assert_eq!(p.sum(PcvId(0)), 12);
        assert_eq!(p.max_assignment().get(PcvId(0)), 7);
    }

    #[test]
    fn packets_keep_their_observations_across_blocks() {
        // Three PCVs a packet do not divide a block: packets straddling a
        // block's end move to the next one whole. One packet observing
        // more PCVs than a block holds fills a block of its own.
        let three: Vec<[(u32, u64); 4]> = (0..3 * BLOCK as u64)
            .map(|i| [(0, i), (1, i + 1), (0, 2 * i), (2, 7)])
            .collect();
        let wide: Vec<(u32, u64)> = (0..BLOCK as u32 + 100).map(|p| (p, 3)).collect();
        let mut per_packet: Vec<&[(u32, u64)]> = three.iter().map(|o| &o[..]).collect();
        per_packet.insert(5, &wide);
        per_packet.insert(6, &[]);
        let mut d = Distiller::new();
        feed(&mut d, &per_packet);

        assert_eq!(d.packets().len(), per_packet.len());
        for (p, obs) in d.packets().iter().zip(&per_packet) {
            let mut expected = PcvAssignment::new();
            for &(pcv, v) in obs.iter() {
                let pcv = PcvId(pcv);
                expected.set(pcv, expected.get(pcv).max(v));
            }
            assert_eq!(p.max_assignment(), expected, "packet {}", p.seq);
        }
        // Past the two inserted packets, packet 9 is row 7 of `three`.
        let p = d.packets().iter().nth(9).unwrap();
        assert_eq!((p.max(PcvId(0)), p.sum(PcvId(0))), (14, 7 + 14));
        assert_eq!(
            d.packets().iter().nth(5).unwrap().sum(PcvId(BLOCK as u32)),
            3
        );
        assert_eq!(d.worst(PcvId(2)), 7);
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
