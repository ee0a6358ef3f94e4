//! Hardware models for the cycles metric.
//!
//! The paper uses two "machines":
//!
//! * **BOLT's conservative model** (§3.5): per-instruction worst-case
//!   latencies from the Intel optimisation manual, and *every* memory
//!   access charged main-memory latency unless the model can definitively
//!   prove the line is in the private L1D (by tracking spatial and temporal
//!   locality). No L2/L3, no prefetching, no memory-level parallelism
//!   (MLP), no out-of-order overlap. This is [`ConservativeModel`].
//!
//! * **The real Xeon testbed** that produces the measured cycle counts.
//!   Since this reproduction has no hardware, [`TestbedModel`] simulates a
//!   machine with exactly the features §3.5 lists as unmodelled:
//!   a full L1/L2/L3 hierarchy, a next-line prefetcher, MLP (independent
//!   misses overlap), and superscalar issue (sub-cycle per-instruction
//!   throughput). Conservative-vs-testbed ratios therefore reproduce the
//!   paper's Table 3 shape: ≈1× for pointer chases the conservative model
//!   predicts well (program P1), small-integer× for typical NF traffic,
//!   and larger for prefetch-friendly pathological loops (P2/P3, mass
//!   expiry).
//!
//! Both models implement [`Tracer`], so they consume event streams online
//! (constant memory). The conservative model is reset cold per execution
//! path, because a contract may not assume anything about cache contents
//! when a packet arrives; the testbed stays warm across packets, as the
//! real machine does. Neither model segments a stream per packet: the
//! replay runner's sink reads the testbed's running total where each
//! device-loop iteration starts and ends.

pub mod cache;
pub mod cost;

pub use cache::{CacheParams, CacheSim};
pub use cost::CostTable;

use bolt_trace::{InstrClass, TraceEvent, Tracer};

/// A [`CostTable`] in whole units of `1 / scale` cycle, so that a model
/// sums its charges exactly in a `u64`.
#[derive(Debug, Clone, Copy)]
struct Units {
    per_class: [u64; 10],
    l1_hit: u64,
    l2_hit: u64,
    l3_hit: u64,
    mem_latency: u64,
    store_buffer: u64,
}

impl Units {
    /// `table`'s costs times `scale`; each must come out whole.
    fn new(table: &CostTable, scale: f64) -> Self {
        let units = |cost: f64| {
            let u = cost * scale;
            assert!(
                u >= 0.0 && u.fract() == 0.0,
                "{cost} cycles is not a whole number of 1/{scale} cycles"
            );
            u as u64
        };
        Units {
            per_class: table.per_class.map(units),
            l1_hit: units(table.l1_hit),
            l2_hit: units(table.l2_hit),
            l3_hit: units(table.l3_hit),
            mem_latency: units(table.mem_latency),
            store_buffer: units(table.store_buffer),
        }
    }

    /// Cost of `n` instructions of `class`.
    #[inline]
    fn instrs(&self, class: InstrClass, n: u32) -> u64 {
        self.per_class[class.index()] * n as u64
    }
}

/// BOLT's conservative hardware model (§3.5).
///
/// Charges worst-case latency per instruction class and main-memory
/// latency for every access it cannot prove L1-resident. The proof is an
/// exact L1D simulation seeded cold: a hit in the simulated L1D *is* a
/// proof of residency (spatial locality within a line already fetched on
/// this path, or temporal locality to a line fetched earlier on this
/// path), so it is charged the L1 latency; everything else is charged
/// `mem_latency`. Every conservative cost is a whole number of cycles,
/// and the model counts them in a `u64`.
#[derive(Debug, Clone)]
pub struct ConservativeModel {
    /// L1D simulator used as the residency prover.
    l1: CacheSim<8>,
    /// Per-class worst-case costs, in cycles.
    cost: Units,
    cycles: u64,
}

impl ConservativeModel {
    /// New cold model with default Xeon-like parameters.
    pub fn new() -> Self {
        ConservativeModel {
            l1: CacheSim::new(CacheParams::l1d()),
            cost: Units::new(&CostTable::conservative(), 1.0),
            cycles: 0,
        }
    }

    /// Cycles accumulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Reset to a cold state (new path ⇒ no assumptions about the cache).
    pub fn reset(&mut self) {
        self.l1.reset();
        self.cycles = 0;
    }

    fn mem_access(&mut self, addr: u64, bytes: u8) {
        // An access can straddle a line boundary; charge each line touched.
        let shift = self.l1.line_shift();
        let last = (addr + bytes.max(1) as u64 - 1) >> shift;
        for l in addr >> shift..=last {
            self.cycles += if self.l1.access(l << shift) {
                self.cost.l1_hit
            } else {
                self.cost.mem_latency
            };
        }
    }
}

impl Default for ConservativeModel {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer for ConservativeModel {
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Instr { class, n } => {
                self.cycles += self.cost.instrs(class, n);
            }
            TraceEvent::MemRead { addr, bytes, .. } => {
                self.cycles += self.cost.instrs(InstrClass::Load, 1);
                self.mem_access(addr, bytes);
            }
            TraceEvent::MemWrite { addr, bytes } => {
                self.cycles += self.cost.instrs(InstrClass::Store, 1);
                self.mem_access(addr, bytes);
            }
            _ => {}
        }
    }
}

/// Simulated testbed machine: stands in for the paper's Xeon E5-2667v2 DUT.
///
/// Models, deliberately, everything the conservative model refuses to
/// model:
///
/// * three-level cache hierarchy with LRU replacement;
/// * a next-line prefetcher that detects ascending line streams and pulls
///   the following lines into the hierarchy ahead of use;
/// * memory-level parallelism: an *independent* miss issued while another
///   miss is outstanding only pays the DRAM bandwidth increment, not the
///   full latency; *dependent* (pointer-chasing) misses serialise;
/// * superscalar issue: ALU-class instructions retire at an average
///   throughput below one cycle each;
/// * a store buffer: store misses do not stall the pipeline.
///
/// Every testbed cost is a whole number of quarter cycles, and the model
/// counts quarters in a `u64`: the total is exact, whatever order the
/// charges come in.
#[derive(Debug, Clone)]
pub struct TestbedModel {
    /// L1 data cache.
    l1: CacheSim<8>,
    /// Unified L2.
    l2: CacheSim<8>,
    /// Shared L3 slice.
    l3: CacheSim<16>,
    /// Per-class throughput costs, in quarter cycles.
    cost: Units,
    /// Quarter cycles so far.
    quarters: u64,
    /// Quarter cycle at which the most recent miss group finished.
    last_miss_end: Option<u64>,
    /// Number of misses currently overlapped.
    outstanding: u32,
    /// Recently accessed lines (stream detection table); `EMPTY_STREAM`
    /// marks a slot not yet filled.
    streams: [u64; 8],
    stream_next: usize,
}

impl TestbedModel {
    /// Prefetch degree: how many next lines are pulled on a detected stream.
    const PREFETCH_DEGREE: u64 = 2;
    /// Maximum overlapped misses (MLP window).
    const MLP_DEGREE: u32 = 10;
    /// DRAM bandwidth increment per overlapped miss: 24 cycles.
    const OVERLAP_INCREMENT: u64 = 24 * 4;
    /// Two misses closer together than this (in quarter cycles of
    /// intervening work: 48 cycles) are considered overlappable by the
    /// out-of-order window.
    const MLP_WINDOW: u64 = 48 * 4;
    /// Effective cost of an *independent* L1 hit, one cycle: the
    /// out-of-order core pipelines them at ~1/cycle, while dependent
    /// (pointer-chasing) hits pay the full load-to-use latency.
    const L1_HIT_INDEPENDENT: u64 = 4;
    /// A stream slot not yet filled. It matches no line: a line number
    /// is below 2^63 (a line is at least two bytes), so neither `L-1` nor
    /// `L-2` is ever 2^63.
    const EMPTY_STREAM: u64 = 1 << 63;

    /// New cold testbed with Xeon-like parameters.
    pub fn new() -> Self {
        TestbedModel {
            l1: CacheSim::new(CacheParams::l1d()),
            l2: CacheSim::new(CacheParams::l2()),
            l3: CacheSim::new(CacheParams::l3()),
            cost: Units::new(&CostTable::testbed(), 4.0),
            quarters: 0,
            last_miss_end: None,
            outstanding: 0,
            streams: [Self::EMPTY_STREAM; 8],
            stream_next: 0,
        }
    }

    /// Cycles accumulated so far, rounded to the nearest (halves up).
    pub fn cycles(&self) -> u64 {
        (self.quarters + 2) / 4
    }

    /// Exact fractional cycle count (for CDF plots).
    pub fn cycles_f64(&self) -> f64 {
        self.quarters as f64 / 4.0
    }

    /// Look up the hierarchy; returns the latency of the level that hit.
    /// Every level that missed has already installed the line as its most
    /// recent: [`CacheSim::access`] allocates on a miss.
    #[inline(always)]
    fn hierarchy_latency(&mut self, line_addr: u64) -> u64 {
        if self.l1.access(line_addr) {
            return self.cost.l1_hit;
        }
        if self.l2.access(line_addr) {
            return self.cost.l2_hit;
        }
        if self.l3.access(line_addr) {
            return self.cost.l3_hit;
        }
        self.cost.mem_latency
    }

    /// Stream detection, trained on *every* access: an access to line `L`
    /// extends a stream if `L-1` or `L-2` was touched recently. Compares
    /// every slot, without a branch.
    #[inline]
    fn detect_stream(&mut self, line: u64) -> bool {
        // `line - s` is 1 or 2 exactly when `line - s - 1` is below 2.
        let hits: u32 = self
            .streams
            .iter()
            .map(|&s| u32::from(line.wrapping_sub(s).wrapping_sub(1) < 2))
            .sum();
        self.streams[self.stream_next] = line;
        self.stream_next = (self.stream_next + 1) % self.streams.len();
        hits != 0
    }

    /// A load: its issue cost, then its lines.
    #[inline]
    fn read(&mut self, addr: u64, bytes: u8, dep: bool) {
        self.quarters += self.cost.instrs(InstrClass::Load, 1);
        self.mem_access(addr, bytes, dep, false);
    }

    #[inline]
    fn mem_access(&mut self, addr: u64, bytes: u8, dep: bool, is_store: bool) {
        let shift = self.l1.line_shift();
        let last = (addr + bytes.max(1) as u64 - 1) >> shift;
        for l in addr >> shift..=last {
            // Prefetch ahead of any detected ascending stream, hit or miss,
            // so an established stream stays resident ahead of the access
            // point.
            let streaming = self.detect_stream(l);
            if streaming {
                for k in 1..=Self::PREFETCH_DEGREE {
                    let pf = (l + k) << shift;
                    self.l1.install(pf);
                    self.l2.install(pf);
                    self.l3.install(pf);
                }
            }
            let lat = self.hierarchy_latency(l << shift);
            if is_store {
                // Stores retire through the store buffer, hit or miss; the
                // pipeline does not stall for them.
                self.quarters += self.cost.store_buffer;
            } else if lat >= self.cost.mem_latency {
                let now = self.quarters;
                let close = self
                    .last_miss_end
                    .is_some_and(|end| now - end <= Self::MLP_WINDOW);
                if !dep && close && self.outstanding < Self::MLP_DEGREE {
                    // The out-of-order window overlaps this independent
                    // miss with the previous one: pay bandwidth only.
                    self.outstanding += 1;
                    self.quarters += Self::OVERLAP_INCREMENT;
                } else {
                    // Serialised miss: dependent, too far from the previous
                    // miss, or MLP slots exhausted.
                    self.outstanding = 1;
                    self.quarters += lat;
                }
                self.last_miss_end = Some(self.quarters);
            } else {
                self.quarters += if !dep && streaming && lat <= self.cost.l1_hit {
                    // Independent hits inside a detected stream pipeline
                    // at full issue rate; random-indexed warm hits and
                    // pointer chases pay the load-to-use latency.
                    Self::L1_HIT_INDEPENDENT
                } else {
                    lat
                };
            }
        }
    }
}

impl Default for TestbedModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Instructions and memory accesses have methods of their own, so a
/// pair of sinks hands them over without building an event.
impl Tracer for TestbedModel {
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Instr { class, n } => self.instr(class, n),
            TraceEvent::MemRead { addr, bytes, dep } => self.read(addr, bytes, dep),
            TraceEvent::MemWrite { addr, bytes } => self.mem_write(addr, bytes),
            _ => {}
        }
    }

    #[inline]
    fn instr(&mut self, class: InstrClass, n: u32) {
        self.quarters += self.cost.instrs(class, n);
    }

    #[inline]
    fn mem_read(&mut self, addr: u64, bytes: u8) {
        self.read(addr, bytes, false);
    }

    #[inline]
    fn mem_read_dep(&mut self, addr: u64, bytes: u8) {
        self.read(addr, bytes, true);
    }

    #[inline]
    fn mem_write(&mut self, addr: u64, bytes: u8) {
        self.quarters += self.cost.instrs(InstrClass::Store, 1);
        self.mem_access(addr, bytes, false, true);
    }
}

/// Run a recorded event slice through a fresh conservative model and return
/// the cycle bound.
pub fn conservative_cycles(events: &[TraceEvent]) -> u64 {
    let mut m = ConservativeModel::new();
    for ev in events {
        m.event(*ev);
    }
    m.cycles()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_trace::{InstrClass, Tracer};

    #[test]
    fn conservative_charges_dram_for_cold_access() {
        let mut m = ConservativeModel::new();
        m.mem_read(0x1000, 8);
        assert!(
            m.cycles() >= m.cost.mem_latency,
            "cold access must cost DRAM"
        );
    }

    #[test]
    fn conservative_proves_temporal_locality() {
        let mut m = ConservativeModel::new();
        m.mem_read(0x1000, 8);
        let after_first = m.cycles();
        m.mem_read(0x1000, 8);
        let delta = m.cycles() - after_first;
        assert!(
            delta < m.cost.mem_latency,
            "second access to same line must be an L1 hit"
        );
    }

    #[test]
    fn conservative_proves_spatial_locality() {
        let mut m = ConservativeModel::new();
        m.mem_read(0x1000, 8);
        let after_first = m.cycles();
        m.mem_read(0x1008, 8); // same 64B line
        let delta = m.cycles() - after_first;
        assert!(delta < m.cost.mem_latency);
    }

    #[test]
    fn straddling_access_charges_both_lines() {
        let mut m = ConservativeModel::new();
        m.mem_read(0x103c, 8); // crosses the 0x1040 line boundary
        assert!(m.cycles() >= 2 * m.cost.mem_latency);
    }

    #[test]
    fn testbed_prefetcher_turns_stream_into_hits() {
        let mut m = TestbedModel::new();
        // Sequential walk over 64 lines.
        for i in 0..64u64 {
            m.mem_read(0x10000 + i * 64, 8);
        }
        let seq = m.cycles();
        let mut m2 = TestbedModel::new();
        // Same number of accesses, scattered (one per page).
        for i in 0..64u64 {
            m2.mem_read(0x10000 + i * 4096, 8);
        }
        let scattered = m2.cycles();
        assert!(
            seq * 2 < scattered,
            "prefetching must make the sequential walk much cheaper: seq={seq} scattered={scattered}"
        );
    }

    #[test]
    fn testbed_mlp_overlaps_independent_misses_only() {
        // Independent scattered misses (dep = false) overlap…
        let mut ind = TestbedModel::new();
        for i in 0..32u64 {
            ind.mem_read(0x100000 + i * 8192, 8);
        }
        // …dependent scattered misses (dep = true) serialise.
        let mut dep = TestbedModel::new();
        for i in 0..32u64 {
            dep.mem_read_dep(0x100000 + i * 8192, 8);
        }
        assert!(
            ind.cycles() * 2 < dep.cycles(),
            "MLP should at least halve independent miss cost: ind={} dep={}",
            ind.cycles(),
            dep.cycles()
        );
    }

    #[test]
    fn conservative_bounds_testbed_on_mixed_trace() {
        // Pseudo-random but deterministic mixed workload.
        let mut cons = ConservativeModel::new();
        let mut test = TestbedModel::new();
        let mut state = 0x243f6a8885a308d3u64;
        for i in 0..2000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = 0x20000 + (state % 65536);
            for m in [&mut cons as &mut dyn Tracer, &mut test as &mut dyn Tracer] {
                m.instr(InstrClass::Alu, 3);
                m.mem_read(a, 8);
                if i % 7 == 0 {
                    m.mem_write(a, 8);
                }
                m.instr(InstrClass::Branch, 1);
            }
        }
        assert!(
            cons.cycles() >= test.cycles(),
            "conservative bound violated: {} < {}",
            cons.cycles(),
            test.cycles()
        );
    }

    #[test]
    fn warm_testbed_is_cheaper_than_cold_conservative() {
        // Process the "same packet" 100 times: the testbed keeps its caches
        // warm, while the conservative model is reset per path. This is the
        // mechanism behind Table 3's typical-workload ratios.
        let packet_events = |m: &mut dyn Tracer| {
            m.instr(InstrClass::Alu, 200);
            for b in 0..16u64 {
                m.mem_read(0x30000 + b * 64, 8);
            }
            m.instr(InstrClass::Branch, 20);
        };
        let mut cons = ConservativeModel::new();
        packet_events(&mut cons); // one path, cold
        let bound = cons.cycles();

        let mut test = TestbedModel::new();
        for _ in 0..100 {
            packet_events(&mut test);
        }
        let per_packet_measured = test.cycles() / 100;
        let ratio = bound as f64 / per_packet_measured as f64;
        assert!(
            ratio > 1.5 && ratio < 60.0,
            "expected a Table-3-like conservative/measured gap, got {ratio:.2}"
        );
    }
}
