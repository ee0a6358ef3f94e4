//! Concrete-run harness: plays a workload through an NF's production
//! build with every measurement sink attached.
//!
//! The runner advances the simulated clock to each arrival and the NF's
//! event stream makes one pass through one sink, whose type the device
//! loop, the NF and its library are instantiated for (no vtable). The
//! sink owns by value (a) streaming IC/MA counters and (b) the warm
//! [`TestbedModel`] for measured cycles (the paper's per-packet TSC
//! readings), and for the length of a `play*` call (c) the runner's
//! [`Distiller`], moved in and back out without allocating; so the
//! context's one pointer reaches every member, with no second pointer to
//! load per event. A window in the sink reads (a) and (b) at the first
//! `PacketStart` of a device-loop iteration and again at its `TxDone`,
//! keeping only the start totals in between. The difference is the
//! iteration's one record: first sequence number, packets, IC, MA and
//! cycles, joined after the call with the verdicts the device loop
//! returned — a [`PacketSample`] per packet, or a [`BurstSample`] per
//! burst. Bursts attribute as they always have: the NF body is bracketed
//! once, so IC/MA/cycles are per burst and the body's PCV observations
//! land on the burst's last packet.
//! With the distiller's per-packet observations ([`crate::PacketObs`],
//! filed in blocks shared by all packets) that is all the evaluation's
//! tables and figures consume and all a run retains: two small records a
//! packet and the observations themselves, whatever the packet executes.

use bolt_core::nf::NetworkFunction;
use bolt_hw::TestbedModel;
use bolt_see::{ConcreteCtx, NfVerdict};
use bolt_trace::{CountingTracer, InstrClass, Marker, TraceEvent, Tracer};
use bolt_workloads::TimedPacket;
use dpdk_sim::{DpdkEnv, Mbuf, StackLevel};
use nf_lib::clock::{Clock, Granularity};

use crate::Distiller;

/// Per-packet measurement record.
#[derive(Debug, Clone, Copy)]
pub struct PacketSample {
    /// Packet sequence number.
    pub seq: u64,
    /// Executed instructions.
    pub ic: u64,
    /// Memory accesses.
    pub ma: u64,
    /// Simulated testbed cycles.
    pub cycles: f64,
    /// The NF's verdict.
    pub verdict: NfVerdict,
}

/// Per-burst measurement record (see [`NfRunner::play_nf_bursts`]).
#[derive(Debug, Clone)]
pub struct BurstSample {
    /// Sequence number of the burst's first packet.
    pub first_seq: u64,
    /// Packets in the burst.
    pub len: usize,
    /// Executed instructions across the burst.
    pub ic: u64,
    /// Memory accesses across the burst.
    pub ma: u64,
    /// Simulated testbed cycles across the burst.
    pub cycles: f64,
    /// Per-packet verdicts, in mbuf order.
    pub verdicts: Vec<NfVerdict>,
}

/// The runner's sink: every event goes to the counters, the testbed
/// machine and the distiller, and every device-loop iteration — a burst,
/// or under `DpdkEnv::process_packet` a burst of one — leaves its record
/// (verdicts apart: no event carries them). It owns all three by value:
/// the counters and the model for the runner's life, the runner's
/// distiller for the length of a `play*` call (moved in and back out, an
/// empty one in its place between calls). So an event reaches each member
/// at a fixed offset from the one pointer the context holds.
struct Windowed {
    counting: CountingTracer,
    model: TestbedModel,
    distiller: Distiller,
    /// Packets in the iteration in flight; 0 when none is open.
    open: usize,
    /// The iteration in flight's first sequence number, and the totals
    /// at its first marker.
    first_seq: u64,
    ic: u64,
    ma: u64,
    cycles: f64,
    closed: Vec<BurstSample>,
}

impl Windowed {
    fn new() -> Self {
        Windowed {
            counting: CountingTracer::new(),
            model: TestbedModel::new(),
            distiller: Distiller::new(),
            open: 0,
            first_seq: 0,
            ic: 0,
            ma: 0,
            cycles: 0.0,
            closed: Vec::new(),
        }
    }

    /// Every member sees `ev`.
    #[inline]
    fn each(&mut self, ev: TraceEvent) {
        self.counting.event(ev);
        self.model.event(ev);
        self.distiller.event(ev);
    }

    /// A marker: open or close the window, then pass it on. A few per
    /// packet, so out of line.
    #[inline(never)]
    fn mark(&mut self, m: Marker) {
        match m {
            Marker::PacketStart(seq) => {
                if self.open == 0 {
                    self.first_seq = seq;
                    self.ic = self.counting.instructions();
                    self.ma = self.counting.mem_accesses;
                    self.cycles = self.model.cycles_f64();
                }
                self.open += 1;
            }
            Marker::TxDone => {
                assert!(self.open > 0, "TxDone with no packet open");
                self.closed.push(BurstSample {
                    first_seq: self.first_seq,
                    len: self.open,
                    ic: self.counting.instructions() - self.ic,
                    ma: self.counting.mem_accesses - self.ma,
                    cycles: self.model.cycles_f64() - self.cycles,
                    verdicts: Vec::new(),
                });
                self.open = 0;
            }
            _ => {}
        }
        self.each(TraceEvent::Mark(m));
    }
}

impl Tracer for Windowed {
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Mark(m) => self.mark(m),
            _ => self.each(ev),
        }
    }

    // Instructions and memory accesses carry no marker: straight to the
    // members' own methods for them.

    #[inline]
    fn instr(&mut self, class: InstrClass, n: u32) {
        self.counting.instr(class, n);
        self.model.instr(class, n);
        self.distiller.instr(class, n);
    }

    #[inline]
    fn mem_read(&mut self, addr: u64, bytes: u8) {
        self.counting.mem_read(addr, bytes);
        self.model.mem_read(addr, bytes);
        self.distiller.mem_read(addr, bytes);
    }

    #[inline]
    fn mem_read_dep(&mut self, addr: u64, bytes: u8) {
        self.counting.mem_read_dep(addr, bytes);
        self.model.mem_read_dep(addr, bytes);
        self.distiller.mem_read_dep(addr, bytes);
    }

    #[inline]
    fn mem_write(&mut self, addr: u64, bytes: u8) {
        self.counting.mem_write(addr, bytes);
        self.model.mem_write(addr, bytes);
        self.distiller.mem_write(addr, bytes);
    }
}

/// The harness.
pub struct NfRunner {
    env: DpdkEnv,
    /// The simulated clock the NF reads (advanced to each packet's
    /// arrival time before processing).
    pub clock: Clock,
    /// The counters, the testbed model, and the distiller while a
    /// `play*` call runs.
    sink: Windowed,
    /// The distiller capturing PCV observations.
    pub distiller: Distiller,
    /// Per-packet samples, in arrival order.
    pub samples: Vec<PacketSample>,
    /// Per-burst samples, in arrival order (burst-driven runs only).
    pub burst_samples: Vec<BurstSample>,
}

impl NfRunner {
    /// New harness at the given stack level and clock granularity.
    pub fn new(level: StackLevel, granularity: Granularity) -> Self {
        NfRunner {
            env: DpdkEnv::new(level, 512, 2048),
            clock: Clock::new(granularity),
            sink: Windowed::new(),
            distiller: Distiller::new(),
            samples: Vec::new(),
            burst_samples: Vec::new(),
        }
    }

    /// Play a workload: `body` receives the context, the mbuf, and the
    /// clock (already advanced to the packet's arrival time) and runs the
    /// NF's `process`. NFs that keep no time-stamped state simply ignore
    /// the clock — reading it is the NF's own (costed) decision, exactly
    /// as in the analysis build.
    fn play<F>(&mut self, packets: &[TimedPacket], mut body: F)
    where
        F: FnMut(&mut ConcreteCtx<'_, Windowed>, Mbuf, &Clock),
    {
        let mut verdicts = Vec::with_capacity(packets.len());
        let windows = self.windows(packets.len(), packets.len(), |env, clock, ctx| {
            for p in packets {
                clock.advance_to(p.t_ns.max(clock.t_ns));
                ctx.clear_verdicts();
                verdicts.push(env.process_packet(ctx, &p.frame, p.port, |ctx, mbuf| {
                    body(ctx, mbuf, clock);
                }));
            }
        });
        // A packet that closed no window must not read as free.
        assert_eq!(windows.len(), verdicts.len(), "one record per packet");
        self.samples.reserve(packets.len());
        for (w, verdict) in windows.into_iter().zip(verdicts) {
            assert_eq!(w.len, 1, "packet {}: burst markers in `play`", w.first_seq);
            self.samples.push(PacketSample {
                seq: w.first_seq,
                ic: w.ic,
                ma: w.ma,
                cycles: w.cycles,
                verdict,
            });
        }
    }

    /// Run `drive` on a context whose every event reaches every sink;
    /// returns the `iterations` windows it closed.
    fn windows(
        &mut self,
        iterations: usize,
        packets: usize,
        drive: impl FnOnce(&mut DpdkEnv, &mut Clock, &mut ConcreteCtx<'_, Windowed>),
    ) -> Vec<BurstSample> {
        let sink = &mut self.sink;
        std::mem::swap(&mut sink.distiller, &mut self.distiller);
        sink.distiller.reserve(packets);
        sink.closed = Vec::with_capacity(iterations);
        drive(&mut self.env, &mut self.clock, &mut ConcreteCtx::new(sink));
        std::mem::swap(&mut sink.distiller, &mut self.distiller);
        std::mem::take(&mut sink.closed)
    }

    /// Play a workload through a [`NetworkFunction`]'s production build,
    /// packet at a time (full per-packet samples and distillation).
    pub fn play_nf<N: NetworkFunction>(
        &mut self,
        nf: &N,
        state: &mut N::State,
        packets: &[TimedPacket],
    ) {
        self.play(packets, |ctx, mbuf, clock| {
            nf.process(ctx, state, clock, mbuf);
        });
    }

    /// Play a workload in bursts of `burst` packets — the device-loop
    /// shape: one receive of the whole burst, [`NetworkFunction::process`]
    /// on each mbuf in order, then the transmits. Each burst is delivered
    /// when its last packet has arrived (one poll per burst); measurements
    /// are recorded per burst in [`NfRunner::burst_samples`], since the NF
    /// body is bracketed once per burst.
    pub fn play_nf_bursts<N: NetworkFunction>(
        &mut self,
        nf: &N,
        state: &mut N::State,
        packets: &[TimedPacket],
        burst: usize,
    ) {
        assert!(burst > 0, "burst size must be positive");
        let bursts = packets.len().div_ceil(burst);
        let mut verdicts = Vec::with_capacity(bursts);
        // Per-packet attribution is impossible inside a burst (all the
        // starts, the body once, then all the ends), so the window is the
        // burst and its cycles come straight off the testbed model.
        let windows = self.windows(bursts, packets.len(), |env, clock, ctx| {
            for chunk in packets.chunks(burst) {
                let t_last = chunk.iter().map(|p| p.t_ns).max().unwrap_or(0);
                clock.advance_to(t_last.max(clock.t_ns));
                ctx.clear_verdicts();
                let frames: Vec<(&[u8], u16)> =
                    chunk.iter().map(|p| (p.frame.as_slice(), p.port)).collect();
                verdicts.push(env.process_burst(ctx, &frames, |ctx, mbufs| {
                    for &mbuf in mbufs {
                        nf.process(ctx, state, clock, mbuf);
                    }
                }));
            }
        });
        assert_eq!(windows.len(), verdicts.len(), "one record per burst");
        self.burst_samples.reserve(bursts);
        for (mut w, verdicts) in windows.into_iter().zip(verdicts) {
            assert_eq!(w.len, verdicts.len(), "burst at {}", w.first_seq);
            w.verdicts = verdicts;
            self.burst_samples.push(w);
        }
    }

    /// Total instructions so far.
    pub fn total_ic(&self) -> u64 {
        self.sink.counting.instructions()
    }

    /// Total memory accesses so far.
    pub fn total_ma(&self) -> u64 {
        self.sink.counting.mem_accesses
    }

    /// Per-packet cycle samples as floats (for CDF/CCDF plots).
    pub fn cycle_samples(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.cycles).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_nfs::bridge::{self, Bridge, BridgeConfig};
    use bolt_see::NfCtx;
    use bolt_trace::AddressSpace;
    use bolt_workloads::generators::bridge_traffic;
    use nf_lib::registry::DsRegistry;

    fn test_bridge() -> (Bridge, bridge::BridgeState) {
        let nf = Bridge::with(BridgeConfig {
            capacity: 256,
            ..Default::default()
        });
        let mut reg = DsRegistry::new();
        let ids = nf.register(&mut reg);
        let mut aspace = AddressSpace::new();
        let state = nf.state(ids, &mut aspace);
        (nf, state)
    }

    #[test]
    fn runner_collects_per_packet_samples() {
        let (nf, mut state) = test_bridge();
        let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
        let pkts = bridge_traffic(1, 200, 64, false, 1000);
        runner.play_nf(&nf, &mut state, &pkts);
        assert_eq!(runner.samples.len(), 200);
        assert!(runner.total_ic() > 200 * 50);
        for s in &runner.samples {
            assert!(s.ic > 0);
            assert!(s.cycles > 0.0);
        }
        // The distiller saw per-packet observations.
        assert_eq!(runner.distiller.packets().len(), 200);
        // PCV `t` was observed at least once under collisions.
        let _ = runner.distiller.worst_assignment();
    }

    #[test]
    #[should_panic(expected = "TxDone with no packet open")]
    fn a_window_closed_twice_fails_loudly() {
        let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
        let pkts = bridge_traffic(1, 1, 64, false, 1000);
        // An NF body that forges the device loop's closing marker: the
        // real one then has nothing to close, and must not pass as a
        // second, free packet.
        runner.play(&pkts, |ctx, _, _| ctx.tracer().mark(Marker::TxDone));
    }

    #[test]
    #[should_panic(expected = "burst markers in `play`")]
    fn a_packet_opened_twice_fails_loudly() {
        let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
        let pkts = bridge_traffic(1, 1, 64, false, 1000);
        runner.play(&pkts, |ctx, _, _| {
            ctx.tracer().mark(Marker::PacketStart(99))
        });
    }

    #[test]
    fn burst_runs_match_per_packet_totals() {
        let pkts = bridge_traffic(7, 192, 64, false, 1000);

        let (nf, mut state) = test_bridge();
        let mut per_packet = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
        per_packet.play_nf(&nf, &mut state, &pkts);

        let (nf2, mut state2) = test_bridge();
        let mut bursty = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
        bursty.play_nf_bursts(&nf2, &mut state2, &pkts, 32);

        assert_eq!(bursty.burst_samples.len(), 192 / 32);
        assert!(bursty.samples.is_empty(), "burst runs record burst samples");
        // The distiller still sees one observation per packet (burst
        // marker ordering must not merge or drop packets).
        assert_eq!(bursty.distiller.packets().len(), 192);
        let burst_pkts: usize = bursty.burst_samples.iter().map(|b| b.len).sum();
        assert_eq!(burst_pkts, 192);
        for b in &bursty.burst_samples {
            assert!(b.ic > 0);
            assert!(b.cycles > 0.0);
            assert_eq!(b.verdicts.len(), b.len);
        }
        // Identical work, identical totals — except the clock: a burst is
        // delivered at its last packet's arrival, so timestamps (and thus
        // expiry sweeps on this idle-table workload) can only coarsen.
        // With an effectively-infinite TTL here the totals are exact.
        assert_eq!(bursty.total_ic(), per_packet.total_ic());
        assert_eq!(bursty.total_ma(), per_packet.total_ma());
        let per_packet_cycles: f64 = per_packet.samples.iter().map(|s| s.cycles).sum();
        let burst_cycles: f64 = bursty.burst_samples.iter().map(|b| b.cycles).sum();
        // Cycles are the same events in another order (32 receives, the
        // bodies, 32 transmits), which the testbed's caches and miss
        // overlap notice: totals agree to a few percent, not exactly.
        assert!(
            (burst_cycles / per_packet_cycles - 1.0).abs() < 0.05,
            "cycles: {burst_cycles} in bursts vs {per_packet_cycles} per packet"
        );
        // Verdicts agree packet for packet.
        let flat: Vec<NfVerdict> = bursty
            .burst_samples
            .iter()
            .flat_map(|b| b.verdicts.iter().copied())
            .collect();
        let single: Vec<NfVerdict> = per_packet.samples.iter().map(|s| s.verdict).collect();
        assert_eq!(flat, single);
    }
}
