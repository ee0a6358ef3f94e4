//! DPDK-like packet-processing substrate.
//!
//! The paper's NFs sit on DPDK and an ixgbe NIC driver; BOLT can analyse
//! either the NF alone or the full stack, because the driver subset simple
//! NFs exercise "primarily reads and writes to device registers" and has
//! simple control flow (§3.5). This crate reproduces that substrate in
//! simulation:
//!
//! * [`headers`] — Ethernet/IPv4/L4 field offsets and a packet builder;
//! * `device` (private) — the driver's half of the device loop, written
//!   once: one `Driver` whose receive/transmit halves run the instrumented
//!   mempool, descriptor-ring and register-access sequences, and a
//!   mempool of reusable mbuf buffers;
//! * [`Mbuf`] and [`DpdkEnv`] / [`sym_process_packet`] — the production
//!   and analysis device loops, which bracket NF logic with those two
//!   halves at either analysis level ([`StackLevel::NfOnly`] or
//!   [`StackLevel::FullStack`]).
//!
//! The two builds call the same `Driver` and differ only in its layout,
//! so full-stack contracts include driver work exactly the way the
//! paper's do, down to the lines each driver access touches.

mod device;
pub mod headers;

use device::{Driver, Mempool};

use bolt_see::{ConcreteCtx, NfCtx, NfVerdict, SymbolicCtx};
use bolt_trace::{Marker, MemRegion, Tracer};

/// Analysis/tracing boundary (§3.5): include the driver or only the NF.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackLevel {
    /// Only the NF logic between DPDK receive and transmit.
    NfOnly,
    /// NF logic plus DPDK/driver receive and transmit work.
    FullStack,
}

/// A packet buffer handle, DPDK-`rte_mbuf`-style.
#[derive(Clone, Copy, Debug)]
pub struct Mbuf {
    /// Simulated buffer region holding the frame bytes.
    pub region: MemRegion,
    /// Frame length in bytes.
    pub len: u64,
    /// Input port.
    pub port: u16,
}

/// Per-run DPDK environment for **concrete** execution: owns the driver
/// and the mbuf pool, and numbers the packets.
pub struct DpdkEnv {
    level: StackLevel,
    driver: Driver,
    pool: Mempool,
    seq: u64,
}

impl DpdkEnv {
    /// Build an environment with `n_mbufs` buffers of `buf_size` bytes.
    pub fn new(level: StackLevel, n_mbufs: usize, buf_size: u64) -> Self {
        let (driver, pool) =
            Driver::production(&mut bolt_trace::AddressSpace::new(), n_mbufs, buf_size);
        DpdkEnv {
            level,
            driver,
            pool,
            seq: 0,
        }
    }

    /// Default environment: full stack, 512 mbufs of 2 KB.
    pub fn full_stack() -> Self {
        Self::new(StackLevel::FullStack, 512, 2048)
    }

    /// The driver's RX half for one frame, then the frame's DMA into the
    /// mbuf it popped (DMA is free for the CPU).
    #[inline]
    fn receive<T: Tracer>(
        &mut self,
        ctx: &mut ConcreteCtx<'_, T>,
        seq: u64,
        bytes: &[u8],
        port: u16,
    ) -> Mbuf {
        self.driver.receive(ctx.tracer(), self.level, seq);
        let region = self.pool.alloc();
        ctx.register_buffer(region, bytes);
        Mbuf {
            region,
            len: bytes.len() as u64,
            port,
        }
    }

    /// The driver's TX half by verdict, then the mbuf's return.
    #[inline]
    fn transmit<T: Tracer>(
        &mut self,
        ctx: &mut ConcreteCtx<'_, T>,
        seq: u64,
        mbuf: Mbuf,
        verdict: NfVerdict,
    ) {
        self.driver.transmit(ctx.tracer(), self.level, seq, verdict);
        self.pool.free(mbuf.region);
    }

    /// Process one packet concretely: receive `bytes` on `port`, run the
    /// NF body, then transmit/drop according to the body's verdict.
    /// Returns the verdict.
    pub fn process_packet<T: Tracer, F>(
        &mut self,
        ctx: &mut ConcreteCtx<'_, T>,
        bytes: &[u8],
        port: u16,
        mut body: F,
    ) -> NfVerdict
    where
        F: FnMut(&mut ConcreteCtx<'_, T>, Mbuf),
    {
        let seq = self.seq;
        self.seq += 1;
        let mbuf = self.receive(ctx, seq, bytes, port);
        ctx.tracer().mark(Marker::NfStart);
        let before = ctx.verdicts().len();
        body(ctx, mbuf);
        let verdict = ctx.verdicts()[before..]
            .last()
            .copied()
            .unwrap_or(NfVerdict::Drop);
        ctx.tracer().mark(Marker::NfEnd);
        self.transmit(ctx, seq, mbuf, verdict);
        ctx.tracer().mark(Marker::TxDone);
        verdict
    }

    /// Process a burst of packets through one NF-body invocation — the
    /// DPDK `rte_rx_burst` → process → `rte_tx_burst` device loop.
    ///
    /// All frames are received first (mbuf allocation + RX descriptor
    /// work per frame), then `body` runs once over the whole mbuf burst,
    /// then each packet is transmitted or dropped according to the
    /// verdicts the body emitted — one per mbuf, in order; missing
    /// verdicts default to drop, as in the single-packet path.
    ///
    /// Per-packet markers bracket the RX and TX halves, but the NF body
    /// itself is marked once for the burst: per-packet cycle attribution
    /// inside a burst is intentionally coarse (that is the trade batching
    /// makes).
    pub fn process_burst<T: Tracer, F>(
        &mut self,
        ctx: &mut ConcreteCtx<'_, T>,
        frames: &[(&[u8], u16)],
        body: F,
    ) -> Vec<NfVerdict>
    where
        F: FnOnce(&mut ConcreteCtx<'_, T>, &[Mbuf]),
    {
        let first_seq = self.seq;
        let mut mbufs = Vec::with_capacity(frames.len());
        for (i, (bytes, port)) in frames.iter().enumerate() {
            mbufs.push(self.receive(ctx, first_seq + i as u64, bytes, *port));
        }
        self.seq += frames.len() as u64;

        ctx.tracer().mark(Marker::NfStart);
        let before = ctx.verdicts().len();
        body(ctx, &mbufs);
        let emitted = &ctx.verdicts()[before..];
        let verdicts: Vec<NfVerdict> = (0..mbufs.len())
            .map(|i| emitted.get(i).copied().unwrap_or(NfVerdict::Drop))
            .collect();
        ctx.tracer().mark(Marker::NfEnd);

        for (i, (mbuf, verdict)) in mbufs.iter().zip(&verdicts).enumerate() {
            self.transmit(ctx, first_seq + i as u64, *mbuf, *verdict);
        }
        ctx.tracer().mark(Marker::TxDone);
        verdicts
    }
}

/// Symbolic-mode equivalent of [`DpdkEnv::process_packet`]: the same
/// driver halves around the body, on a symbolic packet. The driver's
/// regions and the packet are allocated in a fixed order inside the
/// symbolic context's own address space, so every explored path sees
/// identical structure.
pub fn sym_process_packet<F>(
    ctx: &mut SymbolicCtx<'_>,
    level: StackLevel,
    pkt_len: u64,
    mut body: F,
) where
    F: FnMut(&mut SymbolicCtx<'_>, Mbuf),
{
    let driver = Driver::analysis(ctx);
    let mbuf = Mbuf {
        region: ctx.packet(pkt_len.max(64)),
        len: pkt_len,
        port: 0,
    };
    driver.receive(ctx.tracer(), level, 0);
    ctx.tracer().mark(Marker::NfStart);
    body(ctx, mbuf);
    ctx.tracer().mark(Marker::NfEnd);
    let verdict = ctx.last_verdict().unwrap_or(NfVerdict::Drop);
    driver.transmit(ctx.tracer(), level, 0, verdict);
    ctx.tracer().mark(Marker::TxDone);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::Width;
    use bolt_see::Explorer;
    use bolt_trace::{count_ic_ma, CountingTracer, RecordingTracer};
    use headers as h;

    fn sample_packet() -> Vec<u8> {
        h::PacketBuilder::new()
            .eth(0x0202_0202_0202, 0x0101_0101_0101, h::ETHERTYPE_IPV4)
            .ipv4(0x0a000001, 0x0a000002, h::IPPROTO_UDP, 64)
            .udp(1111, 2222)
            .build()
    }

    #[test]
    fn full_stack_costs_more_than_nf_only() {
        let run = |level: StackLevel| {
            let mut tracer = CountingTracer::new();
            let mut env = DpdkEnv::new(level, 8, 2048);
            let mut ctx = ConcreteCtx::new(&mut tracer);
            env.process_packet(&mut ctx, &sample_packet(), 0, |ctx, mbuf| {
                let et = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
                if ctx.branch_eq_imm(et, h::ETHERTYPE_IPV4 as u64, Width::W16) {
                    ctx.verdict(NfVerdict::Forward(1));
                } else {
                    ctx.verdict(NfVerdict::Drop);
                }
            });
            tracer.instructions()
        };
        let full = run(StackLevel::FullStack);
        let nf = run(StackLevel::NfOnly);
        assert!(
            full > nf + 20,
            "driver work must be visible: full={full} nf_only={nf}"
        );
    }

    #[test]
    fn verdict_is_returned_and_drop_defaults() {
        let mut tracer = CountingTracer::new();
        let mut env = DpdkEnv::full_stack();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        let v = env.process_packet(&mut ctx, &sample_packet(), 0, |_, _| {});
        assert_eq!(v, NfVerdict::Drop, "no verdict defaults to drop");
        let v = env.process_packet(&mut ctx, &sample_packet(), 0, |ctx, _| {
            ctx.verdict(NfVerdict::Flood)
        });
        assert_eq!(v, NfVerdict::Flood);
    }

    #[test]
    fn burst_processing_matches_single_packet_verdicts() {
        let nf_body = |ctx: &mut ConcreteCtx<'_, CountingTracer>, mbuf: Mbuf| {
            let et = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
            if ctx.branch_eq_imm(et, h::ETHERTYPE_IPV4 as u64, Width::W16) {
                ctx.verdict(NfVerdict::Forward(1));
            } else {
                ctx.verdict(NfVerdict::Drop);
            }
        };
        let ipv4 = sample_packet();
        let v6 = h::PacketBuilder::new().eth(2, 1, h::ETHERTYPE_IPV6).build();
        let frames: Vec<(&[u8], u16)> =
            vec![(&ipv4, 0), (&v6, 1), (&ipv4, 0), (&ipv4, 1), (&v6, 0)];

        let mut t_burst = CountingTracer::new();
        let burst_verdicts = {
            let mut env = DpdkEnv::full_stack();
            let mut ctx = ConcreteCtx::new(&mut t_burst);
            env.process_burst(&mut ctx, &frames, |ctx, mbufs| {
                for &m in mbufs {
                    nf_body(ctx, m);
                }
            })
        };

        let mut t_single = CountingTracer::new();
        let single_verdicts: Vec<NfVerdict> = {
            let mut env = DpdkEnv::full_stack();
            let mut ctx = ConcreteCtx::new(&mut t_single);
            frames
                .iter()
                .map(|(f, p)| env.process_packet(&mut ctx, f, *p, |ctx, m| nf_body(ctx, m)))
                .collect()
        };
        assert_eq!(burst_verdicts, single_verdicts);
        assert_eq!(
            burst_verdicts,
            vec![
                NfVerdict::Forward(1),
                NfVerdict::Drop,
                NfVerdict::Forward(1),
                NfVerdict::Forward(1),
                NfVerdict::Drop
            ]
        );
        // The burst path does the same driver work per packet.
        assert_eq!(t_burst.instructions(), t_single.instructions());
        assert_eq!(t_burst.mem_accesses, t_single.mem_accesses);
    }

    #[test]
    fn burst_missing_verdicts_default_to_drop() {
        let mut t = CountingTracer::new();
        let mut env = DpdkEnv::full_stack();
        let mut ctx = ConcreteCtx::new(&mut t);
        let a = sample_packet();
        let frames: Vec<(&[u8], u16)> = vec![(&a, 0), (&a, 0), (&a, 0)];
        // The body only emits a verdict for the first mbuf.
        let vs = env.process_burst(&mut ctx, &frames, |ctx, _mbufs| {
            ctx.verdict(NfVerdict::Flood);
        });
        assert_eq!(vs, vec![NfVerdict::Flood, NfVerdict::Drop, NfVerdict::Drop]);
    }

    #[test]
    fn mbufs_are_recycled() {
        let mut tracer = CountingTracer::new();
        let mut env = DpdkEnv::new(StackLevel::NfOnly, 2, 2048);
        let mut ctx = ConcreteCtx::new(&mut tracer);
        // More packets than mbufs: must not exhaust the pool.
        for _ in 0..10 {
            env.process_packet(&mut ctx, &sample_packet(), 0, |ctx, _| {
                ctx.verdict(NfVerdict::Drop)
            });
        }
        assert_eq!(env.seq, 10);
    }

    #[test]
    fn a_short_frame_after_a_long_one_reads_zeros_past_its_end() {
        let mut tracer = CountingTracer::new();
        // One mbuf: every packet lands in the same slot of the same ctx.
        let mut env = DpdkEnv::new(StackLevel::NfOnly, 1, 2048);
        let mut ctx = ConcreteCtx::new(&mut tracer);
        let long = vec![0xFFu8; 1500];
        env.process_packet(&mut ctx, &long, 0, |ctx, mbuf| {
            let tail = ctx.load(mbuf.region, 1492, 8);
            assert_eq!(ctx.concrete_value(tail), Some(u64::MAX));
            // Scribble beyond the frame as well.
            let v = ctx.lit(u64::MAX, Width::W64);
            ctx.store(mbuf.region, 2040, v, 8);
        });
        let short = sample_packet();
        env.process_packet(&mut ctx, &short, 0, |ctx, mbuf| {
            assert_eq!(mbuf.len, short.len() as u64);
            let buf = ctx.buffer(mbuf.region).unwrap();
            assert_eq!(buf.len(), 2048);
            assert_eq!(&buf[..short.len()], &short[..]);
            assert!(buf[short.len()..].iter().all(|&b| b == 0));
            let dport = ctx.load(mbuf.region, h::L4_DPORT, 2);
            assert_eq!(ctx.concrete_value(dport), Some(2222));
        });
    }

    #[test]
    fn packet_fields_parse_through_ctx() {
        let mut tracer = CountingTracer::new();
        let mut env = DpdkEnv::new(StackLevel::NfOnly, 512, 2048);
        let mut ctx = ConcreteCtx::new(&mut tracer);
        env.process_packet(&mut ctx, &sample_packet(), 0, |ctx, mbuf| {
            let et = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
            assert_eq!(ctx.concrete_value(et), Some(h::ETHERTYPE_IPV4 as u64));
            let src = ctx.load(mbuf.region, h::IPV4_SRC, 4);
            assert_eq!(ctx.concrete_value(src), Some(0x0a000001));
            let dport = ctx.load(mbuf.region, h::L4_DPORT, 2);
            assert_eq!(ctx.concrete_value(dport), Some(2222));
            ctx.verdict(NfVerdict::Drop);
        });
    }

    #[test]
    fn symbolic_and_concrete_streams_match_for_same_path() {
        // The same trivial NF, one path: stateless IC/MA must agree between
        // the symbolic path trace and a concrete run.
        let result = Explorer::new().explore(|ctx| {
            sym_process_packet(ctx, StackLevel::FullStack, 64, |ctx, mbuf| {
                let et = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
                if ctx.branch_eq_imm(et, h::ETHERTYPE_IPV4 as u64, Width::W16) {
                    ctx.verdict(NfVerdict::Forward(1));
                } else {
                    ctx.verdict(NfVerdict::Drop);
                }
            });
        });
        assert_eq!(result.paths.len(), 2);

        let mut rec = RecordingTracer::new();
        let mut env = DpdkEnv::full_stack();
        let mut ctx = ConcreteCtx::new(&mut rec);
        env.process_packet(&mut ctx, &sample_packet(), 0, |ctx, mbuf| {
            let et = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
            if ctx.branch_eq_imm(et, h::ETHERTYPE_IPV4 as u64, Width::W16) {
                ctx.verdict(NfVerdict::Forward(1));
            } else {
                ctx.verdict(NfVerdict::Drop);
            }
        });
        let concrete = count_ic_ma(&rec.events);
        // The IPv4 path is the one with a Forward verdict.
        let sym_path = result
            .paths
            .iter()
            .find(|p| p.verdict == Some(NfVerdict::Forward(1)))
            .unwrap();
        let symbolic = count_ic_ma(&sym_path.events);
        assert_eq!(
            concrete, symbolic,
            "analysis build and production build must agree on stateless cost"
        );
    }

    #[test]
    fn markers_present_in_concrete_stream() {
        let mut rec = RecordingTracer::new();
        let mut env = DpdkEnv::full_stack();
        let mut ctx = ConcreteCtx::new(&mut rec);
        env.process_packet(&mut ctx, &sample_packet(), 0, |ctx, _| {
            ctx.verdict(NfVerdict::Drop)
        });
        use bolt_trace::TraceEvent;
        let marks: Vec<Marker> = rec
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Mark(m) => Some(*m),
                _ => None,
            })
            .collect();
        assert!(marks.contains(&Marker::PacketStart(0)));
        assert!(marks.contains(&Marker::NfStart));
        assert!(marks.contains(&Marker::NfEnd));
        assert!(marks.contains(&Marker::PacketEnd(0)));
    }
}
