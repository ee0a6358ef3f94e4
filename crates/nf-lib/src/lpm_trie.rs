//! Binary-trie longest-prefix-match table — the paper's running example.
//!
//! Algorithm 1 of the paper: the forwarding table is a bit trie; lookup
//! walks one node per matched prefix bit and stops when the next child is
//! absent. Its contract is Table 2: cost linear in the matched prefix
//! length `l`, the structure's only PCV. The coalescing described in §3.2
//! is reproduced exactly: the per-level cost depends on whether the bit is
//! 0 or 1 (different branch shapes), and the contract charges the worse of
//! the two.

use bolt_expr::{PcvId, PerfExpr, TermRef, Width};
use bolt_see::concrete::CVal;
use bolt_see::{ConcreteCtx, NfCtx, SymbolicCtx};
use bolt_trace::{AddressSpace, DsId, InstrClass, MemRegion, Tracer};

use crate::model::DsModel;
use crate::registry::{self, CaseContract, DsContract, DsRegistry, MethodContract};

/// Node stride: children pointers + port, padded to 16 bytes.
const NODE: u64 = 16;

/// The single method.
pub const M_LOOKUP: u16 = 0;

/// Ids handle for a registered trie.
#[derive(Clone, Copy, Debug)]
pub struct LpmTrieIds {
    /// Registry instance id.
    pub ds: DsId,
    /// PCV `l` — matched prefix length.
    pub l: PcvId,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    child: [i32; 2],
    port: i32,
}

/// Operations shared by the concrete trie and its model.
pub trait LpmTrieOps<C: NfCtx> {
    /// Longest-prefix-match lookup; returns the port of the deepest node
    /// reached (the default route lives at the root).
    fn lookup(&mut self, ctx: &mut C, ip: C::Val) -> C::Val;
}

/// The concrete, instrumented trie.
#[derive(Debug, Clone)]
pub struct LpmTrie {
    ids: LpmTrieIds,
    nodes: Vec<Node>,
    r_nodes: MemRegion,
    max_nodes: usize,
    /// Depth reached by the most recent lookup (the PCV `l`).
    pub last_depth: u64,
}

impl LpmTrie {
    /// Build an empty trie with a default route on port `default_port`.
    pub fn new(
        ids: LpmTrieIds,
        max_nodes: usize,
        default_port: u16,
        aspace: &mut AddressSpace,
    ) -> Self {
        LpmTrie {
            ids,
            nodes: vec![Node {
                child: [-1, -1],
                port: default_port as i32,
            }],
            r_nodes: aspace.alloc_table(max_nodes as u64 * NODE),
            max_nodes,
            last_depth: 0,
        }
    }

    /// Insert a route (control plane; uninstrumented).
    pub fn insert(&mut self, prefix: u32, len: u8, port: u16) {
        assert!(len <= 32);
        let mut node = 0usize;
        for i in 0..len {
            let bit = ((prefix >> (31 - i)) & 1) as usize;
            let next = self.nodes[node].child[bit];
            node = if next >= 0 {
                next as usize
            } else {
                assert!(self.nodes.len() < self.max_nodes, "trie capacity exceeded");
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    child: [-1, -1],
                    port: -1,
                });
                self.nodes[node].child[bit] = idx as i32;
                idx
            };
        }
        self.nodes[node].port = port as i32;
    }

    /// Uninstrumented oracle lookup (longest prefix with a port set; falls
    /// back to the deepest ancestor that has one).
    pub fn raw_lookup(&self, ip: u32) -> u16 {
        let mut node = 0usize;
        let mut best = self.nodes[0].port;
        for i in 0..32 {
            let bit = ((ip >> (31 - i)) & 1) as usize;
            let next = self.nodes[node].child[bit];
            if next < 0 {
                break;
            }
            node = next as usize;
            if self.nodes[node].port >= 0 {
                best = self.nodes[node].port;
            }
        }
        best.max(0) as u16
    }
}

impl<T: Tracer> LpmTrieOps<ConcreteCtx<'_, T>> for LpmTrie {
    fn lookup(&mut self, ctx: &mut ConcreteCtx<'_, T>, ip: CVal) -> CVal {
        let ipv = ip.v as u32;
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        let mut node = 0usize;
        let mut best = self.nodes[0].port;
        let mut depth = 0u64;
        for i in 0..32 {
            let bit = ((ipv >> (31 - i)) & 1) as usize;
            // Bit extraction: shift + mask. A 0-bit needs one fewer ALU op
            // (the compiler tests the flag directly); the contract
            // coalesces to the 1-bit cost (§3.2's example).
            t.alu(if bit == 1 { 2 } else { 1 });
            // Child pointer load (pointer chase) + null test.
            t.mem_read_dep(self.r_nodes.addr(node as u64 * NODE + 4 * bit as u64), 4);
            t.instr(InstrClass::Branch, 1);
            let next = self.nodes[node].child[bit];
            if next < 0 {
                break;
            }
            node = next as usize;
            // Port refresh along the path: load + test + conditional move.
            t.mem_read_dep(self.r_nodes.addr(node as u64 * NODE + 8), 4);
            t.alu(2);
            if self.nodes[node].port >= 0 {
                best = self.nodes[node].port;
            }
            depth += 1;
        }
        t.pcv(self.ids.l, depth);
        t.instr(InstrClass::Ret, 1);
        self.last_depth = depth;
        ctx.lit(best.max(0) as u64, Width::W16)
    }
}

/// The model's matched length is opaque: one case, a fresh port.
impl LpmTrieOps<SymbolicCtx<'_>> for DsModel {
    fn lookup(&mut self, ctx: &mut SymbolicCtx<'_>, _ip: TermRef) -> TermRef {
        self.record(ctx, M_LOOKUP, 0);
        ctx.fresh("lpm.port", Width::W16)
    }
}

/// Calibrate and register a trie instance. The contract has Table 2's
/// shape: `slope·l + fixed` for each metric.
pub fn register(reg: &mut DsRegistry, name: &str, pcv_prefix: &str) -> LpmTrieIds {
    let l = reg.pcv(pcv_prefix, "l");
    let provisional = LpmTrieIds {
        ds: DsId(u32::MAX),
        l,
    };
    // Calibration: routes at depth 0 vs depth d, worst bit pattern (all
    // ones, so every level pays the 2-ALU bit extraction).
    let d = 16u64;
    let measure = |trie: &mut LpmTrie, ip: u32| {
        registry::measure(|ctx| {
            let ipv = ctx.lit(ip as u64, Width::W32);
            let _ = LpmTrieOps::<_>::lookup(trie, ctx, ipv);
        })
    };
    let mut aspace = AddressSpace::new();
    let mut trie = LpmTrie::new(provisional, 1024, 0, &mut aspace);
    // Depth-0 lookup: first bit of 0xFFFF… has no child.
    let base = measure(&mut trie, 0xFFFF_FFFF);
    // Insert an all-ones prefix of length d; lookup matches d levels.
    trie.insert(0xFFFF_FFFF, d as u8, 7);
    let deep = measure(&mut trie, 0xFFFF_FFFF);
    let slope = |m: usize| (deep[m] - base[m]) / d;
    let fixed = |m: usize| base[m];
    let build = |m: usize| {
        let mut e = PerfExpr::constant(fixed(m));
        e.add_assign(&PerfExpr::var(l, slope(m)));
        e
    };
    let contract = DsContract {
        methods: vec![MethodContract {
            name: "lookup",
            cases: vec![CaseContract {
                name: "unconstrained",
                perf: [build(0), build(1), build(2)],
            }],
        }],
    };
    let ds = reg.register(name, contract);
    LpmTrieIds { ds, l }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::PcvAssignment;
    use bolt_see::ConcreteCtx;
    use bolt_trace::{Metric, NullTracer, RecordingTracer, StatefulCall};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (DsRegistry, LpmTrieIds, LpmTrie) {
        let mut reg = DsRegistry::new();
        let ids = register(&mut reg, "lpm", "");
        let mut aspace = AddressSpace::new();
        let trie = LpmTrie::new(ids, 4096, 0, &mut aspace);
        (reg, ids, trie)
    }

    #[test]
    fn longest_prefix_wins() {
        let (_, _, mut trie) = setup();
        trie.insert(0x0A000000, 8, 1); // 10.0.0.0/8 -> 1
        trie.insert(0x0A010000, 16, 2); // 10.1.0.0/16 -> 2
        trie.insert(0x0A010100, 24, 3); // 10.1.1.0/24 -> 3
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let cases = [
            (0x0A020304u32, 1u64), // 10.2.x matches /8
            (0x0A010203, 2),       // 10.1.2.x matches /16
            (0x0A0101FF, 3),       // 10.1.1.x matches /24
            (0x0B000001, 0),       // default
        ];
        for (ip, want) in cases {
            let ipv = ctx.lit(ip as u64, Width::W32);
            let got = LpmTrieOps::<_>::lookup(&mut trie, &mut ctx, ipv);
            assert_eq!(ctx.concrete_value(got), Some(want), "ip {ip:#x}");
        }
    }

    #[test]
    fn matches_oracle_on_random_tables() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            let (_, _, mut trie) = setup();
            for _ in 0..50 {
                let len = rng.gen_range(1..=24u8);
                let prefix = rng.gen::<u32>() & (!0u32 << (32 - len));
                let port = rng.gen_range(1..64u16);
                trie.insert(prefix, len, port);
            }
            let mut t = NullTracer;
            let mut ctx = ConcreteCtx::new(&mut t);
            for _ in 0..200 {
                let ip = rng.gen::<u32>();
                let ipv = ctx.lit(ip as u64, Width::W32);
                let got = LpmTrieOps::<_>::lookup(&mut trie, &mut ctx, ipv);
                assert_eq!(
                    ctx.concrete_value(got),
                    Some(trie.raw_lookup(ip) as u64),
                    "ip {ip:#x}"
                );
            }
        }
    }

    #[test]
    fn contract_is_linear_in_l_and_bounds_measured() {
        let (reg, ids, mut trie) = setup();
        trie.insert(0xC0A80000, 16, 5);
        trie.insert(0xC0A80100, 24, 6);
        let case = reg.resolve(StatefulCall {
            ds: ids.ds,
            method: M_LOOKUP,
            case: 0,
        });
        assert_eq!(case.expr(Metric::Instructions).degree(), 1);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            let ip = if rng.gen_bool(0.5) {
                0xC0A80000 | rng.gen_range(0..0x10000)
            } else {
                rng.gen::<u32>()
            };
            let mut rec = RecordingTracer::new();
            {
                let mut ctx = ConcreteCtx::new(&mut rec);
                let ipv = ctx.lit(ip as u64, Width::W32);
                let _ = LpmTrieOps::<_>::lookup(&mut trie, &mut ctx, ipv);
            }
            let (ic, ma) = bolt_trace::count_ic_ma(&rec.events);
            let cyc = bolt_hw::conservative_cycles(&rec.events);
            let mut env = PcvAssignment::new();
            env.set(ids.l, trie.last_depth);
            assert!(case.expr(Metric::Instructions).eval(&env) >= ic);
            assert!(case.expr(Metric::MemAccesses).eval(&env) >= ma);
            assert!(case.expr(Metric::Cycles).eval(&env) >= cyc);
        }
    }

    #[test]
    fn depth_pcv_tracks_matched_length() {
        let (_, _, mut trie) = setup();
        trie.insert(0xFF000000, 8, 9);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let ipv = ctx.lit(0xFF123456u64, Width::W32);
        let _ = LpmTrieOps::<_>::lookup(&mut trie, &mut ctx, ipv);
        assert_eq!(trie.last_depth, 8);
        let ipv = ctx.lit(0x00000000u64, Width::W32);
        let _ = LpmTrieOps::<_>::lookup(&mut trie, &mut ctx, ipv);
        assert_eq!(trie.last_depth, 0);
    }

    #[test]
    fn model_emits_single_case() {
        let mut reg = DsRegistry::new();
        let ids = register(&mut reg, "lpm", "");
        let result = bolt_see::Explorer::new().explore(|ctx| {
            let mut model = DsModel {
                ds: ids.ds,
                bound: 0,
            };
            let pkt = ctx.packet(64);
            let ip = ctx.load(pkt, 30, 4);
            let _port = LpmTrieOps::<_>::lookup(&mut model, ctx, ip);
        });
        assert_eq!(result.paths.len(), 1);
        let calls: Vec<_> = result.paths[0]
            .events
            .iter()
            .filter(|e| matches!(e, bolt_trace::TraceEvent::Stateful(_)))
            .collect();
        assert_eq!(calls.len(), 1);
    }
}
