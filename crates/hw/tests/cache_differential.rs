//! The stamped [`CacheSim`] against the implementation it replaced, kept
//! here as the trivially correct model: one `Vec` of line addresses per
//! set, most recent last, `remove` + `push` on every touch. Any
//! interleaving of operations must give the same answers and residency,
//! at every way count the models use; and the two hardware models,
//! rebuilt here on the model cache exactly as they stood when they still
//! summed `f64` cycles, must accumulate bit-identical cycles on arbitrary
//! event streams. The testbed's cycle count is exact: whole quarter
//! cycles, whatever order the instructions between memory events arrive
//! in.

use bolt_hw::{CacheParams, CacheSim, ConservativeModel, CostTable, TestbedModel};
use bolt_trace::{InstrClass, TraceEvent, Tracer};
use proptest::prelude::*;

/// The reference: `sets[s]` holds up to `ways` line addresses, most
/// recent last.
struct RefCache {
    params: CacheParams,
    sets: Vec<Vec<u64>>,
}

impl RefCache {
    fn new(params: CacheParams) -> Self {
        RefCache {
            params,
            sets: vec![Vec::new(); params.sets() as usize],
        }
    }

    fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        let line = addr / self.params.line_size as u64;
        (line % self.sets.len() as u64) as usize
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.params.line_size as u64 * self.params.line_size as u64
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let si = self.set_of(addr);
        let set = &mut self.sets[si];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.push(line);
            true
        } else {
            if set.len() == self.params.ways as usize {
                set.remove(0);
            }
            set.push(line);
            false
        }
    }

    fn install(&mut self, addr: u64) {
        let line = self.line_of(addr);
        let si = self.set_of(addr);
        let set = &mut self.sets[si];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.push(line);
            return;
        }
        if set.len() == self.params.ways as usize {
            set.remove(0);
        }
        set.push(line);
    }

    fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.sets[self.set_of(addr)].contains(&line)
    }
}

fn small(sets: u32, ways: u32) -> CacheParams {
    CacheParams {
        size: sets * ways * 64,
        ways,
        line_size: 64,
    }
}

/// 2 ways × 4 sets, direct-mapped, and the real L1D, L2 and L3.
fn geometries() -> [CacheParams; 5] {
    [
        small(4, 2),
        small(4, 1),
        CacheParams::l1d(),
        CacheParams::l2(),
        CacheParams::l3(),
    ]
}

/// A set count off a power of two has no set-index path: the cache maps
/// a line to its set by masking.
#[test]
#[should_panic(expected = "set count must be a power of two")]
fn three_sets_are_refused() {
    CacheSim::<2>::new(small(3, 2));
}

/// The way count is the type's: a geometry with another is refused.
#[test]
#[should_panic(expected = "geometry has 16 ways, not 8")]
fn a_geometry_must_match_the_way_count() {
    CacheSim::<8>::new(CacheParams::l3());
}

/// A full set whose most recent line is not its last-filled way evicts
/// its least recent line, and a reset — which clears only each set's
/// length and MRU tag — leaves none of the old lines visible.
#[test]
fn reset_leaves_no_stale_way_after_an_eviction() {
    const W: usize = 8;
    let p = small(4, W as u32);
    let mut c = CacheSim::<W>::new(p);
    let mut r = RefCache::new(p);
    let line = |round: u64| addr_of(p, round, 1, 0);
    for round in 0..W as u64 {
        assert!(!c.access(line(round)));
        assert!(!r.access(line(round)));
    }
    // Way 2 becomes the most recent; way 0 is now the least.
    assert!(c.access(line(2)) && r.access(line(2)));
    assert!(!c.access(line(W as u64)) && !r.access(line(W as u64)));
    assert!(!c.contains(line(0)) && !r.contains(line(0)));
    for round in 1..=W as u64 {
        assert!(
            c.contains(line(round)) && r.contains(line(round)),
            "round {round}"
        );
    }
    c.reset();
    for round in 0..=W as u64 {
        assert!(!c.contains(line(round)), "round {round} survived the reset");
    }
    for round in [W as u64, 2, 0, 1] {
        assert!(!c.access(line(round)), "round {round} hit after the reset");
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Install(u64),
    Contains(u64),
    Reset,
}

/// Lines drawn from `ROUNDS` rounds over `SETS` neighbouring sets, so
/// that even the 16-way L3 overflows its sets and evicts.
const ROUNDS: u64 = 24;
const SETS: u64 = 4;

fn addr_of(p: CacheParams, round: u64, set: u64, offset: u64) -> u64 {
    0x1000_0000 + (round * p.sets() as u64 + set) * p.line_size as u64 + offset
}

fn arb_op() -> impl Strategy<Value = (u8, u64, u64, u64)> {
    (0u8..32, 0..ROUNDS, 0..SETS, 0u64..64)
}

fn op_of(p: CacheParams, (kind, round, set, offset): (u8, u64, u64, u64)) -> Op {
    let addr = addr_of(p, round, set, offset);
    match kind {
        0 => Op::Reset,
        1..=4 => Op::Contains(addr),
        5..=12 => Op::Install(addr),
        _ => Op::Access(addr),
    }
}

/// The pre-rewrite [`ConservativeModel`], on the reference cache.
struct RefConservative {
    l1: RefCache,
    cost: CostTable,
    cycles: f64,
}

impl RefConservative {
    fn new() -> Self {
        RefConservative {
            l1: RefCache::new(CacheParams::l1d()),
            cost: CostTable::conservative(),
            cycles: 0.0,
        }
    }

    fn mem_access(&mut self, addr: u64, bytes: u8) {
        let line = self.l1.params.line_size as u64;
        let first = addr / line;
        let last = (addr + bytes.max(1) as u64 - 1) / line;
        for l in first..=last {
            if self.l1.access(l * line) {
                self.cycles += self.cost.l1_hit;
            } else {
                self.cycles += self.cost.mem_latency;
            }
        }
    }
}

impl Tracer for RefConservative {
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Instr { class, n } => {
                self.cycles += self.cost.class_cost(class) * n as f64;
            }
            TraceEvent::MemRead { addr, bytes, .. } => {
                self.cycles += self.cost.class_cost(InstrClass::Load);
                self.mem_access(addr, bytes);
            }
            TraceEvent::MemWrite { addr, bytes } => {
                self.cycles += self.cost.class_cost(InstrClass::Store);
                self.mem_access(addr, bytes);
            }
            _ => {}
        }
    }
}

/// The pre-rewrite [`TestbedModel`], on the reference cache, with the
/// default Xeon-like parameters. It still re-installs the line in every
/// level that missed; the model leaves that out, since the missing
/// access has already installed it there.
struct RefTestbed {
    l1: RefCache,
    l2: RefCache,
    l3: RefCache,
    cost: CostTable,
    cycles: f64,
    last_miss_end: f64,
    outstanding: u32,
    streams: [u64; 8],
    stream_next: usize,
}

impl RefTestbed {
    const PREFETCH_DEGREE: u64 = 2;
    const MLP_DEGREE: u32 = 10;
    const OVERLAP_INCREMENT: f64 = 24.0;
    const MLP_WINDOW: f64 = 48.0;
    const L1_HIT_INDEPENDENT: f64 = 1.0;

    fn new() -> Self {
        RefTestbed {
            l1: RefCache::new(CacheParams::l1d()),
            l2: RefCache::new(CacheParams::l2()),
            l3: RefCache::new(CacheParams::l3()),
            cost: CostTable::testbed(),
            cycles: 0.0,
            last_miss_end: f64::NEG_INFINITY,
            outstanding: 0,
            streams: [u64::MAX; 8],
            stream_next: 0,
        }
    }

    fn hierarchy_latency(&mut self, line_addr: u64) -> f64 {
        if self.l1.access(line_addr) {
            return self.cost.l1_hit;
        }
        if self.l2.access(line_addr) {
            self.l1.install(line_addr);
            return self.cost.l2_hit;
        }
        if self.l3.access(line_addr) {
            self.l1.install(line_addr);
            self.l2.install(line_addr);
            return self.cost.l3_hit;
        }
        self.l1.install(line_addr);
        self.l2.install(line_addr);
        self.l3.install(line_addr);
        self.cost.mem_latency
    }

    fn detect_stream(&mut self, line: u64) -> bool {
        let hit = self
            .streams
            .iter()
            .any(|&s| s != u64::MAX && (line == s + 1 || line == s + 2));
        self.streams[self.stream_next] = line;
        self.stream_next = (self.stream_next + 1) % self.streams.len();
        hit
    }

    fn mem_access(&mut self, addr: u64, bytes: u8, dep: bool, is_store: bool) {
        let line_size = self.l1.params.line_size as u64;
        let first = addr / line_size;
        let last = (addr + bytes.max(1) as u64 - 1) / line_size;
        for l in first..=last {
            let line_addr = l * line_size;
            let streaming = self.detect_stream(l);
            if streaming {
                for k in 1..=Self::PREFETCH_DEGREE {
                    let pf = (l + k) * line_size;
                    self.l1.install(pf);
                    self.l2.install(pf);
                    self.l3.install(pf);
                }
            }
            let lat = self.hierarchy_latency(line_addr);
            let missed = lat >= self.cost.mem_latency;
            if missed {
                if is_store {
                    self.cycles += self.cost.store_buffer;
                    continue;
                }
                let now = self.cycles;
                let close = now - self.last_miss_end <= Self::MLP_WINDOW;
                if !dep && close && self.outstanding < Self::MLP_DEGREE {
                    self.outstanding += 1;
                    self.cycles += Self::OVERLAP_INCREMENT;
                } else {
                    self.outstanding = 1;
                    self.cycles += lat;
                }
                self.last_miss_end = self.cycles;
            } else {
                self.cycles += if is_store {
                    self.cost.store_buffer
                } else if !dep && streaming && lat <= self.cost.l1_hit {
                    Self::L1_HIT_INDEPENDENT
                } else {
                    lat
                };
            }
        }
    }
}

impl Tracer for RefTestbed {
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Instr { class, n } => {
                self.cycles += self.cost.class_cost(class) * n as f64;
            }
            TraceEvent::MemRead { addr, bytes, dep } => {
                self.cycles += self.cost.class_cost(InstrClass::Load);
                self.mem_access(addr, bytes, dep, false);
            }
            TraceEvent::MemWrite { addr, bytes } => {
                self.cycles += self.cost.class_cost(InstrClass::Store);
                self.mem_access(addr, bytes, false, true);
            }
            _ => {}
        }
    }
}

/// The `conservative_bounds_testbed` generator (`tests/hw_properties.rs`)
/// with one more address shape: besides the dense 512 KiB window, a
/// 128 KiB stride that piles lines onto one set of every level, so L1, L2
/// and L3 all evict; accesses may straddle a line.
#[derive(Debug, Clone)]
enum Ev {
    Instr(u8, u8),
    Read(u64, u8, bool),
    Write(u64, u8),
}

fn arb_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u16>().prop_map(|a| 0x1_0000 + a as u64 * 8),
        (0u64..40, 0u64..130).prop_map(|(k, off)| 0x100_0000 + k * 128 * 1024 + off),
    ]
}

fn arb_ev() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u8..10, 1u8..8).prop_map(|(c, n)| Ev::Instr(c, n)),
        (arb_addr(), 1u8..=8, any::<bool>()).prop_map(|(a, b, d)| Ev::Read(a, b, d)),
        (arb_addr(), 1u8..=8).prop_map(|(a, b)| Ev::Write(a, b)),
    ]
}

fn feed(m: &mut dyn Tracer, ev: &Ev) {
    match *ev {
        Ev::Instr(c, n) => m.instr(InstrClass::ALL[c as usize % 10], n as u32),
        Ev::Read(a, b, true) => m.mem_read_dep(a, b),
        Ev::Read(a, b, false) => m.mem_read(a, b),
        Ev::Write(a, b) => m.mem_write(a, b),
    }
}

/// The testbed's total over `evs`, as an `f64`.
fn testbed_cycles(evs: &[Ev]) -> f64 {
    let mut m = TestbedModel::new();
    for ev in evs {
        feed(&mut m, ev);
    }
    m.cycles_f64()
}

/// An empty stream slot matches no line, at either end of the address
/// space: the first lines a cold testbed touches, 0 and 1, follow no
/// stream, and neither do lines just below the top.
#[test]
fn stream_detection_agrees_at_the_ends_of_the_address_space() {
    let top = u64::MAX - 0x3ff;
    let evs: Vec<Ev> = [
        0x0,
        0x40,
        0x80,
        0x0,
        top,
        top + 0x40,
        top + 0x100,
        top + 0x80,
    ]
    .iter()
    .flat_map(|&a| [Ev::Read(a, 8, false), Ev::Instr(0, 3), Ev::Write(a, 8)])
    .collect();
    let (mut test, mut old_test) = (TestbedModel::new(), RefTestbed::new());
    for ev in &evs {
        feed(&mut test, ev);
        feed(&mut old_test, ev);
        assert_eq!(
            test.cycles_f64().to_bits(),
            old_test.cycles.to_bits(),
            "{ev:?}"
        );
    }
}

/// Shuffle every run of `Instr` events that sits between two memory
/// events (a seeded Fisher-Yates), leaving the memory events in place.
fn shuffle_instr_runs(evs: &mut [Ev], mut seed: u64) {
    for run in evs.split_mut(|ev| !matches!(ev, Ev::Instr(..))) {
        for i in (1..run.len()).rev() {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            run.swap(i, (seed >> 33) as usize % (i + 1));
        }
    }
}

/// Replays `ops` on a `W`-way [`CacheSim`] and the reference, comparing
/// answers and residency after every step.
fn matches_the_reference<const W: usize>(p: CacheParams, ops: &[(u8, u64, u64, u64)]) {
    let mut new = CacheSim::<W>::new(p);
    let mut old = RefCache::new(p);
    for &raw in ops {
        let op = op_of(p, raw);
        match op {
            Op::Access(a) => assert_eq!(new.access(a), old.access(a), "{:?}", op),
            Op::Install(a) => {
                new.install(a);
                old.install(a);
            }
            Op::Contains(a) => assert_eq!(new.contains(a), old.contains(a), "{:?}", op),
            Op::Reset => {
                new.reset();
                old.reset();
            }
        }
        for round in 0..ROUNDS {
            for set in 0..SETS {
                let a = addr_of(p, round, set, 0);
                assert_eq!(new.contains(a), old.contains(a), "{:#x} after {:?}", a, op);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same return values, same residency — after every step, on every
    /// geometry.
    #[test]
    fn flat_cache_matches_the_reference(
        geometry in 0usize..5,
        ops in prop::collection::vec(arb_op(), 1..300),
    ) {
        let p = geometries()[geometry];
        match p.ways {
            1 => matches_the_reference::<1>(p, &ops),
            2 => matches_the_reference::<2>(p, &ops),
            8 => matches_the_reference::<8>(p, &ops),
            16 => matches_the_reference::<16>(p, &ops),
            w => unreachable!("no {w}-way geometry"),
        }
    }

    /// Both models accumulate the same cycles as before the rewrite, to
    /// the bit.
    #[test]
    fn models_are_bit_identical_to_the_reference(
        evs in prop::collection::vec(arb_ev(), 1..1500),
    ) {
        let (mut cons, mut old_cons) = (ConservativeModel::new(), RefConservative::new());
        let (mut test, mut old_test) = (TestbedModel::new(), RefTestbed::new());
        for ev in &evs {
            feed(&mut cons, ev);
            feed(&mut old_cons, ev);
            feed(&mut test, ev);
            feed(&mut old_test, ev);
            prop_assert_eq!(cons.cycles(), old_cons.cycles.ceil() as u64, "{:?}", ev);
            prop_assert_eq!(test.cycles_f64().to_bits(), old_test.cycles.to_bits(), "{:?}", ev);
            prop_assert_eq!(test.cycles(), old_test.cycles.round() as u64, "{:?}", ev);
        }
    }

    /// Every testbed cost is a whole number of quarter cycles, so every
    /// partial sum is exact in an `f64` (below 2^51 quarters) and no order
    /// of additions rounds anything: instructions between two memory
    /// events, where they change no cache or MLP state, may come in any
    /// order and the total is the same to the bit.
    #[test]
    fn testbed_cycles_are_exact_quarters_in_any_instruction_order(
        evs in prop::collection::vec(arb_ev(), 1..1500),
        seed in any::<u64>(),
    ) {
        let cycles = testbed_cycles(&evs);
        prop_assert_eq!((cycles * 4.0).fract(), 0.0, "{} cycles", cycles);
        let mut permuted = evs.clone();
        shuffle_instr_runs(&mut permuted, seed);
        prop_assert_eq!(testbed_cycles(&permuted).to_bits(), cycles.to_bits());
    }
}
