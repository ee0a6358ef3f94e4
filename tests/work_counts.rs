//! The workspace's exact work counts, pinned by equality against the
//! last row of `BENCH_work.json` at the repository root.
//!
//! Every count here is deterministic and machine-independent: the same
//! in debug and release, on any machine. They are:
//!
//! * `alloc.*` — allocations and reallocations, counted by the
//!   pass-through allocator below on the test's own thread:
//!   - `catalog`: a warm in-memory catalog round — for each of the 16
//!     catalog contracts (8 NFs × 2 stack levels) explore, encode the
//!     result, generate, and one unconstrained query per metric;
//!   - `chain`: a warm round of the six planned chain reports —
//!     firewall→router, router→firewall and firewall→firewall→router at
//!     both levels, each through `Pipeline::parallelize` with no store;
//!   - `reload`: a serving cache's reload of the 16 catalog records —
//!     `decode_result`, `generate`, and dropping the contract as an
//!     eviction does;
//!   - `sweep_*`: refuting four exhausted component sweeps as batch
//!     queries (see [`exhausted_sweep`] and [`exhausted_square`]);
//!   - `replay`: the data plane — one `NfRunner::play_nf` call on a
//!     warm runner, a chunk of the NAT's churning-flows trace as the
//!     benchmark's `replay_dataplane` plays it (see [`replay_chunk`]).
//!
//!   A round's first run warms the process-wide memos (the calibrated
//!   registry, interned path tags); the second is the count, and a third
//!   must repeat it.
//! * `see.*` and `solver.*` — the exploration and solver totals of the
//!   catalog round: paths, runs, interned terms, minted symbols, and
//!   every `SolverStats` counter.
//!
//! Each round — catalog, chain, reload, sweeps, replay — is one test,
//! and a sixth fails on a counter the last row holds but no round counts.
//!
//! `BENCH_work.json` holds one flat JSON object per line, oldest first;
//! its `pr` field names the change whose tree measured the row. After an
//! intended change, append a row with
//! `cargo test --release --test work_counts -- --ignored regenerate`
//! (its `pr` is the last row's plus one) and review the diff.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;

use bolt::core::{generate, InputClass, Pipeline};
use bolt::distiller::NfRunner;
use bolt::expr::{PcvAssignment, TermPool, TermRef, Width};
use bolt::lib::clock::Granularity;
use bolt::lib::registry::DsRegistry;
use bolt::nfs::nat::{AllocKind, NatConfig};
use bolt::nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::codec::{decode_result, encode_result};
use bolt::see::{ExploreStats, StackLevel};
use bolt::solver::{Solver, SolverCache, SolverCtx};
use bolt::trace::{AddressSpace, Metric};
use bolt::workloads::generators::churn_flows;
use bolt::workloads::TimedPacket;
use bolt::NetworkFunction;

/// A pass-through global allocator that counts allocations and
/// reallocations per thread: a test reads what its own thread allocated,
/// so the tests of this binary, which the harness runs on threads of
/// their own, do not count each other's work. Everything the counted
/// code does runs on the caller's thread.
struct CountingAlloc;

thread_local! {
    // A `const` initializer and no destructor: reading it allocates
    // nothing, so the allocator may use it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Only fails while the thread is being torn down, when no test counts.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout, via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations and reallocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The warm count of a round: the first run warms, the second counts,
/// and a third must repeat the count exactly.
fn warm<T>(what: &str, mut round: impl FnMut() -> T) -> (u64, T) {
    round();
    let (count, out) = allocations(&mut round);
    let (again, _) = allocations(round);
    assert_eq!(again, count, "a warm {what} round's allocations repeat");
    (count, out)
}

const LEVELS: [StackLevel; 2] = [StackLevel::NfOnly, StackLevel::FullStack];

/// Exploration totals of a catalog round.
#[derive(Default)]
struct Explored {
    stats: ExploreStats,
    paths: u64,
}

/// One contract of the catalog round, as the benchmark's in-memory round
/// makes it.
fn generate_one<N: NetworkFunction>(nf: &N, level: StackLevel, total: &mut Explored) {
    let ex = nf.explore(level);
    let payload = encode_result(&ex.result);
    let stats = &ex.result.stats;
    total.paths += ex.result.paths.len() as u64;
    total.stats.solver.merge(&stats.solver);
    total.stats.runs += stats.runs;
    total.stats.terms_interned += stats.terms_interned;
    total.stats.syms_minted += stats.syms_minted;
    let mut contract = ex.contract();
    let class = InputClass::unconstrained();
    let env = PcvAssignment::new();
    for m in Metric::ALL {
        black_box(contract.query(&class, m, &env));
    }
    black_box(payload);
}

fn catalog_round() -> Explored {
    let nat = |kind| Nat::with(NatConfig::default(), kind);
    let mut total = Explored::default();
    for level in LEVELS {
        generate_one(&Bridge::default(), level, &mut total);
        generate_one(&ExampleRouter::default(), level, &mut total);
        generate_one(&Firewall::default(), level, &mut total);
        generate_one(&LoadBalancer::default(), level, &mut total);
        generate_one(&LpmRouter::default(), level, &mut total);
        generate_one(&nat(AllocKind::A), level, &mut total);
        generate_one(&nat(AllocKind::B), level, &mut total);
        generate_one(&StaticRouter::default(), level, &mut total);
    }
    total
}

fn chains() -> [Pipeline<'static>; 3] {
    [
        Pipeline::new()
            .push(Firewall::default())
            .push(StaticRouter::default()),
        Pipeline::new()
            .push(StaticRouter::default())
            .push(Firewall::default()),
        Pipeline::new()
            .push(Firewall::default())
            .push(Firewall::default())
            .push(StaticRouter::default()),
    ]
}

/// The six planned reports of the benchmark's `gen_chain` round.
fn chain_round(chains: &[Pipeline<'_>]) {
    for chain in chains {
        for level in LEVELS {
            let report = chain.parallelize(level).expect("a non-empty chain");
            assert!(report.plan.is_some(), "parallelize attaches a plan");
            black_box(report);
        }
    }
}

/// A stored record and the registry its stateful calls resolve against.
struct Record {
    reg: Arc<DsRegistry>,
    payload: Vec<u8>,
}

fn record<N: NetworkFunction>(nf: &N, level: StackLevel) -> Record {
    let ex = nf.explore(level);
    Record {
        payload: encode_result(&ex.result),
        reg: ex.reg,
    }
}

fn records() -> Vec<Record> {
    let nat = |kind| Nat::with(NatConfig::default(), kind);
    let mut records = Vec::new();
    for level in LEVELS {
        records.push(record(&Bridge::default(), level));
        records.push(record(&ExampleRouter::default(), level));
        records.push(record(&Firewall::default(), level));
        records.push(record(&LoadBalancer::default(), level));
        records.push(record(&LpmRouter::default(), level));
        records.push(record(&nat(AllocKind::A), level));
        records.push(record(&nat(AllocKind::B), level));
        records.push(record(&StaticRouter::default(), level));
    }
    records
}

/// One reload of every record, as a serving cache's miss makes it.
fn reload_round(records: &[Record]) {
    for r in records {
        let result = decode_result(&r.payload).expect("a record just encoded decodes");
        drop(black_box(generate(&r.reg, result)));
    }
}

/// The shape `gen_chain` spends its time on — the router's IP-options
/// loop over the version/IHL byte meeting the firewall's header-length
/// check: `!((x & 15) < 5)`, `k < ((x & 15) - 5)` for k = 0..=10, closed
/// by `(x & 15) <= 5`. No value of `x` satisfies it. Every read of `x` is
/// `x & 15`, so the sweep visits 16 of the 256 values; `narrowed` adds
/// `x < 16`, which reads all of `x` but leaves the same 16: both forms
/// refute in 16 candidates.
fn exhausted_sweep(narrowed: bool) -> (TermPool, Vec<TermRef>) {
    let mut p = TermPool::new();
    let x = p.fresh_sym("pkt@14:1", Width::W8);
    let c15 = p.constant(15, Width::W8);
    let c5 = p.constant(5, Width::W8);
    let ihl = p.and(x, c15);
    let short = p.ult(ihl, c5);
    let mut cs = vec![p.not(short)];
    let options = p.sub(ihl, c5);
    for k in 0..=10 {
        let k = p.constant(k, Width::W8);
        cs.push(p.ult(k, options));
    }
    cs.push(p.ule(ihl, c5));
    if narrowed {
        let c16 = p.constant(16, Width::W8);
        cs.push(p.ult(x, c16));
    }
    (p, cs)
}

/// Two swept symbols: `x, y < side` with `k < x + y` for k = 0..=10,
/// closed by `x + y == 31` — out of reach for any side up to 16, and no
/// mask narrows the sweep, so all `side * side` candidates are visited, x
/// varying fastest.
fn exhausted_square(side: u64) -> (TermPool, Vec<TermRef>) {
    let mut p = TermPool::new();
    let x = p.fresh_sym("pkt@14:1", Width::W8);
    let y = p.fresh_sym("pkt@15:1", Width::W8);
    let side = p.constant(side, Width::W8);
    let sum = p.add(x, y);
    let mut cs = vec![p.ult(x, side), p.ult(y, side)];
    for k in 0..=10 {
        let k = p.constant(k, Width::W8);
        cs.push(p.ult(k, sum));
    }
    let c31 = p.constant(31, Width::W8);
    cs.push(p.eq(sum, c31));
    (p, cs)
}

/// Allocations a batch query makes to refute an exhausted sweep.
fn allocations_to_refute((p, cs): (TermPool, Vec<TermRef>)) -> u64 {
    let (allocations, feasible) = allocations(|| Solver::default().is_feasible(&p, &cs));
    assert!(
        !feasible,
        "no candidate satisfies the list: the sweep is exhausted"
    );
    allocations
}

/// Packets per `play_nf` call, as `replay_dataplane` times them.
const CHUNK: usize = 512;

/// The allocations of one `play_nf` call on a warm runner: fresh NAT-A
/// state and a fresh runner play the trace's first chunk, and the
/// second chunk is the count. The NAT, trace shape, clock and stack
/// level are those of `replay_dataplane`'s NAT segment.
fn replay_chunk(nat: &Nat, packets: &[TimedPacket]) -> u64 {
    let ids = nat.register(&mut DsRegistry::new());
    let mut state = nat.state(ids, &mut AddressSpace::new());
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    let (warm, counted) = packets.split_at(CHUNK);
    runner.play_nf(nat, &mut state, warm);
    allocations(|| runner.play_nf(nat, &mut state, counted)).0
}

/// A round of counted work: the counters it fills, in the order a row
/// lists them, and the function that counts them in that order.
struct Round {
    counters: &'static [&'static str],
    count: fn() -> Vec<u64>,
}

const CATALOG: Round = Round {
    counters: &[
        "alloc.catalog",
        "see.paths",
        "see.runs",
        "see.terms_interned",
        "see.syms_minted",
        "solver.checks_requested",
        "solver.queries",
        "solver.memo_hits",
        "solver.witness_hits",
        "solver.unsat_by_propagation",
        "solver.completion_searches",
        "solver.model_evictions",
    ],
    count: || {
        let (catalog, explored) = warm("catalog", catalog_round);
        let (stats, solver) = (explored.stats, explored.stats.solver);
        vec![
            catalog,
            explored.paths,
            stats.runs,
            stats.terms_interned,
            stats.syms_minted,
            solver.checks_requested,
            solver.solver_queries,
            solver.memo_hits,
            solver.witness_reuse_hits,
            solver.unsat_by_propagation,
            solver.completion_searches,
            solver.model_evictions,
        ]
    },
};

const CHAIN: Round = Round {
    counters: &["alloc.chain"],
    count: || {
        let chains = chains();
        vec![warm("chain", || chain_round(&chains)).0]
    },
};

const RELOAD: Round = Round {
    counters: &["alloc.reload"],
    count: || {
        let records = records();
        assert_eq!(records.len(), 16);
        vec![warm("reload", || reload_round(&records)).0]
    },
};

const SWEEPS: Round = Round {
    counters: &[
        "alloc.sweep_narrowed",
        "alloc.sweep_masked",
        "alloc.sweep_square_4",
        "alloc.sweep_square_16",
    ],
    count: || {
        vec![
            allocations_to_refute(exhausted_sweep(true)),
            allocations_to_refute(exhausted_sweep(false)),
            allocations_to_refute(exhausted_square(4)),
            allocations_to_refute(exhausted_square(16)),
        ]
    },
};

const REPLAY: Round = Round {
    counters: &["alloc.replay"],
    count: || {
        let nat = Nat::with(
            NatConfig {
                ttl_ns: 500_000,
                ..NatConfig::default()
            },
            AllocKind::A,
        );
        let packets = churn_flows(0x4A, 2 * CHUNK, 256, 4, 20_000, 0);
        replay_chunk(&nat, &packets);
        let count = replay_chunk(&nat, &packets);
        assert_eq!(
            replay_chunk(&nat, &packets),
            count,
            "a warm replay chunk's allocations repeat"
        );
        vec![count]
    },
};

/// Every round, in the order a row lists them.
const ROUNDS: [Round; 5] = [CATALOG, CHAIN, RELOAD, SWEEPS, REPLAY];

/// A round's counters and this tree's counts of them.
fn counted(round: &Round) -> Vec<(&'static str, u64)> {
    let counts = (round.count)();
    assert_eq!(counts.len(), round.counters.len(), "one count per counter");
    round.counters.iter().copied().zip(counts).collect()
}

const TRAJECTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_work.json");

/// The fields of one row: a flat JSON object of integers.
fn parse_row(line: &str) -> Vec<(String, u64)> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or_else(|| panic!("a row is one JSON object: {line}"));
    body.split(',')
        .map(|field| {
            let (key, value) = field
                .split_once(':')
                .unwrap_or_else(|| panic!("a field is \"name\": value: {field}"));
            let value = value
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("a field's value is an integer: {field}"));
            (key.trim().trim_matches('"').to_string(), value)
        })
        .collect()
}

/// The trajectory's last row.
fn last_row() -> Vec<(String, u64)> {
    let text = fs::read_to_string(TRAJECTORY).expect("BENCH_work.json is readable");
    let line = text
        .lines()
        .rfind(|l| !l.trim().is_empty())
        .expect("BENCH_work.json has a row");
    parse_row(line)
}

/// A row's value of one field.
fn field(row: &[(String, u64)], name: &str) -> Option<u64> {
    row.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
}

/// Compares a round's counts with the last row, by equality.
fn check(round: &Round) {
    let row = last_row();
    let mismatches: Vec<String> = counted(round)
        .into_iter()
        .filter_map(|(name, count)| match field(&row, name) {
            Some(v) if v == count => None,
            Some(v) => Some(format!(
                "{name}: the last row has {v}, this tree counts {count}"
            )),
            None => Some(format!(
                "{name}: not in the last row, this tree counts {count}"
            )),
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "work counts differ from the last row of BENCH_work.json:\n  {}\n\
         after an intended change, append a row with \
         `cargo test --release --test work_counts -- --ignored regenerate`",
        mismatches.join("\n  ")
    );
}

#[test]
fn a_warm_catalog_round_counts_what_the_last_row_says() {
    check(&CATALOG);
}

#[test]
fn a_warm_chain_planning_round_allocates_what_the_last_row_says() {
    check(&CHAIN);
}

#[test]
fn reloading_the_catalog_allocates_what_the_last_row_says() {
    check(&RELOAD);
}

#[test]
fn exhausted_sweeps_allocate_what_the_last_row_says() {
    check(&SWEEPS);
}

#[test]
fn a_warm_replay_chunk_allocates_what_the_last_row_says() {
    check(&REPLAY);
}

#[test]
fn the_last_row_holds_no_counter_that_nothing_counts() {
    let stray: Vec<String> = last_row()
        .into_iter()
        .filter(|(name, _)| {
            name != "pr" && !ROUNDS.iter().any(|r| r.counters.contains(&name.as_str()))
        })
        .map(|(name, v)| format!("{name}: the last row has {v}, nothing counts it"))
        .collect();
    assert!(stray.is_empty(), "{}", stray.join("\n"));
}

/// Appends this tree's counts as a new row, numbered one past the last.
#[test]
#[ignore = "appends a row to BENCH_work.json"]
fn regenerate() {
    let pr = field(&last_row(), "pr").expect("the last row names its pr");
    let fields: Vec<String> = ROUNDS
        .iter()
        .flat_map(counted)
        .map(|(name, count)| format!("\"{name}\": {count}"))
        .collect();
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(TRAJECTORY)
        .expect("BENCH_work.json opens for appending");
    writeln!(file, "{{\"pr\": {}, {}}}", pr + 1, fields.join(", ")).expect("the row is written");
}

#[test]
fn an_exhausted_sweep_allocates_nothing_per_candidate() {
    // One more constraint costs a fixed handful of allocations; sixteen
    // times the candidates (the unmasked square) must cost none.
    let few = allocations_to_refute(exhausted_sweep(true));
    let all = allocations_to_refute(exhausted_sweep(false));
    assert!(
        few.abs_diff(all) <= 8,
        "{few} allocations to sweep x < 16, {all} to sweep x & 15"
    );
    let few = allocations_to_refute(exhausted_square(4));
    let all = allocations_to_refute(exhausted_square(16));
    assert_eq!(
        few, all,
        "{few} allocations to sweep 4 x 4 candidates, {all} to sweep 16 x 16"
    );
}

#[test]
fn a_checkpoint_allocates_nothing_after_the_first() {
    // A few constraints that leave something in every part of the
    // propagation state: a union, a binding, intervals, a disequality and
    // a residual atom; then a live model to copy with them.
    let mut p = TermPool::new();
    let x = p.fresh_sym("x", Width::W16);
    let y = p.fresh_sym("y", Width::W16);
    let z = p.fresh_sym("z", Width::W16);
    let (c3, c7, c100) = (
        p.constant(3, Width::W16),
        p.constant(7, Width::W16),
        p.constant(100, Width::W16),
    );
    let sum = p.add(y, z);
    let cs = [
        p.eq(x, y),
        p.ult(x, c100),
        p.ne(y, c3),
        p.eq(z, c7),
        p.eq(sum, c100),
    ];
    let solver = Solver::default();
    let mut ctx = SolverCtx::new(&solver);
    for c in cs {
        ctx.assert_term(&p, c);
    }
    let mut cache = SolverCache::new();
    assert!(ctx.current_feasible(&p, &mut cache));
    assert!(
        ctx.model().is_some(),
        "a live model for the checkpoint to copy"
    );
    // The warm-up pair sizes the frame.
    ctx.push();
    ctx.pop();
    let (allocations, ()) = allocations(|| {
        for _ in 0..64 {
            ctx.push();
            ctx.pop();
        }
    });
    assert_eq!(
        allocations, 0,
        "64 push/pop pairs after the first made {allocations} allocations"
    );
    assert_eq!((ctx.depth(), ctx.constraints()), (0, &cs[..]));
    assert!(ctx.model().is_some_and(|m| m.satisfies(&p, &cs)));
}
