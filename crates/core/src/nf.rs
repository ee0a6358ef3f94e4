//! The unified network-function abstraction.
//!
//! The paper promises one workflow for *any* NF: symbolically execute the
//! analysis build against data-structure models, generate a contract
//! (Algorithm 2), then query it per input class. [`NetworkFunction`]
//! captures the pieces an NF must supply — registration of its stateful
//! parts, concrete state construction, and the packet-processing body in
//! both execution modes — and provides the whole pipeline on top:
//! [`NetworkFunction::explore`] and [`Exploration::contract`] are blanket
//! implementations, so every NF gets Algorithm 2 for free.
//!
//! The fluent entrypoint reads the way the paper describes the workflow:
//!
//! ```ignore
//! let mut contract = Bolt::nf(Bridge::default())
//!     .explore(StackLevel::FullStack)
//!     .contract();
//! let q = contract.query(&broadcast_frames, Metric::Instructions, &env);
//! ```
//!
//! Exploration runs on one thread unless the caller passes a count
//! ([`Bolt::threads`], [`NetworkFunction::explore_threads`],
//! [`crate::store::StoreExt::get_or_explore_threads`]); output is
//! bit-identical at any count.
//!
//! Chains (§3.4) compose over the same abstraction: [`crate::chain::Pipeline`]
//! takes heterogeneous NFs as trait objects and pairwise-composes their
//! contracts.
//!
//! On the concrete path, [`NetworkFunction::process_batch`] processes a
//! burst of mbufs per call (DPDK-style `rte_rx_burst` loops). The default
//! implementation loops over [`NetworkFunction::process`]; NFs can
//! override it to amortise per-burst work (prefetching, batched expiry).

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use bolt_expr::{PcvAssignment, PerfExpr};
use bolt_see::{ConcreteCtx, ExplorationResult, Explorer, SymbolicCtx};
use bolt_solver::Solver;
use bolt_store::Fingerprint;
use bolt_trace::{AddressSpace, Metric};
use dpdk_sim::{sym_process_packet, Mbuf, StackLevel};
use nf_lib::clock::Clock;
use nf_lib::registry::DsRegistry;

pub use bolt_store::{ContractStore, Fingerprinter};

use crate::classes::InputClass;
use crate::contract::{generate, NfContract, PathContract, QueryResult};
use crate::store::StoreExt;

/// A network function: configuration plus the Vigor-style split into
/// stateful library parts (registered, modelled, contracted) and
/// stateless packet logic (written once, executed symbolically and
/// concretely).
///
/// Implementors are cheap *descriptors* — configuration bundles like
/// `Bridge { cfg }` — not the runtime state itself; state is built on
/// demand by [`NetworkFunction::state`].
pub trait NetworkFunction {
    /// Handle to the NF's registered stateful parts (data-structure ids
    /// and PCVs). `()` for stateless NFs. `Sync` because exploration
    /// worker threads share the handle while re-executing the NF body;
    /// `Send` because the library keeps one calibrated copy per
    /// configuration for the whole process, whichever thread made it.
    type Ids: Copy + Send + Sync + 'static;

    /// Concrete instrumented state (the production build's data
    /// structures).
    type State;

    /// Short name, used for diagnostics and chain composition labels.
    fn name(&self) -> &'static str;

    /// Register the NF's stateful parts and their method contracts.
    ///
    /// Registration calibrates the library data structures (the
    /// automated stand-in for §3.3's expert-written contracts), so the
    /// library calls it once per configuration and process and shares
    /// that one registry (an [`Arc`], never a copy) with every later
    /// exploration, contract and store hit. It must therefore be a pure
    /// function of the descriptor — of the fields
    /// [`NetworkFunction::fingerprint_config`] hashes — and of nothing
    /// else. Calling it directly always calibrates afresh, into the
    /// caller's own registry.
    fn register(&self, reg: &mut DsRegistry) -> Self::Ids;

    /// Build the concrete state bundle for production runs.
    fn state(&self, ids: Self::Ids, aspace: &mut AddressSpace) -> Self::State;

    /// Process one packet concretely (the production build).
    fn process(
        &self,
        ctx: &mut ConcreteCtx<'_>,
        state: &mut Self::State,
        clock: &Clock,
        mbuf: Mbuf,
    );

    /// Process one packet symbolically (the analysis build): instantiate
    /// the data-structure models for `ids` and run the same stateless
    /// logic. Called once per explored path.
    fn sym_process(&self, ctx: &mut SymbolicCtx<'_>, ids: Self::Ids, mbuf: Mbuf);

    /// Symbolic packet length for the analysis build. NFs that walk
    /// variable-length headers (IP options) need room beyond the 64-byte
    /// default.
    fn packet_len(&self) -> u64 {
        64
    }

    /// Feed every configuration field that can change exploration output
    /// into the contract-store fingerprint. The NF name, packet length,
    /// and stack level are hashed by the caller
    /// ([`crate::store::store_key`]); descriptors add their own config on
    /// top. Required: the same key selects the stored record and the
    /// process's calibrated registry, so a configuration-free descriptor
    /// says so with an empty body.
    fn fingerprint_config(&self, fp: &mut Fingerprinter);

    /// Process a burst of received packets (the DPDK `rx_burst` shape).
    ///
    /// The default is the plain per-packet loop over
    /// [`NetworkFunction::process`], emitting one verdict per mbuf in
    /// order — the invariant overriding implementations must preserve
    /// (pinned by the parity test in `tests/nf_api.rs`).
    fn process_batch(
        &self,
        ctx: &mut ConcreteCtx<'_>,
        state: &mut Self::State,
        clock: &Clock,
        mbufs: &mut [Mbuf],
    ) {
        for mbuf in mbufs.iter() {
            self.process(ctx, state, clock, *mbuf);
        }
    }

    /// Run the analysis build: enumerate every feasible path of this NF
    /// at the given stack level (Algorithm 2, lines 2–3). Provided for
    /// every NF. Sequential; [`NetworkFunction::explore_threads`] takes a
    /// thread count, and output is bit-identical at any count.
    fn explore(&self, level: StackLevel) -> Exploration<Self::Ids>
    where
        Self: Sized + Sync,
    {
        self.explore_threads(level, 1)
    }

    /// [`NetworkFunction::explore`] with an explicit thread count
    /// ([`Explorer::threads`]: 1 spawns nothing). Exploration output is
    /// bit-identical at any count.
    fn explore_threads(&self, level: StackLevel, threads: usize) -> Exploration<Self::Ids>
    where
        Self: Sized + Sync,
    {
        let (reg, ids) = registered(self);
        let mut explorer = Explorer::new();
        explorer.threads = threads;
        let result = explorer.explore(|ctx| {
            sym_process_packet(ctx, level, self.packet_len(), |ctx, mbuf| {
                self.sym_process(ctx, ids, mbuf);
            });
        });
        Exploration {
            reg,
            ids,
            level,
            result,
            cached: false,
            record_bytes: None,
        }
    }

    /// Explore and generate in one step (`explore(level).contract()`).
    fn contract(&self, level: StackLevel) -> Contract<Self::Ids>
    where
        Self: Sized + Sync,
    {
        self.explore(level).contract()
    }
}

/// Configurations the process keeps a calibrated registry for. On
/// overflow everything is dropped and the memo starts again: a hit is
/// only ever a saving, and an entry retains up to ≈ 28 KB (the NAT's;
/// every `PerfExpr` is a B-tree) for as long as the memo or any
/// exploration or contract shares it.
const REGISTERED_CAP: usize = 64;

type Registered = BTreeMap<(TypeId, Fingerprint), (Arc<DsRegistry>, Box<dyn Any + Send>)>;

static REGISTERED: Mutex<Registered> = Mutex::new(BTreeMap::new());

/// The NF's registry and registered-state handle — the only way the
/// library obtains them. [`NetworkFunction::register`] runs once per
/// configuration and process; afterwards every caller shares the
/// calibrated registry out of a process-wide memo: a hit costs a
/// reference count, not a copy of every case expression and name.
///
/// The key is the configuration identity the contract store already
/// trusts (name + [`NetworkFunction::fingerprint_config`]; a field that
/// misses there already serves a stale exploration from the store), plus
/// the handle's type so the downcast below cannot fail. A miss
/// calibrates outside the lock — racing threads each calibrate and
/// insert equal values — and entries are inserted whole, so a poisoned
/// memo is still a valid memo.
pub(crate) fn registered<N: NetworkFunction>(nf: &N) -> (Arc<DsRegistry>, N::Ids) {
    let mut fp = Fingerprinter::new();
    fp.str(nf.name());
    nf.fingerprint_config(&mut fp);
    let key = (TypeId::of::<N::Ids>(), fp.finish());
    let lock = || REGISTERED.lock().unwrap_or_else(PoisonError::into_inner);

    let hit = lock()
        .get(&key)
        .and_then(|(reg, ids)| Some((Arc::clone(reg), *ids.downcast_ref::<N::Ids>()?)));
    if let Some(hit) = hit {
        return hit;
    }
    let mut reg = DsRegistry::new();
    let ids = nf.register(&mut reg);
    let reg = Arc::new(reg);
    let mut memo = lock();
    if memo.len() >= REGISTERED_CAP {
        memo.clear();
    }
    memo.insert(key, (Arc::clone(&reg), Box::new(ids)));
    (reg, ids)
}

/// Fluent entrypoint: `Bolt::nf(nf).explore(level).contract().query(…)`.
///
/// `explore` consults the persistent contract store when one is attached
/// with [`Bolt::with_store`], and skips the explorer (and every solver
/// query) on a warm hit. With no store attached it explores fresh and
/// touches no disk. [`Bolt::threads`] sets the exploration
/// worker-thread count (default 1); output is bit-identical at any count.
pub struct Bolt<'s, N> {
    nf: N,
    store: Option<&'s ContractStore>,
    threads: usize,
}

impl<'s, N: NetworkFunction + Sync> Bolt<'s, N> {
    /// Wrap a network function descriptor.
    pub fn nf(nf: N) -> Self {
        Bolt {
            nf,
            store: None,
            threads: 1,
        }
    }

    /// Attach a persistent contract store: `explore` becomes
    /// get-or-explore against it.
    pub fn with_store(mut self, store: &'s ContractStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Explore on `n` threads: the committing caller and `n − 1` workers
    /// (1 = sequential). The knob trades cores for wall-clock only —
    /// output is bit-identical.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Run the analysis build at a stack level (through the attached
    /// store, when there is one).
    pub fn explore(self, level: StackLevel) -> Exploration<N::Ids> {
        match self.store {
            Some(store) => store.get_or_explore_threads(&self.nf, level, self.threads),
            None => self.nf.explore_threads(level, self.threads),
        }
    }

    /// The wrapped descriptor.
    pub fn into_inner(self) -> N {
        self.nf
    }
}

/// Result of an NF's analysis build: the registry (holding the library
/// contracts and PCV table), the NF's registered-state handle, and the
/// explored feasible paths.
pub struct Exploration<I> {
    /// Registry the NF registered its stateful parts against, shared with
    /// the process's memo for this configuration.
    pub reg: Arc<DsRegistry>,
    /// The NF's registered-state handle.
    pub ids: I,
    /// The stack level the analysis ran at.
    pub level: StackLevel,
    /// The feasible paths.
    pub result: ExplorationResult,
    /// Whether the result was served from a persistent contract store
    /// (no explorer run, no solver query) rather than explored fresh.
    pub cached: bool,
    /// Size on disk (header and payload) of the store record the result
    /// was read from or written to; `None` without a store, or when the
    /// store failed to write the record.
    pub record_bytes: Option<u64>,
}

impl<I> Exploration<I> {
    /// Generate the performance contract (Algorithm 2, lines 4–17).
    pub fn contract(self) -> Contract<I> {
        let inner = generate(&self.reg, self.result);
        Contract {
            reg: self.reg,
            ids: self.ids,
            level: self.level,
            inner,
            solver: Solver::default(),
        }
    }
}

/// A queryable performance contract bound to the registry it was
/// generated against (so expressions render with the right PCV names)
/// and carrying its own solver for class-compatibility checks.
pub struct Contract<I> {
    /// Registry holding the library contracts and PCV table (shared, like
    /// [`Exploration::reg`]).
    pub reg: Arc<DsRegistry>,
    /// The NF's registered-state handle (PCV ids for bindings).
    pub ids: I,
    /// The stack level the contract covers.
    pub level: StackLevel,
    /// The raw contract.
    pub inner: NfContract,
    solver: Solver,
}

impl<I> Contract<I> {
    /// Predicted performance of an input class: the worst compatible
    /// path's expression evaluated at `env` (§5.1).
    pub fn query(
        &mut self,
        class: &InputClass,
        metric: Metric,
        env: &PcvAssignment,
    ) -> Option<QueryResult> {
        self.inner.query(&self.solver, class, metric, env)
    }

    /// The worst path overall for a metric under a binding.
    pub fn worst(&self, metric: Metric, env: &PcvAssignment) -> Option<&PathContract> {
        self.inner.worst(metric, env)
    }

    /// All per-path contracts.
    pub fn paths(&self) -> &[PathContract] {
        &self.inner.paths
    }

    /// Render one expression with this contract's PCV names.
    pub fn display_expr(&self, expr: &PerfExpr) -> String {
        format!("{}", expr.display(&self.reg.pcvs))
    }

    /// Synthesize a concrete packet driving the NF down a path.
    pub fn synthesize_packet(&self, path_index: usize, frame_len: usize) -> Option<(Vec<u8>, u16)> {
        self.inner
            .synthesize_packet(&self.solver, path_index, frame_len)
    }

    /// Unwrap the raw [`NfContract`] (drops registry and ids).
    pub fn into_inner(self) -> NfContract {
        self.inner
    }
}

/// Object-safe view of a network function for heterogeneous chains: the
/// subset of the workflow [`crate::chain::Pipeline`] needs. Blanket-implemented for
/// every [`NetworkFunction`], so any NF descriptor can be boxed into a
/// pipeline.
pub trait AbstractNf {
    /// The NF's short name.
    fn name(&self) -> &'static str;

    /// Run the analysis build on `threads` exploration threads (output
    /// is bit-identical at any count) and generate the raw contract —
    /// get-or-explore against `store` when one is given, where warm hits
    /// skip the explorer and the solver entirely. The flag reports
    /// whether the stage was served from the store: the provenance
    /// [`crate::chain::ChainReport`] surfaces per chain run.
    fn explore_contract(
        &self,
        level: StackLevel,
        store: Option<&ContractStore>,
        threads: usize,
    ) -> (NfContract, bool);

    /// The stage's contract-store key at a stack level (NF name, config,
    /// level, store-format version — see [`crate::store::store_key`]).
    /// Chain composition derives composed-record keys from these, so a
    /// changed stage config invalidates every composed record downstream
    /// of the stage.
    fn store_key(&self, level: StackLevel) -> crate::store::Fingerprint;
}

impl<N: NetworkFunction + Sync> AbstractNf for N {
    fn name(&self) -> &'static str {
        NetworkFunction::name(self)
    }

    fn explore_contract(
        &self,
        level: StackLevel,
        store: Option<&ContractStore>,
        threads: usize,
    ) -> (NfContract, bool) {
        let ex = match store {
            Some(st) => st.get_or_explore_threads(self, level, threads),
            None => self.explore_threads(level, threads),
        };
        let cached = ex.cached;
        (ex.contract().into_inner(), cached)
    }

    fn store_key(&self, level: StackLevel) -> crate::store::Fingerprint {
        crate::store::store_key(self, level)
    }
}
