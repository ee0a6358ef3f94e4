//! Registry of stateful data-structure instances and their contracts.
//!
//! Symbolic paths reference library calls by [`StatefulCall`] ids; this
//! registry resolves them to the method's [`CaseContract`], and owns the
//! [`PcvTable`] that scopes PCV names. Registration is idempotent by
//! instance name, so the analysis build (models) and the production build
//! (concrete structures) can both register the same logical instance and
//! agree on ids.

use std::sync::atomic::{AtomicU64, Ordering};

use bolt_expr::{PcvId, PcvTable, PerfExpr};
use bolt_see::ConcreteCtx;
use bolt_trace::{DsId, Metric, RecordingTracer, StatefulCall};

/// Per-metric cost expressions for one contract case.
#[derive(Clone, Debug)]
pub struct CaseContract {
    /// Human-readable case name (e.g. `"hit"`, `"miss"`, `"rehash"`).
    pub name: &'static str,
    /// One [`PerfExpr`] per [`Metric`], indexed by [`Metric::index`].
    /// Instructions and memory accesses are exact polynomials; cycles are
    /// the conservative worst-case expression (every potentially-uncached
    /// access at main-memory latency, worst-case instruction latencies).
    pub perf: [PerfExpr; 3],
}

impl CaseContract {
    /// The expression for a metric.
    pub fn expr(&self, metric: Metric) -> &PerfExpr {
        &self.perf[metric.index()]
    }
}

/// Contract for one method: a set of cases selected by the abstract state
/// (§3.3 — "the performance contract of a flow table get method will have
/// different formulae depending on whether the flow is present").
#[derive(Clone, Debug)]
pub struct MethodContract {
    /// Method name (e.g. `"get"`).
    pub name: &'static str,
    /// The cases, indexed by the `case` field of [`StatefulCall`].
    pub cases: Vec<CaseContract>,
}

/// Contract for a whole data-structure instance.
#[derive(Clone, Debug, Default)]
pub struct DsContract {
    /// Methods, indexed by the `method` field of [`StatefulCall`].
    pub methods: Vec<MethodContract>,
}

/// A registered instance.
#[derive(Clone, Debug)]
pub struct DsInstance {
    /// Instance name (unique within a registry), e.g. `"flow_table"`.
    pub name: String,
    /// Its performance contract.
    pub contract: DsContract,
}

/// The registry: instances + the PCV name table they share.
#[derive(Clone, Debug, Default)]
pub struct DsRegistry {
    /// PCV names used by all contracts in this registry.
    pub pcvs: PcvTable,
    instances: Vec<DsInstance>,
}

impl DsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an instance (idempotent by name: re-registration returns
    /// the existing id and keeps the first contract).
    pub fn register(&mut self, name: &str, contract: DsContract) -> DsId {
        if let Some(i) = self.instances.iter().position(|d| d.name == name) {
            return DsId(i as u32);
        }
        self.instances.push(DsInstance {
            name: name.to_string(),
            contract,
        });
        DsId((self.instances.len() - 1) as u32)
    }

    /// Look up an instance.
    pub fn instance(&self, ds: DsId) -> &DsInstance {
        &self.instances[ds.0 as usize]
    }

    /// Number of registered instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Resolve a recorded stateful call to its contract case.
    pub fn resolve(&self, call: StatefulCall) -> &CaseContract {
        &self.instances[call.ds.0 as usize].contract.methods[call.method as usize].cases
            [call.case as usize]
    }

    /// Intern an instance-scoped PCV name. With an empty instance name the
    /// short name is used bare (matching the paper's single-instance
    /// tables: `e`, `c`, `t`, `o`, `l`, `n`).
    pub fn pcv(&mut self, instance: &str, short: &str) -> PcvId {
        if instance.is_empty() {
            self.pcvs.intern(short)
        } else {
            self.pcvs.intern(&format!("{instance}.{short}"))
        }
    }

    /// Render one method's contract as human-readable rows (used by the
    /// bench harnesses that print the paper's contract tables).
    pub fn render_method(&self, ds: DsId, method: u16, metric: Metric) -> Vec<(String, String)> {
        let m = &self.instance(ds).contract.methods[method as usize];
        m.cases
            .iter()
            .map(|c| {
                (
                    c.name.to_string(),
                    format!("{}", c.expr(metric).display(&self.pcvs)),
                )
            })
            .collect()
    }
}

/// Calibration probes run by this process (a statistic: it publishes
/// nothing else, hence relaxed).
static CALIBRATIONS: AtomicU64 = AtomicU64::new(0);

/// How many calibration probes ([`measure`]) this process has run. The
/// library calibrates once per NF configuration, so the count stands
/// still across repeated explorations and store hits — which is what
/// `tests/calibrate_once.rs` pins.
pub fn calibrations() -> u64 {
    CALIBRATIONS.load(Ordering::Relaxed)
}

/// Calibration probe: run `op` against a recording tracer and return its
/// measured `[instructions, mem accesses, conservative cycles]`.
pub fn measure(op: impl FnOnce(&mut ConcreteCtx<'_, RecordingTracer>)) -> [u64; 3] {
    CALIBRATIONS.fetch_add(1, Ordering::Relaxed);
    let mut rec = RecordingTracer::new();
    {
        let mut ctx = ConcreteCtx::new(&mut rec);
        op(&mut ctx);
    }
    let (ic, ma) = bolt_trace::count_ic_ma(&rec.events);
    [ic, ma, bolt_hw::conservative_cycles(&rec.events)]
}

/// A case whose cost is the same at every PCV: one measured
/// `[instructions, mem accesses, cycles]` triple.
pub(crate) fn constant_case(name: &'static str, v: [u64; 3]) -> CaseContract {
    CaseContract {
        name,
        perf: v.map(PerfExpr::constant),
    }
}

/// The three per-metric expressions of one registered contract case, for
/// composite structures that build their contract out of an inner one's.
pub fn case_perf(reg: &DsRegistry, ds: DsId, method: u16, case: u16) -> [PerfExpr; 3] {
    reg.resolve(StatefulCall { ds, method, case }).perf.clone()
}

/// Per-metric sum of two expression triples.
pub fn sum3(a: &[PerfExpr; 3], b: &[PerfExpr; 3]) -> [PerfExpr; 3] {
    [a[0].add(&b[0]), a[1].add(&b[1]), a[2].add(&b[2])]
}

/// Add a composite wrapper's glue instructions to an expression triple.
/// Glue is branch/call/ret/alu work with no memory operands; cycles are
/// charged at the worst per-instruction latency (call/ret at 4).
pub fn with_glue(base: [PerfExpr; 3], glue_instr: u32) -> [PerfExpr; 3] {
    let [mut ic, ma, mut cy] = base;
    ic.add_const(glue_instr as u64);
    cy.add_const(glue_instr as u64 * 4);
    [ic, ma, cy]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_contract() -> DsContract {
        DsContract {
            methods: vec![MethodContract {
                name: "get",
                cases: vec![
                    CaseContract {
                        name: "hit",
                        perf: [
                            PerfExpr::constant(10),
                            PerfExpr::constant(3),
                            PerfExpr::constant(100),
                        ],
                    },
                    CaseContract {
                        name: "miss",
                        perf: [
                            PerfExpr::constant(5),
                            PerfExpr::constant(1),
                            PerfExpr::constant(50),
                        ],
                    },
                ],
            }],
        }
    }

    #[test]
    fn registration_is_idempotent() {
        let mut reg = DsRegistry::new();
        let a = reg.register("flow_table", dummy_contract());
        let b = reg.register("flow_table", dummy_contract());
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn resolve_stateful_call() {
        let mut reg = DsRegistry::new();
        let ds = reg.register("t", dummy_contract());
        let case = reg.resolve(StatefulCall {
            ds,
            method: 0,
            case: 1,
        });
        assert_eq!(case.name, "miss");
        assert_eq!(case.expr(Metric::Instructions).as_const(), Some(5));
    }

    #[test]
    fn pcv_scoping() {
        let mut reg = DsRegistry::new();
        let bare = reg.pcv("", "e");
        let scoped = reg.pcv("mac_table", "e");
        assert_ne!(bare, scoped);
        assert_eq!(reg.pcvs.name(bare), "e");
        assert_eq!(reg.pcvs.name(scoped), "mac_table.e");
        assert_eq!(reg.pcv("", "e"), bare, "interning is idempotent");
    }

    #[test]
    fn render_method_rows() {
        let mut reg = DsRegistry::new();
        let ds = reg.register("t", dummy_contract());
        let rows = reg.render_method(ds, 0, Metric::Instructions);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], ("hit".to_string(), "10".to_string()));
    }
}
