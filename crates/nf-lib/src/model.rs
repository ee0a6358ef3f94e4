//! The analysis build of every library structure (§3.3, Algorithm 3).
//!
//! A modelled method call does not execute: it returns fresh symbols,
//! forks the path once per contract case, and records which case the
//! path took as a [`StatefulCall`] event. That one operation is the same
//! for every structure, so the library writes it once, here. Each
//! structure's operations trait is implemented for [`DsModel`] next to
//! the structure; those impls only name the symbols and cases.

use bolt_expr::{TermRef, Width};
use bolt_see::{NfCtx, SymbolicCtx};
use bolt_trace::{DsId, StatefulCall, Tracer};

/// Symbolic model of one registered data-structure instance.
///
/// Its operations take the symbolic context, so the model runs only
/// under exploration: here one DIR-24-8 lookup forks into its two cases.
///
/// ```
/// use bolt_expr::Width;
/// use bolt_see::{Explorer, NfCtx};
/// use bolt_trace::DsId;
/// use nf_lib::lpm_dir24_8::Dir24_8Ops;
/// use nf_lib::model::DsModel;
///
/// let result = Explorer::new().explore(|ctx| {
///     let mut model = DsModel { ds: DsId(0), bound: 0 };
///     let ip = ctx.lit(0x0A00_0001, Width::W32);
///     model.lookup(ctx, ip);
/// });
/// assert_eq!(result.paths.len(), 2);
/// ```
///
/// Driving it with the production context does not compile:
///
/// ```compile_fail,E0308
/// use bolt_expr::Width;
/// use bolt_see::{ConcreteCtx, NfCtx};
/// use bolt_trace::{DsId, NullTracer};
/// use nf_lib::lpm_dir24_8::Dir24_8Ops;
/// use nf_lib::model::DsModel;
///
/// let mut tracer = NullTracer;
/// let ctx = &mut ConcreteCtx::new(&mut tracer);
/// let mut model = DsModel { ds: DsId(0), bound: 0 };
/// let ip = ctx.lit(0x0A00_0001, Width::W32);
/// model.lookup(ctx, ip);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DsModel {
    /// The registry instance whose contract cases the calls record.
    pub ds: DsId,
    /// Upper bound assumed for [`DsModel::fresh_bounded`] values (a
    /// table's capacity, a ring's backend count); unused by structures
    /// with no bounded output.
    pub bound: u64,
}

impl DsModel {
    /// Record that this path's call of `method` took contract case `case`.
    pub fn record(&self, ctx: &mut SymbolicCtx<'_>, method: u16, case: u16) {
        ctx.tracer().stateful(StatefulCall {
            ds: self.ds,
            method,
            case,
        });
    }

    /// Fork over `method`'s cases: for each `(symbol, case)` in order,
    /// fork on a fresh 1-bit symbol of that name. The first fork taken
    /// selects its case; if none is, the path takes `fallback`. Either
    /// way the case is recorded and returned.
    pub fn split(
        &self,
        ctx: &mut SymbolicCtx<'_>,
        method: u16,
        cases: &[(&str, u16)],
        fallback: u16,
    ) -> u16 {
        let mut taken = fallback;
        for &(name, case) in cases {
            let this_case = ctx.fresh(name, Width::W1);
            if ctx.fork(this_case) {
                taken = case;
                break;
            }
        }
        self.record(ctx, method, taken);
        taken
    }

    /// A fresh value assumed `≤ bound`.
    pub fn fresh_bounded(&self, ctx: &mut SymbolicCtx<'_>, name: &str, w: Width) -> TermRef {
        let v = ctx.fresh(name, w);
        let bound = ctx.lit(self.bound, w);
        let within = ctx.ule_free(v, bound);
        ctx.assume(within);
        v
    }
}
