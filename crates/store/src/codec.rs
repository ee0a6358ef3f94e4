//! Codecs for the primitive types shared by every stored record:
//! [`TermPool`]s, [`PerfExpr`] polynomials, and [`TraceEvent`] streams.
//!
//! The pool codec is the load-bearing piece: it writes the symbol
//! registry and the term arena *in intern order*, and decoding replays
//! both through the pool's own registration/interning hooks. Because
//! interning assigns sequential indices and every stored node is
//! distinct, the rehydrated pool is bit-identical to the original —
//! same arena, same [`TermRef`] indices, same symbol ids — so decoded
//! contracts are query- and compose-identical to freshly explored ones.
//!
//! Domain codecs (`bolt_see` for explorations, `bolt_core` for
//! contracts) compose these primitives.

use bolt_expr::{BinOp, Monomial, PcvId, PerfExpr, Term, TermPool, TermRef, UnOp, Width};
use bolt_trace::{DsId, InstrClass, Marker, StatefulCall, TraceEvent};

use crate::wire::{ByteReader, ByteWriter, DecodeError};

/// Sanity cap for decoded counts: no legitimate record holds more than
/// this many elements in any one collection.
pub const MAX_COUNT: usize = 1 << 28;

/// Deepest term nesting [`read_pool`] accepts. Every walk over a term
/// (`eval`, `partial_eval`, content hashing, canonical rendering)
/// recurses per level, so an unbounded chain would overflow the stack —
/// an abort, not a catchable panic. The deepest term any catalog
/// contract or fw/router chain produces is 6 (`tests/robustness.rs`
/// watches the margin).
const MAX_TERM_DEPTH: u32 = 1024;

// ----------------------------------------------------------------------
// Enums ↔ tags
// ----------------------------------------------------------------------

fn width_tag(w: Width) -> u8 {
    match w {
        Width::W1 => 0,
        Width::W8 => 1,
        Width::W16 => 2,
        Width::W32 => 3,
        Width::W48 => 4,
        Width::W64 => 5,
    }
}

fn width_from_tag(t: u8) -> Result<Width, DecodeError> {
    Ok(match t {
        0 => Width::W1,
        1 => Width::W8,
        2 => Width::W16,
        3 => Width::W32,
        4 => Width::W48,
        5 => Width::W64,
        _ => return Err(DecodeError::Malformed("width tag out of range")),
    })
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::And => 3,
        BinOp::Or => 4,
        BinOp::Xor => 5,
        BinOp::Shl => 6,
        BinOp::Shr => 7,
        BinOp::Eq => 8,
        BinOp::Ne => 9,
        BinOp::Ult => 10,
        BinOp::Ule => 11,
    }
}

fn binop_from_tag(t: u8) -> Result<BinOp, DecodeError> {
    Ok(match t {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::And,
        4 => BinOp::Or,
        5 => BinOp::Xor,
        6 => BinOp::Shl,
        7 => BinOp::Shr,
        8 => BinOp::Eq,
        9 => BinOp::Ne,
        10 => BinOp::Ult,
        11 => BinOp::Ule,
        _ => return Err(DecodeError::Malformed("binop tag out of range")),
    })
}

fn instr_class_tag(c: InstrClass) -> u8 {
    c.index() as u8
}

#[inline]
fn instr_class_from_tag(t: u8) -> Result<InstrClass, DecodeError> {
    InstrClass::ALL
        .get(t as usize)
        .copied()
        .ok_or(DecodeError::Malformed("instruction class out of range"))
}

// ----------------------------------------------------------------------
// TermRef
// ----------------------------------------------------------------------

/// Write a term reference as its arena index.
#[inline]
pub fn write_term_ref(w: &mut ByteWriter, t: TermRef) {
    w.varint(t.index() as u64);
}

/// Read a term reference, bounds-checked against the rehydrated pool.
#[inline]
pub fn read_term_ref(r: &mut ByteReader<'_>, pool: &TermPool) -> Result<TermRef, DecodeError> {
    let idx = r.varint()?;
    if idx >= pool.len() as u64 {
        return Err(DecodeError::Malformed("term index out of range"));
    }
    Ok(TermRef::from_raw(idx as u32))
}

// ----------------------------------------------------------------------
// TermPool
// ----------------------------------------------------------------------

/// Encode a pool: symbol registry, then the arena in intern order.
pub fn write_pool(w: &mut ByteWriter, pool: &TermPool) {
    w.varint(pool.sym_count() as u64);
    for (name, width) in pool.sym_entries() {
        w.str(name);
        w.u8(width_tag(width));
    }
    w.varint(pool.len() as u64);
    for t in pool.nodes() {
        match *t {
            Term::Const { value, width } => {
                w.u8(0);
                w.varint(value);
                w.u8(width_tag(width));
            }
            Term::Sym { id, width } => {
                w.u8(1);
                w.varint(id as u64);
                w.u8(width_tag(width));
            }
            Term::Unop { op: UnOp::Not, a } => {
                w.u8(2);
                write_term_ref(w, a);
            }
            Term::Binop { op, a, b } => {
                w.u8(3);
                w.u8(binop_tag(op));
                write_term_ref(w, a);
                write_term_ref(w, b);
            }
            Term::Ite { c, t, e } => {
                w.u8(4);
                write_term_ref(w, c);
                write_term_ref(w, t);
                write_term_ref(w, e);
            }
            Term::Zext { a, width } => {
                w.u8(5);
                write_term_ref(w, a);
                w.u8(width_tag(width));
            }
            Term::Trunc { a, width } => {
                w.u8(6);
                write_term_ref(w, a);
                w.u8(width_tag(width));
            }
        }
    }
}

/// Decode a pool by replaying registration and interning. The decoded
/// pool is bit-identical: every node lands at its original index (this
/// is verified, not assumed). Nesting deeper than the private
/// `MAX_TERM_DEPTH` is malformed.
pub fn read_pool(r: &mut ByteReader<'_>) -> Result<TermPool, DecodeError> {
    let mut pool = TermPool::new();
    let n_syms = r.count(MAX_COUNT)?;
    for _ in 0..n_syms {
        let name = r.str()?;
        let width = width_from_tag(r.u8()?)?;
        pool.register_sym(name, width);
    }
    let n_terms = r.count(MAX_COUNT)?;
    // `count` bounds `n_terms` by the bytes left, so this reserves no
    // more than the input could fill.
    pool.reserve(n_terms);
    // Nesting depth of every node read so far (a leaf is 1).
    let mut depths: Vec<u32> = Vec::with_capacity(n_terms);
    for expect in 0..n_terms {
        let mut deepest_child = 0;
        // Children must precede parents, so every reference inside the
        // node being read must point below `expect`.
        let mut child = |r: &mut ByteReader<'_>, pool: &TermPool| -> Result<TermRef, DecodeError> {
            let t = read_term_ref(r, pool)?;
            if t.index() >= expect {
                return Err(DecodeError::Malformed("term child after parent"));
            }
            deepest_child = deepest_child.max(depths[t.index()]);
            Ok(t)
        };
        let node = match r.u8()? {
            0 => {
                let value = r.varint()?;
                let width = width_from_tag(r.u8()?)?;
                if value & !width.mask() != 0 {
                    return Err(DecodeError::Malformed("constant exceeds width"));
                }
                Term::Const { value, width }
            }
            1 => {
                let id = r.varint()?;
                let width = width_from_tag(r.u8()?)?;
                if id >= pool.sym_count() as u64 {
                    return Err(DecodeError::Malformed("symbol id out of range"));
                }
                Term::Sym {
                    id: id as u32,
                    width,
                }
            }
            2 => Term::Unop {
                op: UnOp::Not,
                a: child(r, &pool)?,
            },
            3 => {
                let op = binop_from_tag(r.u8()?)?;
                let a = child(r, &pool)?;
                let b = child(r, &pool)?;
                Term::Binop { op, a, b }
            }
            4 => {
                let c = child(r, &pool)?;
                let t = child(r, &pool)?;
                let e = child(r, &pool)?;
                Term::Ite { c, t, e }
            }
            5 => {
                let a = child(r, &pool)?;
                let width = width_from_tag(r.u8()?)?;
                Term::Zext { a, width }
            }
            6 => {
                let a = child(r, &pool)?;
                let width = width_from_tag(r.u8()?)?;
                Term::Trunc { a, width }
            }
            _ => return Err(DecodeError::Malformed("term tag out of range")),
        };
        if deepest_child >= MAX_TERM_DEPTH {
            return Err(DecodeError::Malformed("term nesting too deep"));
        }
        depths.push(deepest_child + 1);
        let got = pool.intern_node(node);
        if got.index() != expect {
            // A duplicate node in the stream would dedup to an earlier
            // index and shift everything after it.
            return Err(DecodeError::Malformed("pool rehydration diverged"));
        }
    }
    Ok(pool)
}

// ----------------------------------------------------------------------
// PerfExpr
// ----------------------------------------------------------------------

/// Encode a performance polynomial (monomials in ascending order, so the
/// encoding is canonical).
pub fn write_perf(w: &mut ByteWriter, e: &PerfExpr) {
    let terms: Vec<(&Monomial, u64)> = e.iter().collect();
    w.varint(terms.len() as u64);
    for (m, c) in terms {
        w.varint(m.vars().len() as u64);
        for v in m.vars() {
            w.varint(v.0 as u64);
        }
        w.varint(c);
    }
}

/// Decode a performance polynomial. Only [`write_perf`]'s canonical form
/// decodes — variables sorted within a monomial, monomials strictly
/// ascending, no zero coefficient — so every accepted encoding is the
/// one its value re-encodes to.
pub fn read_perf(r: &mut ByteReader<'_>) -> Result<PerfExpr, DecodeError> {
    let n = r.count(MAX_COUNT)?;
    let mut e = PerfExpr::zero();
    let mut prev: Option<Monomial> = None;
    for _ in 0..n {
        let deg = r.count(64)?;
        let mut vars = Vec::with_capacity(deg);
        for _ in 0..deg {
            let v = r.varint()?;
            if v > u32::MAX as u64 {
                return Err(DecodeError::Malformed("pcv id out of range"));
            }
            if vars.last().is_some_and(|&last| PcvId(v as u32) < last) {
                return Err(DecodeError::Malformed("monomial variables out of order"));
            }
            vars.push(PcvId(v as u32));
        }
        let m = Monomial::from_vars(vars);
        if prev.as_ref().is_some_and(|p| m <= *p) {
            return Err(DecodeError::Malformed("monomials out of order"));
        }
        let coeff = r.varint()?;
        if coeff == 0 {
            return Err(DecodeError::Malformed("zero coefficient"));
        }
        e.add_assign(&PerfExpr::term(m.clone(), coeff));
        prev = Some(m);
    }
    Ok(e)
}

// ----------------------------------------------------------------------
// TraceEvent
// ----------------------------------------------------------------------

fn marker_parts(m: Marker) -> (u8, u64) {
    match m {
        Marker::PacketStart(s) => (0, s),
        Marker::PacketEnd(s) => (1, s),
        Marker::RxStart => (2, 0),
        Marker::NfStart => (3, 0),
        Marker::NfEnd => (4, 0),
        Marker::TxDone => (5, 0),
    }
}

#[inline]
fn marker_from_parts(tag: u8, seq: u64) -> Result<Marker, DecodeError> {
    let marker = match tag {
        0 => return Ok(Marker::PacketStart(seq)),
        1 => return Ok(Marker::PacketEnd(seq)),
        2 => Marker::RxStart,
        3 => Marker::NfStart,
        4 => Marker::NfEnd,
        5 => Marker::TxDone,
        _ => return Err(DecodeError::Malformed("marker tag out of range")),
    };
    // [`marker_parts`] writes 0 for a marker without a sequence number.
    if seq != 0 {
        return Err(DecodeError::Malformed("marker carries a sequence number"));
    }
    Ok(marker)
}

/// Encode one trace event.
pub fn write_event(w: &mut ByteWriter, ev: &TraceEvent) {
    match *ev {
        TraceEvent::Instr { class, n } => {
            w.u8(0);
            w.u8(instr_class_tag(class));
            w.varint(n as u64);
        }
        TraceEvent::MemRead { addr, bytes, dep } => {
            w.u8(1);
            w.varint(addr);
            w.u8(bytes);
            w.bool(dep);
        }
        TraceEvent::MemWrite { addr, bytes } => {
            w.u8(2);
            w.varint(addr);
            w.u8(bytes);
        }
        TraceEvent::Stateful(call) => {
            w.u8(3);
            w.varint(call.ds.0 as u64);
            w.u16(call.method);
            w.u16(call.case);
        }
        TraceEvent::Pcv { pcv, value } => {
            w.u8(4);
            w.varint(pcv.0 as u64);
            w.varint(value);
        }
        TraceEvent::Mark(m) => {
            let (tag, seq) = marker_parts(m);
            w.u8(5);
            w.u8(tag);
            w.varint(seq);
        }
    }
}

/// Decode one trace event.
#[inline]
pub fn read_event(r: &mut ByteReader<'_>) -> Result<TraceEvent, DecodeError> {
    Ok(match r.u8()? {
        0 => {
            let class = instr_class_from_tag(r.u8()?)?;
            let n = r.varint()?;
            if n > u32::MAX as u64 {
                return Err(DecodeError::Malformed("instruction count out of range"));
            }
            TraceEvent::Instr { class, n: n as u32 }
        }
        1 => TraceEvent::MemRead {
            addr: r.varint()?,
            bytes: r.u8()?,
            dep: r.bool()?,
        },
        2 => TraceEvent::MemWrite {
            addr: r.varint()?,
            bytes: r.u8()?,
        },
        3 => {
            let ds = r.varint()?;
            if ds > u32::MAX as u64 {
                return Err(DecodeError::Malformed("ds id out of range"));
            }
            TraceEvent::Stateful(StatefulCall {
                ds: DsId(ds as u32),
                method: r.u16()?,
                case: r.u16()?,
            })
        }
        4 => {
            let pcv = r.varint()?;
            if pcv > u32::MAX as u64 {
                return Err(DecodeError::Malformed("pcv id out of range"));
            }
            TraceEvent::Pcv {
                pcv: PcvId(pcv as u32),
                value: r.varint()?,
            }
        }
        5 => {
            let tag = r.u8()?;
            let seq = r.varint()?;
            TraceEvent::Mark(marker_from_parts(tag, seq)?)
        }
        _ => return Err(DecodeError::Malformed("event tag out of range")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy_pool() -> (TermPool, Vec<TermRef>) {
        let mut p = TermPool::new();
        let et = p.fresh_sym("pkt.ether_type", Width::W16);
        let v4 = p.constant(0x0800, Width::W16);
        let is_v4 = p.eq(et, v4);
        let src = p.fresh_sym("pkt.src", Width::W32);
        let z = p.zext(src, Width::W64);
        let cap = p.constant(1000, Width::W64);
        let lt = p.ult(z, cap);
        let not = p.not(is_v4);
        let c = p.fresh_sym("hit", Width::W1);
        let t8 = p.trunc(src, Width::W8);
        let e8 = p.constant(3, Width::W8);
        let pick = p.ite(c, t8, e8);
        let e8b = p.eq(pick, e8);
        (p, vec![is_v4, lt, not, e8b])
    }

    /// A pool holding one `not(not(..(sym)))` chain of the given depth.
    fn encoded_chain(depth: u32) -> Vec<u8> {
        let mut p = TermPool::new();
        let mut t = p.fresh_sym("x", Width::W1);
        for _ in 1..depth {
            t = p.intern_node(Term::Unop {
                op: UnOp::Not,
                a: t,
            });
        }
        let mut w = ByteWriter::new();
        write_pool(&mut w, &p);
        w.into_bytes()
    }

    #[test]
    fn term_nesting_is_bounded_at_decode() {
        let decode = |depth| read_pool(&mut ByteReader::new(&encoded_chain(depth)));
        assert_eq!(decode(MAX_TERM_DEPTH).unwrap().len() as u32, MAX_TERM_DEPTH);
        for too_deep in [MAX_TERM_DEPTH + 1, 400_000] {
            assert_eq!(
                decode(too_deep).unwrap_err(),
                DecodeError::Malformed("term nesting too deep")
            );
        }
    }

    #[test]
    fn pool_round_trip_is_bit_identical() {
        let (pool, roots) = toy_pool();
        let mut w = ByteWriter::new();
        write_pool(&mut w, &pool);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        let decoded = read_pool(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(decoded.len(), pool.len());
        assert_eq!(decoded.sym_count(), pool.sym_count());
        assert_eq!(decoded.nodes(), pool.nodes());
        for (a, b) in decoded.sym_entries().zip(pool.sym_entries()) {
            assert_eq!(a, b);
        }
        for &root in &roots {
            assert_eq!(decoded.display(root), pool.display(root));
            assert_eq!(decoded.width(root), pool.width(root));
            assert_eq!(decoded.syms_of(root), pool.syms_of(root));
        }
    }

    #[test]
    fn rehydrated_pool_still_interns() {
        // The decoded pool must be a *working* pool: constructing a term
        // that already exists must dedup to the original index.
        let (pool, roots) = toy_pool();
        let mut w = ByteWriter::new();
        write_pool(&mut w, &pool);
        let buf = w.into_bytes();
        let mut decoded = read_pool(&mut ByteReader::new(&buf)).unwrap();
        let n = decoded.len();
        let et = decoded.intern_node(Term::Sym {
            id: 0,
            width: Width::W16,
        });
        let v4 = decoded.constant(0x0800, Width::W16);
        let again = decoded.eq(et, v4);
        assert_eq!(again, roots[0]);
        assert_eq!(decoded.len(), n, "re-construction allocates nothing");
    }

    #[test]
    fn corrupt_pool_bytes_are_rejected() {
        let (pool, _) = toy_pool();
        let mut w = ByteWriter::new();
        write_pool(&mut w, &pool);
        let buf = w.into_bytes();
        // Truncations at every prefix length must error, never panic.
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(read_pool(&mut r).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn perf_round_trip() {
        let e_id = PcvId(0);
        let c_id = PcvId(1);
        let mut e = PerfExpr::constant(882);
        e.add_assign(&PerfExpr::var(e_id, 245));
        e.add_assign(&PerfExpr::term(
            Monomial::var(e_id).mul(&Monomial::var(c_id)),
            82,
        ));
        let mut w = ByteWriter::new();
        write_perf(&mut w, &e);
        let buf = w.into_bytes();
        let got = read_perf(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(got, e);
        // Zero polynomial too.
        let mut w = ByteWriter::new();
        write_perf(&mut w, &PerfExpr::zero());
        let buf = w.into_bytes();
        assert_eq!(
            read_perf(&mut ByteReader::new(&buf)).unwrap(),
            PerfExpr::zero()
        );
    }

    /// Encode a polynomial term by term, in the order given.
    fn raw_perf(terms: &[(&[u32], u64)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.varint(terms.len() as u64);
        for &(vars, coeff) in terms {
            w.varint(vars.len() as u64);
            for &v in vars {
                w.varint(v as u64);
            }
            w.varint(coeff);
        }
        w.into_bytes()
    }

    #[test]
    fn only_canonical_polynomials_decode() {
        let decode = |terms: &[(&[u32], u64)]| read_perf(&mut ByteReader::new(&raw_perf(terms)));
        // `e·e·c` (a repeated variable) then `c`: canonical.
        let e = decode(&[(&[], 7), (&[0, 0, 1], 3), (&[1], 2)]).unwrap();
        let mut w = ByteWriter::new();
        write_perf(&mut w, &e);
        assert_eq!(
            w.into_bytes(),
            raw_perf(&[(&[], 7), (&[0, 0, 1], 3), (&[1], 2)])
        );
        let malformed = |m| Err(DecodeError::Malformed(m));
        assert_eq!(
            decode(&[(&[1, 0], 3)]),
            malformed("monomial variables out of order")
        );
        assert_eq!(
            decode(&[(&[1], 2), (&[], 7)]),
            malformed("monomials out of order")
        );
        assert_eq!(
            decode(&[(&[1], 2), (&[1], 5)]),
            malformed("monomials out of order")
        );
        assert_eq!(decode(&[(&[0], 0)]), malformed("zero coefficient"));
    }

    /// One event of every kind.
    fn toy_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Instr {
                class: InstrClass::Crc,
                n: 7,
            },
            TraceEvent::MemRead {
                addr: 0xdead_beef,
                bytes: 8,
                dep: true,
            },
            TraceEvent::MemWrite {
                addr: 0x10,
                bytes: 2,
            },
            TraceEvent::Stateful(StatefulCall {
                ds: DsId(3),
                method: 1,
                case: 2,
            }),
            TraceEvent::Pcv {
                pcv: PcvId(5),
                value: 99,
            },
            TraceEvent::Mark(Marker::PacketStart(41)),
            TraceEvent::Mark(Marker::NfEnd),
        ]
    }

    #[test]
    fn event_round_trip() {
        let events = toy_events();
        let mut w = ByteWriter::new();
        for ev in &events {
            write_event(&mut w, ev);
        }
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        for ev in &events {
            assert_eq!(&read_event(&mut r).unwrap(), ev);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn markers_without_a_sequence_number_carry_none() {
        // `RxStart` is written with sequence 0; any other number would be
        // a second encoding of the same event.
        assert_eq!(
            read_event(&mut ByteReader::new(&[5, 2, 0])),
            Ok(TraceEvent::Mark(Marker::RxStart))
        );
        assert_eq!(
            read_event(&mut ByteReader::new(&[5, 2, 7])),
            Err(DecodeError::Malformed("marker carries a sequence number"))
        );
    }

    fn encoded(write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write(&mut w);
        w.into_bytes()
    }

    /// `bytes` on its own and written over `valid` from `at` on.
    fn hostile_inputs(valid: Vec<u8>, bytes: &[u8], at: usize) -> [Vec<u8>; 2] {
        let mut spliced = valid;
        let at = at % spliced.len();
        let end = spliced.len().min(at + bytes.len());
        spliced[at..end].copy_from_slice(&bytes[..end - at]);
        [bytes.to_vec(), spliced]
    }

    /// Read `input` with `read` until it fails or the input ends; every
    /// value read must re-encode to exactly the bytes it was read from.
    fn assert_reads_are_canonical<T>(
        input: &[u8],
        read: impl Fn(&mut ByteReader<'_>) -> Result<T, DecodeError>,
        write: impl Fn(&mut ByteWriter, &T),
    ) {
        let mut r = ByteReader::new(input);
        while !r.is_empty() {
            let start = input.len() - r.remaining();
            let Ok(value) = read(&mut r) else { break };
            let end = input.len() - r.remaining();
            assert_eq!(
                encoded(|w| write(w, &value)),
                &input[start..end],
                "accepted bytes are not canonical"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_the_pool_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            at: usize,
        ) {
            let valid = encoded(|w| write_pool(w, &toy_pool().0));
            for input in hostile_inputs(valid, &bytes, at) {
                assert_reads_are_canonical(&input, read_pool, write_pool);
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_event_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            at: usize,
        ) {
            let valid = encoded(|w| toy_events().iter().for_each(|ev| write_event(w, ev)));
            for input in hostile_inputs(valid, &bytes, at) {
                assert_reads_are_canonical(&input, read_event, write_event);
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_perf_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            at: usize,
        ) {
            let mut e = PerfExpr::constant(882);
            e.add_assign(&PerfExpr::var(PcvId(0), 245));
            e.add_assign(&PerfExpr::term(Monomial::from_vars(vec![PcvId(1); 5]), 82));
            let valid = encoded(|w| write_perf(w, &e));
            for input in hostile_inputs(valid, &bytes, at) {
                assert_reads_are_canonical(&input, read_perf, write_perf);
            }
        }
    }
}
