//! Binary codec for [`ExplorationResult`]s (the contract store's
//! exploration records).
//!
//! Layout: the shared term pool first (rehydrated by re-interning, so
//! every [`TermRef`] in the decoded paths points at a bit-identical
//! arena), then each path's constraints, events, tags, verdict, packet
//! fields, final packet state, and branch decisions, then the
//! exploration stats and the truncation marker. `decode(encode(r))`
//! reproduces `r` exactly — same paths, same terms, same counters — so
//! contracts generated from a decoded exploration are indistinguishable
//! from freshly explored ones.

use bolt_expr::{Term, TermRef};
use bolt_solver::SolverStats;
use bolt_store::codec::{
    read_event, read_pool, read_term_ref, write_event, write_pool, write_term_ref, MAX_COUNT,
};
use bolt_store::{intern_tag, ByteReader, ByteWriter, DecodeError};

use crate::explore::{ExplorationResult, ExploreStats, Path};
use crate::symbolic::PacketField;
use crate::NfVerdict;

/// Encode an exploration result.
pub fn encode_result(r: &ExplorationResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_pool(&mut w, &r.pool);
    w.varint(r.paths.len() as u64);
    for p in &r.paths {
        w.varint(p.constraints.len() as u64);
        for &c in &p.constraints {
            write_term_ref(&mut w, c);
        }
        w.varint(p.events.len() as u64);
        for ev in &p.events {
            write_event(&mut w, ev);
        }
        w.varint(p.tags.len() as u64);
        for tag in &p.tags {
            w.str(tag);
        }
        write_verdict(&mut w, p.verdict);
        w.varint(p.packet_fields.len() as u64);
        for f in &p.packet_fields {
            write_packet_field(&mut w, f);
        }
        write_final_packet(&mut w, &p.final_packet);
        w.varint(p.decisions.len() as u64);
        for &d in &p.decisions {
            w.bool(d);
        }
    }
    let s = &r.stats;
    write_solver_stats(&mut w, &s.solver);
    w.varint(s.runs);
    w.varint(s.terms_interned);
    w.varint(s.syms_minted);
    w.bool(r.truncated);
    w.into_bytes()
}

/// Decode an exploration result. Fails (never panics) on any corrupt,
/// truncated, or version-skewed input.
pub fn decode_result(bytes: &[u8]) -> Result<ExplorationResult, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let pool = read_pool(&mut r)?;
    let n_paths = r.count(MAX_COUNT)?;
    let mut paths = Vec::with_capacity(n_paths);
    for _ in 0..n_paths {
        let n_cs = r.count(MAX_COUNT)?;
        let mut constraints = Vec::with_capacity(n_cs);
        for _ in 0..n_cs {
            constraints.push(read_term_ref(&mut r, &pool)?);
        }
        let n_ev = r.count(MAX_COUNT)?;
        let mut events = Vec::with_capacity(n_ev);
        for _ in 0..n_ev {
            events.push(read_event(&mut r)?);
        }
        let tags = read_tags(&mut r)?;
        let verdict = read_verdict(&mut r)?;
        let n_pf = r.count(MAX_COUNT)?;
        let mut packet_fields = Vec::with_capacity(n_pf);
        for _ in 0..n_pf {
            packet_fields.push(read_packet_field(&mut r, &pool)?);
        }
        let final_packet = read_final_packet(&mut r, &pool)?;
        let n_dec = r.count(MAX_COUNT)?;
        let mut decisions = Vec::with_capacity(n_dec);
        for _ in 0..n_dec {
            decisions.push(r.bool()?);
        }
        paths.push(Path {
            constraints,
            events,
            tags,
            verdict,
            packet_fields,
            final_packet,
            decisions,
        });
    }
    let solver = read_solver_stats(&mut r)?;
    let stats = ExploreStats {
        solver,
        runs: r.varint()?,
        terms_interned: r.varint()?,
        syms_minted: r.varint()?,
    };
    let truncated = r.bool()?;
    r.expect_end()?;
    Ok(ExplorationResult {
        pool,
        paths,
        stats,
        truncated,
    })
}

/// Encode a path tag list (shared with the contract codec in
/// `bolt_core`).
pub fn write_tags(w: &mut ByteWriter, tags: &[&'static str]) {
    w.varint(tags.len() as u64);
    for tag in tags {
        w.str(tag);
    }
}

/// Decode a path tag list, interning each tag to `&'static str`.
pub fn read_tags(r: &mut ByteReader<'_>) -> Result<Vec<&'static str>, DecodeError> {
    let n = r.count(MAX_COUNT)?;
    let mut tags = Vec::with_capacity(n);
    for _ in 0..n {
        tags.push(intern_tag(r.str()?));
    }
    Ok(tags)
}

/// Encode an optional NF verdict.
pub fn write_verdict(w: &mut ByteWriter, v: Option<NfVerdict>) {
    match v {
        None => w.u8(0),
        Some(NfVerdict::Drop) => w.u8(1),
        Some(NfVerdict::Flood) => w.u8(2),
        Some(NfVerdict::Forward(port)) => {
            w.u8(3);
            w.u16(port);
        }
    }
}

/// Decode an optional NF verdict.
pub fn read_verdict(r: &mut ByteReader<'_>) -> Result<Option<NfVerdict>, DecodeError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(NfVerdict::Drop),
        2 => Some(NfVerdict::Flood),
        3 => Some(NfVerdict::Forward(r.u16()?)),
        _ => return Err(DecodeError::Malformed("verdict tag out of range")),
    })
}

/// Encode one lazily-minted packet field.
pub fn write_packet_field(w: &mut ByteWriter, f: &PacketField) {
    w.varint(f.offset);
    w.u8(f.bytes);
    w.varint(f.sym as u64);
    write_term_ref(w, f.term);
}

/// Decode one packet field, validating it against the rehydrated pool:
/// its term must be the `Sym` node of its symbol, as every writer makes
/// it.
pub fn read_packet_field(
    r: &mut ByteReader<'_>,
    pool: &bolt_expr::TermPool,
) -> Result<PacketField, DecodeError> {
    let offset = r.varint()?;
    let bytes = r.u8()?;
    let sym = r.varint()?;
    let term = read_term_ref(r, pool)?;
    match *pool.get(term) {
        Term::Sym { id, .. } if u64::from(id) == sym => Ok(PacketField {
            offset,
            bytes,
            sym: id,
            term,
        }),
        _ => Err(DecodeError::Malformed(
            "packet-field term is not its symbol",
        )),
    }
}

/// Encode a final-packet overlay (`(offset, bytes, term)` triples).
pub fn write_final_packet(w: &mut ByteWriter, fp: &[(u64, u8, TermRef)]) {
    w.varint(fp.len() as u64);
    for &(o, b, t) in fp {
        w.varint(o);
        w.u8(b);
        write_term_ref(w, t);
    }
}

/// Decode a final-packet overlay.
pub fn read_final_packet(
    r: &mut ByteReader<'_>,
    pool: &bolt_expr::TermPool,
) -> Result<Vec<(u64, u8, TermRef)>, DecodeError> {
    let n = r.count(MAX_COUNT)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let o = r.varint()?;
        let b = r.u8()?;
        let t = read_term_ref(r, pool)?;
        out.push((o, b, t));
    }
    Ok(out)
}

fn write_solver_stats(w: &mut ByteWriter, s: &SolverStats) {
    w.varint(s.checks_requested);
    w.varint(s.solver_queries);
    w.varint(s.completion_searches);
    w.varint(s.unsat_by_propagation);
    w.varint(s.memo_hits);
    w.varint(s.witness_reuse_hits);
    w.varint(s.model_evictions);
}

fn read_solver_stats(r: &mut ByteReader<'_>) -> Result<SolverStats, DecodeError> {
    Ok(SolverStats {
        checks_requested: r.varint()?,
        solver_queries: r.varint()?,
        completion_searches: r.varint()?,
        unsat_by_propagation: r.varint()?,
        memo_hits: r.varint()?,
        witness_reuse_hits: r.varint()?,
        model_evictions: r.varint()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Explorer, NfCtx};
    use bolt_expr::Width;
    use proptest::prelude::*;

    fn toy_nf(ctx: &mut crate::SymbolicCtx<'_>) {
        let pkt = ctx.packet(64);
        let et = ctx.load(pkt, 12, 2);
        if ctx.branch_eq_imm(et, 0x0800, Width::W16) {
            ctx.tag("valid");
            let ttl = ctx.load(pkt, 22, 1);
            let one = ctx.lit(1, Width::W8);
            let nt = ctx.sub(ttl, one);
            ctx.store(pkt, 22, nt, 1);
            ctx.verdict(NfVerdict::Forward(0));
        } else {
            ctx.tag("invalid");
            ctx.verdict(NfVerdict::Drop);
        }
    }

    #[test]
    fn exploration_round_trip_is_bit_identical() {
        let fresh = Explorer::new().explore(toy_nf);
        let bytes = encode_result(&fresh);
        let decoded = decode_result(&bytes).expect("round trip");
        assert_eq!(decoded.pool.nodes(), fresh.pool.nodes());
        assert_eq!(decoded.pool.sym_count(), fresh.pool.sym_count());
        assert_eq!(decoded.paths.len(), fresh.paths.len());
        for (d, f) in decoded.paths.iter().zip(&fresh.paths) {
            assert_eq!(d.constraints, f.constraints);
            assert_eq!(d.events, f.events);
            assert_eq!(d.tags, f.tags);
            assert_eq!(d.verdict, f.verdict);
            assert_eq!(d.packet_fields, f.packet_fields);
            assert_eq!(d.final_packet, f.final_packet);
            assert_eq!(d.decisions, f.decisions);
        }
        assert_eq!(decoded.stats, fresh.stats);
        assert_eq!(decoded.truncated, fresh.truncated);
        // Encoding the decoded result reproduces the same bytes.
        assert_eq!(encode_result(&decoded), bytes);
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let fresh = Explorer::new().explore(toy_nf);
        let bytes = encode_result(&fresh);
        for cut in 0..bytes.len() {
            assert!(
                decode_result(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // A single-bit flip anywhere never panics: it is rejected, or the
        // flipped bytes are themselves the encoding of what they decode
        // to — the format has one encoding per value.
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(value) = decode_result(&flipped) {
                assert_eq!(encode_result(&value), flipped, "bit {bit}: not canonical");
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_result(&padded).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// No byte string panics the decoder — random, or written over a
        /// valid record from `at` on — and one it accepts is the encoding
        /// of what it decodes to.
        #[test]
        fn arbitrary_bytes_never_panic_the_result_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            at: usize,
        ) {
            let mut spliced = encode_result(&Explorer::new().explore(toy_nf));
            let at = at % spliced.len();
            let end = spliced.len().min(at + bytes.len());
            spliced[at..end].copy_from_slice(&bytes[..end - at]);
            for input in [&bytes, &spliced] {
                if let Ok(value) = decode_result(input) {
                    prop_assert_eq!(&encode_result(&value), input);
                }
            }
        }
    }
}
