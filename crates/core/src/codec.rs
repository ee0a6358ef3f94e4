//! Binary codec for [`NfContract`]s (the contract store's composed-chain
//! records — a single NF's contract is never stored, it is regenerated
//! from the exploration record) and [`ChainPlan`]s (its plan records).
//!
//! A composed record is self-contained: the term pool the constraints
//! live in, then one entry per path — constraints, tags, verdict, the
//! three per-metric cost polynomials, packet fields, and the final
//! packet overlay. Decoding rehydrates the pool by re-interning (see
//! `bolt_store::codec`), so a decoded contract answers `query(...)`
//! bit-identically to the one that was encoded, and remains a *live*
//! contract: class queries can keep interning instantiated constraints
//! into its pool.
//!
//! A plan record carries no terms — group indices, witnesses, and
//! evaluated-form cost polynomials only — and encoding is a pure
//! function of the plan's fields, so the same chain encodes to the same
//! bytes on every run.

use bolt_store::codec::{
    read_perf, read_pool, read_term_ref, write_perf, write_pool, write_term_ref, MAX_COUNT,
};
use bolt_store::{ByteReader, ByteWriter, DecodeError};

use bolt_expr::PerfExpr;
use bolt_see::codec as see_codec;

use crate::chain::{ChainPlan, CommuteWitness};
use crate::contract::{NfContract, PathContract};
use crate::store::{level_from_tag, level_tag};

/// Encode a contract.
pub fn encode_contract(c: &NfContract) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_pool(&mut w, &c.pool);
    w.varint(c.paths.len() as u64);
    for p in &c.paths {
        w.varint(p.constraints.len() as u64);
        for &t in &p.constraints {
            write_term_ref(&mut w, t);
        }
        see_codec::write_tags(&mut w, &p.tags);
        see_codec::write_verdict(&mut w, p.verdict);
        for perf in &p.perf {
            write_perf(&mut w, perf);
        }
        w.varint(p.packet_fields.len() as u64);
        for f in &p.packet_fields {
            see_codec::write_packet_field(&mut w, f);
        }
        see_codec::write_final_packet(&mut w, &p.final_packet);
    }
    w.into_bytes()
}

/// Decode a contract. Fails (never panics) on corrupt input.
pub fn decode_contract(bytes: &[u8]) -> Result<NfContract, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let pool = read_pool(&mut r)?;
    let n_paths = r.count(MAX_COUNT)?;
    let mut paths = Vec::with_capacity(n_paths);
    for index in 0..n_paths {
        let n_cs = r.count(MAX_COUNT)?;
        let mut constraints = Vec::with_capacity(n_cs);
        for _ in 0..n_cs {
            constraints.push(read_term_ref(&mut r, &pool)?);
        }
        let tags = see_codec::read_tags(&mut r)?;
        let verdict = see_codec::read_verdict(&mut r)?;
        let perf: [PerfExpr; 3] = [read_perf(&mut r)?, read_perf(&mut r)?, read_perf(&mut r)?];
        let n_pf = r.count(MAX_COUNT)?;
        let mut packet_fields = Vec::with_capacity(n_pf);
        for _ in 0..n_pf {
            packet_fields.push(see_codec::read_packet_field(&mut r, &pool)?);
        }
        let final_packet = see_codec::read_final_packet(&mut r, &pool)?;
        paths.push(PathContract {
            index,
            constraints,
            tags,
            verdict,
            perf,
            packet_fields,
            final_packet,
        });
    }
    r.expect_end()?;
    Ok(NfContract { pool, paths })
}

/// Encode a chain-parallelization plan.
pub fn encode_plan(p: &ChainPlan) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(level_tag(p.level));
    w.varint(p.names.len() as u64);
    for n in &p.names {
        w.str(n);
    }
    w.varint(p.groups.len() as u64);
    for g in &p.groups {
        w.varint(g.len() as u64);
        for &i in g {
            w.varint(i as u64);
        }
    }
    w.varint(p.witnesses.len() as u64);
    for wit in &p.witnesses {
        w.varint(wit.left as u64);
        w.varint(wit.right as u64);
        w.bool(wit.commutes);
        w.bool(wit.identical);
    }
    for e in &p.stage_cycles {
        write_perf(&mut w, e);
    }
    for &m in &p.merge_cycles {
        w.varint(m);
    }
    w.into_bytes()
}

/// Decode a chain-parallelization plan. Fails (never panics) on corrupt
/// input.
pub(crate) fn decode_plan(bytes: &[u8]) -> Result<ChainPlan, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let level = level_from_tag(r.u8()?).ok_or(DecodeError::Malformed("unknown stack-level tag"))?;
    let n_stages = r.count(MAX_COUNT)?;
    let mut names = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        names.push(r.str()?.to_string());
    }
    let n_groups = r.count(MAX_COUNT)?;
    if n_groups > n_stages {
        return Err(DecodeError::Malformed("more groups than stages"));
    }
    let mut groups = Vec::with_capacity(n_groups);
    let mut covered = 0usize;
    for _ in 0..n_groups {
        let n = r.count(MAX_COUNT)?;
        let mut g = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.varint()?;
            if i >= n_stages as u64 {
                return Err(DecodeError::Malformed("group index out of range"));
            }
            g.push(i as u32);
        }
        covered += n;
        groups.push(g);
    }
    if covered != n_stages {
        return Err(DecodeError::Malformed("groups must partition the chain"));
    }
    let n_wit = r.count(MAX_COUNT)?;
    let mut witnesses = Vec::with_capacity(n_wit);
    for _ in 0..n_wit {
        let left = r.varint()?;
        let right = r.varint()?;
        if left >= n_stages as u64 || right >= n_stages as u64 {
            return Err(DecodeError::Malformed("witness index out of range"));
        }
        witnesses.push(CommuteWitness {
            left: left as u32,
            right: right as u32,
            commutes: r.bool()?,
            identical: r.bool()?,
        });
    }
    let mut stage_cycles = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        stage_cycles.push(read_perf(&mut r)?);
    }
    let mut merge_cycles = Vec::with_capacity(groups.len());
    for _ in 0..groups.len() {
        merge_cycles.push(r.varint()?);
    }
    r.expect_end()?;
    Ok(ChainPlan {
        names,
        level,
        groups,
        witnesses,
        stage_cycles,
        merge_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{ClassSpec, InputClass};
    use crate::contract::generate;
    use bolt_expr::PcvAssignment;
    use bolt_see::{Explorer, NfCtx, NfVerdict};
    use bolt_solver::Solver;
    use bolt_trace::Metric;
    use nf_lib::flow_table::{FlowTableOps, FlowTableParams};
    use nf_lib::model::DsModel;
    use proptest::prelude::*;

    fn toy_contract() -> NfContract {
        let mut reg = nf_lib::registry::DsRegistry::new();
        let params = FlowTableParams {
            capacity: 256,
            ttl_ns: 1000,
        };
        let ids = nf_lib::flow_table::register::<1>(&mut reg, "t", "", params);
        let result = Explorer::new().explore(|ctx| {
            let mut model = DsModel {
                ds: ids.ds,
                bound: params.capacity as u64,
            };
            let pkt = ctx.packet(64);
            let et = ctx.load(pkt, 12, 2);
            if ctx.branch_eq_imm(et, 0x0800, bolt_expr::Width::W16) {
                ctx.tag("valid");
                let f = ctx.load(pkt, 26, 4);
                let f64v = ctx.zext(f, bolt_expr::Width::W64);
                let now = ctx.lit(0, bolt_expr::Width::W64);
                match FlowTableOps::<_, 1>::get(&mut model, ctx, &[f64v], now) {
                    Some(_) => ctx.tag("hit"),
                    None => ctx.tag("miss"),
                }
                ctx.verdict(NfVerdict::Forward(0));
            } else {
                ctx.tag("invalid");
                ctx.verdict(NfVerdict::Drop);
            }
        });
        generate(&reg, result)
    }

    #[test]
    fn contract_round_trip_is_bit_identical() {
        let fresh = toy_contract();
        let bytes = encode_contract(&fresh);
        let decoded = decode_contract(&bytes).expect("round trip");
        assert_eq!(decoded.pool.nodes(), fresh.pool.nodes());
        assert_eq!(decoded.paths.len(), fresh.paths.len());
        for (d, f) in decoded.paths.iter().zip(&fresh.paths) {
            assert_eq!(d.index, f.index);
            assert_eq!(d.constraints, f.constraints);
            assert_eq!(d.tags, f.tags);
            assert_eq!(d.verdict, f.verdict);
            assert_eq!(d.perf, f.perf);
            assert_eq!(d.packet_fields, f.packet_fields);
            assert_eq!(d.final_packet, f.final_packet);
        }
        assert_eq!(encode_contract(&decoded), bytes);
    }

    #[test]
    fn decoded_contracts_answer_queries_identically() {
        let mut fresh = toy_contract();
        let bytes = encode_contract(&fresh);
        let mut decoded = decode_contract(&bytes).unwrap();
        let solver = Solver::default();
        let env = PcvAssignment::new();
        let classes = [
            InputClass::new("valid", ClassSpec::field_eq(12, 2, 0x0800)),
            InputClass::new("invalid", ClassSpec::field_ne(12, 2, 0x0800)),
            InputClass::new("hits", ClassSpec::Tag("hit")),
            InputClass::unconstrained(),
        ];
        for class in &classes {
            for metric in Metric::ALL {
                let a = fresh.query(&solver, class, metric, &env);
                let b = decoded.query(&solver, class, metric, &env);
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(x.path_index, y.path_index, "{}/{metric}", class.name);
                        assert_eq!(x.value, y.value, "{}/{metric}", class.name);
                        assert_eq!(x.expr, y.expr, "{}/{metric}", class.name);
                    }
                    (x, y) => panic!("{}/{metric}: {x:?} vs {y:?}", class.name),
                }
            }
            assert_eq!(
                fresh.compatible_paths(&solver, class),
                decoded.compatible_paths(&solver, class)
            );
        }
    }

    /// Hostile bytes at every position: every truncation is an error,
    /// and a single-bit flip never panics — it is rejected, or the
    /// flipped bytes are themselves the encoding of what they decode to:
    /// the format has one encoding per value.
    fn assert_hostile_bytes_are_rejected<T>(
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Result<T, DecodeError>,
        encode: impl Fn(&T) -> Vec<u8>,
    ) {
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut flipped = bytes.to_vec();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(value) = decode(&flipped) {
                assert_eq!(encode(&value), flipped, "bit {bit}: not canonical");
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn corrupt_contract_bytes_are_rejected() {
        let bytes = encode_contract(&toy_contract());
        assert_hostile_bytes_are_rejected(&bytes, decode_contract, encode_contract);
        let mut padded = bytes;
        padded.push(7);
        assert!(decode_contract(&padded).is_err());
    }

    fn toy_plan() -> ChainPlan {
        ChainPlan {
            names: vec!["firewall".into(), "firewall".into(), "router".into()],
            level: dpdk_sim::StackLevel::FullStack,
            groups: vec![vec![0, 1], vec![2]],
            witnesses: vec![
                CommuteWitness {
                    left: 0,
                    right: 1,
                    commutes: true,
                    identical: true,
                },
                CommuteWitness {
                    left: 1,
                    right: 2,
                    commutes: false,
                    identical: false,
                },
            ],
            stage_cycles: vec![
                PerfExpr::constant(410),
                PerfExpr::constant(410),
                PerfExpr::constant(620),
            ],
            merge_cycles: vec![208, 0],
        }
    }

    #[test]
    fn plan_round_trip_is_bit_identical() {
        let plan = toy_plan();
        let bytes = encode_plan(&plan);
        let decoded = decode_plan(&bytes).expect("round trip");
        assert_eq!(decoded, plan);
        assert_eq!(encode_plan(&decoded), bytes);
    }

    #[test]
    fn corrupt_plan_bytes_are_rejected() {
        let bytes = encode_plan(&toy_plan());
        assert_hostile_bytes_are_rejected(&bytes, decode_plan, encode_plan);
        let mut padded = bytes.clone();
        padded.push(9);
        assert!(decode_plan(&padded).is_err());
        // A plan whose groups do not partition the chain must not decode.
        let mut mutilated = toy_plan();
        mutilated.groups = vec![vec![0, 1]];
        mutilated.merge_cycles = vec![208];
        assert!(decode_plan(&encode_plan(&mutilated)).is_err());
    }

    /// `bytes` on its own and written over `valid` from `at` on: neither
    /// panics `decode`, and one it accepts is the encoding of its value.
    fn assert_arbitrary_bytes_decode_canonically<T>(
        valid: Vec<u8>,
        bytes: &[u8],
        at: usize,
        decode: impl Fn(&[u8]) -> Result<T, DecodeError>,
        encode: impl Fn(&T) -> Vec<u8>,
    ) {
        let mut spliced = valid;
        let at = at % spliced.len();
        let end = spliced.len().min(at + bytes.len());
        spliced[at..end].copy_from_slice(&bytes[..end - at]);
        for input in [bytes, &spliced] {
            if let Ok(value) = decode(input) {
                assert_eq!(encode(&value), input, "accepted bytes are not canonical");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_the_contract_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            at: usize,
        ) {
            let valid = encode_contract(&toy_contract());
            assert_arbitrary_bytes_decode_canonically(
                valid, &bytes, at, decode_contract, encode_contract,
            );
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_plan_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            at: usize,
        ) {
            let valid = encode_plan(&toy_plan());
            assert_arbitrary_bytes_decode_canonically(valid, &bytes, at, decode_plan, encode_plan);
        }
    }
}
