//! Figure 4 and Tables 7–8: VigNAT's expiry batching (§5.3), read off the
//! same two runs of one workload — flow timestamps at second and at
//! millisecond granularity.
//!
//! Figure 4 — CCDF of per-packet latency. Batched expiry makes ~1.5% of
//! packets pay a huge latency tail; the granularity fix removes the tail
//! at the cost of a slightly higher median (more packets do a little
//! expiry work).
//!
//! Tables 7 and 8 — the Distiller's expired-flow reports that exposed the
//! batching. With second-granularity timestamps, flows stamped within the
//! same second expire in one batch when the clock ticks (Table 7's
//! spike); millisecond granularity spreads expiry out (Table 8).

use crate::table_fmt::{outln, table};
use bolt_core::nf::NetworkFunction;
use bolt_distiller::{ccdf_samples, percentile, NfRunner};
use bolt_expr::{PcvId, PcvTable};
use bolt_nfs::nat::{AllocKind, Nat, NatConfig};
use bolt_trace::AddressSpace;
use bolt_workloads::generators::uniform_udp_flows;
use dpdk_sim::StackLevel;
use nf_lib::clock::Granularity;
use nf_lib::registry::DsRegistry;

/// One "second" bucket (2^30 ns) of simulated time.
const SECOND: u64 = 1 << 30;

/// The workload at both timestamp granularities.
pub(crate) struct ExpiryRuns {
    /// Second granularity (the original).
    coarse: NfRunner,
    /// Millisecond granularity (the fix).
    fine: NfRunner,
    /// The flow table's expired-entries PCV, and the table naming it.
    e: PcvId,
    pcvs: PcvTable,
}

pub(crate) fn run() -> ExpiryRuns {
    let nf = Nat::with(
        NatConfig {
            capacity: 4096,
            ttl_ns: 2 * SECOND,
            n_ports: 4096,
            ..Default::default()
        },
        AllocKind::A,
    );
    let mut reg = DsRegistry::new();
    let ids = nf.register(&mut reg);
    // ~64 packets per second over a 256-flow space: roughly 56 distinct
    // flows get stamped per second bucket.
    let pkts = uniform_udp_flows(71, 20_000, 256, SECOND / 64, 0);
    let play = |granularity| {
        let mut state = nf.state(ids, &mut AddressSpace::new());
        let mut runner = NfRunner::new(StackLevel::FullStack, granularity);
        runner.play_nf(&nf, &mut state, &pkts);
        runner
    };
    ExpiryRuns {
        coarse: play(Granularity::Seconds),
        fine: play(Granularity::Milliseconds),
        e: ids.ft.e,
        pcvs: reg.pcvs,
    }
}

pub(crate) fn fig4(out: &mut String, runs: &ExpiryRuns) {
    let coarse = runs.coarse.cycle_samples();
    let fine = runs.fine.cycle_samples();
    let quantiles = [0.50, 0.90, 0.99, 0.995, 0.999, 1.0];
    let rows: Vec<Vec<String>> = quantiles
        .iter()
        .map(|&q| {
            vec![
                format!("p{:.1}", q * 100.0),
                format!("{:.0}", percentile(&coarse, q)),
                format!("{:.0}", percentile(&fine, q)),
            ]
        })
        .collect();
    table(
        out,
        "Figure 4 — per-packet latency (testbed cycles): second vs millisecond timestamps",
        &[
            "quantile",
            "second granularity (original)",
            "ms granularity (fixed)",
        ],
        &rows,
    );
    // CCDF tail fractions above a threshold between typical and batch cost.
    let tail = |samples: &[f64], thr: f64| {
        ccdf_samples(samples)
            .iter()
            .rfind(|&&(v, _)| v <= thr)
            .map(|&(_, f)| f)
            .unwrap_or(1.0)
    };
    let thr = percentile(&fine, 1.0) * 2.0;
    outln!(
        out,
        "\nfraction of packets above {thr:.0} cycles: original {:.3}%, fixed {:.3}%",
        tail(&coarse, thr) * 100.0,
        tail(&fine, thr) * 100.0
    );
    let c_max = percentile(&coarse, 1.0);
    let f_max = percentile(&fine, 1.0);
    let c_med = percentile(&coarse, 0.5);
    let f_med = percentile(&fine, 0.5);
    outln!(
        out,
        "worst-case latency: original {c_max:.0} vs fixed {f_max:.0} cycles ({:.1}x tail reduction)",
        c_max / f_max
    );
    outln!(
        out,
        "median latency: original {c_med:.0} vs fixed {f_med:.0} cycles (paper: median rises, tail disappears)"
    );
    assert!(c_max > 4.0 * f_max, "the batching tail must dominate");
    assert!(f_med >= c_med, "the fix trades median for tail");
}

pub(crate) fn tables7_8(out: &mut String, runs: &ExpiryRuns) {
    let (coarse, fine) = (&runs.coarse.distiller, &runs.fine.distiller);
    outln!(
        out,
        "\n=== Table 7 — Distiller: expired flows per packet, SECOND-granularity timestamps ==="
    );
    outln!(out, "(paper: 98.5% zero, a 0.93% spike at 64 — batching)\n");
    out.push_str(&coarse.report(&runs.pcvs, runs.e, 66));
    let pdf = coarse.pdf(runs.e);
    let zero_frac = pdf
        .iter()
        .find(|(v, _)| *v == 0)
        .map(|(_, f)| *f)
        .unwrap_or(0.0);
    let batch_frac: f64 = pdf.iter().filter(|(v, _)| *v >= 16).map(|(_, f)| f).sum();
    outln!(
        out,
        "\nzero-expiry packets: {:.2}% | batch (e >= 16) packets: {:.3}%",
        zero_frac * 100.0,
        batch_frac * 100.0
    );
    assert!(zero_frac > 0.9, "batching must make expiry rare-but-bursty");
    assert!(batch_frac > 0.001, "bursts must exist");

    outln!(
        out,
        "\n=== Table 8 — after the fix: MILLISECOND-granularity timestamps ==="
    );
    outln!(out, "(paper: 16.1% zero, 83.6% one, tail gone)\n");
    out.push_str(&fine.report(&runs.pcvs, runs.e, 4));
    let max_batch = fine.worst(runs.e);
    outln!(
        out,
        "\nworst per-packet expiry batch after the fix: {max_batch}"
    );
    assert!(
        max_batch <= 8,
        "millisecond granularity must spread expiry out (got {max_batch})"
    );
    let coarse_max = coarse.worst(runs.e);
    assert!(
        coarse_max >= 16,
        "second granularity must batch expiry (got {coarse_max})"
    );
}
