//! The fourteen §5.1 input-class scenarios, plus the adversarial
//! single-chain variant of the pathological state (Figure 1's `NAT1adv`
//! row).
//!
//! Each scenario prepares NF state (synthesizing the pathological states
//! the paper could not build from traffic, §5.1), plays an in-class
//! workload through the production build, and compares the measured
//! worst packet against the contract's class query at the distilled PCV
//! binding — for all three metrics.
//!
//! Everything runs through the fluent pipeline: explore with
//! [`Bolt::nf`], generate with [`bolt_core::nf::Exploration::contract`],
//! build concrete state from the same descriptor, and drive it with
//! [`NfRunner::play_nf`].

use bolt_core::nf::{Bolt, Contract, NetworkFunction};
use bolt_core::{ClassSpec, InputClass};
use bolt_distiller::NfRunner;
use bolt_expr::PcvAssignment;
use bolt_nfs::bridge::{Bridge, BridgeConfig};
use bolt_nfs::lb::{LbConfig, LoadBalancer};
use bolt_nfs::lpm_router::LpmRouter;
use bolt_nfs::nat::{AllocKind, Nat, NatConfig};
use bolt_trace::{AddressSpace, Metric};
use bolt_workloads::generators::*;
use bolt_workloads::TimedPacket;
use dpdk_sim::headers as h;
use dpdk_sim::StackLevel;
use nf_lib::clock::Granularity;

/// One scenario's predicted-vs-measured outcome (`[IC, MA, cycles]`).
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario id from the paper (NAT1, Br2, …).
    pub name: &'static str,
    /// Human description.
    pub description: &'static str,
    /// Contract prediction at the distilled PCV binding.
    pub predicted: [u64; 3],
    /// Worst measured packet in the measurement phase.
    pub measured: [u64; 3],
}

impl ScenarioOutcome {
    /// Over-estimation for a metric index, as a fraction of the measured
    /// value (the paper's 7.5% / 7.6% are relative to measured).
    pub fn gap(&self, m: usize) -> f64 {
        (self.predicted[m] as f64 - self.measured[m] as f64) / self.measured[m] as f64
    }
}

fn collect<I>(
    name: &'static str,
    description: &'static str,
    contract: &mut Contract<I>,
    runner: &NfRunner,
    class: &InputClass,
    measure_from: usize,
) -> ScenarioOutcome {
    let env: PcvAssignment = runner.distiller.worst_assignment_from(measure_from as u64);
    let mut q = |m: Metric| {
        contract
            .query(class, m, &env)
            .unwrap_or_else(|| panic!("{name}: no compatible path for class {}", class.name))
            .value
    };
    let predicted = [
        q(Metric::Instructions),
        q(Metric::MemAccesses),
        q(Metric::Cycles),
    ];
    let slice = &runner.samples[measure_from..];
    let measured = [
        slice.iter().map(|s| s.ic).max().unwrap_or(0),
        slice.iter().map(|s| s.ma).max().unwrap_or(0),
        slice.iter().map(|s| s.cycles as u64).max().unwrap_or(0),
    ];
    ScenarioOutcome {
        name,
        description,
        predicted,
        measured,
    }
}

pub(crate) fn int_flow_frame(i: u32) -> (Vec<u8>, [u64; 3]) {
    let src = 0x0A00_0000u32 + i;
    let dst = 0x0808_0808u32;
    let sport = 1024 + (i % 10_000) as u16;
    let dport = 80u16;
    let frame = h::PacketBuilder::new()
        .eth(2, 1, h::ETHERTYPE_IPV4)
        .ipv4(src, dst, h::IPPROTO_UDP, 64)
        .udp(sport, dport)
        .build();
    // The same 3-word key the NF's flow_key helper builds.
    let key = [
        src as u64,
        dst as u64,
        ((h::IPPROTO_UDP as u64) << 32) | ((sport as u64) << 16) | dport as u64,
    ];
    (frame, key)
}

/// One internal packet, far in the future: a whole aged table expires.
fn mass_expiry_trigger() -> [TimedPacket; 1] {
    [TimedPacket {
        t_ns: 1_000_000_000,
        frame: int_flow_frame(0).0,
        port: 0,
    }]
}

/// Distinct flows whose table slots do not collide — the paper's typical
/// classes use traffic "that does not encounter hash collisions" (§5.1).
fn collision_free_int_flows(
    bucket_of: impl Fn(&[u64; 3]) -> usize,
    n: usize,
    gap_ns: u64,
) -> Vec<TimedPacket> {
    let mut used = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut i = 0u32;
    while out.len() < n {
        let (frame, key) = int_flow_frame(i);
        i += 1;
        if used.insert(bucket_of(&key)) {
            out.push(TimedPacket {
                t_ns: out.len() as u64 * gap_ns,
                frame,
                port: 0,
            });
        }
        assert!(i < 1_000_000, "could not find {n} collision-free flows");
    }
    out
}

/// Re-time a workload to start at `t0`.
fn retime(mut pkts: Vec<TimedPacket>, t0: u64) -> Vec<TimedPacket> {
    for p in &mut pkts {
        p.t_ns += t0;
    }
    pkts
}

fn ext_probe_flows(n: usize, t0: u64, gap_ns: u64) -> Vec<TimedPacket> {
    (0..n)
        .map(|i| {
            let frame = h::PacketBuilder::new()
                .eth(2, 1, h::ETHERTYPE_IPV4)
                .ipv4(0x0808_0808, 0xC0A8_0101, h::IPPROTO_UDP, 64)
                .udp(80, 50) // below base_port: never mapped
                .build();
            TimedPacket {
                t_ns: t0 + i as u64 * gap_ns,
                frame,
                port: 1,
            }
        })
        .collect()
}

/// One unicast frame from every host in the MAC space, so a bridge prep
/// phase deterministically learns the whole population (random chatter
/// alone leaves coupon-collector holes that would put measurement-phase
/// packets outside the `src:known` class).
fn bridge_host_sweep(mac_space: u64, gap_ns: u64) -> Vec<TimedPacket> {
    (0..mac_space)
        .map(|i| {
            let src = 0x0200_0000_0000 + i;
            let dst = 0x0200_0000_0000 + (i + 1) % mac_space;
            let frame = h::PacketBuilder::new()
                .eth(dst, src, h::ETHERTYPE_IPV4)
                .ipv4(1, 2, h::IPPROTO_UDP, 64)
                .udp(1, 2)
                .build();
            TimedPacket {
                t_ns: i * gap_ns,
                frame,
                port: (i % 2) as u16,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// NAT scenarios
// ---------------------------------------------------------------------

/// NAT2/NAT3/NAT4: typical classes on a quiet table.
pub(crate) fn nat_typical() -> Vec<ScenarioOutcome> {
    let nf = Nat::with(
        NatConfig {
            capacity: 4096,
            ttl_ns: u64::MAX / 2,
            n_ports: 4096,
            ..Default::default()
        },
        AllocKind::A,
    );
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let mut out = Vec::new();

    // NAT2: new internal flows.
    {
        let mut aspace = AddressSpace::new();
        let mut state = nf.state(contract.ids, &mut aspace);
        let flows = collision_free_int_flows(|k| state.ft.bucket_of(k), 512, 10_000);
        let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
        runner.play_nf(&nf, &mut state, &flows);
        out.push(collect(
            "NAT2",
            "new internal flows (forwarded)",
            &mut contract,
            &runner,
            &InputClass::new("new internal", ClassSpec::Tag("int:new")),
            0,
        ));

        // NAT3: the same flows again — all established.
        let prep = runner.samples.len();
        let again = retime(flows.clone(), 512 * 10_000);
        runner.play_nf(&nf, &mut state, &again);
        out.push(collect(
            "NAT3",
            "established flows (forwarded)",
            &mut contract,
            &runner,
            &InputClass::new("established", ClassSpec::Tag("int:known")),
            prep,
        ));

        // NAT4: unsolicited external packets (dropped).
        let prep = runner.samples.len();
        runner.play_nf(
            &nf,
            &mut state,
            &ext_probe_flows(512, 1_100 * 10_000, 10_000),
        );
        out.push(collect(
            "NAT4",
            "unknown external flows (dropped)",
            &mut contract,
            &runner,
            &InputClass::new("external drop", ClassSpec::Tag("ext:new")),
            prep,
        ));
    }
    out
}

/// NAT1: the synthesized pathological state — full table, all entries
/// aged, mass expiry on the next packet. `uniform` selects singleton
/// clusters (tight product-form bound) vs one adversarial probe run
/// (quadratic blow-up; the bound is ≈2× conservative).
pub(crate) fn nat_pathological(capacity: usize, uniform: bool) -> ScenarioOutcome {
    let cfg = NatConfig {
        capacity,
        ttl_ns: 1_000,
        n_ports: capacity,
        ..Default::default()
    };
    let nf = Nat::with(cfg, AllocKind::A);
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let mut aspace = AddressSpace::new();
    let mut state = nf.state(contract.ids, &mut aspace);
    let base = cfg.base_port as u64;
    // Near-full: the handful of empty slots terminates the trigger
    // packet's post-expiry probe quickly, so the lookup's `t` does not
    // conflate into the expiry cross terms.
    let fill = capacity - 8;
    state.ft.synthesize_aged(fill, uniform, |i| base + i as u64);
    for i in 0..fill {
        state.pa.raw_take(cfg.base_port + i as u16);
    }
    let pkts = mass_expiry_trigger();
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    runner.play_nf(&nf, &mut state, &pkts);
    collect(
        if uniform { "NAT1" } else { "NAT1adv" },
        if uniform {
            "unconstrained: full aged table, mass expiry"
        } else {
            "unconstrained: adversarial single probe run"
        },
        &mut contract,
        &runner,
        &InputClass::unconstrained(),
        0,
    )
}

// ---------------------------------------------------------------------
// Bridge scenarios
// ---------------------------------------------------------------------

/// Br2 (broadcast) and Br3 (known unicast) on a quiet table.
pub(crate) fn bridge_typical() -> Vec<ScenarioOutcome> {
    let nf = Bridge::with(BridgeConfig {
        capacity: 4096,
        ttl_ns: u64::MAX / 2,
        rehash_threshold: 64,
    });
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let mut aspace = AddressSpace::new();
    let mut state = nf.state(contract.ids, &mut aspace);
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);

    // Prep: deterministically learn all 256 hosts, then add unicast
    // chatter so the table looks naturally used.
    let mut prep_pkts = bridge_host_sweep(256, 10_000);
    prep_pkts.extend(retime(
        bridge_traffic(31, 256, 256, false, 10_000),
        256 * 10_000,
    ));
    runner.play_nf(&nf, &mut state, &prep_pkts);
    let mut out = Vec::new();

    // Br2: broadcast frames from known sources.
    let prep = runner.samples.len();
    let bc = retime(bridge_traffic(32, 512, 256, true, 10_000), 512 * 10_000);
    runner.play_nf(&nf, &mut state, &bc);
    out.push(collect(
        "Br2",
        "broadcast traffic",
        &mut contract,
        &runner,
        &InputClass::new(
            "broadcast",
            ClassSpec::all([
                ClassSpec::Tag("dst:broadcast"),
                ClassSpec::NotTag("src:rehash"),
            ]),
        ),
        prep,
    ));

    // Br3: unicast between known hosts.
    let prep = runner.samples.len();
    let uc = retime(bridge_traffic(33, 512, 256, false, 10_000), 1024 * 10_000);
    runner.play_nf(&nf, &mut state, &uc);
    out.push(collect(
        "Br3",
        "unicast traffic (known hosts)",
        &mut contract,
        &runner,
        &InputClass::new(
            "unicast known",
            ClassSpec::all([
                ClassSpec::Tag("src:known"),
                ClassSpec::NotTag("dst:broadcast"),
                ClassSpec::NotTag("src:rehash"),
            ]),
        ),
        prep,
    ));
    out
}

/// Br1: synthesized pathological bridge state (full aged MAC table).
pub(crate) fn bridge_pathological(capacity: usize, uniform: bool) -> ScenarioOutcome {
    let nf = Bridge::with(BridgeConfig {
        capacity,
        ttl_ns: 1_000,
        rehash_threshold: u64::MAX, // the attack state, not the defence
    });
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let mut aspace = AddressSpace::new();
    let mut state = nf.state(contract.ids, &mut aspace);
    let fill = capacity - 8;
    state
        .table
        .store_mut()
        .synthesize_aged(fill, uniform, |i| (i % 4) as u64);
    let pkts = vec![TimedPacket {
        t_ns: 1_000_000_000,
        frame: h::PacketBuilder::new()
            .eth(0xB, 0xA, h::ETHERTYPE_IPV4)
            .ipv4(1, 2, h::IPPROTO_UDP, 64)
            .udp(1, 2)
            .build(),
        port: 0,
    }];
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    runner.play_nf(&nf, &mut state, &pkts);
    collect(
        "Br1",
        "unconstrained: full aged MAC table, mass expiry",
        &mut contract,
        &runner,
        &InputClass::new("no rehash", ClassSpec::NotTag("src:rehash")),
        0,
    )
}

// ---------------------------------------------------------------------
// Load balancer scenarios
// ---------------------------------------------------------------------

/// LB2–LB5: typical classes.
pub(crate) fn lb_typical() -> Vec<ScenarioOutcome> {
    let nf = LoadBalancer::with(LbConfig {
        capacity: 4096,
        ttl_ns: u64::MAX / 2,
        hb_ttl_ns: 50_000_000,
        ..Default::default()
    });
    let cfg = nf.cfg;
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let mut aspace = AddressSpace::new();
    let mut state = nf.state(contract.ids, &mut aspace);
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    let mut out = Vec::new();

    // LB5 measurement doubles as liveness prep.
    let hb = heartbeats(
        cfg.n_backends,
        4,
        1_000_000,
        cfg.backend_port,
        cfg.hb_udp_port,
    );
    runner.play_nf(&nf, &mut state, &hb);
    out.push(collect(
        "LB5",
        "heartbeat packets from backends",
        &mut contract,
        &runner,
        &InputClass::new("heartbeats", ClassSpec::Tag("heartbeat")),
        0,
    ));

    // LB2: new flows with live backends.
    let prep = runner.samples.len();
    let t0 = 4 * 1_000_000;
    let flows = collision_free_int_flows(|k| state.ft.bucket_of(k), 512, 10_000);
    let clients = retime(flows.clone(), t0);
    runner.play_nf(&nf, &mut state, &clients);
    out.push(collect(
        "LB2",
        "new flows (live backends)",
        &mut contract,
        &runner,
        &InputClass::new("new flows", ClassSpec::Tag("new-flow")),
        prep,
    ));

    // LB4: the same flows again, backends still alive.
    let prep = runner.samples.len();
    let again = retime(flows.clone(), t0 + 512 * 10_000);
    runner.play_nf(&nf, &mut state, &again);
    out.push(collect(
        "LB4",
        "existing flows, live backend",
        &mut contract,
        &runner,
        &InputClass::new("existing alive", ClassSpec::Tag("existing:alive")),
        prep,
    ));

    // LB3: heartbeats go silent; the same flows hit dead backends.
    let prep = runner.samples.len();
    let later = retime(flows.clone(), t0 + 1024 * 10_000 + cfg.hb_ttl_ns * 2);
    runner.play_nf(&nf, &mut state, &later);
    out.push(collect(
        "LB3",
        "existing flows, unresponsive backend",
        &mut contract,
        &runner,
        &InputClass::new("existing dead", ClassSpec::Tag("existing:dead")),
        prep,
    ));
    out
}

/// LB1: synthesized pathological state.
pub(crate) fn lb_pathological(capacity: usize, uniform: bool) -> ScenarioOutcome {
    let nf = LoadBalancer::with(LbConfig {
        capacity,
        ttl_ns: 1_000,
        ..Default::default()
    });
    let cfg = nf.cfg;
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let mut aspace = AddressSpace::new();
    let mut state = nf.state(contract.ids, &mut aspace);
    let n = cfg.n_backends as u64;
    let fill = capacity - 8;
    state.ft.synthesize_aged(fill, uniform, |i| i as u64 % n);
    let pkts = mass_expiry_trigger();
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    runner.play_nf(&nf, &mut state, &pkts);
    collect(
        "LB1",
        "unconstrained: full aged flow table, mass expiry",
        &mut contract,
        &runner,
        &InputClass::unconstrained(),
        0,
    )
}

// ---------------------------------------------------------------------
// LPM scenarios
// ---------------------------------------------------------------------

/// LPM1 (worst: long matches) and LPM2 (short matches). The reproduction
/// runs the table at a 16-bit first level; the class boundary (one load
/// vs two) is identical in shape to the paper's 24-bit table.
pub(crate) fn lpm_scenarios() -> Vec<ScenarioOutcome> {
    let nf = LpmRouter::default();
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let mut aspace = AddressSpace::new();
    let mut state = nf.state(contract.ids, &mut aspace);
    state.lpm.insert(0x0A000000, 8, 1); // short
    state.lpm.insert(0x0B0C0000, 24, 2); // long (> 16-bit first level)
    let mut out = Vec::new();

    // LPM1: worst case — every packet takes the two-load path (the
    // CASTAN-substitute adversarial workload).
    {
        let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Nanoseconds);
        let pkts = lpm_traffic(41, 512, 0x0A000100, 0x0B0C0001, 1.0, 1000);
        runner.play_nf(&nf, &mut state, &pkts);
        out.push(collect(
            "LPM1",
            "unconstrained (worst: matched prefix > first level)",
            &mut contract,
            &runner,
            &InputClass::unconstrained(),
            0,
        ));
    }
    // LPM2: all matches within the first level.
    {
        let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Nanoseconds);
        let pkts = lpm_traffic(42, 512, 0x0A000100, 0x0B0C0001, 0.0, 1000);
        runner.play_nf(&nf, &mut state, &pkts);
        out.push(collect(
            "LPM2",
            "matched prefix within first level",
            &mut contract,
            &runner,
            &InputClass::new("short matches", ClassSpec::Tag("lpm:short")),
            0,
        ));
    }
    out
}

/// All Figure 1 / Table 3 scenarios, in the paper's order.
/// `path_capacity` scales the pathological tables (the paper uses 65536;
/// `reproduce` uses 8192 — the shape is capacity-independent).
pub fn all_scenarios(path_capacity: usize) -> Vec<ScenarioOutcome> {
    let mut rows = Vec::new();
    rows.push(nat_pathological(path_capacity, true));
    rows.extend(nat_typical());
    rows.push(bridge_pathological(path_capacity, true));
    rows.extend(bridge_typical());
    rows.push(lb_pathological(path_capacity, true));
    rows.extend(lb_typical());
    rows.extend(lpm_scenarios());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_scenarios_are_conservative_and_tight() {
        for s in nat_typical()
            .into_iter()
            .chain(bridge_typical())
            .chain(lpm_scenarios())
        {
            for m in 0..3 {
                assert!(
                    s.predicted[m] >= s.measured[m],
                    "{}: metric {m} bound violated: {} < {}",
                    s.name,
                    s.predicted[m],
                    s.measured[m]
                );
            }
            // IC/MA gaps stay small on typical classes (§5.1: ≤7.6%; we
            // allow a little slack for the coalesced age-list variance).
            assert!(
                s.gap(0) <= 0.12,
                "{}: IC gap {:.1}% too large ({} vs {})",
                s.name,
                s.gap(0) * 100.0,
                s.predicted[0],
                s.measured[0]
            );
        }
    }

    #[test]
    fn pathological_scenarios_blow_up_and_stay_bounded() {
        let p = nat_pathological(1024, true);
        let typical_ic = nat_typical()[0].measured[0];
        assert!(
            p.measured[0] > typical_ic * 100,
            "mass expiry must dominate typical cost: {} vs {typical_ic}",
            p.measured[0]
        );
        for m in 0..3 {
            assert!(p.predicted[m] >= p.measured[m], "{m}");
        }
        // Uniform clusters keep the bound tight (paper: ≤2.4% IC).
        assert!(p.gap(0) <= 0.10, "NAT1 gap {:.2}%", p.gap(0) * 100.0);
    }
}
