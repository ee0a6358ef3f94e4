//! The five workloads and the frame they all run in.
//!
//! An untraced run sets the workload up, measures on it for the whole of
//! `--seconds`, notes the peak memory and tears it down; the throughput
//! and latency metrics are medians over that loop's windows, each scaled
//! to reference machine speed (see `speed`). It then sets up and tears
//! down several times more: `setup_s` is the median of all the set-ups.
//! A traced run sets up once.

use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::metrics::{LayerValues, MetricDef};
use crate::speed::{self, SpeedProbe};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

pub mod gen_catalog;
pub mod gen_chain;
pub mod replay;
pub mod serve;

/// The workloads, in the order an all-workload run executes them, each
/// with the one-line reason `BENCHMARK.json` records for it.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "gen_catalog",
        "cold generation of all 16 catalog contracts: loads the explorer, term interning, generate and the result codec; the solver is nearly idle and serving is absent",
    ),
    (
        "gen_chain",
        "cold composition and planning of three firewall/router chains: loads core::chain, the composer and the solver; exploration is a few percent, so it bypasses what gen_catalog loads",
    ),
    (
        "serve_warm",
        "memo-hit queries over a Unix socket: loads the frame codec, event loop, sockets and cache lookup; store, solver and explorer do nothing",
    ),
    (
        "serve_churn",
        "same server, cache budget of half the store, query/diff/list/provenance mix: loads store reads, record decode, generate, query, rendering and cache eviction",
    ),
    (
        "replay_dataplane",
        "seeded traffic through the NAT, bridge, load-balancer and LPM production builds under the runner: loads dpdk-sim, nf-lib, nfs, hw and distiller; nothing else runs",
    ),
];

/// The workload names.
pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.0).collect()
}

/// Set-ups per untraced run: repeated until there are at least
/// [`MIN_SETUPS`] and they have taken [`SETUP_BUDGET_S`] together, and at
/// most [`MAX_SETUPS`]. A set-up of 15 ms is mostly file-system calls and
/// its time moves by a quarter from one to the next (the median of 5 read
/// 17 % apart in two sets of ten runs), so the cheap ones are repeated
/// more often than the 0.6 s one.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;
/// Reference-kernel runs after each set-up, to scale its time by.
const KERNEL_RUNS_PER_SETUP: usize = 8;

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Drives every shuffle, request sequence and traffic generator.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl RunConfig {
    /// Width of a window: half a second, or a twentieth of a short run.
    /// Long enough for a hundred reference-kernel samples, short enough
    /// that the slowest loop (ten seconds of 15 ms rounds, a third of it
    /// spent checking) still has a dozen to take a median over.
    pub fn window_ns(&self) -> u64 {
        (self.seconds.min(10.0) / 20.0 * 1e9) as u64
    }
}

/// Pass/fail bookkeeping for checked operations. A failure is counted
/// and described; it never aborts the rest of the run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Failure descriptions kept for the report.
    const MAX_NOTES: usize = 8;

    /// Count one checked operation.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.failed += 1;
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(note);
            }
        }
    }

    /// Count one checked operation from a condition.
    pub fn ensure(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.check(if ok { Ok(()) } else { Err(note()) });
    }

    /// The first few failure descriptions.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Per-window samples of a measured loop. Window `k` closes at the first
/// completion at or after `k x window_ns` on the caller's clock, so it
/// holds whole operations only: its rate is the operations it completed
/// over the time they took (since the previous window closed), and its
/// percentiles are over the latencies recorded in it. The ragged last
/// window is dropped.
///
/// Each window also has a slowdown: the median of the reference-kernel
/// runs inside it over [`speed::REFERENCE_NS`] (see `speed`). The figures
/// here are as timed; [`EndToEnd`] scales them to reference speed.
pub struct Windows {
    window_ns: u64,
    /// The clock value at which the current window is due to close.
    due_ns: u64,
    opened_ns: u64,
    ops: u64,
    latencies_ns: Vec<u32>,
    kernel_ns: Vec<u64>,
    /// The last closed window's slowdown, for a window too short to
    /// have run the kernel.
    slowdown: f64,
    /// Slowdown of the machine against the reference, one per closed
    /// window.
    pub slowdowns: Vec<f64>,
    /// Operations per second, one per closed window.
    pub rates: Vec<f64>,
    /// Latency percentiles in microseconds, one per closed window that
    /// recorded any latency.
    pub p50_us: Vec<f64>,
    pub p90_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    /// Per window, the highest percentile with ten samples beyond it,
    /// and its value in microseconds.
    pub tail_us: Vec<(f64, f64)>,
    /// Latency samples in closed windows.
    pub samples: usize,
    /// Operations completed in all, the ragged last window included.
    pub completed: u64,
}

impl Windows {
    /// Windows of `window_ns` on the caller's clock, which starts at 0.
    pub fn new(window_ns: u64) -> Windows {
        Windows {
            window_ns,
            due_ns: window_ns,
            opened_ns: 0,
            ops: 0,
            latencies_ns: Vec::new(),
            kernel_ns: Vec::new(),
            slowdown: 1.0,
            slowdowns: Vec::new(),
            rates: Vec::new(),
            p50_us: Vec::new(),
            p90_us: Vec::new(),
            p99_us: Vec::new(),
            tail_us: Vec::new(),
            samples: 0,
            completed: 0,
        }
    }

    /// Windows closed only by [`Windows::close`] (one per pass, say).
    pub fn manual() -> Windows {
        Windows::new(u64::MAX)
    }

    /// `ops` operations completed at `clock_ns`.
    pub fn complete(&mut self, clock_ns: u64, ops: u64) {
        self.ops += ops;
        self.completed += ops;
        if clock_ns >= self.due_ns {
            self.close(clock_ns);
            // A completion may be overdue by whole windows (one very long
            // operation): they were not empty, they were inside it.
            self.due_ns = (clock_ns / self.window_ns + 1).saturating_mul(self.window_ns);
        }
    }

    /// One latency sample, recorded before the completion it belongs to.
    pub fn latency_ns(&mut self, ns: u64) {
        self.latencies_ns.push(ns.min(u64::from(u32::MAX)) as u32);
    }

    /// One run of the reference kernel inside the current window.
    pub fn kernel_ns(&mut self, ns: u64) {
        self.kernel_ns.push(ns);
    }

    /// Close the current window at `clock_ns`.
    pub fn close(&mut self, clock_ns: u64) {
        if !self.kernel_ns.is_empty() {
            self.kernel_ns.sort_unstable();
            self.slowdown = stats::percentile(&self.kernel_ns, 50.0) as f64 / speed::REFERENCE_NS;
            self.kernel_ns.clear();
        }
        let span_ns = clock_ns - self.opened_ns;
        if span_ns > 0 && self.ops > 0 {
            self.rates.push(self.ops as f64 / (span_ns as f64 / 1e9));
            self.slowdowns.push(self.slowdown);
        }
        if !self.latencies_ns.is_empty() {
            self.latencies_ns.sort_unstable();
            let at = |p: f64| f64::from(stats::percentile(&self.latencies_ns, p)) / 1e3;
            self.p50_us.push(at(50.0));
            self.p90_us.push(at(90.0));
            self.p99_us.push(at(99.0));
            if let Some(p) = stats::highest_supported_percentile(self.latencies_ns.len()) {
                self.tail_us.push((p, at(p)));
            }
            self.samples += self.latencies_ns.len();
        }
        self.opened_ns = clock_ns;
        self.ops = 0;
        self.latencies_ns.clear();
    }
}

/// Run `round` until `seconds` of wall time have passed, on the clock of
/// its own returned durations: `round` times the operation, does its
/// checks untimed, and returns the operation's nanoseconds. The checks
/// between operations are not the program's work, so the windows do not
/// see them.
pub fn busy_clock_windows(
    cfg: &RunConfig,
    seconds: f64,
    mut round: impl FnMut() -> u64,
) -> Windows {
    let mut windows = Windows::new(cfg.window_ns());
    let mut probe = SpeedProbe::new();
    let mut clock_ns = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let ns = round();
        clock_ns += ns;
        windows.latency_ns(ns);
        probe.after(ns, |kernel| windows.kernel_ns(kernel));
        windows.complete(clock_ns, 1);
    }
    windows
}

/// What an untraced slice measured: per-window samples, medians of which
/// are the end-to-end metrics.
pub struct EndToEnd {
    /// What one operation is, for the printed report.
    pub op: &'static str,
    /// Operations per second at reference speed, one per window.
    pub rates: Vec<f64>,
    /// Median latency in microseconds at reference speed, one per window.
    pub p50_us: Vec<f64>,
    /// The same two as timed.
    pub raw_rates: Vec<f64>,
    pub raw_p50_us: Vec<f64>,
    /// Every window's slowdown.
    pub slowdowns: Vec<f64>,
    /// Per window, the highest supported percentile and its value as
    /// timed.
    pub tail_us: Vec<(f64, f64)>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// What else the report should say about this loop.
    pub notes: Vec<String>,
}

impl EndToEnd {
    /// Throughput and latency from one loop's windows.
    pub fn from_windows(op: &'static str, w: &Windows) -> EndToEnd {
        let mut e = EndToEnd::from_phases(op, w, w);
        e.slowdowns.clone_from(&w.slowdowns);
        e
    }

    /// Throughput from one loop's windows and latency from another's. A
    /// slow machine (slowdown above 1) is credited the throughput and
    /// spared the latency it cost.
    pub fn from_phases(op: &'static str, throughput: &Windows, latency: &Windows) -> EndToEnd {
        let scaled = |values: &[f64], slowdowns: &[f64], rate: bool| {
            values
                .iter()
                .zip(slowdowns)
                .map(|(v, s)| if rate { v * s } else { v / s })
                .collect()
        };
        EndToEnd {
            op,
            rates: scaled(&throughput.rates, &throughput.slowdowns, true),
            p50_us: scaled(&latency.p50_us, &latency.slowdowns, false),
            raw_rates: throughput.rates.clone(),
            raw_p50_us: latency.p50_us.clone(),
            slowdowns: [&throughput.slowdowns[..], &latency.slowdowns[..]].concat(),
            tail_us: latency.tail_us.clone(),
            samples: latency.samples,
            notes: Vec::new(),
        }
    }
}

/// One of the five workloads.
pub trait Workload: Sized {
    /// Build the inputs and reference answers from the seed, start what
    /// must run, and warm up (the warm-up's outputs are checked like any
    /// other). `dir` is an empty directory of its own. `Err` only when
    /// nothing can be measured at all.
    fn setup(cfg: &RunConfig, dir: &Path, checks: &mut Checks) -> Result<Self, String>;

    /// Measure for `seconds` with tracing off.
    fn measure(&mut self, cfg: &RunConfig, seconds: f64, checks: &mut Checks) -> EndToEnd;

    /// Run fixed operation counts with spans around each layer's calls,
    /// then the layer's direct probes; fill in the per-layer values.
    fn trace(
        &mut self,
        cfg: &RunConfig,
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut LayerValues,
    );

    /// Stop what set-up started.
    fn teardown(self) {}
}

/// The outcome of one workload run, ready to print.
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// `(definition, value)` in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Human-readable lines that are not metrics (sample counts, the
    /// supported tail percentile, where the scratch directory lives).
    pub remarks: Vec<String>,
}

/// The machine's slowdown right now: the median of a few warm runs of
/// the reference kernel over [`speed::REFERENCE_NS`].
fn slowdown_now(probe: &mut SpeedProbe) -> f64 {
    probe.run();
    let mut kernel_ns: Vec<u64> = (0..KERNEL_RUNS_PER_SETUP).map(|_| probe.run()).collect();
    kernel_ns.sort_unstable();
    stats::percentile(&kernel_ns, 50.0) as f64 / speed::REFERENCE_NS
}

/// Set the workload up once in a directory of its own; returns it with
/// the set-up's seconds as timed and at reference speed.
fn timed_setup<W: Workload>(
    cfg: &RunConfig,
    dir: &Path,
    checks: &mut Checks,
    probe: &mut SpeedProbe,
) -> Result<(W, f64, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let workload = W::setup(cfg, dir, checks)?;
    let seconds = t0.elapsed().as_secs_f64();
    Ok((workload, seconds, seconds / slowdown_now(probe)))
}

fn execute<W: Workload>(name: &'static str, cfg: &RunConfig) -> Result<RunResult, String> {
    let scratch = sys::Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let on_tmpfs = sys::is_tmpfs(scratch.path());
    let mut remarks = vec![
        format!(
            "scratch directory {} ({})",
            scratch.path().display(),
            if on_tmpfs { "tmpfs" } else { "disk" }
        ),
        match sys::pin_to_one_cpu() {
            Some(cpu) => format!("pinned to CPU {cpu}"),
            None => "not pinned to a CPU: expect the socket figures to move between runs".into(),
        },
    ];

    let mut checks = Checks::default();
    let mut metrics = Vec::new();
    let mut probe = SpeedProbe::new();
    let (mut workload, raw_s, at_reference_s) = timed_setup::<W>(
        cfg,
        &scratch.path().join("setup-0"),
        &mut checks,
        &mut probe,
    )?;

    if cfg.trace {
        let mut tracer = Tracer::recording();
        let mut layers = LayerValues::new();
        let before = slowdown_now(&mut probe);
        workload.trace(cfg, &mut checks, &mut tracer, &mut layers);
        // Layer times are as timed; this says how fast the machine ran.
        layers.set(
            "ledger.machine_slowdown",
            (before + slowdown_now(&mut probe)) / 2.0,
        );
        layers.set("ledger.tmp_is_tmpfs", f64::from(u8::from(on_tmpfs)));
        workload.teardown();
        let path = sys::ledger_dir()
            .map_err(|e| format!("ledger directory: {e}"))?
            .join(format!("trace-{name}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        remarks.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        metrics.extend(layers.iter());
    } else {
        let e2e = workload.measure(cfg, cfg.seconds, &mut checks);
        // The peak of one instance: its set-up and its measured loop. The
        // set-ups below come after, so that what their teardowns leave in
        // the heap is not counted.
        let peak_rss_mb = sys::peak_rss_mb();
        workload.teardown();

        // `setup_s` is the median over this and further set-ups, each
        // torn down again.
        let (mut raw_setup_s, mut setup_s) = (vec![raw_s], vec![at_reference_s]);
        while setup_s.len() < MAX_SETUPS
            && (setup_s.len() < MIN_SETUPS || raw_setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            let dir = scratch.path().join(format!("setup-{}", setup_s.len()));
            let (again, raw_s, at_reference_s) =
                timed_setup::<W>(cfg, &dir, &mut checks, &mut probe)?;
            again.teardown();
            raw_setup_s.push(raw_s);
            setup_s.push(at_reference_s);
        }

        remarks.push(format!(
            "one operation = {}; medians over {} throughput windows and {} latency windows ({} \
             latency samples) of {} ms or more; setup_s is the median of {} set-ups",
            e2e.op,
            e2e.rates.len(),
            e2e.p50_us.len(),
            e2e.samples,
            cfg.window_ns() / 1_000_000,
            setup_s.len(),
        ));
        // The tail the samples support: the percentile most windows
        // reached, and the median of its values.
        if let Some(&(p, _)) = e2e.tail_us.get(e2e.tail_us.len() / 2) {
            let at_p: Vec<f64> = e2e
                .tail_us
                .iter()
                .filter(|t| t.0 == p)
                .map(|t| t.1)
                .collect();
            remarks.push(format!(
                "highest percentile with ten samples beyond it in a window: p{p}, median {:.3} us \
                 as timed",
                stats::median(&at_p)
            ));
        }
        remarks.extend(e2e.notes);
        remarks.push(format!(
            "timings are at reference machine speed; as timed: ops_per_s {:.4}, op_p50_us {:.4}, \
             setup_s {:.4}, median slowdown {:.4}",
            stats::median(&e2e.raw_rates),
            stats::median(&e2e.raw_p50_us),
            stats::median(&raw_setup_s),
            stats::median(&e2e.slowdowns),
        ));
        let values = [
            stats::median(&e2e.rates),
            stats::median(&e2e.p50_us),
            stats::median(&setup_s),
            peak_rss_mb,
        ];
        metrics.extend(crate::metrics::END_TO_END.iter().zip(values));
    }

    Ok(RunResult {
        workload: name,
        attempted: checks.attempted.max(1),
        failed: checks.failed + u64::from(checks.attempted == 0),
        notes: checks.notes().to_vec(),
        metrics,
        remarks,
    })
}

/// Run one workload by name.
pub fn run(name: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    match name {
        "gen_catalog" => execute::<gen_catalog::GenCatalog>("gen_catalog", cfg),
        "gen_chain" => execute::<gen_chain::GenChain>("gen_chain", cfg),
        "serve_warm" => execute::<serve::ServeWarm>("serve_warm", cfg),
        "serve_churn" => execute::<serve::ServeChurn>("serve_churn", cfg),
        "replay_dataplane" => execute::<replay::Replay>("replay_dataplane", cfg),
        other => Err(format!(
            "unknown workload {other:?}; known: {}",
            names().join(", ")
        )),
    }
}

/// Fisher–Yates shuffle from the run's generator (the `rand` stand-in
/// has no `SliceRandom`).
pub fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Regenerate the golden files from the program as built. Doing so
/// redefines what the benchmark accepts as correct: it is a benchmark
/// change, never part of a change that claims a gain.
pub fn write_golden() -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    for (file, text) in [
        ("catalog.txt", gen_catalog::golden_text()),
        ("chain.txt", gen_chain::golden_text()?),
        ("replay.txt", replay::Replay::golden_text()?),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_closes_at_the_first_completion_past_its_end() {
        let mut w = Windows::new(1_000);
        // 3 operations by t=900, then one that straddles the boundary
        // and completes at t=1_250: the window holds all four and lasted
        // 1_250 ns.
        for (t, lat) in [(300, 300), (600, 300), (900, 300), (1_250, 350)] {
            w.latency_ns(lat);
            w.complete(t, 1);
        }
        assert_eq!(w.rates.len(), 1);
        assert!((w.rates[0] - 4.0 / 1_250e-9).abs() < 1e-3);
        assert_eq!(w.p50_us, vec![0.3]);
        assert_eq!(w.p90_us, vec![0.35]);
        assert_eq!(w.samples, 4);
        // The next window is due at 2_000 on the clock, not 1_000 after
        // the late close, so a loop that runs for exactly two windows
        // closes two. It lasted from 1_250 to 2_000.
        w.latency_ns(100);
        w.complete(1_350, 1);
        assert_eq!(w.rates.len(), 1);
        w.complete(2_000, 8);
        assert_eq!(w.rates.len(), 2);
        assert!((w.rates[1] - 9.0 / 750e-9).abs() < 1e-3);
        // A ragged rest never closes and is not counted, except in the
        // total.
        w.complete(2_400, 1);
        assert_eq!(w.rates.len(), 2);
        assert_eq!(w.completed, 14);
        // One operation longer than a window: the windows inside it are
        // skipped, not reported as empty.
        w.complete(5_100, 1);
        assert_eq!(w.rates.len(), 3);
        w.complete(5_900, 1);
        assert_eq!(w.rates.len(), 3);
        w.complete(6_000, 1);
        assert_eq!(w.rates.len(), 4);
    }

    #[test]
    fn manual_windows_close_only_when_told() {
        let mut w = Windows::manual();
        w.complete(5_000_000_000, 10);
        assert!(w.rates.is_empty());
        w.close(5_000_000_000);
        assert_eq!(w.rates, vec![2.0]);
        assert!(w.p50_us.is_empty(), "no latency recorded, no percentile");
    }

    #[test]
    fn a_slow_machine_is_credited_throughput_and_spared_latency() {
        let mut w = Windows::manual();
        // The kernel took twice its reference time in the first window,
        // and did not run in the second, which inherits the slowdown.
        for _ in 0..3 {
            w.kernel_ns((2.0 * speed::REFERENCE_NS) as u64);
        }
        w.latency_ns(4_000);
        w.complete(1_000_000_000, 10);
        w.close(1_000_000_000);
        w.latency_ns(6_000);
        w.complete(2_000_000_000, 20);
        w.close(2_000_000_000);
        assert_eq!(w.slowdowns, vec![2.0, 2.0]);
        assert_eq!(w.rates, vec![10.0, 20.0]);
        let e = EndToEnd::from_windows("op", &w);
        assert_eq!(e.rates, vec![20.0, 40.0]);
        assert_eq!(e.p50_us, vec![2.0, 3.0]);
        assert_eq!(e.raw_rates, vec![10.0, 20.0]);
        assert_eq!(e.raw_p50_us, vec![4.0, 6.0]);
        assert_eq!(e.slowdowns.len(), 2);
        // Throughput from one loop, latency from another.
        let mut quiet = Windows::manual();
        quiet.kernel_ns(speed::REFERENCE_NS as u64);
        quiet.complete(1_000_000_000, 7);
        quiet.close(1_000_000_000);
        let e = EndToEnd::from_phases("op", &quiet, &w);
        assert_eq!(e.rates, vec![7.0]);
        assert_eq!(e.p50_us, vec![2.0, 3.0]);
        assert_eq!(e.slowdowns, vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        use rand::SeedableRng;
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut SmallRng::seed_from_u64(9), &mut a);
        shuffle(&mut SmallRng::seed_from_u64(9), &mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }
}
