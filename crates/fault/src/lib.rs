//! Seedable deterministic fault injection.
//!
//! The store and serve layers promise to *hold* under faults — torn
//! writes, dead sockets, stalled clients. Proving that needs faults on
//! demand, reproducibly. This crate is the injection substrate: a
//! [`FaultPlan`] names *sites* (string keys like `store.rename` or
//! `serve.write.partial`) and gives each one a deterministic schedule —
//! either a probability drawn from a per-site seeded xorshift stream, or
//! "fire exactly on the Nth call". Code under test asks
//! [`FaultPlan::fires`] at each site; everything else about the fault
//! (torn write vs. error vs. stall) is the injection point's business,
//! so the plan stays a pure decision oracle.
//!
//! A plan is always explicit: build one with [`FaultPlan::seeded`] and
//! the `with_*` builders and hand it to `ContractStore::with_faults` or
//! `ServerBuilder::fault`. Without one nothing fires, and the
//! instrumented code paths cost one branch.
//!
//! Determinism: each site owns its own RNG stream, seeded from the plan
//! seed and the site name, plus a call counter. A single-threaded
//! sequence of `fires` calls is therefore a pure function of (seed,
//! plan, call order); concurrent callers still get a deterministic
//! *multiset* of decisions per site, just interleaved by the scheduler.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Well-known site names. The constants exist so injection points and
/// plans cannot drift apart on spelling; plans may also name ad-hoc
/// sites (unknown names simply never fire).
pub mod site {
    /// `ContractStore::put`: fail the record write outright (ENOSPC-ish;
    /// the temp file is cleaned up).
    pub const STORE_WRITE: &str = "store.write";
    /// `ContractStore::put`: crash mid-write — half the record bytes
    /// land in the temp file, which is deliberately *left behind* (the
    /// orphan `ContractStore::open` must quarantine).
    pub const STORE_WRITE_PARTIAL: &str = "store.write.partial";
    /// `ContractStore::put`: fail the pre-rename fsync.
    pub const STORE_FSYNC: &str = "store.fsync";
    /// `ContractStore::put`: crash between write and rename — the temp
    /// file is complete but never renamed (left behind, like a writer
    /// killed at the worst moment).
    pub const STORE_RENAME: &str = "store.rename";
    /// `ContractStore::get`: the read fails (counts as a miss).
    pub const STORE_READ: &str = "store.read";
    /// Server connection read: injected I/O error (connection reset).
    pub const SERVE_READ_ERR: &str = "serve.read.err";
    /// Server connection read: stall for [`crate::FaultPlan::stall`]
    /// first.
    pub const SERVE_READ_STALL: &str = "serve.read.stall";
    /// Server connection read: spurious EOF (mid-stream disconnect).
    pub const SERVE_READ_DISCONNECT: &str = "serve.read.disconnect";
    /// Server connection write: the frame is dropped with an error.
    pub const SERVE_WRITE_ERR: &str = "serve.write.err";
    /// Server connection write: half the bytes land, then an error — a
    /// torn frame on the client's wire.
    pub const SERVE_WRITE_PARTIAL: &str = "serve.write.partial";
    /// Server request handling: stall before servicing (drives the
    /// per-request deadline deterministically in tests).
    pub const SERVE_HANDLE_STALL: &str = "serve.handle.stall";

    /// Every site above, store sites first.
    pub const ALL: [&str; 11] = [
        STORE_WRITE,
        STORE_WRITE_PARTIAL,
        STORE_FSYNC,
        STORE_RENAME,
        STORE_READ,
        SERVE_READ_ERR,
        SERVE_READ_STALL,
        SERVE_READ_DISCONNECT,
        SERVE_WRITE_ERR,
        SERVE_WRITE_PARTIAL,
        SERVE_HANDLE_STALL,
    ];
}

/// A small, fast, seedable PRNG (xorshift64*). Not cryptographic; used
/// for fault schedules and client retry jitter.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded generator (a zero seed is remapped — xorshift has no zero
    /// state).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a-64 over a site name (seeds the per-site RNG stream; local copy
/// so this crate stays dependency-free).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One site's schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Fire each call with this probability (drawn from the site's RNG).
    Prob(f64),
    /// Fire exactly on the Nth call (1-based), once.
    At(u64),
}

#[derive(Debug)]
struct SiteState {
    mode: Mode,
    rng: XorShift64,
    calls: u64,
}

/// A deterministic fault schedule over named sites (see the module
/// docs).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    stall: Duration,
    sites: Mutex<HashMap<String, SiteState>>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no sites — nothing fires) under a seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            stall: Duration::from_millis(100),
            sites: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Schedule `site` to fire each call with probability `p` (clamped
    /// to `[0, 1]`), drawn from the site's own seeded stream.
    pub fn with_prob(self, site: &str, p: f64) -> Self {
        self.add(site, Mode::Prob(p.clamp(0.0, 1.0)))
    }

    /// Schedule `site` to fire exactly on its `nth` call (1-based).
    pub fn with_at(self, site: &str, nth: u64) -> Self {
        self.add(site, Mode::At(nth.max(1)))
    }

    /// Set the stall duration used by stall-flavoured sites.
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    fn add(self, site: &str, mode: Mode) -> Self {
        let rng = XorShift64::new(self.seed ^ fnv64(site.as_bytes()));
        self.sites.lock().expect("fault plan poisoned").insert(
            site.to_string(),
            SiteState {
                mode,
                rng,
                calls: 0,
            },
        );
        self
    }

    /// How long a stall-flavoured fault should sleep.
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// Faults fired so far, across all sites.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Ask whether `site` fires on this call. Sites the plan never named
    /// always answer `false` (and keep no state).
    pub fn fires(&self, site: &str) -> bool {
        let (fire, call) = {
            let mut sites = self.sites.lock().expect("fault plan poisoned");
            let Some(state) = sites.get_mut(site) else {
                return false;
            };
            state.calls += 1;
            let fire = match state.mode {
                Mode::Prob(p) => state.rng.next_f64() < p,
                Mode::At(n) => state.calls == n,
            };
            (fire, state.calls)
        };
        if fire {
            self.injected.fetch_add(1, Ordering::Relaxed);
            bolt_obs::trace::emit(
                "fault.inject",
                &[("site", site.into()), ("call", call.into())],
            );
        }
        fire
    }

    /// `fires` packaged as an injected [`io::Error`] — the shape every
    /// I/O shim wants: `None` means proceed, `Some(e)` means fail with
    /// `e` (whose message names the site, so test output reads).
    pub fn io_fault(&self, site: &str, what: &str) -> Option<io::Error> {
        self.fires(site)
            .then(|| io::Error::other(format!("injected fault at {site}: {what}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unnamed_sites_never_fire() {
        let plan = FaultPlan::seeded(7).with_prob("a", 1.0);
        assert!(plan.fires("a"));
        for _ in 0..100 {
            assert!(!plan.fires("b"));
        }
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn probability_schedules_are_seed_deterministic() {
        let draw = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).with_prob("s", 0.5);
            (0..64).map(|_| plan.fires("s")).collect()
        };
        assert_eq!(draw(1), draw(1), "same seed, same schedule");
        assert_ne!(draw(1), draw(2), "different seeds diverge");
        let ones = draw(1).iter().filter(|&&b| b).count();
        assert!((8..=56).contains(&ones), "p=0.5 fires sometimes: {ones}");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan::seeded(3).with_prob("a", 0.5).with_prob("b", 0.5);
        let a: Vec<bool> = (0..64).map(|_| plan.fires("a")).collect();
        let b: Vec<bool> = (0..64).map(|_| plan.fires("b")).collect();
        assert_ne!(a, b, "per-site streams must not be correlated");
    }

    #[test]
    fn at_schedules_fire_exactly_once() {
        let plan = FaultPlan::seeded(0).with_at("s", 3);
        let fired: Vec<bool> = (0..6).map(|_| plan.fires("s")).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn io_faults_name_the_site() {
        let plan = FaultPlan::seeded(0).with_at("store.rename", 1);
        let e = plan
            .io_fault(site::STORE_RENAME, "crash before rename")
            .expect("scheduled");
        assert!(e.to_string().contains("store.rename"), "{e}");
        assert!(plan.io_fault(site::STORE_RENAME, "again").is_none());
    }

    #[test]
    fn edge_probabilities_are_exact() {
        let plan = FaultPlan::seeded(9)
            .with_prob("never", 0.0)
            .with_prob("always", 1.0);
        for _ in 0..50 {
            assert!(!plan.fires("never"));
            assert!(plan.fires("always"));
        }
    }
}
