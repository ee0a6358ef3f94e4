//! What the ledger reads from the operating system: a scratch directory
//! inside the build tree, peak memory, and the per-process syscall and
//! context-switch counters (Linux `/proc`; zero elsewhere).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Environment variables that change what the program under test does;
/// cleared before anything else so an ambient store, thread count, trace
/// sink or fault plan cannot leak into the numbers.
pub fn clear_ambient_env() {
    for (key, _) in std::env::vars_os() {
        let name = key.to_string_lossy();
        if matches!(
            name.as_ref(),
            "BOLT_STORE_DIR" | "BOLT_THREADS" | "BOLT_TRACE"
        ) || name.starts_with("BOLT_FAULT_")
        {
            std::env::remove_var(&key);
        }
    }
}

/// The directory the ledger keeps its scratch files and traces in:
/// `ledger/` beside the running executable, which is inside the cargo
/// target directory and so inside the checkout. Relative to the working
/// directory when it lies below it, which keeps Unix-socket paths under
/// the 108-byte `sun_path` limit however deep the checkout sits.
pub fn ledger_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let base = exe
        .parent()
        .ok_or_else(|| io::Error::other("executable has no parent directory"))?
        .join("ledger");
    let cwd = std::env::current_dir()?;
    let dir = match base.strip_prefix(&cwd) {
        Ok(rel) => rel.to_path_buf(),
        Err(_) => base,
    };
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Restrict this process (and every thread it starts later) to one of
/// the CPUs it may run on — the highest-numbered, which tends to take
/// the fewest interrupts. Returns the CPU chosen, or `None` when the
/// platform has no such call or it failed (the run goes on unpinned).
///
/// Why: the socket workloads bounce between a client thread and a server
/// thread. Left to the scheduler on a small virtual machine, the two land
/// on one CPU in some runs (a 6 us round trip) and on two in others (45
/// us, nearly all of it the cross-CPU wake-up out of idle), so thread
/// placement, not the program, sets the number. On one CPU every run
/// measures the instructions the program executes per request.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: affinity::CpuSet = [0; 16];
        let size = std::mem::size_of::<affinity::CpuSet>();
        // SAFETY: `set` is a live, writable buffer of exactly `size`
        // bytes; pid 0 names the calling thread. The kernel writes at
        // most `size` bytes.
        if unsafe { affinity::sched_getaffinity(0, size, &mut set) } != 0 {
            return None;
        }
        let cpu = (0..size * 8)
            .rev()
            .find(|&i| set[i / 64] >> (i % 64) & 1 == 1)?;
        let mut one: affinity::CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly `size` bytes that the
        // kernel only reads.
        (unsafe { affinity::sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// CPU time the calling thread has used, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`); `None` where there is no such clock. Time
/// the thread spends blocked, on an `fsync` say, is not in it.
pub fn thread_cpu_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields
        // on every 64-bit Linux target); the kernel writes only that.
        (unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0)
            .then_some(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    None
}

/// A fresh, empty scratch directory for this process under
/// [`ledger_dir`]; removed again by [`Scratch`]'s drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Create `tmp-<pid>` under the ledger directory.
    pub fn create() -> io::Result<Scratch> {
        let dir = ledger_dir()?.join(format!("tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Whether `path` lives on a memory-backed file system (`tmpfs` or
/// `ramfs`), per the longest matching mount point in
/// `/proc/self/mounts`. On disk, `store.put`'s fsync measures the host's
/// disk rather than the program, so the output states which it was.
pub fn is_tmpfs(path: &Path) -> bool {
    let Ok(abs) = fs::canonicalize(path) else {
        return false;
    };
    let Ok(mounts) = fs::read_to_string("/proc/self/mounts") else {
        return false;
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .is_some_and(|(_, fstype)| matches!(fstype, "tmpfs" | "ramfs"))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 when `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `read`-family plus `write`-family system calls this process has made
/// (`syscr + syscw` of `/proc/self/io`); 0 when unavailable.
pub fn rw_syscalls() -> u64 {
    fs::read_to_string("/proc/self/io").map_or(0, |s| {
        status_field(&s, "syscr").unwrap_or(0) + status_field(&s, "syscw").unwrap_or(0)
    })
}

/// Voluntary plus involuntary context switches summed over every thread
/// of this process; 0 when unavailable.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t   12345 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM"), Some(12345));
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(s, "VmPeak"), None);
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn thread_cpu_time_advances_with_work_and_not_with_sleep() {
        let t0 = thread_cpu_ns().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns().unwrap() - t0;
        assert!(slept < 20_000_000, "{slept} ns of CPU while asleep");
        let wall = std::time::Instant::now();
        let mut x = 1u64;
        while wall.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let worked = thread_cpu_ns().unwrap() - t0 - slept;
        assert!(worked > 5_000_000, "{worked} ns of CPU in 30 ms of work");
    }

    #[test]
    fn ambient_knobs_are_cleared() {
        std::env::set_var("BOLT_FAULT_STORE_READ", "1");
        std::env::set_var("BOLT_THREADS", "8");
        clear_ambient_env();
        assert!(std::env::var_os("BOLT_FAULT_STORE_READ").is_none());
        assert!(std::env::var_os("BOLT_THREADS").is_none());
    }
}
