//! How fast the machine is running right now, from a fixed reference
//! kernel timed between the benchmark's operations.
//!
//! Why: the virtual machines this benchmark runs on change speed. The
//! host's clock steps (the same chain round runs at 24, 28 or 34 a second
//! for tens of seconds at a time), and something — neighbours, the
//! guest's own memory monitor — slows everything by 5 to 40 % for
//! minutes on end, code that allocates and chases pointers more than a
//! tight arithmetic loop. It is not steal time: CPU time moves with wall
//! time. Identical runs of an unchanged program so read up to 34 % apart.
//!
//! The kernel is a miniature of what the program under test does: a
//! dependent arithmetic chain over a small table, then hashing, boxing,
//! formatting and sorting on the heap. It moves with the workloads: over
//! 60 to 140 windows of a disturbed ten minutes its time correlated 0.8
//! to 0.9 with the generation and warm-serving workloads' own, and over
//! two sets of ten runs dividing by it took the run-to-run spread from up
//! to 25 % to at most 7 % (see the README). So every measured window is
//! scaled by how long the kernel took inside that window relative to
//! [`REFERENCE_NS`]. The end-to-end timings then read "at reference
//! machine speed"; the figures as timed and the slowdown are printed
//! beside them.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the machine this benchmark was written
/// on, in the state it is in most of the time. A window in which the
/// kernel took 10 % longer is credited 10 % more throughput.
pub const REFERENCE_NS: f64 = 70_000.0;

/// Kernel time owed per nanosecond of measured work: the kernel runs for
/// about a twentieth of the run.
const DUTY: f64 = 0.05;

const TABLE: usize = 8192;
const STEPS: u32 = 12_500;
const HEAP_KEYS: u64 = 400;
const HEAP_STRINGS: u64 = 100;

/// The reference kernel and its schedule.
pub struct SpeedProbe {
    table: Vec<u32>,
    x: u64,
    owed_ns: f64,
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        SpeedProbe {
            table: vec![0; TABLE],
            x: 0x9E37_79B9_7F4A_7C15,
            owed_ns: 0.0,
        }
    }

    /// One run of the kernel. Returns its nanoseconds.
    pub fn run(&mut self) -> u64 {
        let t0 = Instant::now();
        // Xorshift steps, each a dependent load and store in a 32 KiB
        // table.
        let mut x = self.x;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) % TABLE;
            self.table[i] = self.table[i].wrapping_add(x as u32) ^ self.table[(i * 7 + 1) % TABLE];
        }
        // A map of boxed values filled and probed, strings formatted and
        // sorted, everything freed again.
        let mut map: HashMap<u64, Box<[u64; 4]>> = HashMap::new();
        let mut sum = 0u64;
        for i in 0..HEAP_KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x % 1024, Box::new([x, i, x ^ i, 0]));
            if let Some(hit) = map.get(&((x >> 20) % 1024)) {
                sum = sum.wrapping_add(hit[2]);
            }
        }
        let mut strings: Vec<String> = (0..HEAP_STRINGS)
            .map(|i| format!("{i}:{}", sum.wrapping_add(i)))
            .collect();
        strings.sort();
        black_box((&map, &strings, &mut self.table));
        self.x = x;
        t0.elapsed().as_nanos() as u64
    }

    /// `busy_ns` of measured work just ended: sample the kernel as often
    /// as that work has earned, handing each sample's nanoseconds to
    /// `sample`. A sample is the second of two runs back to back: the
    /// first refills the caches the operation before it emptied, so that
    /// the sample times the machine and not what the program left behind.
    /// Returns the nanoseconds spent, which are not the program's.
    pub fn after(&mut self, busy_ns: u64, mut sample: impl FnMut(u64)) -> u64 {
        self.owed_ns += busy_ns as f64 * DUTY;
        let mut spent = 0;
        while self.owed_ns >= 2.0 * REFERENCE_NS {
            let warm_ns = self.run();
            let ns = self.run();
            sample(ns);
            spent += warm_ns + ns;
            self.owed_ns -= (warm_ns + ns) as f64;
        }
        spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_sampled_once_per_forty_kernel_times_of_work() {
        let mut probe = SpeedProbe::new();
        let mut samples = 0;
        // Short operations earn no sample each, but add up.
        for _ in 0..20 {
            probe.after(REFERENCE_NS as u64, |_| samples += 1);
        }
        assert_eq!(samples, 0);
        let spent = probe.after(20 * REFERENCE_NS as u64, |ns| {
            assert!(ns > 0);
            samples += 1;
        });
        assert_eq!(samples, 1);
        assert!(spent > 0);
    }
}
