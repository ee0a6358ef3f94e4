//! The ordered speculate/commit engine.
//!
//! Bolt's two generation loops — path exploration (`bolt_see`) and
//! pairwise chain composition (`bolt_core`) — are the same shape: a LIFO
//! stack of *keys*, each naming one *step*; committing a step updates
//! shared state (a [`TermPool`](crate::TermPool), a
//! [`SymTable`](crate::SymTable), a solver cache, result lists) and may
//! push child keys. [`run`] owns that skeleton. Steps are committed one
//! at a time, on the caller's thread, in exact stack order; an optional
//! pool of scoped workers *speculates* steps from the top of the stack
//! ahead of the committer, each against private state.
//!
//! `commit` receives every key with `Some(speculation)` or `None`.
//! `None` — there are no workers, the key was still queued when its turn
//! came, or its worker panicked — means "do this step here, directly on
//! the shared state", which is the sequential step. So a worker's panic
//! resurfaces on the caller's thread when the step re-runs there, and a
//! release build never speculates on the committer only to absorb the
//! result (a debug build does, to check the client's obligation below).
//! With `workers == 0` nothing is spawned and no lock is taken: the
//! engine *is* the sequential algorithm, and the thread count is a
//! worker count, never a choice between implementations.
//!
//! # Determinism
//!
//! Output is bit-identical at any worker count because of one
//! obligation on the client and one property of the engine.
//!
//! *The client's obligation:* whichever route a step takes, the shared
//! state afterwards — pool arena, symbol table, solver cache and its
//! counters, results — equals what the direct step leaves. Both clients
//! discharge it the same way. A speculation runs the very code of the
//! direct step against a private pool, symbol table and solver cache;
//! that is valid at any time and in any order because a step's outcome
//! depends only on its key and immutable inputs (every solver fast path
//! is classification-identical to a batch solve, so verdicts do not
//! depend on which siblings warmed a cache). The absorbed route then
//! (1) re-interns the private pool with
//! [`TermPool::absorb_with`](crate::TermPool::absorb_with), resolving
//! symbols through the shared [`SymTable`](crate::SymTable), so the
//! shared arena gains exactly the nodes the direct step would have
//! interned, in the same order; and (2) replays the step's solver
//! requests against the shared cache, hard-asserting that each replayed
//! verdict equals the speculated one. State the direct route keeps
//! besides — term-migration memos — is a pure cache under hash-consing:
//! a miss rebuilds the same ref and interns nothing.
//!
//! Debug builds check the obligation at every step committed with
//! workers: the client also runs the route not taken (the direct step,
//! or `speculate(&key)` and its absorption) on a copy of the same state
//! and asserts both leave the same record, pool, symbol table and solver
//! cache. Route-dependent scratch (per-run buffers, migration memos,
//! memos keyed by pool identity) is not compared.
//!
//! *The engine's property:* keys are committed in pop order, and the
//! children a commit returns are pushed before the next pop, so the
//! sequence of keys `commit` sees does not depend on `workers` or on
//! which speculations finished first.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Hard ceiling on spawned workers, whatever the caller asks for: an
/// absurd ambient count (`BOLT_THREADS=100000`) must degrade to
/// oversubscription, not abort when the OS refuses a spawn. Output does
/// not depend on the worker count, so clamping never changes results.
const MAX_WORKERS: usize = 256;

/// Commit every key reachable from `roots` in LIFO order (the last root
/// first), on the calling thread, while up to `workers` scoped threads
/// run `speculate` on queued keys, topmost first. `commit` returns the
/// children to push, or `Break` to stop (unreached keys and unused
/// speculations are dropped). See the module docs.
pub fn run<K, S>(
    workers: usize,
    mut roots: Vec<K>,
    speculate: &(impl Fn(&K) -> S + Sync),
    mut commit: impl FnMut(K, Option<S>) -> ControlFlow<(), Vec<K>>,
) where
    K: Clone + Send,
    S: Send,
{
    if workers == 0 {
        while let Some(key) = roots.pop() {
            match commit(key, None) {
                ControlFlow::Continue(children) => roots.extend(children),
                ControlFlow::Break(()) => return,
            }
        }
        return;
    }
    let pool = Pool {
        state: Mutex::new(State {
            stack: roots.into_iter().map(|k| (k, Status::Queued)).collect(),
            shutdown: false,
        }),
        changed: Condvar::new(),
    };
    std::thread::scope(|scope| {
        // Release the workers however this closure exits: a panic in
        // `commit` must not leave them parked on the condvar, or the
        // scope's implicit join would deadlock the unwind.
        let _release = ShutdownGuard(&pool);
        for _ in 0..workers.min(MAX_WORKERS) {
            scope.spawn(|| pool.work(speculate));
        }
        while let Some((key, spec)) = pool.pop() {
            match commit(key, spec) {
                ControlFlow::Continue(children) => pool.push(children),
                ControlFlow::Break(()) => return,
            }
        }
    });
}

/// Where one stacked key stands with the workers.
enum Status<S> {
    Queued,
    /// A worker is on it; the committer waits rather than racing it.
    Running,
    /// `None` when the worker panicked.
    Done(Option<S>),
}

struct State<K, S> {
    stack: Vec<(K, Status<S>)>,
    shutdown: bool,
}

struct Pool<K, S> {
    state: Mutex<State<K, S>>,
    /// Signalled on every push, finished speculation and shutdown.
    changed: Condvar,
}

struct ShutdownGuard<'a, K, S>(&'a Pool<K, S>);

impl<K, S> Drop for ShutdownGuard<'_, K, S> {
    fn drop(&mut self) {
        self.0.lock().shutdown = true;
        self.0.changed.notify_all();
    }
}

impl<K, S> Pool<K, S> {
    /// Poison-tolerant: neither `speculate` nor `commit` runs under the
    /// lock and every update is a single store, so the state is valid
    /// at every step — and the shutdown guard locks during an unwind,
    /// where a second panic would abort the process.
    fn lock(&self) -> MutexGuard<'_, State<K, S>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, keys: Vec<K>) {
        if keys.is_empty() {
            return; // nothing to wake the workers for
        }
        let mut st = self.lock();
        st.stack
            .extend(keys.into_iter().map(|k| (k, Status::Queued)));
        self.changed.notify_all();
    }

    /// The next key in stack order with its speculation, waiting if a
    /// worker is still on it.
    fn pop(&self) -> Option<(K, Option<S>)> {
        let mut st = self.lock();
        while matches!(st.stack.last()?.1, Status::Running) {
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let (key, status) = st.stack.pop()?;
        Some(match status {
            Status::Done(spec) => (key, spec),
            _ => (key, None),
        })
    }

    /// Worker: speculate the topmost queued key until shut down.
    fn work(&self, speculate: &impl Fn(&K) -> S)
    where
        K: Clone,
    {
        let mut st = self.lock();
        while !st.shutdown {
            let queued = st
                .stack
                .iter()
                .rposition(|(_, status)| matches!(status, Status::Queued));
            let Some(i) = queued else {
                st = self
                    .changed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            st.stack[i].1 = Status::Running;
            let key = st.stack[i].0.clone();
            drop(st);
            let spec = catch_unwind(AssertUnwindSafe(|| speculate(&key))).ok();
            st = self.lock();
            // A running entry is never popped and a stack only changes
            // above it, so `i` still names the entry claimed above.
            st.stack[i].1 = Status::Done(spec);
            self.changed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    /// Run a toy tree — four roots, keys below 10 have two children —
    /// and return the order `commit` saw.
    fn commit_order(workers: usize, speculate: impl Fn(&u32) -> u32 + Sync) -> Vec<u32> {
        let caller = thread::current().id();
        let mut order = Vec::new();
        run(workers, vec![0, 1, 2, 3], &speculate, |k, spec| {
            assert_eq!(thread::current().id(), caller);
            assert!(spec.is_none() || spec == Some(k + 1));
            order.push(k);
            let children = [k * 10 + 11, k * 10 + 12];
            ControlFlow::Continue(if k < 10 {
                children.to_vec()
            } else {
                Vec::new()
            })
        });
        order
    }

    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::SeqCst) {
            thread::yield_now();
        }
    }

    #[test]
    fn zero_workers_never_spawn_or_speculate() {
        // LIFO: a key's children are committed before older keys.
        assert_eq!(
            commit_order(0, |_| unreachable!("zero workers never speculate")),
            [3, 42, 41, 2, 32, 31, 1, 22, 21, 0, 12, 11]
        );
    }

    #[test]
    fn commits_follow_stack_order_whatever_order_workers_finish_in() {
        // Root k's speculation may only finish after root k-1's: the
        // reverse of the order the roots are committed in. One worker
        // per root, so a free one always reaches the root waited on.
        let finished: [AtomicBool; 4] = std::array::from_fn(|_| AtomicBool::new(false));
        let pooled = commit_order(4, |&k| {
            if (1..4).contains(&k) {
                wait_for(&finished[k as usize - 1]);
            }
            if k < 4 {
                finished[k as usize].store(true, Ordering::SeqCst);
            }
            k + 1
        });
        assert_eq!(pooled, commit_order(0, |&k| k + 1));
    }

    #[test]
    #[should_panic(expected = "step 0 exploded")]
    fn worker_panic_resurfaces_on_the_committer_with_its_own_message() {
        let step = |k: u32| if k == 0 { panic!("step 0 exploded") } else { k };
        let on_worker = AtomicBool::new(false);
        let speculate = |&k: &u32| {
            on_worker.fetch_or(k == 0, Ordering::SeqCst);
            step(k)
        };
        run(2, vec![0u32, 1], &speculate, |k, spec| {
            if k == 1 {
                // Hold the committer back until a worker is on step 0,
                // so step 0 arrives here as a worker panic.
                wait_for(&on_worker);
            } else {
                assert!(spec.is_none(), "a panicked speculation is None");
            }
            spec.unwrap_or_else(|| step(k));
            ControlFlow::Continue(Vec::new())
        });
    }

    #[test]
    #[should_panic(expected = "commit exploded")]
    fn commit_panic_releases_parked_workers() {
        // The only key is taken at once, so the workers park; the
        // unwind must wake them or the scope's join never returns.
        run(3, vec![0u32], &|&k| k, |_, _| panic!("commit exploded"));
    }

    #[test]
    fn absurd_worker_counts_are_clamped() {
        // Unclamped, this asks the OS for usize::MAX threads.
        let reference = commit_order(0, |&k| k + 1);
        assert_eq!(commit_order(usize::MAX, |&k| k + 1), reference);
    }
}
