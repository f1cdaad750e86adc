//! A persistent, parked worker pool for the probe phase of a check
//! round.
//!
//! The parallel check round used to spawn scoped threads per round
//! (`std::thread::scope`), paying the spawn/join cost — tens of µs — on
//! every block for small-block workloads with large rule tables. This
//! pool keeps the workers alive and parked on a condvar between rounds:
//! a round publishes its chunk tasks, wakes the pool, participates in
//! the work itself, and returns only when every task has run.
//!
//! The tasks borrow the submitting round's stack (the candidate slots,
//! the round's previous-occurrence stamps, the memo snapshot), which a
//! `'static`-threaded pool cannot express directly. [`ProbePool::run`]
//! therefore erases the task lifetime (see the safety note there) and
//! restores the scoped-spawn guarantee *dynamically*: it blocks until
//! the last task has finished and been dropped, so no borrow ever
//! outlives the call — the same property `thread::scope` proves
//! statically.
//!
//! Determinism: the pool executes exactly the closures it is given;
//! which thread runs which chunk is scheduler-dependent, but each chunk
//! writes only its own output slot, so results are bit-identical to the
//! scoped-spawn (and to the sequential) round — `tests/
//! runtime_equivalence.rs` holds unchanged.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A borrowing round task: boxed so it can cross into the pool, `Send`
/// so any worker may claim it, alive only for the submitting round.
pub(crate) type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// The lifetime-erased form the pool's `'static` threads hold.
type StaticTask = Box<dyn FnOnce() + Send + 'static>;

/// Work handed to the pool for one round.
#[derive(Default)]
struct State {
    /// This round's tasks; slots are `take`n as they are claimed.
    tasks: Vec<Option<StaticTask>>,
    /// First unclaimed slot.
    next: usize,
    /// Tasks claimed or unclaimed but not yet finished.
    pending: usize,
    /// A task panicked this round (reported by the submitter).
    panicked: bool,
    /// The pool is being dropped; workers exit.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between rounds.
    work: Condvar,
    /// The submitter parks here until `pending` reaches zero.
    done: Condvar,
}

/// The persistent probe worker pool behind a [`SharedProbePool`]
/// handle. Threads are spawned lazily on the first parallel round and
/// parked between rounds; a support running sequentially
/// (`check_workers <= 1`) never spawns any. The pool itself is not
/// `Clone` — sharing happens one level up through the `Arc`-backed
/// handle, so a cloned [`crate::TriggerSupport`] *shares* its pool
/// (and its parked threads) with the original.
#[derive(Default)]
pub(crate) struct ProbePool {
    shared: Option<Arc<Shared>>,
    threads: Vec<JoinHandle<()>>,
}

impl ProbePool {
    /// Run `tasks` across `workers` threads total — `workers - 1` pool
    /// threads plus the calling thread, which participates instead of
    /// idling — and return once every task has executed. Panics (after
    /// all tasks settle) if any task panicked, matching the join
    /// behavior of the scoped spawn this pool replaced.
    pub(crate) fn run(&mut self, workers: usize, tasks: Vec<Task<'_>>) {
        if tasks.is_empty() {
            return;
        }
        self.ensure_threads(workers.saturating_sub(1));
        let shared = self.shared.as_ref().expect("ensure_threads populated");
        {
            let mut st = lock(&shared.state);
            debug_assert!(st.pending == 0 && st.tasks.is_empty(), "rounds never nest");
            st.pending = tasks.len();
            st.next = 0;
            st.panicked = false;
            // SAFETY: the erased tasks never outlive this call. `run`
            // returns only after `pending` drops to zero, and a task's
            // claim slot is `take`n before execution, so by then every
            // task has run and been dropped; the borrows captured in
            // them (`'_`) are all live for the whole call. This is the
            // scoped-thread guarantee, enforced by the `done` wait
            // below instead of by `thread::scope`'s join.
            st.tasks = tasks
                .into_iter()
                .map(|t| Some(unsafe { std::mem::transmute::<Task<'_>, StaticTask>(t) }))
                .collect();
            shared.work.notify_all();
        }
        // the submitting thread is worker 0: claim chunks like the rest
        work_off_queue(shared);
        let mut st = lock(&shared.state);
        while st.pending > 0 {
            st = shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.tasks.clear();
        st.next = 0;
        if std::mem::take(&mut st.panicked) {
            drop(st);
            panic!("check worker panicked");
        }
    }

    /// Grow the pool to at least `n` parked threads.
    fn ensure_threads(&mut self, n: usize) {
        let shared = self
            .shared
            .get_or_insert_with(|| {
                Arc::new(Shared {
                    state: Mutex::new(State::default()),
                    work: Condvar::new(),
                    done: Condvar::new(),
                })
            })
            .clone();
        while self.threads.len() < n {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("chimera-probe-{}", self.threads.len()))
                .spawn(move || worker_loop(&shared))
                .expect("spawn probe pool thread");
            self.threads.push(handle);
        }
    }
}

impl Drop for ProbePool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            lock(&shared.state).shutdown = true;
            shared.work.notify_all();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ProbePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbePool")
            .field("threads", &self.threads.len())
            .finish()
    }
}

/// A cloneable handle to one probe pool, so the pool's threads can be
/// shared across engines. A multi-tenant shard installs **one** pool on
/// every tenant engine it owns ([`use_shared_pool`] via the engine
/// config path), keeping the parked-thread count per *shard* —
/// `check_workers - 1` — instead of per tenant; a standalone
/// [`crate::TriggerSupport`] just uses its own private handle. The
/// mutex is uncontended in the sharded runtime (a shard runs one job at
/// a time) and merely serializes rounds if independent engines do share
/// a handle across threads.
///
/// [`use_shared_pool`]: crate::TriggerSupport::use_shared_pool
#[derive(Clone, Default, Debug)]
pub struct SharedProbePool {
    inner: Arc<Mutex<ProbePool>>,
}

impl SharedProbePool {
    /// Run one round's tasks on the shared pool (see [`ProbePool::run`]).
    pub(crate) fn run(&self, workers: usize, tasks: Vec<Task<'_>>) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .run(workers, tasks)
    }
}

fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A parked pool thread: wake on published work, drain the queue, park.
fn worker_loop(shared: &Shared) {
    loop {
        {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.next < st.tasks.len() {
                    break;
                }
                st = shared
                    .work
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        work_off_queue(shared);
    }
}

/// Claim and run queued tasks until none are left, then report. A
/// panicking task is caught so `pending` still settles (the submitter
/// re-raises the panic once the round is fully drained).
fn work_off_queue(shared: &Shared) {
    loop {
        let task = {
            let mut st = lock(&shared.state);
            if st.next >= st.tasks.len() {
                return;
            }
            let slot = st.next;
            let task = st.tasks[slot].take().expect("unclaimed slot is Some");
            st.next += 1;
            task
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(task));
        let mut st = lock(&shared.state);
        if result.is_err() {
            st.panicked = true;
        }
        st.pending -= 1;
        if st.pending == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn rounds_reuse_parked_threads_and_see_borrows() {
        let mut pool = ProbePool::default();
        // several rounds over the same pool: borrows of round-local
        // stack data are filled in by the time `run` returns
        for round in 0..5usize {
            let mut outputs = [0usize; 8];
            let tasks: Vec<Task<'_>> = outputs
                .iter_mut()
                .enumerate()
                .map(|(i, out)| -> Task<'_> { Box::new(move || *out = round * 100 + i) })
                .collect();
            pool.run(3, tasks);
            for (i, out) in outputs.iter().enumerate() {
                assert_eq!(*out, round * 100 + i);
            }
            // workers requested: 3 → 2 pool threads + the caller
            assert_eq!(pool.threads.len(), 2);
        }
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..2)
            .map(|_| -> Task<'_> {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        // a larger round grows the pool
        pool.run(4, tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(pool.threads.len(), 3);
    }

    #[test]
    fn task_panic_is_reraised_after_the_round_settles() {
        let mut pool = ProbePool::default();
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let ran = &ran;
            let tasks: Vec<Task<'_>> = (0..4)
                .map(|i| -> Task<'_> {
                    Box::new(move || {
                        if i == 1 {
                            panic!("boom");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            pool.run(2, tasks);
        }));
        assert!(result.is_err(), "panic propagates to the submitter");
        assert_eq!(ran.load(Ordering::Relaxed), 3, "other tasks still ran");
        // and the pool stays serviceable for the next round
        let mut ok = false;
        let tasks: Vec<Task<'_>> = std::iter::once(Box::new(|| ok = true) as Task<'_>).collect();
        pool.run(2, tasks);
        assert!(ok);
    }
}
