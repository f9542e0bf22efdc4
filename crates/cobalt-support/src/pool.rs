//! A supervised, scoped worker pool for embarrassingly parallel work.
//!
//! The checker's proof obligations are independent of one another
//! (paper §4.2: each is discharged against the prover in isolation), so
//! discharging them is a textbook fan-out — *if* the fan-out preserves
//! the sequential contract. This pool is built around that requirement:
//!
//! * **Deterministic delivery.** Results are handed to the caller's
//!   sink *in task-index order*, whatever order workers finish in, via
//!   a reorder buffer drained on the calling thread. A caller that
//!   journals or prints per result sees exactly the sequential order.
//! * **Panic supervision.** Each task runs under `catch_unwind`. A task
//!   that panics is retried once on the assumption that the panic was a
//!   worker-environment casualty (the injectable `pool.task` fault
//!   simulates one); a second panic is surfaced to the sink as
//!   [`TaskResult::Panicked`] — one bad task never kills the pool, the
//!   run, or a sibling.
//! * **No cancellation of its own.** A task that must stop early
//!   observes its caller's [`Budget`](crate::budget::Budget), whose
//!   [`Cancel`] token only the caller trips; the pool keeps draining
//!   queued tasks so each one still produces a result — cancellation
//!   changes *outcomes*, never the shape of the result stream.
//! * **Graceful degradation.** Worker threads that cannot be spawned
//!   (OS thread exhaustion, or the injectable `pool.spawn` fault) are
//!   simply lost capacity: the pool runs with fewer workers, down to
//!   running every task inline on the calling thread. Spawning is
//!   best-effort; completing every task is not.
//!
//! Fault points: `pool.spawn` (a `fail` action suppresses one worker
//! spawn) and `pool.task` (a `panic` action crashes the *n*-th task
//! pickup, exercising the supervision path). Thread-local fault
//! overrides installed with [`fault::with_faults`] are captured on the
//! calling thread and re-installed inside every worker, sharing hit
//! counters, so `@n` semantics hold across the pool.

use crate::fault;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// A shared cooperative-cancellation flag.
///
/// Cloning is cheap (an `Arc`); all clones observe the same flag. Only
/// the token's owner trips it — the daemon's drain, for the requests it
/// cancels. Everything else observes it through a
/// [`Budget`](crate::budget::Budget) and never trips a token it was
/// handed, so one token may span any number of independent batches.
#[derive(Debug, Clone, Default)]
pub struct Cancel(Arc<AtomicBool>);

impl Cancel {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Cancel::default()
    }

    /// Trips the token: every holder observes it at their next check.
    pub fn trip(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    pub fn is_tripped(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// What one task produced.
#[derive(Debug)]
pub enum TaskResult<R> {
    /// The task ran to completion (its own result may still describe a
    /// failure — that is the caller's vocabulary, not the pool's).
    Done(R),
    /// The task panicked twice (once fresh, once on its supervised
    /// retry); the payload message of the final panic.
    Panicked(String),
}

impl<R> TaskResult<R> {
    /// The completed result, if the task did not panic out.
    pub fn ok(self) -> Option<R> {
        match self {
            TaskResult::Done(r) => Some(r),
            TaskResult::Panicked(_) => None,
        }
    }
}

/// Statistics from one [`run_ordered`] call, for observability and
/// tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads requested (after clamping to the task count).
    pub workers_requested: usize,
    /// Worker threads actually spawned; the shortfall (spawn failures)
    /// was absorbed by the remaining workers or the calling thread.
    pub workers_spawned: usize,
    /// Task executions that panicked and were retried by the
    /// supervisor.
    pub retried_panics: usize,
}

/// Maximum supervised re-executions of a panicking task. One retry
/// distinguishes a transient worker casualty (an injected `pool.task`
/// crash) from a task that deterministically dies — the latter panics
/// again immediately and is surfaced instead of looping.
const MAX_TASK_RETRIES: usize = 1;

/// Runs `tasks` on up to `jobs` worker threads, delivering each task's
/// [`TaskResult`] to `sink` **in task order** on the calling thread.
///
/// `task` receives the task's index and exclusive access to its input.
/// It may be called up to `1 + MAX_TASK_RETRIES` times for the same
/// index if it panics (see the module docs); callers who catch their
/// own panics internally are never retried.
///
/// With `jobs <= 1`, no threads are spawned at all: tasks run inline on
/// the calling thread, in order, with identical supervision semantics.
/// The pool never returns before every task has produced exactly one
/// result.
pub fn run_ordered<T, R>(
    jobs: usize,
    tasks: Vec<T>,
    task: impl Fn(usize, &mut T) -> R + Sync,
    mut sink: impl FnMut(usize, TaskResult<R>),
) -> PoolStats
where
    T: Send,
    R: Send,
{
    let n = tasks.len();
    let workers = jobs.min(n);
    let mut stats = PoolStats {
        workers_requested: workers,
        ..PoolStats::default()
    };
    if n == 0 {
        return stats;
    }

    // Shared state: each task slot is lockable (a retry re-runs on the
    // same input), the queue hands out indices, and per-slot retry
    // counts bound supervision.
    let slots: Vec<Mutex<T>> = tasks.into_iter().map(Mutex::new).collect();
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
    let retries: Vec<Mutex<usize>> = (0..n).map(|_| Mutex::new(0)).collect();
    let retried = Mutex::new(0usize);
    let overrides = fault::capture_overrides();

    // One worker's drain loop: pull an index, run the task under
    // catch_unwind, requeue on a first panic, send the result.
    let drain = |tx: mpsc::Sender<(usize, TaskResult<R>)>| {
        fault::with_overrides(overrides.as_ref(), || loop {
            let Some(idx) = queue.lock().ok().and_then(|mut q| q.pop_front()) else {
                return;
            };
            let ran = catch_unwind(AssertUnwindSafe(|| {
                fault::point("pool.task");
                let mut slot = slots[idx]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                task(idx, &mut slot)
            }));
            let result = match ran {
                Ok(r) => TaskResult::Done(r),
                Err(payload) => {
                    let mut count = retries[idx]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if *count < MAX_TASK_RETRIES {
                        *count += 1;
                        if let Ok(mut r) = retried.lock() {
                            *r += 1;
                        }
                        // Put the casualty back at the front so its
                        // retry happens promptly; delivery order is
                        // fixed by the reorder buffer regardless.
                        if let Ok(mut q) = queue.lock() {
                            q.push_front(idx);
                        }
                        continue;
                    }
                    TaskResult::Panicked(panic_message(payload.as_ref()))
                }
            };
            if tx.send((idx, result)).is_err() {
                return; // receiver gone: nothing left to report to
            }
        })
    };

    if workers <= 1 {
        // Inline mode: same semantics, no threads. The sink still sees
        // results strictly in index order because the queue is ordered
        // (retries go to the front, so a retried task completes before
        // its successors run).
        let (tx, rx) = mpsc::channel();
        drain(tx);
        let mut buffer: BTreeMap<usize, TaskResult<R>> = rx.into_iter().collect();
        for idx in 0..n {
            let result = buffer
                .remove(&idx)
                .expect("inline drain produced every result");
            sink(idx, result);
        }
        stats.workers_spawned = 0;
        stats.retried_panics = *retried.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        return stats;
    }

    let (tx, rx) = mpsc::channel::<(usize, TaskResult<R>)>();
    std::thread::scope(|scope| {
        let mut spawned = 0usize;
        for worker in 0..workers {
            // A spawn that fails (injected `pool.spawn` fault or a real
            // OS refusal) just means less parallelism; the remaining
            // workers — or, at zero, the calling thread below — still
            // complete every task.
            if fault::point_err("pool.spawn").is_err() {
                continue;
            }
            let tx = tx.clone();
            let drain = &drain;
            let builder = std::thread::Builder::new().name(format!("cobalt-pool-{worker}"));
            if builder.spawn_scoped(scope, move || drain(tx)).is_ok() {
                spawned += 1;
            }
        }
        stats.workers_spawned = spawned;
        drop(tx);
        if spawned == 0 {
            // Total spawn failure: degrade to inline execution. The
            // receiver is drained afterwards; it is empty.
            let (inline_tx, inline_rx) = mpsc::channel();
            drain(inline_tx);
            let mut buffer: BTreeMap<usize, TaskResult<R>> = inline_rx.into_iter().collect();
            for idx in 0..n {
                if let Some(result) = buffer.remove(&idx) {
                    sink(idx, result);
                }
            }
            return;
        }
        // Reorder buffer: deliver to the sink in index order as soon as
        // the next expected index has landed.
        let mut buffer: BTreeMap<usize, TaskResult<R>> = BTreeMap::new();
        let mut next = 0usize;
        for (idx, result) in rx {
            buffer.insert(idx, result);
            while let Some(result) = buffer.remove(&next) {
                sink(next, result);
                next += 1;
            }
        }
        debug_assert!(buffer.is_empty(), "workers exited with results undelivered");
    });
    stats.retried_panics = *retried.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    stats
}

/// Best-effort extraction of a `catch_unwind` payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn collect<R>(results: &mut Vec<(usize, TaskResult<R>)>) -> impl FnMut(usize, TaskResult<R>) + '_ {
        |idx, r| results.push((idx, r))
    }

    #[test]
    fn results_arrive_in_task_order_whatever_the_completion_order() {
        for jobs in [1, 2, 4, 16] {
            let tasks: Vec<u64> = (0..32).collect();
            let mut results = Vec::new();
            let stats = run_ordered(
                jobs,
                tasks,
                |idx, t| {
                    // Earlier tasks sleep longer, inverting natural
                    // completion order under parallelism.
                    std::thread::sleep(std::time::Duration::from_micros(
                        (32 - idx as u64) * 30,
                    ));
                    *t * 10
                },
                collect(&mut results),
            );
            let indices: Vec<usize> = results.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, (0..32).collect::<Vec<_>>(), "jobs={jobs}");
            for (i, (_, r)) in results.into_iter().enumerate() {
                assert_eq!(r.ok(), Some(i as u64 * 10), "jobs={jobs}");
            }
            assert_eq!(stats.workers_requested, jobs.min(32), "jobs={jobs}");
        }
    }

    /// Regression test for the worker clamp: an oversized `--jobs`
    /// (e.g. `--jobs auto` on a big host, or an operator typo) must
    /// never spawn more workers than there are tasks — the clamp is
    /// what makes `auto` safe to pass blindly.
    #[test]
    fn oversized_jobs_clamp_to_task_count() {
        for (jobs, n) in [(1000, 3), (64, 1), (8, 0), (2, 2)] {
            let tasks: Vec<u64> = (0..n as u64).collect();
            let mut results = Vec::new();
            let stats = run_ordered(jobs, tasks, |_, t| *t, collect(&mut results));
            assert_eq!(stats.workers_requested, jobs.min(n), "jobs={jobs} n={n}");
            assert!(
                stats.workers_spawned <= jobs.min(n),
                "jobs={jobs} n={n}: spawned {} workers for {n} task(s)",
                stats.workers_spawned
            );
            assert_eq!(results.len(), n, "jobs={jobs}");
        }
    }

    #[test]
    fn panicking_task_is_retried_once_then_surfaced() {
        // Panics on every execution: retried once, then surfaced.
        let calls = AtomicUsize::new(0);
        let mut results = Vec::new();
        let stats = run_ordered(
            4,
            vec![(), (), ()],
            |idx, _| {
                if idx == 1 {
                    calls.fetch_add(1, Ordering::SeqCst);
                    panic!("task 1 always dies");
                }
                idx
            },
            collect(&mut results),
        );
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one fresh run + one retry");
        assert_eq!(stats.retried_panics, 1);
        assert!(matches!(&results[1].1, TaskResult::Panicked(m) if m.contains("always dies")));
        assert_eq!(results.len(), 3, "siblings still complete");
        assert!(matches!(results[0].1, TaskResult::Done(0)));
        assert!(matches!(results[2].1, TaskResult::Done(2)));
    }

    #[test]
    fn transient_panic_recovers_on_retry() {
        // Panics on the first execution only: the supervised retry
        // succeeds and the caller never sees the casualty.
        for jobs in [1, 3] {
            let first = AtomicBool::new(true);
            let mut results = Vec::new();
            let stats = run_ordered(
                jobs,
                vec![7u32, 8, 9],
                |_, t| {
                    if first.swap(false, Ordering::SeqCst) {
                        panic!("transient casualty");
                    }
                    *t
                },
                collect(&mut results),
            );
            assert_eq!(stats.retried_panics, 1, "jobs={jobs}");
            let values: Vec<u32> = results.into_iter().filter_map(|(_, r)| r.ok()).collect();
            assert_eq!(values, vec![7, 8, 9], "jobs={jobs}");
        }
    }

    #[test]
    fn pool_task_fault_is_supervised_and_invisible_to_the_sink() {
        // An injected worker crash at the second task pickup: the
        // supervisor retries it and every result is Done.
        let mut results = Vec::new();
        let stats = fault::with_faults("pool.task:panic@2", || {
            run_ordered(2, (0..8u64).collect(), |_, t| *t + 1, collect(&mut results))
        });
        assert_eq!(stats.retried_panics, 1);
        let values: Vec<u64> = results.into_iter().map(|(_, r)| r.ok().unwrap()).collect();
        assert_eq!(values, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_spawn_fault_degrades_worker_count_not_results() {
        // Suppress every spawn: the pool runs inline on the caller.
        // (Two identical specs: the evaluator returns at the first
        // firing spec, so they fire on consecutive hits.)
        let mut results = Vec::new();
        let stats = fault::with_faults("pool.spawn:fail@1,pool.spawn:fail@1", || {
            run_ordered(2, vec![1u64, 2, 3, 4], |_, t| *t * 2, collect(&mut results))
        });
        assert_eq!(stats.workers_spawned, 0);
        let values: Vec<u64> = results.into_iter().map(|(_, r)| r.ok().unwrap()).collect();
        assert_eq!(values, vec![2, 4, 6, 8]);
    }

    impl<R> TaskResult<R> {
        fn as_ref_done(&self) -> Option<&R> {
            match self {
                TaskResult::Done(r) => Some(r),
                TaskResult::Panicked(_) => None,
            }
        }
    }

    #[test]
    fn zero_and_one_jobs_run_inline_without_threads() {
        for jobs in [0, 1] {
            let caller = std::thread::current().id();
            let mut results = Vec::new();
            let stats = run_ordered(
                jobs,
                vec![(), ()],
                |_, _| std::thread::current().id(),
                collect(&mut results),
            );
            assert_eq!(stats.workers_spawned, 0, "jobs={jobs}");
            for (_, r) in &results {
                assert_eq!(r.as_ref_done(), Some(&caller), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn empty_task_list_is_a_noop() {
        let mut sink_calls = 0;
        let stats = run_ordered(4, Vec::<()>::new(), |_, _| (), |_, _| sink_calls += 1);
        assert_eq!(sink_calls, 0);
        assert_eq!(stats, PoolStats::default());
    }
}
