//! The one task pool every sweep runs on.
//!
//! A job is a queue of tasks plus one result slot per index. Workers
//! pop tasks from a shared `Mutex<VecDeque>` (nothing is partitioned up
//! front, so short and long points balance themselves); a task may
//! enqueue follow-up tasks and fills a slot through [`Job::finish`]
//! whenever its result is ready, which need not be when it ends (a
//! sampled point's last interval finishes the point). Follow-ups queue
//! behind the tasks already waiting: every point starts before any
//! interval runs, so a long point that cannot split starts early
//! instead of running alone after the others have drained.
//!
//! With one worker every task runs inline on the calling thread (lane
//! `main`) and no thread is spawned: serve answers a request on its own
//! thread, so request timings do not follow the host scheduler. With
//! more, scoped threads run on lanes `worker-N`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, OnceLock};

use fc_obs::trace;

/// Queued tasks plus the count of tasks not yet finished (queued or
/// running): workers exit once both are zero.
struct Queue<T> {
    tasks: VecDeque<T>,
    outstanding: usize,
}

/// The shared state of one job, handed to every task.
pub(crate) struct Job<T, R> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
    slots: Vec<OnceLock<R>>,
}

impl<T, R> Job<T, R> {
    /// Enqueues follow-up tasks at the back of the queue.
    pub(crate) fn push(&self, tasks: impl IntoIterator<Item = T>) {
        let mut q = self.queue.lock().expect("pool queue");
        let before = q.tasks.len();
        q.tasks.extend(tasks);
        q.outstanding += q.tasks.len() - before;
        self.ready.notify_all();
    }

    /// Stores the result for slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already filled.
    pub(crate) fn finish(&self, index: usize, result: R) {
        assert!(
            self.slots[index].set(result).is_ok(),
            "slot {index} finished twice"
        );
    }

    /// The next task, waiting while other workers may still enqueue
    /// follow-ups; `None` once every task has finished.
    fn next(&self) -> Option<T> {
        let mut q = self.queue.lock().expect("pool queue");
        loop {
            if let Some(task) = q.tasks.pop_front() {
                return Some(task);
            }
            if q.outstanding == 0 {
                return None;
            }
            q = self.ready.wait(q).expect("pool queue");
        }
    }

    /// Marks one task finished; the last one wakes every waiting
    /// worker so they can exit.
    fn done(&self) {
        let mut q = self.queue.lock().expect("pool queue");
        q.outstanding -= 1;
        if q.outstanding == 0 {
            self.ready.notify_all();
        }
    }
}

/// Marks a task finished when dropped, so a panicking task still
/// releases the workers waiting on the queue (the scope then re-raises
/// the panic instead of hanging).
struct Running<'j, T, R>(&'j Job<T, R>);

impl<T, R> Drop for Running<'_, T, R> {
    fn drop(&mut self) {
        self.0.done();
    }
}

#[cfg(test)]
thread_local! {
    /// Worker threads spawned by jobs started on this thread.
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `tasks`, and every follow-up they enqueue, on `workers`
/// workers, and returns the `slots` results in index order. `work`
/// receives each task and the job, through which it enqueues
/// follow-ups and finishes slots.
///
/// # Panics
///
/// Panics if a task panics, or if a slot is left unfinished.
pub(crate) fn run<T, R, F>(workers: usize, slots: usize, tasks: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send + Sync,
    F: Fn(T, &Job<T, R>) + Sync,
{
    let job = Job {
        queue: Mutex::new(Queue {
            outstanding: tasks.len(),
            tasks: tasks.into(),
        }),
        ready: Condvar::new(),
        slots: (0..slots).map(|_| OnceLock::new()).collect(),
    };
    let drain = |job: &Job<T, R>| {
        while let Some(task) = job.next() {
            let _running = Running(job);
            work(task, job);
        }
    };
    if workers <= 1 {
        trace::set_lane_name("main");
        drain(&job);
    } else {
        std::thread::scope(|scope| {
            for worker in 0..workers {
                #[cfg(test)]
                SPAWNED.with(|n| n.set(n.get() + 1));
                let (job, drain) = (&job, &drain);
                scope.spawn(move || {
                    trace::set_lane_name(&format!("worker-{worker}"));
                    drain(job);
                    // Explicit: a scoped join may land before TLS
                    // destructors run, so the trace buffer drains here.
                    trace::flush_thread();
                });
            }
        });
    }
    job.slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.into_inner()
                .unwrap_or_else(|| panic!("slot {index} never finished"))
        })
        .collect()
}

/// Runs `f` on every index in `0..len` with at most `workers` workers
/// (never more than `len`), returning the results in index order.
pub(crate) fn map<R, F>(workers: usize, len: usize, f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
{
    run(workers.min(len), len, (0..len).collect(), |index, job| {
        job.finish(index, f(index))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    /// Task `Root(i)` enqueues `Leaf(i, 0..i)`; slot `i` finishes with
    /// the root plus its leaves once its last leaf has run.
    #[derive(Clone, Copy)]
    enum Task {
        Root(usize),
        Leaf(usize, usize),
    }

    fn nested(workers: usize, roots: usize) -> Vec<(usize, usize)> {
        let leaves_left: Vec<Mutex<usize>> = (0..roots).map(Mutex::new).collect();
        run(
            workers,
            roots,
            (0..roots).map(Task::Root).collect(),
            |task, job| match task {
                Task::Root(0) => job.finish(0, (0, 0)),
                Task::Root(i) => job.push((0..i).map(|k| Task::Leaf(i, k))),
                Task::Leaf(i, _) => {
                    let mut left = leaves_left[i].lock().unwrap();
                    *left -= 1;
                    if *left == 0 {
                        job.finish(i, (i, i));
                    }
                }
            },
        )
    }

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 5] {
            let flat = map(workers, 40, |i| i * i);
            assert_eq!(flat, (0..40).map(|i| i * i).collect::<Vec<_>>());
            let expanded = nested(workers, 12);
            assert_eq!(
                expanded,
                (0..12).map(|i| (i, i)).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn one_worker_runs_every_task_on_the_caller() {
        let caller = thread::current().id();
        let ids: Vec<ThreadId> = map(1, 8, |_| thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
        let ran_on: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        run(1, 1, vec![Task::Root(3)], |task, job| {
            ran_on.lock().unwrap().push(thread::current().id());
            match task {
                Task::Root(i) => job.push((0..i).map(|k| Task::Leaf(i, k))),
                Task::Leaf(_, 2) => job.finish(0, ()),
                Task::Leaf(..) => {}
            }
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 4, "root plus three follow-ups");
        assert!(ran_on.iter().all(|id| *id == caller));
        assert_eq!(SPAWNED.with(|n| n.get()), 0, "no thread spawned");
    }

    #[test]
    fn flat_jobs_start_no_more_workers_than_tasks() {
        let spawned = || SPAWNED.with(|n| n.get());
        let before = spawned();
        map(8, 3, |i| i);
        assert_eq!(spawned() - before, 3);
        let before = spawned();
        map(8, 1, |i| i);
        assert_eq!(spawned() - before, 0, "one task runs inline");
        let before = spawned();
        let none: Vec<usize> = map(4, 0, |i| i);
        assert!(none.is_empty());
        assert_eq!(spawned() - before, 0);
    }

    #[test]
    fn a_panicking_task_propagates_instead_of_hanging() {
        let outcome = std::panic::catch_unwind(|| {
            map(3, 6, |i| {
                assert_ne!(i, 4, "task 4 fails");
                i
            })
        });
        assert!(outcome.is_err());
    }
}
