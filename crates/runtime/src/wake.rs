//! The one way the runtime signals a condition variable: only when a
//! thread is registered as waiting on it.
//!
//! `std`'s futex `Condvar` makes a `FUTEX_WAKE` system call on every
//! `notify_*`, whether or not anyone waits — on a 2-vCPU VM a lock plus a
//! `notify_one` with no waiter costs 184–260 ns against 14.5–23 ns for the
//! lock alone, and the dispatcher hands every request over twice (submit
//! → shard, under the queues lock, and shard → ticket). [`Waiters`] counts
//! the threads blocked on its condvar and [`Waiters::wake_all`] skips the
//! call when there are none. `tests/forbidden_patterns.rs` keeps every
//! other `notify_*` out of `crates/runtime/src`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// A condvar plus the number of threads blocked on it. Every method takes
/// the guard of the one mutex its waiters wait with: the count changes
/// and is read only under that mutex, so a thread that checked the guarded
/// state and is about to sleep is either counted or has not yet taken the
/// lock — no wake-up can be lost.
#[derive(Debug, Default)]
pub(crate) struct Waiters {
    cv: Condvar,
    /// `Relaxed` is enough: every access is made under the mutex, whose
    /// lock and unlock order them.
    count: AtomicUsize,
}

impl Waiters {
    /// Blocks on the condvar, counted as a waiter while asleep.
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        self.count.fetch_add(1, Ordering::Relaxed);
        let woken = self.cv.wait(guard);
        self.count.fetch_sub(1, Ordering::Relaxed);
        woken
    }

    /// Like [`Waiters::wait`], for at most `timeout`.
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        self.count.fetch_add(1, Ordering::Relaxed);
        let woken = self.cv.wait_timeout(guard, timeout);
        self.count.fetch_sub(1, Ordering::Relaxed);
        woken
    }

    /// Releases `guard`, then wakes every waiter — with no system call
    /// when there is none.
    pub(crate) fn wake_all<T>(&self, guard: MutexGuard<'_, T>) {
        let waiting = self.count.load(Ordering::Relaxed) > 0;
        drop(guard);
        if waiting {
            self.cv.notify_all();
        }
    }

    /// Threads blocked right now; call with the mutex held.
    #[cfg(test)]
    pub(crate) fn waiting(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

/// Runs `body` on a thread of its own and panics if it has not returned
/// within `limit`, so a lost wake-up fails a test instead of hanging it
/// (the stuck thread is left behind). A panic in `body` is re-raised.
#[cfg(test)]
pub(crate) fn within<T: Send + 'static>(
    limit: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        // The receiver is gone only after a timeout already failed the test.
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            worker.join().expect("body returned");
            value
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the body sends before it returns"),
        },
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("still blocked after {limit:?}: a wake-up was lost")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Spins until `n` threads are blocked on `waiters` (under `lock`).
    fn until_waiting<T>(lock: &Mutex<T>, waiters: &Waiters, n: usize) {
        while {
            let _held = lock.lock().unwrap();
            waiters.waiting() < n
        } {
            std::thread::yield_now();
        }
    }

    #[test]
    fn wake_all_reaches_every_blocked_thread_and_the_count_returns_to_zero() {
        let shared = Arc::new((Mutex::new(false), Waiters::default()));
        let sleepers: Vec<_> = (0..3)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let (lock, waiters) = &*shared;
                    let mut ready = lock.lock().unwrap();
                    while !*ready {
                        ready = waiters.wait(ready).unwrap();
                    }
                })
            })
            .collect();
        within(Duration::from_secs(30), move || {
            let (lock, waiters) = &*shared;
            until_waiting(lock, waiters, 3);
            let mut ready = lock.lock().unwrap();
            *ready = true;
            waiters.wake_all(ready);
            for s in sleepers {
                s.join().unwrap();
            }
            assert_eq!(waiters.waiting(), 0);
        });
    }
}
