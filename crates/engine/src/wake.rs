//! Thread wakeups: how stage threads and the coordinator wait for work.
//!
//! Every engine thread that waits owns a [`Wakeup`]: a generation counter
//! behind a mutex, plus a condvar. The thread reads the generation, looks
//! for work, and then waits only while the generation is unchanged, so a
//! notification that lands between the look and the wait ends the wait at
//! once instead of being lost. Every wait still carries a timeout (the idle
//! backoff or the supervision interval): a missed or cross-process event
//! costs at most that long, and heartbeats keep flowing.

use quokka_common::ids::{StageId, WorkerId};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct WakeState {
    generation: u64,
    /// Threads blocked in [`Wakeup::wait`]; a notification signals the
    /// condvar only when one is.
    waiters: u32,
}

/// One thread's wakeup.
#[derive(Debug, Default)]
pub struct Wakeup {
    state: Mutex<WakeState>,
    changed: Condvar,
}

impl Wakeup {
    /// The current generation; pass it to [`wait`](Self::wait) after
    /// looking for work.
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Advance the generation, ending any wait that started from an older
    /// one.
    pub fn notify(&self) {
        let mut state = self.lock();
        state.generation += 1;
        if state.waiters > 0 {
            self.changed.notify_all();
        }
    }

    /// Wait until the generation moves past `seen` or `timeout` elapses.
    /// Returns whether a notification ended the wait.
    pub fn wait(&self, seen: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        state.waiters += 1;
        while state.generation == seen {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
            state = match self.changed.wait_timeout(state, left) {
                Ok((state, _)) => state,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        state.waiters -= 1;
        state.generation != seen
    }

    /// Every update of the state is one increment or decrement, so a
    /// state poisoned by a panicking thread is still valid.
    fn lock(&self) -> MutexGuard<'_, WakeState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The wakeups of one query execution: one per (worker, stage) thread and
/// one for the coordinator.
#[derive(Debug)]
pub struct Wakeups {
    stages: usize,
    threads: Vec<Wakeup>,
    pub coordinator: Wakeup,
}

impl Wakeups {
    pub fn new(workers: u32, stages: usize) -> Self {
        Wakeups {
            stages,
            threads: (0..workers as usize * stages).map(|_| Wakeup::default()).collect(),
            coordinator: Wakeup::default(),
        }
    }

    /// The wakeup of `worker`'s thread for `stage`.
    pub fn thread(&self, worker: WorkerId, stage: StageId) -> &Wakeup {
        &self.threads[worker as usize * self.stages + stage as usize]
    }

    /// Wake every stage thread: the barrier was lowered, or the query is
    /// ending.
    pub fn wake_all(&self) {
        self.threads.iter().for_each(Wakeup::notify);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_notification_before_the_wait_is_not_lost() {
        let wakeup = Wakeup::default();
        let seen = wakeup.generation();
        // Lands after the thread looked for work but before it waits.
        wakeup.notify();
        let start = Instant::now();
        assert!(wakeup.wait(seen, Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_secs(5), "the wait must end at once");
        // A wait from the new generation is not ended by the old notification.
        assert!(!wakeup.wait(wakeup.generation(), Duration::from_millis(1)));
    }

    #[test]
    fn a_wait_without_notification_returns_at_its_timeout() {
        let wakeup = Wakeup::default();
        let start = Instant::now();
        assert!(!wakeup.wait(wakeup.generation(), Duration::from_millis(20)));
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(20), "returned early after {waited:?}");
        assert!(waited < Duration::from_secs(5), "overslept: {waited:?}");
    }

    #[test]
    fn a_notification_from_another_thread_ends_the_wait() {
        let wakeup = Arc::new(Wakeup::default());
        let seen = wakeup.generation();
        let notifier = {
            let wakeup = Arc::clone(&wakeup);
            std::thread::spawn(move || {
                // Notify only once the other thread is blocked in `wait`.
                while wakeup.lock().waiters == 0 {
                    std::thread::yield_now();
                }
                wakeup.notify();
            })
        };
        let start = Instant::now();
        assert!(wakeup.wait(seen, Duration::from_secs(30)));
        assert!(start.elapsed() < Duration::from_secs(15));
        notifier.join().unwrap();
    }

    #[test]
    fn each_thread_has_its_own_wakeup() {
        let wakeups = Wakeups::new(2, 3);
        let seen: Vec<u64> = (0..2)
            .flat_map(|w| (0..3).map(move |s| (w, s)))
            .map(|(w, s)| wakeups.thread(w, s).generation())
            .collect();
        wakeups.thread(1, 2).notify();
        assert_ne!(wakeups.thread(1, 2).generation(), seen[5]);
        assert_eq!(wakeups.thread(0, 2).generation(), seen[2]);
        assert_eq!(wakeups.thread(1, 1).generation(), seen[4]);
        wakeups.wake_all();
        assert_ne!(wakeups.thread(0, 0).generation(), seen[0]);
        assert_eq!(wakeups.coordinator.generation(), 0, "stage wakeups leave the coordinator be");
    }
}
