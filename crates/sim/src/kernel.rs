//! The simulation kernel: a virtual clock plus cooperative scheduling of
//! simulated threads.
//!
//! # Model
//!
//! Simulated activities run on real OS threads, but **at most one simulated
//! thread executes at a time**. A thread runs until it blocks — on
//! [`Sim::sleep`], on a [`SimSemaphore`](crate::SimSemaphore) wait, or on a
//! [`SimHandle::join`] — at which point the earliest pending event on the
//! virtual clock fires and wakes its owner. Virtual time therefore advances
//! in jumps, and a complete "three hundred second" experiment executes in
//! milliseconds of wall-clock time, fully deterministically.
//!
//! All wakeups are mediated by the event queue: waking a thread always means
//! scheduling an event (possibly at the current instant), never handing off
//! directly. This is what serializes execution and makes runs reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::time::SimTime;

thread_local! {
    /// The calling thread's lane (see [`lane`]); 0 until entered.
    static LANE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Source of fresh lane ids, process-wide so lanes never collide across
/// simulations sharing a tracer.
static NEXT_LANE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// The calling simulated thread's *lane*: an opaque tag a thread enters
/// with [`enter_lane`] and that every simulated thread it spawns (so every
/// [`Sim::run_parallel`] worker) inherits. Lanes let per-activity state —
/// such as a tracer's ambient parent span — be keyed by the activity that
/// issued a call, however many threads it fanned out over. Threads that
/// never entered one share lane 0.
pub fn lane() -> u64 {
    LANE.with(std::cell::Cell::get)
}

/// Moves the calling thread onto a fresh lane until the returned guard
/// drops, which restores the previous one.
pub fn enter_lane() -> LaneGuard {
    let fresh = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    LaneGuard {
        previous: LANE.with(|l| l.replace(fresh)),
    }
}

/// Restores the lane [`enter_lane`] replaced when dropped.
#[derive(Debug)]
pub struct LaneGuard {
    previous: u64,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        LANE.with(|l| l.set(self.previous));
    }
}

/// A waiting simulated thread: the condvar it parks on and the flag that
/// releases it. The flag is only mutated while holding the kernel lock.
pub(crate) struct Waiter {
    cv: Condvar,
    woken: AtomicBool,
}

impl Waiter {
    pub(crate) fn new() -> Arc<Waiter> {
        Arc::new(Waiter {
            cv: Condvar::new(),
            woken: AtomicBool::new(false),
        })
    }
}

/// A scheduled wakeup on the virtual clock.
struct Event {
    at: SimTime,
    seq: u64,
    waiter: Arc<Waiter>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Completion state of a spawned simulated thread.
enum JoinState {
    Running {
        waiter: Option<Arc<Waiter>>,
    },
    Done(Box<dyn std::any::Any + Send>),
    Panicked(Box<dyn std::any::Any + Send>),
    /// The result has been taken by `join`.
    Consumed,
}

pub(crate) struct SemState {
    pub(crate) permits: usize,
    pub(crate) queue: std::collections::VecDeque<Arc<Waiter>>,
}

pub(crate) struct SimState {
    pub(crate) now: SimTime,
    seq: u64,
    /// Number of simulated threads currently eligible to run. With
    /// event-mediated wakeups this is always 0 or 1; kept as a counter for
    /// clarity and debug assertions.
    runnable: usize,
    /// Spawned-but-unjoined simulated threads (excluding the root thread).
    live: usize,
    events: BinaryHeap<Reverse<Event>>,
    joins: Vec<JoinState>,
    pub(crate) sems: Vec<SemState>,
    /// Slots in `sems` whose semaphore was dropped, available for reuse.
    pub(crate) free_sems: Vec<usize>,
}

impl SimState {
    /// Fires the earliest pending event, advancing the clock. Must only be
    /// called when no simulated thread is runnable.
    fn dispatch_one(&mut self) {
        debug_assert_eq!(self.runnable, 0, "dispatch while a thread is runnable");
        loop {
            let Reverse(ev) = self.events.pop().unwrap_or_else(|| {
                panic!(
                    "simulation deadlock at t={}: no runnable threads and no pending \
                     events ({} spawned threads still live; check for semaphore waits \
                     that can never be released)",
                    self.now, self.live
                )
            });
            // A waiter woken through another path (a timed semaphore wait
            // whose permit arrived before its deadline, or vice versa)
            // leaves its other event behind; discard such stale events
            // without advancing the clock.
            if ev.waiter.woken.load(Ordering::Relaxed) {
                continue;
            }
            debug_assert!(ev.at >= self.now, "event scheduled in the past");
            self.now = ev.at;
            ev.waiter.woken.store(true, Ordering::Relaxed);
            self.runnable += 1;
            ev.waiter.cv.notify_one();
            return;
        }
    }

    /// Schedules `waiter` to wake at time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, waiter: Arc<Waiter>) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            at,
            seq: self.seq,
            waiter,
        }));
    }

    /// Parks the current thread until `waiter` is woken. The caller must
    /// currently be runnable; on return the thread is runnable again.
    pub(crate) fn park(mut guard: MutexGuard<'_, SimState>, waiter: &Waiter) {
        guard.runnable -= 1;
        loop {
            if waiter.woken.load(Ordering::Relaxed) {
                break;
            }
            if guard.runnable == 0 {
                guard.dispatch_one();
            } else {
                waiter.cv.wait(&mut guard);
            }
        }
        // Whoever woke us incremented `runnable` on our behalf.
    }
}

struct SimInner {
    state: Mutex<SimState>,
}

/// Handle to a simulation instance.
///
/// Cloning is cheap; all clones refer to the same virtual clock. Create one
/// with [`Sim::new`] on the thread that will drive the experiment (the *root
/// thread*), and start additional simulated threads with [`Sim::spawn`].
/// Only the root thread and spawned threads may call kernel methods.
///
/// # Examples
///
/// ```
/// use cloudprov_sim::Sim;
/// use std::time::Duration;
///
/// let sim = Sim::new();
/// let h = sim.spawn({
///     let sim = sim.clone();
///     move || {
///         sim.sleep(Duration::from_secs(5));
///         42
///     }
/// });
/// assert_eq!(h.join(), 42);
/// assert_eq!(sim.now().as_secs_f64(), 5.0);
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Arc<SimInner>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim").field("now", &self.now()).finish()
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates a new simulation and registers the calling thread as its root
    /// simulated thread.
    pub fn new() -> Sim {
        Sim {
            inner: Arc::new(SimInner {
                state: Mutex::new(SimState {
                    now: SimTime::ZERO,
                    seq: 0,
                    runnable: 1, // the root thread
                    live: 0,
                    events: BinaryHeap::new(),
                    joins: Vec::new(),
                    sems: Vec::new(),
                    free_sems: Vec::new(),
                }),
            }),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, SimState> {
        self.inner.state.lock()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.lock().now
    }

    /// Suspends the calling simulated thread for `d` of virtual time.
    ///
    /// Other simulated threads run while this one sleeps; if none are
    /// runnable the clock jumps forward.
    pub fn sleep(&self, d: Duration) {
        let waiter = Waiter::new();
        let mut guard = self.lock();
        let at = guard.now + d;
        guard.schedule(at, waiter.clone());
        SimState::park(guard, &waiter);
    }

    /// Yields to any other simulated thread scheduled at the current
    /// instant. Equivalent to `sleep(Duration::ZERO)`.
    pub fn yield_now(&self) {
        self.sleep(Duration::ZERO);
    }

    /// Starts a new simulated thread running `f`.
    ///
    /// The thread begins executing at the current virtual instant, once the
    /// spawner blocks, on the spawner's [`lane`]. Panics inside `f` are
    /// captured and re-raised from [`SimHandle::join`].
    pub fn spawn<T, F>(&self, f: F) -> SimHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let start = Waiter::new();
        let slot;
        {
            let mut guard = self.lock();
            slot = guard.joins.len();
            guard.joins.push(JoinState::Running { waiter: None });
            guard.live += 1;
            let at = guard.now;
            guard.schedule(at, start.clone());
        }
        let sim = self.clone();
        let lane = lane();
        thread::Builder::new()
            .name(format!("sim-{slot}"))
            .spawn(move || {
                LANE.with(|l| l.set(lane));
                // Wait to be scheduled: the start event makes us runnable
                // only when every other simulated thread has blocked.
                {
                    let mut guard = sim.lock();
                    while !start.woken.load(Ordering::Relaxed) {
                        start.cv.wait(&mut guard);
                    }
                }
                let result = panic::catch_unwind(AssertUnwindSafe(f));
                let mut guard = sim.lock();
                guard.live -= 1;
                guard.runnable -= 1;
                let joiner = match std::mem::replace(
                    &mut guard.joins[slot],
                    match result {
                        Ok(v) => JoinState::Done(Box::new(v)),
                        Err(p) => JoinState::Panicked(p),
                    },
                ) {
                    JoinState::Running { waiter } => waiter,
                    _ => unreachable!("thread finished twice"),
                };
                if let Some(w) = joiner {
                    let at = guard.now;
                    guard.schedule(at, w);
                }
                if guard.runnable == 0 && !guard.events.is_empty() {
                    guard.dispatch_one();
                }
            })
            .expect("failed to spawn simulation thread");
        SimHandle {
            sim: self.clone(),
            slot,
            _marker: PhantomData,
        }
    }

    /// Runs `tasks` on up to `concurrency` simulated worker threads and
    /// returns their results in task order.
    ///
    /// This models a client opening `concurrency` parallel connections, as
    /// the paper's uploader tool does, and is the building block for every
    /// "upload in parallel" step in the protocols.
    pub fn run_parallel<T, F>(&self, concurrency: usize, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        assert!(concurrency > 0, "concurrency must be at least 1");
        let n = tasks.len();
        let shared: Arc<Mutex<Vec<Option<F>>>> =
            Arc::new(Mutex::new(tasks.into_iter().map(Some).collect()));
        let next = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let results: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let workers = concurrency.min(n.max(1));
        let handles: Vec<SimHandle<()>> = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                let next = next.clone();
                let results = results.clone();
                self.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let task = shared.lock()[i].take().expect("task taken twice");
                    let r = task();
                    results.lock()[i] = Some(r);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        Arc::try_unwrap(results)
            .unwrap_or_else(|_| panic!("worker leaked results handle"))
            .into_inner()
            .into_iter()
            .map(|r| r.expect("task did not run"))
            .collect()
    }
}

/// Owned handle to a spawned simulated thread. Join it to retrieve the
/// thread's result in virtual time.
pub struct SimHandle<T> {
    sim: Sim,
    slot: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for SimHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHandle")
            .field("slot", &self.slot)
            .finish()
    }
}

impl<T: Send + 'static> SimHandle<T> {
    /// Blocks (in virtual time) until the thread finishes, returning its
    /// result.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from the joined thread.
    pub fn join(self) -> T {
        let mut guard = self.sim.lock();
        if let JoinState::Running { waiter } = &mut guard.joins[self.slot] {
            let w = Waiter::new();
            *waiter = Some(w.clone());
            SimState::park(guard, &w);
            guard = self.sim.lock();
        }
        match std::mem::replace(&mut guard.joins[self.slot], JoinState::Consumed) {
            JoinState::Done(v) => *v.downcast::<T>().expect("join result type mismatch"),
            JoinState::Panicked(p) => {
                drop(guard);
                panic::resume_unwind(p)
            }
            JoinState::Running { .. } => unreachable!("woken before thread finished"),
            JoinState::Consumed => unreachable!("join result already consumed"),
        }
    }

    /// Returns true if the thread has finished (without blocking).
    pub fn is_finished(&self) -> bool {
        !matches!(self.sim.lock().joins[self.slot], JoinState::Running { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_clock_only() {
        let sim = Sim::new();
        let wall = std::time::Instant::now();
        sim.sleep(Duration::from_secs(3600));
        assert_eq!(sim.now().as_secs_f64(), 3600.0);
        assert!(wall.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn lanes_are_inherited_by_spawned_threads_and_restored() {
        let sim = Sim::new();
        assert_eq!(lane(), 0);
        let outer = enter_lane();
        let a = lane();
        assert_ne!(a, 0);
        // Every run_parallel worker runs on the spawner's lane, nested
        // spawns included.
        let tasks: Vec<_> = (0..3)
            .map(|_| {
                let sim = sim.clone();
                move || (lane(), sim.spawn(lane).join())
            })
            .collect();
        assert!(sim.run_parallel(2, tasks).iter().all(|&l| l == (a, a)));
        {
            let _inner = enter_lane();
            assert_ne!(lane(), a);
        }
        assert_eq!(lane(), a);
        drop(outer);
        assert_eq!(lane(), 0);
    }

    #[test]
    fn spawned_thread_runs_concurrently_in_virtual_time() {
        let sim = Sim::new();
        let h = sim.spawn({
            let sim = sim.clone();
            move || {
                sim.sleep(Duration::from_secs(10));
                sim.now()
            }
        });
        sim.sleep(Duration::from_secs(4));
        assert_eq!(sim.now().as_secs_f64(), 4.0);
        let child_done = h.join();
        assert_eq!(child_done.as_secs_f64(), 10.0);
        // Parallel, not additive: total is max(10, 4), not 14.
        assert_eq!(sim.now().as_secs_f64(), 10.0);
    }

    #[test]
    fn join_returns_value_immediately_if_finished() {
        let sim = Sim::new();
        let h = sim.spawn(|| 7usize);
        sim.sleep(Duration::from_millis(1));
        assert!(h.is_finished());
        assert_eq!(h.join(), 7);
    }

    #[test]
    fn join_propagates_panics() {
        let sim = Sim::new();
        let h = sim.spawn(|| -> () { panic!("boom in sim thread") });
        let err = panic::catch_unwind(AssertUnwindSafe(|| h.join())).unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str panic>");
        assert!(msg.contains("boom"));
    }

    #[test]
    fn many_sleepers_wake_in_order() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in (1..=5).rev() {
            let sim2 = sim.clone();
            let order = order.clone();
            handles.push(sim.spawn(move || {
                sim2.sleep(Duration::from_secs(i as u64));
                order.lock().push(i);
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(*order.lock(), vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now().as_secs_f64(), 5.0);
    }

    #[test]
    fn run_parallel_overlaps_latencies() {
        let sim = Sim::new();
        let tasks: Vec<_> = (0..10)
            .map(|_| {
                let sim = sim.clone();
                move || {
                    sim.sleep(Duration::from_secs(1));
                    sim.now().as_secs_f64()
                }
            })
            .collect();
        let out = sim.run_parallel(5, tasks);
        assert_eq!(out.len(), 10);
        // 10 one-second tasks over 5 workers: two waves.
        assert_eq!(sim.now().as_secs_f64(), 2.0);
    }

    #[test]
    fn run_parallel_preserves_task_order_of_results() {
        let sim = Sim::new();
        let tasks: Vec<_> = (0..20).map(|i| move || i * 2).collect();
        let out = sim.run_parallel(4, tasks);
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_spawns_work() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let h = sim.spawn(move || {
            let inner = sim2.spawn({
                let sim3 = sim2.clone();
                move || {
                    sim3.sleep(Duration::from_millis(500));
                    1u32
                }
            });
            inner.join() + 1
        });
        assert_eq!(h.join(), 2);
        assert_eq!(sim.now().as_secs_f64(), 0.5);
    }

    #[test]
    fn yield_now_lets_same_instant_events_run() {
        let sim = Sim::new();
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = flag.clone();
        let _h = sim.spawn(move || flag2.store(true, Ordering::Relaxed));
        sim.yield_now();
        assert!(flag.load(Ordering::Relaxed));
    }
}
