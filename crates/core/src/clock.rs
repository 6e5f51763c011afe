//! Injectable time source for wall-clock budgets.
//!
//! Session deadlines and timeouts compare "now" against an [`Instant`]
//! captured at planning time. Reading `Instant::now()` directly would make
//! those comparisons unrepeatable — a deterministic simulation could never
//! replay a deadline tripping between two specific rounds. [`Clock`]
//! abstracts the read: production code uses [`SystemClock`] (the default,
//! zero-cost), tests and the simulation harness use [`SimulatedClock`] and
//! advance time explicitly, so a deadline passing *between* quanta is a
//! scriptable, replayable event rather than a race.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A source of "now". Implementations must be cheap to query — budget
/// checks read the clock before every round.
pub trait Clock: fmt::Debug + Send + Sync {
    /// The current instant according to this clock.
    fn now(&self) -> Instant;
}

/// The real wall clock: [`Instant::now`]. Stateless and free to copy.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    #[expect(clippy::disallowed_methods, reason = "the one real wall-clock read")]
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A manually advanced clock for deterministic tests and simulation.
///
/// Reports a fixed base instant (captured at construction) plus an offset
/// that only moves when [`SimulatedClock::advance`] /
/// [`SimulatedClock::set_elapsed`] are called — time never passes on its
/// own. Clones share the same offset, so the clock handed to a query
/// builder and the one held by the test driver stay in lockstep.
///
/// ```
/// use rapidviz_core::clock::{Clock, SimulatedClock};
/// use std::time::Duration;
///
/// let clock = SimulatedClock::new();
/// let t0 = clock.now();
/// clock.advance(Duration::from_secs(5));
/// assert_eq!(clock.now() - t0, Duration::from_secs(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimulatedClock {
    inner: Arc<SimulatedClockInner>,
}

#[derive(Debug)]
struct SimulatedClockInner {
    base: Instant,
    offset: Mutex<Duration>,
}

impl Default for SimulatedClockInner {
    #[expect(clippy::disallowed_methods, reason = "base only; time moves by offset")]
    fn default() -> Self {
        Self {
            base: Instant::now(),
            offset: Mutex::new(Duration::ZERO),
        }
    }
}

impl SimulatedClock {
    /// A fresh clock at elapsed time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `delta`.
    pub fn advance(&self, delta: Duration) {
        let mut offset = self.lock_offset();
        *offset += delta;
    }

    /// Sets the elapsed time since construction to exactly `elapsed`.
    /// Unlike [`SimulatedClock::advance`] this can move time backwards —
    /// replay drivers use it to pin each step to a recorded timestamp.
    pub fn set_elapsed(&self, elapsed: Duration) {
        let mut offset = self.lock_offset();
        *offset = elapsed;
    }

    /// The elapsed time since construction.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        *self.lock_offset()
    }

    fn lock_offset(&self) -> std::sync::MutexGuard<'_, Duration> {
        // A poisoned offset is still a valid Duration; recover it.
        self.inner
            .offset
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Clock for SimulatedClock {
    fn now(&self) -> Instant {
        self.inner.base + *self.lock_offset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_moves_forward() {
        let clock = SystemClock;
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn simulated_clock_only_moves_when_told() {
        let clock = SimulatedClock::new();
        let t0 = clock.now();
        assert_eq!(clock.now(), t0);
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now() - t0, Duration::from_millis(250));
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.elapsed(), Duration::from_millis(500));
    }

    #[test]
    fn clones_share_the_offset() {
        let clock = SimulatedClock::new();
        let peer = clock.clone();
        clock.advance(Duration::from_secs(1));
        assert_eq!(peer.elapsed(), Duration::from_secs(1));
        peer.set_elapsed(Duration::from_millis(10));
        assert_eq!(clock.elapsed(), Duration::from_millis(10));
    }

    #[test]
    fn set_elapsed_can_rewind() {
        let clock = SimulatedClock::new();
        clock.advance(Duration::from_secs(9));
        clock.set_elapsed(Duration::from_secs(2));
        assert_eq!(clock.elapsed(), Duration::from_secs(2));
    }
}
