//! The OS backend's time source: wall-clock microseconds since creation.
//!
//! `SimTime` is a plain microsecond count, so the scenario driver and the
//! timer queue ([`TimerWheel`](minion_engine::TimerWheel)) take these
//! readings exactly as they take the simulator's virtual ones. They are
//! real time and therefore never appear in any determinism-gated report
//! field.

use minion_simnet::SimTime;
use std::time::Instant;

/// Microseconds elapsed since the clock was created, read from the OS
/// monotonic clock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A monotonic clock whose t = 0 is now.
    pub(crate) fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }

    /// The current time. Monotonically non-decreasing.
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_micros(self.origin.elapsed().as_micros() as u64)
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_decreases() {
        let c = MonotonicClock::new();
        let mut prev = c.now();
        for _ in 0..1000 {
            let t = c.now();
            assert!(t >= prev, "monotonic clock went backwards: {prev} -> {t}");
            prev = t;
        }
        // And it does advance when real time passes.
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now() > SimTime::ZERO);
    }
}
