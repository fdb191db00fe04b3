//! The benchmark's one clock.
//!
//! Every wall-clock read of the ledger goes through [`Stopwatch`], so the
//! workspace analyzer's `wall-clock` rule has exactly one place to
//! excuse: the solvers under measurement never see a time value, only the
//! code that times them from outside.

use std::time::Instant; // wsyn: allow(wall-clock)

/// A started monotonic timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant); // wsyn: allow(wall-clock)

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now()) // wsyn: allow(wall-clock)
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since [`Stopwatch::start`], saturating at `u64::MAX`.
    #[must_use]
    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
