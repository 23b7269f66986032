//! Streaming mean used by the server's completion-time prediction.

use crate::time::Duration;

/// Streaming count and mean via Welford's update.
///
/// Used for per-site completion-time averages (the input to the paper's
/// completion-time scheduling strategy, eq. 3).
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    count: u64,
    mean: f64,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Accumulator::default()
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
    }

    /// Record a duration, in seconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` before the first observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }
}
