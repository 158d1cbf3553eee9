//! Virtual time for the discrete-event simulator.
//!
//! All protocol logic takes time from a [`Clock`] so that timeout paths
//! (TPNR Abort/Resolve, paper §4.2–4.3) are exercised deterministically: the
//! simulator jumps its virtual [`SimTime`] instead of sleeping.

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Adds a duration.
    pub fn after(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Time elapsed since `earlier` (saturating).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Microsecond count.
    pub fn micros(self) -> u64 {
        self.0
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// From hours (shipping simulations span days).
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000)
    }

    /// Microsecond count.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// As floating-point seconds (for experiment reports).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Sum of two spans.
    pub fn plus(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Scales by an integer factor.
    pub fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

/// Host wall-clock stopwatch for *measurement* code (benchmark and
/// experiment harnesses timing real CPU work).
///
/// Protocol logic must take time from a [`Clock`]; this type exists so host
/// timing is confined to `net::time`, the one module the NO-WALLCLOCK lint
/// exempts. It deliberately exposes only elapsed spans, never absolute time,
/// so it cannot leak into protocol timeliness decisions.
pub struct HostStopwatch(std::time::Instant);

impl HostStopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        HostStopwatch(std::time::Instant::now())
    }

    /// Seconds elapsed since [`HostStopwatch::start`].
    pub fn elapsed_secs_f64(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Source of current time for protocol logic.
pub trait Clock {
    /// The current instant.
    fn now(&self) -> SimTime;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO.after(SimDuration::from_millis(5));
        assert_eq!(t.micros(), 5_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(5));
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO); // saturates
        assert_eq!(
            SimDuration::from_secs(2).plus(SimDuration::from_millis(500)).micros(),
            2_500_000
        );
        assert_eq!(SimDuration::from_millis(10).times(3), SimDuration::from_millis(30));
        assert_eq!(SimDuration::from_hours(1).micros(), 3_600_000_000);
    }

    #[test]
    fn as_secs_f64() {
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
    }
}
