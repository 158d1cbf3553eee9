//! Open-loop load generator: requests are due on a schedule fixed before
//! the run, and each is timed from when it was due, not from when the
//! generator got round to sending it. A stall therefore shows up in the
//! latency of every request queued behind it instead of silently delaying
//! the schedule (coordinated omission).

use std::time::{Duration, Instant};

/// How close to a due time the generator stops sleeping and spins: OS
/// sleeps overshoot by tens of microseconds, which would otherwise read as
/// latency of the system under test.
const SPIN: Duration = Duration::from_micros(150);

/// Due times (offsets from the phase start) of a Poisson arrival process
/// at `rate` per second over `span`, drawn from `next_u64`.
pub fn poisson_schedule(
    rate: f64,
    span: Duration,
    mut next_u64: impl FnMut() -> u64,
) -> Vec<Duration> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Uniform in (0, 1]: never ln(0).
        let u = ((next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// What one open-loop phase measured.
#[derive(Debug, Default, Clone)]
pub struct OpenLoop {
    /// Due time to completion, µs, one per request sent, in schedule order.
    pub latency_us: Vec<f64>,
    /// Due time to actual send, µs: the generator's lateness, whether from
    /// its own sleep overshoot or from queueing behind a slow request.
    pub late_us: Vec<f64>,
    /// Send to completion, µs: the service time alone.
    pub service_us: Vec<f64>,
    /// Requests the service reported as failed.
    pub failed: u64,
    /// Phase start to last completion, seconds.
    pub wall_s: f64,
    /// Seconds the generator spent waiting for due times.
    pub idle_s: f64,
}

/// Runs `schedule` against `serve`. `prepare(k)` builds request `k`'s
/// input before its due time, so allocation is never counted as latency.
/// `serve` returns whether the request succeeded. Requests still unsent
/// `give_up` after the start are never sent, so a system that has
/// collapsed cannot stretch the phase without bound.
pub fn run<P>(
    schedule: &[Duration],
    give_up: Duration,
    mut prepare: impl FnMut(usize) -> P,
    mut serve: impl FnMut(usize, P) -> bool,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let start = Instant::now();
    for (k, due) in schedule.iter().enumerate() {
        if start.elapsed() > give_up {
            break;
        }
        let input = prepare(k);
        let due = start + *due;
        let waited = Instant::now();
        wait_until(due);
        out.idle_s += waited.elapsed().as_secs_f64();
        let sent = Instant::now();
        if !serve(k, input) {
            out.failed += 1;
        }
        let done = Instant::now();
        out.late_us.push(micros(sent.saturating_duration_since(due)));
        out.latency_us.push(micros(done.saturating_duration_since(due)));
        out.service_us.push(micros(done - sent));
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let mut x = 1u64;
        let s = poisson_schedule(2000.0, Duration::from_secs(5), || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x
        });
        let n = s.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        // 1,000 requests/s, evenly spaced; request 20 stalls for 50 ms and
        // everything else is instant. The ~50 requests due during the stall
        // must each carry the wait from their own due time.
        let schedule: Vec<Duration> = (0..200).map(Duration::from_millis).collect();
        let stall = Duration::from_millis(50);
        let r = run(
            &schedule,
            Duration::from_secs(10),
            |_| (),
            |k, ()| {
                if k == 20 {
                    std::thread::sleep(stall);
                }
                true
            },
        );
        let stall_end_us = 20_000.0 + 50_000.0;
        for (k, lat) in r.latency_us.iter().enumerate().skip(21).take(49) {
            let owed = stall_end_us - (k as f64) * 1000.0;
            assert!(*lat >= owed - 1.0, "request {k}: {lat} µs < {owed} µs owed");
        }
        // The generator reports how late it ran: the first request behind
        // the stall went out ~49 ms after it was due.
        let late_max = r.late_us.iter().cloned().fold(0.0, f64::max);
        assert!(late_max >= 48_000.0, "lateness {late_max} µs");
        assert!(r.latency_us[20] >= 50_000.0);
        // Service time excludes the queueing: only request 20 was slow.
        assert!(r.service_us.iter().filter(|s| **s >= 40_000.0).count() == 1);
        assert_eq!(r.failed, 0);
        // After the backlog drains the schedule is met again.
        assert!(r.late_us[150] < 5_000.0, "{}", r.late_us[150]);
    }

    #[test]
    fn a_collapsed_service_is_given_up_on() {
        let schedule: Vec<Duration> = (0..100).map(Duration::from_millis).collect();
        let r = run(
            &schedule,
            Duration::from_millis(30),
            |_| (),
            |_, ()| {
                std::thread::sleep(Duration::from_millis(10));
                true
            },
        );
        assert!(r.latency_us.len() < 10, "{} requests sent", r.latency_us.len());
        assert!(r.wall_s < 0.1);
    }
}
