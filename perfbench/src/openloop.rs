//! Open-loop arrival schedule: request `i` is due at `i / rate` after the
//! start, whether or not earlier requests have completed. Latency is timed
//! from the due time, so a stall that delays later sends is charged to them;
//! how late the generator itself ran is accounted separately.

use std::time::Duration;

/// A send more than this late marks the generator, not the server, as the
/// bottleneck for that request.
pub const LATE_AFTER: Duration = Duration::from_millis(1);

/// Fixed-rate schedule and the generator's lateness ledger.
#[derive(Debug, Clone)]
pub struct Schedule {
    period_ns: u64,
    sent: u64,
    late: u64,
}

impl Schedule {
    /// A schedule at `rate_per_s` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive.
    pub fn new(rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        Schedule {
            period_ns: (1e9 / rate_per_s).round().max(1.0) as u64,
            sent: 0,
            late: 0,
        }
    }

    /// Due time of request `i`, as an offset from the schedule start.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_nanos(self.period_ns.saturating_mul(i))
    }

    /// Requests due strictly before `elapsed` — how many a window of that
    /// length sends.
    pub fn due_before(&self, elapsed: Duration) -> u64 {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        ns.div_ceil(self.period_ns)
    }

    /// Records that request `i` was sent at offset `sent_at`; returns how
    /// late it went out (zero when on time or early).
    pub fn record_send(&mut self, i: u64, sent_at: Duration) -> Duration {
        let lateness = sent_at.saturating_sub(self.due(i));
        self.sent += 1;
        if lateness > LATE_AFTER {
            self.late += 1;
        }
        lateness
    }

    /// Sends recorded so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Share of sends more than [`LATE_AFTER`] late (0 before any send).
    pub fn late_share(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.late as f64 / self.sent as f64
        }
    }
}

/// Latency of a request from its due time to its completion, both offsets
/// from the schedule start. A completion observed before the due time
/// (impossible for a request sent on schedule) reads as zero.
pub fn latency_from_due(due: Duration, completed_at: Duration) -> Duration {
    completed_at.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule::new(200.0);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_millis(5));
        assert_eq!(s.due(200), Duration::from_secs(1));
        // A 1 s window sends requests 0..=199.
        assert_eq!(s.due_before(Duration::from_secs(1)), 200);
        assert_eq!(s.due_before(Duration::from_micros(5001)), 2);
        assert_eq!(s.due_before(Duration::ZERO), 0);
    }

    #[test]
    fn lateness_is_measured_against_the_due_time() {
        let mut s = Schedule::new(1000.0);
        assert_eq!(s.record_send(0, Duration::ZERO), Duration::ZERO);
        // Early sends are not late.
        assert_eq!(
            s.record_send(2, Duration::from_micros(1500)),
            Duration::ZERO
        );
        // Exactly 1 ms late is still on time; beyond it counts.
        assert_eq!(
            s.record_send(3, Duration::from_millis(4)),
            Duration::from_millis(1)
        );
        assert_eq!(
            s.record_send(4, Duration::from_micros(5200)),
            Duration::from_micros(1200)
        );
        assert_eq!(s.sent(), 4);
        assert!((s.late_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // One request every 10 ms. The generator stalls until 50 ms and
        // sends requests 0..=5 at once; each completes 1 ms after the send.
        let s = Schedule::new(100.0);
        let latencies: Vec<Duration> = (0..6)
            .map(|i| latency_from_due(s.due(i), Duration::from_millis(51)))
            .collect();
        assert_eq!(latencies[0], Duration::from_millis(51));
        assert_eq!(latencies[5], Duration::from_millis(1));
        assert_eq!(
            latency_from_due(Duration::from_millis(5), Duration::from_millis(4)),
            Duration::ZERO
        );
    }

    #[test]
    fn no_sends_means_no_lateness() {
        assert_eq!(Schedule::new(1.0).late_share(), 0.0);
    }
}
