//! Open-loop schedules: events fall due on a fixed grid whatever the
//! system does, each is timed from its due time, and the generator's
//! own lateness and backlog are accounted separately so a run whose
//! generator fell behind is flagged rather than trusted.
//!
//! Times are offsets from a common origin, so the arithmetic is
//! testable without a clock.

use crate::stats::Samples;
use std::time::{Duration, Instant};

/// A fixed-rate grid of due times: event `i` is due at `phase + i × interval`.
#[derive(Debug, Clone)]
pub struct Schedule {
    interval_ns: u64,
    phase_ns: u64,
    /// Events started so far (the next event's index).
    next: u64,
    /// Lateness of each started event: start − due.
    pub lag: Samples,
    /// Most events that were due but not yet started, seen at any start.
    pub backlog_max: u64,
}

impl Schedule {
    /// A schedule of `rate` events per second, the first due at `phase`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    pub fn per_second(rate: f64, phase: Duration) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Schedule {
            interval_ns: ((1e9 / rate).round() as u64).max(1),
            phase_ns: phase.as_nanos() as u64,
            next: 0,
            lag: Samples::default(),
            backlog_max: 0,
        }
    }

    /// A schedule with one event every `every`.
    pub fn every(every: Duration, phase: Duration) -> Self {
        Self::per_second(1e9 / every.as_nanos().max(1) as f64, phase)
    }

    /// The due offset of event `i`.
    pub fn due_of(&self, i: u64) -> u64 {
        self.phase_ns + i * self.interval_ns
    }

    /// The due offset of the next event to start.
    pub fn next_due(&self) -> u64 {
        self.due_of(self.next)
    }

    /// Events started so far.
    pub fn started(&self) -> u64 {
        self.next
    }

    /// Events due at or before `now`, started or not.
    pub fn due_by(&self, now: u64) -> u64 {
        if now < self.phase_ns {
            0
        } else {
            (now - self.phase_ns) / self.interval_ns + 1
        }
    }

    /// Events due at or before `now` and not yet started.
    pub fn backlog(&self, now: u64) -> u64 {
        self.due_by(now).saturating_sub(self.next)
    }

    /// Starts the next event if it is due at `now`: records its
    /// lateness and the backlog, and returns `(index, due offset)`.
    pub fn take(&mut self, now: u64) -> Option<(u64, u64)> {
        let due = self.next_due();
        if now < due {
            return None;
        }
        self.backlog_max = self.backlog_max.max(self.backlog(now));
        self.lag.push(now - due);
        let i = self.next;
        self.next += 1;
        Some((i, due))
    }
}

/// Nanoseconds since `origin`.
pub fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Sleeps until due times and remembers when the thread went idle and
/// woke, so an event is charged the system's delay but not the
/// generator's own wake-up delay.
#[derive(Debug, Clone, Copy)]
pub struct Waiter {
    origin: Instant,
    idle_since: u64,
    woke_at: u64,
}

impl Waiter {
    pub fn new(origin: Instant) -> Self {
        Waiter {
            origin,
            idle_since: u64::MAX,
            woke_at: 0,
        }
    }

    /// Sleeps until `due_ns` (returns at once if past), or until
    /// `stop` says so.
    pub fn wait_until(&mut self, due_ns: u64, stop: &dyn Fn() -> bool) {
        self.idle_since = now_ns(self.origin);
        loop {
            let now = now_ns(self.origin);
            if now >= due_ns || stop() {
                self.woke_at = now;
                return;
            }
            let left = Duration::from_nanos(due_ns - now);
            std::thread::sleep(left.min(Duration::from_millis(20)));
        }
    }

    /// When an event due at `due` starts being charged: at its due time
    /// if it fell due while the thread was busy (the system held the
    /// thread up), else when the thread woke — a late wake-up is the
    /// generator's delay, reported as lag, not the system's.
    pub fn charge_from(&self, due: u64) -> u64 {
        if due >= self.idle_since {
            due.max(self.woke_at)
        } else {
            due
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn due_times_lie_on_the_grid() {
        let s = Schedule::per_second(1000.0, Duration::from_millis(5));
        assert_eq!(s.due_of(0), 5 * MS);
        assert_eq!(s.due_of(3), 8 * MS);
        let s = Schedule::every(Duration::from_millis(250), Duration::ZERO);
        assert_eq!(s.due_of(4), 1000 * MS);
    }

    #[test]
    fn nothing_starts_before_it_is_due() {
        let mut s = Schedule::per_second(1000.0, Duration::ZERO);
        assert_eq!(s.take(0), Some((0, 0)));
        assert_eq!(s.take(MS - 1), None);
        assert_eq!(s.backlog(MS - 1), 0);
        assert_eq!(s.take(MS), Some((1, MS)));
        assert_eq!(s.started(), 2);
    }

    #[test]
    fn a_stall_is_charged_to_every_event_it_delays() {
        // 1 event/ms; the generator stalls until 10.5 ms, then drains
        // the backlog at once. Each event is timed from its own due
        // time, so the earliest waited longest.
        let mut s = Schedule::per_second(1000.0, Duration::ZERO);
        let now = 10 * MS + MS / 2;
        assert_eq!(s.backlog(now), 11);
        assert_eq!(s.due_by(now), 11);
        let mut delays = Vec::new();
        while let Some((_, due)) = s.take(now) {
            delays.push(now - due);
        }
        assert_eq!(delays.len(), 11);
        assert_eq!(delays[0], now);
        assert_eq!(delays[10], MS / 2);
        assert_eq!(s.backlog_max, 11);
        assert_eq!(s.lag.max(), now);
        assert_eq!(s.backlog(now), 0);
    }

    #[test]
    fn on_time_events_have_no_lag() {
        let mut s = Schedule::per_second(100.0, Duration::ZERO);
        for i in 0..50 {
            assert!(s.take(s.due_of(i)).is_some());
        }
        assert_eq!(s.lag.max(), 0);
        assert_eq!(s.backlog_max, 1);
    }

    #[test]
    fn wait_until_returns_at_the_due_time() {
        let origin = Instant::now();
        let mut w = Waiter::new(origin);
        let due = now_ns(origin) + 2 * MS;
        w.wait_until(due, &|| false);
        assert!(now_ns(origin) >= due);
        // A stop request ends the wait early.
        let far = now_ns(origin) + 10_000 * MS;
        w.wait_until(far, &|| true);
        assert!(now_ns(origin) < far);
    }

    #[test]
    fn only_the_systems_delay_is_charged() {
        let w = Waiter {
            origin: Instant::now(),
            idle_since: 10 * MS,
            woke_at: 12 * MS,
        };
        // Due while the thread was busy before it went idle: the whole
        // wait counts.
        assert_eq!(w.charge_from(9 * MS), 9 * MS);
        // Due while it slept: its late wake-up does not count.
        assert_eq!(w.charge_from(11 * MS), 12 * MS);
        // Due after it woke (later events of the same pass).
        assert_eq!(w.charge_from(13 * MS), 13 * MS);
        // A thread that never slept charges from the due time.
        let fresh = Waiter::new(Instant::now());
        assert_eq!(fresh.charge_from(5), 5);
    }
}
