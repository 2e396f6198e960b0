//! The `slo_rps` search: the highest rate of a fixed ladder at which the
//! tail latency stays within the limit and the backlog does not grow.
//!
//! The search is a staircase: it moves in coarse steps (up after a probe
//! that meets the limit, down after one that misses) until the outcome
//! first changes, then one fine step at a time the same way. It settles
//! around the highest rate that meets the limit; the result is the median
//! of the rates probed since the outcome first changed, so a single probe
//! spoiled by a stall of the host moves it by at most one step.

/// What one probe at a fixed rate observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Tail latency from due time, microseconds; failed or refused requests
    /// count as infinitely late.
    pub tail_us: f64,
    /// Whether the requests still unanswered at the end of the probe stayed
    /// within what the latency limit allows at this rate.
    pub backlog_ok: bool,
}

impl Probe {
    pub fn meets(&self, limit_us: f64) -> bool {
        self.backlog_ok && self.tail_us <= limit_us
    }
}

/// A geometric ladder from `lo` up to at most `hi`, each step `ratio` times
/// the previous one, rounded to whole requests per second.
pub fn ladder(lo: f64, hi: f64, ratio: f64) -> Vec<f64> {
    assert!(lo > 0.0 && hi >= lo && ratio > 1.0, "bad ladder");
    let mut rates = Vec::new();
    let mut r = lo;
    while r <= hi * (1.0 + 1e-9) {
        rates.push(r.round());
        r *= ratio;
    }
    rates
}

/// The staircase over a ladder; see the module docs.
#[derive(Debug, Clone)]
pub struct Staircase {
    rates: Vec<f64>,
    idx: usize,
    coarse_step: usize,
    /// Outcome of the first probe, while the outcome has not changed yet.
    first: Option<bool>,
    /// Rates probed since the outcome first changed.
    settled: Vec<f64>,
}

impl Staircase {
    /// Start at the highest ladder rate not above `start`.
    pub fn new(rates: Vec<f64>, start: f64, coarse_step: usize) -> Self {
        assert!(!rates.is_empty() && coarse_step > 0, "bad staircase");
        let idx = rates.iter().rposition(|&r| r <= start).unwrap_or(0);
        Staircase {
            rates,
            idx,
            coarse_step,
            first: None,
            settled: Vec::new(),
        }
    }

    /// The rate to probe next.
    pub fn rate(&self) -> f64 {
        self.rates[self.idx]
    }

    /// Record whether the probe at [`Staircase::rate`] met the limit.
    pub fn record(&mut self, met: bool) {
        let coarse = self.settled.is_empty() && *self.first.get_or_insert(met) == met;
        if !coarse {
            self.settled.push(self.rate());
        }
        let step = if coarse { self.coarse_step } else { 1 };
        let top = self.rates.len() - 1;
        self.idx = if met {
            (self.idx + step).min(top)
        } else {
            self.idx.saturating_sub(step)
        };
    }

    /// Median of the rates probed since the outcome first changed; the
    /// current rate while it has not changed yet.
    pub fn result(&self) -> f64 {
        if self.settled.is_empty() {
            self.rate()
        } else {
            crate::stats::median_of(&self.settled)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Queueing-shaped curve: tail grows like 1 / (capacity - rate) and the
    /// backlog grows once the rate passes capacity.
    fn curve(capacity: f64, base_us: f64) -> impl Fn(f64) -> Probe {
        move |rate| {
            let headroom = capacity - rate;
            Probe {
                tail_us: if headroom > 0.0 {
                    base_us * capacity / headroom
                } else {
                    f64::INFINITY
                },
                backlog_ok: headroom > 0.0,
            }
        }
    }

    fn run(stairs: &mut Staircase, probes: usize, limit_us: f64, probe: impl Fn(f64) -> Probe) {
        for _ in 0..probes {
            let met = probe(stairs.rate()).meets(limit_us);
            stairs.record(met);
        }
    }

    #[test]
    fn ladder_is_geometric_and_bounded() {
        let l = ladder(100.0, 200.0, 1.1);
        assert_eq!(l.first(), Some(&100.0));
        assert!(l.iter().all(|&r| r <= 200.0));
        assert_eq!(l.len(), 8);
        assert!(l.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn settles_on_the_highest_rate_within_the_limit() {
        let rates = ladder(100.0, 20_000.0, 1.025);
        // Tail 200 µs at zero load; a 1 ms limit is met while
        // capacity / headroom <= 5, i.e. up to 80% of capacity (4000/s).
        let mut s = Staircase::new(rates.clone(), 700.0, 4);
        run(&mut s, 60, 1000.0, curve(5000.0, 200.0));
        let best = rates.iter().copied().rfind(|&r| r <= 4000.0).unwrap();
        let next = rates.iter().copied().find(|&r| r > 4000.0).unwrap();
        assert!(s.result() >= best && s.result() <= next, "{}", s.result());
    }

    #[test]
    fn starting_above_capacity_descends_coarsely_then_settles() {
        let rates = ladder(100.0, 20_000.0, 1.025);
        // Limit met up to 80% of a 1000/s capacity.
        let mut s = Staircase::new(rates.clone(), 4000.0, 8);
        run(&mut s, 40, 1000.0, curve(1000.0, 200.0));
        assert!((780.0..=820.0).contains(&s.result()), "{}", s.result());
    }

    #[test]
    fn a_growing_backlog_fails_even_with_a_low_tail() {
        let rates = ladder(100.0, 5000.0, 1.025);
        let probe = |rate: f64| Probe {
            tail_us: 10.0,
            backlog_ok: rate < 500.0,
        };
        let mut s = Staircase::new(rates, 100.0, 4);
        run(&mut s, 60, 1000.0, probe);
        assert!((480.0..=512.0).contains(&s.result()), "{}", s.result());
    }

    #[test]
    fn one_spoiled_probe_moves_the_result_by_at_most_a_step() {
        let rates = ladder(100.0, 20_000.0, 1.025);
        let limit = 1000.0;
        let clean = |n: usize| {
            let mut s = Staircase::new(rates.clone(), 700.0, 4);
            run(&mut s, n, limit, curve(5000.0, 200.0));
            s
        };
        let mut spoiled = clean(40);
        spoiled.record(false); // a stall fails a rate that normally meets
        run(&mut spoiled, 19, limit, curve(5000.0, 200.0));
        let reference = clean(60).result();
        assert!((spoiled.result() / reference - 1.0).abs() <= 0.026);
    }

    #[test]
    fn the_top_of_the_ladder_caps_the_climb_and_the_bottom_the_fall() {
        let rates = ladder(100.0, 1000.0, 1.1);
        let mut s = Staircase::new(rates.clone(), 100.0, 4);
        run(&mut s, 30, 1e9, curve(1e9, 1.0));
        assert_eq!(s.result(), *rates.last().unwrap());
        let mut s = Staircase::new(rates.clone(), 500.0, 4);
        run(&mut s, 100, 1.0, curve(5000.0, 200.0));
        assert_eq!(s.result(), rates[0]);
    }
}
