//! CPU steal: time the hypervisor ran another guest on this VM's CPUs.
//!
//! On a small shared VM, spells of 10–20% steal last a minute and slow
//! every CPU-bound number by about as much. Measurements are therefore
//! taken over intervals and kept only when the interval was clean (the
//! `steal` column of `/proc/stat` barely moved); a phase is extended, up to
//! a cap, until it has enough clean intervals. Where `/proc/stat` cannot be
//! read, every interval counts as clean.

use std::time::{Duration, Instant};

/// Largest share of CPU time stolen in an interval that still counts as
/// clean, on top of one tick of slack.
const MAX_SHARE: f64 = 0.02;

/// A phase waiting for clean intervals stops at this multiple of its
/// planned length.
pub const CAP: f64 = 1.5;

/// Cumulative `(steal, total)` CPU ticks of the whole VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticks {
    steal: u64,
    total: u64,
}

/// Read the aggregate `cpu` line of `/proc/stat`.
pub fn now() -> Option<Ticks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse(stat.lines().next()?)
}

fn parse(line: &str) -> Option<Ticks> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let steal = *values.get(7)?;
    Some(Ticks {
        steal,
        total: values.iter().take(8).sum(),
    })
}

/// Whether the interval between two readings was clean.
pub fn clean(from: Option<Ticks>, to: Option<Ticks>) -> bool {
    match (from, to) {
        (Some(a), Some(b)) => {
            let stolen = b.steal.saturating_sub(a.steal) as f64;
            let total = b.total.saturating_sub(a.total) as f64;
            stolen <= 1.0 + MAX_SHARE * total
        }
        _ => true,
    }
}

/// Readings taken while a phase runs, to judge its intervals afterwards.
#[derive(Debug, Default)]
pub struct Timeline {
    samples: Vec<(Instant, Option<Ticks>)>,
}

impl Timeline {
    pub fn sample(&mut self) {
        self.samples.push((Instant::now(), now()));
    }

    /// Whether `[from, to)` was clean, judged by the readings just outside
    /// it (false when the timeline does not cover it).
    pub fn clean(&self, from: Instant, to: Instant) -> bool {
        let before = self.samples.iter().rev().find(|(t, _)| *t <= from);
        let after = self.samples.iter().find(|(t, _)| *t >= to);
        match (before, after) {
            (Some(a), Some(b)) => clean(a.1, b.1),
            _ => false,
        }
    }
}

/// Run `step` until it has returned `true` (a clean interval) `want` times
/// and `min` has passed, or until `cap` has passed. Returns how many clean
/// intervals there were.
pub fn until_clean(
    want: usize,
    min: Duration,
    cap: Duration,
    mut step: impl FnMut() -> Result<bool, String>,
) -> Result<usize, String> {
    let started = Instant::now();
    let mut clean = 0;
    while (clean < want || started.elapsed() < min) && started.elapsed() < cap {
        clean += usize::from(step()?);
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cpu_line() {
        let t = parse("cpu  178218 0 10580 396662 464 0 268 2895 0 0").unwrap();
        assert_eq!(t.steal, 2895);
        assert_eq!(t.total, 178218 + 10580 + 396662 + 464 + 268 + 2895);
        assert_eq!(parse("cpu0 1 2 3 4 5 6 7 8"), None);
    }

    #[test]
    fn an_interval_with_steal_is_not_clean() {
        let a = Some(Ticks {
            steal: 100,
            total: 1000,
        });
        let quiet = Some(Ticks {
            steal: 101,
            total: 1200,
        });
        let stolen = Some(Ticks {
            steal: 130,
            total: 1200,
        });
        assert!(clean(a, quiet));
        assert!(!clean(a, stolen));
        assert!(clean(None, stolen), "unreadable counters count as clean");
    }

    #[test]
    fn until_clean_extends_to_the_cap_at_most() {
        let mut calls = 0;
        let n = until_clean(3, Duration::ZERO, Duration::from_secs(5), || {
            calls += 1;
            Ok(calls % 2 == 0)
        })
        .unwrap();
        assert_eq!((n, calls), (3, 6));
        let n = until_clean(3, Duration::ZERO, Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(5));
            Ok(false)
        })
        .unwrap();
        assert_eq!(n, 0);
    }
}
