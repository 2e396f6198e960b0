//! The load generator: one process, one thread per connection, at most two
//! of each.
//!
//! * Open loop: requests are sent on a fixed schedule whatever the server
//!   does, pipelined on each connection; latency is timed from each
//!   request's due time, so a stall also charges the requests queued behind
//!   it.
//! * Closed loop: the next request goes out when the previous answer is in.
//! * Paced appends: one per period, each waiting for its answer; a late
//!   answer delays the next one and shows up as generator lateness.
//!
//! Every answer is checked against its reference line as it arrives.

use crate::gen::{Rng, Template};
use crate::server::Conn;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a connection waits for answers still owed after its schedule ends.
const DRAIN: Duration = Duration::from_secs(20);

/// Ops attempted per outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// Refused with the `overloaded` backpressure answer.
    pub refused: u64,
}

impl OpCount {
    pub fn add(&mut self, other: &OpCount) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.refused += other.refused;
    }

    /// Record one answer; returns whether it was a success.
    pub fn record(&mut self, verdict: Verdict) -> bool {
        match verdict {
            Verdict::Ok => self.succeeded += 1,
            Verdict::Refused => self.refused += 1,
            Verdict::Failed | Verdict::Wrong => self.failed += 1,
        }
        verdict == Verdict::Ok
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Refused,
    Failed,
    /// A success answer that differs from the reference: a correctness
    /// violation, not a load effect.
    Wrong,
}

/// Classify an answer; `matches` says whether a success answer is right.
pub fn classify(resp: &str, matches: impl FnOnce(&str) -> bool) -> Verdict {
    if resp.starts_with("{\"ok\":true") {
        if matches(resp) {
            Verdict::Ok
        } else {
            Verdict::Wrong
        }
    } else if resp.contains("\"error\":\"overloaded\"") {
        Verdict::Refused
    } else {
        Verdict::Failed
    }
}

/// The request lines one connection sends: templates `first, first + step,
/// ...` (cyclic) with never-seen values in the fresh slots.
pub struct Feed<'a> {
    templates: &'a [Template],
    next: usize,
    step: usize,
    tag: String,
    fresh: u64,
    line: String,
    /// Draws the open-loop arrival gaps.
    arrivals: Rng,
}

impl<'a> Feed<'a> {
    /// `tag` prefixes this feed's fresh values; `seed` drives its arrivals.
    pub fn new(templates: &'a [Template], first: usize, step: usize, tag: &str, seed: u64) -> Self {
        Feed {
            templates,
            next: first % templates.len(),
            step,
            tag: tag.to_string(),
            fresh: 0,
            line: String::new(),
            arrivals: Rng::new(seed),
        }
    }

    /// The gap to the next arrival: exponentially distributed with mean
    /// `mean` (Poisson arrivals), or exactly `mean`.
    fn gap(&mut self, mean: Duration, poisson: bool) -> Duration {
        if poisson {
            mean.mul_f64(-(1.0 - self.arrivals.unit()).ln())
        } else {
            mean
        }
    }

    /// Render the next line; returns its template index.
    fn advance(&mut self) -> usize {
        let idx = self.next;
        self.next = (self.next + self.step) % self.templates.len();
        let (tag, fresh) = (&self.tag, &mut self.fresh);
        self.templates[idx].render(
            || {
                *fresh += 1;
                format!("{tag}{fresh}")
            },
            &mut self.line,
        );
        idx
    }
}

/// What one open-loop connection observed.
#[derive(Debug, Clone, Default)]
pub struct OpenResult {
    /// Latency from due time per answered request, µs; failed and refused
    /// requests are `INFINITY`.
    pub from_due_us: Vec<f64>,
    /// Latency from the actual send, µs, successful requests only.
    pub from_send_us: Vec<f64>,
    /// How far each send ran behind its due time, µs.
    pub late_us: Vec<f64>,
    pub count: OpCount,
    pub wrong: u64,
    /// Requests still unanswered when the schedule ended.
    pub backlog_at_end: usize,
    /// The schedule was cut short because the backlog passed its bound.
    pub aborted: bool,
}

impl OpenResult {
    pub fn merge(&mut self, other: OpenResult) {
        self.from_due_us.extend(other.from_due_us);
        self.from_send_us.extend(other.from_send_us);
        self.late_us.extend(other.late_us);
        self.count.add(&other.count);
        self.wrong += other.wrong;
        self.backlog_at_end += other.backlog_at_end;
        self.aborted |= other.aborted;
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Send on `conn` from `t0` until `t0 + span`, one request per `interval`
/// on average, pipelined, checking each answer against
/// `expected[template]`. With `poisson` the gaps are random, so the
/// schedule cannot phase-lock with a server that polls on a fixed period;
/// otherwise they are exact.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conn: &mut Conn,
    feed: &mut Feed<'_>,
    expected: &[String],
    t0: Instant,
    interval: Duration,
    poisson: bool,
    span: Duration,
    max_backlog: usize,
) -> Result<OpenResult, String> {
    let mut r = OpenResult::default();
    let end = t0 + span;
    let mut due = t0 + feed.gap(interval, poisson);
    // (due, sent, template) of every request awaiting its answer.
    let mut owed: VecDeque<(Instant, Instant, usize)> = VecDeque::new();
    let mut sending = true;
    let mut drain_until = None;
    loop {
        let now = Instant::now();
        if sending && due >= end {
            sending = false;
        }
        if sending && owed.len() > max_backlog {
            sending = false;
            r.aborted = true;
        }
        if !sending && drain_until.is_none() {
            r.backlog_at_end = owed.len();
            drain_until = Some(now + DRAIN);
        }
        if sending && due <= now {
            let idx = feed.advance();
            conn.send(&feed.line).map_err(|e| format!("send: {e}"))?;
            let sent = Instant::now();
            r.late_us.push(micros(sent.saturating_duration_since(due)));
            r.count.attempted += 1;
            owed.push_back((due, sent, idx));
            due += feed.gap(interval, poisson);
            continue;
        }
        if !sending && owed.is_empty() {
            break;
        }
        let wait = match drain_until {
            None => due.saturating_duration_since(now),
            Some(limit) if now >= limit => {
                // Answers that never came count as failed.
                for _ in owed.drain(..) {
                    r.count.failed += 1;
                    r.from_due_us.push(f64::INFINITY);
                }
                break;
            }
            Some(limit) => limit - now,
        };
        if let Some(resp) = conn.recv(Some(wait)).map_err(|e| format!("recv: {e}"))? {
            let got = Instant::now();
            let Some((due_at, sent_at, idx)) = owed.pop_front() else {
                return Err("answer to a request never sent".into());
            };
            let verdict = classify(&resp, |s| s == expected[idx]);
            r.wrong += u64::from(verdict == Verdict::Wrong);
            if r.count.record(verdict) {
                r.from_due_us.push(micros(got - due_at));
                r.from_send_us.push(micros(got - sent_at));
            } else {
                r.from_due_us.push(f64::INFINITY);
            }
        }
    }
    Ok(r)
}

/// What the closed loop observed.
#[derive(Debug, Clone, Default)]
pub struct ClosedResult {
    pub latency_us: Vec<f64>,
    /// When each of those answers arrived.
    pub done: Vec<Instant>,
    pub rows: u64,
    pub count: OpCount,
    pub wrong: u64,
}

/// Send requests back to back on `conn` until `stop` is set.
pub fn closed_loop(
    conn: &mut Conn,
    feed: &mut Feed<'_>,
    expected: &[String],
    stop: &AtomicBool,
) -> Result<ClosedResult, String> {
    let mut r = ClosedResult::default();
    while !stop.load(Ordering::Relaxed) {
        closed_call(conn, feed, expected, &mut r)?;
    }
    Ok(r)
}

/// Send the feed's next request, wait for its answer and record it.
pub fn closed_call(
    conn: &mut Conn,
    feed: &mut Feed<'_>,
    expected: &[String],
    r: &mut ClosedResult,
) -> Result<(), String> {
    let idx = feed.advance();
    let sent = Instant::now();
    let resp = conn.call(&feed.line).map_err(|e| format!("call: {e}"))?;
    let took = sent.elapsed();
    r.count.attempted += 1;
    let verdict = classify(&resp, |s| s == expected[idx]);
    r.wrong += u64::from(verdict == Verdict::Wrong);
    if r.count.record(verdict) {
        r.latency_us.push(micros(took));
        r.done.push(sent + took);
        r.rows += feed.templates[idx].rows as u64;
    }
    Ok(())
}

/// What the paced appends observed.
#[derive(Debug, Clone, Default)]
pub struct AppendResult {
    pub latency_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub count: OpCount,
    pub wrong: u64,
}

/// One append every `period` until `stop` is set, built by `append(op)`;
/// each answer must acknowledge `append_rows` rows.
pub fn paced_appends(
    conn: &mut Conn,
    period: Duration,
    stop: &AtomicBool,
    append_rows: usize,
    mut append: impl FnMut(usize) -> String,
) -> Result<AppendResult, String> {
    let mut r = AppendResult::default();
    let t0 = Instant::now();
    let ack = format!("{{\"ok\":true,\"op\":\"append\",\"appended\":{append_rows},");
    'ops: for op in 0.. {
        let due = t0 + period * op as u32;
        loop {
            if stop.load(Ordering::Relaxed) {
                break 'ops;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(20)));
        }
        let line = append(op);
        let sent = Instant::now();
        r.late_us.push(micros(sent.saturating_duration_since(due)));
        let resp = conn.call(&line).map_err(|e| format!("call: {e}"))?;
        let took = micros(sent.elapsed());
        r.count.attempted += 1;
        let verdict = classify(&resp, |s| s.starts_with(&ack));
        r.wrong += u64::from(verdict == Verdict::Wrong);
        if r.count.record(verdict) {
            r.latency_us.push(took);
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_are_classified() {
        let ok = "{\"ok\":true,\"op\":\"repair\"}";
        assert_eq!(classify(ok, |s| s == ok), Verdict::Ok);
        assert_eq!(classify(ok, |_| false), Verdict::Wrong);
        assert_eq!(
            classify(
                "{\"ok\":false,\"error\":\"overloaded\",\"retry\":true}",
                |_| true
            ),
            Verdict::Refused
        );
        assert_eq!(
            classify("{\"ok\":false,\"error\":\"x\"}", |_| true),
            Verdict::Failed
        );
    }

    #[test]
    fn feed_cycles_with_its_step_and_fresh_values_never_repeat() {
        let data = crate::gen::generate(
            crate::gen::Shape {
                cities: 5,
                dates: 3,
                master_rows: 10,
                input_rows: 40,
                zipf: 0.0,
                fresh_share: 1.0,
            },
            3,
        );
        let ts = crate::gen::repair_templates(&data, 8);
        let mut feed = Feed::new(&ts, 1, 2, "t", 0);
        assert_eq!(feed.advance(), 1);
        let first = feed.line.clone();
        assert_eq!(feed.advance(), 3);
        assert_eq!(feed.advance(), 0);
        assert_eq!(feed.advance(), 2);
        assert_eq!(feed.advance(), 4);
        assert_eq!(feed.advance(), 1);
        assert_ne!(
            feed.line, first,
            "a resent template carries new fresh values"
        );
    }
}
