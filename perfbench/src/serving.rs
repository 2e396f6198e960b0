//! The two serving workloads, driven end to end through the `er-serve`
//! binary and its NDJSON protocol only.

use crate::gen::{self, Data, Shape, Template};
use crate::ladder::{self, Probe};
use crate::load::{self, AppendResult, ClosedResult, Feed, OpCount, OpenResult};
use crate::report::Report;
use crate::server::Conn;
use crate::stats::{self, median_of, summarize};
use crate::{steal, Ctx};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `serve-interactive`: the paper-size covid pair; 25% of request rows
/// carry one never-seen value.
pub const INTERACTIVE: Shape = Shape {
    cities: 40,
    dates: 12,
    master_rows: 1_824,
    input_rows: 2_500,
    zipf: 0.0,
    fresh_share: 0.25,
};
const INTERACTIVE_ROWS: usize = 8;
/// Fixed rate at which `p50_us` and `latency.tail_us` are taken, req/s: a
/// seventh of the ~2,800 req/s at which the server saturated in the
/// baseline (perfbench/README.md) on a 2-core host, low enough that a slow
/// spell of the host does not turn into queueing.
pub const REFERENCE_RATE: f64 = 400.0;
/// One window at that rate: ~400 samples, so its tail is the p95 (20
/// beyond); the median over many short windows is steadier than the tail
/// of a few long ones.
const REFERENCE_WINDOW: Duration = Duration::from_secs(1);
/// `repair_csv` calls after each window at that rate.
const CSV_CALLS_PER_WINDOW: usize = 3;
/// Length of one staircase probe, and the rate it starts from.
const LADDER_PROBE: Duration = Duration::from_millis(500);
const LADDER_START: f64 = 1_000.0;
/// The `slo_rps` ladder: 2.5% steps between these rates, requests/s, with
/// room above the saturation point for a faster server.
pub const LADDER: (f64, f64, f64) = (250.0, 12_000.0, 1.025);
/// Latency limit on the tail from due time, µs: loose enough that the
/// staircase finds where the backlog starts to grow, not the pauses of a
/// host whose hypervisor steals 10-35% of the CPU for spells of a minute.
pub const LIMIT_US: f64 = 50_000.0;

/// `serve-bulk`: the master 100x the paper's, with Zipf-skewed cities.
pub const BULK: Shape = Shape {
    cities: 4_000,
    dates: 12,
    master_rows: 182_400,
    input_rows: 65_536,
    zipf: 1.0,
    fresh_share: 0.0,
};
const BULK_ROWS: usize = 1_024;
const BULK_SHARDS: usize = 2;
/// One append per window, while the repairs run. An append holds every
/// shard's write lock through its analysis gate (about half a second when
/// first measured), so more would mostly measure the gate.
const BULK_WINDOW: Duration = Duration::from_millis(4000);
/// Share of the run with repairs and appends; `repair_csv` calls fill the
/// rest, on the append connection, one after another.
const BULK_REPAIR_SHARE: f64 = 0.7;
pub const APPEND_ROWS: usize = 64;

/// Generated files of one run.
pub struct Files {
    pub input: PathBuf,
    pub master: PathBuf,
    pub rules: PathBuf,
}

pub fn write_files(work: &Path, data: &Data) -> Result<Files, String> {
    let files = Files {
        input: work.join("input.csv"),
        master: work.join("master.csv"),
        rules: work.join("rules.json"),
    };
    let write =
        |p: &Path, s: String| std::fs::write(p, s).map_err(|e| format!("{}: {e}", p.display()));
    write(&files.input, gen::input_csv(data))?;
    write(&files.master, gen::master_csv(data))?;
    write(&files.rules, gen::rules_json())?;
    Ok(files)
}

/// `er-serve` arguments shared by the pipe reference and the TCP server:
/// 2 connection workers, 2 repair threads.
pub fn server_args(files: &Files, shards: usize) -> Vec<String> {
    [
        "--input",
        &files.input.display().to_string(),
        "--master",
        &files.master.display().to_string(),
        "--target",
        "infection_case",
        "--rules",
        &files.rules.display().to_string(),
        "--workers",
        "2",
        "--threads",
        "2",
        "--shards",
        &shards.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn repair_csv_line(path: &Path) -> String {
    format!(
        "{{\"op\":\"repair_csv\",\"path\":{}}}",
        json_str(&path.display().to_string())
    )
}

/// The reference answers: every template once, then `csv_line`, through
/// `er-serve` in pipe mode.
fn reference(
    ctx: &Ctx,
    args: &[String],
    templates: &[Template],
    csv_line: &str,
) -> Result<(Vec<String>, String), String> {
    let mut script = String::new();
    let mut line = String::new();
    let mut fresh = 0u64;
    for t in templates {
        t.render(
            || {
                fresh += 1;
                format!("ref{fresh}")
            },
            &mut line,
        );
        script.push_str(&line);
        script.push('\n');
    }
    script.push_str(csv_line);
    script.push('\n');
    ctx.log("inputs generated; pipe-mode reference session");
    let mut answers = crate::server::pipe_session(&ctx.server_bin, args, &script)?;
    ctx.log("reference answers ready");
    if answers.len() != templates.len() + 1 {
        return Err(format!(
            "pipe reference answered {} of {} requests",
            answers.len(),
            templates.len() + 1
        ));
    }
    let csv = answers.pop().unwrap_or_default();
    for (i, a) in answers.iter().enumerate() {
        if !a.starts_with("{\"ok\":true,\"op\":\"repair\"") {
            return Err(format!("pipe reference failed request {i}: {a}"));
        }
    }
    if !csv.starts_with("{\"ok\":true,\"op\":\"repair_csv\"") {
        return Err(format!("pipe reference failed repair_csv: {csv}"));
    }
    Ok((answers, csv))
}

/// Weighted F1 (the paper's measure) of the repairs in the reference
/// answers against the generator's ground truth.
fn served_f1(data: &Data, templates: &[Template], answers: &[String]) -> Result<f64, String> {
    let mut codes: std::collections::HashMap<String, u32> = Default::default();
    let mut code = |s: &str| {
        let n = codes.len() as u32;
        *codes.entry(s.to_string()).or_insert(n)
    };
    let truth: Vec<u32> = data.truth.iter().map(|t| code(t)).collect();
    let mut predictions = vec![None; truth.len()];
    for (t, answer) in templates.iter().zip(answers) {
        let v: serde_json::Value =
            serde_json::from_str(answer).map_err(|e| format!("reference answer: {e}"))?;
        for cell in v.get("cells").and_then(|c| c.as_array()).unwrap_or(&[]) {
            let row = match cell.get("row") {
                Some(serde_json::Value::Int(r)) => *r as usize,
                Some(serde_json::Value::UInt(r)) => *r as usize,
                _ => return Err(format!("repair cell without a row: {answer}")),
            };
            let value = cell
                .get("value")
                .and_then(|v| v.as_str())
                .unwrap_or_default();
            predictions[t.first_row + row] = Some(code(value));
        }
    }
    Ok(er_rules::evaluate_repairs(&truth, &data.dirty, &predictions).f1)
}

/// Start the server `starts` times; keep the last. Returns it with the
/// median start-up time (`setup_s`).
fn start(
    ctx: &Ctx,
    args: &[String],
    starts: usize,
) -> Result<(crate::server::ServerProc, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..starts {
        let (server, secs) = crate::server::ServerProc::start(&ctx.server_bin, args)?;
        times.push(secs);
        if i + 1 < starts {
            server.shutdown()?;
        } else {
            last = Some(server);
        }
    }
    let server = last.ok_or("no server started")?;
    ctx.log(&format!("server started {starts} times: {times:.3?} s"));
    Ok((server, median_of(&times)))
}

/// Correctness before timing: every template once over TCP, each answer
/// byte-identical to the pipe reference.
fn identity_pass(
    conn: &mut Conn,
    templates: &[Template],
    expected: &[String],
    report: &mut Report,
) -> Result<(), String> {
    let mut feed = Feed::new(templates, 0, 1, "w", 0);
    let mut r = ClosedResult::default();
    for _ in templates {
        load::closed_call(conn, &mut feed, expected, &mut r)?;
    }
    report.check(r.wrong == 0 && r.count.succeeded == templates.len() as u64, || {
        format!(
            "TCP identity pass: {} of {} answers differ from the pipe reference ({} not successful)",
            r.wrong,
            templates.len(),
            r.count.attempted - r.count.succeeded
        )
    });
    Ok(())
}

/// Server-side median repair latency from the `stats` op, µs.
fn server_p50_us(conn: &mut Conn) -> Result<f64, String> {
    let resp = conn
        .call("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    let v: serde_json::Value = serde_json::from_str(&resp).map_err(|e| format!("stats: {e}"))?;
    match v.get("stats").and_then(|s| s.get("p50_us")) {
        Some(serde_json::Value::UInt(n)) => Ok(*n as f64),
        Some(serde_json::Value::Int(n)) => Ok(*n as f64),
        _ => Err(format!("stats without p50_us: {resp}")),
    }
}

/// One open-loop probe at `rate` over both connections; evenly paced
/// connections are offset by half a gap.
fn probe(
    conns: &mut [Conn; 2],
    feeds: &mut [Feed<'_>; 2],
    expected: &[String],
    rate: f64,
    poisson: bool,
    span: Duration,
    limit_us: f64,
) -> Result<OpenResult, String> {
    let interval = Duration::from_secs_f64(2.0 / rate);
    let per_conn_backlog = ((rate / 2.0 * limit_us / 1e6).ceil() as usize).saturating_add(4);
    let t0 = Instant::now() + Duration::from_millis(2);
    let results: Vec<Result<OpenResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(feeds.iter_mut())
            .enumerate()
            .map(|(c, (conn, feed))| {
                let start = if poisson {
                    t0
                } else {
                    t0 + interval * c as u32 / 2
                };
                s.spawn(move || {
                    load::open_loop(
                        conn,
                        feed,
                        expected,
                        start,
                        interval,
                        poisson,
                        span,
                        per_conn_backlog,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut all = OpenResult::default();
    for r in results {
        all.merge(r?);
    }
    Ok(all)
}

fn backlog_ok(r: &OpenResult, rate: f64) -> bool {
    !r.aborted && r.backlog_at_end as f64 <= rate * LIMIT_US / 1e6 + 8.0
}

/// Send `line` on `conn` `times` times, one after another; returns the
/// seconds of each successful call, the counts, and how many answers
/// differed from `expected`.
fn repeat_call(
    conn: &mut Conn,
    line: &str,
    expected: &str,
    times: usize,
) -> Result<(Vec<f64>, OpCount, u64), String> {
    let mut secs = Vec::new();
    let mut count = OpCount::default();
    let mut wrong = 0;
    for _ in 0..times {
        let sent = Instant::now();
        let resp = conn.call(line).map_err(|e| format!("call: {e}"))?;
        let took = sent.elapsed().as_secs_f64();
        count.attempted += 1;
        let verdict = load::classify(&resp, |s| s == expected);
        wrong += u64::from(verdict == load::Verdict::Wrong);
        if count.record(verdict) {
            secs.push(took);
        }
    }
    Ok((secs, count, wrong))
}

pub fn interactive(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let data = gen::generate(INTERACTIVE, ctx.seed);
    let files = write_files(&ctx.work, &data)?;
    let templates = gen::repair_templates(&data, INTERACTIVE_ROWS);
    let args = server_args(&files, 1);
    let csv_line = repair_csv_line(&files.input);
    let (expected, csv_expected) = reference(ctx, &args, &templates, &csv_line)?;
    report
        .layer
        .insert("quality.f1", served_f1(&data, &templates, &expected)?);

    let (server, setup_s) = start(ctx, &args, 7)?;
    report.e2e.insert("setup_s", setup_s);
    let mut conns = [
        Conn::connect(server.addr).map_err(|e| e.to_string())?,
        Conn::connect(server.addr).map_err(|e| e.to_string())?,
    ];
    identity_pass(&mut conns[0], &templates, &expected, report)?;

    let s = ctx.seconds;
    let mut feeds = [
        Feed::new(&templates, 0, 2, "a", ctx.seed),
        Feed::new(&templates, 1, 2, "b", !ctx.seed),
    ];
    let mut repairs = OpCount::default();
    let mut wrong = 0;

    // Phase 1, 45% of the run: the reference rate (Poisson arrivals) in
    // windows, with a few repair_csv calls after each window. Each window
    // gives one median and one tail from due time and the run reports
    // their medians over the windows clean of CPU steal (the phase is
    // extended, up to a cap, until it has enough), so a stall of the host
    // spoils one window, not the result; the batch job is spread over the
    // phase the same way.
    let phase = Duration::from_secs_f64(0.45 * s);
    let windows = (phase.as_secs_f64() / REFERENCE_WINDOW.as_secs_f64())
        .round()
        .max(3.0) as usize;
    let mut at_ref = OpenResult::default();
    let (mut p50s, mut tails, mut level) = (Vec::new(), Vec::new(), 0.0);
    let (mut all_p50s, mut all_tails, mut rss) = (Vec::new(), Vec::new(), None);
    let (mut csv_secs, mut all_csv_secs, mut csv, mut csv_wrong) =
        (Vec::new(), Vec::new(), OpCount::default(), 0);
    let clean_windows =
        steal::until_clean(windows, Duration::ZERO, phase.mul_f64(steal::CAP), || {
            let before = steal::now();
            let r = probe(
                &mut conns,
                &mut feeds,
                &expected,
                REFERENCE_RATE,
                true,
                REFERENCE_WINDOW,
                f64::INFINITY,
            )?;
            let (secs, count, w) = repeat_call(
                &mut conns[0],
                &csv_line,
                &csv_expected,
                CSV_CALLS_PER_WINDOW,
            )?;
            let clean = steal::clean(before, steal::now());
            let (p50, tail) = summarize(&r.from_due_us);
            level = tail.level;
            all_p50s.push(p50);
            all_tails.push(tail.value);
            all_csv_secs.extend(&secs);
            if clean {
                p50s.push(p50);
                tails.push(tail.value);
                csv_secs.extend(secs);
            }
            at_ref.merge(r);
            csv.add(&count);
            csv_wrong += w;
            // Read after the planned windows: windows added for steal, and
            // the staircase, send a number of fresh values that varies.
            if all_p50s.len() == windows {
                rss = Some(server.peak_rss_mib()?);
            }
            Ok(clean)
        })?;
    if clean_windows == 0 {
        // Stolen throughout: count every window rather than none.
        (p50s, tails, csv_secs) = (all_p50s.clone(), all_tails, all_csv_secs);
    }
    repairs.add(&at_ref.count);
    wrong += at_ref.wrong;
    let (p50, tail) = (median_of(&p50s), median_of(&tails));
    report.e2e.insert("p50_us", p50);
    report.layer.insert("latency.tail_us", tail);
    report.check(csv_wrong == 0, || {
        format!("{csv_wrong} repair_csv totals differ from the reference")
    });
    if csv_secs.is_empty() {
        return Err("no repair_csv call succeeded".into());
    }
    report.e2e.insert("job_s", median_of(&csv_secs));
    report.ops.push((
        "repair_csv",
        format!("closed loop, {CSV_CALLS_PER_WINDOW} calls after each window on connection 1"),
        csv,
    ));
    let rss = match rss {
        Some(mib) => mib,
        None => server.peak_rss_mib()?,
    };
    report.e2e.insert("peak_rss_mib", rss);
    let server_p50 = server_p50_us(&mut conns[0])?;
    let client_p50 = median_of(&at_ref.from_send_us);
    report
        .layer
        .insert("serve.tcp.overhead_p50_us", client_p50 - server_p50);
    report.layer.insert(
        "loadgen.late_p99_us",
        stats::percentile(&stats::sorted(&at_ref.late_us), 99.0),
    );
    println!(
        "reference rate {REFERENCE_RATE} req/s, open loop (Poisson), 2 connections: {clean_windows} of {} windows of ~{} samples clean of steal; p50 {p50:.0} us, p{level} {tail:.0} us (medians over windows); client p50 from send {client_p50:.0} us, server p50 {server_p50} us; repair_csv median {:.2} ms over {} calls",
        all_p50s.len(),
        at_ref.from_due_us.len() / all_p50s.len().max(1),
        median_of(&csv_secs) * 1e3,
        csv_secs.len()
    );

    // Phase 2, 45% of the run: the slo_rps staircase, evenly paced probes.
    // Every probe counts: the staircase's path depends on each outcome, so
    // probes during CPU steal cannot be dropped; the loose limit and the
    // median over the settled probes absorb them.
    let mut stairs = ladder::Staircase::new(
        ladder::ladder(LADDER.0, LADDER.1, LADDER.2),
        LADDER_START,
        8,
    );
    let mut tried = Vec::new();
    let until = Instant::now() + phase;
    while Instant::now() < until {
        let rate = stairs.rate();
        let before = steal::now();
        let r = probe(
            &mut conns,
            &mut feeds,
            &expected,
            rate,
            false,
            LADDER_PROBE,
            LIMIT_US,
        )?;
        let clean = steal::clean(before, steal::now());
        repairs.add(&r.count);
        wrong += r.wrong;
        let p = Probe {
            tail_us: stats::tail(&stats::sorted(&r.from_due_us)).value,
            backlog_ok: backlog_ok(&r, rate),
        };
        stairs.record(p.meets(LIMIT_US));
        tried.push((rate, p, clean));
    }
    let slo = stairs.result();
    println!(
        "staircase ({} probes of {} ms, evenly paced; ~ = during CPU steal): {}; slo_rps {slo}",
        tried.len(),
        LADDER_PROBE.as_millis(),
        tried
            .iter()
            .map(|(rate, p, clean)| format!(
                "{rate}{}{}",
                if p.meets(LIMIT_US) { "+" } else { "-" },
                if *clean { "" } else { "~" }
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.e2e.insert("throughput_per_s", slo);
    report.check(wrong == 0, || {
        format!("{wrong} repair answers differ from the pipe reference")
    });
    report.ops.push((
        "repair",
        format!(
            "open loop, 2 connections: {REFERENCE_RATE} req/s Poisson, then {} staircase probes",
            tried.len()
        ),
        repairs,
    ));
    report
        .layer
        .insert("serve.tcp.refused", (repairs.refused + csv.refused) as f64);

    drop(conns);
    server.shutdown()?;
    if ctx.trace {
        crate::traced::serving(ctx, report, &files, &templates, &expected, 1, false)?;
    }
    Ok(())
}

pub fn bulk(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let data = gen::generate(BULK, ctx.seed);
    let files = write_files(&ctx.work, &data)?;
    let templates = gen::repair_templates(&data, BULK_ROWS);
    let args = server_args(&files, BULK_SHARDS);
    let csv_line = repair_csv_line(&files.input);
    let (expected, csv_expected) = reference(ctx, &args, &templates, &csv_line)?;
    report
        .layer
        .insert("quality.f1", served_f1(&data, &templates, &expected)?);

    let (server, setup_s) = start(ctx, &args, 3)?;
    report.e2e.insert("setup_s", setup_s);
    let mut reader = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let mut writer = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    identity_pass(&mut reader, &templates, &expected, report)?;

    // Phase 1: closed-loop repairs on connection 1 with one paced append
    // per window on connection 2, extended (up to a cap) until enough whole
    // windows were clean of CPU steal; only those count.
    let span = Duration::from_secs_f64(ctx.seconds * BULK_REPAIR_SHARE);
    let want = (span.as_secs_f64() / BULK_WINDOW.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let cpu_before = server.cpu_s()?;
    let started = Instant::now();
    let seed = ctx.seed;
    let stop = AtomicBool::new(false);
    let mut timeline = steal::Timeline::default();
    let clean_windows = |timeline: &steal::Timeline, upto: Instant| -> Vec<usize> {
        let whole = (upto.saturating_duration_since(started).as_secs_f64()
            / BULK_WINDOW.as_secs_f64()) as usize;
        (0..whole)
            .filter(|&w| {
                let from = started + BULK_WINDOW * w as u32;
                timeline.clean(from, from + BULK_WINDOW)
            })
            .collect()
    };
    let (reads_conn, writes_conn) = (&mut reader, &mut writer);
    let (closed, appends): (Result<ClosedResult, String>, Result<AppendResult, String>) =
        std::thread::scope(|s| {
            let expected = &expected;
            let templates = &templates;
            let stop = &stop;
            let reads = s.spawn(move || {
                let mut feed = Feed::new(templates, 0, 1, "", 0);
                load::closed_loop(reads_conn, &mut feed, expected, stop)
            });
            let writes = s.spawn(move || {
                load::paced_appends(writes_conn, BULK_WINDOW, stop, APPEND_ROWS, |op| {
                    gen::append_line(seed, op, APPEND_ROWS)
                })
            });
            timeline.sample();
            loop {
                std::thread::sleep(Duration::from_millis(200));
                timeline.sample();
                let elapsed = started.elapsed();
                if reads.is_finished()
                    || elapsed >= span.mul_f64(steal::CAP)
                    || (elapsed >= span && clean_windows(&timeline, Instant::now()).len() >= want)
                {
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            (
                reads
                    .join()
                    .unwrap_or_else(|_| Err("reader panicked".into())),
                writes
                    .join()
                    .unwrap_or_else(|_| Err("writer panicked".into())),
            )
        });
    timeline.sample();
    let cpu_s = server.cpu_s()? - cpu_before;
    let (closed, appends) = (closed?, appends?);
    report.check(closed.wrong == 0, || {
        format!(
            "{} repair answers differ from the pipe reference",
            closed.wrong
        )
    });
    report.check(appends.wrong == 0, || {
        format!("{} appends were not acknowledged in full", appends.wrong)
    });
    if appends.latency_us.is_empty() {
        return Err("no append succeeded".into());
    }
    let mut windows = clean_windows(&timeline, Instant::now());
    let all_clean = windows.len();
    if windows.is_empty() {
        // Stolen throughout: count every whole window rather than none.
        let whole = (timeline_end(&closed, started) / BULK_WINDOW.as_secs_f64()) as usize;
        windows = (0..whole.max(1)).collect();
    }

    // Phase 2: the batch job, repair_csv calls one after another, each kept
    // only when clean of steal.
    let csv_span = Duration::from_secs_f64(ctx.seconds * (1.0 - BULK_REPAIR_SHARE));
    let (mut csv_secs, mut all_csv_secs, mut csv, mut csv_wrong) =
        (Vec::new(), Vec::new(), OpCount::default(), 0);
    steal::until_clean(5, csv_span, csv_span.mul_f64(steal::CAP), || {
        let before = steal::now();
        let (secs, count, wrong) = repeat_call(&mut writer, &csv_line, &csv_expected, 1)?;
        let clean = steal::clean(before, steal::now());
        csv.add(&count);
        csv_wrong += wrong;
        all_csv_secs.extend(&secs);
        if clean {
            csv_secs.extend(secs);
        }
        Ok(clean)
    })?;
    ctx.log("measurement done");
    report.check(csv_wrong == 0, || {
        format!("{csv_wrong} repair_csv totals differ from the reference")
    });
    if all_csv_secs.is_empty() {
        return Err("no repair_csv call succeeded".into());
    }
    if csv_secs.is_empty() {
        csv_secs = all_csv_secs;
    }
    report.e2e.insert("job_s", median_of(&csv_secs));

    // Throughput, median and per-window tail over the kept windows; the
    // tail's median over windows means one stall spoils one window only.
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows.len()];
    for (lat, done) in closed.latency_us.iter().zip(&closed.done) {
        let w = (done.saturating_duration_since(started).as_secs_f64() / BULK_WINDOW.as_secs_f64())
            as usize;
        if let Ok(i) = windows.binary_search(&w) {
            per_window[i].push(*lat);
        }
    }
    let kept: Vec<f64> = per_window.iter().flatten().copied().collect();
    if kept.is_empty() {
        return Err("no repair completed".into());
    }
    let tails: Vec<stats::Tail> = per_window
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stats::tail(&stats::sorted(w)))
        .collect();
    let p50 = median_of(&kept);
    let tail = median_of(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    let rows_per_s =
        (kept.len() * BULK_ROWS) as f64 / (windows.len() as f64 * BULK_WINDOW.as_secs_f64());
    // Throughput per second of server CPU time: the server saturates both
    // vCPUs, so CPU time the hypervisor steals would otherwise come straight
    // off the rows per wall-clock second.
    let rows_per_cpu_s = (closed.latency_us.len() * BULK_ROWS) as f64 / cpu_s.max(1e-3);
    report.e2e.insert("p50_us", p50);
    report.layer.insert("latency.tail_us", tail);
    report.e2e.insert("throughput_per_s", rows_per_cpu_s);
    report
        .layer
        .insert("serve.append_p50_us", median_of(&appends.latency_us));
    report.layer.insert(
        "loadgen.late_p99_us",
        stats::percentile(&stats::sorted(&appends.late_us), 99.0),
    );
    println!(
        "repair closed loop, 1 connection, {BULK_ROWS} rows, {:.1} s: {} of {} windows clean of steal; p50 {p50:.0} us over {} samples, tail {tail:.0} us (median of windows' p{:?}), {rows_per_s:.0} rows per wall second in clean windows, {rows_per_cpu_s:.0} rows per server CPU second; append p50 {:.0} us over {}; repair_csv median {:.0} ms over {} clean calls",
        started.elapsed().as_secs_f64(),
        all_clean,
        (timeline_end(&closed, started) / BULK_WINDOW.as_secs_f64()) as usize,
        kept.len(),
        tails.iter().map(|t| t.level).collect::<Vec<_>>(),
        median_of(&appends.latency_us),
        appends.latency_us.len(),
        median_of(&csv_secs) * 1e3,
        csv_secs.len()
    );
    let server_p50 = server_p50_us(&mut reader)?;
    report
        .layer
        .insert("serve.tcp.overhead_p50_us", p50 - server_p50);
    report.layer.insert(
        "serve.tcp.refused",
        (closed.count.refused + appends.count.refused + csv.refused) as f64,
    );
    report.ops.push((
        "repair",
        format!("closed loop, 1 connection, {BULK_ROWS} rows"),
        closed.count,
    ));
    report.ops.push((
        "append",
        format!(
            "paced, 1 connection, 1 per {} ms, {APPEND_ROWS} rows",
            BULK_WINDOW.as_millis()
        ),
        appends.count,
    ));
    report.ops.push((
        "repair_csv",
        "closed loop on the append connection, after the repairs".into(),
        csv,
    ));

    report.e2e.insert("peak_rss_mib", server.peak_rss_mib()?);
    drop((reader, writer));
    server.shutdown()?;
    if ctx.trace {
        crate::traced::serving(
            ctx,
            report,
            &files,
            &templates,
            &expected,
            BULK_SHARDS,
            true,
        )?;
    }
    Ok(())
}

/// Seconds from `started` to the last completed repair.
fn timeline_end(closed: &ClosedResult, started: Instant) -> f64 {
    closed
        .done
        .last()
        .map_or(0.0, |d| d.saturating_duration_since(started).as_secs_f64())
}
