//! The repository benchmark. See README.md.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload on inputs generated from the seed, checks every answer,
//! and prints the result as one JSON object on the last line of stdout:
//! end-to-end metrics with `--trace 0`, per-layer metrics from the traced
//! run with `--trace 1`.

mod gen;
mod ladder;
mod load;
mod mining;
mod report;
mod server;
mod serving;
mod stats;
mod steal;
mod trace;
mod traced;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["serve-interactive", "serve-bulk", "mine-covid"];

/// One run's settings.
pub struct Ctx {
    pub server_bin: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for generated inputs, removed at the end of the run.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
    started: std::time::Instant,
}

impl Ctx {
    /// Progress note on stderr, stamped with the seconds since start.
    pub fn log(&self, what: &str) {
        eprintln!(
            "perfbench [{:7.2} s] {what}",
            self.started.elapsed().as_secs_f64()
        );
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut server_bin = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server_bin = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value()? == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let out_dir = PathBuf::from(".bench_out");
    Ok(Ctx {
        server_bin: server_bin.ok_or("--server is required")?,
        work: out_dir.join(format!("work-{workload}-{seed}-{}", std::process::id())),
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?.max(1.0),
        trace: trace.unwrap_or(false),
        out_dir,
        started: std::time::Instant::now(),
    })
}

fn run(ctx: &Ctx) -> Result<Report, String> {
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let mut report = Report::default();
    let result = match ctx.workload.as_str() {
        "serve-interactive" => serving::interactive(ctx, &mut report),
        "serve-bulk" => serving::bulk(ctx, &mut report),
        _ => mining::run(ctx, &mut report),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    result.map(|()| report)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::from(2);
        }
    };
    report.account_ops();
    println!(
        "workload {} seed {} ({} s, trace {}), host parallelism {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for line in report.accounting_lines() {
        println!("{line}");
    }
    for v in &report.violations {
        eprintln!("perfbench: correctness check failed: {v}");
    }
    match report.result_line(ctx.trace) {
        Ok(line) => {
            println!("{line}");
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
