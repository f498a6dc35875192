//! The WSQ/DSQ benchmark: three closed-loop workloads, every result
//! checked, end-to-end metrics from untraced runs and per-layer metrics
//! from traced ones. See README.md for the metrics and why each workload
//! exists.
//!
//! ```text
//! perfbench --workload <table1|fanout_scan|sessions_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod account;
mod fanout;
mod inproc;
mod probe;
mod procfs;
mod report;
mod sessions;
mod spans;
mod table1;
mod util;

use std::process::ExitCode;

/// Set-ups per run, before and after the timed phase; `setup_s` is their
/// median. Machine speed drifts over seconds, so the set-ups are spread
/// over the run rather than taken back to back.
pub const SETUPS_BEFORE: usize = 3;
pub const SETUPS_AFTER: usize = 4;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--spans-out" => args.spans_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<report::Report, String> {
    match args.workload.as_str() {
        "table1" => inproc::run(table1::workload(args)?, args),
        "fanout_scan" => inproc::run(fanout::workload(args)?, args),
        "sessions_mixed" => sessions::run(args),
        other => Err(format!(
            "unknown workload '{other}' (table1, fanout_scan, sessions_mixed)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &report.text {
        println!("{line}");
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            println!("{}: no samples", m.name);
            report.correct = false;
        }
        println!("{:<34}{:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<34}{:>16.4} ratio  ({} failed of {} attempted)",
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
