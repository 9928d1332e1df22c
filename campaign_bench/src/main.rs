//! Campaign benchmark: seeds/s and ground-truth bugs per core-second on
//! three workloads, plus a traced replay that splits the time by layer.
//!
//! ```text
//! cargo run --release --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced replay. The last line of standard output is one
//! JSON object; the process exits non-zero when an output check fails.
//! `README.md` beside this crate describes the workloads and metrics.

#![forbid(unsafe_code)]

mod trace;
mod workload;

use std::process::ExitCode;

use workload::Workload;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Seeds, mutants or programs the program was asked to process.
    pub attempted: u64,
    /// Harness failures among them (see `README.md`, failure accounting).
    pub failed: u64,
    /// Output checks that failed, one message each.
    pub errors: Vec<String>,
}

impl Report {
    /// Records an output-check failure unless `ok` holds.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().ok().filter(|&s| s >= 1).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every `CSE_*` knob changes what a campaign does, so a run under any of
/// them would not measure the configuration the workloads name.
fn refuse_cse_knobs() -> Result<(), String> {
    let mut knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("CSE_"))
        .collect();
    if knobs.is_empty() {
        return Ok(());
    }
    knobs.sort();
    Err(format!("refusing to run with {} set; unset it first", knobs.join(", ")))
}

fn main() -> ExitCode {
    let args = match refuse_cse_knobs().and_then(|()| parse_args()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        trace::run(args.workload, args.seed)
    } else {
        workload::run(args.workload, args.seed, args.seconds)
    };
    let mode = if args.trace { "traced" } else { "untraced" };
    println!("# {} seed {} ({mode})", args.workload.name(), args.seed);
    for m in &report.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "failure_ratio {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    for error in &report.errors {
        eprintln!("output check failed: {error}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
