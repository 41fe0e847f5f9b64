//! `perfbench` — the end-to-end and per-layer benchmark of the joined
//! SpotLight pipeline: cloud tick → probe → stripe ingest → WAL group
//! commit → snapshot publish → HTTP answer.
//!
//! ```text
//! perfbench --workload <live_pipeline|ingest_publish|serve_read>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root; store files go under `.perfbench/`
//! there and are removed when the run ends. The last line of standard
//! output is the result: `{"correct", "attempted", "failed", "metrics"}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a traced run (`--trace 1`). A failed correctness check prints
//! `"correct": false` and exits with status 1.

mod gen;
mod metrics;
mod mix;
mod pipeline;
mod sched;
mod stats;
mod trace;

use pipeline::{Params, Workload};
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <live_pipeline|ingest_publish|serve_read> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let report = metrics::measure(
        &Params::full(args.workload),
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
        &root,
    );
    report.print();
    let _ = std::fs::remove_dir(&root);
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_command_line_parses() {
        let a = parse_args(&args(
            "--workload serve_read --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ServeRead,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 3")).is_err());
        assert!(parse_args(&args("--workload all --seed 1 --seconds 3")).is_err());
        assert!(parse_args(&args("--workload serve_read --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args(
            "--workload serve_read --seed 1 --trace 2 --seconds 1"
        ))
        .is_err());
        assert!(parse_args(&args("--seed 1 --seconds 1")).is_err());
    }
}
