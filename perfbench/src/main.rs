//! Command-line entry point:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload clip-hd-f32 --seed 42 --seconds 15 --trace 0
//! ```
//!
//! Prints the host/knob context line, the self-time tables of a traced run,
//! and as its last line the result object (`correct`, `attempted`,
//! `failed`, `metrics`).

use perfbench::common::nproc;
use perfbench::{expected, run, RunConfig, Workload, DEFAULT_SECONDS};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N (default {})] [--seconds S (default {})] [--trace 0|1]",
        names.join("|"),
        expected::DEFAULT_SEED,
        DEFAULT_SECONDS
    )
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = expected::DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig::new(workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Every workload runs its workers on `nproc` threads; the kernels the
    // live workload steps take theirs from `vrd_runtime::max_threads`,
    // which `VRD_THREADS` would override.
    if vrd_runtime::max_threads() != nproc() {
        eprintln!(
            "perfbench: worker threads must equal nproc ({}), but vrd_runtime uses {}; unset VRD_THREADS",
            nproc(),
            vrd_runtime::max_threads()
        );
        return ExitCode::FAILURE;
    }
    match run(&cfg) {
        Ok(out) => {
            println!("{}", out.context_json());
            print!("{}", out.table);
            println!("{}", out.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
