//! `--check-noise N`: run every workload N times back to back with the same
//! seed, each in its own process, and hold every end-to-end metric's spread
//! across the sets, (max - min) / median, against its bound. Modeled-clock
//! metrics and `sim_digest` must repeat exactly.

use std::process::{Command, ExitCode};

use serde::Value;

use crate::metrics::{json_field, END_TO_END};
use crate::stats;
use crate::workloads::{Clock, SPECS};
use crate::Args;

/// One child run's end-to-end values by metric name, plus its digest line.
struct SetResult {
    values: Vec<(String, f64)>,
    digest: Option<String>,
    correct: bool,
}

fn run_once(workload: &str, seed: u64, args: &Args) -> Result<SetResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed.to_string()]);
    command.args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let doc: Value = serde_json::from_str(last).map_err(|e| format!("{workload}: {e}"))?;
    let Some(Value::Map(metrics)) = json_field(&doc, "metrics") else {
        return Err(format!("{workload}: no metrics in the result line"));
    };
    Ok(SetResult {
        values: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), json_field(m, "value")?.as_f64()?)))
            .collect(),
        digest: stdout
            .lines()
            .find(|l| l.starts_with("sim_digest"))
            .map(|l| l.split(';').next().unwrap_or(l).to_owned()),
        correct: json_field(&doc, "correct") == Some(&Value::Bool(true)),
    })
}

pub fn check(args: &Args, sets: usize) -> ExitCode {
    if sets < 2 {
        eprintln!("--check-noise needs at least two sets");
        return ExitCode::from(2);
    }
    let mut breaches = 0usize;
    for spec in &SPECS {
        let mut results = Vec::with_capacity(sets);
        for _ in 0..sets {
            match run_once(spec.name, args.seed, args) {
                Ok(result) => results.push(result),
                Err(why) => {
                    eprintln!("{why}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!(
            "{} ({} clock, {} sets, same seed)",
            spec.name,
            spec.clock.name(),
            sets
        );
        if results.iter().any(|r| !r.correct) {
            println!("  BREACH: a set reported correct=false");
            breaches += 1;
        }
        if results.iter().any(|r| r.digest != results[0].digest) {
            println!("  BREACH: sim_digest differs between sets");
            breaches += 1;
        }
        if let Some(digest) = &results[0].digest {
            println!("  {digest}");
        }
        println!(
            "  {:<24} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "min", "median", "max", "spread", "bound"
        );
        for metric in &END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| {
                    r.values
                        .iter()
                        .find(|(n, _)| n == metric.name)
                        .map(|(_, v)| *v)
                })
                .collect();
            if values.len() != sets {
                println!("  BREACH: {} missing from a set", metric.name);
                breaches += 1;
                continue;
            }
            let sorted = stats::sorted(values.clone());
            let median = stats::median(&values);
            let spread = if median != 0.0 {
                (sorted[sets - 1] - sorted[0]) / median.abs()
            } else {
                0.0
            };
            // Modeled-clock values are a function of the seed alone; the
            // two host-side metrics are measured on every workload.
            let host_side = matches!(metric.name, "setup_s" | "peak_heap_mb");
            let exact = spec.clock == Clock::Modeled && !host_side;
            let limit = if exact { 0.0 } else { metric.bound };
            let verdict = if spread > limit {
                breaches += 1;
                "BREACH"
            } else {
                "ok"
            };
            println!(
                "  {:<24} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>7.2} {}",
                metric.name,
                sorted[0],
                median,
                sorted[sets - 1],
                spread,
                limit,
                verdict
            );
        }
    }
    if breaches > 0 {
        println!("{breaches} breach(es)");
        return ExitCode::FAILURE;
    }
    println!("every metric within its bound");
    ExitCode::SUCCESS
}
