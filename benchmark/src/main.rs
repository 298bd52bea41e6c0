//! The repo benchmark. One command runs one workload in its own process,
//! checks its outputs and prints every metric by name with unit and sample
//! count; the last line of standard output is the result as JSON.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed S] [--seconds N] [--trace [0|1]] [--quick]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --check-noise [N]
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and the method.

mod alloc;
mod cal;
mod digest;
mod gen;
mod harness;
mod metrics;
mod noise;
mod probes;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

use metrics::Reported;
use workloads::{Workload, SPECS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The default run length, `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: usize = 20;

/// Measured rounds at the default run length; `--seconds N` runs
/// `N * 3 / 4` (a round with its set-up and samples takes 1.1 to 1.5 s).
const DEFAULT_ROUNDS: usize = DEFAULT_SECONDS * 3 / 4;

/// Rounds of a `--quick` smoke run.
const QUICK_ROUNDS: usize = 2;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: usize,
    rounds: usize,
    trace: bool,
    quick: bool,
    check_noise: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: hybrimoe_benchmark --workload <{}> [--seed S] [--seconds N] [--trace [0|1]] \
         [--quick]\n       hybrimoe_benchmark --check-noise [N] [--seed S] [--seconds N]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        rounds: DEFAULT_ROUNDS,
        trace: false,
        quick: false,
        check_noise: None,
    };
    let mut it = argv.iter().peekable();
    // A flag's value, when the next argument is one (not another flag).
    fn value<'a>(it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>) -> Option<&'a str> {
        it.next_if(|next| !next.starts_with("--"))
            .map(String::as_str)
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it).ok_or("--workload needs a name")?;
                args.workload = Some(name.to_owned());
            }
            "--seed" => {
                let v = value(&mut it).ok_or("--seed needs a number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value(&mut it).ok_or("--seconds needs a number")?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                args.rounds = (args.seconds * 3 / 4).max(QUICK_ROUNDS);
            }
            "--trace" => {
                args.trace = match value(&mut it) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(v) => return Err(format!("bad --trace {v}")),
                };
            }
            "--quick" => args.quick = true,
            "--check-noise" => {
                args.check_noise = Some(match value(&mut it) {
                    None => 3,
                    Some(v) => v.parse().map_err(|_| format!("bad --check-noise {v}"))?,
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick {
        args.rounds = QUICK_ROUNDS;
    }
    Ok(args)
}

/// The commit the checkout is at, read from `.git` (no process is
/// started); `unknown` outside a git repository.
fn git_revision() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(format!("{}/../.git/{path}", env!("CARGO_MANIFEST_DIR"))).ok()
    };
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    let packed = || {
        read("packed-refs")?
            .lines()
            .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_owned()))
    };
    read(reference)
        .or_else(packed)
        .map_or("unknown".to_owned(), |hash| {
            hash.trim().chars().take(12).collect()
        })
}

fn print_header(workload: &dyn Workload, args: &Args) {
    let spec = workload.spec();
    let t = workload.threads();
    let nproc = workloads::nproc();
    println!("workload {}: {}", spec.name, spec.traffic);
    println!(
        "clock {}; SLO ttft < {} ms and tpot < {} ms",
        spec.clock.name(),
        spec.ttft_limit_ms,
        spec.tpot_limit_ms
    );
    let rounds = if args.trace {
        "traced run (3 contents, each traced and untraced)".to_owned()
    } else {
        format!("rounds 1 warm-up + {}", args.rounds)
    };
    println!(
        "seed {}; {rounds}; kernel backend {}; git {}",
        args.seed,
        hybrimoe_kernels::KernelBackendKind::Auto.resolved().name(),
        git_revision()
    );
    println!(
        "threads: nproc {nproc}; harness {} kernel {} worker {} client {} handler {}; \
         busy at once {}",
        t.harness,
        t.kernel,
        t.worker,
        t.client,
        t.handler,
        t.busy()
    );
    if args.quick {
        println!("quick: not comparable");
    }
}

fn print_metrics(metrics: &[Reported]) {
    for m in metrics {
        println!(
            "  {:<40} {:>16.6} {:<8} {:<7} (n={}{})",
            m.name,
            m.value,
            m.unit,
            m.better,
            m.samples,
            if m.thin_tail() {
                ", under ten samples beyond it"
            } else {
                ""
            }
        );
    }
}

fn run_workload(args: &Args, name: &str) -> ExitCode {
    let Some(workload) = workloads::build(name) else {
        eprintln!("unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    };
    print_header(workload.as_ref(), args);
    let mut cal = cal::Calibrator::new();
    let mut problems = workload.verify(args.seed);
    // `fault.*` has nothing to count from outside: no public function of
    // the engine or the worker reports injections. What can be held is that
    // every workload serves under the all-zero plan.
    if !workload.engine_view().config.fault_plan.is_off() {
        problems.push("the workload's fault plan is armed".to_owned());
    }

    let (run, reported) = if args.trace {
        traced::run(workload.as_ref(), args, &mut cal)
    } else {
        let run = harness::run_rounds(workload.as_ref(), args.seed, args.rounds, &mut cal);
        let reported = harness::end_to_end(workload.spec(), &run);
        (run, reported)
    };
    problems.extend(run.problems.iter().cloned());

    println!("  round  setup_s   loop_s  host_s   cpu_s factor      tok/s  ttft_p50  tpot_p50");
    for (i, r) in run.rounds.iter().enumerate() {
        println!(
            "  {:>5} {:>8.4} {:>8.4} {:>7.4} {:>7.4} {:>6.3} {:>10.2} {:>9.4} {:>9.4}",
            i + 1,
            r.setup_s,
            r.loop_s,
            r.loop_host_s,
            r.loop_cpu_s,
            r.factor,
            r.tok_s(),
            r.ttft_ms_p50(),
            r.tpot_ms_p50(),
        );
    }
    print_metrics(&reported);
    if !args.trace {
        // The demoted metrics, for the reader: they are per-layer metrics
        // and not part of this run's result line.
        let mut bag = metrics::Bag::default();
        harness::round_layers(&run, &mut bag);
        let tails: Vec<Reported> = metrics::reduce_per_layer(&bag)
            .into_iter()
            .filter(|m| m.samples > 0)
            .collect();
        print_metrics(&tails);
    }
    if let Some(digest) = run.sim_digest() {
        let lateness: u64 = run
            .rounds
            .iter()
            .filter_map(|r| r.out.generator_lateness_ns)
            .sum();
        println!("sim_digest {digest:016x}; generator lateness {lateness} ns");
    }
    println!(
        "torn segments: {}; attempted {} failed {}",
        run.torn_segments,
        run.attempted(),
        run.failed()
    );
    for problem in &problems {
        println!("check failed: {problem}");
    }
    println!(
        "{}",
        metrics::result_line(
            problems.is_empty(),
            run.attempted(),
            run.failed(),
            &reported
        )
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(sets) = args.check_noise {
        return noise::check(&args, sets);
    }
    match args.workload.clone() {
        Some(name) => run_workload(&args, &name),
        None => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload sim_decode --seed 7 --seconds 20 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim_decode"));
        assert_eq!((a.seed, a.rounds, a.trace), (7, 15, false));
        let a = parse("--workload sim_serve --seed 7 --seconds 20 --trace 1").unwrap();
        assert!(a.trace);
        // The issue's spelling: a bare flag.
        assert!(
            parse("--workload sim_serve --trace --seed 3")
                .unwrap()
                .trace
        );
        assert_eq!(parse("--workload x --quick").unwrap().rounds, QUICK_ROUNDS);
        assert_eq!(parse("--check-noise").unwrap().check_noise, Some(3));
        assert_eq!(parse("--check-noise 5").unwrap().check_noise, Some(5));
        assert!(parse("--workload").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--bogus").is_err());
    }
}
