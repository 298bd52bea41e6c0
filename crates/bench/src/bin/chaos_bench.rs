//! Seeded chaos soak for the serving stack: injected engine panics,
//! latency spikes, request deadlines, client cancels, hangups and slow
//! readers — asserting that every admitted request terminates and no
//! batch slot leaks.
//!
//! ```text
//! cargo run -p hybrimoe_bench --release --bin chaos_bench
//! cargo run -p hybrimoe_bench --release --bin chaos_bench -- --seed 7
//! cargo run -p hybrimoe_bench --release --bin chaos_bench -- --json --out BENCH_chaos.json
//! ```
//!
//! Exits 1 unless `ChaosSummary::invariants_hold`. The summary is a
//! deterministic function of the seed (the sim-clock soak counters are
//! bit-reproducible; the real-server phase reports invariant booleans), so
//! CI diffs a fresh `--out` file against the committed `BENCH_chaos.json`
//! byte for byte.
//!
//! | flag | meaning |
//! |---|---|
//! | `--seed N` | chaos seed (default the repo-wide bench seed) |
//! | `--json` | print the summary as JSON instead of text |
//! | `--out PATH` | also write the JSON summary to a file |

use hybrimoe_bench::{run_chaos_bench, SEED};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = match flag(&args, "--seed") {
        None => SEED,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("chaos_bench: cannot parse --seed value {raw:?}");
            std::process::exit(2);
        }),
    };

    // The injected engine panics print their payloads by default; silence
    // exactly those so the report stays readable (containment is the
    // point) while real panics still get their backtrace.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected engine fault"));
        if !injected {
            default_hook(info);
        }
    }));
    let summary = run_chaos_bench(seed);

    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    if let Some(path) = flag(&args, "--out") {
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("chaos_bench: cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("chaos_bench: wrote {path}");
    }
    if args.iter().any(|a| a == "--json") {
        println!("{json}");
    } else {
        println!(
            "soak: {} requests -> {} completed, {} timed out, {} cancelled, {} failed \
             ({} panic(s) contained over {} steps, {} leaked slot(s))",
            summary.soak_requests,
            summary.soak_completed,
            summary.soak_timed_out,
            summary.soak_cancelled,
            summary.soak_failed,
            summary.soak_panics_contained,
            summary.soak_steps,
            summary.soak_leaked_slots
        );
        println!(
            "server: {} requests -> all terminated {}, books balance {}, healthz consistent {}",
            summary.server_requests,
            summary.server_all_terminated,
            summary.server_accounted,
            summary.server_healthz_consistent
        );
    }

    if !summary.invariants_hold() {
        eprintln!("chaos_bench: INVARIANT VIOLATION (see summary above)");
        std::process::exit(1);
    }
}
