//! The standalone expert-worker process.
//!
//! ```text
//! hybrimoe_worker --listen 127.0.0.1:0 [--threads N] [--fault-plan SPEC]
//! ```
//!
//! Binds the TCP `host:port` endpoint (port 0 allowed), prints
//! `listening on <endpoint>` on stdout so a parent process can read back
//! the resolved port, and serves until a client sends Drain.
//!
//! `--fault-plan seed=S,key=val,...` arms the deterministic fault
//! injector (see `hybrimoe_fault::FaultPlan::parse_spec` for the knobs:
//! `conn_drop_ppm`, `reply_delay_ppm`/`reply_delay_ms`, `corrupt_ppm`,
//! `truncate_ppm`, and `fail_after=N`: the worker crashes mid-request
//! after N executes).

use std::process::ExitCode;

use hybrimoe_fault::FaultPlan;
use hybrimoe_worker::{Endpoint, WorkerServer, WorkerServerOptions};

fn main() -> ExitCode {
    let mut listen = String::from("127.0.0.1:0");
    let mut options = WorkerServerOptions::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--listen" => listen = value("--listen"),
            "--threads" => {
                options.threads = value("--threads").parse().expect("--threads: not a number")
            }
            "--fault-plan" => {
                options.fault_plan = match FaultPlan::parse_spec(&value("--fault-plan")) {
                    Ok(plan) => plan,
                    Err(e) => {
                        eprintln!("--fault-plan: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: hybrimoe_worker [--listen ADDR] [--threads N] \
                     [--fault-plan seed=S,key=val,...]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let server = match WorkerServer::bind(&Endpoint::parse(&listen), options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The parent reads this line to learn the resolved port when
    // listening on port 0.
    println!("listening on {}", server.endpoint());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker failed: {e}");
            ExitCode::FAILURE
        }
    }
}
