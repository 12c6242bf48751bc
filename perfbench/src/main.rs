//! The repository's end-to-end benchmark. See `README.md` beside this
//! package for the workloads, the metrics and how to read them.
//!
//! ```text
//! perfbench --workload <study_cold|tune_service|prove_service> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result as one JSON object.

mod cells;
mod common;
mod prove;
mod study;
mod trace;
mod tune;

use common::Args;

const USAGE: &str = "usage: perfbench --workload <study_cold|tune_service|prove_service> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny] [--bad-reference]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        bad_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tiny" => args.tiny = true,
            "--bad-reference" => args.bad_reference = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let v = it.next().ok_or(format!("{flag} needs a value"))?;
                let bad = || format!("bad value for {flag}: {v}");
                match flag.as_str() {
                    "--workload" => args.workload = v.clone(),
                    "--seed" => args.seed = v.parse().map_err(|_| bad())?,
                    "--seconds" => args.seconds = v.parse().map_err(|_| bad())?,
                    _ => args.trace = v != "0",
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "study_cold" => study::run(&args),
        "tune_service" => tune::run(&args),
        "prove_service" => prove::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(out) => {
            for n in &out.notes {
                println!("# {n}");
            }
            println!("{}", out.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
