//! The repository benchmark: three workloads against the public entry points
//! of the router, serving, model, normalizer and numerics crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decode_gpt2|serve_mixed|norm_llama> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a traced
//! run (`--trace 1`) measures the per-layer ones. Every metric is printed by
//! name with its unit and sample count; the last line is one JSON object
//! holding exactly the metrics `BENCHMARK.json` declares for the mode. The
//! command exits non-zero when an output check fails. See `README.md`.

mod decode_gpt2;
mod inputs;
mod measure;
mod norm_llama;
mod replica;
mod serve_mixed;
mod serving;
mod timed;

use haan_obs::json::JsonValue;
use measure::Report;
use std::process::ExitCode;

/// The benchmark definition: metric names, units and workloads.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Result<Vec<(String, String)>, String> {
    let doc = JsonValue::parse(BENCHMARK_JSON)?;
    let Some(JsonValue::Array(entries)) = doc.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    entries
        .iter()
        .map(|entry| match (entry.get("name"), entry.get("unit")) {
            (Some(JsonValue::String(name)), Some(JsonValue::String(unit))) => {
                Ok((name.clone(), unit.clone()))
            }
            _ => Err(format!("malformed {key} entry in BENCHMARK.json")),
        })
        .collect()
}

fn run_workload(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "decode_gpt2" => decode_gpt2::run(args.seed, args.seconds, args.trace),
        "serve_mixed" => serve_mixed::run(args.seed, args.seconds, args.trace),
        "norm_llama" => norm_llama::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let declared = declared(if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        })?;
        let report = run_workload(&args)?;
        report.print(&declared)?;
        Ok(report.correct)
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: an output check failed");
            ExitCode::from(1)
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_strictly() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&argv(
                "--workload norm_llama --seed 3 --seconds 10 --trace 1"
            )),
            Ok(Args {
                workload: "norm_llama".to_string(),
                seed: 3,
                seconds: 10.0,
                trace: true,
            })
        );
        assert!(parse_args(&argv("--workload norm_llama --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn the_definition_declares_what_the_command_runs() {
        let doc = JsonValue::parse(BENCHMARK_JSON).unwrap();
        let Some(JsonValue::Array(workloads)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<&JsonValue> = workloads.iter().filter_map(|w| w.get("name")).collect();
        for name in ["decode_gpt2", "serve_mixed", "norm_llama"] {
            assert!(
                names.contains(&&JsonValue::String(name.to_string())),
                "{name}"
            );
        }
        let end_to_end = declared("end_to_end").unwrap();
        assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
        assert!(!declared("per_layer").unwrap().is_empty());
    }
}
