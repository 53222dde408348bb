//! `rmsa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness check fails or the program fails mid-run (counted as a
//! failed operation), and 2 without a result when the run could not be
//! carried out (build, spawn, the benchmark's own files).
//! See `README.md` for the workloads and metrics.

use rmsa_benchmark::daemon::Layout;
use rmsa_benchmark::outcome::{Outcome, Stop};
use rmsa_benchmark::{cold, serve, sweep, sys};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweep_child: bool,
    setups: usize,
    replay: Option<sweep::Theta>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sweep_child: false,
        setups: 1,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--sweep-child" => args.sweep_child = true,
            "--setups" => args.setups = value()?.parse().map_err(|e| format!("--setups: {e}"))?,
            "--replay" => {
                let v: Vec<usize> = value()?
                    .split(',')
                    .map(|x| x.parse().map_err(|e| format!("--replay: {e}")))
                    .collect::<Result<_, _>>()?;
                let [optimize, validate, evaluate] = v[..] else {
                    return Err("--replay takes three sizes".to_string());
                };
                args.replay = Some(sweep::Theta {
                    optimize,
                    validate,
                    evaluate,
                });
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(args)
}

/// The checkout root (the benchmark's parent directory) and the
/// benchmark's output directory under it.
fn layout() -> Result<Layout, String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark has no parent directory")?
        .to_path_buf();
    Layout::new(root).map_err(|e| format!("output directory: {e}"))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let layout = layout()?;
    let (seed, secs) = (args.seed, args.seconds);
    let mut out = Outcome::default();
    let o = &mut out;
    let stopped = match (args.workload.as_str(), args.trace) {
        ("serve_hot", false) => serve::run(&layout, &serve::hot_spec(), seed, secs, o),
        ("serve_hot", true) => serve::run_traced(&layout, &serve::hot_spec(), seed, secs, o),
        ("serve_unique", false) => serve::run(&layout, &serve::unique_spec(), seed, secs, o),
        ("serve_unique", true) => serve::run_traced(&layout, &serve::unique_spec(), seed, secs, o),
        ("cold_sweep", false) => cold::run(seed, secs, o),
        ("cold_sweep", true) => cold::run_traced(&layout, seed, secs, o),
        (other, _) => return Err(format!("unknown workload {other:?}")),
    };
    match stopped {
        Ok(()) => {}
        Err(Stop::Fault(e)) => out.op(Err(format!("the run stopped: {e}"))),
        Err(Stop::Setup(e)) => return Err(e),
    }
    out.info_str("workload", &args.workload);
    out.info_num("seed", seed as f64);
    out.info_num("seconds", secs);
    out.info_num("trace", f64::from(u8::from(args.trace)));
    out.info(
        "machine",
        format!(
            "{{\"nproc\":{},\"cpu_model\":{}}}",
            sys::nproc(),
            rmsa_benchmark::json::quote(&sys::cpu_model())
        ),
    );
    let attempted = out.attempted;
    out.check(attempted > 0, || "no operation was attempted".to_string());
    let unmeasured: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    out.check(unmeasured.is_empty(), || {
        format!("metrics not measured: {unmeasured:?}")
    });
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rmsa-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.sweep_child {
        return match layout() {
            Ok(layout) => {
                println!(
                    "{}",
                    sweep::child(args.seed, args.setups, args.replay, &layout)
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rmsa-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run(&args) {
        Ok(out) => {
            for m in &out.metrics {
                println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", out.report_json());
            println!("{}", out.result_json());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("rmsa-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
