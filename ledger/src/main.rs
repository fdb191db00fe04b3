//! `ledger`: runs the benchmark.
//!
//! ```text
//! ledger [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]]
//! ```
//!
//! With `--workload`, runs that workload and prints one line per metric
//! (`<workload> <metric> <value> <unit>`), per check and per note; the
//! last line is the result document `{"correct", "attempted", "failed",
//! "metrics"}`. Without it, runs every workload, each in a fresh child
//! process of this program (so `peak_rss_mb` belongs to one workload),
//! relays their lines, and ends with one `wsyn-bench-ledger/1` document
//! holding every workload's result. `--trace 1` (or bare `--trace`)
//! reports the per-layer metrics instead of the end-to-end ones. The
//! exit code is nonzero when any correctness check fails.

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use wsyn_core::json::{object, Value};
use wsyn_ledger::{run, Workload, FULL};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2004,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value()?)?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = it.next_if(|v| v == "0" || v == "1").as_deref() != Some("0");
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload {
        Some(w) => one(w, &args),
        None => all(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process; `Ok(false)` when a check failed.
fn one(workload: Workload, args: &Args) -> Result<bool, String> {
    let outcome = run(workload, args.seed, args.seconds as f64, args.trace, &FULL)?;
    for line in outcome.lines() {
        println!("{line}");
    }
    println!("{}", outcome.to_json().compact());
    Ok(outcome.correct())
}

/// Runs every workload in its own child process and prints the combined
/// ledger; `Ok(false)` when any child failed.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rows = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut last = None;
        if let Some(out) = child.stdout.take() {
            for line in BufReader::new(out).lines() {
                let line = line.map_err(|e| format!("read {} output: {e}", w.name()))?;
                if let Some(previous) = last.replace(line) {
                    println!("{previous}");
                }
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("wait {}: {e}", w.name()))?;
        ok &= status.success();
        let result = last
            .as_deref()
            .map(Value::parse)
            .transpose()?
            .unwrap_or(Value::Null);
        rows.push(object(vec![
            ("workload", Value::String(w.name().to_string())),
            ("result", result),
        ]));
    }
    let doc = object(vec![
        ("schema", Value::String("wsyn-bench-ledger/1".to_string())),
        ("seed", Value::Number(args.seed as f64)),
        ("seconds", Value::Number(args.seconds as f64)),
        ("trace", Value::Bool(args.trace)),
        ("workloads", Value::Array(rows)),
    ]);
    println!("{}", doc.compact());
    Ok(ok)
}
