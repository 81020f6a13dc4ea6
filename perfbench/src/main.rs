//! `perfbench` — run one benchmark workload for one seed.
//!
//! ```text
//! perfbench --workload <paper-sweep|tune-a100|exec-star7> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host stamp, then, as the last line of standard output, the
//! result object (`correct`, `attempted`, `failed`, `metrics`). Exits 1
//! when any operation or oracle check failed, 2 when the run could not
//! complete (nothing is printed on standard output then).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, RunArgs, Scale, Workload, WORK_ROOT};

fn parse() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {s}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        work_dir: PathBuf::from(WORK_ROOT).join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for f in &outcome.failures {
                eprintln!("perfbench: FAILED {f}");
            }
            println!("perfbench stamp: {}", outcome.stamp.to_json());
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::from(2)
        }
    }
}
