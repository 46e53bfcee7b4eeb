//! The repository benchmark: three workloads over the simulator's public
//! API, end-to-end metrics from untraced timed runs, per-layer metrics
//! from a separate traced pass, and output checks on both.
//!
//! ```text
//! perfbench --workload <paper-figures|sessions|interrogation>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is non-zero when an output check fails. See README.md.

mod common;
mod drive;
mod procfs;
mod refclock;
mod stats;
mod trace;
mod traced;
mod workloads;

use common::{build_first_scenario, nproc, Workload};
use std::process::ExitCode;

/// One named measurement.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints.
#[derive(Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (all of them when a check failed).
    pub failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    /// Adds a metric; its name must match `[A-Za-z0-9_.-]+`.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(stats::valid_metric_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--setup-probe" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
                setup_probe = true;
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_probe {
            0.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

/// Git revision of the checkout, read from `.git` without a dependency;
/// `unknown` outside a git work tree.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

fn main() -> ExitCode {
    let start = std::time::Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        std::hint::black_box(build_first_scenario(args.workload, args.seed));
        let setup_s = start.elapsed().as_secs_f64();
        // Read on this process's own CPU, which need not be its parent's.
        println!("{setup_s} {}", refclock::reference_s());
        return ExitCode::SUCCESS;
    }
    println!(
        "manifest {{\"git\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"timed_workers\": 1, \
         \"check_workers\": {}, \"workload\": \"{}\", \"seed\": {}, \"effort\": \"{}\", \
         \"seconds\": {}, \"trace\": {}}}",
        git_revision(),
        nproc(),
        rustc_version(),
        nproc(),
        args.workload.name(),
        args.seed,
        if args.workload == Workload::Interrogation {
            "none"
        } else {
            "quick"
        },
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced::run(args.workload, args.seed)
    } else {
        workloads::run(args.workload, args.seed, args.seconds)
    };
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = args("--workload sessions --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Sessions);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sessions --seconds 1",
            "--workload sessions --seed 1 --seconds 0 --trace 0",
            "--workload sessions --seed 1 --seconds 1 --trace 2",
            "--workload sessions --seed 1 --seconds 1 --bogus",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.metric("wall_s", 1.25, "s");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
