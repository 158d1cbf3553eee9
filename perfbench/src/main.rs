//! Host-time benchmark of the TPNR evidence exchange (paper §4.1).
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! benchmark [--seed S] [--seconds N] [--trace 0|1] [--quick]   # every workload
//! benchmark --compare BASE.jsonl NEW.jsonl
//! ```
//!
//! One workload per process. Its last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. Without
//! `--workload` every workload runs in a child process of its own and each
//! result line is prefixed with its workload name (the format `--compare`
//! reads). Progress and a readable summary go to standard error.

mod calib;
mod checks;
mod compare;
mod gen;
mod json;
mod metrics;
mod stats;
mod traced;
mod workloads;

use std::process::{Command, Stdio};

const USAGE: &str = "usage: benchmark [--workload session|fleet|tcp-ladder] [--seed S] \
                     [--seconds N] [--trace 0|1] [--quick]\n       benchmark --compare BASE.jsonl NEW.jsonl";

/// Set-up repetitions per run; `setup_s` is their median. Five, so the
/// first set-ups of a process, which can run slow while the host is still
/// reclaiming the previous run's memory, do not decide it.
const SETUP_REPS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a =
        Args { workload: None, seed: 1, seconds: 20.0, trace: false, quick: false, compare: None };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                a.trace = it.peek().map(|s| s.as_str()) != Some("0");
                if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                    it.next();
                }
            }
            "--quick" => a.quick = true,
            "--compare" => {
                let base = value("two files")?;
                a.compare = Some((base, value("two files")?));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload '{w}' (expected one of {:?})", workloads::NAMES));
        }
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
        Ok(a) => match (&a.compare, &a.workload) {
            (Some((base, new)), _) => compare_files(base, new),
            (None, Some(w)) => run_one(w, &a),
            (None, None) => run_all(&a),
        },
    };
    std::process::exit(code);
}

fn run_one(name: &str, a: &Args) -> i32 {
    let cfg = workloads::Config {
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
        setup_reps: if a.trace { 1 } else { SETUP_REPS },
    };
    let run = |traced| {
        workloads::run(name, &cfg, traced).map_err(|e| {
            eprintln!("benchmark: {e}");
            2
        })
    };
    let bare = match run(false) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let mut tally = bare.tally.clone();
    let (values, specs) = if a.trace {
        let traced = match run(true) {
            Ok(o) => o,
            Err(code) => return code,
        };
        tally.absorb(traced.tally.clone());
        (metrics::per_layer(&traced, &bare), metrics::PER_LAYER)
    } else {
        (metrics::end_to_end(&bare, peak_rss_mib()), metrics::END_TO_END)
    };
    for f in &tally.failures {
        eprintln!("check failed: {f}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let mut fields = Vec::new();
    eprintln!("{name}: {} ops, {} failed", tally.attempted, tally.failed);
    for spec in specs {
        let v = values.iter().find(|(n, _)| *n == spec.name).map_or(f64::NAN, |x| x.1);
        eprintln!("  {:<36} {:>14.3} {}", spec.name, v, spec.unit);
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(spec.name),
            json::num(v),
            json::quote(spec.unit)
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(",")
    );
    if correct {
        0
    } else {
        1
    }
}

/// `VmHWM` of this process, the workload's peak resident memory.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs every workload in a child process of its own, so peak memory and
/// allocator state stay per workload, and prints their result lines.
fn run_all(a: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for name in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &a.seed.to_string()]).args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if a.trace { "1" } else { "0" },
        ]);
        if a.quick {
            cmd.arg("--quick");
        }
        let out = match cmd.stderr(Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: {name}: {e}");
                code = 2;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        match stdout.lines().last().and_then(|l| l.strip_prefix('{')) {
            Some(rest) => println!("{{\"workload\":{},{rest}", json::quote(name)),
            None => eprintln!("benchmark: {name} printed no result"),
        }
        if !out.status.success() {
            code = code.max(out.status.code().unwrap_or(2));
        }
    }
    code
}

/// Compares two result files against the bounds in `./BENCHMARK.json`.
fn compare_files(base: &str, new: &str) -> i32 {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let texts = read("BENCHMARK.json").and_then(|b| Ok((b, read(base)?, read(new)?)));
    match texts.and_then(|(b, base, new)| compare::run(&b, &base, &new)) {
        Ok((report, code)) => {
            print!("{report}");
            code
        }
        Err(e) => {
            eprintln!("benchmark --compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload fleet --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 12.0, true, false));
        assert!(!args("--workload session --trace 0").unwrap().trace);
        assert!(args("--trace --quick").unwrap().trace);
        assert_eq!(args("--compare a b").unwrap().compare, Some(("a".into(), "b".into())));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in
            ["--workload nope", "--seed x", "--seconds 0", "--bogus", "--compare a", "--seed"]
        {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
