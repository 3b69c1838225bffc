//! `perfbench --workload city|stars|txn --seed N --seconds S --trace 0|1 [--size full|tiny]`
//!
//! Generates the workload's inputs from the seed (the timed set-up), runs
//! the FP-Growth-KC+ oracle once, then hands the inputs to fresh child
//! processes that run the measured jobs. Each child is a process of its
//! own so that its peak resident set holds no set-up intermediates and
//! its first job is as cold as a one-shot CLI call.
//!
//! * `--trace 0`: [`MEASURED_PROCESSES`] children share the `--seconds`
//!   budget; each runs one cold job, then warm jobs. The end-to-end
//!   metrics are medians over the children (cold jobs, peaks) and over
//!   all warm jobs.
//! * `--trace 1`: one child measures the per-layer breakdown.
//!
//! Stdout carries two lines: a stamp of what ran, then the result object.

use geopattern_perfbench::layers::{traced_run, Checks};
use geopattern_perfbench::workload::{run_job, Inputs, JobInput};
use geopattern_perfbench::{median, output, sys, Size, Workload, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Fresh processes an untraced run measures in, one after the other.
/// Their medians keep one slow process (or one noisy stretch of a shared
/// host) from setting `cold_job_s` and `peak_rss_mb`.
const MEASURED_PROCESSES: usize = 5;

/// The options every process takes.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

/// Parses the options, plus the oracle digest a measured child is given.
fn parse_args(raw: &[String]) -> Result<(Args, Option<u64>), String> {
    let mut values = HashMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if values.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |name: &str| values.remove(name);
    let required = |name: &str, v: Option<String>| v.ok_or_else(|| format!("--{name} is required"));
    let workload = Workload::parse(&required("workload", take("workload"))?)?;
    let seed = required("seed", take("seed"))?
        .parse()
        .map_err(|_| "bad --seed".to_string())?;
    let seconds: f64 = required("seconds", take("seconds"))?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match required("trace", take("trace"))?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    let size = take("size").map_or(Ok(Size::Full), |s| Size::parse(&s))?;
    let child = take("child-expect")
        .map(|e| u64::from_str_radix(&e, 16).map_err(|_| "bad --child-expect"))
        .transpose()?;
    if let Some(extra) = values.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok((
        Args {
            workload,
            seed,
            seconds,
            trace,
            size,
        },
        child,
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, expect) = match parse_args(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match expect {
        Some(expect) => child(&args, expect),
        None => parent(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set-up, stamp and oracle, then the measured children.
fn parent(args: &Args) -> Result<(), String> {
    let threads = geopattern_par::host_parallelism();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut generated: Option<(Inputs, Vec<u8>)> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let inputs = args.workload.generate(args.size, args.seed);
        let bytes = match &inputs {
            Inputs::Geo(ds) => geopattern_sdb::to_gpb(ds),
            Inputs::Txn(_) => Vec::new(),
        };
        setup_times.push(start.elapsed().as_secs_f64());
        if let Some((_, previous)) = &generated {
            if *previous != bytes {
                return Err("set-up is not deterministic: .gpb bytes differ".into());
            }
        }
        generated = Some((inputs, bytes));
    }
    let (inputs, bytes) = generated.expect("at least one set-up");

    let params = args.workload.params(args.size);
    let params: Vec<(&str, String)> = params
        .iter()
        .map(|(k, v)| (*k, output::string(v)))
        .collect();
    let stamp = [
        ("workload", output::string(args.workload.name())),
        ("size", output::string(args.size.name())),
        ("params", output::object(&params)),
        ("seed", args.seed.to_string()),
        ("seconds", output::number(args.seconds)),
        ("trace", args.trace.to_string()),
        ("threads", threads.to_string()),
        ("host_parallelism", threads.to_string()),
        (
            "git_revision",
            output::string(&sys::git_revision(std::path::Path::new("."))),
        ),
        ("features", inputs.features().to_string()),
        ("rows", inputs.rows().to_string()),
        ("gpb_bytes", bytes.len().to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        (
            "measured_processes",
            if args.trace { 1 } else { MEASURED_PROCESSES }.to_string(),
        ),
    ];
    println!("{}", output::object(&[("stamp", output::object(&stamp))]));

    let expect = args
        .workload
        .oracle(args.size, threads, &inputs)
        .map_err(|e| format!("oracle: {e}"))?;
    drop(inputs);

    if args.trace {
        // The traced child prints the result line itself.
        spawn_child(args, args.seconds, expect, &bytes, Stdio::inherit())?;
        return Ok(());
    }
    let mut checks = Checks::default();
    let (mut colds, mut peaks, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..MEASURED_PROCESSES {
        let slice = args.seconds / MEASURED_PROCESSES as f64;
        let report = spawn_child(args, slice, expect, &bytes, Stdio::piped())?;
        let fields: Vec<f64> = report
            .split_whitespace()
            .map(|f| {
                f.parse()
                    .map_err(|_| format!("bad child report {report:?}"))
            })
            .collect::<Result<_, _>>()?;
        let [attempted, failed, peak, cold, ref jobs @ ..] = fields[..] else {
            return Err(format!("short child report {report:?}"));
        };
        checks.attempted += attempted as u64;
        checks.failed += failed as u64;
        peaks.push(peak);
        colds.push(cold);
        warm.extend_from_slice(jobs);
    }
    if warm.is_empty() {
        return Err("no warm job finished".into());
    }
    let values = [
        ("job_s", median(&warm)),
        ("cold_job_s", median(&colds)),
        ("peak_rss_mb", median(&peaks)),
        ("setup_s", median(&setup_times)),
    ];
    let metrics = with_units(&values, END_TO_END)?;
    println!(
        "{}",
        output::result_line(
            checks.failed == 0,
            checks.attempted,
            checks.failed,
            &metrics
        )
    );
    Ok(())
}

/// Runs one measured child to completion, feeding it the `.gpb` bytes on
/// stdin. Returns what it printed when `stdout` is piped.
fn spawn_child(
    args: &Args,
    seconds: f64,
    expect: u64,
    bytes: &[u8],
    stdout: Stdio,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--size",
            args.size.name(),
        ])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &output::number(seconds),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--child-expect", &format!("{expect:x}")])
        .stdin(Stdio::piped())
        .stdout(stdout)
        .spawn()
        .map_err(|e| format!("starting a measured process: {e}"))?;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    // A child that died early closes the pipe; its exit status says why.
    let _ = stdin.write_all(bytes);
    drop(stdin);
    let mut report = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut report)
            .map_err(|e| format!("reading a measured process: {e}"))?;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a measured process: {e}"))?;
    if !status.success() {
        return Err(format!("measured process failed: {status}"));
    }
    Ok(report)
}

/// A measured process. Untraced, it prints `attempted failed peak_mib
/// cold_s warm_s...` for the parent; traced, the result line itself.
fn child(args: &Args, expect: u64) -> Result<(), String> {
    let threads = geopattern_par::host_parallelism();
    let mut bytes = Vec::new();
    std::io::stdin()
        .read_to_end(&mut bytes)
        .map_err(|e| format!("reading inputs: {e}"))?;
    // `txn` inputs carry no set-up intermediates, so the child regenerates
    // them instead of parsing a serialised copy.
    let experiment =
        (!args.workload.is_geo()).then(|| match args.workload.generate(args.size, args.seed) {
            Inputs::Txn(e) => e,
            Inputs::Geo(_) => unreachable!("txn generates transactions"),
        });
    let input = match &experiment {
        Some(e) => JobInput::Txn(e),
        None => JobInput::Gpb(&bytes),
    };
    let mut checks = Checks::default();

    if args.trace {
        let layer_metrics = traced_run(
            args.workload,
            args.size,
            threads,
            &input,
            expect,
            args.seconds,
            &mut checks,
        );
        let metrics = with_units(&layer_metrics, PER_LAYER)?;
        println!(
            "{}",
            output::result_line(
                checks.failed == 0,
                checks.attempted,
                checks.failed,
                &metrics
            )
        );
        return Ok(());
    }
    let pipe = args.workload.pipeline(args.size, threads);
    let start = Instant::now();
    let cold = run_job(&input, &pipe);
    checks.job(&cold, expect);
    eprintln!("perfbench: cold job {:.4} s", cold.wall);
    let mut warm = Vec::new();
    while warm.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let job = run_job(&input, &pipe);
        checks.job(&job, expect);
        eprintln!("perfbench: warm job {:.4} s", job.wall);
        warm.push(output::number(job.wall));
    }
    println!(
        "{} {} {} {} {}",
        checks.attempted,
        checks.failed,
        output::number(sys::peak_rss_mib()),
        output::number(cold.wall),
        warm.join(" ")
    );
    Ok(())
}

/// Lists every declared metric, in declared order, with its measured
/// value. Each must have been measured exactly once, and nothing else.
fn with_units<'a>(
    values: &[(&str, f64)],
    declared: &[(&'a str, &'a str)],
) -> Result<Vec<(&'a str, f64, &'a str)>, String> {
    if values.len() != declared.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            values.len(),
            declared.len()
        ));
    }
    declared
        .iter()
        .map(|&(name, unit)| {
            let mut found = values.iter().filter(|(n, _)| *n == name);
            match (found.next(), found.next()) {
                (Some(&(_, value)), None) => Ok((name, value, unit)),
                _ => Err(format!("metric {name} not measured exactly once")),
            }
        })
        .collect()
}
