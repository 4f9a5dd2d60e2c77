//! nsbench: the NetScatter receiver benchmark.
//!
//! ```text
//! nsbench --workload <live256|replay256|sparse16> --seed <n> --seconds <s> --trace <0|1>
//!         [--daemon <path to netscatterd>] [--out <dir>]
//! ```
//!
//! With `--trace 0` one timed run of the workload prints the end-to-end
//! metrics; with `--trace 1` the same timed run supplies the per-layer
//! metrics the program already reports, and a single-thread traced walk of
//! the workload's capture supplies the stage ledger. Every decoded frame is
//! checked against the synthesizer's ground truth. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod inputs;
mod ledger;
mod live;
mod procfs;
mod replay;
mod stats;
mod truth;

use netscatter::json::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one timed run of a workload produced.
pub struct Timed {
    /// Ground-truth outcome over every pass.
    pub score: truth::Score,
    /// Violated properties (any makes the run incorrect).
    pub problems: Vec<String>,
    /// The end-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics read from the program's own telemetry.
    pub report: Vec<Metric>,
    /// Samples served per second of wall time, in Msamples/s.
    pub msps: f64,
    /// CPU seconds the serving process spent over the timed window.
    pub serving_cpu_s: f64,
    /// Samples served over the timed window.
    pub samples_served: u64,
    /// Run-stamp entries.
    pub stamp: Vec<(String, Json)>,
    /// Every distinct failed operation, described within its capture.
    pub failures: BTreeSet<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Live256,
    Replay256,
    Sparse16,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "live256" => Ok(Self::Live256),
            "replay256" => Ok(Self::Replay256),
            "sparse16" => Ok(Self::Sparse16),
            other => Err(format!(
                "unknown workload {other:?} (live256, replay256 or sparse16)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Live256 => "live256",
            Self::Replay256 => "replay256",
            Self::Sparse16 => "sparse16",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut daemon = None;
    let mut out = PathBuf::from(".bench_build/nsbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                }
            }
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        daemon,
        out,
    })
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                Json::object(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::object(metrics)),
    ])
    .to_string_line()
}

/// The seed-43 stream and its clean seed-42 companion, synthesized in
/// parallel.
fn dense_pair() -> (inputs::Capture, inputs::Capture) {
    inputs::in_parallel(
        || inputs::dense_stream(inputs::MISANCHOR_SEED),
        || inputs::dense_stream(inputs::COMPANION_SEED),
    )
}

fn run(args: &Args) -> Result<String, String> {
    let started = std::time::Instant::now();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let captures = match args.workload {
        // The dense streams are the fixed seed-42/43 pair; the seed picks
        // where each loop is entered (which round comes first), so the
        // rounds offered, and the one that always fails, do not depend on it.
        Workload::Live256 => {
            let (a, b) = dense_pair();
            let (first_a, first_b) = (
                inputs::pick(args.seed, 0, a.truth.len()),
                inputs::pick(args.seed, 1, b.truth.len()),
            );
            vec![inputs::rotate(a, first_a), inputs::rotate(b, first_b)]
        }
        Workload::Replay256 => {
            let (a, b) = dense_pair();
            let both = inputs::concat(vec![a, b], "dense43+42".to_string())?;
            let first = inputs::pick(args.seed, 0, both.truth.len());
            vec![inputs::rotate(both, first)]
        }
        Workload::Sparse16 => vec![inputs::sparse_capture(args.seed)?],
    };
    eprintln!(
        "nsbench: inputs ready after {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let steal0 = procfs::host_steal_s()?;
    let mut timed = match args.workload {
        Workload::Live256 => {
            let daemon = args
                .daemon
                .as_deref()
                .ok_or("live256 needs --daemon <path to netscatterd>")?;
            live::run(&captures, daemon, args.seconds)?
        }
        Workload::Replay256 => replay::run(&captures[0], replay::DENSE, args.seconds)?,
        Workload::Sparse16 => replay::run(&captures[0], replay::SPARSE, args.seconds)?,
    };
    eprintln!(
        "nsbench: timed run done after {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let steal_s = procfs::host_steal_s()? - steal0;
    let (nproc, cpu_model) = procfs::machine();
    let mut stamp = vec![
        (
            "workload".to_string(),
            Json::Str(args.workload.name().into()),
        ),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("nproc".to_string(), Json::Num(nproc as f64)),
        ("cpu_model".to_string(), Json::Str(cpu_model)),
        ("host_steal_s".to_string(), Json::Num(steal_s)),
        (
            "fully_loaded".to_string(),
            Json::Bool(captures.iter().all(inputs::Capture::fully_loaded)),
        ),
    ];
    stamp.append(&mut timed.stamp);
    let mut score = timed.score;
    let mut problems = std::mem::take(&mut timed.problems);
    let mut failures = std::mem::take(&mut timed.failures);
    let metrics = if args.trace {
        let spans = args
            .out
            .join(format!("spans-{}.jsonl", args.workload.name()));
        let mut led = ledger::run(&captures, &spans)?;
        score.add(&led.score);
        failures.append(&mut led.failures);
        problems.append(&mut led.problems);
        stamp.append(&mut led.stamp);
        let mut m = led.metrics;
        m.extend(timed.report);
        m.push(metric(
            "serve.useful_cpu_ratio",
            led.facade_cpu_s_per_sample * timed.samples_served as f64 / timed.serving_cpu_s,
            "ratio",
        ));
        m.push(metric(
            "engine.parallel_speedup",
            timed.msps / led.facade_msps,
            "x",
        ));
        m
    } else {
        timed.e2e
    };
    stamp.push(("attempted".to_string(), Json::Num(score.offered as f64)));
    stamp.push(("failed".to_string(), Json::Num(score.failed() as f64)));
    stamp.push(("clean".to_string(), Json::Num(score.clean as f64)));
    stamp.push(("garbled".to_string(), Json::Num(score.garbled as f64)));
    stamp.push(("missed".to_string(), Json::Num(score.missed as f64)));
    stamp.push(("spurious".to_string(), Json::Num(score.spurious as f64)));
    stamp.push(("bit_errors".to_string(), Json::Num(score.bit_errors as f64)));
    stamp.push((
        "failures".to_string(),
        Json::Array(failures.into_iter().map(Json::Str).collect()),
    ));
    stamp.push((
        "problems".to_string(),
        Json::Array(problems.iter().map(|p| Json::Str(p.clone())).collect()),
    ));
    for p in &problems {
        eprintln!("nsbench: check failed: {p}");
    }
    let stamp = Json::object(stamp.iter().map(|(k, v)| (k.as_str(), v.clone())).collect());
    Ok(format!(
        "{}\n{}",
        Json::object(vec![("stamp", stamp)]).to_string_line(),
        result_line(problems.is_empty(), score.offered, score.failed(), &metrics)
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nsbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("nsbench: {e}");
            std::process::exit(1);
        }
    }
}
