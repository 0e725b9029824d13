//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <summarize|distributed_qa|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures for the given
//! seconds, checks every output, and prints a report followed by one
//! JSON line with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). Exits 1 if any operation or
//! check failed. See `README.md` beside this file for the workloads and
//! what each metric means on each of them.

mod distributed_qa;
mod layers;
mod report;
mod serve;
mod stats;
mod summarize;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use pgs_core::pegasus::RunStats;

use report::{Outcome, END_TO_END, PER_LAYER};
use stats::median;
use trace::Trace;

/// Fewest times each workload's set-up is repeated; `setup_s` is the
/// median.
const SETUP_REPS: usize = 5;
/// A set-up cheaper than this is repeated until this much time has
/// passed (up to [`SETUP_MAX_REPS`] times), so that a short set-up time
/// is the median of many readings.
const SETUP_MIN_TIME: Duration = Duration::from_secs(3);
const SETUP_MAX_REPS: usize = 1000;

/// Where traced runs write their spans and every run keeps the values
/// that must repeat exactly for its seed, relative to the directory the
/// benchmark runs in.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <summarize|distributed_qa|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (seed, secs, tr) = (args.seed, args.seconds, args.trace);
    let cpu_before = cpu_ticks();
    let mut out = match args.workload.as_str() {
        "summarize" => summarize::run(seed, secs, tr),
        "distributed_qa" => distributed_qa::run(seed, secs, tr),
        "serve" => serve::run(seed, secs, tr),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let steal = match (cpu_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let rss = peak_rss_mb();
    out.set("peak_rss_mb", rss, 1);
    check_determinism(&mut out, &args);

    println!(
        "# workload {} seed {} trace {}",
        args.workload,
        seed,
        u8::from(tr)
    );
    println!("# {} steal_frac={steal:.4}", stamp(&args, &out));
    for line in &out.lines {
        println!("# {line}");
    }
    println!("# peak_rss_mb {rss:.1} MB");
    println!(
        "# failed_frac {:.4} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("# FAILED {f}");
        eprintln!("perfbench: FAILED {f}");
    }
    let table = if tr { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        let r = out.metrics[name];
        println!("# {name} = {} {unit} (n={})", r.value, r.n);
    }
    for (name, r, unit) in &out.extras {
        println!(
            "# {name} = {} {unit} (n={}, this workload only)",
            r.value, r.n
        );
    }
    println!("{}", report::result_json(&out, table));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs a workload's set-up `make` repeatedly, dropping each result
/// before the next, and returns the last result with every set-up time.
pub fn repeat_setup<T>(mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_MAX_REPS && started.elapsed() < SETUP_MIN_TIME)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(make());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), times)
}

/// The `pegasus.*` per-layer metrics from finished runs, each given
/// with the run span the benchmark measured around it: the median over
/// runs of each phase from `RunStats.phases`, of the span left after
/// the phases, and of the counts and their ratios.
pub fn phase_metrics(out: &mut Outcome, runs: &[(&RunStats, f64)]) {
    let n = runs.len();
    let med = |f: &dyn Fn(&RunStats, f64) -> f64| {
        median(&runs.iter().map(|&(s, span)| f(s, span)).collect::<Vec<_>>())
    };
    out.set("pegasus.candidates_s", med(&|s, _| s.phases.candidates), n);
    out.set("pegasus.evaluate_s", med(&|s, _| s.phases.evaluate), n);
    out.set("pegasus.commit_s", med(&|s, _| s.phases.commit), n);
    out.extra("pegasus.sparsify_s", med(&|s, _| s.phases.sparsify), "s", n);
    out.set(
        "pegasus.unattributed_s",
        med(&|s, span| span - s.phases.total()),
        n,
    );
    out.set("pegasus.evals", med(&|s, _| s.evals as f64), n);
    out.set("pegasus.merges", med(&|s, _| s.merges as f64), n);
    out.set("pegasus.iterations", med(&|s, _| s.iterations as f64), n);
    out.set(
        "pegasus.evals_per_s",
        med(&|s, _| s.evals as f64 / s.phases.evaluate),
        n,
    );
    out.set(
        "pegasus.merge_yield",
        med(&|s, _| s.merges as f64 / s.evals as f64),
        n,
    );
}

/// Checks that no span's children add up to more than the span itself,
/// then writes the spans to `OUT_DIR`.
pub fn finish_trace(out: &mut Outcome, stem: &str, spans: &Trace) {
    let over = spans.overfull();
    out.op(
        "span nesting",
        over.iter()
            .map(|(name, slack)| format!("children of {name} exceed it by {:.6} s", -slack))
            .collect(),
    );
    let path = Path::new(OUT_DIR).join(format!("trace-{stem}.jsonl"));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, spans.to_jsonl()));
    match written {
        Ok(()) => out.line(format!("spans written to {}", path.display())),
        Err(e) => out.line(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Compares the values pinned for this seed with each other and with
/// those a previous run of the same build and seed recorded, then
/// records them. A mismatch is a failed check.
fn check_determinism(out: &mut Outcome, args: &Args) {
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    let mut bad = Vec::new();
    for (k, v) in &out.fingerprint {
        match seen.get(k) {
            Some(prev) if prev != v => {
                bad.push(format!("{k}: {v} in this run, {prev} earlier in it"))
            }
            Some(_) => {}
            None => {
                seen.insert(k.clone(), v.clone());
            }
        }
    }
    let path = Path::new(OUT_DIR).join(format!(
        "pins-{}-{}-{:016x}.txt",
        args.workload,
        args.seed,
        build_id()
    ));
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            if let Some((k, prev)) = line.split_once('=') {
                match seen.get(k) {
                    Some(v) if v != prev => {
                        bad.push(format!("{k}: {v} in this run, {prev} in a previous run"))
                    }
                    Some(_) => {}
                    None => {
                        seen.insert(k.to_string(), prev.to_string());
                    }
                }
            }
        }
    }
    let n = seen.len();
    let text: String = seen
        .into_iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, text)) {
        out.line(format!("pins not written to {}: {e}", path.display()));
    }
    out.line(format!("determinism: {n} pinned values checked"));
    out.op("determinism", bad);
}

/// Identifies the running executable by a hash of its bytes, so that
/// pins recorded by another build are never compared.
fn build_id() -> u64 {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| layers::fnv1a(&bytes))
        .unwrap_or(0)
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Steal and total ticks of the machine's CPUs (`/proc/stat`): the
/// share of time the hypervisor ran something else on them, which
/// slows every wall-clock metric of the run it falls in.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The line every result is stamped with.
fn stamp(args: &Args, out: &Outcome) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    format!(
        "stamp hardware_threads={threads} git_rev={git} rustc=\"{}\" seed={} workload={} nodes={} edges={}",
        command_line("rustc", &["--version"]),
        args.seed,
        args.workload,
        out.nodes,
        out.edges
    )
}

/// First line of a command's output, or "unknown".
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}
