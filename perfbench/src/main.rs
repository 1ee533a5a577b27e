//! tfsim's benchmark: end-to-end wall time, CPU time, set-up time and peak
//! memory of four workloads, plus a per-layer ledger from a separate traced
//! run. See README.md for the workloads, the metrics and how to read them.
//!
//! ```text
//! tfsim-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs untraced iterations of the workload, each in a
//! fresh child process (so no simulator state or process-wide cache carries
//! over) and each with its own trial plan derived from `N`, until about `S`
//! seconds have passed, and reports the median of each end-to-end metric. With `--trace 1` it runs one untraced iteration
//! and then the traced measurement in its own process, and reports the
//! per-layer metrics.
//! Every iteration's output is checked; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod metrics;
mod sys;
mod traced;
mod work;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use traced::Account;
use work::{Kind, Output};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: run one iteration and report it on one line.
    child: Option<Child>,
}

struct Child {
    /// Parent's wall clock (ns since the epoch) when it spawned this child.
    spawned_at_ns: u128,
    scratch: PathBuf,
    /// Set up, report the set-up time and exit without iterating.
    setup_only: bool,
}

/// Extra set-up-only children per run, so that `setup_s` is a median of
/// several samples even when only one or two iterations fit in a run.
const SETUP_SAMPLES: usize = 5;

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--child-spawned-at"
            | "--child-scratch" | "--child-setup-only") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let kind = Kind::parse(get("--workload")?)
        .ok_or_else(|| format!("unknown workload; use one of {:?}", metrics::WORKLOADS))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let child = match (
        flags.get("--child-spawned-at"),
        flags.get("--child-scratch"),
    ) {
        (Some(at), Some(dir)) => Some(Child {
            spawned_at_ns: at.parse().map_err(|e| format!("--child-spawned-at: {e}"))?,
            scratch: PathBuf::from(dir),
            setup_only: flags.get("--child-setup-only") == Some(&"1"),
        }),
        _ => None,
    };
    if child.is_some() {
        return Ok(Args {
            kind,
            seed,
            seconds: 0,
            trace: false,
            child,
        });
    }
    let seconds = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        child,
    })
}

fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos()
}

/// One untraced iteration, as measured by the child that ran it.
struct Iteration {
    wall: Duration,
    cpu: Duration,
    setup: Duration,
    rss_kib: u64,
    out: Output,
}

impl Iteration {
    fn render(&self) -> String {
        format!(
            "iteration wall_ns={} cpu_ns={} setup_ns={} rss_kib={} trials={} quarantined={} digest={} invariant={}",
            self.wall.as_nanos(),
            self.cpu.as_nanos(),
            self.setup.as_nanos(),
            self.rss_kib,
            self.out.trials,
            self.out.quarantined,
            self.out.digest,
            self.out.invariant
        )
    }

    fn parse(line: &str) -> Option<Iteration> {
        let fields: BTreeMap<&str, &str> = line
            .strip_prefix("iteration ")?
            .split(' ')
            .filter_map(|f| f.split_once('='))
            .collect();
        let num = |k: &str| fields.get(k)?.parse::<u64>().ok();
        Some(Iteration {
            wall: Duration::from_nanos(num("wall_ns")?),
            cpu: Duration::from_nanos(num("cpu_ns")?),
            setup: Duration::from_nanos(num("setup_ns")?),
            rss_kib: num("rss_kib")?,
            out: Output {
                trials: num("trials")?,
                quarantined: num("quarantined")?,
                digest: fields.get("digest")?.to_string(),
                invariant: fields.get("invariant")?.to_string(),
            },
        })
    }
}

/// Child mode. Set-up is everything between the parent's spawn and the
/// timed call: process start, argument parsing, workload resolution.
fn child_main(args: &Args, child: &Child) -> String {
    std::fs::create_dir_all(&child.scratch).expect("create scratch directory");
    let setup = Duration::from_nanos(epoch_ns().saturating_sub(child.spawned_at_ns) as u64);
    if child.setup_only {
        return format!("setup setup_ns={}", setup.as_nanos());
    }
    let cpu0 = sys::cpu_time();
    let t0 = Instant::now();
    let out = work::iterate(args.kind, args.seed, &child.scratch);
    let wall = t0.elapsed();
    let cpu = sys::cpu_time() - cpu0;
    Iteration {
        wall,
        cpu,
        setup,
        rss_kib: sys::peak_rss_kib(),
        out,
    }
    .render()
}

/// Runs a fresh child process, waits for it, and returns its report line.
fn spawn_child(args: &Args, seed: u64, scratch: &Path, setup_only: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.kind.name(), "--seed", &seed.to_string()])
        .args(["--child-scratch", &scratch.display().to_string()])
        .args(["--child-setup-only", if setup_only { "1" } else { "0" }])
        .args(["--child-spawned-at", &epoch_ns().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn iteration: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| "child printed no report".to_string())
}

/// Runs one iteration, with campaign seed `seed`, in a fresh child process.
fn spawn_iteration(args: &Args, seed: u64, scratch: &Path) -> Result<Iteration, String> {
    let line = spawn_child(args, seed, scratch, false)?;
    Iteration::parse(&line).ok_or_else(|| format!("bad iteration report {line:?}"))
}

/// Sets up in a fresh child process and returns the set-up time.
fn spawn_setup(args: &Args, scratch: &Path) -> Result<Duration, String> {
    let line = spawn_child(args, args.seed, scratch, true)?;
    line.strip_prefix("setup setup_ns=")
        .and_then(|n| n.parse().ok())
        .map(Duration::from_nanos)
        .ok_or_else(|| format!("bad set-up report {line:?}"))
}

/// Formats a metric value for JSON: finite, with every digit measured.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn report(acct: &Account, metrics: &[(&str, f64)]) {
    for e in &acct.errors {
        println!("check failed: {e}");
    }
    for (name, value) in metrics {
        println!("{name:<34} {value:>16.6} {}", metrics::unit_of(name));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                metrics::unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        acct.errors.is_empty() && acct.failed == 0,
        acct.attempted,
        acct.failed,
        body.join(", ")
    );
}

/// Metric values by name, in report order.
type Metrics = Vec<(&'static str, f64)>;

fn run(args: &Args, scratch: &Path) -> Result<(Account, Metrics), String> {
    let kind = args.kind;
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut acct = Account::default();
    if args.trace {
        // The untraced reference for overhead and attribution runs in this
        // process, like the traced measurement it is compared with.
        let t = Instant::now();
        let out = work::iterate(kind, args.seed, scratch);
        let wall = t.elapsed();
        acct.iteration("untraced iteration", &out, &kind.expected(args.seed));
        let layers = traced::run(kind, args.seed, scratch, (wall, &out), &mut acct);
        let ordered = metrics::LAYERS
            .iter()
            .map(|l| (l.name, layers[l.name]))
            .collect();
        return Ok((acct, ordered));
    }
    let mut iterations: Vec<Iteration> = Vec::new();
    let start = Instant::now();
    loop {
        let seed = work::iteration_seed(args.seed, iterations.len());
        let t = Instant::now();
        let it = spawn_iteration(args, seed, scratch)?;
        let took = t.elapsed();
        acct.iteration(
            &format!("iteration with seed {seed}"),
            &it.out,
            &kind.expected(seed),
        );
        eprintln!("[perfbench] {} seed={seed} {}", kind.name(), it.render());
        iterations.push(it);
        // Stop at the iteration boundary nearest to the requested length.
        if iterations.len() == work::MAX_ITERATIONS
            || start.elapsed() + took / 2 >= Duration::from_secs(args.seconds)
        {
            break;
        }
    }
    let mut setups: Vec<f64> = iterations.iter().map(|i| i.setup.as_secs_f64()).collect();
    for _ in 0..SETUP_SAMPLES {
        setups.push(spawn_setup(args, scratch)?.as_secs_f64());
    }
    let med =
        |f: &dyn Fn(&Iteration) -> f64| sys::median(&iterations.iter().map(f).collect::<Vec<_>>());
    Ok((
        acct,
        vec![
            ("wall_s", med(&|i| i.wall.as_secs_f64())),
            ("cpu_s", med(&|i| i.cpu.as_secs_f64())),
            ("setup_s", sys::median(&setups)),
            ("peak_rss_mib", med(&|i| i.rss_kib as f64 / 1024.0)),
        ],
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tfsim-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(child) = &args.child {
        println!("{}", child_main(&args, child));
        return ExitCode::SUCCESS;
    }
    // Journal shards and other files the workloads write live under the
    // working directory (the checkout) and are removed afterwards.
    let scratch = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    match result {
        Ok((acct, metrics)) => {
            report(&acct, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tfsim-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
