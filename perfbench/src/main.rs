//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! lumos-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run measures end-to-end figures with tracing off;
//! with `--trace 1` it measures each layer through spans recorded around
//! the benchmark's calls into it. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod host;
mod inputs;
mod layers;
mod outcome;
mod serve;
mod sim;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::peak_rss_mb;
use outcome::Outcome;
use serve::ServeRun;
use spans::Tracer;
use workloads::{checks, Ctx, Instance, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Instances measured per run at the least, whatever `--seconds` says.
const MIN_INSTANCES: usize = 3;
/// Default `--seed`: the perturbation drawn when none is given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    /// `None` runs every workload, each in a process of its own.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?;
                workload = Some(Some(w));
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs [`SETUPS`] set-ups and keeps the last; returns it with the median
/// set-up and generation seconds.
fn setup(w: Workload, seed: u64, dir: &Path) -> std::io::Result<(workloads::Inputs, f64, f64)> {
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        let built = workloads::setup(w, seed, dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(built.generate_s);
        inputs = Some(built);
    }
    Ok((
        inputs.expect("at least one set-up"),
        stats::median(&setup_s).expect("set-ups ran"),
        stats::median(&generate_s).expect("set-ups ran"),
    ))
}

/// An instance during which the hypervisor stole more than this share of
/// the machine's CPU time measured the host, not the program.
const STEAL_LIMIT: f64 = 0.05;

/// Measured instances, and how many were set aside for steal.
struct Measured {
    runs: Vec<Instance>,
    set_aside: usize,
    steal_share: f64,
}

/// Instances until `seconds` have passed, and at least
/// [`MIN_INSTANCES`]. Instances with more than [`STEAL_LIMIT`] of the CPU
/// stolen are set aside, and the run goes on for up to a quarter longer
/// to replace them; if it still falls short, every instance counts.
fn measure(ctx: &mut Ctx, seconds: u64) -> std::io::Result<Measured> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let hard_deadline = start + Duration::from_secs(seconds) * 5 / 4;
    let mut off = Tracer::new(false);
    let (mut clean, mut stolen) = (Vec::new(), Vec::new());
    let first = host::cpu_ticks();
    loop {
        let before = host::cpu_ticks();
        let instance = ctx.instance(&mut off)?;
        if host::steal_share(before, host::cpu_ticks()) > STEAL_LIMIT {
            stolen.push(instance);
        } else {
            clean.push(instance);
        }
        let now = Instant::now();
        let clean_ok = clean.len() >= MIN_INSTANCES;
        let all_ok = clean.len() + stolen.len() >= MIN_INSTANCES;
        if (clean_ok && now >= deadline) || (all_ok && now >= hard_deadline) {
            let steal_share = host::steal_share(first, host::cpu_ticks());
            let set_aside = if clean_ok { stolen.len() } else { 0 };
            if !clean_ok {
                clean.append(&mut stolen);
            }
            return Ok(Measured {
                runs: clean,
                set_aside,
                steal_share,
            });
        }
    }
}

fn median(xs: impl Iterator<Item = f64>) -> f64 {
    stats::median(&xs.collect::<Vec<_>>()).expect("at least one instance")
}

/// The served workload's figures, each a median over instances; for a
/// latency, of each instance's percentile. Percentiles are reported up to
/// the highest one with ten samples beyond it, with the sample count.
fn serve_notes(out: &mut Outcome, served: &[&ServeRun], cmds: &inputs::CommandStream) {
    let n = cmds.len() as f64;
    out.note(
        "cmds_per_s",
        median(served.iter().map(|s| n / s.seconds)),
        "1/s",
    );
    type Sample = fn(&ServeRun) -> &Vec<f64>;
    let latencies: [(&str, Sample); 2] = [
        ("submit_ack", |s| &s.submit_ack_ms),
        ("read_ack", |s| &s.read_ack_ms),
    ];
    for (name, pick) in latencies {
        let at = |p: f64| {
            median(
                served
                    .iter()
                    .map(|s| stats::percentile(pick(s), p).unwrap_or(0.0)),
            )
        };
        out.note(format!("{name}_p50_ms"), at(50.0), "ms");
        out.note(format!("{name}_p99_ms"), at(99.0), "ms");
        if let Some((p, _)) = stats::supported_tail(pick(served[0])).filter(|&(p, _)| p > 99.0) {
            out.note(format!("{name}_p{p}_ms"), at(p), "ms");
        }
        out.note(
            format!("{name}_samples"),
            pick(served[0]).len() as f64,
            "count",
        );
    }
    out.note("recover_s", median(served.iter().map(|s| s.recover_s)), "s");
    let journal_bytes = |s: &&ServeRun| (s.snapshot_bytes + s.segment_bytes) as f64;
    out.note(
        "journal_bytes_per_cmd",
        median(
            served
                .iter()
                .map(|s| journal_bytes(s) / cmds.mutating() as f64),
        ),
        "bytes",
    );
}

/// The untraced run: end-to-end figures and correctness checks.
fn end_to_end(w: Workload, args: &Args, dir: &Path) -> std::io::Result<Outcome> {
    let mut out = Outcome::new();
    let (inputs, setup_s, _) = setup(w, args.seed, dir)?;
    let mut ctx = Ctx::new(w, inputs, dir.to_path_buf());
    let measured = measure(&mut ctx, args.seconds)?;
    let runs = measured.runs;

    out.metric("jobs_per_s", workloads::jobs_per_s(&runs), "1/s");
    out.metric("setup_s", setup_s, "s");
    out.note("instances", runs.len() as f64, "count");
    out.note(
        "instances_set_aside_for_steal",
        measured.set_aside as f64,
        "count",
    );
    out.note("host_steal_share", measured.steal_share, "1");
    let seconds: Vec<f64> = runs.iter().map(Instance::seconds).collect();
    out.note("instance_s", median(seconds.iter().copied()), "s");
    out.note(
        "instance_s_spread",
        stats::spread(&seconds).unwrap_or(0.0),
        "1",
    );

    out.check(
        "instances repeat their output",
        checks::deterministic(&runs),
    );
    match &runs[0] {
        Instance::Replay(first) => {
            out.attempted = runs.iter().map(Instance::jobs).sum::<usize>() as u64;
            out.check(
                "SimSession replay equals simulate()",
                checks::session_matches_simulate(
                    &ctx.inputs.traces,
                    &w.sim_config(),
                    &first.metrics,
                ),
            );
        }
        Instance::Table2(first) => {
            out.attempted = (6 * runs.len()) as u64;
            out.note("table2_s", median(runs.iter().map(Instance::seconds)), "s");
            out.check(
                "Table II identical at 1 and N threads",
                checks::table2_thread_invariant(&ctx, first),
            );
        }
        Instance::Serve(_) => {
            let cmds = ctx.inputs.cmds.as_ref().expect("serve-trace has a stream");
            let served: Vec<&ServeRun> = runs
                .iter()
                .filter_map(|i| match i {
                    Instance::Serve(s) => Some(s),
                    _ => None,
                })
                .collect();
            out.attempted = (cmds.len() * served.len()) as u64;
            serve_notes(&mut out, &served, cmds);
            for s in served {
                out.failed += s.wrong_replies as u64;
                out.check("served trace checks", checks::served(s));
            }
        }
    }
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    floors(&mut out, dir, false)?;
    out.note(
        "failed_frac",
        out.failed_count() as f64 / out.attempted.max(1) as f64,
        "1",
    );
    Ok(out)
}

/// The CPU and `fdatasync` floors, as result metrics or as report notes.
pub fn floors(out: &mut Outcome, dir: &Path, as_metrics: bool) -> std::io::Result<()> {
    let cpu = layers::cpu_calib_ms();
    let sync = layers::fdatasync_us(dir)?;
    if as_metrics {
        out.metric("floor.cpu_calib_ms", cpu, "ms");
        out.metric("floor.fdatasync_us", sync, "us");
    } else {
        out.note("floor.cpu_calib_ms", cpu, "ms");
        out.note("floor.fdatasync_us", sync, "us");
    }
    Ok(())
}

fn run(w: Workload, args: &Args, root: &Path) -> std::io::Result<Outcome> {
    let dir = root.join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = if args.trace {
        let spans = root.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        setup(w, args.seed, &dir).and_then(|(inputs, _, generate_s)| {
            let mut ctx = Ctx::new(w, inputs, dir.clone());
            traced::run(&mut ctx, generate_s, args.seed, args.seconds, &spans)
        })
    } else {
        end_to_end(w, args, &dir)
    };
    std::fs::remove_dir_all(&dir)?;
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: lumos-perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let outcome = match run(w, &args, Path::new(".perfbench")) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {} ({} mode, {} s):",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        args.seconds
    );
    for (name, value, unit) in &outcome.report {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in turn, each in a fresh process so that its peak
/// resident set is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
