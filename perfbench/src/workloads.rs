//! The three workloads: their inputs, one measured instance each, and the
//! correctness checks run after the clock stops.

use std::path::{Path, PathBuf};
use std::time::Instant;

use lumos_bench::table2::{span_for, table2_cells, Table2Row, TABLE2_SYSTEMS};
use lumos_bench::DEFAULT_DAYS;
use lumos_core::{SystemId, Trace};
use lumos_sim::{simulate, Backfill, Policy, Relax, SimConfig, SimMetrics};
use rayon::prelude::*;
use rayon::ThreadPool;

use crate::inputs::{base_trace, jitter, CommandStream};
use crate::serve::{self, ServeRun};
use crate::sim;
use crate::spans::Tracer;

/// Relaxation base factor of Table II (`lumos table2`).
pub const TABLE2_BASE: f64 = 0.10;
/// Philly days replayed by `replay-conservative`, and its perturbed
/// copies, replayed side by side on the pool.
const PHILLY_DAYS: u32 = 2;
const PHILLY_VARIANTS: u64 = 4;
/// Helios days streamed by `serve-trace`.
const SERVE_DAYS: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayConservative,
    Table2,
    ServeTrace,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReplayConservative,
        Workload::Table2,
        Workload::ServeTrace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayConservative => "replay-conservative",
            Workload::Table2 => "table2",
            Workload::ServeTrace => "serve-trace",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scheduling configuration the workload's traces run under.
    pub fn sim_config(self) -> SimConfig {
        match self {
            Workload::ReplayConservative => SimConfig {
                backfill: Backfill::Conservative,
                record_timeline: false,
                ..SimConfig::default()
            },
            // The Table II cell that sets the sweep's critical path.
            Workload::Table2 => table2_config(Relax::Adaptive { base: TABLE2_BASE }),
            Workload::ServeTrace => SimConfig::default(),
        }
    }
}

/// A work-stealing pool of `threads` threads.
pub fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a pool with a thread count builds")
}

/// The configuration `run_table2` simulates each cell under.
pub fn table2_config(relax: Relax) -> SimConfig {
    SimConfig {
        policy: Policy::Fcfs,
        backfill: Backfill::Easy,
        relax,
        ..SimConfig::default()
    }
}

/// Generated inputs of one run.
pub struct Inputs {
    /// Replays: the perturbed copies. `table2`: one trace per system of
    /// [`TABLE2_SYSTEMS`]. `serve-trace`: the streamed trace.
    pub traces: Vec<Trace>,
    /// `serve-trace` only.
    pub cmds: Option<CommandStream>,
    /// Seconds spent generating and perturbing the traces.
    pub generate_s: f64,
}

/// Builds the workload's inputs from `seed`. For `serve-trace` this also
/// builds the command stream and binds (then releases) a server, the
/// set-up a served run pays.
///
/// Traces are generated on a one-thread pool. On more threads the
/// generator's allocations land in per-thread allocator arenas in an
/// order that changes from run to run, which moves the process's peak
/// resident set by up to a fifth between identical runs.
pub fn setup(w: Workload, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    let t = Instant::now();
    let traces = pool(1).install(|| match w {
        Workload::ReplayConservative => {
            variants(SystemId::Philly, PHILLY_DAYS, PHILLY_VARIANTS, seed)
        }
        Workload::Table2 => table2_traces(seed),
        Workload::ServeTrace => variants(SystemId::Helios, SERVE_DAYS, 1, seed),
    });
    let generate_s = t.elapsed().as_secs_f64();
    let cmds = if w == Workload::ServeTrace {
        let cmds = CommandStream::build(&traces[0]);
        drop(serve::bind(&traces[0], w.sim_config(), dir)?);
        Some(cmds)
    } else {
        None
    };
    Ok(Inputs {
        traces,
        cmds,
        generate_s,
    })
}

fn variants(system: SystemId, days: u32, count: u64, seed: u64) -> Vec<Trace> {
    let base = base_trace(system, days);
    (0..count).map(|v| jitter(&base, seed, v)).collect()
}

/// The Table II traces: each system over `run_table2`'s span at the CLI
/// default days, perturbed by `seed`.
pub fn table2_traces(seed: u64) -> Vec<Trace> {
    TABLE2_SYSTEMS
        .iter()
        .enumerate()
        .map(|(i, &id)| jitter(&base_trace(id, span_for(id, DEFAULT_DAYS)), seed, i as u64))
        .collect()
}

/// What one measured instance produced.
pub enum Instance {
    Replay(Fanned),
    Table2(Table2Run),
    Serve(ServeRun),
}

impl Instance {
    pub fn seconds(&self) -> f64 {
        match self {
            Instance::Replay(r) => r.seconds,
            Instance::Table2(t) => t.fanned.seconds,
            Instance::Serve(s) => s.seconds,
        }
    }

    /// Jobs the instance scheduled.
    pub fn jobs(&self) -> usize {
        match self {
            Instance::Replay(r) => r.jobs(),
            Instance::Table2(t) => t.fanned.jobs(),
            Instance::Serve(s) => s.submit_ack_ms.len(),
        }
    }
}

/// Jobs per second over a run: every measured instance's jobs over their
/// summed wall time. When the host changes speed partway through a run,
/// this weighs each speed by the time spent at it, where a median instance
/// time would jump to whichever speed held for most instances.
pub fn jobs_per_s(instances: &[Instance]) -> f64 {
    let jobs: usize = instances.iter().map(Instance::jobs).sum();
    let seconds: f64 = instances.iter().map(Instance::seconds).sum();
    jobs as f64 / seconds
}

/// Batch replays fanned over a pool.
pub struct Fanned {
    /// Wall seconds of the whole fan-out.
    pub seconds: f64,
    /// Each replay's metrics, in task order.
    pub metrics: Vec<SimMetrics>,
    /// Each replay's wall seconds, in task order.
    pub task_s: Vec<f64>,
}

impl Fanned {
    fn jobs(&self) -> usize {
        self.metrics.iter().map(|m| m.jobs).sum()
    }
}

/// Replays every `(trace, config)` task with batch `simulate()` on `pool`
/// and times the fan-out as a `name` span with a `sim.simulate` span per
/// task. Each result is dropped inside its task, as `run_table2` does.
fn fan_out(
    pool: &ThreadPool,
    tasks: &[(&Trace, SimConfig)],
    tracer: &mut Tracer,
    name: &'static str,
) -> Fanned {
    let start = Instant::now();
    let timed: Vec<(SimMetrics, Instant, Instant)> = pool.install(|| {
        tasks
            .par_iter()
            .map(|(trace, cfg)| {
                let t = Instant::now();
                let metrics = simulate(trace, cfg).metrics;
                (metrics, t, Instant::now())
            })
            .collect()
    });
    let end = Instant::now();
    let parent = tracer.record(name, 0, None, start, end);
    for (i, (_, s, e)) in timed.iter().enumerate() {
        tracer.record("sim.simulate", i as u64, parent, *s, *e);
    }
    Fanned {
        seconds: (end - start).as_secs_f64(),
        task_s: timed
            .iter()
            .map(|(_, s, e)| (*e - *s).as_secs_f64())
            .collect(),
        metrics: timed.into_iter().map(|(m, _, _)| m).collect(),
    }
}

/// One Table II computed on a pool.
pub struct Table2Run {
    /// The six cells, in `table2_cells` order.
    pub fanned: Fanned,
    /// The rows as `lumos table2` serializes them.
    pub rows_json: String,
}

/// The Table II grid over `traces`: the six `(system, rule)` cells fanned
/// over `pool` exactly as `run_table2` fans them, assembled into rows.
pub fn table2_run(pool: &ThreadPool, traces: &[Trace], tracer: &mut Tracer) -> Table2Run {
    let tasks: Vec<(&Trace, SimConfig)> = table2_cells(TABLE2_BASE)
        .into_iter()
        .map(|(id, relax)| {
            let i = TABLE2_SYSTEMS
                .iter()
                .position(|&s| s == id)
                .expect("a Table II system");
            (&traces[i], table2_config(relax))
        })
        .collect();
    let fanned = fan_out(pool, &tasks, tracer, "table2");
    let m = &fanned.metrics;
    let rows: Vec<Table2Row> = TABLE2_SYSTEMS
        .iter()
        .enumerate()
        .map(|(i, id)| Table2Row {
            system: id.name().to_string(),
            jobs: m[2 * i].jobs,
            relaxed: m[2 * i].clone(),
            adaptive: m[2 * i + 1].clone(),
            base_factor: TABLE2_BASE,
        })
        .collect();
    Table2Run {
        rows_json: serde_json::to_string(&rows).expect("rows serialize"),
        fanned,
    }
}

/// Per-run context shared by the instances.
pub struct Ctx {
    pub workload: Workload,
    pub inputs: Inputs,
    pub pool: ThreadPool,
    /// `serve-trace`: the `Bye` line a correct server answers with.
    pub bye: Option<String>,
    /// Scratch directory for journals; emptied after every instance.
    pub dir: PathBuf,
    instances: u64,
}

impl Ctx {
    pub fn new(workload: Workload, inputs: Inputs, dir: PathBuf) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = pool(threads);
        let bye = (workload == Workload::ServeTrace)
            .then(|| serve::expected_bye(&inputs.traces[0], &workload.sim_config()));
        Self {
            workload,
            inputs,
            pool,
            bye,
            dir,
            instances: 0,
        }
    }

    /// Runs one measured instance of the workload.
    pub fn instance(&mut self, tracer: &mut Tracer) -> std::io::Result<Instance> {
        self.instances += 1;
        let cfg = self.workload.sim_config();
        Ok(match self.workload {
            Workload::ReplayConservative => {
                let tasks: Vec<(&Trace, SimConfig)> =
                    self.inputs.traces.iter().map(|t| (t, cfg)).collect();
                Instance::Replay(fan_out(&self.pool, &tasks, tracer, "replay"))
            }
            Workload::Table2 => {
                Instance::Table2(table2_run(&self.pool, &self.inputs.traces, tracer))
            }
            Workload::ServeTrace => {
                let dir = self.dir.join(format!("journal-{}", self.instances));
                let trace = &self.inputs.traces[0];
                let bound = serve::bind(trace, cfg, &dir)?;
                let cmds = self.inputs.cmds.as_ref().expect("serve-trace has a stream");
                let bye = self.bye.as_deref().expect("serve-trace has a reference");
                let parent = tracer.open("serve", self.instances, None);
                let run = serve::run(bound, cmds, bye, tracer, parent);
                tracer.close(parent);
                std::fs::remove_dir_all(&dir)?;
                Instance::Serve(run?)
            }
        })
    }
}

/// Checks run after the clock stops; each returns whether it held.
pub mod checks {
    use super::*;

    /// Every instance produced the same output as the first.
    pub fn deterministic(instances: &[Instance]) -> bool {
        let key = |i: &Instance| match i {
            Instance::Replay(r) => serde_json::to_string(&r.metrics).expect("metrics serialize"),
            Instance::Table2(t) => t.rows_json.clone(),
            Instance::Serve(_) => String::new(),
        };
        instances.iter().all(|i| key(i) == key(&instances[0]))
    }

    /// An arrival-ordered `SimSession` replay of every trace reproduces
    /// batch `simulate()`'s metrics byte for byte.
    pub fn session_matches_simulate(
        traces: &[Trace],
        cfg: &SimConfig,
        batch: &[SimMetrics],
    ) -> bool {
        let mut off = Tracer::new(false);
        traces.iter().zip(batch).all(|(trace, want)| {
            let replay = sim::session_replay(trace, cfg, None, &mut off, None);
            replay.refused == 0 && sim::same_metrics(&replay.session.into_result().metrics, want)
        })
    }

    /// Table II rows are byte-identical on one thread and on the pool.
    pub fn table2_thread_invariant(ctx: &Ctx, par: &Table2Run) -> bool {
        table2_run(&pool(1), &ctx.inputs.traces, &mut Tracer::new(false)).rows_json == par.rows_json
    }

    /// Every reply was the expected variant, `Bye` matched the batch
    /// reference and the recovered state matched the final one.
    pub fn served(run: &ServeRun) -> bool {
        run.wrong_replies == 0 && run.checks_ok
    }
}
