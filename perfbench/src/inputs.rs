//! Workload inputs: calibrated traces perturbed by the run's seed, and the
//! NDJSON command stream that feeds a trace to the server.
//!
//! Every trace starts from the calibrated generator at [`BASE_SEED`]. The
//! run's `--seed` then draws a small perturbation of it: each arrival
//! moves by up to [`ARRIVAL_JITTER_S`] seconds and each runtime (with its
//! walltime) is scaled by up to ±[`RUNTIME_JITTER`]. Every seed is thus a
//! distinct input in the same queueing regime. Drawing whole traces from
//! the seed instead swings the per-job cost by two orders of magnitude —
//! Philly under conservative backfill reaches a maximum queue anywhere
//! from 137 to 2,837 jobs across seeds — which no run length averages out.

use lumos_core::{Duration, SystemId, Trace};
use lumos_serve::journal::JournalRecord;
use lumos_serve::{Request, SubmitSpec};
use lumos_stats::rng::Rng;
use lumos_traces::{systems, Generator, GeneratorConfig};

/// Generator seed of every calibrated base trace.
pub const BASE_SEED: u64 = 1;
/// Largest arrival shift, in seconds, either way.
pub const ARRIVAL_JITTER_S: i64 = 30;
/// Largest relative runtime change, either way.
pub const RUNTIME_JITTER: f64 = 0.02;

/// The calibrated base trace of `system` over `days`.
pub fn base_trace(system: SystemId, days: u32) -> Trace {
    Generator::new(
        systems::profile_for(system),
        GeneratorConfig {
            seed: BASE_SEED,
            span_days: days,
            ..GeneratorConfig::default()
        },
    )
    .generate()
}

/// `base` perturbed by `seed`; `variant` selects one of several
/// independent perturbations drawn from the same seed.
pub fn jitter(base: &Trace, seed: u64, variant: u64) -> Trace {
    let mut rng = Rng::new(seed).fork(variant);
    let span = 2 * ARRIVAL_JITTER_S as u64 + 1;
    let jobs = base
        .jobs()
        .iter()
        .map(|job| {
            let mut j = job.clone();
            let shift = rng.next_below(span) as i64 - ARRIVAL_JITTER_S;
            j.submit = (j.submit + shift).max(0);
            let scale = 1.0 + RUNTIME_JITTER * (2.0 * rng.next_f64() - 1.0);
            j.runtime = (j.runtime as f64 * scale).round() as Duration;
            j.walltime = j.walltime.map(|w| (w as f64 * scale).round() as Duration);
            j
        })
        .collect();
    Trace::new(base.system.clone(), jobs).expect("a perturbed valid trace stays valid")
}

/// Tenant table of the served workload: four equal tenants, no quotas.
pub const TENANTS: &str = "t0 1 -\nt1 1 -\nt2 1 -\nt3 1 -\n";
/// One `Query` for a recent job after this many submissions.
pub const QUERY_EVERY: usize = 16;
/// One `Stats` after this many commands.
pub const STATS_EVERY: usize = 1024;

/// What one command is, and what its reply must start with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Submit,
    Advance,
    Query,
    Stats,
}

/// A trace as the server receives it: arrival-ordered `Submit`s with an
/// explicit `submit` time, an `Advance` at each new arrival instant, a
/// `Query` for a recent job every [`QUERY_EVERY`] submissions and a
/// `Stats` every [`STATS_EVERY`] commands.
pub struct CommandStream {
    pub lines: Vec<String>,
    pub kinds: Vec<Kind>,
    /// Reply prefix each command's answer must carry (variant and id).
    pub expect: Vec<String>,
    /// The journal record each mutating command produces.
    pub records: Vec<JournalRecord>,
}

impl CommandStream {
    pub fn build(trace: &Trace) -> Self {
        let mut s = Self {
            lines: Vec::new(),
            kinds: Vec::new(),
            expect: Vec::new(),
            records: Vec::new(),
        };
        let mut now = None;
        for (i, job) in trace.jobs().iter().enumerate() {
            if now != Some(job.submit) {
                now = Some(job.submit);
                s.push(
                    Request::Advance { to: job.submit },
                    Kind::Advance,
                    format!(r#"{{"Advanced":{{"now":{}}}}}"#, job.submit),
                );
                s.records.push(JournalRecord::Advance { to: job.submit });
            }
            let spec = SubmitSpec {
                id: job.id,
                procs: job.procs,
                runtime: job.runtime,
                walltime: job.walltime,
                user: Some(job.user),
                submit: Some(job.submit),
                virtual_cluster: job.virtual_cluster,
                tenant: Some(format!("t{}", job.user % 4)),
            };
            s.records.push(JournalRecord::Submit {
                now: job.submit,
                job: spec.clone(),
            });
            s.push(
                Request::Submit { job: spec },
                Kind::Submit,
                format!(r#"{{"Submitted":{{"id":{},"#, job.id),
            );
            if (i + 1) % QUERY_EVERY == 0 {
                let id = trace.jobs()[i + 1 - QUERY_EVERY / 2].id;
                s.push(
                    Request::Query { id },
                    Kind::Query,
                    format!(r#"{{"Job":{{"id":{id},"#),
                );
            }
            if s.lines.len().is_multiple_of(STATS_EVERY) {
                s.push(Request::Stats, Kind::Stats, r#"{"Stats":"#.to_string());
            }
        }
        s
    }

    fn push(&mut self, req: Request, kind: Kind, expect: String) {
        self.lines.push(req.to_line());
        self.kinds.push(kind);
        self.expect.push(expect);
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Commands that mutate the session and are journaled.
    pub fn mutating(&self) -> usize {
        self.records.len()
    }
}
