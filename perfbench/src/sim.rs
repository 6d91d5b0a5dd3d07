//! The arrival-ordered `SimSession` replay: the sim layer's traced probe
//! and the reference batch `simulate()` replays must reproduce.

use lumos_core::{Duration, Trace};
use lumos_sim::{JobState, SimConfig, SimMetrics, SimSession};

use crate::spans::Tracer;

/// What an arrival-ordered session replay observed.
pub struct SessionReplay {
    /// The session once the last arrival was scheduled, before draining.
    pub session: SimSession,
    /// Job state right after each submission (before its arrival is
    /// processed), in trace order.
    pub states: Vec<JobState>,
    /// Waiting jobs after each `advance_to`, in call order.
    pub waiting: Vec<usize>,
    /// Submissions the session refused.
    pub refused: usize,
}

/// Feeds `trace` to a [`SimSession`] in arrival order: before the first
/// arrival of each new instant, advance to just before it, then submit
/// (with `walltimes[i]` when given). Same-instant arrivals thus reach one
/// scheduling step together, as in batch `simulate()`, whose metrics the
/// replay must reproduce. `sim.submit` and `sim.advance` spans of one job
/// share the job's trace index as id.
pub fn session_replay(
    trace: &Trace,
    cfg: &SimConfig,
    walltimes: Option<&[Duration]>,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> SessionReplay {
    let mut session = SimSession::new(&trace.system, *cfg);
    session.advance_to(0);
    let mut states = Vec::with_capacity(trace.len());
    let mut waiting = Vec::with_capacity(2 * trace.len());
    let mut refused = 0;
    for (i, job) in trace.jobs().iter().enumerate() {
        let id = i as u64;
        if job.submit - 1 > session.now() {
            tracer.span("sim.advance", id, parent, || {
                session.advance_to(job.submit - 1)
            });
            waiting.push(session.snapshot().waiting);
        }
        let job = job.clone();
        let wall = walltimes.map(|w| w[i]);
        let job_id = job.id;
        if tracer
            .span("sim.submit", id, parent, || {
                session.submit_with_walltime(job, wall)
            })
            .is_err()
        {
            refused += 1;
        }
        states.push(session.query(job_id).unwrap_or(JobState::Cancelled));
    }
    let last = trace.end_time();
    tracer.span("sim.advance", trace.len() as u64, parent, || {
        session.advance_to(last)
    });
    waiting.push(session.snapshot().waiting);
    SessionReplay {
        session,
        states,
        waiting,
        refused,
    }
}

/// Byte-for-byte comparison of two metric sets through their JSON form.
pub fn same_metrics(a: &SimMetrics, b: &SimMetrics) -> bool {
    serde_json::to_string(a).expect("metrics serialize")
        == serde_json::to_string(b).expect("metrics serialize")
}
