//! The traced run: per-layer figures from spans recorded around the
//! benchmark's own calls into each layer.
//!
//! The sim and predictor layers are measured on the traced workload's own
//! trace. The wire, journal and recovery layers are measured on the
//! `serve-trace` input and the pool on the `table2` input — the workloads
//! that use those layers — whichever workload is traced, so every traced
//! run reports every per-layer metric.

use std::path::Path;
use std::time::{Duration, Instant};

use lumos_core::Trace;
use lumos_predict::walltime::last2_walltimes;
use lumos_predict::{OnlinePredictor, Predictor, PredictorConfig};
use lumos_serve::recovery::snapshot_json;
use lumos_serve::{JournalRecord, LiveMetrics};
use lumos_sim::{simulate, simulate_with_walltimes, SimConfig, SimMetrics};

use crate::outcome::Outcome;
use crate::spans::Tracer;
use crate::workloads::{self, checks, Ctx, Inputs, Instance, Workload};
use crate::{layers, serve, sim, stats};

/// An ack slower than this many medians counts as a stall.
const STALL_FACTOR: f64 = 10.0;

/// Runs the traced measurement of `ctx`'s workload for `seconds`, and
/// every layer probe; spans go to `spans_path`.
pub fn run(
    ctx: &mut Ctx,
    generate_s: f64,
    seed: u64,
    seconds: u64,
    spans_path: &Path,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::new();
    let mut tracer = Tracer::new(true);
    out.metric("traces.generate_s", generate_s, "s");

    // Tracing overhead: untraced and traced instances, alternating.
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut off = Tracer::new(false);
    let (mut plain, mut with) = (Vec::new(), Vec::new());
    while plain.len() < 2 || Instant::now() < deadline {
        plain.push(ctx.instance(&mut off)?);
        with.push(ctx.instance(&mut tracer)?);
    }
    out.attempted = (plain.len() + with.len()) as u64;
    out.check(
        "instances repeat their output",
        checks::deterministic(&plain),
    );
    for run in plain.iter().chain(&with) {
        if let Instance::Serve(s) = run {
            out.check("served trace checks", checks::served(s));
        }
    }
    let overhead = workloads::jobs_per_s(&plain) / workloads::jobs_per_s(&with) - 1.0;

    sim_layer(&mut out, &mut tracer, ctx)?;

    let served_inputs;
    let served = if ctx.workload == Workload::ServeTrace {
        &ctx.inputs
    } else {
        served_inputs = workloads::setup(Workload::ServeTrace, seed, &ctx.dir)?;
        &served_inputs
    };
    serve_layers(&mut out, &mut tracer, served, &ctx.dir)?;

    let table2_inputs;
    let table2_traces = if ctx.workload == Workload::Table2 {
        &ctx.inputs.traces
    } else {
        table2_inputs = workloads::table2_traces(seed);
        &table2_inputs
    };
    pool_layer(&mut out, &mut tracer, ctx, table2_traces);

    crate::floors(&mut out, &ctx.dir, true)?;
    out.metric("trace.overhead_frac", overhead, "1");
    tracer.write_jsonl(spans_path)?;
    out.note(
        format!("spans written to {}", spans_path.display()),
        tracer.spans().len() as f64,
        "count",
    );
    Ok(out)
}

/// `last2` planning walltimes when the workload serves with a predictor.
fn walltimes_for(w: Workload, trace: &Trace) -> Option<Vec<i64>> {
    (w == Workload::ServeTrace).then(|| last2_walltimes(trace, serve::LAST2_MARGIN))
}

/// The batch replay a session replay must reproduce.
fn batch_metrics(trace: &Trace, cfg: &SimConfig, walltimes: Option<&[i64]>) -> SimMetrics {
    match walltimes {
        Some(w) => simulate_with_walltimes(trace, cfg, w).metrics,
        None => simulate(trace, cfg).metrics,
    }
}

/// The sim and predictor layers, on the workload's first trace (for
/// `table2`, the Blue Waters trace of the critical cell).
fn sim_layer(out: &mut Outcome, tracer: &mut Tracer, ctx: &Ctx) -> std::io::Result<()> {
    let trace = &ctx.inputs.traces[0];
    let cfg = ctx.workload.sim_config();
    let walltimes = walltimes_for(ctx.workload, trace);
    let parent = tracer.open("sim.session_replay", 0, None);
    let replay = sim::session_replay(trace, &cfg, walltimes.as_deref(), tracer, parent);
    tracer.close(parent);

    let advance_ns = tracer.durations_ns("sim.advance");
    let advance_busy = tracer.busy_ns("sim.advance") as f64;
    out.metric(
        "sim.submit.calls",
        tracer.count("sim.submit") as f64,
        "count",
    );
    out.metric(
        "sim.submit.busy_s",
        tracer.busy_ns("sim.submit") as f64 / 1e9,
        "s",
    );
    out.metric("sim.advance.calls", advance_ns.len() as f64, "count");
    out.metric("sim.advance.busy_s", advance_busy / 1e9, "s");
    let pct = |p| stats::percentile(&advance_ns, p).unwrap_or(0.0) / 1e3;
    out.metric("sim.advance.p50_us", pct(50.0), "us");
    out.metric("sim.advance.p99_us", pct(99.0), "us");
    if let Some((p, v)) = stats::supported_tail(&advance_ns) {
        out.note(format!("sim.advance.p{p}_us"), v / 1e3, "us");
    }
    out.metric(
        "sim.events",
        replay.session.events_processed() as f64,
        "count",
    );
    let waiting_sum: usize = replay.waiting.iter().sum();
    let queue_max = replay.waiting.iter().copied().max().unwrap_or(0);
    out.metric("sim.queue.max", queue_max as f64, "count");
    out.metric(
        "sim.queue.mean",
        waiting_sum as f64 / replay.waiting.len().max(1) as f64,
        "count",
    );
    out.metric(
        "sim.advance.ns_per_waiting_job",
        advance_busy / waiting_sum.max(1) as f64,
        "ns",
    );

    out.metric("predict.last2.calls", trace.len() as f64, "count");
    out.metric(
        "predict.last2.ns_per_call",
        layers::predict_ns_per_call(trace.jobs()),
        "ns",
    );

    let want = batch_metrics(trace, &cfg, walltimes.as_deref());
    let got = replay.session.into_result().metrics;
    out.check(
        "traced SimSession replay equals simulate()",
        replay.refused == 0 && sim::same_metrics(&got, &want),
    );
    Ok(())
}

/// The wire, journal and recovery layers, on the `serve-trace` input.
fn serve_layers(
    out: &mut Outcome,
    tracer: &mut Tracer,
    served: &Inputs,
    dir: &Path,
) -> std::io::Result<()> {
    let trace = &served.traces[0];
    let cmds = served
        .cmds
        .as_ref()
        .expect("serve-trace inputs carry a stream");
    let cfg = Workload::ServeTrace.sim_config();

    // What a server holds at the end of the stream: the session, its live
    // metrics and predictor, and so the rotation snapshot it writes.
    let walltimes = walltimes_for(Workload::ServeTrace, trace);
    let mut replay = sim::session_replay(
        trace,
        &cfg,
        walltimes.as_deref(),
        &mut Tracer::new(false),
        None,
    );
    let mut live = LiveMetrics::new(cfg.bsld_bound);
    let events = replay.session.drain_events();
    live.absorb(&events, &replay.session);
    let predictor_config = PredictorConfig::Last2 {
        margin: serve::LAST2_MARGIN,
    };
    let mut predictor = Predictor::new(predictor_config);
    for j in trace.jobs() {
        predictor.observe(j.user, j.runtime);
    }
    let snapshot = snapshot_json(&trace.system, &replay.session, &live, Some(&predictor));
    let stats_reply = live.report(&replay.session, 0, Some(predictor.name()), None);

    out.metric("serve.protocol.parse_ns", layers::parse_ns(cmds), "ns");
    let replies = layers::replies(cmds, &replay.states, &stats_reply);
    out.metric(
        "serve.protocol.serialize_ns",
        layers::serialize_ns(&replies),
        "ns",
    );
    out.metric(
        "serve.journal.encode_ns",
        layers::encode_ns(&cmds.records),
        "ns",
    );

    let header = JournalRecord::Config {
        system: trace.system.clone(),
        sim: cfg,
        predictor: Some(predictor_config),
        tenants: None,
    };
    let probe_dir = dir.join("journal-probe");
    let parent = tracer.open("serve.journal.probe", 0, None);
    let (batch_us, rotate_ms) = layers::journal_probe(
        &cmds.records,
        &probe_dir,
        &snapshot,
        &header,
        tracer,
        parent,
    )?;
    tracer.close(parent);
    std::fs::remove_dir_all(&probe_dir)?;
    out.metric("serve.journal.append_batch_us", batch_us, "us");
    out.metric("serve.journal.rotate_ms", rotate_ms, "ms");

    let pass_dir = dir.join("journal-pass");
    let bound = serve::bind(trace, cfg, &pass_dir)?;
    let bye = serve::expected_bye(trace, &cfg);
    let parent = tracer.open("serve.pass", 0, None);
    let pass = serve::run(bound, cmds, &bye, tracer, parent)?;
    tracer.close(parent);
    out.check("served pass checks", checks::served(&pass));
    let (frames, decode_ns) = layers::decode_probe(&pass_dir)?;
    std::fs::remove_dir_all(&pass_dir)?;
    out.metric("serve.journal.rotations", pass.rotations as f64, "count");
    out.metric(
        "serve.journal.snapshot_bytes",
        pass.snapshot_bytes as f64,
        "bytes",
    );
    out.metric(
        "serve.journal.segment_bytes",
        pass.segment_bytes as f64,
        "bytes",
    );
    out.metric(
        "serve.recovery.records",
        pass.recovered_records as f64,
        "count",
    );
    out.metric("serve.recovery.decode_ns", decode_ns, "ns");
    out.note("serve.recovery.frames_decoded", frames as f64, "count");
    let ack_median = stats::median(&pass.all_ack_ms).unwrap_or(0.0);
    let stalls = pass
        .all_ack_ms
        .iter()
        .filter(|&&ms| ms > STALL_FACTOR * ack_median)
        .count();
    out.metric("serve.ack.stalls", stalls as f64, "count");
    Ok(())
}

/// The pool: the Table II grid on one thread and on every thread.
fn pool_layer(out: &mut Outcome, tracer: &mut Tracer, ctx: &Ctx, traces: &[Trace]) {
    let seq = workloads::table2_run(&workloads::pool(1), traces, &mut Tracer::new(false));
    let par = workloads::table2_run(&ctx.pool, traces, tracer);
    out.check(
        "Table II identical at 1 and N threads",
        seq.rows_json == par.rows_json,
    );
    let (seq_s, par_s) = (seq.fanned.seconds, par.fanned.seconds);
    out.metric("rayon.table2.seq_s", seq_s, "s");
    out.metric("rayon.table2.par_s", par_s, "s");
    out.metric("rayon.table2.speedup", seq_s / par_s, "x");
    let critical = par.fanned.task_s.iter().copied().fold(0.0, f64::max);
    out.metric("rayon.table2.critical_cell_s", critical, "s");
    out.note(
        "rayon.threads",
        ctx.pool.current_num_threads() as f64,
        "count",
    );
}
