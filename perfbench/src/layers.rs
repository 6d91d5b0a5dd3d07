//! Per-layer probes for the traced run: each times calls into one layer's
//! public functions over the workload's own input, plus the two floors
//! the end-to-end figures are read against.

use std::fs::OpenOptions;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use lumos_predict::online::{Last2Online, OnlinePredictor};
use lumos_serve::journal::{decode_line, encode_record_into, FsyncPolicy, Journal};
use lumos_serve::{JournalConfig, JournalRecord, Request, Response, ServeStats};
use lumos_sim::JobState;

use crate::inputs::{CommandStream, Kind};
use crate::spans::Tracer;
use crate::stats::median;

/// Records per group-commit batch, as the server journals them.
pub const BATCH: usize = 64;
/// Batches appended by the journal probe at most.
const MAX_BATCHES: usize = 1000;

/// Median nanoseconds per item of `reps` timed passes of `pass`, which
/// handles `items` items each.
fn ns_per_item(reps: usize, items: usize, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&samples).expect("at least one pass")
}

/// Fixed-work CPU loop (median of five passes), in milliseconds: the
/// floor CPU-bound figures are read against, and the figure that tells
/// two hosts apart.
pub fn cpu_calib_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
            for _ in 0..20_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).expect("five passes")
}

/// Median microseconds of one small append plus `fdatasync` in `dir`: the
/// device floor under every fsync-`always` acknowledgment.
pub fn fdatasync_us(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fdatasync-probe");
    let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
    let record = [b'x'; 128];
    let mut samples = Vec::with_capacity(64);
    for _ in 0..64 {
        let t = Instant::now();
        file.write_all(&record)?;
        file.sync_data()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(median(&samples).expect("64 samples"))
}

/// `last2` predictions and observations over the trace's jobs in arrival
/// order, one predict plus one observe per call, as the server makes them.
pub fn predict_ns_per_call(jobs: &[lumos_core::Job]) -> f64 {
    ns_per_item(3, jobs.len(), || {
        let mut model = Last2Online::new(crate::serve::LAST2_MARGIN);
        for j in jobs {
            black_box(model.predict(j.user, j.walltime));
            model.observe(j.user, j.runtime);
        }
        black_box(model.observed());
    })
}

/// Nanoseconds to parse one of the stream's request lines.
pub fn parse_ns(cmds: &CommandStream) -> f64 {
    ns_per_item(3, cmds.len(), || {
        for line in &cmds.lines {
            black_box(Request::parse(black_box(line)).expect("the stream parses"));
        }
    })
}

/// The replies a server gives the stream: `Submitted` with the state each
/// job had right after submission, `Advanced`, `Job` and `Stats`.
pub fn replies(cmds: &CommandStream, states: &[JobState], stats: &ServeStats) -> Vec<Response> {
    let mut submitted = states.iter();
    let mut last_state = JobState::Waiting;
    cmds.lines
        .iter()
        .zip(&cmds.kinds)
        .map(|(line, kind)| match (kind, Request::parse(line)) {
            (Kind::Submit, Ok(Request::Submit { job })) => {
                last_state = *submitted.next().unwrap_or(&JobState::Waiting);
                Response::Submitted {
                    id: job.id,
                    state: last_state,
                }
            }
            (Kind::Advance, Ok(Request::Advance { to })) => Response::Advanced { now: to },
            (Kind::Query, Ok(Request::Query { id })) => Response::Job {
                id,
                state: last_state,
                wait: None,
            },
            _ => Response::Stats {
                stats: stats.clone(),
            },
        })
        .collect()
}

/// Nanoseconds to serialize one reply line.
pub fn serialize_ns(replies: &[Response]) -> f64 {
    let mut out = String::with_capacity(4096);
    ns_per_item(3, replies.len(), || {
        for r in replies {
            out.clear();
            r.to_line_into(&mut out);
            black_box(out.as_str());
        }
    })
}

/// Nanoseconds to frame one journal record.
pub fn encode_ns(records: &[JournalRecord]) -> f64 {
    let mut out = String::with_capacity(1024);
    ns_per_item(3, records.len(), || {
        for r in records {
            out.clear();
            encode_record_into(r, &mut out);
            black_box(out.as_str());
        }
    })
}

/// Journal appends in [`BATCH`]-record group commits under fsync
/// `always`, then one rotation carrying `snapshot_json`. Records
/// `serve.journal.append_batch` and `serve.journal.rotate` spans and
/// returns (median µs per batch, rotation ms).
pub fn journal_probe(
    records: &[JournalRecord],
    dir: &Path,
    snapshot_json: &str,
    header: &JournalRecord,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> std::io::Result<(f64, f64)> {
    let mut config = JournalConfig::new(dir.to_path_buf());
    config.fsync = FsyncPolicy::Always;
    config.snapshot_every = 0;
    let mut journal = Journal::open_segment(config, 1, 0)?;
    let mut batch_us = Vec::new();
    for (i, batch) in records.chunks(BATCH).take(MAX_BATCHES).enumerate() {
        let t = Instant::now();
        journal.append_batch(batch)?;
        let end = Instant::now();
        tracer.record("serve.journal.append_batch", i as u64, parent, t, end);
        batch_us.push((end - t).as_secs_f64() * 1e6);
    }
    let t = Instant::now();
    journal.rotate(snapshot_json, header)?;
    let end = Instant::now();
    tracer.record("serve.journal.rotate", 0, parent, t, end);
    Ok((
        median(&batch_us).unwrap_or(0.0),
        (end - t).as_secs_f64() * 1e3,
    ))
}

/// Decodes every frame of every journal segment in `dir`, as recovery
/// does; returns (frames, median ns per frame).
pub fn decode_probe(dir: &Path) -> std::io::Result<(usize, f64)> {
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let is_segment = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("journal-"));
        if is_segment {
            let bytes = std::fs::read(&path)?;
            frames.extend(
                bytes
                    .split(|&b| b == b'\n')
                    .filter(|l| !l.is_empty())
                    .map(<[u8]>::to_vec),
            );
        }
    }
    let ns = ns_per_item(3, frames.len(), || {
        for f in &frames {
            black_box(decode_line(f).expect("the server's own frames decode"));
        }
    });
    Ok((frames.len(), ns))
}
