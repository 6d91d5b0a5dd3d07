//! One served trace: a journaling `Server` on loopback, fed a
//! [`CommandStream`] over one connection by a closed-loop client with a
//! fixed pipelined window, then shut down and recovered from its journal.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use lumos_core::Trace;
use lumos_predict::walltime::last2_walltimes;
use lumos_serve::{recover, JournalConfig, PredictorConfig, Response, ServeConfig, Server};
use lumos_sim::{simulate_with_walltimes, SimConfig, TenantTable};

use crate::inputs::{CommandStream, Kind, TENANTS};
use crate::spans::Tracer;

/// Commands in flight before the client stops writing and reads half a
/// window of replies — well under the server's 1024-command queue, so no
/// command is refused for backpressure.
pub const WINDOW: usize = 256;
/// Longest wait for one reply before the run fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Safety margin of the `last2` predictor the server runs.
pub const LAST2_MARGIN: f64 = 1.5;

/// The production server configuration for `trace`'s machine: journal
/// with fsync `always`, group commit 64, rotation every 4096 records,
/// the `last2:1.5` predictor and the four-tenant table.
pub fn serve_config(trace: &Trace, sim: SimConfig, journal_dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::new(trace.system.clone());
    config.sim = sim;
    config.journal = Some(JournalConfig::new(journal_dir.to_path_buf()));
    config.predictor = Some(PredictorConfig::Last2 {
        margin: LAST2_MARGIN,
    });
    config.tenants = Some(TenantTable::parse(TENANTS).expect("the tenant table parses"));
    config
}

/// The `Bye` line a correct server ends the stream with: the metrics of
/// `simulate_with_walltimes` over the `last2` estimates.
pub fn expected_bye(trace: &Trace, sim: &SimConfig) -> String {
    let walltimes = last2_walltimes(trace, LAST2_MARGIN);
    let metrics = simulate_with_walltimes(trace, sim, &walltimes).metrics;
    Response::Bye {
        metrics: Some(metrics),
    }
    .to_line()
}

/// What one served trace measured and checked.
pub struct ServeRun {
    /// First write to last reply of the stream.
    pub seconds: f64,
    pub submit_ack_ms: Vec<f64>,
    pub read_ack_ms: Vec<f64>,
    /// Every ack, submit and read, in stream order.
    pub all_ack_ms: Vec<f64>,
    pub recover_s: f64,
    pub recovered_records: u64,
    pub snapshot_bytes: u64,
    pub segment_bytes: u64,
    pub rotations: usize,
    /// Replies that were not the expected variant for their command.
    pub wrong_replies: usize,
    /// `Bye` equals the batch reference and the recovered session's
    /// snapshot equals the server's final one.
    pub checks_ok: bool,
}

/// A server bound ahead of the measurement, with its journal directory.
pub struct Bound {
    server: Server,
    config: ServeConfig,
}

pub fn bind(trace: &Trace, sim: SimConfig, journal_dir: &Path) -> std::io::Result<Bound> {
    let config = serve_config(trace, sim, journal_dir);
    let server = Server::bind("127.0.0.1:0", config.clone())?;
    Ok(Bound { server, config })
}

/// Streams `cmds` through `bound`, then drains, snapshots, shuts down,
/// and recovers the journal. With the tracer on, each command becomes a
/// `serve.cmd` span (id = command index) from the flush that sent it to
/// its reply.
pub fn run(
    bound: Bound,
    cmds: &CommandStream,
    bye: &str,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> std::io::Result<ServeRun> {
    let Bound { server, config } = bound;
    let journal = config.journal.clone().expect("served traces journal");
    let addr = server.local_addr()?;
    let handle = std::thread::spawn(move || server.run(false));

    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A server that stops answering fails the run instead of hanging it.
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();

    let n = cmds.len();
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let mut in_flight: VecDeque<usize> = VecDeque::with_capacity(WINDOW);
    let mut submit_ack_ms = Vec::with_capacity(n);
    let mut read_ack_ms = Vec::new();
    let mut all_ack_ms = Vec::with_capacity(n);
    let mut wrong_replies = 0;
    let mut next = 0;
    let start = Instant::now();
    while next < n || !in_flight.is_empty() {
        let first = next;
        while next < n && in_flight.len() < WINDOW {
            writer.write_all(cmds.lines[next].as_bytes())?;
            writer.write_all(b"\n")?;
            in_flight.push_back(next);
            next += 1;
        }
        writer.flush()?;
        let flushed = Instant::now();
        for slot in &mut sent_at[first..next] {
            *slot = Some(flushed);
        }
        let to_read = if next < n {
            (WINDOW / 2).min(in_flight.len())
        } else {
            in_flight.len()
        };
        for _ in 0..to_read {
            line.clear();
            reader.read_line(&mut line)?;
            let replied = Instant::now();
            let i = in_flight
                .pop_front()
                .expect("a reply answers an in-flight command");
            let sent = sent_at[i].expect("in-flight commands were flushed");
            let ms = (replied - sent).as_secs_f64() * 1e3;
            tracer.record("serve.cmd", i as u64, parent, sent, replied);
            if !line.starts_with(cmds.expect[i].as_str()) {
                wrong_replies += 1;
            }
            match cmds.kinds[i] {
                Kind::Submit => submit_ack_ms.push(ms),
                Kind::Query | Kind::Stats => read_ack_ms.push(ms),
                Kind::Advance => {}
            }
            if cmds.kinds[i] != Kind::Advance {
                all_ack_ms.push(ms);
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();

    // Drain every job, read the final state, and shut down: the journal
    // then ends in exactly the state the snapshot reports.
    let mut ask = |request: &str| -> std::io::Result<String> {
        writeln!(writer, "{request}")?;
        writer.flush()?;
        let mut reply = String::new();
        reader.read_line(&mut reply)?;
        Ok(reply.trim_end().to_string())
    };
    let drained = ask(r#"{"Advance":{"to":1000000000000}}"#)?;
    let final_snapshot = ask(r#""Snapshot""#)?;
    let bye_line = ask(r#""Shutdown""#)?;
    handle
        .join()
        .map_err(|_| std::io::Error::other("server thread panicked"))??;

    let (mut snapshot_bytes, mut segment_bytes, mut rotations) = (0, 0, 0);
    for entry in std::fs::read_dir(&journal.dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata()?.len();
        if name.starts_with("snapshot-") {
            snapshot_bytes += len;
            rotations += 1;
        } else if name.starts_with("journal-") {
            segment_bytes += len;
        }
    }

    let t = Instant::now();
    let recovered = recover(&config, &journal)?;
    let recover_s = t.elapsed().as_secs_f64();
    let recovered_snapshot = Response::Snapshot {
        snapshot: recovered.session.snapshot(),
    }
    .to_line();

    let checks_ok = drained.starts_with(r#"{"Advanced":"#)
        && bye_line == bye
        && recovered_snapshot == final_snapshot
        && recovered.warnings.is_empty();
    Ok(ServeRun {
        seconds,
        submit_ack_ms,
        read_ack_ms,
        all_ack_ms,
        recover_s,
        recovered_records: recovered.replayed,
        snapshot_bytes,
        segment_bytes,
        rotations,
        wrong_replies,
        checks_ok,
    })
}
