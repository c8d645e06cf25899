//! The server loop: line-delimited JSON over any `BufRead`/`Write` pair —
//! stdin/stdout for `flh serve`, a Unix socket with `--socket`, in-memory
//! buffers in tests.
//!
//! [`serve_lines`] runs one gated [`JobSession`]: accepted jobs execute
//! only while a `wait` or `shutdown` barrier is pumping, on one executor
//! thread, in submission order. Combined with sorted-key
//! rendering this makes the full transcript a deterministic function of
//! the request script — `scripts/ci.sh` byte-diffs transcripts at
//! `FLH_THREADS=1` and `4`. End of input acts as an implicit `shutdown`,
//! so piping a script without a trailing shutdown still drains cleanly.

use std::io::{BufRead, Write};
use std::sync::Arc;

use crate::engine::JobEngine;
use crate::proto::{
    parse_request, render_accepted, render_bye, render_cancel_ack, render_error, render_event,
    render_idle, render_rejected, render_stats, render_status, Request, StatsFull,
};
use crate::session::{JobSession, SessionSummary};

/// Server tuning.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Bounded job-queue capacity (submissions beyond it are `rejected`).
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { queue_capacity: 64 }
    }
}

fn emit(output: &mut dyn Write, line: &str) -> std::io::Result<()> {
    output.write_all(line.as_bytes())?;
    output.write_all(b"\n")?;
    // Interactive clients see each response as soon as it exists.
    output.flush()
}

/// Runs one protocol session: reads request lines from `input` until a
/// `shutdown` request or end of input, writing one JSON response line per
/// protocol step to `output`. Returns the session summary.
///
/// # Errors
///
/// Only I/O errors on the transport; protocol-level problems are reported
/// in-band as `{"error":...}` lines.
pub fn serve_lines(
    input: impl BufRead,
    output: &mut dyn Write,
    engine: Arc<JobEngine>,
    config: ServeConfig,
) -> std::io::Result<SessionSummary> {
    let mut session = JobSession::new(engine, config.queue_capacity);

    for line in input.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match parse_request(trimmed) {
            Err(reason) => emit(output, &render_error(&reason))?,
            Ok(Request::Submit(spec)) => match session.submit(spec) {
                Ok(job) => emit(output, &render_accepted(job))?,
                Err(err) => emit(output, &render_rejected(&err.to_string()))?,
            },
            Ok(Request::Status) => emit(output, &render_status(&session.stats()))?,
            Ok(Request::Stats { full }) => {
                // Publish the ledger gauges first so the metrics document
                // answered here carries the levels as of this protocol
                // step — deterministically for a scripted session.
                session.publish_gauges();
                let metrics =
                    flh_obs::enabled().then(|| flh_obs::deterministic_json(&flh_obs::snapshot()));
                let full = full.then(|| StatsFull {
                    nondet: flh_obs::nondeterministic_json(&flh_obs::snapshot()),
                    latency: session.latency(),
                });
                let line = render_stats(
                    &session.stats(),
                    session.engine().cache_stats(),
                    metrics,
                    full,
                );
                emit(output, &line)?;
            }
            Ok(Request::Cancel(job)) => {
                let known = session.cancel(job);
                emit(output, &render_cancel_ack(job, known))?;
            }
            Ok(Request::Wait) => {
                let mut io_err = None;
                let retired = session.wait(&mut |event| {
                    if io_err.is_none() {
                        io_err = emit(output, &render_event(&event)).err();
                    }
                });
                if let Some(err) = io_err {
                    return Err(err);
                }
                emit(output, &render_idle(retired))?;
            }
            Ok(Request::Shutdown) => {
                let summary = finish(session, output)?;
                return Ok(summary);
            }
        }
    }
    // End of input: implicit shutdown.
    finish(session, output)
}

fn finish(session: JobSession, output: &mut dyn Write) -> std::io::Result<SessionSummary> {
    let mut io_err = None;
    let summary = session.shutdown(&mut |event| {
        if io_err.is_none() {
            io_err = emit(output, &render_event(&event)).err();
        }
    });
    if let Some(err) = io_err {
        return Err(err);
    }
    emit(output, &render_bye(&summary))?;
    Ok(summary)
}

/// Binds a Unix socket at `path` and serves each client on its own
/// thread over a shared engine — the compiled-circuit cache persists
/// across connections, and a monitoring client (`flh top`) can poll
/// `stats` while another connection streams a campaign. Removes a stale
/// socket file first; runs until the process is killed.
///
/// Each connection gets its own [`JobSession`] (own job ids, own
/// ledger), so a single connection's transcript is still a pure function
/// of its script; only the *global* metrics observed by `stats` reflect
/// whatever every connection has run so far — that is the point of a
/// live dashboard.
///
/// # Errors
///
/// Bind/accept failures; per-connection I/O errors end that connection
/// only.
#[cfg(unix)]
pub fn serve_unix_socket(
    path: &std::path::Path,
    engine: Arc<JobEngine>,
    config: ServeConfig,
) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    loop {
        let (stream, _) = listener.accept()?;
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let Ok(cloned) = stream.try_clone() else {
                return;
            };
            let reader = std::io::BufReader::new(cloned);
            let mut writer = stream;
            let _ = serve_lines(reader, &mut writer, engine, config);
        });
    }
}
