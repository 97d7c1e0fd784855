//! The load generator: a closed phase of blocking clients, then an open
//! phase that sends on a fixed schedule.
//!
//! At most [`CONNECTIONS`] connections and threads are used at once: the
//! closed phase runs one blocking public `Client` on each of two threads;
//! the open phase uses one connection, with one thread pacing the sends
//! and one reading the responses. Requests use the text encoding. Every
//! socket has a read/write timeout, so a stalled server fails requests
//! instead of hanging the benchmark. The open-phase socket sets
//! `TCP_NODELAY` (as `drmap-loadgen` does): it carries the requests of
//! many independent users, and Nagle's algorithm would hold one user's
//! request back until another's was acknowledged.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use drmap_service::client::{Client, ClientConfig};
use drmap_service::error::ServiceError;
use drmap_service::proto::{Request, Response};
use drmap_service::spec::{JobResult, JobSpec};
use drmap_service::wire::{self, Encoding};

use crate::verify::Answer;
use crate::workload::Stream;

/// Connections (and load threads) the generator uses: the box's cores.
pub const CONNECTIONS: usize = 2;
/// How long requests still in flight when a phase's schedule ends may
/// take before they count as unanswered.
const GRACE: Duration = Duration::from_secs(5);

/// What one phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every answered request with its result (checked later).
    pub answers: Vec<Answer>,
    /// Per-request latency of the answered requests, in ms.
    pub latencies_ms: Vec<f64>,
    /// Requests the phase attempted.
    pub attempted: u64,
    /// Transport errors, typed error responses and unanswered requests.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
    /// Seconds from the phase start to its last answer.
    pub elapsed_s: f64,
    /// Open phase: how late each send was against its due time, in ms.
    pub lateness_ms: Vec<f64>,
    /// Open phase: requests due before the schedule ended that were not
    /// yet answered when it ended.
    pub backlog_end: u64,
}

impl Phase {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }

    /// Fold `other` into this phase.
    pub fn merge(&mut self, other: Phase) {
        self.answers.extend(other.answers);
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.lateness_ms.extend(other.lateness_ms);
        self.backlog_end += other.backlog_end;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A public-API client with timeouts bounding a stalled server.
pub fn connect(addr: &str) -> Result<Client, ServiceError> {
    Client::connect_with(
        addr,
        ClientConfig {
            connect_timeout: Some(GRACE),
            read_timeout: Some(GRACE),
            write_timeout: Some(GRACE),
        },
    )
}

/// Closed loop: [`CONNECTIONS`] blocking clients, each sending its next
/// request only after the previous answer, for `duration`.
pub fn closed(addr: &str, stream: &Mutex<Stream>, duration: Duration) -> Phase {
    let start = Instant::now();
    let deadline = start + duration;
    let client = || closed_client(addr, stream, start, deadline);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..CONNECTIONS).map(|_| scope.spawn(client)).collect();
        phase.merge(client());
        for other in others {
            phase.merge(other.join().expect("closed-loop client panicked"));
        }
    });
    phase
}

fn closed_client(addr: &str, stream: &Mutex<Stream>, start: Instant, deadline: Instant) -> Phase {
    let mut phase = Phase::default();
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(e) => {
            phase.attempted = 1;
            phase.fail(format!("connect: {e}"));
            return phase;
        }
    };
    while Instant::now() < deadline {
        let spec = stream.lock().expect("stream lock poisoned").next_spec();
        phase.attempted += 1;
        let sent = Instant::now();
        let response = client.typed_request(&Request::Submit(spec.clone()));
        let done = Instant::now();
        match response {
            Ok(Response::Job { result }) => {
                phase.latencies_ms.push(ms(done - sent));
                phase.elapsed_s = (done - start).as_secs_f64();
                phase.answers.push((spec, result));
            }
            Ok(other) => phase.fail(format!("job {}: unexpected {other:?}", spec.id)),
            Err(e) => {
                let transport = matches!(e, ServiceError::Io(_) | ServiceError::Timeout(_));
                phase.fail(format!("job {}: {e}", spec.id));
                if transport && client.reconnect().is_err() {
                    break;
                }
            }
        }
    }
    phase
}

/// Open loop: `specs` sent on one connection at `rate` per second, each
/// due at a fixed time from the phase start whatever the server does.
/// Latency is timed from the due time, so a stall also delays every
/// request queued behind it. The generator has no in-flight cap.
pub fn open(addr: &str, specs: &[JobSpec], rate: f64) -> Phase {
    let mut phase = Phase {
        attempted: specs.len() as u64,
        ..Phase::default()
    };
    let sockets = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_millis(50)))?;
        s.set_write_timeout(Some(GRACE))?;
        Ok((s.try_clone()?, s.try_clone()?, s))
    });
    let (mut writer, closer, mut reader) = match sockets {
        Ok(sockets) => sockets,
        Err(e) => {
            phase.failed = phase.attempted;
            phase.first_error = Some(format!("connect: {e}"));
            return phase;
        }
    };
    let frames: Vec<Vec<u8>> = specs
        .iter()
        .map(|spec| {
            let mut frame = Vec::new();
            wire::write_request(&mut frame, &Request::Submit(spec.clone()), Encoding::Text)
                .expect("encoding into memory cannot fail");
            frame
        })
        .collect();
    let slot: HashMap<u64, usize> = specs.iter().enumerate().map(|(k, s)| (s.id, k)).collect();
    // Start a little in the future so the first sends are not late.
    let start = Instant::now() + Duration::from_millis(10);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let end = due(specs.len());
    let mut done: Vec<Option<(Instant, Result<JobResult, String>)>> = vec![None; specs.len()];

    let (lateness, send_error) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut lateness = Vec::with_capacity(frames.len());
            for (k, frame) in frames.iter().enumerate() {
                let at = due(k);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let sent = Instant::now();
                if let Err(e) = writer.write_all(frame) {
                    return (lateness, Some(format!("send: {e}")));
                }
                lateness.push(ms(sent - at));
            }
            (lateness, None)
        });
        let mut answered = 0;
        let mut pending = Vec::new();
        let mut chunk = vec![0u8; 1 << 16];
        while answered < specs.len() && Instant::now() < end + GRACE {
            let read = match reader.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(_) => break,
            };
            let at = Instant::now();
            let scanned = pending.len();
            pending.extend_from_slice(&chunk[..read]);
            let Some(last) = pending[scanned..].iter().rposition(|&b| b == b'\n') else {
                continue;
            };
            let complete: Vec<u8> = pending.drain(..=scanned + last).collect();
            for line in complete.split_inclusive(|&b| b == b'\n') {
                let Some((id, result)) = decode(line) else {
                    continue;
                };
                if let Some(entry) = slot.get(&id).and_then(|&k| done.get_mut(k)) {
                    if entry.is_none() {
                        *entry = Some((at, result));
                        answered += 1;
                    }
                }
            }
        }
        // Unblock a sender stuck behind a server that stopped reading.
        let _ = closer.shutdown(Shutdown::Both);
        sender.join().expect("open-loop sender panicked")
    });

    phase.lateness_ms = lateness;
    if let Some(e) = send_error {
        phase.first_error = Some(e);
    }
    for (k, (spec, outcome)) in specs.iter().zip(done).enumerate() {
        let answered_by_end = matches!(&outcome, Some((at, _)) if *at <= end);
        if !answered_by_end {
            phase.backlog_end += 1;
        }
        match outcome {
            Some((at, Ok(result))) => {
                phase.latencies_ms.push(ms(at - due(k)));
                phase.elapsed_s = phase.elapsed_s.max((at - start).as_secs_f64());
                phase.answers.push((spec.clone(), result));
            }
            Some((_, Err(e))) => phase.fail(format!("job {}: {e}", spec.id)),
            None => phase.fail(format!("job {}: unanswered", spec.id)),
        }
    }
    phase
}

/// Decode one response line into its job id and result (or the typed
/// error the server answered with). `None` for a blank line or one that
/// is not a job response.
fn decode(mut line: &[u8]) -> Option<(u64, Result<JobResult, String>)> {
    match wire::read_response(&mut line) {
        Ok(Some((Response::Job { result }, _))) => Some((result.id, Ok(result))),
        Ok(Some((
            Response::Error {
                id: Some(id),
                message,
            },
            _,
        ))) => Some((id, Err(message))),
        Ok(Some((
            Response::Overloaded { id: Some(id), .. }
            | Response::DeadlineExceeded { id: Some(id), .. },
            _,
        ))) => Some((id, Err("shed or past its deadline".to_owned()))),
        _ => None,
    }
}
