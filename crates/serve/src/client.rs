//! Client helpers for the daemon's line-JSON protocol — the library behind
//! `sga watch`, and what the integration tests and the CI gate script use.
//!
//! Addresses: a string containing a `/` is a Unix socket path; anything
//! else is a TCP `host:port`.
//!
//! Two hardening concerns live here, mirroring the server's:
//!
//! * **Timeouts.** Every helper takes an optional deadline applied to the
//!   connect and to each read/write, so a wedged daemon (stalled engine,
//!   dead acceptor) turns into an error instead of a hang — `sga watch
//!   --report` on a zombie exits nonzero rather than blocking forever.
//! * **Shed retry.** The daemon sheds edits under load with
//!   `{"ok":false,"shed":true}`; [`edit_with_retry`] owns the bounded
//!   exponential backoff so a shed edit is re-sent, never silently
//!   dropped — and a persistent overload surfaces as the final shed reply
//!   after the attempts run out.

use sga_utils::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// One client connection, TCP or Unix.
pub enum Conn {
    /// TCP `host:port`.
    Tcp(TcpStream),
    /// Unix domain socket.
    Unix(UnixStream),
}

impl Conn {
    /// Connects to `addr` (`host:port`, or a socket path if it contains
    /// `/`) under a deadline covering the connect itself and, once
    /// connected, each read and write on the stream (`None`: no deadline).
    pub fn connect_timeout(addr: &str, timeout: Option<Duration>) -> std::io::Result<Conn> {
        let conn = if addr.contains('/') {
            // Unix connects don't take a timeout (they complete or fail
            // locally); the read/write deadlines below still apply.
            Conn::Unix(UnixStream::connect(addr)?)
        } else {
            match timeout {
                Some(t) => {
                    // connect_timeout needs resolved addresses; try each.
                    let addrs = std::net::ToSocketAddrs::to_socket_addrs(addr)?;
                    let mut last = None;
                    let mut stream = None;
                    for a in addrs {
                        match TcpStream::connect_timeout(&a, t) {
                            Ok(s) => {
                                stream = Some(s);
                                break;
                            }
                            Err(e) => last = Some(e),
                        }
                    }
                    Conn::Tcp(stream.ok_or_else(|| {
                        last.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to nothing",
                            )
                        })
                    })?)
                }
                None => Conn::Tcp(TcpStream::connect(addr)?),
            }
        };
        if let Conn::Tcp(stream) = &conn {
            // One small write per request, then a wait for the reply: the
            // pattern Nagle's algorithm delays. Best effort.
            let _ = stream.set_nodelay(true);
        }
        conn.set_deadline(timeout)?;
        Ok(conn)
    }

    /// Applies (or clears) a per-read/per-write deadline.
    pub fn set_deadline(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            Conn::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }

    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Sends one request line and returns the one-line reply. Connect, write
/// and read each must finish within `timeout` or the call errors
/// (`WouldBlock`/`TimedOut`).
pub fn request_t(addr: &str, line: &str, timeout: Option<Duration>) -> std::io::Result<String> {
    let mut conn = Conn::connect_timeout(addr, timeout)?;
    let read = conn.try_clone()?;
    conn.write_all(format!("{}\n", line.trim_end()).as_bytes())?;
    conn.flush()?;
    let mut reply = String::new();
    BufReader::new(read).read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

/// Replaces `unit`'s source on the daemon. Returns the ack line.
pub fn edit_t(
    addr: &str,
    unit: &str,
    source: &str,
    timeout: Option<Duration>,
) -> std::io::Result<String> {
    let req = Json::obj()
        .with("cmd", "edit")
        .with("unit", unit)
        .with("source", source);
    request_t(addr, &req.to_compact(), timeout)
}

/// Whether a reply line is the daemon's load-shed refusal.
pub fn is_shed(reply: &str) -> bool {
    Json::parse(reply)
        .ok()
        .and_then(|j| j.get("shed").and_then(Json::as_bool))
        .unwrap_or(false)
}

/// [`edit_t`] with bounded retry on shed: a `{"ok":false,"shed":true}`
/// reply is retried up to `retries` times with exponential backoff
/// (10ms, 20ms, … capped at 500ms), so a flooded daemon loses no edit —
/// the shed is explicit and the client re-sends. Returns the final reply
/// and the number of shed refusals absorbed; a still-shed final reply
/// means the overload outlasted the retry budget, and the caller decides.
pub fn edit_with_retry(
    addr: &str,
    unit: &str,
    source: &str,
    timeout: Option<Duration>,
    retries: u32,
) -> std::io::Result<(String, u32)> {
    let mut sheds = 0u32;
    loop {
        let reply = edit_t(addr, unit, source, timeout)?;
        if !is_shed(&reply) || sheds >= retries {
            return Ok((reply, sheds));
        }
        let backoff = 10u64.saturating_mul(1 << sheds.min(10)).min(500);
        std::thread::sleep(Duration::from_millis(backoff));
        sheds += 1;
    }
}

/// Fetches the accumulated whole-project report (compact JSON).
pub fn report_t(addr: &str, timeout: Option<Duration>) -> std::io::Result<String> {
    request_t(
        addr,
        &Json::obj().with("cmd", "report").to_compact(),
        timeout,
    )
}

/// Fetches the one-line status.
pub fn status_t(addr: &str, timeout: Option<Duration>) -> std::io::Result<String> {
    request_t(
        addr,
        &Json::obj().with("cmd", "status").to_compact(),
        timeout,
    )
}

/// Asks the daemon to stop.
pub fn shutdown_t(addr: &str, timeout: Option<Duration>) -> std::io::Result<String> {
    request_t(
        addr,
        &Json::obj().with("cmd", "shutdown").to_compact(),
        timeout,
    )
}

/// Subscribes to diff events, invoking `on_event` with each event line
/// until the daemon closes the stream or `max_events` lines arrived.
/// `on_ready` receives the subscription ack (`{"ok":true,"subscribed":true}`)
/// before any event can arrive. The daemon sends the ack under its
/// broadcast lock *before* registering the subscriber, so once a caller has
/// seen it, no subsequent edit round's event can be missed — the
/// synchronization point the CI serve gate waits on instead of sleeping.
///
/// `timeout` bounds the connect and the ack only — a daemon that cannot
/// even acknowledge within it is wedged and the call errors. Once
/// subscribed the deadline is lifted: an event stream is legitimately quiet
/// for as long as nobody edits.
pub fn watch_ready_t(
    addr: &str,
    max_events: Option<usize>,
    timeout: Option<Duration>,
    mut on_ready: impl FnMut(&str),
    mut on_event: impl FnMut(&str),
) -> std::io::Result<()> {
    let mut conn = Conn::connect_timeout(addr, timeout)?;
    let read = conn.try_clone()?;
    conn.write_all(format!("{}\n", Json::obj().with("cmd", "subscribe").to_compact()).as_bytes())?;
    conn.flush()?;
    let mut lines = BufReader::new(read).lines();
    // First line is the subscription ack, not an event.
    match lines.next() {
        Some(Ok(ack)) => on_ready(ack.trim_end()),
        Some(Err(e)) => return Err(e),
        None => return Ok(()),
    }
    // Subscribed: waiting is now the normal state, stop bounding reads.
    conn.set_deadline(None)?;
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        on_event(&line);
        seen += 1;
        if max_events.is_some_and(|m| seen >= m) {
            break;
        }
    }
    Ok(())
}
