//! What `ServerHandle::wait` promises, on every path that stops a daemon:
//! when it returns with no client connection open, both listeners are
//! closed *now* and no daemon thread is left.
//!
//! This file holds exactly ONE test, on purpose. The check reads the
//! process's thread count, and the test harness starts the threads of a
//! file's other tests whenever it likes — a second `#[test]` here would
//! make the count meaningless. Add scenarios to the one test instead.

use sga_pipeline::{FaultPlan, PipelineOptions};
use sga_serve::{client, serve, Engine, ServerConfig, ServerHandle};
use sga_utils::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CLEAN: &str = "int main() { return 3; }\n";
const EDITED: &str = "int main() { return 4; }\n";

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sga-serve-life-{name}-{}", std::process::id()))
}

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let row = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    row.and_then(|n| n.trim().parse().ok())
        .expect("Threads: row")
}

/// A daemon on an ephemeral TCP port *and* a Unix socket over a one-unit
/// corpus, with what the final assertion needs to know about it.
struct Daemon {
    dir: PathBuf,
    sock: PathBuf,
    tcp: SocketAddr,
    threads_before: usize,
    handle: ServerHandle,
}

impl Daemon {
    fn start(opts: &PipelineOptions, config: ServerConfig) -> Daemon {
        let (dir, sock) = (scratch("corpus"), scratch("sock"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        std::fs::write(dir.join("one.c"), CLEAN).expect("write unit");
        let engine = Engine::new(&dir, opts).expect("engine");
        let threads_before = threads();
        let config = ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            unix: Some(sock.clone()),
            ..config
        };
        let handle = serve(engine, &config).expect("serve");
        let tcp = handle.tcp_addr.expect("tcp addr");
        Daemon {
            dir,
            sock,
            tcp,
            threads_before,
            handle,
        }
    }

    /// `wait()`, then the one assertion every shutdown path must meet.
    fn wait_and_assert_stopped(self) {
        self.handle.wait();
        // The very first connect is refused: no retry, no sleep.
        let refused = TcpStream::connect(self.tcp).expect_err("the TCP listener must be closed");
        assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
        assert!(
            UnixStream::connect(&self.sock).is_err(),
            "the Unix listener must be closed"
        );
        assert!(!self.sock.exists(), "wait() must remove the socket file");
        assert_threads_settle_to(self.threads_before);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Every thread `wait()` answers for has been joined, but the kernel takes
/// an exited thread off the process's count a moment *after* it wakes the
/// joiner, and the handler of a connection the client has just closed
/// leaves on its own: the count gets until a deadline to come down. No
/// duration is asserted — a thread that outlives the handle never leaves.
fn assert_threads_settle_to(before: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let after = threads();
    assert!(
        after <= before,
        "daemon threads outlived wait(): {before} before serve(), {after} after"
    );
}

fn shutdown_by_a_client(addr_of: fn(&Daemon) -> String) {
    let daemon = Daemon::start(&PipelineOptions::default(), ServerConfig::default());
    let addr = addr_of(&daemon);
    client::status(&addr).expect("status");
    client::shutdown(&addr).expect("shutdown");
    daemon.wait_and_assert_stopped();
}

#[test]
fn every_shutdown_path_closes_the_listeners_and_joins_the_daemon() {
    // A client's `shutdown` over either listener; the other one never had a
    // client and is woken all the same.
    shutdown_by_a_client(|d| d.tcp.to_string());
    shutdown_by_a_client(|d| d.sock.display().to_string());

    // `ServerHandle::shutdown()`, on a daemon nobody ever connected to.
    let daemon = Daemon::start(&PipelineOptions::default(), ServerConfig::default());
    daemon.handle.shutdown();
    daemon.wait_and_assert_stopped();

    // An engine that gives up: the first round panics and the supervisor
    // cannot reopen the cache (a file sits where its directory was), so the
    // engine thread broadcasts `fatal` and exits by itself.
    let cache = scratch("cache");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&cache);
    let opts = PipelineOptions {
        cache_dir: Some(cache.clone()),
        ..PipelineOptions::default()
    };
    let config = ServerConfig {
        faults: FaultPlan::parse("panic@1").expect("fault plan"),
        ..ServerConfig::default()
    };
    let daemon = Daemon::start(&opts, config);
    std::fs::remove_dir_all(&cache).expect("remove the cache dir");
    std::fs::write(&cache, "not a directory").expect("plant a file");
    let mut sub = TcpStream::connect(daemon.tcp).expect("connect subscriber");
    sub.write_all(b"{\"cmd\":\"subscribe\"}\n")
        .expect("subscribe");
    let mut events = BufReader::new(sub).lines();
    events.next().expect("ack").expect("read ack");
    client::edit(&daemon.tcp.to_string(), "one.c", EDITED).expect("edit");
    let fatal = events.find_map(|line| {
        let event = Json::parse(&line.expect("read event")).expect("event is JSON");
        (event.get("event").and_then(Json::as_str) == Some("fatal")).then_some(event)
    });
    assert!(fatal.is_some(), "the stream ended without a `fatal` event");
    drop(events);
    daemon.wait_and_assert_stopped();
    let _ = std::fs::remove_file(&cache);
}
