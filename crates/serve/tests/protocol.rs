//! The wire protocol, in process: a daemon on an ephemeral loopback port
//! (and a Unix socket), scripted clients, and subscribers asserting on the
//! streamed diff events.

use sga_pipeline::PipelineOptions;
use sga_serve::{client, cold_report, serve, Engine, ServerConfig};
use sga_utils::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Raises one definite overrun (`buf[9]` into a 4-byte block).
const LIB_ALARMED: &str = "int main() { int *buf = malloc(4); buf[9] = 1; return 0; }\n";
/// The overrun is fixed, but a fresh one appears in a second function —
/// so one edit produces both `fixed` and `new` fingerprints.
const LIB_SWAPPED: &str = "int main() { int *buf = malloc(4); buf[0] = 1; return 0; }\n\
                           int other() { int *b = malloc(4); b[6] = 1; return 0; }\n";
const APP_CLEAN: &str = "int main() { return 3; }\n";

const T: Option<Duration> = Some(Duration::from_secs(60));

fn corpus(tag: &str, units: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sga-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (name, source) in units {
        std::fs::write(dir.join(name), source).expect("write unit");
    }
    dir
}

/// A raw subscriber: connects, subscribes, reads the ack, and hands back a
/// buffered reader positioned at the event stream.
fn subscribe_raw(addr: &str) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connect subscriber");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    stream
        .write_all(b"{\"cmd\":\"subscribe\"}\n")
        .expect("send subscribe");
    let mut reader = BufReader::new(stream);
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack");
    let ack = Json::parse(&ack).expect("ack is JSON");
    assert_eq!(ack.get("subscribed").and_then(Json::as_bool), Some(true));
    reader
}

fn next_event(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read event");
    Json::parse(&line).expect("event is JSON")
}

fn strings(j: Option<&Json>) -> Vec<String> {
    j.and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn tcp_protocol_end_to_end() {
    let dir = corpus("proto", &[("app.c", APP_CLEAN), ("lib.c", LIB_ALARMED)]);
    let opts = PipelineOptions::default();
    let engine = Engine::new(&dir, &opts).expect("engine");
    let handle = serve(
        engine,
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.tcp_addr.expect("tcp addr").to_string();

    // Status before any round.
    let status = Json::parse(&client::status_t(&addr, T).expect("status")).expect("status JSON");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(status.get("units").and_then(Json::as_u64), Some(2));
    assert_eq!(status.get("rounds").and_then(Json::as_u64), Some(0));

    // Malformed input gets an error reply, not a dropped connection.
    let bad = Json::parse(&client::request_t(&addr, "not json", T).expect("reply")).expect("JSON");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    let unknown = Json::parse(&client::request_t(&addr, "{\"cmd\":\"nope\"}", T).expect("reply"))
        .expect("JSON");
    assert_eq!(unknown.get("ok").and_then(Json::as_bool), Some(false));

    // Two independent subscribers; both must see every event.
    let mut sub_a = subscribe_raw(&addr);
    let mut sub_b = subscribe_raw(&addr);

    // One edit that both fixes the old alarm and introduces a new one.
    let ack =
        Json::parse(&client::edit_t(&addr, "lib.c", LIB_SWAPPED, T).expect("edit")).expect("JSON");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(ack.get("queued").and_then(Json::as_str), Some("lib.c"));

    for sub in [&mut sub_a, &mut sub_b] {
        let event = next_event(sub);
        assert_eq!(event.get("event").and_then(Json::as_str), Some("diff"));
        assert_eq!(event.get("round").and_then(Json::as_u64), Some(1));
        assert_eq!(strings(event.get("edited")), ["lib.c"]);
        assert!(strings(event.get("invalidated")).contains(&"lib.c".to_string()));
        let diff = event.get("diff").expect("diff block");
        assert_eq!(
            strings(diff.get("new")).len(),
            1,
            "the swapped overrun must stream as one new fingerprint"
        );
        assert_eq!(
            strings(diff.get("fixed")).len(),
            1,
            "the fixed overrun must stream as one fixed fingerprint"
        );
    }

    // The streamed report equals a cold batch run of the current state.
    let report = client::report_t(&addr, T).expect("report");
    assert_eq!(
        report,
        cold_report(&dir, &opts).expect("cold run").to_compact(),
        "daemon report must match the cold batch run byte for byte"
    );

    // `client::watch_ready_t` — the `sga watch` code path — sees later
    // rounds. The ack is sent before the subscriber is registered, so once
    // it arrives a single edit is guaranteed to stream back: no probing,
    // no sleeps.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<String>();
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let watch_addr = addr.clone();
    let watcher = std::thread::spawn(move || {
        client::watch_ready_t(
            &watch_addr,
            Some(1),
            T,
            |ack| {
                let _ = ready_tx.send(ack.to_string());
            },
            |event| {
                let _ = tx.send(event.to_string());
            },
        )
    });
    let ack = ready_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("subscribe ack");
    assert_eq!(
        Json::parse(&ack)
            .expect("ack is JSON")
            .get("subscribed")
            .and_then(Json::as_bool),
        Some(true),
        "watch_ready_t must surface the subscription ack"
    );
    let source = format!("{APP_CLEAN}int probe() {{ return 7; }}\n");
    client::edit_t(&addr, "app.c", &source, T).expect("watched edit");
    let watched = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("client::watch_ready_t never received an event");
    let event = Json::parse(&watched).expect("watched event is JSON");
    assert_eq!(event.get("event").and_then(Json::as_str), Some("diff"));
    assert_eq!(strings(event.get("edited")), ["app.c"]);
    watcher
        .join()
        .expect("watch thread")
        .expect("watch stream ended cleanly");

    // Shutdown: acked, then the event streams close.
    let bye = Json::parse(&client::shutdown_t(&addr, T).expect("shutdown")).expect("JSON");
    assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
    handle.wait();
    let mut tail = String::new();
    for sub in [&mut sub_a, &mut sub_b] {
        // Drain the probe-round events; the stream must then hit EOF.
        loop {
            tail.clear();
            if sub.read_line(&mut tail).expect("read after shutdown") == 0 {
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_roundtrip() {
    let dir = corpus("proto-unix", &[("one.c", APP_CLEAN)]);
    let sock = std::env::temp_dir().join(format!("sga-serve-{}.sock", std::process::id()));
    let opts = PipelineOptions::default();
    let engine = Engine::new(&dir, &opts).expect("engine");
    let handle = serve(
        engine,
        &ServerConfig {
            unix: Some(sock.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    assert!(handle.tcp_addr.is_none());

    let addr = sock.display().to_string();
    let status = Json::parse(&client::status_t(&addr, T).expect("status")).expect("JSON");
    assert_eq!(status.get("units").and_then(Json::as_u64), Some(1));
    let report = client::report_t(&addr, T).expect("report");
    assert_eq!(report, cold_report(&dir, &opts).expect("cold").to_compact());

    client::shutdown_t(&addr, T).expect("shutdown");
    handle.wait();
    assert!(!sock.exists(), "wait() must remove the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fs_poller_picks_up_out_of_band_edits() {
    let dir = corpus("proto-poll", &[("one.c", LIB_ALARMED)]);
    let opts = PipelineOptions::default();
    let engine = Engine::new(&dir, &opts).expect("engine");
    let handle = serve(
        engine,
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            poll_ms: Some(20),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.tcp_addr.expect("tcp addr").to_string();
    let mut sub = subscribe_raw(&addr);

    // Out-of-band write, no socket edit: only the poller can see it.
    std::fs::write(dir.join("one.c"), LIB_SWAPPED).expect("out-of-band write");
    let event = next_event(&mut sub);
    assert_eq!(event.get("event").and_then(Json::as_str), Some("diff"));
    assert_eq!(strings(event.get("edited")), ["one.c"]);

    client::shutdown_t(&addr, T).expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The accept path under the two shapes `hostile.rs` does not cover: many
/// short connections one after another, and many at the same instant.
#[test]
fn one_shot_requests_and_a_connect_burst_all_get_replies() {
    let dir = corpus("proto-burst", &[("one.c", APP_CLEAN)]);
    let engine = Engine::new(&dir, &PipelineOptions::default()).expect("engine");
    let handle = serve(
        engine,
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.tcp_addr.expect("tcp addr").to_string();
    let ok = |reply: std::io::Result<String>| {
        let status = Json::parse(&reply.expect("status reply")).expect("status JSON");
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(status.get("accept_errors").and_then(Json::as_u64), Some(0));
    };
    for _ in 0..200 {
        ok(client::status_t(&addr, T));
    }
    let barrier = Arc::new(Barrier::new(32));
    let burst: Vec<_> = (0..32)
        .map(|_| {
            let (addr, barrier) = (addr.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                client::status_t(&addr, T)
            })
        })
        .collect();
    for reply in burst {
        ok(reply.join().expect("burst client"));
    }
    client::shutdown_t(&addr, T).expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
