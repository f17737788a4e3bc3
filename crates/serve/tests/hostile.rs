//! The daemon under hostile conditions: malformed protocol traffic,
//! overload floods, stalled subscribers, panicking rounds, and warm
//! restart — every scenario ends by re-asserting the convergence
//! invariant (daemon report == cold batch run of the corpus directory).

use sga_pipeline::{FaultPlan, PipelineOptions};
use sga_serve::{client, cold_report, serve, Engine, ServerConfig};
use sga_utils::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

const LIB: &str = "int main() { int *buf = malloc(4); buf[9] = 1; return 0; }\n";
const APP: &str = "int main() { return 3; }\n";
const APP2: &str = "int main() { return 4; }\n";

const T: Option<Duration> = Some(Duration::from_secs(60));

fn corpus(tag: &str, units: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sga-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (name, source) in units {
        std::fs::write(dir.join(name), source).expect("write unit");
    }
    dir
}

/// Sends raw bytes on an open connection and reads one reply line.
fn send_raw(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, bytes: &[u8]) -> Json {
    stream.write_all(bytes).expect("send raw");
    stream.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    Json::parse(&reply).expect("reply is JSON")
}

/// A daemon fed every kind of protocol garbage answers each line with a
/// structured error, keeps the connection alive, keeps serving, and the
/// next edit round still converges.
#[test]
fn malformed_protocol_corpus_cannot_kill_the_daemon() {
    let dir = corpus("garbage", &[("lib.c", LIB), ("app.c", APP)]);
    let opts = PipelineOptions::default();
    let engine = Engine::new(&dir, &opts).expect("engine");
    let handle = serve(
        engine,
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            max_request_line: 1024, // small bound so the huge-line case is cheap
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.tcp_addr.expect("tcp addr").to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Garbage text, truncated JSON, binary blob with NULs (valid UTF-8,
    // invalid JSON), invalid UTF-8, and an unknown command — one reply
    // each, all structured errors, same connection throughout.
    for bad in [
        b"complete garbage\n".as_slice(),
        b"{\"cmd\":\"edit\",\"unit\":\"lib.c\"\n",
        b"\x00\x01\x02\x03\n",
        b"\xff\xfe{\"cmd\":\"status\"}\n",
        b"{\"cmd\":\"explode\"}\n",
    ] {
        let reply = send_raw(&mut stream, &mut reader, bad);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "garbage must get a structured error: {}",
            reply.to_compact()
        );
    }

    // A line over the bound is drained, not buffered; the error says so
    // and the connection still works.
    let mut huge = vec![b'x'; 8 * 1024];
    huge.push(b'\n');
    let reply = send_raw(&mut stream, &mut reader, &huge);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        reply
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("exceeds")),
        "oversized line must name the bound: {}",
        reply.to_compact()
    );

    // The same connection still speaks the real protocol.
    let reply = send_raw(&mut stream, &mut reader, b"{\"cmd\":\"status\"}\n");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("units").and_then(Json::as_u64), Some(2));

    // A client that disconnects mid-line leaves no mark.
    {
        let mut rude = TcpStream::connect(&addr).expect("connect rude");
        rude.write_all(b"{\"cmd\":\"rep").expect("partial write");
        // dropped here, mid-line
    }

    // The daemon still processes a real round and still converges.
    let ack = client::edit_t(&addr, "app.c", APP2, T).expect("edit");
    assert!(ack.contains("\"ok\":true"), "edit after garbage: {ack}");
    let report = client::report_t(&addr, T).expect("report");
    let cold = cold_report(&dir, &opts).expect("cold run");
    assert_eq!(report, cold.to_compact(), "convergence after garbage");

    client::shutdown_t(&addr, T).expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tiny request queue plus a stalled round forces shedding; the
/// retrying client gets every edit through anyway, the shed count is
/// visible in `status`, and the final state converges.
#[test]
fn overload_sheds_and_retry_recovers_every_edit() {
    let dir = corpus("shed", &[("lib.c", LIB), ("app.c", APP)]);
    let opts = PipelineOptions::default();
    let engine = Engine::new(&dir, &opts).expect("engine");
    let handle = serve(
        engine,
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            queue_cap: 1,
            faults: FaultPlan::parse("stall@1=400").expect("spec"),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.tcp_addr.expect("tcp addr").to_string();
    let stats = handle.stats();

    // Concurrent writers into a 1-slot queue while round 1 stalls 400ms:
    // someone must be refused, nobody may be lost.
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let unit = format!("burst{t}.c");
                let source = format!("int main() {{ return {t}; }}\n");
                let (reply, sheds) =
                    client::edit_with_retry(&addr, &unit, &source, T, 20).expect("edit");
                assert!(!client::is_shed(&reply), "edit lost to shedding: {reply}");
                sheds
            })
        })
        .collect();
    let client_sheds: u32 = threads.into_iter().map(|t| t.join().expect("thread")).sum();

    let status = client::status_t(&addr, T).expect("status");
    let status = Json::parse(&status).expect("status json");
    let shed_stat = status
        .get("shed")
        .and_then(Json::as_u64)
        .expect("shed stat");
    assert!(
        shed_stat >= 1 && client_sheds >= 1,
        "queue_cap=1 under a stalled round must shed (daemon saw {shed_stat}, clients saw {client_sheds})"
    );
    assert_eq!(shed_stat, stats.shed() as u64);

    let report = client::report_t(&addr, T).expect("report");
    let cold = cold_report(&dir, &opts).expect("cold run");
    assert_eq!(report, cold.to_compact(), "convergence after shedding");

    client::shutdown_t(&addr, T).expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A subscriber that never reads past its ack is evicted (queue + shrunken
/// send buffer + write deadline) while a healthy subscriber keeps
/// receiving every event and rounds keep completing.
#[test]
fn stalled_subscriber_is_evicted_not_obeyed() {
    let dir = corpus("evict", &[("lib.c", LIB), ("app.c", APP)]);
    let sock = std::env::temp_dir().join(format!("sga-hostile-evict-{}.sock", std::process::id()));
    let opts = PipelineOptions::default();
    let engine = Engine::new(&dir, &opts).expect("engine");
    let handle = serve(
        engine,
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            unix: Some(sock.clone()),
            sub_queue_cap: 4,
            write_deadline_ms: 200,
            sub_sndbuf: Some(2048),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.tcp_addr.expect("tcp addr").to_string();
    let stats = handle.stats();

    // The stalled subscriber: Unix socket, so in-flight bytes are charged
    // to the daemon's shrunken send buffer (TCP would hide them in the
    // peer's receive buffer).
    let stalled = UnixStream::connect(&sock).expect("stalled connect");
    {
        let mut w = stalled.try_clone().expect("clone");
        w.write_all(b"{\"cmd\":\"subscribe\"}\n")
            .expect("subscribe");
        let mut ack = String::new();
        BufReader::new(stalled.try_clone().expect("clone"))
            .read_line(&mut ack)
            .expect("ack");
        assert!(ack.contains("subscribed"));
    }

    // A healthy subscriber on TCP, read in a thread; the ready channel
    // guarantees it is in the broadcast set before the first edit (the
    // daemon acks under the broadcast lock), so it must see every round.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let healthy = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut events = 0usize;
            let _ = client::watch_ready_t(
                &addr,
                None,
                T,
                |_| ready_tx.send(()).expect("signal ready"),
                |_| events += 1,
            );
            events
        }
    });
    ready_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("healthy subscriber never acked");

    // An ack means queued, not processed, and queued edits coalesce: 300
    // acks take a fraction of a second and may make only a handful of
    // rounds. A `status` after each edit is the barrier — the engine
    // answers it in queue order, after the edit's round — so every edit
    // is a round and an event, however fast the socket is.
    let mut source = String::from("int main() { return 9; }\n");
    let mut edits = 0usize;
    while stats.evicted_slow() == 0 && edits < 300 {
        edits += 1;
        source.push_str(&format!("int f{edits}(int a) {{ return a + {edits}; }}\n"));
        let (reply, _) = client::edit_with_retry(&addr, "hot.c", &source, T, 10).expect("edit");
        assert!(!client::is_shed(&reply));
        client::status_t(&addr, T).expect("round barrier");
    }
    assert!(
        stats.evicted_slow() >= 1,
        "stalled subscriber never evicted after {edits} edits"
    );

    // Rounds kept completing and the engine still answers.
    let status = client::status_t(&addr, T).expect("status");
    let status = Json::parse(&status).expect("status json");
    let status_rounds = status.get("rounds").and_then(Json::as_u64).expect("rounds");
    assert!(status_rounds >= 1, "no round completed");
    assert_eq!(
        status.get("evicted_slow").and_then(Json::as_u64),
        Some(stats.evicted_slow() as u64)
    );

    let report = client::report_t(&addr, T).expect("report");
    let cold = cold_report(&dir, &opts).expect("cold run");
    assert_eq!(report, cold.to_compact(), "convergence after eviction");

    client::shutdown_t(&addr, T).expect("shutdown");
    handle.wait();
    // Shutdown drops the broadcast senders; each writer drains its queue
    // before closing, so the healthy watcher saw one event per round.
    let healthy_events = healthy.join().expect("healthy watcher");
    assert!(
        healthy_events as u64 >= status_rounds,
        "healthy subscriber missed events: saw {healthy_events}, rounds {status_rounds}"
    );
    drop(stalled);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A round that panics is supervised: subscribers see `round_degraded`
/// then `engine_restarted`, the acked edit survives (sources persist
/// before the fault window), later rounds work, and the report converges.
#[test]
fn panicking_round_is_supervised_and_recovered() {
    let dir = corpus("panic", &[("lib.c", LIB), ("app.c", APP)]);
    let cache =
        std::env::temp_dir().join(format!("sga-hostile-panic-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let opts = PipelineOptions {
        cache_dir: Some(cache.clone()),
        ..PipelineOptions::default()
    };
    let engine = Engine::new(&dir, &opts).expect("engine");
    let handle = serve(
        engine,
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            faults: FaultPlan::parse("panic@2").expect("spec"),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.tcp_addr.expect("tcp addr").to_string();
    let stats = handle.stats();

    // Subscribe first so every event is observed.
    let mut sub = TcpStream::connect(&addr).expect("subscriber");
    sub.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    sub.write_all(b"{\"cmd\":\"subscribe\"}\n")
        .expect("subscribe");
    let mut sub = BufReader::new(sub);
    let mut line = String::new();
    sub.read_line(&mut line).expect("ack");
    assert!(line.contains("subscribed"));

    let next = |sub: &mut BufReader<TcpStream>| -> Json {
        let mut line = String::new();
        sub.read_line(&mut line).expect("event");
        Json::parse(&line).expect("event json")
    };

    // Round 1: normal.
    client::edit_t(&addr, "app.c", APP2, T).expect("edit 1");
    let e1 = next(&mut sub);
    assert_eq!(e1.get("event").and_then(Json::as_str), Some("diff"));

    // Round attempt 2: the injected panic. The edit is acked, its source
    // is persisted before the fault fires, and recovery re-reads the dir
    // — so this edit must NOT be lost.
    let survived = "int main() { return 77; }\n";
    client::edit_t(&addr, "app.c", survived, T).expect("edit 2");
    let e2 = next(&mut sub);
    assert_eq!(
        e2.get("event").and_then(Json::as_str),
        Some("round_degraded"),
        "expected degraded round, got {}",
        e2.to_compact()
    );
    assert!(e2
        .get("error")
        .and_then(Json::as_str)
        .is_some_and(|m| m.contains("injected fault")));
    let e3 = next(&mut sub);
    assert_eq!(
        e3.get("event").and_then(Json::as_str),
        Some("engine_restarted"),
        "expected restart after degraded round, got {}",
        e3.to_compact()
    );
    // Recovery went through the cache: only the mid-round unit recomputes.
    assert!(
        e3.get("resumed_units").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "restart should be answered by the cache: {}",
        e3.to_compact()
    );

    // Round 3: back to normal service.
    client::edit_t(&addr, "lib.c", APP, T).expect("edit 3");
    let e4 = next(&mut sub);
    assert_eq!(e4.get("event").and_then(Json::as_str), Some("diff"));

    assert_eq!(stats.degraded_rounds(), 1);
    assert_eq!(stats.engine_restarts(), 1);

    // The panicked round's edit survived into the corpus and the report.
    assert_eq!(
        std::fs::read_to_string(dir.join("app.c")).expect("read app.c"),
        survived
    );
    let report = client::report_t(&addr, T).expect("report");
    let cold = cold_report(&dir, &opts).expect("cold run");
    assert_eq!(report, cold.to_compact(), "convergence across a panic");

    let status = client::status_t(&addr, T).expect("status");
    let status = Json::parse(&status).expect("status json");
    assert_eq!(
        status.get("degraded_rounds").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        status.get("engine_restarts").and_then(Json::as_u64),
        Some(1)
    );

    client::shutdown_t(&addr, T).expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache);
}

/// In-process warm restart: the cache outlives the engine, so a fresh
/// engine over the same directory is answered by it unit for unit and
/// reproduces the report byte for byte — also after a simulated mid-round
/// kill (source persisted, no entry for it yet). A unit without an entry
/// (deleted cache, a parse failure, an LRU eviction) is recomputed, not
/// counted, and the report still equals a cold run.
#[test]
fn warm_restart_is_answered_by_the_cache() {
    let dir = corpus("resume", &[("lib.c", LIB), ("app.c", APP)]);
    let cache =
        std::env::temp_dir().join(format!("sga-hostile-resume-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let opts = PipelineOptions {
        cache_dir: Some(cache.clone()),
        ..PipelineOptions::default()
    };
    let restart = |opts: &PipelineOptions| {
        let engine = Engine::new(&dir, opts).expect("restart");
        let report = engine.report().expect("report").to_pretty();
        let cold = cold_report(&dir, opts).expect("cold run").to_pretty();
        assert_eq!(report, cold, "a restart must converge");
        (engine.resumed_units(), report)
    };

    let mut engine = Engine::new(&dir, &opts).expect("engine");
    engine
        .apply_edits(vec![("app.c".into(), APP2.into())])
        .expect("edit round");
    let before = engine.report().expect("report").to_pretty();
    drop(engine);

    // Clean warm restart: every unit is a hit, reports match bytewise.
    let (resumed, report) = restart(&opts);
    assert_eq!(resumed, 2, "both units should be cache hits");
    assert_eq!(report, before);

    // Simulated mid-round kill: a round persisted `lib.c`'s new source to
    // the corpus dir but died before analyzing it. The restart recomputes
    // exactly that unit.
    std::fs::write(dir.join("lib.c"), APP).expect("tamper source");
    assert_eq!(restart(&opts).0, 1, "only the untouched unit should hit");

    // A deleted cache answers nothing, and the restart still converges.
    std::fs::remove_dir_all(&cache).expect("delete the cache");
    assert_eq!(restart(&opts).0, 0);

    // A unit that fails to parse has no entry: recomputed, not counted.
    std::fs::write(dir.join("bad.c"), "int main( {\n").expect("write bad.c");
    assert_eq!(restart(&opts).0, 2, "the parse failure must not count");
    std::fs::remove_file(dir.join("bad.c")).expect("remove bad.c");

    // Under an LRU cap below the unit count one entry survives each open:
    // the evicted unit is recomputed.
    let capped = PipelineOptions {
        cache_max_entries: Some(1),
        ..opts.clone()
    };
    Engine::new(&dir, &capped).expect("fill the capped cache");
    assert_eq!(restart(&capped).0, 1, "the evicted unit must miss");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache);
}

/// Switching `--triage` between daemon restarts must not reuse the other
/// mode's analyses: the mode is part of every cache key, so a `both`
/// restart over an `octagon`-filled cache recomputes every unit, while a
/// same-mode restart is answered by the cache whole. A cross-mode hit here
/// would resurrect diagnostics the new mode would have discharged (or vice
/// versa) — the report must instead match a cold run under the *new* mode.
#[test]
fn triage_mode_switch_misses_the_cache() {
    use sga_core::triage::TriageMode;
    let dir = corpus("triage-switch", &[("lib.c", LIB), ("app.c", APP)]);
    let cache =
        std::env::temp_dir().join(format!("sga-hostile-triage-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let with_mode = |mode| PipelineOptions {
        cache_dir: Some(cache.clone()),
        triage: mode,
        ..PipelineOptions::default()
    };

    let engine = Engine::new(&dir, &with_mode(TriageMode::Octagon)).expect("engine");
    drop(engine);

    // Same mode: both units are cache hits.
    let same = Engine::new(&dir, &with_mode(TriageMode::Octagon)).expect("same-mode restart");
    assert_eq!(same.resumed_units(), 2, "same mode should hit");
    drop(same);

    // Mode switch: every key misses, so nothing is answered by the cache,
    // and the rebuilt report matches a cold run under the new mode.
    let switched = Engine::new(&dir, &with_mode(TriageMode::Both)).expect("switched restart");
    assert_eq!(
        switched.resumed_units(),
        0,
        "entries from --triage octagon must not answer under both"
    );
    let report = switched.report().expect("report").to_pretty();
    let cold = cold_report(&dir, &with_mode(TriageMode::Both))
        .expect("cold run")
        .to_pretty();
    assert_eq!(
        report, cold,
        "post-switch restart must converge on the new mode"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache);
}

/// Client deadlines: a `status` against a listener that accepts and then
/// never replies errors out within the timeout instead of hanging.
#[test]
fn client_timeout_turns_a_wedged_daemon_into_an_error() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // Accept and hold connections open without ever replying.
    let wedge = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((stream, _)) = listener.accept() {
            held.push(stream);
            if held.len() >= 2 {
                break;
            }
        }
        std::thread::sleep(Duration::from_secs(5));
    });

    let start = std::time::Instant::now();
    let err = client::status_t(&addr, Some(Duration::from_millis(300)))
        .expect_err("wedged daemon must time out");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "unexpected error kind: {err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "timeout took too long: {:?}",
        start.elapsed()
    );

    // The watch path bounds its ack read the same way.
    let err = client::watch_ready_t(
        &addr,
        Some(1),
        Some(Duration::from_millis(300)),
        |_| {},
        |_| {},
    )
    .expect_err("wedged subscribe must time out");
    assert!(matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ));
    drop(wedge);
}
