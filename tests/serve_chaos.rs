//! Chaos suite: a real `sga serve` child process is SIGKILLed at seeded
//! random points in a randomized edit sequence and restarted over the same
//! cache. After every kill the restarted daemon must be answered by the
//! cache for the units it already analyzed, and its accumulated report
//! must be byte-identical to a cold `sga analyze --no-cache --canonical`
//! batch run of the corpus directory — the convergence invariant holds
//! through `kill -9`.
//!
//! The corpus directory is the ground truth: sources are persisted there
//! before a round analyzes them, so whatever instant the kill lands
//! (before persist, mid-persist, mid-analysis, mid-cache-store), the dir
//! plus the cache describe a state the restarted daemon and the cold run
//! agree on. One kill is aimed into an injected `stall@` window to pin the
//! most delicate interleaving: sources persisted, analysis not yet stored.

#![cfg(unix)]

use sga::serve::client;
use sga::utils::Json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const T: Option<Duration> = Some(Duration::from_secs(60));

/// Deterministic xorshift so the "random" kill points and edit contents
/// reproduce across runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sga-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A unit source: always a `main`, plus a helper whose store index makes
/// the overrun alarm come and go as the sequence mutates it.
fn unit_source(value: u64, idx: u64) -> String {
    format!(
        "int main() {{ return {}; }}\n\
         int helper(int a) {{ int *b = malloc(4); b[{}] = a; return a; }}\n",
        value % 100,
        idx % 10
    )
}

/// Spawns `sga serve` over `corpus`, waits for the port file, and returns
/// the child plus the address it bound.
fn spawn_daemon(corpus: &Path, cache: &Path, port_file: &Path) -> (Child, String) {
    // A stale port file from a killed predecessor must not satisfy the
    // readiness poll below.
    let _ = std::fs::remove_file(port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_sga"))
        .arg("serve")
        .arg(corpus)
        .args(["--tcp", "127.0.0.1:0", "--jobs", "1"])
        .arg("--port-file")
        .arg(port_file)
        .arg("--cache-dir")
        .arg(cache)
        // Round 2 of every incarnation stalls, widening the window where
        // sources are persisted but results are not yet stored.
        .args(["--faults", "stall@2=400"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("sga serve spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(port_file) {
            let s = s.trim();
            if !s.is_empty() {
                break s.to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    (child, addr)
}

/// Cold batch run of the corpus dir, canonically rendered.
fn cold_pretty(corpus: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sga"))
        .arg("analyze")
        .arg(corpus)
        .args(["--no-cache", "--canonical", "--jobs", "1"])
        .output()
        .expect("cold analyze runs");
    assert!(
        out.status.success(),
        "cold analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("cold report is JSON")
        .to_pretty()
}

/// Live daemon report, canonically rendered for comparison.
fn live_pretty(addr: &str) -> String {
    let report = client::report_t(addr, T).expect("live report");
    Json::parse(&report)
        .expect("live report is JSON")
        .to_pretty()
}

#[test]
fn sigkill_anywhere_resume_converges() {
    let root = scratch("kill9");
    let corpus = root.join("corpus");
    let cache = root.join("cache");
    let port_file = root.join("port");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    let mut rng = Rng(0x5ea1_ed5e_ed00_d5a7);
    for u in 0..3u64 {
        std::fs::write(
            corpus.join(format!("unit{u}.c")),
            unit_source(rng.next(), rng.next()),
        )
        .expect("seed unit");
    }

    let (mut child, mut addr) = spawn_daemon(&corpus, &cache, &port_file);
    let mut restarts = 0usize;
    let mut resumed_total = 0u64;

    for step in 0..12u64 {
        let unit = format!("unit{}.c", rng.next() % 3);
        let source = unit_source(rng.next(), rng.next());
        let (reply, _sheds) =
            client::edit_with_retry(&addr, &unit, &source, T, 10).expect("edit reaches daemon");
        assert!(
            !client::is_shed(&reply),
            "edit permanently shed in an unloaded test: {reply}"
        );

        // Kill at seeded points: right after the ack the round is in
        // flight (or queued), so SIGKILL lands at an arbitrary phase of
        // the persist → analyze → store sequence. On the stall steps
        // the extra sleep drops the kill inside the injected 400ms
        // window — after persist, before store.
        let kill_now = matches!(step, 1 | 5 | 9);
        if kill_now {
            if step == 1 {
                // Second round of this incarnation: stall@2 is active.
                std::thread::sleep(Duration::from_millis(150));
            } else {
                std::thread::sleep(Duration::from_millis(rng.next() % 120));
            }
            child.kill().expect("SIGKILL");
            child.wait().expect("killed child reaped");

            let (c, a) = spawn_daemon(&corpus, &cache, &port_file);
            child = c;
            addr = a;
            restarts += 1;

            // The restarted daemon was answered by the cache...
            let status = client::status_t(&addr, T).expect("status after restart");
            let status = Json::parse(&status).expect("status json");
            let resumed = status
                .get("resumed_units")
                .and_then(Json::as_u64)
                .expect("status carries resumed_units");
            assert!(
                resumed >= 1,
                "restart had no cache hit: {}",
                status.to_pretty()
            );
            resumed_total += resumed;

            // ...and its report is byte-identical to a cold run of the
            // corpus dir, whatever the kill interrupted.
            assert_eq!(
                live_pretty(&addr),
                cold_pretty(&corpus),
                "convergence broken after SIGKILL at step {step}"
            );
        }
    }

    assert_eq!(restarts, 3);
    assert!(
        resumed_total >= 3,
        "across {restarts} restarts the cache answered only {resumed_total} units"
    );

    // Final state: still converged, still serving.
    assert_eq!(live_pretty(&addr), cold_pretty(&corpus));
    client::shutdown_t(&addr, T).expect("shutdown");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exited non-zero after shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// A kill *between* rounds (daemon idle, every unit stored) must restart
/// with every unit a cache hit and reproduce the report exactly.
#[test]
fn sigkill_at_rest_resumes_every_unit() {
    let root = scratch("at-rest");
    let corpus = root.join("corpus");
    let cache = root.join("cache");
    let port_file = root.join("port");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    for u in 0..3u64 {
        std::fs::write(corpus.join(format!("unit{u}.c")), unit_source(u, u + 3))
            .expect("seed unit");
    }

    let (mut child, addr) = spawn_daemon(&corpus, &cache, &port_file);
    let (reply, _) =
        client::edit_with_retry(&addr, "unit0.c", &unit_source(41, 7), T, 10).expect("edit");
    assert!(!client::is_shed(&reply));
    // Quiesce: a successful report implies the round completed (the
    // engine thread serves requests in order).
    let before = live_pretty(&addr);
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");

    let (mut child, addr) = spawn_daemon(&corpus, &cache, &port_file);
    let status = client::status_t(&addr, T).expect("status");
    let status = Json::parse(&status).expect("status json");
    assert_eq!(
        status.get("resumed_units").and_then(Json::as_u64),
        Some(3),
        "an at-rest kill must restart with all 3 units from the cache: {}",
        status.to_pretty()
    );
    assert_eq!(live_pretty(&addr), before, "restarted report differs");
    assert_eq!(live_pretty(&addr), cold_pretty(&corpus));

    client::shutdown_t(&addr, T).expect("shutdown");
    child.wait().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&root);
}
