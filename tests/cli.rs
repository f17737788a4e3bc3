//! The CLI's flags on real command lines, each with its effect asserted:
//! the spellings no other suite or CI stage passes.
//!
//! * single-file mode: `--check`, `--domain`, `--dump-ir`, `--dump-values`,
//!   `--engine`, `--stats`, `--widening`, `--max-steps`;
//! * `check --sarif`, and the octagon work `check` reports;
//! * `analyze`: `--out`, `--no-bypass`, `--fail-fast`,
//!   `--cache-max-entries`;
//! * `serve --unix --poll-ms` driven by `watch --status --max-events`;
//! * `watch --retries` and `watch --timeout-ms` against scripted daemons;
//! * `cache gc --max-entries`.

use sga::utils::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn sga(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sga"))
        .args(args)
        .output()
        .expect("sga binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A fresh (empty) scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sga-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A unit with a definite buffer overrun and a global.
const OVERRUN: &str = "int g;\nint main() { int *buf = malloc(4); g = 3; buf[9] = 1; return 0; }\n";

/// Writes `source` as `dir/name` and returns its path as a string.
fn unit(dir: &Path, name: &str, source: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path.to_string_lossy().into_owned()
}

/// The stage names `--stats`' first line lists after `total X`, in order.
fn stage_names(stats: &str) -> Vec<&str> {
    let head = stats.lines().next().unwrap_or_default();
    let total = head.split_once(": total ").map(|(_, rest)| rest);
    let list = total.and_then(|t| t.split_once(" (")?.1.split_once(')'));
    let list = list.unwrap_or_else(|| panic!("no stage list: {head}")).0;
    list.split(", ")
        .map(|stage| stage.split(' ').next().unwrap())
        .collect()
}

fn report(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).expect("report is JSON")
}

#[test]
fn single_file_flags_show_what_they_name() {
    let dir = scratch("file");
    let f = unit(&dir, "f.c", OVERRUN);

    let checked = sga(&[&f, "--check"]);
    assert_eq!(checked.status.code(), Some(1), "a definite alarm exits 1");
    assert!(text(&checked.stdout).contains("1 open alarm(s) (1 definite)"));
    assert_eq!(sga(&[&f]).status.code(), Some(0), "no --check, no verdict");

    let ir = text(&sga(&[&f, "--dump-ir"]).stdout);
    assert!(ir.starts_with("proc main() {"), "{ir}");

    let values = text(&sga(&[&f, "--dump-values"]).stdout);
    assert!(values.contains("v0 = [3, 3]"), "{values}");

    let octagon = text(&sga(&[&f, "--domain", "octagon", "--dump-values"]).stdout);
    assert!(octagon.starts_with("g ∈ "), "{octagon}");

    let stats = text(&sga(&[&f, "--stats"]).stderr);
    assert!(stats.starts_with("engine Sparse: "), "{stats}");
    assert_eq!(
        stage_names(&stats),
        ["pre", "defuse", "dep", "fix"],
        "{stats}"
    );
    assert!(stats.contains("widening delayed"), "{stats}");
    let checked = text(&sga(&[&f, "--check", "--stats"]).stderr);
    let all = ["pre", "defuse", "dep", "fix", "check", "triage"];
    assert_eq!(stage_names(&checked), all, "{checked}");
    let octagon = text(&sga(&[&f, "--domain", "octagon", "--stats"]).stderr);
    assert!(
        octagon.starts_with("engine Sparse (octagon): "),
        "{octagon}"
    );
    assert_eq!(
        stage_names(&octagon),
        ["pre", "defuse", "dep", "fix"],
        "{octagon}"
    );
    assert!(
        stats.contains("\npre: ") && stats.contains("\nfix: "),
        "{stats}"
    );
    let chosen = text(&sga(&[&f, "--stats", "--engine", "vanilla", "--widening", "naive"]).stderr);
    assert!(chosen.starts_with("engine Vanilla: "), "{chosen}");
    assert_eq!(stage_names(&chosen), ["pre", "fix"], "{chosen}");
    assert!(chosen.contains("widening naive"), "{chosen}");

    let starved = sga(&[&f, "--max-steps", "1"]);
    assert!(text(&starved.stderr).contains("budget exhausted"));
    assert!(sga(&[&f]).stderr.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_sarif_writes_a_2_1_0_log() {
    let dir = scratch("sarif");
    let f = unit(&dir, "f.c", OVERRUN);
    let log = dir.join("f.sarif");
    let out = sga(&["check", &f, "--sarif", &log.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    let sarif = report(&log);
    assert_eq!(sarif.get("version").and_then(Json::as_str), Some("2.1.0"));
    let results = sarif.get("runs").and_then(Json::as_arr).unwrap()[0]
        .get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .len();
    assert_eq!(results, 1, "one diagnostic, one result");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--stats` counts the `Dep` column's work: the pre-analysis' rounds and
/// evaluations, the def/use tables' sizes, the relation before and after
/// the bypass and the reaching-definition walks that built it; `--check
/// --stats` counts the octagon slice triage solved, and `--domain octagon
/// --stats` the whole-unit octagon's relation and fixpoint. The numbers are
/// pinned on a flat and an SCC-heavy generated unit; a change to how the
/// tables are stored must leave each one as it is.
#[test]
fn stats_count_the_dep_columns_tables() {
    let dir = scratch("depstats");
    let pinned = [
        (
            2,
            [
                "pre: 9 rounds, 1759 of 9×626 evaluations",
                "defuse: D\u{302} 1996, U\u{302} 2176; summaries 238 defs, 337 uses; 1015 relayed",
                "dep: 2843 \u{2192} 2234 edges",
                "walk: 26222 visits from 1815 definitions",
            ],
            "triage: octagon solved 11 of 388 packs at 32 of 1152 points, 371 evaluations",
            [
                "dep: 4854 \u{2192} 4156 edges",
                "fix: 3854 pops \u{2014} 3339 whole, 94 forwarded (181 locations), 421 skipped; 15671 edge reads",
            ],
        ),
        (
            30,
            [
                "pre: 11 rounds, 1978 of 11×660 evaluations",
                "defuse: D\u{302} 3218, U\u{302} 3405; summaries 440 defs, 493 uses; 2141 relayed",
                "dep: 5982 \u{2192} 4120 edges",
                "walk: 38208 visits from 3000 definitions",
            ],
            "triage: octagon solved 11 of 414 packs at 32 of 1200 points, 368 evaluations",
            [
                "dep: 9193 \u{2192} 6924 edges",
                "fix: 5465 pops \u{2014} 4148 whole, 1088 forwarded (2114 locations), 229 skipped; 34177 edge reads",
            ],
        ),
    ];
    for (max_scc, interval, triage, octagon) in pinned {
        let config = sga::cgen::GenConfig {
            seed: 65261,
            target_loc: 600,
            functions: 34,
            globals: 16,
            max_scc,
            ..sga::cgen::GenConfig::default()
        };
        let f = unit(&dir, "u.c", &sga::cgen::generate(&config));
        let runs = [
            (vec![&f[..], "--stats"], &interval[..]),
            (vec![&f, "--check", "--stats"], &[triage][..]),
            (vec![&f, "--domain", "octagon", "--stats"], &octagon[..]),
        ];
        for (args, lines) in runs {
            let stats = text(&sga(&args).stderr);
            for line in lines {
                assert!(
                    stats.lines().any(|l| l == *line),
                    "max_scc {max_scc}, {args:?}: {line}\n{stats}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A loop access the octagon discharges, and a procedure outside its slice.
const SLICED: &str = "int probe(int n) {
    int s = 0;
    if (n > 0) {
        int *buf = malloc(n);
        int i = 0;
        while (i < n) { buf[i] = i; i = i + 1; }
        s = i;
    }
    return s;
}
int pad(int a) { int b = a * 2; return b; }
int main(int argc) { int z = pad(7); probe(argc); return z; }
";

#[test]
fn check_counts_the_points_the_octagon_slice_solved() {
    let dir = scratch("slice");
    let f = unit(&dir, "f.c", SLICED);
    let out = text(&sga(&["check", &f]).stdout);
    assert!(out.contains("1 octagon"), "{out}");
    // "octagon solved K of N packs at P of C points, I evaluations"
    let counts = |from: &str, to: &str| -> Vec<usize> {
        let at = out.find(from).unwrap_or_else(|| panic!("{out}")) + from.len();
        let phrase = &out[at..at + out[at..].find(to).unwrap_or_else(|| panic!("{out}"))];
        phrase.split(" of ").map(|n| n.parse().unwrap()).collect()
    };
    let (packs, points) = (
        counts("octagon solved ", " packs"),
        counts("packs at ", " points"),
    );
    assert!(packs[0] < packs[1], "{out}");
    assert!(0 < points[0] && points[0] < points[1], "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_flags_shape_the_run() {
    let dir = scratch("analyze");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    for (i, name) in ["a.c", "b.c", "c.c"].iter().enumerate() {
        unit(&corpus, name, &format!("int main() {{ return {i}; }}\n"));
    }
    let corpus_s = corpus.to_string_lossy().into_owned();
    let out = dir.join("report.json");
    let out_s = out.to_string_lossy().into_owned();

    // --out: the report goes to the file, nothing to stdout. The default
    // run bypasses, and keeps every cache entry.
    let run = sga(&["analyze", &corpus_s, "--out", &out_s]);
    assert_eq!(run.status.code(), Some(0), "{}", text(&run.stderr));
    assert!(run.stdout.is_empty());
    let bypass = |r: &Json| r.get("options").unwrap().get("bypass").unwrap().as_bool();
    assert_eq!(bypass(&report(&out)), Some(true));
    let entries = |dir: &Path| {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .count()
    };
    let cache = corpus.join(".sga-cache");
    assert_eq!(entries(&cache), 3);

    // --cache-max-entries: the run ends by evicting beyond the cap.
    let capped = sga(&[
        "analyze",
        &corpus_s,
        "--cache-max-entries",
        "1",
        "--out",
        &out_s,
    ]);
    assert_eq!(capped.status.code(), Some(0), "{}", text(&capped.stderr));
    let evicted = report(&out)
        .get("cache_health")
        .unwrap()
        .get("evicted")
        .unwrap()
        .as_u64();
    assert_eq!(evicted, Some(2));
    assert_eq!(entries(&cache), 1);

    // --no-bypass: recorded in the report's options.
    let kept = sga(&[
        "analyze",
        &corpus_s,
        "--no-cache",
        "--no-bypass",
        "--out",
        &out_s,
    ]);
    assert_eq!(kept.status.code(), Some(0), "{}", text(&kept.stderr));
    assert_eq!(bypass(&report(&out)), Some(false));

    // --fail-fast: a malformed unit aborts the run (exit 2) instead of being
    // recorded as crashed (exit 3).
    unit(&corpus, "d.c", "int main( {\n");
    let recorded = sga(&["analyze", &corpus_s, "--no-cache", "--out", &out_s]);
    assert_eq!(recorded.status.code(), Some(3));
    let failed = sga(&["analyze", &corpus_s, "--no-cache", "--fail-fast"]);
    assert_eq!(failed.status.code(), Some(2));
    assert!(
        text(&failed.stderr).starts_with("sga: d.c: "),
        "{}",
        text(&failed.stderr)
    );
    assert!(failed.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_gc_max_entries_evicts_beyond_the_cap() {
    let dir = scratch("gc");
    let cache = dir.to_string_lossy().into_owned();
    let seeded = sga(&[
        "analyze",
        "--corpus",
        "units=3,kloc=1,seed=11",
        "--cache-dir",
        &cache,
    ]);
    assert_eq!(seeded.status.code(), Some(0), "{}", text(&seeded.stderr));
    let out = sga(&["cache", "gc", &cache, "--max-entries", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(
        text(&out.stdout).contains("evicted 2 over the LRU cap"),
        "{}",
        text(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A child process killed (if still running) when the test ends, passed or
/// not.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `sga args`, its stdout read line by line on a thread: the
/// returned closure yields the next line, failing after two minutes.
fn spawn_lines(args: &[&str]) -> (Reaped, impl FnMut() -> String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sga"))
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("sga spawns");
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in stdout.lines() {
            if tx.send(line.unwrap()).is_err() {
                return;
            }
        }
    });
    let next = move || {
        rx.recv_timeout(Duration::from_secs(120))
            .expect("a line before the deadline")
    };
    (Reaped(child), next)
}

/// A daemon on a Unix socket only, with out-of-band writes picked up by
/// polling: `watch --status` reaches it at the socket path, and a
/// `--max-events 2` subscriber sees a socket edit, then a file written
/// behind the daemon's back, and exits.
#[test]
fn serve_on_a_unix_socket_polls_for_out_of_band_writes() {
    let dir = scratch("serve");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    unit(&corpus, "app.c", "int main() { return 3; }\n");
    unit(&corpus, "lib.c", "int main() { return 4; }\n");
    let sock = dir.join("d.sock");
    let sock_s = sock.to_string_lossy().into_owned();
    let mut daemon = Reaped(
        Command::new(env!("CARGO_BIN_EXE_sga"))
            .args(["serve", &corpus.to_string_lossy(), "--no-cache"])
            .args(["--unix", &sock_s, "--poll-ms", "50"])
            .stdout(Stdio::null())
            .spawn()
            .expect("sga serve spawns"),
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(Duration::from_millis(25));
    }

    let status = sga(&["watch", &sock_s, "--status"]);
    assert_eq!(status.status.code(), Some(0), "{}", text(&status.stderr));
    let status = Json::parse(&text(&status.stdout)).expect("status is JSON");
    assert_eq!(status.get("units").and_then(Json::as_u64), Some(2));

    let (mut watcher, mut next_line) = spawn_lines(&["watch", &sock_s, "--max-events", "2"]);
    let ack = next_line();
    assert!(ack.contains("\"subscribed\""), "{ack}");

    let edit = unit(&dir, "app_v2.c", "int main() { return 5; }\n");
    let edited = sga(&["watch", &sock_s, "--edit", "app.c", &edit]);
    assert_eq!(edited.status.code(), Some(0), "{}", text(&edited.stderr));
    let first = next_line();
    assert!(first.contains("\"edited\":[\"app.c\"]"), "{first}");

    // Written elsewhere and renamed in, so the poller never reads half a
    // file.
    let staged = unit(&dir, "lib.staged", "int main() { return 6; }\n");
    std::fs::rename(staged, corpus.join("lib.c")).unwrap();
    let second = next_line();
    assert!(second.contains("\"edited\":[\"lib.c\"]"), "{second}");
    assert!(
        watcher.0.wait().unwrap().success(),
        "the watcher exits after 2 events"
    );

    assert_eq!(
        sga(&["watch", &sock_s, "--shutdown"]).status.code(),
        Some(0)
    );
    assert!(daemon.0.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scripted daemon on an ephemeral TCP port: for each connection, reads
/// the request line and answers `reply` (or nothing, holding the
/// connection until the client leaves). A connection whose request is
/// `stop` ends it; it returns the number of requests it answered.
fn scripted_daemon(reply: Option<&'static str>) -> (String, std::thread::JoinHandle<usize>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let mut served = 0;
        for stream in listener.incoming() {
            let mut stream = stream.unwrap();
            let mut line = String::new();
            BufReader::new(&stream).read_line(&mut line).unwrap();
            if line.trim() == "stop" {
                return served;
            }
            served += 1;
            match reply {
                Some(reply) => stream.write_all(format!("{reply}\n").as_bytes()).unwrap(),
                None => {
                    let _ = stream.read_to_end(&mut Vec::new());
                }
            }
        }
        served
    });
    (addr, handle)
}

fn stop(addr: &str, daemon: std::thread::JoinHandle<usize>) -> usize {
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(b"stop\n").unwrap();
    daemon.join().unwrap()
}

/// `--retries N`: a daemon that sheds every edit sees the edit N + 1 times,
/// then the client gives up with exit 2.
#[test]
fn watch_retries_a_shed_edit_then_gives_up() {
    let dir = scratch("retries");
    let f = unit(&dir, "f.c", "int main() { return 0; }\n");
    let (addr, daemon) = scripted_daemon(Some(r#"{"ok":false,"shed":true}"#));
    let out = sga(&["watch", &addr, "--edit", "f.c", &f, "--retries", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        text(&out.stderr).contains("edit shed after 2 retries"),
        "{}",
        text(&out.stderr)
    );
    assert_eq!(stop(&addr, daemon), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `watch --timeout-ms`: a daemon that never answers is an error after the
/// deadline, not a hang (and well before the 10 s default).
#[test]
fn watch_timeout_turns_a_silent_daemon_into_an_error() {
    let (addr, daemon) = scripted_daemon(None);
    let started = Instant::now();
    let out = sga(&["watch", &addr, "--status", "--timeout-ms", "200"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "{:?}",
        started.elapsed()
    );
    assert_eq!(stop(&addr, daemon), 1);
}
