//! Per-request telemetry under concurrent daemon load: with several
//! handlers serving `/assess` over corpora of very different sizes at
//! once, every response's cache-hit and trace-digest headers must equal
//! those of the same request served alone, and every flight-recorder
//! row must bill that request's allocations only.

use adsafe::corpus::{generate, ApolloSpec};
use adsafe::trace::json::Json;
use adsafe_serve::http::{self, Response};
use adsafe_serve::{ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

#[global_allocator]
static ALLOC: adsafe::trace::alloc::CountingAlloc = adsafe::trace::alloc::CountingAlloc;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("adsafe-serve-scope-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn write_corpus(tag: &str, files: &[(String, String)]) -> PathBuf {
    let root = temp_dir(tag);
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    root
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream
        .write_all(&http::encode_request(method, path, &[], body.as_bytes()))
        .expect("send request");
    http::read_response(&mut BufReader::new(stream)).expect("read response")
}

/// The headers that must not depend on concurrent traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Telemetry {
    cache_hits: String,
    trace_digest: String,
}

/// One `POST /assess`; returns the telemetry headers and the run ID.
fn assess(addr: SocketAddr, dir: &Path) -> (Telemetry, String) {
    let body = format!("{{\"dir\":\"{}\",\"jobs\":1}}", dir.display());
    let resp = request(addr, "POST", "/assess", &body);
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let header = |name: &str| resp.header(name).unwrap_or_else(|| panic!("{name}")).to_string();
    let telemetry = Telemetry {
        cache_hits: header("X-Adsafe-Cache-Hits"),
        trace_digest: header("X-Adsafe-Trace-Digest"),
    };
    (telemetry, header("X-Adsafe-Run-Id"))
}

#[test]
fn concurrent_requests_report_exactly_their_solo_telemetry() {
    let small_files: Vec<(String, String)> = vec![
        ("control/pid.cc".into(), "int Step(int err) { return err < 0 ? -err : err; }\n".into()),
        ("control/pid.h".into(), "int Step(int err);\n".into()),
    ];
    let large_files: Vec<(String, String)> =
        generate(&ApolloSpec::test_scale()).into_iter().map(|f| (f.path, f.text)).collect();
    let bytes = |files: &[(String, String)]| files.iter().map(|(_, t)| t.len()).sum::<usize>();
    assert!(bytes(&large_files) >= 10 * bytes(&small_files), "the corpora differ by 10x");
    let small = write_corpus("small", &small_files);
    let large = write_corpus("large", &large_files);

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handlers: 4,
        jobs: 1,
        ..ServeConfig::default()
    })
    .expect("bind 127.0.0.1:0");
    let addr = server.addr();

    // Solo: a cold request fills the resident store, then the warm
    // request is the reference every concurrent request must match.
    let mut small_runs = Vec::new();
    let mut large_runs = Vec::new();
    for (dir, runs) in [(&small, &mut small_runs), (&large, &mut large_runs)] {
        let (_, cold_run) = assess(addr, dir);
        runs.push(cold_run);
    }
    let (small_solo, run) = assess(addr, &small);
    small_runs.push(run);
    let (large_solo, run) = assess(addr, &large);
    large_runs.push(run);
    assert_eq!(small_solo.cache_hits, "2");
    assert_eq!(large_solo.cache_hits, large_files.len().to_string());

    // Concurrent: four clients per corpus, three requests each.
    let results: Vec<(bool, Telemetry, String)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..8)
            .map(|c| {
                let is_small = c % 2 == 1;
                let dir: &Path = if is_small { &small } else { &large };
                s.spawn(move || {
                    (0..3)
                        .map(|_| {
                            let (t, run) = assess(addr, dir);
                            (is_small, t, run)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    for (is_small, telemetry, run) in results {
        let solo = if is_small { &small_solo } else { &large_solo };
        assert_eq!(&telemetry, solo, "run {run} (small corpus: {is_small})");
        if is_small {
            small_runs.push(run)
        } else {
            large_runs.push(run)
        }
    }

    // Flight recorder: every small-corpus request allocated less than
    // every large-corpus one.
    let log = request(addr, "GET", "/requests?endpoint=assess", "").body_text();
    let bill_of = |runs: &[String]| -> Vec<u64> {
        let rows: Vec<Json> = log.lines().map(|l| Json::parse(l).expect("row parses")).collect();
        runs.iter()
            .map(|run| {
                let row = rows
                    .iter()
                    .find(|r| r.get("run").and_then(Json::as_str) == Some(run.as_str()))
                    .unwrap_or_else(|| panic!("row for {run}"));
                row.get("alloc_bytes").and_then(Json::as_f64).expect("alloc_bytes") as u64
            })
            .collect()
    };
    let small_bills = bill_of(&small_runs);
    let large_bills = bill_of(&large_runs);
    let small_max = small_bills.iter().max().copied().unwrap();
    let large_min = large_bills.iter().min().copied().unwrap();
    assert!(small_max > 0, "the daemon profiles every request");
    assert!(
        small_max < large_min,
        "small-corpus bills {small_bills:?} must all be below large-corpus bills {large_bills:?}"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&small);
    let _ = std::fs::remove_dir_all(&large);
}
