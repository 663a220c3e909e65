//! `serve-small`: an in-process daemon over a small generated corpus,
//! driven by an open loop of `POST /assess` requests.

use crate::assess::{reference_run, write_trace};
use crate::stats::{growing_backlog, mean, median, rps_at_slo, tail, Sample, Step};
use crate::traced::{self, Facts, PassInput};
use crate::{cpu, metric, repeated_setup, triples, Args, Metric, Outcome, Tally, WorkDir};
use adsafe::corpus::{generate, ApolloSpec};
use adsafe::render::deterministic_report_markdown;
use adsafe::rulequery::RulePack;
use adsafe::trace::json::Json;
use adsafe::{Assessment, AssessmentOptions, AssessmentReport, MemoryFactsStore};
use adsafe_ledger::Ledger;
use adsafe_serve::http::{self, Response};
use adsafe_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scale of the paper corpus served: 11 files, ≈13k lines.
const CORPUS_SCALE: f64 = 0.045;
/// Nominal arrival rate, requests/s: below the daemon's knee (30–50
/// req/s on a shared 2-core machine, lower while other tenants load it),
/// so the nominal figures measure service, not queueing; the ladder
/// measures the knee.
const NOMINAL_RPS: f64 = 20.0;
/// Share of `--seconds` spent at the nominal rate (250 requests in a
/// 25-second run); in-process assessments take the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Bursts the nominal-rate load is split into, each after a stretch of
/// in-process assessments. Other tenants of a shared machine change its
/// speed from one ten-second stretch to the next; spread over the run,
/// both gated figures average over those stretches.
const CHUNKS: usize = 5;
/// The `rps_at_slo` ladder: from 25 req/s up in 8% steps to 100 req/s.
/// It starts below the knee even while other tenants slow the machine
/// (the knee fell from ≈48 to ≈30 req/s on a loaded 2-core host), so
/// the answer comes from interpolating between two measured rungs.
const LADDER_START_RPS: f64 = 25.0;
const LADDER_STEP: f64 = 1.08;
const LADDER_END_RPS: f64 = 100.0;
/// Requests per ladder rung.
const LADDER_REQUESTS: usize = 50;
/// The latency limit `rps_at_slo` holds each rung's tail to, seconds.
const SLO_LIMIT_S: f64 = 0.05;
/// A request not answered within this counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

struct State {
    /// `(module, absolute path, text)` of the corpus on disk.
    files: Vec<(String, String, String)>,
    reference: AssessmentReport,
    reference_bytes: Vec<u8>,
    server: Server,
    body: Vec<u8>,
    /// A resident store of this process's own, warmed like the
    /// daemon's, for the in-process assessments and the traced pass.
    store: Arc<MemoryFactsStore>,
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn setup(seed: u64, dir: &Path) -> Result<State, String> {
    let paper = ApolloSpec::paper_scale();
    let spec = ApolloSpec {
        modules: paper
            .modules
            .iter()
            .map(|m| m.scaled(CORPUS_SCALE))
            .collect(),
        seed,
    };
    let corpus_dir = dir.join("corpus");
    let generated = generate(&spec);
    eprintln!(
        "perfbench: seed {seed}: {} files, {} lines",
        generated.len(),
        generated
            .iter()
            .map(|f| f.text.lines().count())
            .sum::<usize>()
    );
    // The files as the daemon sees them: under their absolute paths,
    // which salt the facts-store keys.
    let mut files = triples(&generated);
    for (_, path, text) in &mut files {
        let p = corpus_dir.join(&*path);
        std::fs::create_dir_all(p.parent().expect("generated paths have a module dir"))
            .and_then(|()| std::fs::write(&p, &*text))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        *path = p.display().to_string();
    }
    let (reference, reference_bytes) = reference_run(&files, None);
    if reference.degraded {
        return Err("the reference run is degraded".into());
    }
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        handlers: parallelism(),
        cache_dir: Some(dir.join("cache")),
        recorder_cap: 1 << 16,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))?;
    let mut body = String::from("{\"dir\":");
    adsafe::trace::json::write_escaped(&mut body, &corpus_dir.display().to_string());
    body.push('}');
    let store = Arc::new(MemoryFactsStore::open(None));
    if !assess_once(&files, &store, &reference_bytes).1 {
        return Err("warming the in-process store produced different report bytes".into());
    }
    let state = State {
        files,
        reference,
        reference_bytes,
        server,
        body: body.into_bytes(),
        store,
    };
    // Warm the daemon's resident store: a cold request, then a warm one.
    let mut conn = None;
    for _ in 0..2 {
        let resp = post(&mut conn, state.server.addr(), &state.body)?;
        if !answer_ok(&resp, &state.reference_bytes) {
            return Err(format!("warm-up request answered {}", resp.status));
        }
    }
    Ok(state)
}

/// One keep-alive client connection.
type Conn = Option<BufReader<TcpStream>>;

fn post(conn: &mut Conn, addr: SocketAddr, body: &[u8]) -> Result<Response, String> {
    if conn.is_none() {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        *conn = Some(BufReader::new(s));
    }
    let r = conn.as_mut().expect("connected above");
    let wire = http::encode_request("POST", "/assess", &[("Host", "perfbench")], body);
    let result = r
        .get_mut()
        .write_all(&wire)
        .map_err(|e| format!("send: {e}"))
        .and_then(|()| http::read_response(r).map_err(|e| format!("receive: {e:?}")));
    match &result {
        Ok(resp) if resp.header("connection") != Some("close") => {}
        _ => *conn = None, // closed by the daemon (keep-alive cap) or broken
    }
    result
}

fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let wire = http::encode_request(
        "GET",
        path,
        &[("Host", "perfbench"), ("Connection", "close")],
        b"",
    );
    s.write_all(&wire).map_err(|e| e.to_string())?;
    let resp = http::read_response(&mut BufReader::new(s)).map_err(|e| format!("{e:?}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path} answered {}", resp.status));
    }
    Ok(resp.body_text())
}

fn answer_ok(resp: &Response, reference: &[u8]) -> bool {
    resp.status == 200
        && resp.header("x-adsafe-degraded") == Some("false")
        && resp.body == reference
}

/// Sends `count` requests due at `rate`/s from now, over at most `conns`
/// keep-alive connections; each due request goes out on the first free
/// connection. After a transport error (a timeout, a reset) the rest
/// count as failed without being sent, so a wedged daemon cannot hold
/// the run for `count` timeouts. Returns the samples in due order and
/// the processor seconds the generator's own threads used.
fn open_loop(state: &State, rate: f64, count: usize, conns: usize) -> (Vec<Sample>, f64) {
    let addr = state.server.addr();
    let next = AtomicUsize::new(0);
    let broken = AtomicBool::new(false);
    let origin = Instant::now() + Duration::from_millis(20);
    let secs = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    let mut generator_cpu = 0.0;
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let cpu_start = cpu::thread_seconds();
                    let mut conn: Conn = None;
                    let mut out = Vec::new();
                    loop {
                        let conn_free = Instant::now();
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if k >= count {
                            return (out, cpu::thread_seconds() - cpu_start);
                        }
                        let due = origin + Duration::from_secs_f64(k as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let ok = !broken.load(Ordering::SeqCst)
                            && match post(&mut conn, addr, &state.body) {
                                Ok(r) => answer_ok(&r, &state.reference_bytes),
                                Err(e) => {
                                    eprintln!("perfbench: request {k} failed: {e}");
                                    broken.store(true, Ordering::SeqCst);
                                    false
                                }
                            };
                        out.push(Sample {
                            due: k as f64 / rate,
                            conn_free: secs(conn_free),
                            sent: secs(sent),
                            done: secs(Instant::now()),
                            ok,
                        });
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            let (out, cpu_s) = w.join().expect("load thread panicked");
            all.extend(out);
            generator_cpu += cpu_s;
        }
        all
    });
    samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    (samples, generator_cpu)
}

/// Per-phase durations (ms) of the last `last` `/assess` requests, from
/// the daemon's flight recorder (`/requests`).
fn recorded_phases(addr: SocketAddr, last: usize) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let rows = get(addr, &format!("/requests?endpoint=assess&last={last}"))?;
    let mut by_phase: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in rows.lines().filter(|l| !l.trim().is_empty()) {
        let row = Json::parse(line)?;
        for p in row.get("phases").and_then(Json::as_arr).unwrap_or_default() {
            let (Some(name), Some(dur)) = (
                p.get("name").and_then(Json::as_str),
                p.get("dur_us").and_then(Json::as_f64),
            ) else {
                continue;
            };
            by_phase
                .entry(name.to_string())
                .or_default()
                .push(dur / 1e3);
        }
    }
    Ok(by_phase)
}

/// What the daemon and the load generator reported at the nominal rate.
pub struct DaemonView {
    /// Flight-recorder phase durations, ms.
    phases: BTreeMap<String, Vec<f64>>,
    reuse_ratio: f64,
    rejected: f64,
    /// Generator lag per request, ms.
    lag_ms: Vec<f64>,
    /// The codec's encode and decode of one request and response, µs.
    http_us: (f64, f64),
}

/// Request phases the flight recorder breaks out, reported as p50s.
const DAEMON_PHASES: [&str; 6] = ["parse", "checks", "metrics", "assess", "render", "write"];

/// The daemon's per-layer metrics; every one reads 0 on a workload that
/// runs no daemon (`None`).
pub fn daemon_metrics(view: Option<&DaemonView>) -> Vec<Metric> {
    let samples = |name: &str| {
        view.and_then(|v| v.phases.get(name))
            .filter(|s| !s.is_empty())
    };
    let p50 = |name: &str| samples(name).map_or(0.0, |s| median(s));
    // Queue wait is billed to the first request of each connection only.
    let queue_wait = samples("queue_wait");
    if let Some(q) = queue_wait {
        eprintln!(
            "perfbench: queue_wait from {} connection starts, tail p{}",
            q.len(),
            tail(q).1
        );
    }
    let mut m = vec![
        metric("serve.queue_wait.ms_p50", p50("queue_wait"), "ms"),
        metric(
            "serve.queue_wait.ms_tail",
            queue_wait.map_or(0.0, |q| tail(q).0),
            "ms",
        ),
    ];
    for ph in DAEMON_PHASES {
        m.push(metric(format!("serve.{ph}.ms_p50"), p50(ph), "ms"));
    }
    m.extend([
        metric(
            "serve.http.encode_us",
            view.map_or(0.0, |v| v.http_us.0),
            "us",
        ),
        metric(
            "serve.http.decode_us",
            view.map_or(0.0, |v| v.http_us.1),
            "us",
        ),
        metric(
            "serve.keepalive_reuse_ratio",
            view.map_or(0.0, |v| v.reuse_ratio),
            "ratio",
        ),
        metric(
            "serve.rejected_503",
            view.map_or(0.0, |v| v.rejected),
            "count",
        ),
        metric(
            "loadgen.lag_ms_tail",
            view.map_or(0.0, |v| tail(&v.lag_ms).0),
            "ms",
        ),
    ]);
    m
}

/// Encodes and decodes one `/assess` request and its response with the
/// daemon's codec, `REPS` times; mean µs per round.
fn http_codec(body: &[u8]) -> Result<(f64, f64), String> {
    const REPS: usize = 200;
    let req_body = br#"{"dir":"/corpus","jobs":1}"#;
    let resp = http::Response {
        status: 200,
        headers: vec![("Content-Type".into(), "text/markdown; charset=utf-8".into())],
        body: body.to_vec(),
    };
    let mut wire = (Vec::new(), Vec::new());
    let t = Instant::now();
    for _ in 0..REPS {
        wire.0 = http::encode_request("POST", "/assess", &[("Host", "perfbench")], req_body);
        wire.1.clear();
        http::write_response_conn(&mut wire.1, &resp, true).expect("writing to a Vec");
    }
    let enc = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let t = Instant::now();
    let mut decoded = true;
    for _ in 0..REPS {
        let req = http::read_request(&mut BufReader::new(&wire.0[..]));
        let back = http::read_response(&mut BufReader::new(&wire.1[..]));
        decoded &= matches!((req, back), (Ok(q), Ok(b)) if q.body == req_body && b.body == body);
    }
    let dec = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    if !decoded {
        return Err("HTTP codec round trip changed the bytes".into());
    }
    Ok((enc, dec))
}

/// One in-process assessment's wall and processor time, ms.
#[derive(Clone, Copy)]
struct Timed {
    wall_ms: f64,
    cpu_ms: f64,
}

/// The pipeline share of one request, timed in process: the assessment
/// the daemon runs (one job, a resident store, an empty rule pack), from
/// building the `Assessment` to holding the report bytes. Returns its
/// times and whether the bytes matched the reference.
fn assess_once(
    files: &[(String, String, String)],
    store: &Arc<MemoryFactsStore>,
    reference: &[u8],
) -> (Timed, bool) {
    let (t0, c0) = (Instant::now(), cpu::process_seconds());
    let mut a = Assessment::new().with_options(AssessmentOptions {
        jobs: 1,
        store: Some(Arc::clone(store)),
        rules: Some(Arc::new(RulePack::empty())),
        ..AssessmentOptions::default()
    });
    for (m, p, t) in files {
        a.add_file(m, p, t);
    }
    let report = a.run();
    let bytes = deterministic_report_markdown(&report).into_bytes();
    let timed = Timed {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        cpu_ms: (cpu::process_seconds() - c0) * 1e3,
    };
    (timed, bytes == reference && !report.degraded)
}

/// [`assess_once`] on the warm in-process store for `seconds` (at least
/// three times).
fn assess_loop(state: &State, seconds: f64, tally: &mut Tally) -> Vec<Timed> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut times = Vec::new();
    while Instant::now() < deadline || times.len() < 3 {
        let (timed, ok) = assess_once(&state.files, &state.store, &state.reference_bytes);
        times.push(timed);
        tally.check(ok);
    }
    times
}

/// The wall-clock figures a user of the program sees, reported with the
/// per-layer metrics: on a shared machine they move with its other
/// tenants too much to gate a change on (see `cpu.rs`).
pub fn wall_metrics(assess_p50: f64, request_p50: f64, request_tail: f64, rps: f64) -> Vec<Metric> {
    vec![
        metric("assess_ms_p50", assess_p50, "ms"),
        metric("request_ms_p50", request_p50, "ms"),
        metric("request_ms_tail", request_tail, "ms"),
        metric("rps_at_slo", rps, "req/s"),
    ]
}

/// Walks the `rps_at_slo` ladder up to the first rung that misses the
/// latency limit or builds a backlog; returns the interpolated rate.
fn ladder(state: &State, conns: usize, tally: &mut Tally) -> f64 {
    let mut steps = Vec::new();
    let mut rate = LADDER_START_RPS;
    while rate <= LADDER_END_RPS {
        let (samples, _) = open_loop(state, rate, LADDER_REQUESTS, conns);
        for s in &samples {
            tally.check(s.ok);
        }
        let lat: Vec<f64> = samples.iter().map(Sample::latency).collect();
        let step = Step {
            rate,
            tail: tail(&lat).0,
            backlog: growing_backlog(&samples, rate),
        };
        eprintln!(
            "perfbench: ladder {rate:.1} req/s: tail {:.1} ms, backlog {}",
            step.tail * 1e3,
            step.backlog
        );
        steps.push(step);
        if step.tail > SLO_LIMIT_S || step.backlog {
            break;
        }
        rate *= LADDER_STEP;
    }
    rps_at_slo(&steps, SLO_LIMIT_S)
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let (state, setup_s) =
        repeated_setup(|k| setup(args.seed, &work.path().join(format!("setup-{k}"))))?;
    let addr = state.server.addr();
    let conns = parallelism();
    let mut tally = Tally::default();

    // The run alternates in-process assessments with bursts at the
    // nominal rate, so both gated figures sample the whole run and not
    // one slow spell of the machine. The ladder feeds only the
    // wall-clock figures, so it runs in traced runs only, afterwards.
    let chunk = args.seconds / CHUNKS as f64;
    let burst = ((chunk * NOMINAL_SHARE * NOMINAL_RPS).round() as usize).max(4);
    let (mut assessed, mut nominal) = (Vec::new(), Vec::new());
    let mut daemon_cpu = 0.0;
    for _ in 0..CHUNKS {
        assessed.extend(assess_loop(
            &state,
            chunk * (1.0 - NOMINAL_SHARE),
            &mut tally,
        ));
        let cpu_start = cpu::process_seconds();
        let (samples, generator_cpu) = open_loop(&state, NOMINAL_RPS, burst, conns);
        // The daemon's share: the whole process over the burst, less
        // the load generator's own threads.
        daemon_cpu += cpu::process_seconds() - cpu_start - generator_cpu;
        nominal.extend(samples);
    }
    let request_cpu_ms = daemon_cpu * 1e3 / nominal.len() as f64;
    // A failed request is billed the timeout, so it misses any limit
    // and the figures stay finite.
    let timeout_s = REQUEST_TIMEOUT.as_secs_f64();
    let lat_ms: Vec<f64> = nominal
        .iter()
        .map(|s| s.latency().min(timeout_s) * 1e3)
        .collect();
    for s in &nominal {
        tally.check(s.ok);
    }
    let (p_tail, pct) = tail(&lat_ms);
    // The flight recorder's rows of exactly the nominal-rate requests.
    let phases = if args.trace {
        recorded_phases(addr, nominal.len())?
    } else {
        BTreeMap::new()
    };

    let rps = if args.trace {
        ladder(&state, conns, &mut tally)
    } else {
        0.0
    };
    let assess_ms: Vec<f64> = assessed.iter().map(|t| t.wall_ms).collect();
    let assess_cpu_ms: Vec<f64> = assessed.iter().map(|t| t.cpu_ms).collect();

    let counters = adsafe_serve::top::parse_metrics_text(&get(addr, "/metrics")?).counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let health = Json::parse(&get(addr, "/healthz")?)?;
    let mem_peak = health.get("mem_peak").and_then(Json::as_f64).unwrap_or(0.0);
    eprintln!(
        "perfbench: {} in-process assessments, p50 {:.2} ms wall, mean {:.2} ms processor; \
         {} requests at {NOMINAL_RPS} req/s: p50 {:.2} ms, p{pct} {p_tail:.2} ms, \
         {request_cpu_ms:.2} ms daemon processor time each",
        assess_ms.len(),
        median(&assess_ms),
        mean(&assess_cpu_ms),
        nominal.len(),
        median(&lat_ms),
    );

    let metrics = if args.trace {
        eprintln!("perfbench: rps_at_slo {rps:.1} req/s");
        let ledger = Ledger::open(&work.path().join("trace-ledger")).map_err(|e| e.to_string())?;
        let serial: Vec<f64> = assess_loop(&state, 0.0, &mut tally)
            .iter()
            .map(|t| t.wall_ms)
            .collect();
        let pass = traced::run_pass(&PassInput {
            files: &state.files,
            facts: Facts::Memory(&state.store),
            pack: RulePack::empty,
            reference: &state.reference,
            reference_bytes: &state.reference_bytes,
            ledger: &ledger,
        })?;
        tally.check(pass.counts.findings == state.reference.diagnostics.len());
        write_trace(&args.workload, &pass.tracer.chrome_json())?;
        let view = DaemonView {
            phases,
            reuse_ratio: counter("serve.keepalive.reuses") / counter("serve.requests").max(1.0),
            rejected: counter("serve.rejected"),
            lag_ms: nominal.iter().map(|s| s.lag() * 1e3).collect(),
            http_us: http_codec(&state.reference_bytes)?,
        };
        let mut m = traced::layer_metrics(&pass, median(&serial), median(&assess_ms));
        m.extend(daemon_metrics(Some(&view)));
        m.extend(wall_metrics(
            median(&assess_ms),
            median(&lat_ms),
            p_tail,
            rps,
        ));
        m
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("assess_cpu_ms", mean(&assess_cpu_ms), "ms"),
            metric("request_cpu_ms", request_cpu_ms, "ms"),
            metric("peak_live_mib", mem_peak / (1024.0 * 1024.0), "MiB"),
        ]
    };
    state.server.stop();
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}
