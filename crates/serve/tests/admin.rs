//! Ops-plane integration tests: end-to-end request tracing through
//! [`QueryServer`], SLO feeding, and the admin telemetry endpoint over a
//! real `TcpStream`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_core::dataset::{Dataset, PointId};
use hc_core::histogram::classic::equi_width;
use hc_core::quantize::Quantizer;
use hc_core::scheme::{ApproxScheme, GlobalScheme};
use hc_index::traits::CandidateIndex;
use hc_obs::{MetricsRegistry, SloConfig, SloMonitor, SloState, TraceOutcome};
use hc_query::SharedParts;
use hc_serve::{QueryOutcome, QueryServer, ServeConfig, ShardedCompactCache, SubmitError};
use hc_storage::point_file::PointFile;

const N: usize = 64;
const DIM: usize = 2;

/// Every query scans everything — deterministic candidates, nonzero I/O.
struct ScanIndex;

impl CandidateIndex for ScanIndex {
    fn candidates(&self, _q: &[f32], _k: usize) -> Vec<PointId> {
        (0..N as u32).map(PointId).collect()
    }

    fn name(&self) -> &'static str {
        "scan"
    }
}

fn dataset() -> Dataset {
    Dataset::from_rows(
        &(0..N)
            .map(|i| vec![i as f32, (i * 3 % N) as f32])
            .collect::<Vec<_>>(),
    )
}

fn parts() -> SharedParts {
    SharedParts::new(Arc::new(ScanIndex), Arc::new(PointFile::new(dataset())))
}

fn scheme() -> Arc<dyn ApproxScheme> {
    let quant = Quantizer::new(0.0, N as f32, 256);
    Arc::new(GlobalScheme::new(equi_width(256, 64), quant, DIM))
}

fn shared_cache() -> Arc<ShardedCompactCache> {
    let s = scheme();
    Arc::new(ShardedCompactCache::lru(
        Arc::clone(&s),
        s.bytes_per_point() * N * 2,
        4,
    ))
}

fn query(i: usize) -> Vec<f32> {
    vec![(i % N) as f32 + 0.25, ((i * 3) % N) as f32 + 0.25]
}

/// Minimal HTTP GET over std TcpStream; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn traces_follow_requests_through_their_whole_life() {
    let registry = MetricsRegistry::new();
    let server = QueryServer::start(
        parts(),
        shared_cache(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        &registry,
    );
    // A normal request, a generously-deadlined request, and an expired one.
    let t0 = server.submit(query(0), 5, None).expect("admitted");
    assert!(matches!(t0.wait(), QueryOutcome::Done(_)));
    let t1 = server
        .submit(query(1), 5, Some(Instant::now() + Duration::from_secs(30)))
        .expect("admitted");
    match t1.wait() {
        QueryOutcome::Done(resp) => {
            let slack = resp.deadline_slack_us.expect("deadline was set");
            assert!(slack > 0, "30s deadline must leave positive slack");
        }
        other => panic!("expected Done, got {other:?}"),
    }
    let t2 = server
        .submit(query(2), 5, Some(Instant::now() - Duration::from_millis(5)))
        .expect("admitted");
    assert!(matches!(t2.wait(), QueryOutcome::TimedOut));

    let traces = registry.traces().to_vec();
    assert_eq!(traces.len(), 3, "one trace per request, recorded once");
    let by_seq = |seq: u64| traces.iter().find(|t| t.seq == seq).expect("trace");
    let done = by_seq(0);
    assert_eq!(done.outcome, TraceOutcome::Done);
    assert_eq!(done.candidates, N as u32);
    assert!(done.total_us > 0);
    assert!(!done.has_deadline);
    assert!(done.worker < 2);
    assert_eq!(done.cache_generation, 0);
    let deadlined = by_seq(1);
    assert!(deadlined.has_deadline);
    assert!(deadlined.deadline_slack_us > 0);
    let expired = by_seq(2);
    assert_eq!(expired.outcome, TraceOutcome::TimedOut);
    assert!(expired.has_deadline);
    assert!(
        expired.deadline_slack_us < 0,
        "expired deadline must show negative slack"
    );
    assert_eq!(expired.candidates, 0, "shed request never ran the engine");
    server.shutdown();
}

#[test]
fn queue_full_rejections_leave_traces_and_burn_the_slo() {
    let registry = MetricsRegistry::new();
    let slo = Arc::new(SloMonitor::new(
        SloConfig {
            availability_target: 0.9,
            fast_window: 4,
            slow_window: 16,
            min_events: 2,
            warn_burn: 1.0,
            critical_burn: 2.0,
            incident_dir: None,
            ..SloConfig::default()
        },
        &registry,
    ));
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        simulate_io_scale: Some(1.0),
        io_model: hc_storage::io_stats::IoModel::HDD,
        slo: Some(Arc::clone(&slo)),
        ..ServeConfig::default()
    };
    let server = QueryServer::start(parts(), shared_cache(), config, &registry);
    let mut tickets = Vec::new();
    let mut rejected = 0u32;
    for i in 0..12 {
        match server.submit(query(i), 5, None) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected: {other:?}"),
        }
    }
    assert!(rejected > 0, "burst must shed");
    for t in tickets {
        t.wait();
    }
    let traces = registry.traces().to_vec();
    let shed: Vec<_> = traces
        .iter()
        .filter(|t| t.outcome == TraceOutcome::QueueFull)
        .collect();
    assert_eq!(
        shed.len() as u32,
        rejected,
        "every rejection leaves a trace"
    );
    assert!(
        slo.state() > SloState::Healthy,
        "sustained shedding must burn the availability budget, state={:?}",
        slo.state()
    );
    server.shutdown();
}

#[test]
fn admin_endpoint_serves_all_routes() {
    let registry = MetricsRegistry::new();
    registry.event("maint.rebuild", "generation 1");
    let server = QueryServer::start(
        parts(),
        shared_cache(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        &registry,
    );
    let admin = server.serve_admin("127.0.0.1:0").expect("bind admin");
    let addr = admin.local_addr();
    // Serve some traffic so every surface has content.
    for i in 0..8 {
        let t = server.submit(query(i), 5, None).expect("admitted");
        assert!(matches!(t.wait(), QueryOutcome::Done(_)));
    }

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE serve_completed counter"));
    assert!(body.contains("serve_completed 8"));
    assert!(
        body.contains("query_count{series=\"worker0\"}")
            || body.contains("query_count{series=\"worker1\"}"),
        "per-worker engine series must be exported:\n{body}"
    );
    assert!(
        !body.contains("}_count"),
        "exposition suffix bug resurfaced"
    );

    let (status, body) = http_get(addr, "/metrics.json");
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"serve.completed\",\"value\":8"));
    assert!(body.contains("\"slow_queries\":[{\"seq\":"));
    assert!(body.contains("\"events\":[{\"at_us\":"));

    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"healthy\""));
    assert!(body.contains("\"monitored\":false"));

    let (status, body) = http_get(addr, "/tracez");
    assert_eq!(status, 200);
    assert!(body.contains("\"slowest\":[{\"seq\":"));
    assert!(body.contains("\"outcome\":\"done\""));
    assert!(body.contains("\"degraded\":[]"));

    let (status, body) = http_get(addr, "/statusz");
    assert_eq!(status, 200);
    assert!(body.contains("\"workers\":2"));
    assert!(body.contains("\"cache_generation\":0"));
    assert!(body.contains("\"slo_state\":\"unmonitored\""));
    assert!(body.contains("\"kind\":\"maint.rebuild\""));

    let (status, body) = http_get(addr, "/nope");
    assert_eq!(status, 404);
    assert!(body.contains("\"routes\""));

    admin.shutdown();
    server.shutdown();
}

#[test]
fn healthz_flips_to_503_on_critical_and_recovers() {
    let registry = MetricsRegistry::new();
    let incident_dir =
        std::env::temp_dir().join(format!("hc-admin-healthz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&incident_dir);
    let slo = Arc::new(SloMonitor::new(
        SloConfig {
            availability_target: 0.9,
            exactness_target: 0.9,
            fast_window: 8,
            slow_window: 16,
            min_events: 4,
            warn_burn: 1.0,
            critical_burn: 2.0,
            incident_dir: Some(incident_dir.clone()),
            ..SloConfig::default()
        },
        &registry,
    ));
    let server = QueryServer::start(
        parts(),
        shared_cache(),
        ServeConfig {
            workers: 1,
            slo: Some(Arc::clone(&slo)),
            ..ServeConfig::default()
        },
        &registry,
    );
    let admin = server.serve_admin("127.0.0.1:0").expect("bind admin");
    let addr = admin.local_addr();

    // Healthy first.
    for i in 0..8 {
        server.submit(query(i), 5, None).expect("ok").wait();
    }
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);

    // Burn availability: submit with already-expired deadlines — every one
    // is shed by the worker as TimedOut.
    for i in 0..16 {
        let t = server
            .submit(query(i), 5, Some(Instant::now() - Duration::from_millis(1)))
            .expect("admitted");
        assert!(matches!(t.wait(), QueryOutcome::TimedOut));
    }
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "Critical must flip the status code: {body}");
    assert!(body.contains("\"status\":\"critical\""));
    let incident = slo.last_incident_path().expect("incident recorded");
    assert!(incident.exists(), "flight recorder must write the incident");
    let incident_body = std::fs::read_to_string(&incident).expect("readable");
    assert!(incident_body.contains("\"outcome\":\"timed_out\""));

    // Recover: a fast window of clean answers clears the state.
    for i in 0..32 {
        server.submit(query(i), 5, None).expect("ok").wait();
    }
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "recovery must restore 200: {body}");
    // statusz reflects the arc: transitions recorded as events.
    let (_, statusz) = http_get(addr, "/statusz");
    assert!(statusz.contains("slo.transition"));
    assert!(statusz.contains("slo.incident"));

    admin.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&incident_dir);
}

/// A client that connects and never sends a byte must not delay anyone
/// else's probe: the endpoint serves each connection on its own thread, so
/// `/healthz` answers well inside the 500 ms read timeout the silent
/// connection is holding.
#[test]
fn silent_client_does_not_stall_healthz() {
    let registry = MetricsRegistry::new();
    let server = QueryServer::start(
        parts(),
        shared_cache(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        &registry,
    );
    let admin = server.serve_admin("127.0.0.1:0").expect("bind admin");
    let addr = admin.local_addr();
    // Connected first, so the listener's FIFO backlog hands it to the
    // accept loop before any probe below.
    let silent = TcpStream::connect(addr).expect("connect silent client");
    for _ in 0..3 {
        let started = Instant::now();
        let (status, body) = http_get(addr, "/healthz");
        let took = started.elapsed();
        assert_eq!(status, 200, "{body}");
        assert!(
            took < Duration::from_millis(200),
            "/healthz took {took:?} behind a silent client"
        );
    }
    drop(silent);
    admin.shutdown();
    server.shutdown();
}
