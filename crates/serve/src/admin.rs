//! Zero-dependency admin telemetry endpoint.
//!
//! [`QueryServer::serve_admin`] binds a `std::net::TcpListener` and spawns
//! an accept thread that hands each connection to its own short-lived
//! thread serving plain HTTP/1.1 (`Connection: close`, one request per
//! connection — an ops plane, not a data plane), so a stalled client
//! cannot delay anyone else's probe. Routes:
//!
//! * `GET /metrics` — Prometheus exposition text of the live registry,
//! * `GET /metrics.json` — the same snapshot as JSON (the report schema),
//! * `GET /healthz` — SLO-driven: 200 with `{"status":"healthy"|"warn"}`
//!   while serving is inside budget, **503** with `{"status":"critical"}`
//!   once the burn-rate monitor trips (load balancers eject on status
//!   code, so Critical must change the code, not just the body),
//! * `GET /tracez` — the slowest and most-degraded retained request
//!   traces as JSON,
//! * `GET /statusz` — worker pool state, queue depth, cache generation,
//!   uptime, SLO state and burn rates, and the recent ops event log.
//!
//! The listener is nonblocking with a ~5 ms accept poll so shutdown (drop
//! or [`AdminServer::shutdown`]) is prompt without platform-specific
//! socket tricks. Everything is `std`; no HTTP library exists in this
//! workspace and none is needed for five GET routes.
//!
//! The HTTP plumbing is generic over [`AdminHooks`]: `/metrics`,
//! `/metrics.json`, `/healthz`, and `/tracez` are derived from the hooks'
//! registry and SLO monitor, while `/statusz` delegates to a caller-built
//! closure — so other serving planes (the hc-fleet router) reuse the same
//! endpoint with their own status document via [`serve_admin_hooks`].

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hc_obs::slo::SloObjective;
use hc_obs::{export, MetricsRegistry, SloMonitor, SloState};

use crate::server::QueryServer;

/// How many traces `/tracez` returns per ranking.
const TRACEZ_LIMIT: usize = 32;

/// What an admin endpoint serves: the registry behind `/metrics`,
/// `/metrics.json`, and `/tracez`, the optional SLO monitor behind
/// `/healthz`, and a closure producing the full `/statusz` JSON body
/// (trailing newline included). [`QueryServer::serve_admin`] builds one
/// from its own worker-pool state; the fleet router builds one with a
/// per-shard status document.
pub struct AdminHooks {
    registry: MetricsRegistry,
    slo: Option<Arc<SloMonitor>>,
    statusz: Box<dyn Fn() -> String + Send + Sync>,
}

impl AdminHooks {
    pub fn new(
        registry: MetricsRegistry,
        slo: Option<Arc<SloMonitor>>,
        statusz: impl Fn() -> String + Send + Sync + 'static,
    ) -> Self {
        Self {
            registry,
            slo,
            statusz: Box::new(statusz),
        }
    }
}

/// Everything the admin thread needs, snapshotted from the [`QueryServer`]
/// at spawn time. Live values (queue depth, in-flight) come through
/// closures so the endpoint reports current state, not start-time state.
struct AdminState {
    registry: MetricsRegistry,
    slo: Option<Arc<SloMonitor>>,
    workers: usize,
    queue_capacity: usize,
    started: Instant,
    queue_depth: Box<dyn Fn() -> usize + Send + Sync>,
    in_flight: Box<dyn Fn() -> usize + Send + Sync>,
    accepting: Box<dyn Fn() -> bool + Send + Sync>,
    cache_generation: Box<dyn Fn() -> u64 + Send + Sync>,
    /// Live ingest status, when the server's backend is ingest-backed
    /// (`None` for the frozen point/tree backends).
    ingest_status: Option<Box<dyn Fn() -> hc_ingest::IngestStatus + Send + Sync>>,
}

/// A running admin endpoint. Dropping it (or calling
/// [`AdminServer::shutdown`]) stops the accept loop and joins the thread.
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// The address actually bound — with port 0 this is where the
    /// ephemeral port landed.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the admin thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl QueryServer {
    /// Bind `addr` (use `127.0.0.1:0` for an ephemeral port) and serve the
    /// admin routes over it until the returned handle is dropped. The
    /// endpoint holds clones/closures only — it never blocks serving, and
    /// it keeps answering while the query path is saturated (its whole
    /// point is visibility *during* incidents).
    pub fn serve_admin<A: ToSocketAddrs>(&self, addr: A) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let state = AdminState {
            registry: self.registry().clone(),
            slo: self.slo().cloned(),
            workers: self.worker_count(),
            queue_capacity: self.queue_capacity(),
            started: Instant::now() - self.uptime(),
            queue_depth: {
                let s = self.queue_handle();
                Box::new(move || s.len())
            },
            in_flight: {
                let s = self.in_flight_handle();
                Box::new(move || s.load(Ordering::Acquire))
            },
            accepting: {
                let s = self.accepting_handle();
                Box::new(move || s.load(Ordering::Acquire))
            },
            cache_generation: {
                let s = self.cache_generation_handle();
                Box::new(move || s())
            },
            ingest_status: self.ingest_engine().map(|engine| {
                let engine = Arc::clone(engine);
                Box::new(move || engine.status()) as Box<dyn Fn() -> _ + Send + Sync>
            }),
        };
        let hooks = AdminHooks::new(self.registry().clone(), self.slo().cloned(), move || {
            statusz(&state)
        });
        serve_admin_bound(listener, local, hooks)
    }
}

/// Bind `addr` and serve the admin routes for an arbitrary plane described
/// by `hooks` until the returned handle is dropped. This is the same
/// endpoint [`QueryServer::serve_admin`] runs — nonblocking accept loop,
/// one request per connection — with the `/statusz` document supplied by
/// the caller.
pub fn serve_admin_hooks<A: ToSocketAddrs>(
    addr: A,
    hooks: AdminHooks,
) -> std::io::Result<AdminServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    serve_admin_bound(listener, local, hooks)
}

fn serve_admin_bound(
    listener: TcpListener,
    local: SocketAddr,
    hooks: AdminHooks,
) -> std::io::Result<AdminServer> {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("hc-admin".into())
        .spawn(move || accept_loop(listener, hooks, stop_flag))?;
    Ok(AdminServer {
        addr: local,
        stop,
        join: Some(join),
    })
}

fn accept_loop(listener: TcpListener, state: AdminHooks, stop: Arc<AtomicBool>) {
    let state = &state;
    // The scope joins every connection thread before the loop returns.
    std::thread::scope(|scope| {
        while !stop.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Each connection gets its own thread, so a client that
                    // connects and then stays silent holds only that thread
                    // (for at most the read timeout), never the accept loop
                    // and the `/healthz` probes queued behind it. If no
                    // thread can be started the connection is dropped.
                    let _ = std::thread::Builder::new()
                        .name("hc-admin-conn".into())
                        .spawn_scoped(scope, move || handle_connection(stream, state));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });
}

/// Read the request line (plus whatever headers arrive with it) and route.
fn handle_connection(mut stream: TcpStream, state: &AdminHooks) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 2048];
    let mut filled = 0;
    // Read until the request line is complete (first CRLF); ignore the
    // rest — every route is a bare GET.
    loop {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if buf[..filled].windows(2).any(|w| w == b"\r\n") || filled == buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        }
    }
    let request_line = String::from_utf8_lossy(&buf[..filled]);
    let request_line = request_line.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            405,
            "application/json",
            "{\"error\":\"method not allowed\"}\n".to_owned(),
        )
    } else {
        route(path, state)
    };
    write_response(&mut stream, status, content_type, &body)
}

fn route(path: &str, state: &AdminHooks) -> (u16, &'static str, String) {
    // Strip any query string; routes take none.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4",
            export::to_prometheus(&state.registry.snapshot()),
        ),
        "/metrics.json" => (
            200,
            "application/json",
            export::to_json(&state.registry.snapshot(), TRACEZ_LIMIT),
        ),
        "/healthz" => healthz(state),
        "/tracez" => (200, "application/json", tracez(state)),
        "/statusz" => (200, "application/json", (state.statusz)()),
        _ => (
            404,
            "application/json",
            "{\"error\":\"not found\",\"routes\":[\"/metrics\",\"/metrics.json\",\"/healthz\",\"/tracez\",\"/statusz\"]}\n"
                .to_owned(),
        ),
    }
}

fn healthz(state: &AdminHooks) -> (u16, &'static str, String) {
    let slo_state = state
        .slo
        .as_ref()
        .map(|m| m.state())
        .unwrap_or(SloState::Healthy);
    // Load balancers act on the status code: Critical must flip it.
    let status = match slo_state {
        SloState::Critical => 503,
        SloState::Healthy | SloState::Warn => 200,
    };
    let monitored = state.slo.is_some();
    let incidents = state.slo.as_ref().map(|m| m.incidents()).unwrap_or(0);
    (
        status,
        "application/json",
        format!(
            "{{\"status\":\"{}\",\"monitored\":{monitored},\"incidents\":{incidents}}}\n",
            slo_state.as_str()
        ),
    )
}

fn tracez(state: &AdminHooks) -> String {
    let traces = state.registry.traces();
    let slowest = traces.slowest_by(TRACEZ_LIMIT, |t| t.latency_secs());
    let degraded = traces.slowest_by(TRACEZ_LIMIT, |t| {
        // Rank unanswered outcomes above degraded-but-answered, then by
        // how many candidates were lost.
        let base = if t.outcome.is_answered() { 0.0 } else { 1e9 };
        if t.missing > 0 || !t.outcome.is_answered() {
            base + t.missing as f64
        } else {
            f64::MIN
        }
    });
    let degraded: Vec<_> = degraded
        .into_iter()
        .filter(|t| t.missing > 0 || !t.outcome.is_answered())
        .collect();
    format!(
        "{{\"slowest\":{},\"degraded\":{}}}\n",
        export::traces_to_json(&slowest),
        export::traces_to_json(&degraded)
    )
}

fn statusz(state: &AdminState) -> String {
    let (slo_state, burns) = match &state.slo {
        None => ("unmonitored".to_owned(), String::from("[]")),
        Some(m) => {
            let entries: Vec<String> = SloObjective::ALL
                .iter()
                .map(|o| {
                    let b = m.burn_rates(*o);
                    format!(
                        "{{\"objective\":\"{}\",\"fast\":{:.4},\"slow\":{:.4}}}",
                        o.as_str(),
                        b.fast,
                        b.slow
                    )
                })
                .collect();
            (
                m.state().as_str().to_owned(),
                format!("[{}]", entries.join(",")),
            )
        }
    };
    // The ingest section only exists for the live-mutable backend; frozen
    // point/tree servers report `"ingest":null` so probes can distinguish
    // "not ingest-backed" from "ingest-backed but idle".
    let ingest = match &state.ingest_status {
        None => "null".to_owned(),
        Some(status) => {
            let s = status();
            format!(
                "{{\"wal_bytes\":{},\"wal_checkpoint_seq\":{},\"memtable_points\":{},\
                 \"memtable_tombstones\":{},\
                 \"segments\":{},\"segment_rows_live\":{},\"segment_tombstones\":{},\
                 \"manifest_generation\":{},\"seals\":{},\"compactions\":{}}}",
                s.wal_bytes,
                s.wal_checkpoint_seq,
                s.memtable_points,
                s.memtable_tombstones,
                s.segments,
                s.segment_rows_live,
                s.segment_tombstones,
                s.manifest_generation,
                s.seals,
                s.compactions
            )
        }
    };
    format!(
        "{{\"workers\":{},\"queue_capacity\":{},\"queue_depth\":{},\"in_flight\":{},\
         \"accepting\":{},\"cache_generation\":{},\"uptime_secs\":{:.3},\
         \"slo_state\":\"{}\",\"burn_rates\":{},\"ingest\":{},\"events\":{}}}\n",
        state.workers,
        state.queue_capacity,
        (state.queue_depth)(),
        (state.in_flight)(),
        (state.accepting)(),
        (state.cache_generation)(),
        state.started.elapsed().as_secs_f64(),
        slo_state,
        burns,
        ingest,
        export::events_to_json(&state.registry.events().to_vec())
    )
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
