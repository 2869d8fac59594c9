//! The closed-loop client shared by the three read workloads, and the
//! attribution of recorded spans to requests.

use std::thread;
use std::time::{Duration, Instant};

use hc_core::dataset::PointId;
use hc_serve::{QueryOutcome, QueryServer, Ticket};

use crate::trace::{Op, Span, Tracer};

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Requests(usize),
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Done,
    Degraded,
    Failed,
}

/// One request as the client saw it, plus its span breakdown when traced.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the query in the workload's pool.
    pub idx: usize,
    pub outcome: Outcome,
    pub ids: Vec<PointId>,
    /// Client-observed duration, from just before submit to the answer.
    pub latency_ns: u64,
    pub queue_wait_ns: u64,
    /// Program-reported pages read during the request (`QueryResponse`).
    pub io_pages: u64,
    /// Program-reported cache hits (`QueryResponse`).
    pub cache_hits: u64,
    pub layers: Option<Breakdown>,
}

/// Where one request's time went, from the spans recorded around it.
/// Times are exclusive (self) nanoseconds unless named `*_incl`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    pub total: u64,
    /// Client time not covered by the worker's service interval: queue
    /// wait, wake-ups and the hand-back of the answer (hc-serve).
    pub serve: u64,
    pub queue_wait: u64,
    /// Engine time outside every decorated call (hc-query).
    pub query: u64,
    pub index_gen: u64,
    pub index_leaf_bounds: u64,
    pub cache_lookup: u64,
    pub cache_admit: u64,
    pub node_lookup: u64,
    pub node_admit: u64,
    /// Broker self time: `read_point` above the broker minus the raw store
    /// calls it made (hc-io).
    pub io: u64,
    pub io_incl: u64,
    pub storage: u64,
    pub candidates: u64,
    pub lookups: u64,
    pub hits: u64,
    pub admits: u64,
    pub node_lookups: u64,
    pub node_hits: u64,
    /// `read_point` calls the engine made into the broker.
    pub fetches: u64,
    /// ... of which the query's own page buffer already held the page.
    pub fetches_buffered: u64,
    /// `read_point` calls that reached the raw store.
    pub store_reads: u64,
    /// ... of which needed a physical page read.
    pub store_physical: u64,
    /// |sum of self times - total|: zero when every span nests inside its
    /// parent and the service interval inside the request.
    pub reconcile_err: u64,
    /// Smallest self time, signed: negative means overlapping children.
    pub min_self: i64,
    /// Spans that started outside the request.
    pub stray: u64,
}

impl Breakdown {
    /// Self times sum to the request and none is negative. The service
    /// interval is placed on the client's clock from the submit instant the
    /// client saw, which precedes the server's by at most the dispatch
    /// time, so the sum may be off by that much plus 10 µs or 0.5%.
    pub fn reconciles(&self) -> bool {
        let eps = self.dispatch() + (self.total / 200).max(10_000);
        self.stray == 0 && self.min_self >= 0 && self.reconcile_err <= eps
    }

    pub fn dispatch(&self) -> u64 {
        self.serve.saturating_sub(self.queue_wait)
    }
}

fn overlap(a: (u64, u64), b: (u64, u64)) -> u64 {
    a.1.min(b.1).saturating_sub(a.0.max(b.0))
}

/// Attribute `spans` to a request seen by the client over `request` whose
/// worker served it over `service` (both in tracer nanoseconds). The
/// server runs one worker, so every span it records while the request is
/// open is the request's; a span's parent is the innermost span of lower
/// depth that was open when it started.
pub fn attribute(spans: &mut [Span], request: (u64, u64), service: (u64, u64)) -> Breakdown {
    let mut b = Breakdown {
        total: request.1 - request.0,
        ..Breakdown::default()
    };
    spans.sort_by_key(|s| (s.start, s.depth));
    let mut covered = vec![0u64; spans.len()];
    let mut covered_service = 0u64;
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let s = spans[i];
        if s.start < request.0 || s.start > request.1 {
            b.stray += 1;
            continue;
        }
        while let Some(&top) = open.last() {
            if spans[top].depth < s.depth && spans[top].end > s.start {
                break;
            }
            open.pop();
        }
        match open.last() {
            Some(&parent) => {
                covered[parent] +=
                    overlap((s.start, s.end), (spans[parent].start, spans[parent].end))
            }
            None => covered_service += overlap((s.start, s.end), service),
        }
        open.push(i);
    }

    let service_len = service.1 - service.0;
    b.serve = b.total - overlap(service, request);
    let query = service_len as i64 - covered_service as i64;
    b.query = query.max(0) as u64;
    let mut min_self = query.min(b.serve as i64);
    let mut sum = b.serve as i64 + query;
    for (s, &cov) in spans.iter().zip(&covered) {
        if s.start < request.0 || s.start > request.1 {
            continue;
        }
        let own = s.dur() as i64 - cov as i64;
        min_self = min_self.min(own);
        sum += own;
        let own = own.max(0) as u64;
        let (a, hits) = (u64::from(s.a), u64::from(s.b));
        match s.op {
            Op::Candidates => {
                b.index_gen += own;
                b.candidates += a;
            }
            Op::LeafBounds => b.index_leaf_bounds += own,
            Op::CacheLookup => {
                b.cache_lookup += own;
                b.lookups += a;
                b.hits += hits;
            }
            Op::CacheAdmit => {
                b.cache_admit += own;
                b.admits += 1;
            }
            Op::NodeLookup => {
                b.node_lookup += own;
                b.node_lookups += 1;
                b.node_hits += hits;
            }
            Op::NodeAdmit => b.node_admit += own,
            Op::IoRead => {
                b.io += own;
                b.io_incl += s.dur();
                b.fetches += 1;
                b.fetches_buffered += a;
            }
            Op::StorageRead => {
                b.storage += own;
                b.store_reads += 1;
                b.store_physical += 1 - a;
            }
        }
    }
    b.min_self = min_self;
    b.reconcile_err = (sum - b.total as i64).unsigned_abs();
    b
}

/// Poll `ticket` until the answer is there, giving way to any other
/// runnable thread between polls. run.py runs the read workloads on one
/// core: the loop is sequential, so the worker gets the core as soon as
/// the client yields, and the core never idles. On a virtual machine an
/// idle core wakes up to milliseconds late, and a client and worker on two
/// cores woke each other across cores; both showed in query_p99_ms.
fn poll(ticket: &Ticket) -> QueryOutcome {
    loop {
        if let Some(outcome) = ticket.wait_timeout(Duration::ZERO) {
            return outcome;
        }
        thread::yield_now();
    }
}

/// Drive `server` with one client in a closed loop: each request is sent
/// when the previous answer arrives. `next` yields pool indices.
pub fn closed_loop(
    server: &QueryServer,
    pool: &[Vec<f32>],
    next: &mut dyn FnMut() -> usize,
    k: usize,
    budget: Budget,
    traced: bool,
) -> (Vec<Sample>, Duration) {
    let tracer = Tracer::global();
    tracer.drain();
    let mut samples = Vec::new();
    let started = Instant::now();
    loop {
        match budget {
            Budget::Seconds(s) if started.elapsed().as_secs_f64() >= s => break,
            Budget::Requests(n) if samples.len() >= n => break,
            _ => {}
        }
        let idx = next();
        let query = pool[idx].clone();
        let t0 = Instant::now();
        let outcome = server.submit(query, k, None).map(|ticket| poll(&ticket));
        let t1 = Instant::now();
        let mut sample = Sample {
            idx,
            outcome: Outcome::Failed,
            ids: Vec::new(),
            latency_ns: (t1 - t0).as_nanos() as u64,
            queue_wait_ns: 0,
            io_pages: 0,
            cache_hits: 0,
            layers: None,
        };
        let response = match outcome {
            Ok(QueryOutcome::Done(r)) => {
                sample.outcome = Outcome::Done;
                Some(r)
            }
            Ok(QueryOutcome::Degraded { response, .. }) => {
                sample.outcome = Outcome::Degraded;
                Some(response)
            }
            _ => None,
        };
        if let Some(r) = response {
            sample.queue_wait_ns = r.queue_wait.as_nanos() as u64;
            sample.io_pages = r.io_pages;
            sample.cache_hits = r.cache_hits as u64;
            if traced {
                let mut spans = tracer.drain();
                let begin = tracer.ns(t0);
                let service = (
                    begin + r.queue_wait.as_nanos() as u64,
                    begin + r.latency.as_nanos() as u64,
                );
                let mut layers = attribute(&mut spans, (begin, tracer.ns(t1)), service);
                layers.queue_wait = sample.queue_wait_ns;
                sample.layers = Some(layers);
            }
            sample.ids = r.ids;
        }
        samples.push(sample);
    }
    (samples, started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, depth: u8, start: u64, end: u64, a: u32) -> Span {
        Span {
            op,
            depth,
            start,
            end,
            a,
            b: 0,
        }
    }

    #[test]
    fn nested_spans_reconcile() {
        let mut spans = vec![
            span(Op::StorageRead, 1, 40, 50, 0),
            span(Op::Candidates, 0, 20, 30, 7),
            span(Op::IoRead, 0, 35, 60, 0),
        ];
        let b = attribute(&mut spans, (0, 100), (10, 90));
        assert!(b.reconciles(), "{b:?}");
        assert_eq!(b.min_self, 10);
        assert_eq!(b.serve, 20);
        assert_eq!(b.index_gen, 10);
        assert_eq!(b.io, 15);
        assert_eq!(b.io_incl, 25);
        assert_eq!(b.storage, 10);
        assert_eq!(b.query, 80 - 10 - 25);
        assert_eq!(b.candidates, 7);
        assert_eq!(b.store_physical, 1);
        assert_eq!(b.reconcile_err, 0);
    }

    #[test]
    fn a_span_outside_the_service_interval_does_not_reconcile() {
        // The call ends 60 µs after the worker claims to have finished,
        // more than the 20 µs of dispatch time can explain.
        let mut spans = vec![span(Op::Candidates, 0, 80_000, 150_000, 1)];
        let b = attribute(&mut spans, (0, 100_000), (10_000, 90_000));
        assert!(!b.reconciles(), "{b:?}");
        assert_eq!(b.reconcile_err, 60_000);
    }

    #[test]
    fn overlapping_children_make_a_negative_self_time() {
        let mut spans = vec![
            span(Op::IoRead, 0, 10, 20, 0),
            span(Op::StorageRead, 1, 11, 19, 0),
            span(Op::StorageRead, 1, 12, 19, 0),
        ];
        let b = attribute(&mut spans, (0, 30), (5, 25));
        assert!(b.min_self < 0, "{b:?}");
        assert!(!b.reconciles());
    }
}
