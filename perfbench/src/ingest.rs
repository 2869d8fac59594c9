//! `ingest-mixed`: one writer and one reader, each an open loop at a fixed
//! rate, against a live-mutable `IngestEngine`. The benchmark calls the
//! engine directly and times each call on its own threads, so a traced run
//! executes the same code as an untraced one.
//!
//! The mutation stream (preload and measured writes) is a fixture seeded by
//! [`DATA_SEED`]; the run seed picks the reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hc_core::dataset::PointId;
use hc_ingest::{IngestConfig, IngestEngine, WalDevice};
use hc_obs::MetricsRegistry;
use hc_workload::{MutationMix, MutationOp, MutationStream};

use crate::common::{derive_seed, Args, DATA_SEED, K, RECALL_QUERIES};
use crate::stats::{mean, median, peak_rss_mb, quantile, ratio, tail, Metrics};
use crate::stream::Stratified;

const DIM: usize = 150;
/// Ids never run out, so the 6/2/2 insert/upsert/delete mix holds.
const ID_SPACE: u32 = 1 << 24;
/// Mutations applied at set-up, before the measured window.
const PRELOAD_OPS: usize = 10_000;
/// Writes per sealed segment: the writer seals after this many, then asks
/// for a compaction (which runs once four segments have piled up).
const SEAL_EVERY: usize = 500;
const WRITE_RATE: f64 = 250.0;
/// A read takes about a quarter of its slot, so a millisecond stall of a
/// shared machine delays one read instead of building a backlog.
const READ_RATE: f64 = 90.0;
/// Set-ups per run: the preload is short, so more of them steady the
/// median.
const INGEST_SETUP_REPS: usize = 9;
/// Distinct query vectors, drawn near live points after the preload.
const QUERY_POOL: usize = 400;
/// Back-to-back reads on the preloaded engine before the measured window:
/// the first second of reads after a set-up runs slower than the rest.
const WARMUP: Duration = Duration::from_secs(1);

fn config() -> IngestConfig {
    let mut config = IngestConfig::new(DIM);
    // The writer's own cadence is the only seal trigger: the memtable
    // budget sits far above a segment's worth of writes.
    config.memtable_max_bytes = 64 << 20;
    config.admission_max_bytes = 128 << 20;
    config
}

fn apply(engine: &IngestEngine, op: MutationOp) -> bool {
    match op {
        MutationOp::Insert { id, vector } => engine.insert(id, vector).is_ok(),
        MutationOp::Delete { id } => engine.delete(id).is_ok(),
    }
}

/// Seal, then compact if the stack is deep enough: `(seal ms, compact ms)`.
fn seal_and_compact(engine: &IngestEngine) -> (Option<f64>, Option<f64>) {
    let t = Instant::now();
    let sealed = engine.seal();
    let seal_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let compacted = engine.maybe_compact();
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;
    (sealed.then_some(seal_ms), compacted.then_some(compact_ms))
}

/// The mutation fixture: preload first, then the measured writes.
fn mutations() -> MutationStream {
    MutationStream::new(
        DIM,
        ID_SPACE,
        MutationMix::default(),
        derive_seed(DATA_SEED, 21),
    )
}

struct Loaded {
    engine: IngestEngine,
    stream: MutationStream,
    pool: Vec<Vec<f32>>,
}

/// Engine over a fresh WAL device, the preload, and the query pool.
fn setup() -> Loaded {
    let engine = IngestEngine::new(
        Arc::new(WalDevice::new()),
        config(),
        &MetricsRegistry::new(),
    );
    let mut stream = mutations();
    for i in 1..=PRELOAD_OPS {
        assert!(apply(&engine, stream.next_op()), "preload write refused");
        if i.is_multiple_of(SEAL_EVERY) {
            seal_and_compact(&engine);
        }
    }
    // Queries come from a copy of the stream so the mutation sequence the
    // writer replays stays the stream's own.
    let mut queries = stream.clone();
    let pool = (0..QUERY_POOL).map(|_| queries.query()).collect();
    Loaded {
        engine,
        stream,
        pool,
    }
}

struct Read {
    idx: usize,
    /// Writes acknowledged before the query started / issued before it
    /// returned: the live set it saw is one of the states in between.
    acked_before: u64,
    issued_after: u64,
    late_ns: u64,
    latency_ns: u64,
    call_ns: u64,
    hits: Vec<PointId>,
    missing: usize,
    io_pages: usize,
    segments: usize,
    considered: usize,
    pruned: usize,
}

struct Write {
    ok: bool,
    late_ns: u64,
    latency_ns: u64,
    call_ns: u64,
}

/// Sleep until `due`; returns how late the generator is.
fn sleep_until(due: Instant) -> u64 {
    let now = Instant::now();
    if now < due {
        thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_nanos() as u64
}

/// Busy-wait until `due`; returns how late the generator is. The reader
/// spins because a sleeping thread on a virtual machine can wake
/// milliseconds late, and in an open loop that lateness is read latency.
/// The writer sleeps: its lateness shows only in the write metrics, and a
/// second spinning core slowed reads by up to a third, by a different
/// amount run to run.
fn spin_until(due: Instant) -> u64 {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    Instant::now().saturating_duration_since(due).as_nanos() as u64
}

/// Run `idx` against the engine and time it from `due`.
fn read(
    engine: &IngestEngine,
    pool: &[Vec<f32>],
    idx: usize,
    due: Instant,
    acked: &AtomicU64,
    issued: &AtomicU64,
) -> Read {
    let late_ns = spin_until(due);
    let acked_before = acked.load(Ordering::SeqCst);
    let t = Instant::now();
    let answer = engine.query(&pool[idx], K);
    let end = Instant::now();
    let issued_after = issued.load(Ordering::SeqCst);
    Read {
        idx,
        acked_before,
        issued_after,
        late_ns,
        latency_ns: (end - due).as_nanos() as u64,
        call_ns: (end - t).as_nanos() as u64,
        hits: answer.hits.iter().map(|&(_, id)| id).collect(),
        missing: answer.missing.len(),
        io_pages: answer.io_pages,
        segments: answer.segments_visited,
        considered: answer.considered,
        pruned: answer.pruned,
    }
}

pub struct IngestRun {
    setup_secs: Vec<f64>,
    /// Untimed but checked, like every measured read.
    warmup: Vec<Read>,
    reads: Vec<Read>,
    writes: Vec<Write>,
    seals_ms: Vec<f64>,
    compacts_ms: Vec<f64>,
    elapsed: Duration,
    incorrect: usize,
    recall: Vec<f64>,
    space_amp: f64,
}

pub fn run(args: &Args) -> IngestRun {
    let mut setup_secs = Vec::new();
    let mut loaded = None;
    for _ in 0..INGEST_SETUP_REPS {
        drop(loaded.take());
        let t = Instant::now();
        loaded = Some(setup());
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let Loaded {
        engine,
        mut stream,
        pool,
    } = loaded.expect("at least one set-up");

    let n_writes = (WRITE_RATE * args.seconds).ceil() as usize;
    let n_reads = (READ_RATE * args.seconds).ceil() as usize;
    let ops: Vec<MutationOp> = (0..n_writes).map(|_| stream.next_op()).collect();
    let mut mix = Stratified::new(
        &vec![1.0; pool.len()],
        pool.len(),
        derive_seed(args.seed, 22),
    );
    let picks: Vec<usize> = (0..n_reads).map(|_| mix.next_index()).collect();

    let issued = AtomicU64::new(PRELOAD_OPS as u64);
    let acked = AtomicU64::new(PRELOAD_OPS as u64);
    let mut warmup = Vec::new();
    let warm_start = Instant::now();
    while warm_start.elapsed() < WARMUP {
        let idx = warmup.len() % pool.len();
        warmup.push(read(&engine, &pool, idx, Instant::now(), &acked, &issued));
    }
    let started = Instant::now();
    let (writes, seals_ms, compacts_ms, reads) = thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut writes = Vec::with_capacity(ops.len());
            let (mut seals, mut compacts) = (Vec::new(), Vec::new());
            for (j, op) in ops.into_iter().enumerate() {
                let due = started + Duration::from_secs_f64(j as f64 / WRITE_RATE);
                let late_ns = sleep_until(due);
                let t = Instant::now();
                issued.fetch_add(1, Ordering::SeqCst);
                let ok = apply(&engine, op);
                acked.fetch_add(1, Ordering::SeqCst);
                let end = Instant::now();
                writes.push(Write {
                    ok,
                    late_ns,
                    latency_ns: (end - due).as_nanos() as u64,
                    call_ns: (end - t).as_nanos() as u64,
                });
                if (PRELOAD_OPS + j + 1).is_multiple_of(SEAL_EVERY) {
                    let (seal, compact) = seal_and_compact(&engine);
                    seals.extend(seal);
                    compacts.extend(compact);
                }
            }
            (writes, seals, compacts)
        });
        let reader = s.spawn(|| {
            let mut reads = Vec::with_capacity(picks.len());
            for (j, &idx) in picks.iter().enumerate() {
                let due = started + Duration::from_secs_f64(j as f64 / READ_RATE);
                reads.push(read(&engine, &pool, idx, due, &acked, &issued));
            }
            reads
        });
        let (writes, seals, compacts) = writer.join().expect("writer thread panicked");
        let reads = reader.join().expect("reader thread panicked");
        (writes, seals, compacts, reads)
    });
    let elapsed = started.elapsed();

    // Recall sample on the quiescent engine, then the check of every read
    // against brute force over the replayed live set.
    let step = (pool.len() / RECALL_QUERIES).max(1);
    let recall_answers: Vec<(usize, Vec<PointId>)> = (0..pool.len())
        .step_by(step)
        .take(RECALL_QUERIES)
        .map(|idx| {
            let hits = engine.query(&pool[idx], K).hits;
            (idx, hits.into_iter().map(|(_, id)| id).collect())
        })
        .collect();
    let status = engine.status();
    let wal_and_images = (engine.device().len() + engine.device().segment_bytes()) as f64;
    drop(engine);

    let checked: Vec<&Read> = warmup.iter().chain(&reads).collect();
    let (incorrect, final_stream) = verify(n_writes, &checked, &pool);
    let recall = recall_answers
        .iter()
        .map(|(idx, got)| {
            let truth = final_stream.reference_top_k(&pool[*idx], K);
            truth.iter().filter(|id| got.contains(id)).count() as f64 / K as f64
        })
        .collect();
    let live_bytes = (final_stream.live_len() * DIM * 4) as f64;
    println!(
        "ingest: {} segments, {} live rows in segments, {} in memtable at the end",
        status.segments, status.segment_rows_live, status.memtable_points
    );
    IngestRun {
        setup_secs,
        warmup,
        reads,
        writes,
        seals_ms,
        compacts_ms,
        elapsed,
        incorrect,
        recall,
        space_amp: ratio(wal_and_images, live_bytes),
    }
}

/// Replay the mutation stream and check each read against the exact top-k
/// of some live set it could have seen. Returns the incorrect count and
/// the stream at the final state.
fn verify(n_writes: usize, reads: &[&Read], pool: &[Vec<f32>]) -> (usize, MutationStream) {
    let mut stream = mutations();
    for _ in 0..PRELOAD_OPS {
        stream.next_op();
    }
    let mut order: Vec<usize> = (0..reads.len()).collect();
    order.sort_by_key(|&i| reads[i].acked_before);
    let mut order = order.into_iter().peekable();
    let mut open: Vec<usize> = Vec::new();
    let mut incorrect = reads.iter().filter(|r| r.missing > 0).count();
    let last = (PRELOAD_OPS + n_writes) as u64;
    let mut state = PRELOAD_OPS as u64;
    loop {
        while let Some(&i) = order.peek() {
            if reads[i].acked_before > state {
                break;
            }
            open.push(i);
            order.next();
        }
        open.retain(|&i| {
            let r = &reads[i];
            if r.missing > 0 {
                return false;
            }
            if stream.reference_top_k(&pool[r.idx], K) == r.hits {
                return false;
            }
            if r.issued_after <= state {
                incorrect += 1;
                return false;
            }
            true
        });
        if state == last {
            break;
        }
        stream.next_op();
        state += 1;
    }
    incorrect += open.len() + order.count();
    (incorrect, stream)
}

impl IngestRun {
    pub fn attempted(&self) -> u64 {
        (self.warmup.len() + self.reads.len() + self.writes.len()) as u64
    }

    pub fn errors(&self) -> usize {
        self.incorrect + self.writes.iter().filter(|w| !w.ok).count()
    }

    pub fn end_to_end(&self) -> Metrics {
        let lat: Vec<f64> = self
            .reads
            .iter()
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect();
        let pages: Vec<f64> = self.reads.iter().map(|r| r.io_pages as f64).collect();
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_secs), "s");
        m.put("query_p50_ms", median(&lat), "ms");
        m.put("query_p99_ms", tail(&lat), "ms");
        m.put(
            "qps",
            self.reads.len() as f64 / self.elapsed.as_secs_f64(),
            "1/s",
        );
        m.put("pages_per_query", mean(&pages), "pages");
        m.put("recall_at_k", mean(&self.recall), "ratio");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }

    pub fn per_layer(&self) -> Metrics {
        let us = |v: Vec<u64>| -> Vec<f64> { v.into_iter().map(|x| x as f64 / 1e3).collect() };
        let write_lat = us(self.writes.iter().map(|w| w.latency_ns).collect());
        let considered: f64 = self.reads.iter().map(|r| r.considered as f64).sum();
        let pruned: f64 = self.reads.iter().map(|r| r.pruned as f64).sum();
        let mut m = Metrics::default();
        m.put(
            "ingest.append_us_p50",
            median(&us(self.writes.iter().map(|w| w.call_ns).collect())),
            "us",
        );
        m.put("ingest.seal_ms", mean(&self.seals_ms), "ms");
        m.put("ingest.compact_ms", mean(&self.compacts_ms), "ms");
        m.put("ingest.seals", self.seals_ms.len() as f64, "count");
        m.put("ingest.compactions", self.compacts_ms.len() as f64, "count");
        m.put(
            "ingest.query_us_p50",
            median(&us(self.reads.iter().map(|r| r.call_ns).collect())),
            "us",
        );
        m.put(
            "ingest.segments_visited",
            mean(
                &self
                    .reads
                    .iter()
                    .map(|r| r.segments as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        );
        m.put("ingest.prune_ratio", ratio(pruned, considered), "ratio");
        m.put("ingest.write_p50_us", median(&write_lat), "us");
        m.put("ingest.write_p99_us", tail(&write_lat), "us");
        m.put("ingest.space_amp", self.space_amp, "ratio");
        let late = |v: Vec<u64>| quantile(&us(v), 0.99);
        m.put(
            "loadgen.write_late_us_p99",
            late(self.writes.iter().map(|w| w.late_ns).collect()),
            "us",
        );
        m.put(
            "loadgen.read_late_us_p99",
            late(self.reads.iter().map(|r| r.late_ns).collect()),
            "us",
        );
        m
    }
}
