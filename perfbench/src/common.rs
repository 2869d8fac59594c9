//! What the three read workloads share: arguments, the run procedure and
//! the metrics it yields.

use std::time::{Duration, Instant};

use hc_core::dataset::{Dataset, PointId};
use hc_core::distance::euclidean;
use hc_serve::{QueryServer, ServeConfig};
use hc_storage::{IoSnapshot, PointFile};

use crate::serving::{closed_loop, Budget, Outcome, Sample};
use crate::stats::{mean, median, peak_rss_mb, ratio, tail, Metrics};

/// Set-ups per run. The first two serve the identity pass (untraced, then
/// traced); the last one serves the measured load. `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 3;

/// Refinement look-ahead depth of every server (DESIGN.md §16), so the
/// look-ahead path and its waste are part of what is measured.
pub const LOOKAHEAD: usize = 4;

/// Neighbours per query.
pub const K: usize = 10;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Distinct pool queries in the recall sample.
pub const RECALL_QUERIES: usize = 64;

/// Seed of the read workloads' datasets and indexes. They are fixtures,
/// like a published dataset: the run seed varies the traffic over them,
/// so runs with different seeds measure the same system.
pub const DATA_SEED: u64 = 0x00C0_FFEE;

/// A stable, well-mixed seed per (run seed, purpose).
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One worker, a queue that a single closed-loop client never fills, no
/// modeled I/O sleeps: wall time is the program's own time.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 4,
        simulate_io_scale: None,
        lookahead: LOOKAHEAD,
        ..ServeConfig::default()
    }
}

/// Exact k-NN by scanning every point: ascending distance, ties by id.
pub fn brute_force_top_k(dataset: &Dataset, q: &[f32], k: usize) -> Vec<PointId> {
    let mut scored: Vec<(f64, PointId)> = dataset
        .iter()
        .map(|(id, p)| (euclidean(q, p), id))
        .collect();
    let k = k.min(scored.len());
    if k == 0 {
        return Vec::new();
    }
    scored.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, id)| id).collect()
}

/// One read workload: how to build it, serve it and judge its answers.
pub trait ReadWorkload {
    type Stack;
    /// Requests in the traced-vs-untraced identity pass.
    const IDENTITY_REQUESTS: usize;
    /// Build the stack from raw generated data (seeded by [`DATA_SEED`]).
    fn setup(&self) -> Self::Stack;
    fn start(&self, stack: &Self::Stack, traced: bool) -> QueryServer;
    fn draws(&self, stack: &Self::Stack, seed: u64) -> Box<dyn FnMut() -> usize>;
    fn pool<'a>(&self, stack: &'a Self::Stack) -> &'a [Vec<f32>];
    fn file<'a>(&self, stack: &'a Self::Stack) -> &'a PointFile;
    /// How many served answers differ from the ones the program must give.
    fn incorrect(&self, stack: &Self::Stack, samples: &[Sample]) -> usize;
    /// Share of the true k-NN of its query that `sample` returned.
    fn recall(&self, stack: &Self::Stack, sample: &Sample) -> f64;
    /// Requests whose program-reported pages make `pages_per_query`: a
    /// fixed prefix of the measured stream, so the count repeats exactly
    /// for a seed however fast the machine is.
    fn pages_window(&self) -> usize;
}

/// The traced-vs-untraced identity pass: the same requests on two fresh
/// set-ups must give the same answers, pages and cache hits, and the
/// traced side's outside counts must equal the program's own.
#[derive(Default)]
pub struct Identity {
    untraced: Option<(Vec<Sample>, u64)>,
    pub failures: Vec<String>,
    pub checked: usize,
}

impl Identity {
    pub fn record(&mut self, traced: bool, samples: &[Sample], pages_read: u64) {
        if !traced {
            self.untraced = Some((samples.to_vec(), pages_read));
            return;
        }
        let Some((plain, plain_pages)) = self.untraced.take() else {
            self.failures.push("identity pass: no untraced side".into());
            return;
        };
        self.checked = samples.len();
        if plain_pages != pages_read {
            self.failures.push(format!(
                "identity: pages read untraced {plain_pages} != traced {pages_read}"
            ));
        }
        let mut physical = 0;
        for (i, (a, b)) in plain.iter().zip(samples).enumerate() {
            if a.idx != b.idx
                || a.ids != b.ids
                || a.io_pages != b.io_pages
                || a.cache_hits != b.cache_hits
            {
                self.failures.push(format!(
                    "identity: request {i} differs (ids {:?}/{:?}, pages {}/{}, hits {}/{})",
                    a.ids, b.ids, a.io_pages, b.io_pages, a.cache_hits, b.cache_hits
                ));
            }
            if let Some(l) = &b.layers {
                physical += l.store_physical;
                if l.hits + l.node_hits != b.cache_hits {
                    self.failures.push(format!(
                        "identity: request {i} outside hits {} != program hits {}",
                        l.hits + l.node_hits,
                        b.cache_hits
                    ));
                }
            }
        }
        if plain.len() != samples.len() {
            self.failures.push("identity: request counts differ".into());
        }
        if physical != pages_read {
            self.failures.push(format!(
                "identity: outside physical reads {physical} != IoStats pages_read {pages_read}"
            ));
        }
    }
}

/// Everything one read-workload run measured.
pub struct ReadRun {
    pub setup_secs: Vec<f64>,
    pub pages_window: usize,
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    pub io: IoSnapshot,
    /// Requests sent, the recall sample included.
    pub attempted: usize,
    /// Requests not answered `Done`, or answered wrongly.
    pub errors: usize,
    pub recall: Vec<f64>,
    pub identity: Identity,
}

/// Set up [`SETUP_REPS`] times (identity pass on the spares), drive the
/// measured load on the last set-up, then check every answer and measure
/// recall on a fixed sample of distinct queries.
pub fn run_read<W: ReadWorkload>(w: &W, args: &Args) -> ReadRun {
    let mut setup_secs = Vec::new();
    let mut identity = Identity::default();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let stack = w.setup();
        let last = rep + 1 == SETUP_REPS;
        let server = w.start(&stack, args.trace && last);
        setup_secs.push(t.elapsed().as_secs_f64());
        if last {
            kept = Some((stack, server));
            continue;
        }
        let traced = rep == 1;
        let server = if traced {
            server.shutdown();
            w.start(&stack, true)
        } else {
            server
        };
        let before = w.file(&stack).stats().snapshot();
        let mut next = w.draws(&stack, args.seed);
        let (samples, _) = closed_loop(
            &server,
            w.pool(&stack),
            &mut next,
            K,
            Budget::Requests(W::IDENTITY_REQUESTS),
            traced,
        );
        server.shutdown();
        let pages = w
            .file(&stack)
            .stats()
            .snapshot()
            .delta_since(before)
            .pages_read;
        identity.record(traced, &samples, pages);
    }
    let (stack, server) = kept.expect("at least one set-up");

    let before = w.file(&stack).stats().snapshot();
    let mut next = w.draws(&stack, args.seed);
    let (samples, elapsed) = closed_loop(
        &server,
        w.pool(&stack),
        &mut next,
        K,
        Budget::Seconds(args.seconds),
        args.trace,
    );
    let io = w.file(&stack).stats().snapshot().delta_since(before);

    // Recall sample: distinct pool queries spread over the pool, served
    // after the measured window.
    let pool_len = w.pool(&stack).len();
    let step = (pool_len / RECALL_QUERIES).max(1);
    let mut sample_ids = (0..pool_len).step_by(step).take(RECALL_QUERIES);
    let mut next_sample = || sample_ids.next().expect("sample sized to the budget");
    let n_recall = pool_len.div_ceil(step).min(RECALL_QUERIES);
    let (recall_samples, _) = closed_loop(
        &server,
        w.pool(&stack),
        &mut next_sample,
        K,
        Budget::Requests(n_recall),
        false,
    );
    server.shutdown();

    let done: Vec<Sample> = samples
        .iter()
        .chain(&recall_samples)
        .filter(|s| s.outcome == Outcome::Done)
        .cloned()
        .collect();
    let attempted = samples.len() + recall_samples.len();
    let errors = attempted - done.len() + w.incorrect(&stack, &done);
    let recall = recall_samples.iter().map(|s| w.recall(&stack, s)).collect();
    ReadRun {
        setup_secs,
        pages_window: w.pages_window(),
        samples,
        elapsed,
        io,
        attempted,
        errors,
        recall,
        identity,
    }
}

impl ReadRun {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Metrics {
        let lat: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_secs), "s");
        m.put("query_p50_ms", median(&lat), "ms");
        m.put("query_p99_ms", tail(&lat), "ms");
        m.put(
            "qps",
            self.samples.len() as f64 / self.elapsed.as_secs_f64(),
            "1/s",
        );
        let window = &self.samples[..self.pages_window.min(self.samples.len())];
        let pages: Vec<f64> = window.iter().map(|s| s.io_pages as f64).collect();
        m.put("pages_per_query", mean(&pages), "pages");
        m.put("recall_at_k", mean(&self.recall), "ratio");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }

    /// Per-layer metrics from the spans; zeros for layers this workload
    /// does not run.
    pub fn per_layer(&self) -> Metrics {
        let layers: Vec<_> = self.samples.iter().filter_map(|s| s.layers).collect();
        let us = |f: &dyn Fn(&crate::serving::Breakdown) -> u64| -> Vec<f64> {
            layers.iter().map(|l| f(l) as f64 / 1e3).collect()
        };
        let sum = |f: &dyn Fn(&crate::serving::Breakdown) -> u64| -> f64 {
            layers.iter().map(|l| f(l) as f64).sum()
        };
        let n = layers.len().max(1) as f64;
        let flat = sum(&|l| l.candidates) > 0.0;
        let tree = sum(&|l| l.node_lookups) > 0.0;
        let p50_if = |on: bool, v: Vec<f64>| if on { median(&v) } else { 0.0 };
        let hot_hits = sum(&|l| l.store_reads - l.store_physical) - sum(&|l| l.fetches_buffered);
        let past_buffer = sum(&|l| l.fetches - l.fetches_buffered);

        let mut m = Metrics::default();
        m.put("index.gen_us_p50", p50_if(flat, us(&|l| l.index_gen)), "us");
        m.put(
            "index.candidates_per_query",
            sum(&|l| l.candidates) / n,
            "count",
        );
        m.put(
            "index.leaf_bounds_us_p50",
            p50_if(tree, us(&|l| l.index_leaf_bounds)),
            "us",
        );
        m.put(
            "cache.lookup_us_p50",
            p50_if(flat, us(&|l| l.cache_lookup)),
            "us",
        );
        m.put(
            "cache.hit_ratio",
            ratio(sum(&|l| l.hits), sum(&|l| l.lookups)),
            "ratio",
        );
        m.put("cache.admits_per_query", sum(&|l| l.admits) / n, "count");
        m.put(
            "cache.node_lookup_us_p50",
            p50_if(tree, us(&|l| l.node_lookup)),
            "us",
        );
        m.put(
            "cache.node_hit_ratio",
            ratio(sum(&|l| l.node_hits), sum(&|l| l.node_lookups)),
            "ratio",
        );
        m.put("io.read_us_per_query", sum(&|l| l.io_incl) / n / 1e3, "us");
        m.put("io.self_us_per_query", sum(&|l| l.io) / n / 1e3, "us");
        m.put("io.hot_hit_ratio", ratio(hot_hits, past_buffer), "ratio");
        m.put("io.coalesced", self.io.pages_coalesced as f64, "count");
        m.put(
            "io.lookahead_waste_ratio",
            ratio(
                self.io.lookahead_wasted as f64,
                self.io.lookahead_issued as f64,
            ),
            "ratio",
        );
        m.put(
            "storage.read_us_per_query",
            sum(&|l| l.storage) / n / 1e3,
            "us",
        );
        m.put(
            "storage.reads_per_query",
            sum(&|l| l.store_reads) / n,
            "count",
        );
        m.put("storage.retries", self.io.pages_retried as f64, "count");
        m.put("query.self_us_p50", p50_if(flat, us(&|l| l.query)), "us");
        m.put("query.fetches_per_query", sum(&|l| l.fetches) / n, "count");
        m.put(
            "query.tree_self_us_p50",
            p50_if(tree, us(&|l| l.query)),
            "us",
        );
        m.put(
            "serve.queue_wait_us_p50",
            median(&us(&|l| l.queue_wait)),
            "us",
        );
        m.put(
            "serve.queue_wait_us_p99",
            tail(&us(&|l| l.queue_wait)),
            "us",
        );
        m.put(
            "serve.dispatch_us_p50",
            median(&us(&|l| l.dispatch())),
            "us",
        );
        m
    }
}
