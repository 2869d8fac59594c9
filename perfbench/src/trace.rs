//! Spans recorded from outside the program.
//!
//! Every decorator here wraps one public trait of a library layer, forwards
//! every method the program overrides to the wrapped value, and times the
//! calls that do real work. A call produces one [`Span`] in the calling
//! thread's buffer; the benchmark drains the buffers after each request and
//! attributes spans to requests by time (see `serving::attribute`).
//!
//! Trivial accessors (`page_of`, `leaf_points`, `label`, ...) are forwarded
//! untimed: timing a two-instruction call would cost more than the call, so
//! their time is charged to the caller's self time.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use hc_cache::concurrent::{ConcurrentNodeCache, ConcurrentPointCache};
use hc_cache::node::NodeLookup;
use hc_cache::point::CacheLookup;
use hc_core::dataset::PointId;
use hc_index::traits::{CandidateIndex, LeafedIndex};
use hc_io::{BrokerConfig, FetchBroker};
use hc_obs::MetricsRegistry;
use hc_storage::{IoStats, PageBuffer, PageStore, StorageError};

/// What a span timed. The layer is the crate that owns the called trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `CandidateIndex::candidates` (hc-index); `a` = candidates returned.
    Candidates,
    /// `LeafedIndex::leaf_lower_bounds` (hc-index); `a` = leaves bounded.
    LeafBounds,
    /// Point-cache probe, single or batched (hc-cache); `a` = ids probed,
    /// `b` = hits.
    CacheLookup,
    /// Point-cache admission (hc-cache).
    CacheAdmit,
    /// Node-cache probe (hc-cache); `b` = 1 on a hit.
    NodeLookup,
    /// Node-cache admission (hc-cache).
    NodeAdmit,
    /// `read_point` above the fetch broker (hc-io and everything below);
    /// `a` = 1 if the page was already in the query's own buffer.
    IoRead,
    /// `read_point` on the raw store below the broker (hc-storage);
    /// `a` = 1 if the page was already buffered, i.e. no physical read.
    StorageRead,
}

/// One timed call. Times are nanoseconds since the tracer's epoch; `depth`
/// counts the decorated calls already open on the thread (0 = called by
/// the engine itself).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: Op,
    pub depth: u8,
    pub start: u64,
    pub end: u64,
    pub a: u32,
    pub b: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

/// Process-wide span sink: one buffer per recording thread.
pub struct Tracer {
    epoch: Instant,
    buffers: Mutex<Vec<Buffer>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
    static DEPTH: Cell<u8> = const { Cell::new(0) };
}

impl Tracer {
    pub fn global() -> &'static Tracer {
        TRACER.get_or_init(|| Tracer {
            epoch: Instant::now(),
            buffers: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch for an instant taken on any thread.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let buffer = local.get_or_insert_with(|| {
                let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(4096)));
                self.buffers
                    .lock()
                    .expect("tracer registry poisoned")
                    .push(Arc::clone(&buffer));
                buffer
            });
            buffer.lock().expect("span buffer poisoned").push(span);
        });
    }

    /// Take every span recorded so far, on every thread.
    pub fn drain(&self) -> Vec<Span> {
        let buffers = self.buffers.lock().expect("tracer registry poisoned");
        let mut out = Vec::new();
        for buffer in buffers.iter() {
            out.append(&mut buffer.lock().expect("span buffer poisoned"));
        }
        out
    }
}

/// An open span on the current thread.
struct Open {
    depth: u8,
    start: Instant,
}

impl Open {
    fn new() -> Self {
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Self {
            depth,
            start: Instant::now(),
        }
    }

    /// End the span; `counts` runs after the clock stops.
    fn close(self, op: Op, counts: impl FnOnce() -> (u32, u32)) {
        let end = Instant::now();
        DEPTH.with(|d| d.set(self.depth));
        let (a, b) = counts();
        let tracer = Tracer::global();
        tracer.push(Span {
            op,
            depth: self.depth,
            start: tracer.ns(self.start),
            end: tracer.ns(end),
            a,
            b,
        });
    }
}

/// Time `f` as one span of `op`; `counts` turns its result into `(a, b)`.
fn timed<R>(op: Op, f: impl FnOnce() -> R, counts: impl FnOnce(&R) -> (u32, u32)) -> R {
    let open = Open::new();
    let result = f();
    open.close(op, || counts(&result));
    result
}

fn count(n: usize) -> u32 {
    n.min(u32::MAX as usize) as u32
}

fn is_hit(lookup: &CacheLookup) -> bool {
    !matches!(lookup, CacheLookup::Miss)
}

/// [`CandidateIndex`] decorator.
pub struct TimedIndex<I>(pub Arc<I>);

impl<I: CandidateIndex> CandidateIndex for TimedIndex<I> {
    fn candidates(&self, q: &[f32], k: usize) -> Vec<PointId> {
        timed(
            Op::Candidates,
            || self.0.candidates(q, k),
            |c| (count(c.len()), 0),
        )
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// [`LeafedIndex`] decorator.
pub struct TimedLeafedIndex<I>(pub Arc<I>);

impl<I: LeafedIndex> LeafedIndex for TimedLeafedIndex<I> {
    fn num_leaves(&self) -> u32 {
        self.0.num_leaves()
    }

    fn leaf_points(&self, leaf: u32) -> &[PointId] {
        self.0.leaf_points(leaf)
    }

    fn leaf_lower_bounds(&self, q: &[f32]) -> Vec<(u32, f64)> {
        timed(
            Op::LeafBounds,
            || self.0.leaf_lower_bounds(q),
            |b| (count(b.len()), 0),
        )
    }

    fn leaf_of(&self, id: PointId) -> u32 {
        self.0.leaf_of(id)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// [`ConcurrentPointCache`] decorator.
pub struct TimedPointCache(pub Arc<dyn ConcurrentPointCache>);

impl ConcurrentPointCache for TimedPointCache {
    fn lookup(&self, q: &[f32], id: PointId) -> CacheLookup {
        timed(
            Op::CacheLookup,
            || self.0.lookup(q, id),
            |r| (1, u32::from(is_hit(r))),
        )
    }

    fn admit(&self, id: PointId, point: &[f32]) {
        timed(Op::CacheAdmit, || self.0.admit(id, point), |_| (1, 0))
    }

    fn contains(&self, id: PointId) -> bool {
        self.0.contains(id)
    }

    fn used_bytes(&self) -> usize {
        self.0.used_bytes()
    }

    fn capacity_bytes(&self) -> usize {
        self.0.capacity_bytes()
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        self.0.bind_obs(registry)
    }

    fn generation(&self) -> u64 {
        self.0.generation()
    }

    fn lookup_batch(&self, q: &[f32], ids: &[PointId], out: &mut Vec<CacheLookup>) {
        let open = Open::new();
        self.0.lookup_batch(q, ids, out);
        open.close(Op::CacheLookup, || {
            (
                count(ids.len()),
                count(out.iter().filter(|l| is_hit(l)).count()),
            )
        });
    }
}

/// [`ConcurrentNodeCache`] decorator.
pub struct TimedNodeCache(pub Arc<dyn ConcurrentNodeCache>);

impl ConcurrentNodeCache for TimedNodeCache {
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup {
        timed(
            Op::NodeLookup,
            || self.0.lookup(q, leaf),
            |r| (1, u32::from(!matches!(r, NodeLookup::Miss))),
        )
    }

    fn admit(&self, leaf: u32, points: &mut dyn ExactSizeIterator<Item = &[f32]>) {
        timed(Op::NodeAdmit, || self.0.admit(leaf, points), |_| (1, 0))
    }

    fn contains(&self, leaf: u32) -> bool {
        self.0.contains(leaf)
    }

    fn used_bytes(&self) -> usize {
        self.0.used_bytes()
    }

    fn capacity_bytes(&self) -> usize {
        self.0.capacity_bytes()
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        self.0.bind_obs(registry)
    }

    fn generation(&self) -> u64 {
        self.0.generation()
    }
}

/// The page-store stack every read workload serves from: a `FetchBroker`
/// with `hot_pages` of shared hot buffer over the raw file, with one
/// decorator above the broker and one below it when `traced`.
pub fn broker_stack(
    file: Arc<dyn PageStore>,
    hot_pages: usize,
    traced: bool,
) -> Arc<dyn PageStore> {
    let wrap = |inner: Arc<dyn PageStore>, op: Op| -> Arc<dyn PageStore> {
        if traced {
            Arc::new(TimedStore { inner, op })
        } else {
            inner
        }
    };
    let broker = FetchBroker::with_config(
        wrap(file, Op::StorageRead),
        BrokerConfig {
            hot_pages,
            ..BrokerConfig::default()
        },
    );
    wrap(Arc::new(broker), Op::IoRead)
}

/// [`PageStore`] decorator; `op` names the side of the broker it sits on.
pub struct TimedStore {
    pub inner: Arc<dyn PageStore>,
    pub op: Op,
}

impl PageStore for TimedStore {
    fn read_point<'s>(
        &'s self,
        id: PointId,
        attempt: u32,
        buffer: &mut PageBuffer,
    ) -> Result<&'s [f32], StorageError> {
        let buffered = buffer.contains(self.inner.page_of(id));
        timed(
            self.op,
            || self.inner.read_point(id, attempt, buffer),
            |_| (u32::from(buffered), 0),
        )
    }

    fn begin_query(&self) -> PageBuffer {
        self.inner.begin_query()
    }

    fn page_of(&self, id: PointId) -> u64 {
        self.inner.page_of(id)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        self.inner.bind_obs(registry)
    }
}

#[cfg(test)]
mod tests {
    //! Transparency: every decorator must hand each call to the same method
    //! of the wrapped value. A missing override would fall back to the
    //! trait default (a batched lookup becoming per-id lookups, a
    //! generation reading 0) and the traced run would measure a different
    //! program.
    use super::*;
    use hc_core::dataset::Dataset;
    use hc_storage::PointFile;

    #[derive(Default)]
    struct Calls(Mutex<Vec<&'static str>>);

    impl Calls {
        fn note(&self, name: &'static str) {
            self.0.lock().expect("calls").push(name);
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut self.0.lock().expect("calls"))
        }
    }

    struct ProbeCache(Calls);

    impl ConcurrentPointCache for ProbeCache {
        fn lookup(&self, _q: &[f32], _id: PointId) -> CacheLookup {
            self.0.note("lookup");
            CacheLookup::Exact(1.0)
        }
        fn admit(&self, _id: PointId, _point: &[f32]) {
            self.0.note("admit");
        }
        fn contains(&self, _id: PointId) -> bool {
            self.0.note("contains");
            true
        }
        fn used_bytes(&self) -> usize {
            self.0.note("used_bytes");
            3
        }
        fn capacity_bytes(&self) -> usize {
            self.0.note("capacity_bytes");
            4
        }
        fn label(&self) -> String {
            self.0.note("label");
            "probe".into()
        }
        fn bind_obs(&self, _registry: &MetricsRegistry) {
            self.0.note("bind_obs");
        }
        fn generation(&self) -> u64 {
            self.0.note("generation");
            7
        }
        fn lookup_batch(&self, _q: &[f32], ids: &[PointId], out: &mut Vec<CacheLookup>) {
            self.0.note("lookup_batch");
            out.clear();
            out.extend(ids.iter().map(|_| CacheLookup::Miss));
        }
    }

    #[test]
    fn point_cache_decorator_forwards_every_method() {
        let probe = Arc::new(ProbeCache(Calls::default()));
        let timed = TimedPointCache(Arc::clone(&probe) as _);
        let mut out = Vec::new();
        timed.lookup_batch(&[0.0], &[PointId(1), PointId(2)], &mut out);
        assert_eq!(out, vec![CacheLookup::Miss, CacheLookup::Miss]);
        assert_eq!(timed.lookup(&[0.0], PointId(1)), CacheLookup::Exact(1.0));
        timed.admit(PointId(1), &[0.0]);
        assert!(timed.contains(PointId(1)));
        assert_eq!((timed.used_bytes(), timed.capacity_bytes()), (3, 4));
        assert_eq!(timed.label(), "probe");
        timed.bind_obs(&MetricsRegistry::noop());
        assert_eq!(timed.generation(), 7);
        assert_eq!(
            probe.0.take(),
            [
                "lookup_batch",
                "lookup",
                "admit",
                "contains",
                "used_bytes",
                "capacity_bytes",
                "label",
                "bind_obs",
                "generation"
            ]
        );
    }

    struct ProbeNodes(Calls);

    impl ConcurrentNodeCache for ProbeNodes {
        fn lookup(&self, _q: &[f32], _leaf: u32) -> NodeLookup {
            self.0.note("lookup");
            NodeLookup::Exact
        }
        fn admit(&self, _leaf: u32, points: &mut dyn ExactSizeIterator<Item = &[f32]>) {
            self.0.note("admit");
            assert_eq!(points.len(), 1);
        }
        fn contains(&self, _leaf: u32) -> bool {
            self.0.note("contains");
            true
        }
        fn used_bytes(&self) -> usize {
            self.0.note("used_bytes");
            3
        }
        fn capacity_bytes(&self) -> usize {
            self.0.note("capacity_bytes");
            4
        }
        fn label(&self) -> String {
            self.0.note("label");
            "probe".into()
        }
        fn bind_obs(&self, _registry: &MetricsRegistry) {
            self.0.note("bind_obs");
        }
        fn generation(&self) -> u64 {
            self.0.note("generation");
            7
        }
    }

    #[test]
    fn node_cache_decorator_forwards_every_method() {
        let probe = Arc::new(ProbeNodes(Calls::default()));
        let timed = TimedNodeCache(Arc::clone(&probe) as _);
        assert_eq!(timed.lookup(&[0.0], 1), NodeLookup::Exact);
        let point = [0.0f32];
        timed.admit(1, &mut std::iter::once(&point[..]));
        assert!(timed.contains(1));
        assert_eq!((timed.used_bytes(), timed.capacity_bytes()), (3, 4));
        assert_eq!(timed.label(), "probe");
        timed.bind_obs(&MetricsRegistry::noop());
        assert_eq!(timed.generation(), 7);
        assert_eq!(
            probe.0.take(),
            [
                "lookup",
                "admit",
                "contains",
                "used_bytes",
                "capacity_bytes",
                "label",
                "bind_obs",
                "generation"
            ]
        );
    }

    /// A store that records its calls and serves them from a real file.
    struct ProbeStore {
        file: PointFile,
        calls: Calls,
    }

    impl PageStore for ProbeStore {
        fn read_point<'s>(
            &'s self,
            id: PointId,
            attempt: u32,
            buffer: &mut PageBuffer,
        ) -> Result<&'s [f32], StorageError> {
            self.calls.note("read_point");
            self.file.read_point(id, attempt, buffer)
        }
        fn begin_query(&self) -> PageBuffer {
            self.calls.note("begin_query");
            self.file.begin_query()
        }
        fn page_of(&self, id: PointId) -> u64 {
            self.calls.note("page_of");
            self.file.page_of(id)
        }
        fn stats(&self) -> &IoStats {
            self.calls.note("stats");
            self.file.stats()
        }
        fn dim(&self) -> usize {
            self.calls.note("dim");
            self.file.dim()
        }
        fn len(&self) -> usize {
            self.calls.note("len");
            self.file.len()
        }
        fn is_empty(&self) -> bool {
            self.calls.note("is_empty");
            false
        }
        fn num_pages(&self) -> u64 {
            self.calls.note("num_pages");
            self.file.num_pages()
        }
        fn bind_obs(&self, _registry: &MetricsRegistry) {
            self.calls.note("bind_obs");
        }
    }

    #[test]
    fn store_decorator_forwards_every_method_and_marks_buffered_reads() {
        let rows: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32, 1.0]).collect();
        let probe = Arc::new(ProbeStore {
            file: PointFile::new(Dataset::from_rows(&rows)),
            calls: Calls::default(),
        });
        let timed = TimedStore {
            inner: Arc::clone(&probe) as _,
            op: Op::StorageRead,
        };
        Tracer::global().drain();
        let mut buffer = timed.begin_query();
        assert_eq!(
            timed.read_point(PointId(3), 0, &mut buffer),
            Ok(&[3.0, 1.0][..])
        );
        assert_eq!(
            timed.read_point(PointId(3), 0, &mut buffer),
            Ok(&[3.0, 1.0][..])
        );
        assert_eq!(timed.stats().pages_read(), 1);
        assert_eq!((timed.dim(), timed.len(), timed.num_pages()), (2, 8, 1));
        assert!(!timed.is_empty());
        timed.bind_obs(&MetricsRegistry::noop());
        let calls = probe.calls.take();
        let expected = [
            "begin_query",
            "page_of",
            "read_point",
            "page_of",
            "read_point",
            "stats",
            "dim",
            "len",
            "num_pages",
            "is_empty",
            "bind_obs",
        ];
        assert_eq!(calls, expected);
        let reads: Vec<u32> = Tracer::global()
            .drain()
            .iter()
            .filter(|s| s.op == Op::StorageRead)
            .map(|s| s.a)
            .collect();
        assert_eq!(reads, [0, 1], "second read of the page is buffered");
    }
}
