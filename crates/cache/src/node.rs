//! Leaf-node caches for exact tree indexes (paper §3.6.1).
//!
//! For tree-based kNN search the cache item is a **leaf node** — the
//! approximate (or exact) representations of all points in that node — not an
//! individual point. Construction follows the paper: replay the workload,
//! collect leaf access frequencies, fill the cache with leaves in descending
//! frequency order (HFF).
//!
//! * [`ExactNodeCache`] — a cached leaf's points are readable without I/O
//!   (EXACT baseline in Fig. 16); costs `points · d · 4` bytes per leaf.
//! * [`CompactNodeCache`] — a cached leaf stores bit-packed approximate
//!   points: a hit yields per-point distance *bounds* that tighten `ub_k` and
//!   prune whole nodes before they are fetched; costs
//!   `points · ⌈d·τ/64⌉ · 8` bytes per leaf.
//! * [`LruNodeCache`] — the same compact leaves, admitted dynamically under
//!   an LRU byte budget.
//!
//! Both compact caches bound a hit through one path, `leaf_bounds`: the
//! per-query [`QueryTables`] the flat compact scan uses, built on a query's
//! first leaf lookup and reused by every later leaf of that query, then one
//! interleaved pass over the leaf's packed members
//! ([`QueryTables::packed_bounds`]). A tree query probes thousands of
//! leaves, so the interval math runs `d·nb` times per query instead of
//! `d` times per member. The tables live in a thread-local buffer keyed by
//! the scheme (a `Weak`, so a freed scheme's address cannot be reused
//! under the key) and the query's exact `f32` bits; the bounds are
//! bit-identical to [`ApproxScheme::bounds`], which schemes without
//! per-dimension buckets keep using.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

use hc_core::bounds::DistBounds;
use hc_core::scan::{QueryTables, Simd};
use hc_core::scheme::ApproxScheme;
use hc_obs::MetricsRegistry;

use crate::obs::CacheObs;

/// Result of probing a node cache for one leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeLookup {
    /// Leaf not cached: reading its points costs one node I/O.
    Miss,
    /// Exactly cached: the caller may read the leaf's points for free.
    Exact,
    /// Compactly cached: sound bounds for each point, in the leaf's point
    /// order.
    Bounds(Vec<DistBounds>),
}

/// Interface the tree-search pipeline consults per leaf.
pub trait NodeCache {
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup;

    /// Offer a leaf the search just fetched from disk, with its member
    /// vectors in leaf order. Dynamic policies admit (possibly evicting);
    /// static caches ignore. Interior mutability keeps the trait object
    /// shareable across queries, mirroring the point-cache design.
    fn admit(&self, _leaf: u32, _points: &mut dyn ExactSizeIterator<Item = &[f32]>) {}

    fn contains(&self, leaf: u32) -> bool;
    fn used_bytes(&self) -> usize;
    fn capacity_bytes(&self) -> usize;
    fn label(&self) -> String;

    /// Register this cache's hit/miss/insertion/eviction counters and
    /// occupancy gauges in `registry`, labeled with [`NodeCache::label`] —
    /// the node-granularity mirror of `PointCache::bind_obs`. The default is
    /// a no-op (e.g. [`NoNodeCache`] has nothing to report).
    fn bind_obs(&mut self, _registry: &MetricsRegistry) {}
}

/// A node cache that caches nothing (NO-CACHE baseline for tree search).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoNodeCache;

impl NodeCache for NoNodeCache {
    fn lookup(&self, _q: &[f32], _leaf: u32) -> NodeLookup {
        NodeLookup::Miss
    }

    fn contains(&self, _leaf: u32) -> bool {
        false
    }

    fn used_bytes(&self) -> usize {
        0
    }

    fn capacity_bytes(&self) -> usize {
        0
    }

    fn label(&self) -> String {
        "NO-CACHE".to_owned()
    }
}

/// EXACT leaf cache: a set of resident leaves whose raw points are free to
/// read. Static (HFF): fill once offline via [`ExactNodeCache::try_fill`].
pub struct ExactNodeCache {
    resident: HashMap<u32, usize>, // leaf → bytes
    used: usize,
    capacity_bytes: usize,
    dim: usize,
    obs: CacheObs,
}

impl ExactNodeCache {
    pub fn new(dim: usize, capacity_bytes: usize) -> Self {
        Self {
            resident: HashMap::new(),
            used: 0,
            capacity_bytes,
            dim,
            obs: CacheObs::noop(),
        }
    }

    /// Try to add a leaf with `num_points` members; returns whether it fit.
    /// Call in descending access-frequency order for HFF semantics.
    pub fn try_fill(&mut self, leaf: u32, num_points: usize) -> bool {
        let bytes = num_points * self.dim * 4;
        if self.used + bytes > self.capacity_bytes || self.resident.contains_key(&leaf) {
            return false;
        }
        self.resident.insert(leaf, bytes);
        self.used += bytes;
        true
    }

    /// Number of resident leaves.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

impl NodeCache for ExactNodeCache {
    fn lookup(&self, _q: &[f32], leaf: u32) -> NodeLookup {
        if self.resident.contains_key(&leaf) {
            self.obs.hits.inc();
            NodeLookup::Exact
        } else {
            self.obs.misses.inc();
            NodeLookup::Miss
        }
    }

    fn contains(&self, leaf: u32) -> bool {
        self.resident.contains_key(&leaf)
    }

    fn used_bytes(&self) -> usize {
        self.used
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn label(&self) -> String {
        "EXACT-NODE/HFF".to_owned()
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.obs = CacheObs::bind(registry, &self.label());
        self.obs.used_bytes.set(self.used as f64);
        self.obs.capacity_bytes.set(self.capacity_bytes as f64);
    }
}

/// The tables one thread last built for leaf lookups, keyed by the scheme
/// they were built against and the query's exact bits.
#[derive(Default)]
struct LeafTables {
    /// The `Weak` keeps the scheme's allocation (not the scheme) alive, so
    /// no later scheme can take its address while this key names it.
    scheme: Option<Weak<dyn ApproxScheme>>,
    query: Vec<u32>,
    tables: QueryTables,
}

impl LeafTables {
    fn built_for(&self, scheme: &Arc<dyn ApproxScheme>, q: &[f32]) -> bool {
        self.scheme
            .as_ref()
            .is_some_and(|w| std::ptr::addr_eq(w.as_ptr(), Arc::as_ptr(scheme)))
            && self.query.len() == q.len()
            // Branch-free so the compare vectorizes; it runs on every lookup.
            && self
                .query
                .iter()
                .zip(q)
                .fold(0, |diff, (&b, v)| diff | (b ^ v.to_bits()))
                == 0
    }
}

/// Bounds of every member of a compactly cached leaf — `n` packed points
/// back to back in `words` — against `q`, in leaf order. The one leaf-bound
/// path of [`CompactNodeCache`] and [`LruNodeCache`] (see the module docs).
fn leaf_bounds(
    scheme: &Arc<dyn ApproxScheme>,
    q: &[f32],
    words: &[u64],
    n: usize,
) -> Vec<DistBounds> {
    debug_assert_eq!(q.len(), scheme.dim());
    let Some(intervals) = scheme.scan_intervals() else {
        let wpp = scheme.words_per_point();
        return words
            .chunks_exact(wpp)
            .take(n)
            .map(|w| scheme.bounds(q, w))
            .collect();
    };
    thread_local! {
        static TABLES: RefCell<LeafTables> = RefCell::new(LeafTables::default());
    }
    TABLES.with(|cell| {
        let mut memo = cell.borrow_mut();
        if !memo.built_for(scheme, q) {
            // Drop the key first: a build that panics must not leave
            // half-refilled tables under the previous query's key.
            memo.scheme = None;
            memo.tables.rebuild(q, &intervals, Simd::Auto);
            memo.query.clear();
            memo.query.extend(q.iter().map(|v| v.to_bits()));
            memo.scheme = Some(Arc::downgrade(scheme));
        }
        let mut out = Vec::with_capacity(n);
        memo.tables.packed_bounds(words, scheme.tau(), n, &mut out);
        out
    })
}

/// Compact leaf cache: per-leaf packed approximate points.
pub struct CompactNodeCache {
    scheme: Arc<dyn ApproxScheme>,
    /// leaf → (packed words of all member points, member count).
    resident: HashMap<u32, (Vec<u64>, usize)>,
    used: usize,
    capacity_bytes: usize,
    obs: CacheObs,
}

impl CompactNodeCache {
    pub fn new(scheme: Arc<dyn ApproxScheme>, capacity_bytes: usize) -> Self {
        Self {
            scheme,
            resident: HashMap::new(),
            used: 0,
            capacity_bytes,
            obs: CacheObs::noop(),
        }
    }

    /// Try to add a leaf given its member point vectors (in leaf order);
    /// returns whether it fit. Call in descending access-frequency order.
    pub fn try_fill<'a>(
        &mut self,
        leaf: u32,
        points: impl ExactSizeIterator<Item = &'a [f32]>,
    ) -> bool {
        let n = points.len();
        let bytes = n * self.scheme.bytes_per_point();
        if self.used + bytes > self.capacity_bytes || self.resident.contains_key(&leaf) {
            return false;
        }
        let mut words = Vec::with_capacity(n * self.scheme.words_per_point());
        for p in points {
            self.scheme.encode_into(p, &mut words);
        }
        self.resident.insert(leaf, (words, n));
        self.used += bytes;
        true
    }

    /// Number of resident leaves.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// The coding scheme in use.
    pub fn scheme(&self) -> &Arc<dyn ApproxScheme> {
        &self.scheme
    }
}

impl NodeCache for CompactNodeCache {
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup {
        match self.resident.get(&leaf) {
            None => {
                self.obs.misses.inc();
                NodeLookup::Miss
            }
            Some((words, n)) => {
                self.obs.hits.inc();
                NodeLookup::Bounds(leaf_bounds(&self.scheme, q, words, *n))
            }
        }
    }

    fn contains(&self, leaf: u32) -> bool {
        self.resident.contains_key(&leaf)
    }

    fn used_bytes(&self) -> usize {
        self.used
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn label(&self) -> String {
        format!("COMPACT-NODE(τ={})/HFF", self.scheme.tau())
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.obs = CacheObs::bind(registry, &self.label());
        self.obs.used_bytes.set(self.used as f64);
        self.obs.capacity_bytes.set(self.capacity_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::dataset::Dataset;
    use hc_core::distance::euclidean;
    use hc_core::histogram::classic::equi_width;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::GlobalScheme;

    fn scheme(d: usize) -> Arc<dyn ApproxScheme> {
        let quant = Quantizer::new(0.0, 10.0, 64);
        Arc::new(GlobalScheme::new(equi_width(64, 8), quant, d))
    }

    #[test]
    fn exact_node_cache_respects_budget() {
        let mut c = ExactNodeCache::new(4, 100); // 4-dim, 16 B per point
        assert!(c.try_fill(0, 3)); // 48 B
        assert!(c.try_fill(1, 3)); // 96 B
        assert!(!c.try_fill(2, 1), "would exceed 100 B");
        assert_eq!(c.len(), 2);
        assert_eq!(c.used_bytes(), 96);
        assert_eq!(c.lookup(&[0.0; 4], 0), NodeLookup::Exact);
        assert_eq!(c.lookup(&[0.0; 4], 2), NodeLookup::Miss);
    }

    #[test]
    fn compact_node_cache_returns_per_point_bounds() {
        let ds = Dataset::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let s = scheme(2);
        let mut c = CompactNodeCache::new(s, 1 << 16);
        let pts: Vec<&[f32]> = ds.iter().map(|(_, p)| p).collect();
        assert!(c.try_fill(0, pts.clone().into_iter()));
        let q = [2.0f32, 2.0];
        match c.lookup(&q, 0) {
            NodeLookup::Bounds(bounds) => {
                assert_eq!(bounds.len(), 3);
                for (b, p) in bounds.iter().zip(&pts) {
                    assert!(b.contains(euclidean(&q, p)));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compact_nodes_fit_more_than_exact_at_same_budget() {
        let d = 64;
        let points: Vec<Vec<f32>> = (0..6).map(|_| vec![5.0f32; d]).collect();
        let budget = 6 * d * 4; // one exact leaf of 6 points
        let mut exact = ExactNodeCache::new(d, budget);
        assert!(exact.try_fill(0, 6));
        assert!(!exact.try_fill(1, 6));
        let mut compact = CompactNodeCache::new(scheme(d), budget);
        let mut filled = 0;
        for leaf in 0..10u32 {
            if compact.try_fill(leaf, points.iter().map(|p| p.as_slice())) {
                filled += 1;
            }
        }
        assert!(
            filled > 1,
            "compact should hold multiple leaves, got {filled}"
        );
    }

    #[test]
    fn duplicate_fill_is_rejected() {
        let mut c = ExactNodeCache::new(2, 1000);
        assert!(c.try_fill(0, 2));
        assert!(!c.try_fill(0, 2));
    }

    #[test]
    fn no_node_cache_always_misses() {
        let c = NoNodeCache;
        assert_eq!(c.lookup(&[1.0], 0), NodeLookup::Miss);
        assert_eq!(c.used_bytes(), 0);
    }

    /// A global scheme over `[lo, hi]` with `buckets` buckets.
    fn scheme_over(d: usize, lo: f32, hi: f32, buckets: u32) -> Arc<dyn ApproxScheme> {
        Arc::new(GlobalScheme::new(
            equi_width(256, buckets),
            Quantizer::new(lo, hi, 256),
            d,
        ))
    }

    fn members(d: usize, leaf: u32, n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| ((leaf as usize * 7 + i * 3 + j * 5) % 23) as f32 * 0.5 - 1.0)
                    .collect()
            })
            .collect()
    }

    /// Assert a lookup's bounds equal `ApproxScheme::bounds` bit for bit.
    fn assert_reference(
        got: NodeLookup,
        scheme: &Arc<dyn ApproxScheme>,
        q: &[f32],
        pts: &[Vec<f32>],
        ctx: &str,
    ) {
        let NodeLookup::Bounds(bounds) = got else {
            panic!("{ctx}: expected a compact hit, got {got:?}");
        };
        assert_eq!(bounds.len(), pts.len(), "{ctx}");
        for (i, (b, p)) in bounds.iter().zip(pts).enumerate() {
            let want = scheme.bounds(q, &scheme.encode(p));
            assert_eq!(b.lb.to_bits(), want.lb.to_bits(), "{ctx} member {i} lb");
            assert_eq!(b.ub.to_bits(), want.ub.to_bits(), "{ctx} member {i} ub");
        }
    }

    /// The thread's memoized tables serve a lookup only for the scheme and
    /// the exact query bits they were built for: interleaving two caches
    /// with different schemes across alternating queries — one a fresh
    /// allocation equal in value, one a single ulp away — never returns a
    /// bound that differs from the scalar reference.
    #[test]
    fn leaf_tables_follow_scheme_and_query_bits() {
        let d = 19;
        let (sa, sb) = (
            scheme_over(d, -2.0, 12.0, 64),
            scheme_over(d, -1.0, 9.0, 200),
        );
        let mut compact = CompactNodeCache::new(Arc::clone(&sa), 1 << 20);
        let lru = LruNodeCache::new(Arc::clone(&sb), 1 << 20);
        let leaves: Vec<(u32, Vec<Vec<f32>>)> = (0..4u32)
            .map(|l| (l, members(d, l, 3 + l as usize * 4)))
            .collect();
        for (leaf, pts) in &leaves {
            assert!(compact.try_fill(*leaf, pts.iter().map(|p| p.as_slice())));
            lru.admit(*leaf, &mut pts.iter().map(|p| p.as_slice()));
        }
        let q0: Vec<f32> = (0..d).map(|j| j as f32 * 0.6 - 1.5).collect();
        let q1: Vec<f32> = (0..d).map(|j| 9.0 - j as f32 * 0.4).collect();
        let q0_copy = q0.clone();
        let mut q0_ulp = q0.clone();
        q0_ulp[4] = f32::from_bits(q0_ulp[4].to_bits() + 1);
        assert_ne!(q0_ulp, q0);
        let queries = [
            ("q0", &q0),
            ("copy", &q0_copy),
            ("ulp", &q0_ulp),
            ("q1", &q1),
            ("q0 again", &q0),
        ];
        // The two schemes alternate leaf by leaf, so every lookup changes
        // scheme under the same query.
        for (name, q) in queries {
            for (leaf, pts) in &leaves {
                let ctx = format!("alternating {name} leaf {leaf}");
                assert_reference(compact.lookup(q, *leaf), &sa, q, pts, &ctx);
                assert_reference(lru.lookup(q, *leaf), &sb, q, pts, &ctx);
            }
        }
        // One cache at a time, so consecutive queries meet the tables the
        // previous query left for the same scheme.
        for (name, q) in queries {
            for (leaf, pts) in &leaves {
                let ctx = format!("compact {name} leaf {leaf}");
                assert_reference(compact.lookup(q, *leaf), &sa, q, pts, &ctx);
            }
        }
        for (name, q) in queries {
            for (leaf, pts) in &leaves {
                let ctx = format!("lru {name} leaf {leaf}");
                assert_reference(lru.lookup(q, *leaf), &sb, q, pts, &ctx);
            }
        }
    }

    /// A scheme dropped and replaced by a new one (same shape, different
    /// buckets, quite possibly at the freed address) never inherits the
    /// tables built for its predecessor.
    #[test]
    fn replaced_scheme_never_gets_stale_tables() {
        let d = 11;
        let q: Vec<f32> = (0..d).map(|j| j as f32 * 0.8 - 2.0).collect();
        let pts = members(d, 3, 6);
        for round in 0..8 {
            let lo = -3.0 + round as f32;
            let scheme = scheme_over(d, lo, lo + 10.0 + round as f32, 64);
            let mut c = CompactNodeCache::new(Arc::clone(&scheme), 1 << 16);
            assert!(c.try_fill(0, pts.iter().map(|p| p.as_slice())));
            assert_reference(
                c.lookup(&q, 0),
                &scheme,
                &q,
                &pts,
                &format!("round {round}"),
            );
        }
    }
}

/// Dynamic (LRU) compact leaf cache: admits leaves as the search fetches
/// them, evicting the least-recently-used leaves to stay within budget.
///
/// The paper evaluates HFF (static) node caches; the LRU variant rounds out
/// the §5.2.1 policy comparison at node granularity and matters when no
/// historical workload exists yet.
pub struct LruNodeCache {
    scheme: Arc<dyn ApproxScheme>,
    inner: std::cell::RefCell<LruNodeInner>,
    capacity_bytes: usize,
    obs: CacheObs,
}

struct LruNodeInner {
    /// leaf → (packed words, member count, recency stamp).
    resident: HashMap<u32, (Vec<u64>, usize, u64)>,
    used: usize,
    clock: u64,
}

impl LruNodeCache {
    pub fn new(scheme: Arc<dyn ApproxScheme>, capacity_bytes: usize) -> Self {
        Self {
            scheme,
            inner: std::cell::RefCell::new(LruNodeInner {
                resident: HashMap::new(),
                used: 0,
                clock: 0,
            }),
            capacity_bytes,
            obs: CacheObs::noop(),
        }
    }

    /// Number of resident leaves.
    pub fn len(&self) -> usize {
        self.inner.borrow().resident.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl NodeCache for LruNodeCache {
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup {
        let mut inner = self.inner.borrow_mut();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.resident.get_mut(&leaf) {
            None => {
                self.obs.misses.inc();
                NodeLookup::Miss
            }
            Some((words, n, stamp)) => {
                self.obs.hits.inc();
                *stamp = clock;
                NodeLookup::Bounds(leaf_bounds(&self.scheme, q, words, *n))
            }
        }
    }

    fn admit(&self, leaf: u32, points: &mut dyn ExactSizeIterator<Item = &[f32]>) {
        let n = points.len();
        let bytes = n * self.scheme.bytes_per_point();
        if bytes > self.capacity_bytes {
            return; // a single oversized leaf can never fit
        }
        let mut inner = self.inner.borrow_mut();
        if inner.resident.contains_key(&leaf) {
            return;
        }
        // Evict least-recently-used leaves until the new one fits. Linear
        // scan per eviction is fine: evictions are rare relative to lookups
        // and the resident set is small (hundreds of leaves).
        while inner.used + bytes > self.capacity_bytes {
            let victim = inner
                .resident
                .iter()
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                .map(|(&l, _)| l)
                .expect("used > 0 implies non-empty");
            let (_, vn, _) = inner.resident.remove(&victim).expect("present");
            inner.used -= vn * self.scheme.bytes_per_point();
            self.obs.evictions.inc();
        }
        let mut words = Vec::with_capacity(n * self.scheme.words_per_point());
        for p in points {
            self.scheme.encode_into(p, &mut words);
        }
        inner.clock += 1;
        let clock = inner.clock;
        inner.resident.insert(leaf, (words, n, clock));
        inner.used += bytes;
        self.obs.insertions.inc();
        self.obs.used_bytes.set(inner.used as f64);
    }

    fn contains(&self, leaf: u32) -> bool {
        self.inner.borrow().resident.contains_key(&leaf)
    }

    fn used_bytes(&self) -> usize {
        self.inner.borrow().used
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn label(&self) -> String {
        format!("COMPACT-NODE(τ={})/LRU", self.scheme.tau())
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.bind_obs_as(registry, &self.label());
    }
}

impl LruNodeCache {
    /// Like [`NodeCache::bind_obs`] but with an explicit series label.
    /// `ShardedNodeCache` uses this to give each shard its own series
    /// (e.g. `"SHARDED-NODE(τ=8)/LRU×4/shard2"`).
    pub fn bind_obs_as(&mut self, registry: &MetricsRegistry, label: &str) {
        self.obs = CacheObs::bind(registry, label);
        self.obs.used_bytes.set(self.inner.borrow().used as f64);
        self.obs.capacity_bytes.set(self.capacity_bytes as f64);
    }
}

#[cfg(test)]
mod lru_tests {
    use super::*;
    use hc_core::histogram::classic::equi_width;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::GlobalScheme;

    fn scheme(d: usize) -> Arc<dyn ApproxScheme> {
        let quant = Quantizer::new(0.0, 10.0, 64);
        Arc::new(GlobalScheme::new(equi_width(64, 8), quant, d))
    }

    fn leaf_points(v: f32, n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| vec![v + i as f32 * 0.1, v]).collect()
    }

    #[test]
    fn admits_and_serves_bounds() {
        let c = LruNodeCache::new(scheme(2), 1 << 16);
        let pts = leaf_points(1.0, 3);
        c.admit(7, &mut pts.iter().map(|p| p.as_slice()));
        assert!(c.contains(7));
        match c.lookup(&[1.0, 1.0], 7) {
            NodeLookup::Bounds(b) => assert_eq!(b.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn evicts_least_recently_used_leaf() {
        let s = scheme(2);
        let per_leaf = 3 * s.bytes_per_point();
        let c = LruNodeCache::new(s, per_leaf * 2);
        let pts = leaf_points(0.0, 3);
        c.admit(1, &mut pts.iter().map(|p| p.as_slice()));
        c.admit(2, &mut pts.iter().map(|p| p.as_slice()));
        let _ = c.lookup(&[0.0, 0.0], 1); // 2 becomes LRU
        c.admit(3, &mut pts.iter().map(|p| p.as_slice()));
        assert!(c.contains(1) && c.contains(3));
        assert!(!c.contains(2));
        assert!(c.used_bytes() <= c.capacity_bytes());
    }

    #[test]
    fn oversized_leaf_is_rejected() {
        let s = scheme(2);
        let c = LruNodeCache::new(s, 4);
        let pts = leaf_points(0.0, 5);
        c.admit(1, &mut pts.iter().map(|p| p.as_slice()));
        assert!(!c.contains(1));
    }

    #[test]
    fn bound_node_cache_reports_hits_misses_and_evictions() {
        let s = scheme(2);
        let per_leaf = 3 * s.bytes_per_point();
        let registry = MetricsRegistry::new();
        let mut c = LruNodeCache::new(s, per_leaf * 2);
        c.bind_obs(&registry);
        let pts = leaf_points(0.0, 3);
        c.admit(1, &mut pts.iter().map(|p| p.as_slice()));
        c.admit(2, &mut pts.iter().map(|p| p.as_slice()));
        let _ = c.lookup(&[0.0, 0.0], 1); // hit
        let _ = c.lookup(&[0.0, 0.0], 9); // miss
        c.admit(3, &mut pts.iter().map(|p| p.as_slice())); // evicts 2
        let snap = registry.snapshot();
        let label = c.label();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(id, _)| id.name == name && id.label.as_deref() == Some(label.as_str()))
                .map(|(_, v)| *v)
        };
        assert_eq!(get("cache.hits"), Some(1));
        assert_eq!(get("cache.misses"), Some(1));
        assert_eq!(get("cache.insertions"), Some(3));
        assert_eq!(get("cache.evictions"), Some(1));
        assert_eq!(snap.gauge("cache.used_bytes"), Some(c.used_bytes() as f64));
        assert_eq!(
            snap.gauge("cache.capacity_bytes"),
            Some((per_leaf * 2) as f64)
        );
    }

    #[test]
    fn readmission_is_idempotent() {
        let c = LruNodeCache::new(scheme(2), 1 << 16);
        let pts = leaf_points(0.0, 2);
        c.admit(4, &mut pts.iter().map(|p| p.as_slice()));
        let used = c.used_bytes();
        c.admit(4, &mut pts.iter().map(|p| p.as_slice()));
        assert_eq!(c.used_bytes(), used);
    }
}
