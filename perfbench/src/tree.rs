//! `tree-exact`: the §3.6.1 iDistance search behind
//! `QueryServer::start_tree`, with a sharded compact node cache warm-filled
//! from the workload.

use std::collections::HashMap;
use std::sync::Arc;

use hc_cache::concurrent::ConcurrentNodeCache;
use hc_core::dataset::{Dataset, PointId};
use hc_core::distance::euclidean;
use hc_core::histogram::HistogramKind;
use hc_core::quantize::Quantizer;
use hc_core::scheme::{ApproxScheme, GlobalScheme};
use hc_index::traits::LeafedIndex;
use hc_index::IDistance;
use hc_maint::warm_fill_node_cache;
use hc_obs::MetricsRegistry;
use hc_query::TreeSharedParts;
use hc_serve::{QueryServer, ShardedNodeCache};
use hc_storage::{PointFile, PAGE_SIZE};
use hc_workload::{Popularity, Preset, Scale};

use crate::common::{brute_force_top_k, derive_seed, serve_config, ReadWorkload, DATA_SEED, K};
use crate::serving::Sample;
use crate::stream::zipf_stream;
use crate::trace::{broker_stack, TimedLeafedIndex, TimedNodeCache};

const TAU: u32 = 8;
const SHARDS: usize = 4;
const N_POINTS: usize = 20_000;
const POOL: usize = 400;
const ZIPF_S: f64 = 0.8;
/// Workload queries replayed to rank leaves for the warm fill.
const REPLAY: usize = 200;
const CACHE_SHARE: f64 = 0.30;
/// Broker hot-buffer pages: far below the file, so leaf misses reach the
/// store and the node cache decides the I/O.
const HOT_PAGES: usize = 256;
const REFERENCE_POINTS: usize = 16;

pub struct TreeStack {
    pub dataset: Arc<Dataset>,
    pub index: Arc<IDistance>,
    pub file: Arc<PointFile>,
    pub cache: Arc<ShardedNodeCache>,
    pub pool: Vec<Vec<f32>>,
}

/// Dataset, iDistance build, histogram fit, leaf replay and node-cache
/// warm fill.
pub fn setup() -> TreeStack {
    let mut preset = Preset::nus_wide(Scale::Full);
    preset.n_points = N_POINTS;
    preset.query_pool = POOL;
    preset.workload_len = REPLAY;
    preset.popularity = Popularity::Zipf(ZIPF_S);
    preset.seed = derive_seed(DATA_SEED, 11);
    let log = preset.instantiate();
    let dataset = log.dataset;
    let leaf_capacity = (PAGE_SIZE / dataset.point_bytes()).max(1);
    let index = IDistance::build(
        &dataset,
        REFERENCE_POINTS,
        leaf_capacity,
        derive_seed(DATA_SEED, 12),
    );
    let quantizer = Quantizer::for_range(dataset.value_range());
    let f_data = quantizer.frequency_array(dataset.as_flat());
    let hist = HistogramKind::EquiDepth.build(&f_data, 1 << TAU);
    let scheme: Arc<dyn ApproxScheme> = Arc::new(GlobalScheme::new(hist, quantizer, dataset.dim()));
    let cache_bytes = (dataset.file_bytes() as f64 * CACHE_SHARE) as usize;
    let cache = ShardedNodeCache::lru(scheme, cache_bytes, SHARDS);
    warm_fill_node_cache(&index, &dataset, &log.workload, K, &cache);
    let file = PointFile::new(dataset.clone());
    TreeStack {
        dataset: Arc::new(dataset),
        index: Arc::new(index),
        file: Arc::new(file),
        cache: Arc::new(cache),
        pool: log.pool,
    }
}

pub fn start(stack: &TreeStack, traced: bool) -> QueryServer {
    let store = broker_stack(Arc::clone(&stack.file) as _, HOT_PAGES, traced);
    let (index, cache): (
        Arc<dyn LeafedIndex + Send + Sync>,
        Arc<dyn ConcurrentNodeCache>,
    ) = if traced {
        (
            Arc::new(TimedLeafedIndex(Arc::clone(&stack.index))),
            Arc::new(TimedNodeCache(Arc::clone(&stack.cache) as _)),
        )
    } else {
        (Arc::clone(&stack.index) as _, Arc::clone(&stack.cache) as _)
    };
    QueryServer::start_tree(
        TreeSharedParts::new(index, Arc::clone(&stack.dataset), store),
        cache,
        serve_config(),
        &MetricsRegistry::new(),
    )
}

/// The tree workload.
pub struct Tree;

/// Ascending true k-NN distances of pool query `idx`.
fn truth(stack: &TreeStack, idx: usize) -> Vec<f64> {
    distances(
        stack,
        idx,
        &brute_force_top_k(&stack.dataset, &stack.pool[idx], K),
    )
}

/// Ascending distances of `ids` from pool query `idx`. The tree answers
/// exactly, so answers are compared by distance: ties may pick either id.
fn distances(stack: &TreeStack, idx: usize, ids: &[PointId]) -> Vec<f64> {
    let q = &stack.pool[idx];
    let mut d: Vec<f64> = ids
        .iter()
        .map(|&id| euclidean(q, stack.dataset.point(id)))
        .collect();
    d.sort_by(f64::total_cmp);
    d
}

impl ReadWorkload for Tree {
    type Stack = TreeStack;
    const IDENTITY_REQUESTS: usize = 40;

    fn setup(&self) -> TreeStack {
        setup()
    }

    fn start(&self, stack: &TreeStack, traced: bool) -> QueryServer {
        start(stack, traced)
    }

    fn draws(&self, stack: &TreeStack, seed: u64) -> Box<dyn FnMut() -> usize> {
        zipf_stream(stack.pool.len(), ZIPF_S, derive_seed(seed, 13))
    }

    fn pages_window(&self) -> usize {
        300
    }

    fn pool<'a>(&self, stack: &'a TreeStack) -> &'a [Vec<f32>] {
        &stack.pool
    }

    fn file<'a>(&self, stack: &'a TreeStack) -> &'a PointFile {
        &stack.file
    }

    /// The search is exact: every answer's distances must equal brute
    /// force over the dataset.
    fn incorrect(&self, stack: &TreeStack, samples: &[Sample]) -> usize {
        let mut memo: HashMap<usize, Vec<f64>> = HashMap::new();
        samples
            .iter()
            .filter(|s| {
                let want = memo.entry(s.idx).or_insert_with(|| truth(stack, s.idx));
                s.ids.len() != K || distances(stack, s.idx, &s.ids) != *want
            })
            .count()
    }

    fn recall(&self, stack: &TreeStack, sample: &Sample) -> f64 {
        let kth = truth(stack, sample.idx)
            .last()
            .copied()
            .unwrap_or(f64::INFINITY);
        let got = distances(stack, sample.idx, &sample.ids);
        got.iter().filter(|&&d| d <= kth).count().min(K) as f64 / K as f64
    }
}
