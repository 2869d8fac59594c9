//! `hot-zipf` and `cold-uniform`: C2LSH candidate generation, a sharded
//! compact cache and multi-step refinement, served by one `QueryServer`
//! worker over a `FetchBroker`.

use std::collections::HashMap;
use std::sync::Arc;

use hc_cache::concurrent::ConcurrentPointCache;
use hc_cache::point::ExactPointCache;
use hc_core::dataset::{Dataset, PointId};
use hc_core::histogram::HistogramKind;
use hc_core::quantize::Quantizer;
use hc_core::scheme::{ApproxScheme, GlobalScheme};
use hc_index::lsh::{C2lsh, C2lshParams};
use hc_index::traits::CandidateIndex;
use hc_obs::MetricsRegistry;
use hc_query::{replay_workload, KnnEngine, SharedParts};
use hc_serve::{QueryServer, ShardedCompactCache};
use hc_storage::PointFile;
use hc_workload::{Popularity, Preset, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{brute_force_top_k, derive_seed, serve_config, ReadWorkload, DATA_SEED, K};
use crate::serving::Sample;
use crate::stream::zipf_stream;
use crate::trace::{broker_stack, TimedIndex, TimedPointCache};

/// Code length of the compact cache (the repository's default τ).
const TAU: u32 = 8;
const SHARDS: usize = 8;

pub struct FlatSpec {
    /// Stand-in for the paper dataset: `nus_wide` or `imgnet` at full
    /// scale, with the cardinality and query pool below.
    pub imgnet_like: bool,
    pub n_points: usize,
    pub pool: usize,
    /// Historical workload replayed at set-up to fit the histogram and
    /// rank points for the warm fill.
    pub replay: usize,
    pub popularity: Popularity,
    /// Compact-cache budget as a share of the point file.
    pub cache_share: f64,
    pub warm_fill: bool,
    /// Page budget of the broker's shared hot buffer.
    pub hot_pages: usize,
    /// Requests counted by `pages_per_query`.
    pub pages_window: usize,
}

pub const HOT_ZIPF: FlatSpec = FlatSpec {
    imgnet_like: false,
    n_points: 20_000,
    pool: 400,
    replay: 2_000,
    popularity: Popularity::Zipf(0.8),
    cache_share: 0.30,
    warm_fill: true,
    hot_pages: 4096,
    pages_window: 2_000,
};

pub const COLD_UNIFORM: FlatSpec = FlatSpec {
    imgnet_like: true,
    n_points: 40_000,
    pool: 4_000,
    replay: 1_000,
    popularity: Popularity::Uniform,
    cache_share: 0.03,
    warm_fill: false,
    hot_pages: 256,
    pages_window: 400,
};

/// Everything a flat server needs, built from raw generated data.
pub struct FlatStack {
    pub dataset: Arc<Dataset>,
    pub index: Arc<C2lsh>,
    pub file: Arc<PointFile>,
    pub cache: Arc<ShardedCompactCache>,
    pub pool: Vec<Vec<f32>>,
}

/// Dataset, C2LSH build, workload replay, histogram fit and cache warm
/// fill: the work between raw data and a server that can start.
pub fn setup(spec: &FlatSpec) -> FlatStack {
    let mut preset = if spec.imgnet_like {
        Preset::imgnet(Scale::Full)
    } else {
        Preset::nus_wide(Scale::Full)
    };
    preset.n_points = spec.n_points;
    preset.query_pool = spec.pool;
    preset.workload_len = spec.replay;
    preset.popularity = spec.popularity;
    preset.seed = derive_seed(DATA_SEED, 1);
    let log = preset.instantiate();
    let dataset = log.dataset;
    let index = C2lsh::build(
        &dataset,
        C2lshParams {
            seed: derive_seed(DATA_SEED, 2),
            ..C2lshParams::default()
        },
    );
    let replay = replay_workload(&index, &dataset, &log.workload, K);
    let quantizer = Quantizer::for_range(dataset.value_range());
    let f_prime = replay.f_prime(&dataset, &quantizer);
    let hist = HistogramKind::KnnOptimal.build(&f_prime, 1 << TAU);
    let scheme: Arc<dyn ApproxScheme> = Arc::new(GlobalScheme::new(hist, quantizer, dataset.dim()));
    let cache_bytes = (dataset.file_bytes() as f64 * spec.cache_share) as usize;
    let cache = ShardedCompactCache::lru(scheme, cache_bytes, SHARDS);
    if spec.warm_fill {
        cache.warm_fill(&dataset, &replay.ranking);
    }
    let file = PointFile::new(dataset.clone());
    FlatStack {
        dataset: Arc::new(dataset),
        index: Arc::new(index),
        file: Arc::new(file),
        cache: Arc::new(cache),
        pool: log.pool,
    }
}

/// Start the server over `stack`, with the timing decorators when `traced`.
pub fn start(spec: &FlatSpec, stack: &FlatStack, traced: bool) -> QueryServer {
    let store = broker_stack(Arc::clone(&stack.file) as _, spec.hot_pages, traced);
    let (index, cache): (
        Arc<dyn CandidateIndex + Send + Sync>,
        Arc<dyn ConcurrentPointCache>,
    ) = if traced {
        (
            Arc::new(TimedIndex(Arc::clone(&stack.index))),
            Arc::new(TimedPointCache(Arc::clone(&stack.cache) as _)),
        )
    } else {
        (Arc::clone(&stack.index) as _, Arc::clone(&stack.cache) as _)
    };
    QueryServer::start(
        SharedParts::new(index, store),
        cache,
        serve_config(),
        &MetricsRegistry::new(),
    )
}

/// The request stream: Zipf popularity in fixed-mix blocks, or independent
/// uniform draws.
pub fn draws(spec: &FlatSpec, pool: usize, seed: u64) -> Box<dyn FnMut() -> usize> {
    let seed = derive_seed(seed, 3);
    match spec.popularity {
        Popularity::Zipf(s) => zipf_stream(pool, s, seed),
        Popularity::Uniform => {
            let mut rng = StdRng::seed_from_u64(seed);
            Box::new(move || rng.gen_range(0..pool))
        }
    }
}

/// A flat workload.
pub struct Flat(pub &'static FlatSpec);

fn sorted(ids: &[PointId]) -> Vec<PointId> {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    ids
}

impl ReadWorkload for Flat {
    type Stack = FlatStack;
    const IDENTITY_REQUESTS: usize = 100;

    fn setup(&self) -> FlatStack {
        setup(self.0)
    }

    fn start(&self, stack: &FlatStack, traced: bool) -> QueryServer {
        start(self.0, stack, traced)
    }

    fn draws(&self, stack: &FlatStack, seed: u64) -> Box<dyn FnMut() -> usize> {
        draws(self.0, stack.pool.len(), seed)
    }

    fn pages_window(&self) -> usize {
        self.0.pages_window
    }

    fn pool<'a>(&self, stack: &'a FlatStack) -> &'a [Vec<f32>] {
        &stack.pool
    }

    fn file<'a>(&self, stack: &'a FlatStack) -> &'a PointFile {
        &stack.file
    }

    /// Every served answer must equal that of a single-threaded engine
    /// over the same index whose exact cache holds every point: multi-step
    /// refinement returns the exact top-k of the candidates whatever the
    /// cache holds.
    fn incorrect(&self, stack: &FlatStack, samples: &[Sample]) -> usize {
        let all: Vec<PointId> = stack.dataset.iter().map(|(id, _)| id).collect();
        let cache = ExactPointCache::hff(&stack.dataset, &all, 2 * stack.dataset.file_bytes());
        let file = PointFile::new(stack.dataset.as_ref().clone());
        let mut engine = KnnEngine::new(stack.index.as_ref(), &file, Box::new(cache));
        let mut reference: HashMap<usize, Vec<PointId>> = HashMap::new();
        samples
            .iter()
            .filter(|s| {
                let want = reference
                    .entry(s.idx)
                    .or_insert_with(|| sorted(&engine.query(&stack.pool[s.idx], K).0));
                s.ids.len() != K || sorted(&s.ids) != *want
            })
            .count()
    }

    fn recall(&self, stack: &FlatStack, sample: &Sample) -> f64 {
        let truth = brute_force_top_k(&stack.dataset, &stack.pool[sample.idx], K);
        truth.iter().filter(|id| sample.ids.contains(id)).count() as f64 / K as f64
    }
}
