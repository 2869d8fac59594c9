//! Request streams with a fixed mix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hc_workload::zipf::Zipf;

/// Requests per block of a Zipf stream.
const MIX_BLOCK: usize = 1_000;

/// Pool indices with Zipf(`s`) popularity over `pool` queries (index 0 the
/// most popular), in fixed-mix blocks of [`MIX_BLOCK`] requests.
pub fn zipf_stream(pool: usize, s: f64, seed: u64) -> Box<dyn FnMut() -> usize> {
    let zipf = Zipf::new(pool, s);
    let weights: Vec<f64> = (0..pool).map(|r| zipf.pmf(r)).collect();
    let mut stream = Stratified::new(&weights, MIX_BLOCK, seed);
    Box::new(move || stream.next_index())
}

/// Pool indices in blocks: every block holds each index in proportion to
/// its weight (largest-remainder rounding), in an order shuffled by the
/// seed. Any whole number of blocks has exactly the same mix, so runs with
/// different seeds differ in request order, not in how often each query
/// comes; the tail percentiles then do not jump with which rare heavy
/// queries a seed happened to draw.
pub struct Stratified {
    block: Vec<usize>,
    pos: usize,
    rng: StdRng,
}

impl Stratified {
    pub fn new(weights: &[f64], block_len: usize, seed: u64) -> Self {
        let total: f64 = weights.iter().sum();
        let quotas: Vec<f64> = weights
            .iter()
            .map(|w| w / total * block_len as f64)
            .collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            let (ra, rb) = (quotas[a] - quotas[a].floor(), quotas[b] - quotas[b].floor());
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        let short = block_len - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(short) {
            counts[i] += 1;
        }
        let block = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
            .collect::<Vec<_>>();
        let pos = block.len();
        Self {
            block,
            pos,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next_index(&mut self) -> usize {
        if self.pos == self.block.len() {
            for i in (1..self.block.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.block.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.block[self.pos - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_has_the_same_mix() {
        let weights = [5.0, 3.0, 1.5, 0.5];
        let mut s = Stratified::new(&weights, 20, 9);
        for _ in 0..3 {
            let mut counts = [0usize; 4];
            for _ in 0..20 {
                counts[s.next_index()] += 1;
            }
            assert_eq!(counts, [10, 6, 3, 1]);
        }
    }

    #[test]
    fn the_seed_changes_only_the_order() {
        let weights = vec![1.0; 50];
        let a: Vec<usize> = {
            let mut s = Stratified::new(&weights, 50, 1);
            (0..50).map(|_| s.next_index()).collect()
        };
        let mut b: Vec<usize> = {
            let mut s = Stratified::new(&weights, 50, 2);
            (0..50).map(|_| s.next_index()).collect()
        };
        assert_ne!(a, b);
        b.sort_unstable();
        assert_eq!(b, (0..50).collect::<Vec<_>>());
    }
}
