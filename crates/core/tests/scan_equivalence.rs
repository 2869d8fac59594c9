//! The scalar-vs-vectorized equivalence battery for the blocked compact
//! scan (`hc_core::scan`).
//!
//! A word-parallel bound kernel that is *almost* right silently breaks the
//! exactness guarantee every bench asserts, so equivalence here is bitwise
//! (`f64::to_bits`), never approximate:
//!
//! * blocked kernel ≡ scalar `ApproxScheme::bounds` — for arbitrary dim/τ
//!   (including word-straddling τ = 5, 7, 11 and the τ = 32 mask edge),
//!   random schemes, queries, lanes-per-block, and ragged tail blocks;
//! * AVX2 gather path ≡ scalar-blocked fallback under forced kernel
//!   selection (`Simd::ForceAvx2` vs `Simd::Scalar`);
//! * the leaf kernel (`QueryTables::packed_bounds`, row-major packed
//!   members bounded side by side) ≡ scalar `ApproxScheme::bounds`, for
//!   global and ragged per-dimension schemes, τ from 1 to 32, and leaf
//!   sizes on both sides of the interleave width;
//! * the 4-lane exact-distance kernel's AVX2 path ≡ its portable reference.
//!
//! CI runs this suite three times: default, `RUSTFLAGS="-C
//! target-feature=+avx2"`, and `HC_SCAN_SIMD=off` (see `ci.sh`).

use std::sync::Arc;

use hc_core::bounds::DistBounds;
use hc_core::codes::PackedCodes;
use hc_core::dataset::Dataset;
use hc_core::distance::sq_euclidean_portable;
use hc_core::histogram::classic::{equi_depth, equi_width};
use hc_core::quantize::Quantizer;
use hc_core::scan::{
    avx2_available, scan_slots, BlockedCodes, QueryTables, ScanIntervals, ScanScratch, Simd,
};
use hc_core::scheme::{ApproxScheme, GlobalScheme, IndividualScheme};
use proptest::prelude::*;

/// Assert two bound pairs are bit-identical (not merely close).
fn assert_bits_eq(got: DistBounds, want: DistBounds, ctx: &str) {
    assert_eq!(
        got.lb.to_bits(),
        want.lb.to_bits(),
        "{ctx}: lb {} vs {}",
        got.lb,
        want.lb
    );
    assert_eq!(
        got.ub.to_bits(),
        want.ub.to_bits(),
        "{ctx}: ub {} vs {}",
        got.ub,
        want.ub
    );
}

/// Synthetic per-dimension interval tables for τ too large to enumerate 2^τ
/// buckets (τ up to 32 packs at full width while indexing a small table —
/// codes are bucket ids, never required to span the whole code space).
fn synth_shared(nb: usize, seed: i64) -> Vec<(f32, f32)> {
    (0..nb)
        .map(|b| {
            let lo = (b as f32) * 0.37 + (seed % 7) as f32 * 0.11 - 2.0;
            (lo, lo + 0.25 + (b % 3) as f32 * 0.4)
        })
        .collect()
}

fn run_all_kernels(
    tables: &QueryTables,
    bc: &BlockedCodes,
    slots: &[(u32, u32)],
    n: usize,
) -> Vec<(DistBounds, DistBounds)> {
    let mut scalar = vec![DistBounds::UNKNOWN; n];
    let mut simd = vec![DistBounds::UNKNOWN; n];
    let mut scratch = ScanScratch::default();
    scan_slots(tables, bc, slots, &mut scalar, &mut scratch, Simd::Scalar);
    let forced = if avx2_available() {
        Simd::ForceAvx2
    } else {
        Simd::Auto
    };
    scan_slots(tables, bc, slots, &mut simd, &mut scratch, forced);
    scalar.into_iter().zip(simd).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Synthetic schemes across the full τ range, arbitrary lanes-per-block
    /// (ragged tails included): blocked scalar ≡ table-free reference, and
    /// the SIMD kernel ≡ blocked scalar, all bitwise.
    #[test]
    fn blocked_matches_scalar_arbitrary_tau(
        tau_i in 0usize..12,
        d in 1usize..40,
        lanes_i in 0usize..6,
        n in 1usize..90,
        seed in 0i64..1000,
    ) {
        const TAUS: [u32; 12] = [1, 2, 3, 5, 7, 8, 11, 13, 16, 21, 27, 32];
        const LANES: [usize; 6] = [1, 3, 5, 8, 17, 64];
        let tau = TAUS[tau_i];
        let lanes = LANES[lanes_i];
        // Bucket count decoupled from 2^τ for big τ (tables are sized by
        // the scheme's bucket count, never 2^τ) but capped so codes fit.
        let nb = 24usize.min(1usize << tau.min(8));
        let real = synth_shared(nb, seed);
        let intervals = ScanIntervals::Shared(&real);
        let q: Vec<f32> = (0..d).map(|j| ((j as i64 * 31 + seed) % 17) as f32 * 0.3 - 2.0).collect();
        let tables = QueryTables::build(&q, &intervals);

        let mut bc = BlockedCodes::with_lanes(d, tau, lanes);
        let mut reference = Vec::with_capacity(n);
        for slot in 0..n {
            let codes: Vec<u32> = (0..d)
                .map(|j| ((slot as i64 * 131 + j as i64 * 17 + seed) % nb as i64) as u32)
                .collect();
            bc.set_lane(slot, codes.iter().copied());
            // Reference: the scalar interval math, dimension-ascending.
            let mut acc = hc_core::bounds::BoundsAcc::new();
            for (j, &c) in codes.iter().enumerate() {
                let (lo, hi) = real[c as usize];
                acc.add(q[j], lo, hi);
            }
            reference.push(acc.finish());
        }
        let slots: Vec<(u32, u32)> = (0..n as u32).map(|s| (s, s)).collect();
        for (i, (scalar, simd)) in run_all_kernels(&tables, &bc, &slots, n).into_iter().enumerate() {
            assert_bits_eq(scalar, reference[i], &format!("scalar tau={tau} lanes={lanes} slot={i}"));
            assert_bits_eq(simd, reference[i], &format!("simd tau={tau} lanes={lanes} slot={i}"));
        }
    }

    /// Real global scheme end to end: encode → transpose → blocked scan vs
    /// `ApproxScheme::bounds` over the packed words. Random subsets probe
    /// sparse and dense block groups alike.
    #[test]
    fn global_scheme_blocked_matches_bounds(
        buckets_i in 0usize..5,
        d in 1usize..24,
        n in 1usize..100,
        pick_every in 1usize..5,
        seed in 0u64..500,
    ) {
        const BUCKETS: [u32; 5] = [2, 4, 8, 32, 128];
        let buckets = BUCKETS[buckets_i];
        let rows: Vec<Vec<f32>> = (0..n.max(2))
            .map(|i| (0..d).map(|j| ((i as u64 * 37 + j as u64 * 11 + seed) % 97) as f32).collect())
            .collect();
        let ds = Dataset::from_rows(&rows);
        let (lo, hi) = ds.value_range();
        let scheme = GlobalScheme::new(equi_width(256, buckets), Quantizer::new(lo, hi, 256), d);
        let q: Vec<f32> = (0..d).map(|j| ((j as u64 * 13 + seed) % 97) as f32).collect();

        let mut pc = PackedCodes::new(d, scheme.tau());
        for row in &rows {
            let mut w = Vec::new();
            scheme.encode_into(row, &mut w);
            pc.push(hc_core::codes::CodeIter::new(&w, scheme.tau(), d));
        }
        let bc = BlockedCodes::from_packed(&pc);
        let intervals = scheme.scan_intervals().expect("global scheme has intervals");
        let tables = QueryTables::build(&q, &intervals);

        let picked: Vec<u32> = (0..pc.len() as u32).step_by(pick_every).collect();
        let slots: Vec<(u32, u32)> = picked.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
        for (i, (scalar, simd)) in
            run_all_kernels(&tables, &bc, &slots, picked.len()).into_iter().enumerate()
        {
            let want = scheme.bounds(&q, pc.point_words(picked[i] as usize));
            assert_bits_eq(scalar, want, &format!("scalar b={buckets} slot={}", picked[i]));
            assert_bits_eq(simd, want, &format!("simd b={buckets} slot={}", picked[i]));
        }
    }

    /// Individual (per-dimension histogram) scheme: ragged per-dim bucket
    /// counts exercise the table stride padding.
    #[test]
    fn individual_scheme_blocked_matches_bounds(
        d in 2usize..10,
        n in 2usize..60,
        seed in 0u64..300,
    ) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..d).map(|j| ((i as u64 * 41 + j as u64 * 29 + seed) % 89) as f32).collect())
            .collect();
        let ds = Dataset::from_rows(&rows);
        let mut hists = Vec::new();
        let mut quants = Vec::new();
        for j in 0..d {
            let col: Vec<f32> = rows.iter().map(|r| r[j]).collect();
            let quant = Quantizer::new(-1.0, 90.0, 128);
            let freq = quant.frequency_array(&col);
            // Ragged: bucket count varies per dimension.
            let b = 2 + (j % 4) as u32 * 2;
            hists.push(equi_depth(&freq, b));
            quants.push(quant);
        }
        let scheme = IndividualScheme::new(hists, quants);
        let q: Vec<f32> = (0..d).map(|j| ((j as u64 * 53 + seed) % 89) as f32).collect();

        let mut pc = PackedCodes::new(d, scheme.tau());
        for row in &rows {
            let mut w = Vec::new();
            scheme.encode_into(row, &mut w);
            pc.push(hc_core::codes::CodeIter::new(&w, scheme.tau(), d));
        }
        let bc = BlockedCodes::from_packed(&pc);
        let tables = QueryTables::build(&q, &scheme.scan_intervals().expect("per-dim intervals"));
        let slots: Vec<(u32, u32)> = (0..n as u32).map(|s| (s, s)).collect();
        for (i, (scalar, simd)) in run_all_kernels(&tables, &bc, &slots, n).into_iter().enumerate() {
            let want = scheme.bounds(&q, pc.point_words(i));
            assert_bits_eq(scalar, want, &format!("scalar ihc slot={i}"));
            assert_bits_eq(simd, want, &format!("simd ihc slot={i}"));
        }
        let _ = ds;
    }

    /// The 4-lane exact-distance kernel: AVX2 ≡ portable, bitwise, for
    /// arbitrary dimensionality (ragged tails) and values.
    #[test]
    fn exact_distance_kernels_bit_identical(
        d in 1usize..300,
        seed in 0u64..1000,
    ) {
        let q: Vec<f32> = (0..d).map(|j| ((j as u64 * 71 + seed) % 113) as f32 * 0.17 - 9.0).collect();
        let c: Vec<f32> = (0..d).map(|j| ((j as u64 * 43 + seed * 3) % 113) as f32 * 0.13 - 7.0).collect();
        let portable = sq_euclidean_portable(&q, &c);
        let dispatched = hc_core::distance::sq_euclidean(&q, &c);
        prop_assert_eq!(portable.to_bits(), dispatched.to_bits());
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: availability checked.
            let simd = unsafe { hc_core::distance::sq_euclidean_avx2(&q, &c) };
            prop_assert_eq!(portable.to_bits(), simd.to_bits());
        }
    }
}

/// Deterministic sweep of every word-straddling τ with dense block groups —
/// the exact configurations the proptests sample, pinned so a CI run can
/// never miss them.
#[test]
fn straddling_taus_dense_blocks_exhaustive() {
    for tau in [5u32, 7, 11] {
        for lanes in [64usize, 7] {
            let d = 19;
            let nb = 24;
            let real = synth_shared(nb, tau as i64);
            let q: Vec<f32> = (0..d).map(|j| j as f32 * 0.21 - 1.0).collect();
            let tables = QueryTables::build(&q, &ScanIntervals::Shared(&real));
            let mut bc = BlockedCodes::with_lanes(d, tau, lanes);
            let n = 130; // several blocks + ragged tail
            for slot in 0..n {
                bc.set_lane(slot, (0..d).map(|j| ((slot * 7 + j * 3) % nb) as u32));
            }
            let slots: Vec<(u32, u32)> = (0..n as u32).map(|s| (s, s)).collect();
            for (i, (scalar, simd)) in run_all_kernels(&tables, &bc, &slots, n)
                .into_iter()
                .enumerate()
            {
                let want = tables.lane_bounds(bc.lane_codes(i));
                assert_bits_eq(scalar, want, &format!("tau={tau} lanes={lanes} slot={i}"));
                assert_bits_eq(simd, want, &format!("tau={tau} lanes={lanes} slot={i}"));
            }
        }
    }
}

/// The compact cache consumes schemes through `Arc<dyn ApproxScheme>`; make
/// sure interval access survives the trait object.
#[test]
fn scan_intervals_through_trait_object() {
    let rows: Vec<Vec<f32>> = (0..32)
        .map(|i| vec![i as f32, (i * 3 % 17) as f32])
        .collect();
    let ds = Dataset::from_rows(&rows);
    let (lo, hi) = ds.value_range();
    let scheme: Arc<dyn ApproxScheme> = Arc::new(GlobalScheme::new(
        equi_width(64, 8),
        Quantizer::new(lo, hi, 64),
        2,
    ));
    let q = [3.0f32, 5.0];
    let tables = QueryTables::build(&q, &scheme.scan_intervals().expect("intervals"));
    let words = scheme.encode(&rows[7]);
    let want = scheme.bounds(&q, &words);
    let got = tables.lane_bounds(hc_core::codes::CodeIter::new(&words, scheme.tau(), 2));
    assert_bits_eq(got, want, "trait object");
}

/// Deterministic xorshift stream for the leaf battery.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Bucket count that makes a histogram's τ exactly `tau`.
fn buckets_for(tau: u32) -> u32 {
    if tau == 1 {
        2
    } else {
        (1u32 << (tau - 1)) + 1 + (tau % 3) * ((1u32 << (tau - 1)) / 4)
    }
}

/// Every member of `n`-point leaves through [`QueryTables::packed_bounds`]
/// against `ApproxScheme::bounds` over the same packed words, bitwise, with
/// the tables built by both the scalar and the dispatched fill. Leaf sizes
/// 1–17 cross the interleave width twice.
fn check_leaves(scheme: &dyn ApproxScheme, rows: &[Vec<f32>], queries: &[Vec<f32>], ctx: &str) {
    let d = scheme.dim();
    let tau = scheme.tau();
    let intervals = scheme.scan_intervals().expect("per-dimension intervals");
    for (qi, q) in queries.iter().enumerate() {
        for simd in [Simd::Scalar, Simd::Auto] {
            let tables = QueryTables::build_with(q, &intervals, simd);
            let mut at = 0;
            for n in 1..=17usize {
                let mut words = Vec::new();
                for i in 0..n {
                    scheme.encode_into(&rows[(at + i) % rows.len()], &mut words);
                }
                at += n;
                // Trailing words past the leaf must be ignored.
                words.push(u64::MAX);
                let mut out = vec![DistBounds::UNKNOWN];
                tables.packed_bounds(&words, tau, n, &mut out);
                assert_eq!(out.len(), n + 1, "{ctx}: appends after existing bounds");
                let wpp = scheme.words_per_point();
                for i in 0..n {
                    let want = scheme.bounds(q, &words[i * wpp..(i + 1) * wpp]);
                    assert_bits_eq(
                        out[i + 1],
                        want,
                        &format!("{ctx} d={d} τ={tau} q={qi} {simd:?} n={n} member={i}"),
                    );
                }
            }
        }
    }
}

fn leaf_rows(d: usize, count: usize, lo: f32, hi: f32, seed: u64) -> Vec<Vec<f32>> {
    let mut s = seed | 1;
    (0..count)
        .map(|_| {
            (0..d)
                .map(|_| lo + (hi - lo) * (xorshift(&mut s) % 10_000) as f32 / 10_000.0)
                .collect()
        })
        .collect()
}

/// Global-histogram leaves for τ ∈ {1, 3, 7, 8, 12, 16}: codes straddle
/// words at every τ that does not divide 64, and queries fall inside,
/// between and outside the buckets.
#[test]
fn packed_bounds_global_scheme_bit_identical() {
    for tau in [1u32, 3, 7, 8, 12, 16] {
        let buckets = buckets_for(tau);
        let n_dom = buckets.next_power_of_two().max(256);
        // Enough dimensions to span several words, fewer at τ = 16 where
        // each table row holds tens of thousands of buckets.
        let d = if tau >= 12 { 7 } else { 37 };
        let scheme = GlobalScheme::new(
            equi_width(n_dom, buckets),
            Quantizer::new(0.0, 100.0, n_dom),
            d,
        );
        assert_eq!(scheme.tau(), tau);
        let rows = leaf_rows(d, 40, 0.0, 100.0, u64::from(tau) * 7919);
        let mut queries = leaf_rows(d, 2, -20.0, 120.0, u64::from(tau) * 104_729);
        queries.push(rows[3].clone());
        check_leaves(&scheme, &rows, &queries, "global");
    }
}

/// Per-dimension histograms with ragged bucket counts (so the tables pad
/// short rows to the stride), for the same τ sweep minus the widest.
#[test]
fn packed_bounds_ragged_individual_scheme_bit_identical() {
    for tau in [1u32, 3, 7, 8, 12] {
        let d = 23;
        let top = buckets_for(tau);
        let n_dom = top.next_power_of_two().max(256);
        let mut hists = Vec::new();
        let mut quants = Vec::new();
        for j in 0..d {
            // Dimension 0 carries the full τ; the rest shrink unevenly.
            let b = if j == 0 {
                top
            } else {
                (top - (j as u32 * 37) % top).max(1)
            };
            hists.push(equi_width(n_dom, b));
            quants.push(Quantizer::new(-(j as f32), 50.0 + j as f32, n_dom));
        }
        let scheme = IndividualScheme::new(hists, quants);
        assert_eq!(scheme.tau(), tau);
        let rows = leaf_rows(d, 40, -10.0, 60.0, u64::from(tau) * 31);
        let mut queries = leaf_rows(d, 2, -30.0, 90.0, u64::from(tau) * 61);
        queries.push(rows[5].clone());
        check_leaves(&scheme, &rows, &queries, "individual");
    }
}

/// τ = 32 packs codes at full word-half width, which no histogram reaches
/// (it would need 2^31 buckets); synthetic codes into a small shared table
/// check the mask edge against the scalar interval math of
/// `GlobalScheme::bounds`, dimension by dimension.
#[test]
fn packed_bounds_tau_32_bit_identical() {
    let d = 9;
    let nb = 24;
    let real = synth_shared(nb, 5);
    let q: Vec<f32> = (0..d).map(|j| j as f32 * 0.9 - 3.0).collect();
    let tables = QueryTables::build(&q, &ScanIntervals::Shared(&real));
    let mut s = 0x5eed;
    for n in 1..=17usize {
        let codes: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| (xorshift(&mut s) % nb as u64) as u32)
                    .collect()
            })
            .collect();
        let mut words = Vec::new();
        for c in &codes {
            hc_core::codes::pack_codes(c.iter().copied(), 32, &mut words);
        }
        let mut out = Vec::new();
        tables.packed_bounds(&words, 32, n, &mut out);
        for (i, c) in codes.iter().enumerate() {
            let mut acc = hc_core::bounds::BoundsAcc::new();
            for (j, &code) in c.iter().enumerate() {
                let (lo, hi) = real[code as usize];
                acc.add(q[j], lo, hi);
            }
            assert_bits_eq(out[i], acc.finish(), &format!("τ=32 n={n} member={i}"));
        }
    }
}
