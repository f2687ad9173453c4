//! Synthetic pages with calibrated compressibility.
//!
//! The paper's Fig. 3-5 vary *page compressibility* across ten ML
//! workloads. We cannot replay the authors' application memory, so this
//! module fabricates pages whose LZ-compressed size lands near a target
//! ratio: each page is a prefix of incompressible random bytes followed by
//! a repeated motif, with the split point solved from the codec's token
//! economics.

use dmem_sim::DetRng;
use dmem_types::PAGE_SIZE;

/// Bytes of LZ output per motif byte covered (3-byte match tokens covering
/// up to 131 bytes).
const MATCH_COST_PER_BYTE: f64 = 3.0 / 131.0;
/// Bytes of LZ output per literal byte (control byte per 128-byte run).
const LITERAL_COST_PER_BYTE: f64 = 1.0 + 1.0 / 128.0;

/// Generates a 4 KiB page whose LZ-compressed size approximates
/// `PAGE_SIZE / target_ratio`.
///
/// Ratios at or below 1.0 yield fully random (incompressible) pages;
/// ratios of 8 and above yield nearly constant pages. In between, the
/// achieved ratio is monotone in the target (verified by property test),
/// which is all the experiments rely on.
///
/// # Examples
///
/// ```
/// use dmem_compress::{lz, synth};
/// use dmem_sim::DetRng;
///
/// let mut rng = DetRng::new(1);
/// let page = synth::page_with_ratio(4.0, &mut rng);
/// let achieved = page.len() as f64 / lz::compress(&page).len() as f64;
/// assert!(achieved > 2.5 && achieved < 6.0);
/// ```
pub fn page_with_ratio(target_ratio: f64, rng: &mut DetRng) -> Vec<u8> {
    let mut page = Vec::new();
    page_with_ratio_into(target_ratio, rng, &mut page);
    page
}

/// [`page_with_ratio`] into a caller-provided buffer, reusing its
/// capacity. Every byte of the buffer is overwritten, so the result is
/// identical to the allocating variant for the same rng state.
pub(crate) fn page_with_ratio_into(target_ratio: f64, rng: &mut DetRng, page: &mut Vec<u8>) {
    let ratio = target_ratio.max(1.0);
    let target_compressed = PAGE_SIZE as f64 / ratio;
    // Solve: L*literal_cost + (PAGE_SIZE - L)*match_cost = target.
    let numerator = target_compressed - PAGE_SIZE as f64 * MATCH_COST_PER_BYTE;
    let denominator = LITERAL_COST_PER_BYTE - MATCH_COST_PER_BYTE;
    let random_len = (numerator / denominator).clamp(0.0, PAGE_SIZE as f64) as usize;

    // Only a short buffer is grown (with zeros); a page-sized one is
    // left as it is, since every byte is written below.
    page.resize(PAGE_SIZE, 0);
    rng.fill_bytes(&mut page[..random_len]);
    // Repeated motif for the compressible tail. An 8-byte motif keeps the
    // matcher in long-match territory without degenerate RLE behaviour.
    let motif = rng.next_u64().to_le_bytes();
    let mut chunks = page[random_len..].chunks_exact_mut(motif.len());
    for chunk in &mut chunks {
        chunk.copy_from_slice(&motif);
    }
    let tail = chunks.into_remainder();
    tail.copy_from_slice(&motif[..tail.len()]);
}

/// A fully random, incompressible page.
pub fn random_page(rng: &mut DetRng) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    rng.fill_bytes(&mut page);
    page
}

/// An all-zero page (the most compressible case; common in practice for
/// freshly touched heap).
#[cfg(test)]
pub(crate) fn zero_page() -> Vec<u8> {
    vec![0u8; PAGE_SIZE]
}

/// Samples a page whose target ratio is drawn uniformly from
/// `mean_ratio ± spread`, floored at 1.0.
///
/// Workload models use this to produce a realistic per-page
/// compressibility distribution around a workload's profile mean.
pub fn page_around_ratio(mean_ratio: f64, spread: f64, rng: &mut DetRng) -> Vec<u8> {
    let mut page = Vec::new();
    page_around_ratio_into(mean_ratio, spread, rng, &mut page);
    page
}

/// [`page_around_ratio`] into a caller-provided buffer.
pub(crate) fn page_around_ratio_into(
    mean_ratio: f64,
    spread: f64,
    rng: &mut DetRng,
    page: &mut Vec<u8>,
) {
    let lo = (mean_ratio - spread).max(1.0);
    // `next_up`, not `lo + EPSILON`: from 2.0 up the sum rounds back to
    // `lo` and a zero spread would leave the range empty.
    let hi = (mean_ratio + spread).max(lo.next_up());
    let target = lo + rng.unit() * (hi - lo);
    page_with_ratio_into(target, rng, page);
}

/// Fraction of same-filled (near-zero) pages in a realistic anonymous
/// heap; zswap's own evaluation reports 10-20% of swapped pages are
/// same-filled, which is why it special-cases them.
pub const DEFAULT_ZERO_FRACTION: f64 = 0.15;

/// Samples from the bimodal distribution real heaps exhibit: with
/// probability `zero_fraction` a same-filled page (maximally
/// compressible), otherwise a page around the workload's mean ratio.
///
/// Multi-granularity size classes profit from the same-filled mode
/// (512 B class, 8x) in a way zbud's two-buddies-per-frame cap cannot,
/// which is the structural gap Fig. 3 plots.
pub fn page_mixture(mean_ratio: f64, spread: f64, zero_fraction: f64, rng: &mut DetRng) -> Vec<u8> {
    let mut page = Vec::new();
    page_mixture_into(mean_ratio, spread, zero_fraction, rng, &mut page);
    page
}

/// [`page_mixture`] into a caller-provided buffer, reusing its capacity.
/// The swap engine's eviction loop routes every page generation through
/// this variant so steady-state swap-outs do no heap allocation.
pub fn page_mixture_into(
    mean_ratio: f64,
    spread: f64,
    zero_fraction: f64,
    rng: &mut DetRng,
    page: &mut Vec<u8>,
) {
    if rng.chance(zero_fraction) {
        // Same-filled, not all-zero: a repeated word, still ~max class.
        let word = rng.next_u64() as u8;
        page.clear();
        page.resize(PAGE_SIZE, word);
    } else {
        page_around_ratio_into(mean_ratio, spread, rng, page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz;
    use proptest::prelude::*;

    fn achieved_ratio(page: &[u8]) -> f64 {
        page.len() as f64 / lz::compress(page).len() as f64
    }

    #[test]
    fn extreme_targets() {
        let mut rng = DetRng::new(5);
        let incompressible = page_with_ratio(1.0, &mut rng);
        assert!(achieved_ratio(&incompressible) < 1.2);
        let constant = page_with_ratio(20.0, &mut rng);
        assert!(achieved_ratio(&constant) > 8.0);
    }

    #[test]
    fn mid_targets_land_near() {
        let mut rng = DetRng::new(6);
        for target in [1.5, 2.0, 3.0, 4.0, 6.0] {
            let mut total = 0.0;
            const N: usize = 8;
            for _ in 0..N {
                total += achieved_ratio(&page_with_ratio(target, &mut rng));
            }
            let mean = total / N as f64;
            assert!(
                (mean / target) > 0.6 && (mean / target) < 1.7,
                "target {target} achieved {mean:.2}"
            );
        }
    }

    #[test]
    fn zero_page_is_zeroes() {
        let p = zero_page();
        assert_eq!(p.len(), PAGE_SIZE);
        assert!(p.iter().all(|&b| b == 0));
        assert!(achieved_ratio(&p) > 8.0);
    }

    #[test]
    fn random_page_incompressible() {
        let mut rng = DetRng::new(7);
        assert!(achieved_ratio(&random_page(&mut rng)) < 1.1);
    }

    #[test]
    fn page_mixture_has_same_filled_mode() {
        let mut rng = DetRng::new(11);
        let mut same_filled = 0;
        const N: usize = 200;
        for _ in 0..N {
            let p = page_mixture(2.0, 0.5, 0.5, &mut rng);
            if p.iter().all(|&b| b == p[0]) {
                same_filled += 1;
            }
        }
        let share = same_filled as f64 / N as f64;
        assert!((0.35..0.65).contains(&share), "same-filled share {share}");
        // zero_fraction 0 never emits same-filled pages.
        for _ in 0..20 {
            let p = page_mixture(1.2, 0.1, 0.0, &mut rng);
            assert!(!p.iter().all(|&b| b == p[0]));
        }
    }

    #[test]
    fn into_variant_matches_allocating_bytewise() {
        let mut a = DetRng::new(3);
        let mut b = DetRng::new(3);
        let mut buf = vec![9u8; 17]; // dirty, wrong-sized reusable buffer
        for _ in 0..16 {
            let fresh = page_mixture(2.5, 0.7, 0.3, &mut a);
            page_mixture_into(2.5, 0.7, 0.3, &mut b, &mut buf);
            assert_eq!(buf, fresh, "reused buffer must match fresh allocation");
        }
    }

    #[test]
    fn page_around_ratio_within_band() {
        let mut rng = DetRng::new(8);
        for _ in 0..10 {
            let p = page_around_ratio(3.0, 1.0, &mut rng);
            let r = achieved_ratio(&p);
            assert!(r > 1.2 && r < 8.0, "ratio {r} outside plausible band");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_pages_are_page_sized(target in 1.0f64..10.0, seed in 0u64..1000) {
            let mut rng = DetRng::new(seed);
            prop_assert_eq!(page_with_ratio(target, &mut rng).len(), PAGE_SIZE);
        }

        #[test]
        fn prop_achieved_monotone_in_target(seed in 0u64..200) {
            // Averaged over a few pages, higher targets compress better.
            let mut rng = DetRng::new(seed);
            let mean = |t: f64, rng: &mut DetRng| -> f64 {
                (0..4).map(|_| achieved_ratio(&page_with_ratio(t, rng))).sum::<f64>() / 4.0
            };
            let low = mean(1.5, &mut rng);
            let high = mean(6.0, &mut rng);
            prop_assert!(high > low, "high-target mean {high:.2} <= low-target mean {low:.2}");
        }
    }
}
