//! Plumbing shared by the f32 ([`Conv2d`](crate::Conv2d)) and int8
//! ([`QuantConv2d`](crate::QuantConv2d)) inference kernels: one runtime
//! AVX2 check and one work partitioner.
//!
//! A convolution's output is `planes × h × w`. [`for_each_band`] splits it
//! into (output channel, row band) work items, each a contiguous run of
//! whole rows of one plane, and fans them out across threads once the layer
//! is large enough to pay for it. Splitting rows as well as channels keeps
//! single-channel layers (NN-S conv3) parallel, and running the items
//! band-major keeps a band's input rows in cache across output channels.
//! Every output element is computed by exactly one item with a fixed
//! accumulation order, so results do not depend on the partition or the
//! thread count.

use std::ops::Range;

/// Minimum multiply-accumulate count before a convolution pass fans out
/// across threads; below this the scoped-thread setup costs more than it
/// saves.
pub(crate) const PAR_MIN_MACS: u64 = 8_000_000;

/// Whether the explicit AVX2 kernels may run: compiled in (the `simd`
/// feature, x86-64) and detected on this CPU. Checked once per process.
pub(crate) fn avx2_enabled() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static ON: OnceLock<bool> = OnceLock::new();
        *ON.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Input bytes one work item's rows may span: small enough that the input
/// rows a band reads stay in a per-core cache while the band is computed
/// for every output channel in turn.
const BAND_INPUT_BYTES: usize = 256 * 1024;

/// Runs `f(plane, rows, band)` over a `planes × h × w` output, where `band`
/// is the slice of `out` holding rows `rows` of plane `plane`.
/// `in_row_bytes` is the size of one row across all input channels.
///
/// Bands are as tall as [`BAND_INPUT_BYTES`] of input allows, and the items
/// run band-major — every plane's first band, then every plane's second
/// band, … — so the input rows a band reads are reused from cache across
/// output channels. Layers of at least [`PAR_MIN_MACS`] (`macs`) fan the
/// items out over the `vrd-runtime` pool in contiguous runs, with bands
/// short enough that every thread gets work even when there is a single
/// plane; smaller layers run on the calling thread.
pub(crate) fn for_each_band<T, F>(
    out: &mut [T],
    (h, w): (usize, usize),
    in_row_bytes: usize,
    macs: u64,
    f: F,
) where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let hw = h * w;
    if hw == 0 {
        return;
    }
    let threads = if macs < PAR_MIN_MACS {
        1
    } else {
        vrd_runtime::max_threads()
    };
    let planes = out.len() / hw;
    let band_rows = (BAND_INPUT_BYTES / in_row_bytes.max(1))
        .clamp(1, h)
        .min(h.div_ceil(threads.div_ceil(planes)));
    let mut per_plane: Vec<_> = out
        .chunks_mut(hw)
        .map(|p| p.chunks_mut(band_rows * w))
        .collect();
    let mut items = Vec::with_capacity(h.div_ceil(band_rows) * planes);
    for y0 in (0..h).step_by(band_rows) {
        let rows = y0..(y0 + band_rows).min(h);
        for (plane, bands) in per_plane.iter_mut().enumerate() {
            let band = bands.next().expect("every plane has a band per row range");
            items.push((plane, rows.clone(), band));
        }
    }
    let run = |(plane, rows, band): (usize, Range<usize>, &mut [T])| f(plane, rows, band);
    if threads == 1 {
        items.into_iter().for_each(run);
    } else {
        vrd_runtime::parallel_for_each(items, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_tile_the_output_exactly_once() {
        let cases = [
            (1, 7, 3, 2, 1),
            (1, 5, 4, 3, 1),
            (8, 6, 2, 2, 1),
            (3, 1, 5, 4, 1),
            (2, 9, 4, 1, BAND_INPUT_BYTES / 2),
            (3, 40, 2, 1, BAND_INPUT_BYTES / 16),
        ];
        for (planes, h, w, threads, row_bytes) in cases {
            let mut out = vec![0u32; planes * h * w];
            vrd_runtime::with_thread_budget(threads, || {
                for_each_band(
                    &mut out,
                    (h, w),
                    row_bytes,
                    PAR_MIN_MACS,
                    |plane, rows, band| {
                        assert_eq!(band.len(), rows.len() * w);
                        for (i, v) in band.iter_mut().enumerate() {
                            *v += ((plane * h + rows.start) * w + i) as u32 + 1;
                        }
                    },
                );
            });
            let want: Vec<u32> = (1..=(planes * h * w) as u32).collect();
            assert_eq!(out, want, "planes {planes} h {h} w {w} threads {threads}");
        }
    }
}
