//! Property tests pinning the optimised convolution kernels to the naive
//! reference (`vrd_nn::conv::reference`) across random shapes, and the
//! trainer's thread-count invariance.
//!
//! The kernels are designed to be bit-exact (identical per-element
//! accumulation order), so the forward assertions compare `f32::to_bits`
//! — stricter than `==`, which treats `-0.0` and `0.0` as equal. Shapes
//! reach every path of the inference kernel: rows wide enough for the
//! 32-column AVX2 blocks, 8-column blocks and the overlapping tail block,
//! border rows with a clipped `ky` range, and rows narrower than
//! `2·pad + 8`, which fall back to the portable path.

use proptest::prelude::*;
use vrd_nn::conv::{reference, Conv2d};
use vrd_nn::{train, NnS, Sample, Tensor, TrainConfig};

/// Random conv shape: (cin, cout, k, h, w) with `k ∈ {1, 3, 5}`.
fn arb_shape() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    (1usize..17, 1usize..5, 0usize..3, 1usize..16, 1usize..81)
        .prop_map(|(cin, cout, khalf, h, w)| (cin, cout, 2 * khalf + 1, h, w))
}

/// Pseudo-random but deterministic tensor data derived from a seed.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as f32 + 1.0) * (seed % 97 + 1) as f32;
            (x * 0.618_034).sin()
        })
        .collect()
}

/// The bit patterns of a tensor's values.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_matches_reference(shape in arb_shape(), seed in 0u64..1_000_000) {
        let (cin, cout, k, h, w) = shape;
        let conv = Conv2d::new(cin, cout, k, seed);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed));
        let naive = bits(&reference::forward(&conv, &x));
        for budget in [1, 2, 3] {
            let fast = vrd_runtime::with_thread_budget(budget, || conv.forward_inference(&x));
            prop_assert_eq!(&bits(&fast), &naive, "thread budget {}", budget);
        }
    }

    #[test]
    fn portable_and_avx2_paths_match_reference(shape in arb_shape(), seed in 0u64..1_000_000) {
        // Both kernels are pinned on every machine: the dispatcher picks
        // AVX2 where the CPU has it, so the portable path is reached here
        // directly. The AVX2 path is skipped only where it cannot run.
        let (cin, cout, k, h, w) = shape;
        let conv = Conv2d::new(cin, cout, k, seed);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed ^ 0x99));
        let naive = bits(&reference::forward(&conv, &x));
        let portable = conv.forward_pinned(&x, false).expect("portable path always runs");
        prop_assert_eq!(&bits(&portable), &naive);
        if let Some(avx2) = conv.forward_pinned(&x, true) {
            prop_assert_eq!(&bits(&avx2), &naive);
        }
    }

    #[test]
    fn backward_matches_reference(shape in arb_shape(), seed in 0u64..1_000_000) {
        let (cin, cout, k, h, w) = shape;
        let mut conv = Conv2d::new(cin, cout, k, seed);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed));
        let gout = Tensor::from_vec(cout, h, w, fill(cout * h * w, seed ^ 0xabcd));
        let _ = conv.forward(&x);
        conv.zero_grad();
        let gin = conv.backward(&gout);
        let (gin_ref, gw_ref, gb_ref) = reference::backward(&conv, &x, &gout);
        prop_assert_eq!(gin.as_slice(), gin_ref.as_slice());
        let (gw, gb) = conv.grads();
        prop_assert_eq!(gw, &gw_ref[..]);
        prop_assert_eq!(gb, &gb_ref[..]);
    }

    #[test]
    fn backward_handles_zero_heavy_gradients(
        shape in arb_shape(),
        seed in 0u64..1_000_000,
        keep_every in 2usize..8,
    ) {
        // Gradients arriving through ReLU masks are mostly zero; the
        // optimised backward keeps a row-granular sparse fast path. Pin
        // that it never changes the result — including fully-zero inputs.
        let (cin, cout, k, h, w) = shape;
        let mut conv = Conv2d::new(cin, cout, k, seed);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed));
        let mut g = fill(cout * h * w, seed ^ 0x5eed);
        for (i, v) in g.iter_mut().enumerate() {
            if i % keep_every != 0 {
                *v = 0.0;
            }
        }
        // Zero out whole rows too, so the row-skip path is exercised.
        for row in g.chunks_mut(w).step_by(2) {
            row.fill(0.0);
        }
        let gout = Tensor::from_vec(cout, h, w, g);
        let _ = conv.forward(&x);
        conv.zero_grad();
        let gin = conv.backward(&gout);
        let (gin_ref, gw_ref, gb_ref) = reference::backward(&conv, &x, &gout);
        prop_assert_eq!(gin.as_slice(), gin_ref.as_slice());
        let (gw, gb) = conv.grads();
        prop_assert_eq!(gw, &gw_ref[..]);
        prop_assert_eq!(gb, &gb_ref[..]);
    }

    #[test]
    fn inference_matches_training_forward(shape in arb_shape(), seed in 0u64..1_000_000) {
        let (cin, cout, k, h, w) = shape;
        let mut conv = Conv2d::new(cin, cout, k, seed);
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed ^ 0x77));
        let trained = conv.forward(&x);
        let inferred = conv.forward_inference(&x);
        prop_assert_eq!(bits(&trained), bits(&inferred));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn row_banded_forward_is_thread_count_invariant(
        wide in 0usize..2,
        h in 240usize..280,
        w in 240usize..300,
        seed in 0u64..1_000_000,
    ) {
        // Layers past the parallel threshold split into (row band × output
        // channel) items; a single output channel (NN-S conv3) is cut into
        // row bands only. Every split must reproduce the reference bits,
        // on the dispatched kernel and on the portable one.
        let (cin, cout) = (16, 1 + 2 * wide);
        let conv = Conv2d::new(cin, cout, 3, seed);
        prop_assert!(conv.macs(h, w) >= 8_000_000, "shape below the parallel threshold");
        let x = Tensor::from_vec(cin, h, w, fill(cin * h * w, seed ^ 0x3));
        let naive = bits(&reference::forward(&conv, &x));
        for budget in [1, 2, 3] {
            let (fast, portable) = vrd_runtime::with_thread_budget(budget, || {
                (conv.forward_inference(&x), conv.forward_pinned(&x, false))
            });
            prop_assert_eq!(&bits(&fast), &naive, "thread budget {}", budget);
            let portable = portable.expect("portable path always runs");
            prop_assert_eq!(&bits(&portable), &naive, "portable, thread budget {}", budget);
        }
    }
}

/// Small random training corpus for the determinism property.
fn toy_samples(n: usize, seed: u64) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let s = seed.wrapping_add(i as u64);
            Sample {
                input: Tensor::from_vec(3, 8, 8, fill(3 * 64, s)),
                target: Tensor::from_vec(
                    1,
                    8,
                    8,
                    fill(64, s ^ 0xf00d)
                        .iter()
                        .map(|v| f32::from(*v > 0.0))
                        .collect(),
                ),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn train_is_bit_deterministic_across_thread_counts(seed in 0u64..1_000_000) {
        let samples = toy_samples(12, seed);
        let run = |threads: usize| -> (Vec<f32>, Vec<u32>) {
            let mut model = NnS::new(4, seed ^ 0x42);
            let hist = train(
                &mut model,
                &samples,
                &TrainConfig { threads, ..TrainConfig::default() },
            );
            let (c1, c2, c3) = model.convs();
            let bits = [c1, c2, c3]
                .iter()
                .flat_map(|c| {
                    let (w, b) = c.export_params();
                    w.into_iter().chain(b)
                })
                .map(f32::to_bits)
                .collect();
            (hist, bits)
        };
        let base = run(1);
        for threads in [2, 4, 7] {
            let other = run(threads);
            prop_assert_eq!(&base.0, &other.0, "loss history differs at {} threads", threads);
            prop_assert_eq!(&base.1, &other.1, "weights differ at {} threads", threads);
        }
    }
}
