//! # vrd-nn — a from-scratch CNN substrate for VR-DANN
//!
//! Substrate crate of the VR-DANN reproduction (MICRO 2020). It contains:
//!
//! * a minimal trainable CNN stack — [`Tensor`], [`Conv2d`] with
//!   backpropagation, pooling/upsampling/activation layers, BCE loss and an
//!   SGD-momentum [`trainer`];
//! * [`NnS`], the paper's 3-layer refinement network (conv → downsample →
//!   conv → upsample → concat → conv on the sandwich input), actually
//!   trained for the paper's two epochs;
//! * [`LargeNet`], the calibrated oracle standing in for the trained
//!   ROI-SegNet / OSVOS / SELSA networks (quality + ops model; see
//!   `DESIGN.md` §2 for the substitution rationale).
//!
//! ## Example
//!
//! ```
//! use vrd_nn::{NnS, Tensor};
//!
//! let nns = NnS::new(8, 42);
//! // NN-S is tiny: under 1k parameters vs hundreds of millions for NN-L.
//! assert!(nns.n_params() < 1500);
//! let sandwich = Tensor::zeros(3, 16, 16);
//! let refined = nns.infer(&sandwich);
//! assert_eq!(refined.channels(), 1);
//! ```

pub mod conv;
pub mod featwarp;
mod kernel;
pub mod largenet;
pub mod layers;
pub mod loss;
pub mod nns;
pub mod quant;
pub mod serialize;
pub mod tensor;
pub mod trainer;

pub use conv::Conv2d;
pub use featwarp::{FeatureMap, WarpSource, FEATURE_CHANNELS, FEATURE_STRIDE};
pub use largenet::{
    LargeNet, LargeNetProfile, FLOWNET_OPS_PER_PIXEL, NNL_HEAD_FRACTION, NNL_OPS_PER_PIXEL,
};
pub use layers::{concat, sigmoid, split, MaxPool2, Relu, Upsample2};
pub use loss::{bce_with_logits, mse};
pub use nns::{NnS, SANDWICH_CHANNELS};
pub use quant::{ActScales, ComputeMode, QuantConv2d, QuantNnS, Requant};
pub use serialize::{load_nns, save_nns};
pub use tensor::Tensor;
pub use trainer::{train, Optimizer, Sample, TrainConfig};
