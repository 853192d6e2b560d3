//! 2D convolution with backpropagation.
//!
//! **Inference** (`forward_inference`, `forward`, and the pooled
//! `forward_into` behind `NnS::infer`) splits the output into
//! (row band × output channel) work items (`kernel::for_each_band`), so a
//! single-channel layer such as NN-S conv3 still spreads across threads.
//! Inside an item, the AVX2 kernel (runtime-detected, `simd` feature) keeps
//! 4 × 8 output columns in registers: it starts them at the bias and adds
//! every `(ci, ky, kx)` tap in the reference order as a separate multiply
//! then add, and stores each output once. The row's interior runs in
//! 32-column blocks, then 8-column blocks, then one overlapping 8-column
//! block for the tail; border rows run the same blocks over the valid `ky`
//! range, and the `pad` edge columns take a scalar loop over the valid taps.
//! Rows narrower than `2·pad + 8`, and hosts without AVX2, take the
//! portable path, which applies each tap as a slice AXPY over the band's
//! rows. Both paths reproduce the naive triple loop in [`reference`]
//! **bit for bit** at any thread count, pinned by property tests in
//! `tests/conv_equivalence.rs`.
//!
//! **Training** (`backward`) keeps the slice-AXPY kernels, split per
//! output channel for weight gradients and per input channel for the input
//! gradient above `PAR_MIN_MACS`. The partitions write disjoint buffers in
//! unchanged per-element order, so results are independent of the thread
//! count.

use crate::kernel::{self, PAR_MIN_MACS};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;

/// A stride-1, same-padded `k × k` convolution layer with bias, plus the
/// plumbing needed to train it (gradient buffers, SGD-momentum state).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    cin: usize,
    cout: usize,
    k: usize,
    /// Weights laid out `[cout][cin][k][k]`.
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    vw: Vec<f32>,
    vb: Vec<f32>,
    /// Second-moment accumulators (Adam only).
    sw: Vec<f32>,
    sb: Vec<f32>,
    cache: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform initialised weights.
    ///
    /// # Panics
    /// Panics if any dimension is zero or `k` is even (same-padding needs an
    /// odd kernel).
    pub fn new(cin: usize, cout: usize, k: usize, seed: u64) -> Self {
        assert!(cin > 0 && cout > 0 && k > 0, "conv dims must be non-zero");
        assert!(k % 2 == 1, "same-padded convolution needs an odd kernel");
        let fan_in = (cin * k * k) as f32;
        let bound = (6.0 / fan_in).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = (0..cout * cin * k * k)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        let n = cout * cin * k * k;
        Self {
            cin,
            cout,
            k,
            w,
            b: vec![0.0; cout],
            gw: vec![0.0; n],
            gb: vec![0.0; cout],
            vw: vec![0.0; n],
            vb: vec![0.0; cout],
            sw: vec![0.0; n],
            sb: vec![0.0; cout],
            cache: None,
        }
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Input channel count.
    pub fn cin(&self) -> usize {
        self.cin
    }

    /// Output channel count.
    pub fn cout(&self) -> usize {
        self.cout
    }

    /// Kernel size (odd; the layer is same-padded).
    pub fn kernel_size(&self) -> usize {
        self.k
    }

    /// Accumulated weight and bias gradients (for tests and reductions).
    pub fn grads(&self) -> (&[f32], &[f32]) {
        (&self.gw, &self.gb)
    }

    /// Adds another layer's accumulated gradients into this one's buffers
    /// (per-sample gradient reduction in the trainer).
    ///
    /// # Panics
    /// Panics if the layer shapes differ.
    pub fn accumulate_grads_from(&mut self, other: &Conv2d) {
        assert_eq!(
            self.gw.len(),
            other.gw.len(),
            "grad reduction shape mismatch"
        );
        for (a, &g) in self.gw.iter_mut().zip(&other.gw) {
            *a += g;
        }
        for (a, &g) in self.gb.iter_mut().zip(&other.gb) {
            *a += g;
        }
    }

    /// Copies out the weights and biases (for serialisation).
    pub fn export_params(&self) -> (Vec<f32>, Vec<f32>) {
        (self.w.clone(), self.b.clone())
    }

    /// Replaces the weights and biases (for deserialisation); resets the
    /// optimiser state.
    ///
    /// # Errors
    /// Returns a message if the lengths do not match this layer's shape.
    pub fn import_params(&mut self, w: &[f32], b: &[f32]) -> Result<(), String> {
        if w.len() != self.w.len() {
            return Err(format!(
                "expected {} weights, got {}",
                self.w.len(),
                w.len()
            ));
        }
        if b.len() != self.b.len() {
            return Err(format!("expected {} biases, got {}", self.b.len(), b.len()));
        }
        self.w.copy_from_slice(w);
        self.b.copy_from_slice(b);
        self.vw.fill(0.0);
        self.vb.fill(0.0);
        self.sw.fill(0.0);
        self.sb.fill(0.0);
        self.zero_grad();
        Ok(())
    }

    /// Multiply-accumulate operations for one forward pass over `h × w`.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        (self.cin * self.cout * self.k * self.k * h * w) as u64
    }

    fn check_input(&self, x: &Tensor) {
        assert_eq!(x.channels(), self.cin, "conv input channel mismatch");
    }

    /// Computes rows `rows` of output plane `co` into `band` on the portable
    /// path: bias first, then one slice AXPY per `(ci, ky, kx)` tap over the
    /// band's rows — the same per-element accumulation order as the naive
    /// loop in [`reference`].
    fn forward_band_portable(
        &self,
        co: usize,
        x: &[&[f32]],
        (h, w): (usize, usize),
        rows: Range<usize>,
        band: &mut [f32],
    ) {
        let (k, pad) = (self.k, (self.k / 2) as isize);
        band.fill(self.b[co]);
        for (ci, xplane) in x.iter().enumerate() {
            for ky in 0..k {
                let dy = ky as isize - pad;
                let y0 = (-dy).max(rows.start as isize) as usize;
                let y1 = (h as isize - dy).min(rows.end as isize).max(0) as usize;
                for kx in 0..k {
                    let dx = kx as isize - pad;
                    let x0 = (-dx).max(0) as usize;
                    let x1 = (w as isize - dx).min(w as isize).max(0) as usize;
                    if x0 >= x1 {
                        continue;
                    }
                    let wv = self.w[((co * self.cin + ci) * k + ky) * k + kx];
                    for y in y0..y1 {
                        let sy = (y as isize + dy) as usize;
                        let sx = (x0 as isize + dx) as usize;
                        let orow = &mut band[(y - rows.start) * w..][x0..x1];
                        let xrow = &xplane[sy * w + sx..][..x1 - x0];
                        for (o, &xv) in orow.iter_mut().zip(xrow) {
                            *o += wv * xv;
                        }
                    }
                }
            }
        }
    }

    /// Computes rows `rows` of output plane `co` into `band`, on the AVX2
    /// kernel when `avx2` is set and the row is wide enough for one 8-wide
    /// block, otherwise on the portable path. Both are bit-exact with
    /// [`reference::forward`].
    fn forward_band(
        &self,
        co: usize,
        x: &[&[f32]],
        hw: (usize, usize),
        rows: Range<usize>,
        band: &mut [f32],
        avx2: bool,
    ) {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if avx2 && hw.1 >= 2 * (self.k / 2) + x86::LANES {
            let taps = &self.w[co * self.cin * self.k * self.k..][..self.cin * self.k * self.k];
            // SAFETY: AVX2 was detected by the caller; every plane of `x`
            // holds `h·w` values, `taps` holds `cin·k²`, `band` holds
            // `rows.len()·w` and the row is at least `2·pad + 8` wide —
            // the contract of `x86::conv_rows`.
            unsafe { x86::conv_rows(x, taps, self.b[co], self.k, hw, rows, band) };
            return;
        }
        let _ = avx2; // read only by the AVX2 branch, which may be compiled out
        self.forward_band_portable(co, x, hw, rows, band);
    }

    /// Slice-level forward kernel: reads `cin` input planes of `h × w`
    /// values each, writes a `cout × h × w` output. Used by the tensor API
    /// and by the pooled scratch-buffer inference path in `NnS`, which
    /// hands conv3 its concatenated input as a plane list instead of
    /// copying it into one buffer.
    pub(crate) fn forward_into(&self, x: &[&[f32]], h: usize, w: usize, out: &mut [f32]) {
        self.forward_into_with(x, h, w, out, kernel::avx2_enabled());
    }

    fn forward_into_with(&self, x: &[&[f32]], h: usize, w: usize, out: &mut [f32], avx2: bool) {
        assert_eq!(x.len(), self.cin, "conv input channel mismatch");
        assert!(
            x.iter().all(|p| p.len() == h * w),
            "conv input length mismatch"
        );
        assert_eq!(out.len(), self.cout * h * w, "conv output length mismatch");
        let row_bytes = self.cin * w * std::mem::size_of::<f32>();
        kernel::for_each_band(out, (h, w), row_bytes, self.macs(h, w), |co, rows, band| {
            self.forward_band(co, x, (h, w), rows, band, avx2);
        });
    }

    fn forward_tensor(&self, x: &Tensor, avx2: bool) -> Tensor {
        self.check_input(x);
        let (h, w) = (x.height(), x.width());
        let mut out = Tensor::zeros(self.cout, h, w);
        let planes: Vec<&[f32]> = (0..self.cin).map(|c| x.channel(c)).collect();
        self.forward_into_with(&planes, h, w, out.as_mut_slice(), avx2);
        out
    }

    /// Forward pass without gradient bookkeeping: no input clone is cached,
    /// so per-frame pipelines do not pay training costs.
    ///
    /// # Panics
    /// Panics if the input channel count differs from `cin`.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        self.forward_tensor(x, kernel::avx2_enabled())
    }

    /// [`Conv2d::forward_inference`] pinned to one kernel: the portable
    /// row-AXPY path (`avx2 = false`) or the AVX2 path (`avx2 = true`,
    /// `None` when this build or CPU lacks it). A test hook, so both paths
    /// are checked against [`reference::forward`] on any machine.
    ///
    /// # Panics
    /// Panics if the input channel count differs from `cin`.
    #[doc(hidden)]
    pub fn forward_pinned(&self, x: &Tensor, avx2: bool) -> Option<Tensor> {
        (!avx2 || kernel::avx2_enabled()).then(|| self.forward_tensor(x, avx2))
    }

    /// Forward pass; caches the input for the backward pass.
    ///
    /// # Panics
    /// Panics if the input channel count differs from `cin`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.forward_inference(x);
        self.cache = Some(x.clone());
        out
    }

    /// Weight/bias gradient accumulation for one output channel.
    fn backward_wb_plane(
        &self,
        co: usize,
        x: &Tensor,
        gout: &Tensor,
        row_nz: &[bool],
        gw_co: &mut [f32],
        gb_co: &mut f32,
    ) {
        let (h, w) = (x.height(), x.width());
        let (k, pad) = (self.k, (self.k / 2) as isize);
        let gplane = &gout.as_slice()[co * h * w..][..h * w];
        let nz = &row_nz[co * h..][..h];
        // dL/db: plain sum of the output gradient, in (y, x) order. Rows
        // that are entirely zero are skipped — the sparse fast path for
        // ReLU-masked gradients — which cannot change the result.
        let mut acc = *gb_co;
        for y in 0..h {
            if !nz[y] {
                continue;
            }
            for &g in &gplane[y * w..][..w] {
                acc += g;
            }
        }
        *gb_co = acc;
        // dL/dw: per tap, a scalar running sum over (y, x) — kept scalar so
        // the accumulation order matches the reference exactly.
        for ci in 0..self.cin {
            let xplane = &x.as_slice()[ci * h * w..][..h * w];
            for ky in 0..k {
                let dy = ky as isize - pad;
                let y0 = (-dy).max(0) as usize;
                let y1 = (h as isize - dy).min(h as isize).max(0) as usize;
                for kx in 0..k {
                    let dx = kx as isize - pad;
                    let x0 = (-dx).max(0) as usize;
                    let x1 = (w as isize - dx).min(w as isize).max(0) as usize;
                    if x0 >= x1 {
                        continue;
                    }
                    let wi = (ci * k + ky) * k + kx;
                    let mut acc = gw_co[wi];
                    for y in y0..y1 {
                        if !nz[y] {
                            continue;
                        }
                        let sy = (y as isize + dy) as usize;
                        let sx = (x0 as isize + dx) as usize;
                        let grow = &gplane[y * w + x0..y * w + x1];
                        let xrow = &xplane[sy * w + sx..][..x1 - x0];
                        for (&g, &xv) in grow.iter().zip(xrow) {
                            acc += g * xv;
                        }
                    }
                    gw_co[wi] = acc;
                }
            }
        }
    }

    /// Input-gradient accumulation for one input channel.
    ///
    /// The naive loop delivers contributions to a fixed input element in
    /// ascending `(co, y, x)` order of the output elements; iterating the
    /// kernel taps in *descending* `(ky, kx)` order reproduces exactly that,
    /// so this scatter is bit-exact with the reference.
    fn backward_gin_plane(&self, ci: usize, gout: &Tensor, row_nz: &[bool], gplane_in: &mut [f32]) {
        let (h, w) = (gout.height(), gout.width());
        let (k, pad) = (self.k, (self.k / 2) as isize);
        for co in 0..self.cout {
            let gplane = &gout.as_slice()[co * h * w..][..h * w];
            let nz = &row_nz[co * h..][..h];
            for ky in (0..k).rev() {
                let dy = ky as isize - pad;
                let y0 = (-dy).max(0) as usize;
                let y1 = (h as isize - dy).min(h as isize).max(0) as usize;
                for kx in (0..k).rev() {
                    let dx = kx as isize - pad;
                    let x0 = (-dx).max(0) as usize;
                    let x1 = (w as isize - dx).min(w as isize).max(0) as usize;
                    if x0 >= x1 {
                        continue;
                    }
                    let wv = self.w[((co * self.cin + ci) * k + ky) * k + kx];
                    for y in y0..y1 {
                        if !nz[y] {
                            continue;
                        }
                        let sy = (y as isize + dy) as usize;
                        let sx = (x0 as isize + dx) as usize;
                        let grow = &gplane[y * w + x0..y * w + x1];
                        let irow = &mut gplane_in[sy * w + sx..][..x1 - x0];
                        for (i, &g) in irow.iter_mut().zip(grow) {
                            *i += wv * g;
                        }
                    }
                }
            }
        }
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// gradient with respect to the input.
    ///
    /// # Panics
    /// Panics if called before [`Conv2d::forward`] or with a gradient whose
    /// shape does not match the forward output.
    pub fn backward(&mut self, gout: &Tensor) -> Tensor {
        let x = self.cache.take().expect("forward must run before backward");
        assert_eq!(gout.channels(), self.cout, "grad channel mismatch");
        assert_eq!(
            (gout.height(), gout.width()),
            (x.height(), x.width()),
            "grad spatial mismatch"
        );
        let (h, w) = (x.height(), x.width());
        // Row-granular zero map: gradients arriving through ReLU masks are
        // often zero-heavy, and whole-zero rows contribute nothing to any
        // gradient, so each pass skips them up front.
        let row_nz: Vec<bool> = gout
            .as_slice()
            .chunks(w)
            .map(|row| row.iter().any(|&g| g != 0.0))
            .collect();
        let parallel = self.macs(h, w) >= PAR_MIN_MACS && vrd_runtime::max_threads() > 1;

        // Pass A — weight and bias gradients, partitioned by output channel
        // (each owns a disjoint `gw` block and `gb` element).
        let wb_len = self.cin * self.k * self.k;
        let mut gw = std::mem::take(&mut self.gw);
        let mut gb = std::mem::take(&mut self.gb);
        {
            let items: Vec<(usize, (&mut [f32], &mut f32))> = gw
                .chunks_mut(wb_len)
                .zip(gb.iter_mut())
                .enumerate()
                .collect();
            let run = |(co, (gw_co, gb_co)): (usize, (&mut [f32], &mut f32))| {
                self.backward_wb_plane(co, &x, gout, &row_nz, gw_co, gb_co);
            };
            if parallel {
                vrd_runtime::parallel_for_each(items, run);
            } else {
                for item in items {
                    run(item);
                }
            }
        }
        self.gw = gw;
        self.gb = gb;

        // Pass B — input gradient, partitioned by input channel.
        let mut gin = Tensor::zeros(self.cin, h, w);
        {
            let items: Vec<(usize, &mut [f32])> =
                gin.as_mut_slice().chunks_mut(h * w).enumerate().collect();
            let run = |(ci, plane): (usize, &mut [f32])| {
                self.backward_gin_plane(ci, gout, &row_nz, plane);
            };
            if parallel {
                vrd_runtime::parallel_for_each(items, run);
            } else {
                for item in items {
                    run(item);
                }
            }
        }
        self.cache = Some(x);
        gin
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.fill(0.0);
        self.gb.fill(0.0);
    }

    /// SGD-with-momentum update using the accumulated gradients, scaled by
    /// `1 / batch` (pass the minibatch size).
    pub fn apply_grads(&mut self, lr: f32, momentum: f32, batch: usize) {
        let scale = 1.0 / batch.max(1) as f32;
        for i in 0..self.w.len() {
            self.vw[i] = momentum * self.vw[i] - lr * self.gw[i] * scale;
            self.w[i] += self.vw[i];
        }
        for i in 0..self.b.len() {
            self.vb[i] = momentum * self.vb[i] - lr * self.gb[i] * scale;
            self.b[i] += self.vb[i];
        }
    }

    /// Adam update (Kingma & Ba) with bias correction; `step` is the
    /// 1-based optimisation step and `batch` the minibatch size.
    pub fn apply_grads_adam(
        &mut self,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        step: usize,
        batch: usize,
    ) {
        let scale = 1.0 / batch.max(1) as f32;
        let t = step.max(1) as i32;
        let bc1 = 1.0 - beta1.powi(t);
        let bc2 = 1.0 - beta2.powi(t);
        let update = |w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]| {
            for i in 0..w.len() {
                let grad = g[i] * scale;
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad;
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad;
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                w[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        };
        update(&mut self.w, &self.gw, &mut self.vw, &mut self.sw);
        update(&mut self.b, &self.gb, &mut self.vb, &mut self.sb);
    }

    #[cfg(test)]
    fn w_mut(&mut self) -> &mut [f32] {
        &mut self.w
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    #[allow(clippy::wildcard_imports)] // the intrinsics namespace is the API
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// f32 lanes per AVX2 register.
    pub(super) const LANES: usize = 8;
    /// Output columns one register-blocked step keeps in flight.
    const BLOCK: usize = 4 * LANES;

    /// Rows `rows` of one output plane into `band` (`rows.len() · w`
    /// values), bit-exact with the naive reference loop.
    ///
    /// The interior columns `[pad, w − pad)` run in 32-column blocks, then
    /// 8-column blocks, then — when the interior is not a multiple of 8 —
    /// one 8-column block ending at `w − pad` that overlaps its predecessor
    /// (every block computes its sums from scratch and plain-stores them,
    /// so the overlap rewrites identical values). A block holds its sums in
    /// registers from the bias through every `(ci, ky, kx)` tap in the
    /// reference order, each tap a separate multiply then add (no FMA), so
    /// the rounding sequence matches the reference exactly. Rows within
    /// `pad` of the top or bottom run the same blocks over the valid `ky`
    /// range only — the taps the reference skips. The `pad` edge columns on
    /// each side go through [`edge`].
    ///
    /// # Safety
    /// The CPU must support AVX2. Every plane of `x` holds `h · w` values,
    /// `taps` holds the `cin · k²` weights of this output channel
    /// (`cin = x.len()`), `rows` lies within `0..h`, `band` holds
    /// `rows.len() · w` values and `w ≥ 2 · (k / 2) + 8` — so every 8-lane
    /// load `src[xb + kx − pad ..]` stays inside its row (`xb ≥ pad`,
    /// `xb + 8 ≤ w − pad`, `kx ≤ 2 · pad`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_rows(
        x: &[&[f32]],
        taps: &[f32],
        bias: f32,
        k: usize,
        (h, w): (usize, usize),
        rows: Range<usize>,
        band: &mut [f32],
    ) {
        let pad = k / 2;
        let end = w - pad;
        for (y, orow) in rows.zip(band.chunks_exact_mut(w)) {
            // Kernel rows whose source row `y + ky − pad` is inside the image.
            let ky = pad.saturating_sub(y)..k.min(h + pad - y);
            let geom = Geom { k, pad, w, y };
            let mut xb = pad;
            while xb + BLOCK <= end {
                block::<4>(x, taps, bias, geom, ky.clone(), xb, orow);
                xb += BLOCK;
            }
            while xb + LANES <= end {
                block::<1>(x, taps, bias, geom, ky.clone(), xb, orow);
                xb += LANES;
            }
            if xb < end {
                block::<1>(x, taps, bias, geom, ky.clone(), end - LANES, orow);
            }
            for xp in (0..pad).chain(end..w) {
                orow[xp] = edge(x, taps, bias, geom, ky.clone(), xp);
            }
        }
    }

    /// Where a block sits: kernel size, padding, row width and output row.
    #[derive(Clone, Copy)]
    struct Geom {
        k: usize,
        pad: usize,
        w: usize,
        y: usize,
    }

    /// `N` registers (`8N` columns from `xb`) of one output row.
    ///
    /// # Safety
    /// The contract of [`conv_rows`], plus `pad ≤ xb` and
    /// `xb + 8N ≤ w − pad`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn block<const N: usize>(
        x: &[&[f32]],
        taps: &[f32],
        bias: f32,
        Geom { k, pad, w, y }: Geom,
        ky: Range<usize>,
        xb: usize,
        orow: &mut [f32],
    ) {
        let mut acc = [_mm256_set1_ps(bias); N];
        for (plane, ctaps) in x.iter().zip(taps.chunks_exact(k * k)) {
            for ky in ky.clone() {
                let src = plane.as_ptr().add((y + ky - pad) * w + xb - pad);
                let wrow = ctaps.as_ptr().add(ky * k);
                for kx in 0..k {
                    let wv = _mm256_set1_ps(*wrow.add(kx));
                    for (i, a) in acc.iter_mut().enumerate() {
                        let xv = _mm256_loadu_ps(src.add(kx + i * LANES));
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, xv));
                    }
                }
            }
        }
        for (i, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(orow.as_mut_ptr().add(xb + i * LANES), *a);
        }
    }

    /// One edge column `xp` (within `pad` of the left or right border):
    /// the reference's scalar loop over the valid taps.
    fn edge(x: &[&[f32]], taps: &[f32], bias: f32, g: Geom, ky: Range<usize>, xp: usize) -> f32 {
        let mut acc = bias;
        for (plane, ctaps) in x.iter().zip(taps.chunks_exact(g.k * g.k)) {
            for ky in ky.clone() {
                let srow = &plane[(g.y + ky - g.pad) * g.w..][..g.w];
                for (kx, &wv) in ctaps[ky * g.k..][..g.k].iter().enumerate() {
                    if let Some(&xv) = (xp + kx).checked_sub(g.pad).and_then(|sx| srow.get(sx)) {
                        acc += wv * xv;
                    }
                }
            }
        }
        acc
    }
}

/// The naive per-element kernels the optimised paths are verified against.
///
/// These are the original triple-loop implementations, kept as the ground
/// truth for the equivalence property tests (and as the baseline in the
/// micro benchmarks). They accumulate in the same order the optimised
/// kernels do, so equality is exact, not approximate.
pub mod reference {
    use super::Conv2d;
    use crate::tensor::Tensor;

    /// Naive forward pass.
    ///
    /// # Panics
    /// Panics if the input channel count differs from the layer's.
    pub fn forward(conv: &Conv2d, x: &Tensor) -> Tensor {
        assert_eq!(x.channels(), conv.cin, "conv input channel mismatch");
        let (h, w) = (x.height(), x.width());
        let pad = (conv.k / 2) as i32;
        let mut out = Tensor::zeros(conv.cout, h, w);
        for co in 0..conv.cout {
            for y in 0..h {
                for xp in 0..w {
                    let mut acc = conv.b[co];
                    for ci in 0..conv.cin {
                        for ky in 0..conv.k {
                            let sy = y as i32 + ky as i32 - pad;
                            if sy < 0 || sy >= h as i32 {
                                continue;
                            }
                            for kx in 0..conv.k {
                                let sx = xp as i32 + kx as i32 - pad;
                                if sx < 0 || sx >= w as i32 {
                                    continue;
                                }
                                let wi = ((co * conv.cin + ci) * conv.k + ky) * conv.k + kx;
                                acc += conv.w[wi] * x.get(ci, sy as usize, sx as usize);
                            }
                        }
                    }
                    out.set(co, y, xp, acc);
                }
            }
        }
        out
    }

    /// Naive backward pass over an explicit input; returns
    /// `(gin, gw, gb)` without touching the layer's own gradient buffers.
    ///
    /// # Panics
    /// Panics on a gradient shape mismatch.
    #[allow(clippy::needless_range_loop)] // keep the naive loop nest verbatim
    pub fn backward(conv: &Conv2d, x: &Tensor, gout: &Tensor) -> (Tensor, Vec<f32>, Vec<f32>) {
        assert_eq!(gout.channels(), conv.cout, "grad channel mismatch");
        assert_eq!(
            (gout.height(), gout.width()),
            (x.height(), x.width()),
            "grad spatial mismatch"
        );
        let (h, w) = (x.height(), x.width());
        let pad = (conv.k / 2) as i32;
        let mut gin = Tensor::zeros(conv.cin, h, w);
        let mut gw = vec![0.0; conv.w.len()];
        let mut gb = vec![0.0; conv.b.len()];
        for co in 0..conv.cout {
            for y in 0..h {
                for xp in 0..w {
                    let g = gout.get(co, y, xp);
                    if g == 0.0 {
                        continue;
                    }
                    gb[co] += g;
                    for ci in 0..conv.cin {
                        for ky in 0..conv.k {
                            let sy = y as i32 + ky as i32 - pad;
                            if sy < 0 || sy >= h as i32 {
                                continue;
                            }
                            for kx in 0..conv.k {
                                let sx = xp as i32 + kx as i32 - pad;
                                if sx < 0 || sx >= w as i32 {
                                    continue;
                                }
                                let wi = ((co * conv.cin + ci) * conv.k + ky) * conv.k + kx;
                                gw[wi] += g * x.get(ci, sy as usize, sx as usize);
                                let cur = gin.get(ci, sy as usize, sx as usize);
                                gin.set(ci, sy as usize, sx as usize, cur + g * conv.w[wi]);
                            }
                        }
                    }
                }
            }
        }
        (gin, gw, gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.w_mut().fill(0.0);
        conv.w_mut()[4] = 1.0; // centre tap
        let x = Tensor::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut conv = Conv2d::new(3, 5, 3, 11);
        let x = Tensor::from_vec(3, 6, 7, (0..126).map(|v| (v as f32).sin()).collect());
        let trained = conv.forward(&x);
        let inferred = conv.forward_inference(&x);
        assert_eq!(trained.as_slice(), inferred.as_slice());
    }

    #[test]
    fn optimized_forward_is_bit_exact_with_reference() {
        let conv = Conv2d::new(2, 4, 5, 9);
        let x = Tensor::from_vec(
            2,
            9,
            11,
            (0..198).map(|v| (v as f32 * 0.37).cos()).collect(),
        );
        let fast = conv.forward_inference(&x);
        let naive = reference::forward(&conv, &x);
        assert_eq!(fast.as_slice(), naive.as_slice());
    }

    #[test]
    fn optimized_backward_is_bit_exact_with_reference() {
        let mut conv = Conv2d::new(2, 3, 3, 5);
        let x = Tensor::from_vec(2, 6, 8, (0..96).map(|v| (v as f32 * 0.13).sin()).collect());
        let y = conv.forward(&x);
        conv.zero_grad();
        let gin = conv.backward(&y);
        let (gin_ref, gw_ref, gb_ref) = reference::backward(&conv, &x, &y);
        assert_eq!(gin.as_slice(), gin_ref.as_slice());
        let (gw, gb) = conv.grads();
        assert_eq!(gw, &gw_ref[..]);
        assert_eq!(gb, &gb_ref[..]);
    }

    #[test]
    fn macs_and_params_counts() {
        let conv = Conv2d::new(3, 8, 3, 0);
        assert_eq!(conv.n_params(), 3 * 8 * 9 + 8);
        assert_eq!(conv.macs(10, 10), 3 * 8 * 9 * 100);
    }

    #[test]
    fn gradient_check_single_weight() {
        // Numerical vs analytical gradient for one weight and one input.
        let mut conv = Conv2d::new(1, 1, 3, 42);
        let x = Tensor::from_vec(1, 3, 3, (1..=9).map(|v| v as f32 / 9.0).collect());
        let wi = 2; // an arbitrary weight index

        let loss = |conv: &mut Conv2d, x: &Tensor| -> f32 {
            let y = conv.forward(x);
            // Loss = sum of squares / 2, dL/dy = y.
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };

        // Analytical.
        let y = conv.forward(&x);
        conv.zero_grad();
        let _ = conv.backward(&y);
        let analytic = conv.grads().0[wi];

        // Numerical.
        let eps = 1e-3;
        conv.w_mut()[wi] += eps;
        let lp = loss(&mut conv, &x);
        conv.w_mut()[wi] -= 2.0 * eps;
        let lm = loss(&mut conv, &x);
        conv.w_mut()[wi] += eps;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn gradient_check_input() {
        let mut conv = Conv2d::new(2, 3, 3, 7);
        let mut x = Tensor::from_vec(2, 3, 3, (0..18).map(|v| (v as f32) / 18.0).collect());
        let y = conv.forward(&x);
        let gin = {
            conv.zero_grad();
            conv.backward(&y)
        };
        // Numerical gradient for input element (1, 1, 1).
        let eps = 1e-3;
        let idx = (1usize, 1usize, 1usize);
        let orig = x.get(idx.0, idx.1, idx.2);
        x.set(idx.0, idx.1, idx.2, orig + eps);
        let lp: f32 = conv
            .forward(&x)
            .as_slice()
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            / 2.0;
        x.set(idx.0, idx.1, idx.2, orig - eps);
        let lm: f32 = conv
            .forward(&x)
            .as_slice()
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            / 2.0;
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = gin.get(idx.0, idx.1, idx.2);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn adam_reduces_simple_loss() {
        let mut conv = Conv2d::new(1, 1, 3, 3);
        let x = Tensor::from_vec(1, 4, 4, (0..16).map(|v| v as f32 / 16.0).collect());
        let target: Vec<f32> = x.as_slice().iter().map(|v| 2.0 * v).collect();
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for step in 1..=200 {
            let y = conv.forward(&x);
            let diff: Vec<f32> = y
                .as_slice()
                .iter()
                .zip(&target)
                .map(|(a, b)| a - b)
                .collect();
            last_loss = diff.iter().map(|d| d * d).sum::<f32>();
            first_loss.get_or_insert(last_loss);
            let g = Tensor::from_vec(1, 4, 4, diff);
            conv.zero_grad();
            let _ = conv.backward(&g);
            conv.apply_grads_adam(0.02, 0.9, 0.999, 1e-8, step, 1);
        }
        assert!(
            last_loss < first_loss.unwrap() / 10.0,
            "Adam loss did not drop: {first_loss:?} -> {last_loss}"
        );
    }

    #[test]
    fn sgd_reduces_simple_loss() {
        // Train a 1x1-ish task: map input to 2*input via a 3x3 conv.
        let mut conv = Conv2d::new(1, 1, 3, 3);
        let x = Tensor::from_vec(1, 4, 4, (0..16).map(|v| v as f32 / 16.0).collect());
        let target: Vec<f32> = x.as_slice().iter().map(|v| 2.0 * v).collect();
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..200 {
            let y = conv.forward(&x);
            let diff: Vec<f32> = y
                .as_slice()
                .iter()
                .zip(&target)
                .map(|(a, b)| a - b)
                .collect();
            last_loss = diff.iter().map(|d| d * d).sum::<f32>();
            first_loss.get_or_insert(last_loss);
            let g = Tensor::from_vec(1, 4, 4, diff);
            conv.zero_grad();
            let _ = conv.backward(&g);
            conv.apply_grads(0.05, 0.9, 1);
        }
        assert!(
            last_loss < first_loss.unwrap() / 10.0,
            "loss did not drop: {first_loss:?} -> {last_loss}"
        );
    }
}
