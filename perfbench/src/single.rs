//! Set-up and output checks shared by the two single-stream workloads
//! (`clip-hd-f32` and `live-hd-int8`).

use crate::common::{nproc, sim_fps, timed, train_model, train_videos, SetupTimes};
use crate::{expected, Outcome, RunConfig};
use std::collections::BTreeMap;
use vr_dann::{PipelineOptions, SegmentationRun, VrDann, VrDannConfig};
use vrd_bench::e2e::digest_run;
use vrd_codec::EncodedVideo;
use vrd_metrics::score_sequence;
use vrd_serve::{drive_template_pipelined, schedule, SchedConfig, SchedPolicy, SessionSpec};
use vrd_sim::SimConfig;
use vrd_video::davis::{davis_sequence, SuiteConfig};
use vrd_video::{SegMask, Sequence};

/// One seeded `cows` clip, its bitstream and the model that recognises it.
pub struct Inputs {
    /// The generated clip with its ground truth.
    pub seq: Sequence,
    /// The trained pipeline.
    pub model: VrDann,
    /// The clip encoded with the model's codec settings.
    pub encoded: EncodedVideo,
}

/// Generates the `width`×`height`×`frames` `cows` clip and the training
/// videos under the run's seed, trains a model with `model_cfg` and encodes
/// the clip.
///
/// # Errors
/// Returns a message when generation, training or encoding fails.
pub fn setup(
    cfg: &RunConfig,
    (width, height, frames): (usize, usize, usize),
    model_cfg: VrDannConfig,
) -> Result<(Inputs, SetupTimes), String> {
    let suite = SuiteConfig {
        width,
        height,
        frames,
        seed: cfg.seed,
    };
    let ((seq, train), generate_s) = timed(|| {
        (
            davis_sequence("cows", &suite),
            train_videos(cfg.scale, cfg.seed),
        )
    });
    let seq = seq?;
    let (model, train_s) = train_model(&train, model_cfg)?;
    let (encoded, encode_s) = timed(|| model.encode(&seq));
    let encoded = encoded.map_err(|e| format!("encoding failed: {e}"))?;
    let times = SetupTimes {
        generate_s,
        encode_s,
        train_s,
    };
    Ok((
        Inputs {
            seq,
            model,
            encoded,
        },
        times,
    ))
}

/// The same commit's sequential engine on the same inputs: the output every
/// measured run must reproduce bit for bit, and the stream's modelled-SoC
/// figures.
pub struct Reference {
    /// The sequential run.
    pub run: SegmentationRun,
    digest: u64,
    expected_ok: bool,
    sim_fps: f64,
    sim_p99_ms: f64,
}

impl Reference {
    /// Runs `VrDann::run_segmentation` and, at the default seed, checks it
    /// against the recorded digest. `release_fps` is the rate at which the
    /// modelled SoC receives the stream's frames for `sim_p99_ms`.
    ///
    /// # Errors
    /// Returns a message when the sequential run or the modelled-SoC
    /// replay fails.
    pub fn new(cfg: &RunConfig, inputs: &Inputs, release_fps: f64) -> Result<Self, String> {
        let run = inputs
            .model
            .run_segmentation(&inputs.seq, &inputs.encoded)
            .map_err(|e| format!("sequential reference run failed: {e}"))?;
        let digest = digest_run(&run);
        Ok(Self {
            sim_fps: sim_fps(&run.trace),
            sim_p99_ms: sim_release_p99_ms(inputs, release_fps)?,
            run,
            digest,
            expected_ok: expected::matches(cfg, digest),
        })
    }

    /// Whether `run` reproduces the reference (and the reference the
    /// recorded digest).
    pub fn matches(&self, run: &SegmentationRun) -> bool {
        digest_run(run) == self.digest && self.expected_ok
    }

    /// Records the deterministic fields: digest, accuracy, simulated figures.
    pub fn record(&self, inputs: &Inputs, out: &mut Outcome) {
        out.fixed("output_digest", format!("{:#018x}", self.digest));
        out.fixed(
            "j_mean",
            score_sequence(&self.run.masks, &inputs.seq.gt_masks).iou,
        );
        out.fixed("sim_fps", self.sim_fps);
        out.fixed("sim_p99_ms", self.sim_p99_ms);
    }

    /// The end-to-end metrics a single stream reads from the reference: it
    /// is not admitted by an SLO (`sessions_admitted` is 1) and the modelled
    /// SoC figures come from its trace.
    pub fn insert_e2e(&self, e2e: &mut BTreeMap<&'static str, f64>) {
        e2e.insert("sessions_admitted", 1.0);
        e2e.insert("sim_fps", self.sim_fps);
        e2e.insert("sim_p99_ms", self.sim_p99_ms);
    }
}

/// p99 frame latency, in ms, of the stream offered alone to `vrd_serve`'s
/// modelled SoC with one frame released every `1 / release_fps` seconds:
/// arrival → NPU completion under the Batch policy, the figure `serve-sd-20`
/// reports for its sessions. Releasing frames at a rate, rather than all
/// at once, keeps the run's length out of the figure.
fn sim_release_p99_ms(inputs: &Inputs, release_fps: f64) -> Result<f64, String> {
    let sim = SimConfig::default();
    let pipe = PipelineOptions {
        threads: Some(nproc()),
        channel_capacity: None,
    };
    let template =
        drive_template_pipelined(&inputs.model, &inputs.seq, &inputs.encoded, &sim, &pipe)
            .map_err(|e| format!("modelled-SoC drive failed: {e}"))?;
    let spec = SessionSpec {
        start_offset_ns: 0.0,
        frame_interval_ns: 1e9 / release_fps,
    };
    let batched = schedule(
        &[template.instantiate(0, &spec)],
        SchedPolicy::Batch,
        &SchedConfig::default(),
        &sim,
    )
    .map_err(|e| format!("modelled-SoC schedule failed: {e}"))?;
    Ok(batched.latency.p99_ns / 1e6)
}

/// Flips one pixel: the deliberate corruption the benchmark's own test uses.
pub fn corrupt(mask: &mut SegMask) {
    let v = mask.get(0, 0);
    mask.set(0, 0, 1 - v);
}
