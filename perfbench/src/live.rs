//! `live-hd-int8`: a live 864×480 `cows` feed, open loop. Decode-order units
//! are released at a fixed rate and each is decoded and stepped through
//! `PipelineEngine::prime`/`step`/`finish` as it arrives.

use crate::common::{
    emit, finish_e2e, percentile, position_percentile, repeat_setup, PeakRss, PER_LAYER,
};
use crate::expected;
use crate::single::{corrupt, setup, Inputs, Reference};
use crate::stepper::{measure_stepper, Stepper};
use crate::trace::{render_jsonl, render_table, Tracer};
use crate::{Outcome, RunConfig, Scale};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vr_dann::{ComputeMode, SegmentationRun, VrDannConfig};
use vrd_codec::{BFrameMode, CodecConfig};
use vrd_metrics::score_sequence;

/// Offered rate, frames per second. At 30 fps the stepper runs at
/// 0.7–0.8 utilisation on a 2-core host and p95 swings by several times
/// between identical runs; 20 fps keeps the feed below saturation.
pub const RATE_FPS: f64 = 20.0;

/// Frames per segment. The clip is replayed back to back (a fresh source
/// and engine each time, each starting on an I-frame), so the run length
/// does not force a longer encode in set-up. The latency percentiles are
/// taken over the segment's positions, each the median of its replays.
const SEGMENT_FRAMES: usize = 30;

/// The live configuration: a short GOP (one B-frame between anchors, so
/// half the frames go through NN-L) and int8 NN-S.
fn live_config() -> VrDannConfig {
    VrDannConfig {
        codec: CodecConfig {
            b_frames: BFrameMode::Fixed(1),
            ..CodecConfig::default()
        },
        compute: ComputeMode::Int8,
        ..VrDannConfig::default()
    }
}

/// What one paced feed measured.
#[derive(Debug, Default)]
struct Paced {
    /// Per frame: step return − due time, ms.
    latency_ms: Vec<f64>,
    /// Per frame: release − due time, ms (how late the pacer ran).
    late_ms: Vec<f64>,
    /// Per segment: mean IoU of its outputs.
    j: Vec<f64>,
    /// First due time → last step return, seconds.
    wall_s: f64,
}

/// Feeds `segments` replays of the clip at [`RATE_FPS`], stepping each
/// unit as it is released and checking each segment's outputs.
fn paced(
    cfg: &RunConfig,
    inputs: &Inputs,
    tracer: &Tracer,
    segments: usize,
    check: &dyn Fn(&SegmentationRun) -> bool,
    out: &mut Outcome,
) -> Result<Paced, String> {
    let Inputs {
        seq,
        model,
        encoded,
    } = inputs;
    let interval = Duration::from_secs_f64(1.0 / RATE_FPS);
    let mut p = Paced::default();
    // A short lead so the first engine is primed before its first unit
    // falls due.
    let t0 = Instant::now() + Duration::from_millis(50);
    let mut k = 0u32;
    let mut last_return = t0;
    for segment in 0..segments {
        let mut stepper = Stepper::new(model, seq, encoded, tracer, false)?;
        let mut stepped_all = true;
        for _ in 0..stepper.frames() {
            let due = t0 + interval * k;
            k += 1;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            p.late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let stepped = stepper.advance();
            last_return = Instant::now();
            p.latency_ms
                .push(last_return.saturating_duration_since(due).as_secs_f64() * 1e3);
            if !matches!(stepped, Ok(true)) {
                stepped_all = false;
                break;
            }
        }
        let frames = stepper.frames();
        let ok = stepped_all
            && match stepper.finish() {
                Ok(run) => {
                    let mut run = SegmentationRun::from(run);
                    if cfg.corrupt && segment == 0 {
                        corrupt(&mut run.masks[0]);
                    }
                    p.j.push(score_sequence(&run.masks, &seq.gt_masks).iou);
                    check(&run)
                }
                Err(_) => false,
            };
        out.check(frames, ok);
    }
    p.wall_s = last_return.saturating_duration_since(t0).as_secs_f64();
    Ok(p)
}

/// Runs the workload.
///
/// # Errors
/// Returns a message when set-up or the sequential reference run fails.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let dims = match cfg.scale {
        Scale::Full => (864, 480, SEGMENT_FRAMES),
        Scale::Toy => (64, 48, 16),
    };
    let (inputs, times) = repeat_setup(cfg, || setup(cfg, dims, live_config()))?;
    let Inputs {
        seq,
        model,
        encoded,
    } = &inputs;
    let frames = seq.len();

    let reference = Reference::new(cfg, &inputs, RATE_FPS)?;
    let check = |run: &SegmentationRun| reference.matches(run);

    // Enough whole segments that the run offers `seconds × rate` frames:
    // a 15 s run offers 300, so each of the 30 positions is replayed 10
    // times.
    let offered = (cfg.seconds * RATE_FPS).round().max(1.0) as usize;
    let segments = offered.div_ceil(frames);

    let mut out = Outcome::default();
    reference.record(&inputs, &mut out);
    out.host.push((
        "threads",
        format!(
            "1 stepping thread, NN kernels on {}",
            vrd_runtime::max_threads()
        ),
    ));
    out.host.push(("offered_fps", RATE_FPS.to_string()));
    out.host
        .push(("frames_per_run", (segments * frames).to_string()));
    out.host.push((
        "expected_digest_checked",
        expected::checked(cfg).to_string(),
    ));

    if cfg.trace {
        let mut layers = BTreeMap::new();
        times[0].record(&mut layers);
        let tracer = Tracer::new(true);
        let p = paced(cfg, &inputs, &tracer, segments, &check, &mut out)?;
        layers.insert("bench.pacer_late_p95_ms", percentile(&p.late_ms, 95.0));
        let stepper = measure_stepper(model, &[(seq, encoded)], &mut layers, &mut out, &|_, r| {
            check(r)
        })?;
        emit(&mut out, &PER_LAYER, &layers);
        let spans = tracer.spans();
        out.table = render_table("paced", &spans) + &stepper.table;
        out.span_dump = render_jsonl("paced", &spans) + &stepper.dump;
        crate::common::write_span_dump(cfg, &out.span_dump)?;
        return Ok(out);
    }

    let rss = PeakRss::start();
    let p = paced(
        cfg,
        &inputs,
        &Tracer::new(false),
        segments,
        &check,
        &mut out,
    )?;
    let peak_rss_mb = rss.read_mb();
    let mut e2e = BTreeMap::new();
    e2e.insert("fps", p.latency_ms.len() as f64 / p.wall_s);
    for (name, q) in [
        ("frame_latency_p50_ms", 50.0),
        ("frame_latency_p95_ms", 95.0),
    ] {
        e2e.insert(name, position_percentile(&p.latency_ms, frames, q));
    }
    e2e.insert("j_mean", p.j.iter().sum::<f64>() / p.j.len().max(1) as f64);
    reference.insert_e2e(&mut e2e);
    finish_e2e(&mut out, e2e, &times, peak_rss_mb);
    out.host.push(("peak_rss_scope", rss.scope().to_string()));
    out.host.push((
        "pacer_late_p95_ms",
        format!("{:.3}", percentile(&p.late_ms, 95.0)),
    ));
    Ok(out)
}
