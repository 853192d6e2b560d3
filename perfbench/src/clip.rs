//! `clip-hd-f32`: offline recognition of one 864×480 `cows` clip through
//! `VrDann::run_segmentation_pipelined`, closed loop.

use crate::common::{emit, finish_e2e, median, nproc, repeat_setup, timed, PeakRss, PER_LAYER};
use crate::expected;
use crate::single::{corrupt, setup, Inputs, Reference};
use crate::stepper::{measure_stepper, TimingSource, TracedSeg};
use crate::trace::{render_jsonl, render_table, Tracer};
use crate::{Outcome, RunConfig, Scale};
use std::collections::BTreeMap;
use std::time::Instant;
use vr_dann::{PipelineEngine, PipelineOptions, SegmentationRun, StrictPolicy, VrDannConfig};
use vrd_codec::{FrameSource, FrameType};
use vrd_metrics::score_sequence;

/// The clip's frame rate as a camera would deliver it: the rate at which
/// the modelled SoC receives frames for `sim_p99_ms`.
const SOURCE_FPS: f64 = 30.0;

/// Runs the workload.
///
/// # Errors
/// Returns a message when set-up or the sequential reference run fails.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let dims = match cfg.scale {
        Scale::Full => (864, 480, 96),
        Scale::Toy => (64, 48, 24),
    };
    let (inputs, times) = repeat_setup(cfg, || setup(cfg, dims, VrDannConfig::default()))?;
    let Inputs {
        seq,
        model,
        encoded,
    } = &inputs;
    let frames = seq.len();
    let reference = Reference::new(cfg, &inputs, SOURCE_FPS)?;
    let anchors = reference
        .run
        .trace
        .frames
        .iter()
        .filter(|f| f.ftype != FrameType::B)
        .count();

    let mut out = Outcome::default();
    reference.record(&inputs, &mut out);
    out.fixed("anchors", anchors);
    out.fixed("b_frames", frames - anchors);
    out.host.push((
        "threads",
        format!("{} wave workers + 1 decode lane", nproc()),
    ));
    out.host.push(("frames_per_clip", frames.to_string()));
    out.host.push((
        "expected_digest_checked",
        expected::checked(cfg).to_string(),
    ));

    let opts = PipelineOptions {
        threads: Some(nproc()),
        channel_capacity: None,
    };
    let check = |run: &SegmentationRun| reference.matches(run);

    if cfg.trace {
        traced(cfg, &inputs, &times[0], &opts, &check, &mut out)?;
        return Ok(out);
    }

    let mut clip_s = Vec::new();
    let mut js = Vec::new();
    let rss = PeakRss::start();
    let start = Instant::now();
    loop {
        let (run, s) = timed(|| model.run_segmentation_pipelined(seq, encoded, &opts));
        let ok = match run {
            Ok(mut run) => {
                if cfg.corrupt && clip_s.is_empty() {
                    corrupt(&mut run.masks[0]);
                }
                js.push(score_sequence(&run.masks, &seq.gt_masks).iou);
                check(&run)
            }
            Err(_) => false,
        };
        out.check(frames, ok);
        clip_s.push(s);
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let peak_rss_mb = rss.read_mb();
    // Every frame of a clip is delivered when the call returns, so each
    // frame's latency is its clip's wall time. As on live, a frame's figure
    // is its median over the run's replays of the clip, so both
    // percentiles read the median clip: with a handful of clips per run,
    // the p95 over all frames would be the slowest clip.
    let clip_ms = median(&clip_s) * 1e3;
    let mut e2e = BTreeMap::new();
    e2e.insert(
        "fps",
        (frames * clip_s.len()) as f64 / clip_s.iter().sum::<f64>(),
    );
    e2e.insert("frame_latency_p50_ms", clip_ms);
    e2e.insert("frame_latency_p95_ms", clip_ms);
    e2e.insert("j_mean", js.iter().sum::<f64>() / js.len().max(1) as f64);
    reference.insert_e2e(&mut e2e);
    finish_e2e(&mut out, e2e, &times, peak_rss_mb);
    out.host.push(("clips_measured", clip_s.len().to_string()));
    out.host.push(("peak_rss_scope", rss.scope().to_string()));
    Ok(out)
}

/// The traced run: traced pipelined clips for the runtime layer, one
/// untraced pipelined clip for the speed-up's numerator, then the shared
/// stepper measurement.
fn traced(
    cfg: &RunConfig,
    inputs: &Inputs,
    times: &crate::common::SetupTimes,
    opts: &PipelineOptions,
    check: &dyn Fn(&SegmentationRun) -> bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let Inputs {
        seq,
        model,
        encoded,
    } = inputs;
    let frames = seq.len();
    let mut layers = BTreeMap::new();
    times.record(&mut layers);

    let tracer = Tracer::new(true);
    let (mut busy_ns, mut blocked_ns, mut wall_ns) = (0u64, 0u64, 0u64);
    let (mut channel_peak, mut live_peak) = (0usize, 0usize);
    let start = Instant::now();
    loop {
        let first_span = tracer.spans().len();
        let open = tracer.open("bench.clip");
        let source = TimingSource::new(encoded, &tracer)?;
        let task = TracedSeg::new(model, seq, &source.info(), &tracer);
        let run = PipelineEngine::new(model.config(), model.nns(), task, StrictPolicy::default())
            .run_pipelined(source, &[], opts);
        tracer.close(open, None);
        let ok = match run {
            Ok(run) => {
                channel_peak = channel_peak.max(run.peak_inflight_units);
                live_peak = live_peak.max(run.peak_live_frames + run.peak_inflight_units);
                check(&SegmentationRun::from(run))
            }
            Err(_) => false,
        };
        out.check(frames, ok);
        // The decode lane is the thread running `next_unit`: busy inside
        // it, blocked (handing the unit over a full channel) between calls.
        let spans = tracer.spans();
        let clip = &spans[first_span];
        let lane: Vec<_> = spans[first_span..]
            .iter()
            .filter(|s| s.name == "codec.next_unit")
            .collect();
        if let (Some(first), Some(last)) = (lane.first(), lane.last()) {
            let busy: u64 = lane.iter().map(|s| s.dur_ns()).sum();
            busy_ns += busy;
            blocked_ns += (last.end_ns - first.start_ns).saturating_sub(busy);
        }
        wall_ns += clip.dur_ns();
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let pct = |ns: u64| 100.0 * ns as f64 / wall_ns.max(1) as f64;
    layers.insert("runtime.decode_lane_busy_pct", pct(busy_ns));
    layers.insert("runtime.decode_lane_blocked_pct", pct(blocked_ns));
    layers.insert("runtime.channel_peak_depth", channel_peak as f64);

    let (run, pipelined_s) = timed(|| model.run_segmentation_pipelined(seq, encoded, opts));
    out.check(frames, run.as_ref().is_ok_and(check));

    let stepper = measure_stepper(model, &[(seq, encoded)], &mut layers, out, &|_, r| check(r))?;
    let stepper_fps = frames as f64 / stepper.untraced_wall_s;
    layers.insert(
        "core.pipelined_speedup",
        frames as f64 / pipelined_s / stepper_fps,
    );
    layers.insert("core.peak_live_units", live_peak as f64);
    emit(out, &PER_LAYER, &layers);

    let pipelined_spans = tracer.spans();
    out.table = render_table("pipelined", &pipelined_spans) + &stepper.table;
    out.span_dump = render_jsonl("pipelined", &pipelined_spans) + &stepper.dump;
    crate::common::write_span_dump(cfg, &out.span_dump)?;
    Ok(())
}
