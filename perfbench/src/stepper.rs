//! Driving the engine from outside with spans around each public call.
//!
//! * [`TracedSeg`] wraps the program's own `SegTask` behind the public
//!   `TaskPolicy` trait, so the NN-L call the engine makes on each anchor
//!   (`LargeNet::segment`, via `infer_anchor`) runs inside a span.
//! * [`TimingSource`] wraps `StrictFrameSource` behind `FrameSource`, so
//!   every decode (`next_unit`) runs inside a span — also on the
//!   pipelined executor's decode-lane thread.
//! * [`Stepper`] drives `PipelineEngine::prime`/`step`/`finish` one unit at
//!   a time and, when asked, replays each B-frame's kernels
//!   (`reconstruct_b_frame`, `build_sandwich`, `NnS::infer` or
//!   `QuantNnS::infer`) on the same inputs in their own spans: the engine
//!   calls them inline where no span can reach, so the replay is how their
//!   cost is measured, and its output must equal the engine's.

use crate::trace::Tracer;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use vr_dann::{
    build_reconstruction_only, build_sandwich, plane_to_mask, reconstruct_b_frame, ComputeMode,
    EngineRun, PipelineEngine, SchemeKind, SegTask, StrictPolicy, TaskPolicy, VrDann,
};
use vrd_codec::decoder::BFrameInfo;
use vrd_codec::{
    DecodedUnit, EncodedVideo, FrameSource, StreamInfo, StreamTotals, StrictFrameSource,
    UnitPayload,
};
use vrd_nn::{LargeNet, QuantNnS};
use vrd_video::{SegMask, Sequence};

/// What [`TracedSeg`] saw: every reference mask NN-L produced and the last
/// refined B-frame mask the engine stored.
#[derive(Debug, Default)]
pub struct Seen {
    /// NN-L outputs by display index (the engine's reference set).
    pub refs: BTreeMap<u32, SegMask>,
    /// The most recent `store_refined` call.
    pub last_refined: Option<(u32, SegMask)>,
}

/// The program's `SegTask` with a span around each NN-L inference.
#[derive(Debug)]
pub struct TracedSeg<'a> {
    inner: SegTask<'a>,
    tracer: &'a Tracer,
    seen: Rc<RefCell<Seen>>,
}

impl<'a> TracedSeg<'a> {
    /// Builds the task `VrDann::run_segmentation` builds, wrapped.
    pub fn new(model: &VrDann, seq: &'a Sequence, info: &StreamInfo, tracer: &'a Tracer) -> Self {
        let cfg = model.config();
        Self {
            inner: SegTask::new(seq, LargeNet::new(cfg.segment_profile), cfg.seed, info),
            tracer,
            seen: Rc::default(),
        }
    }

    /// Shared view of what the task has seen.
    pub fn seen(&self) -> Rc<RefCell<Seen>> {
        Rc::clone(&self.seen)
    }
}

impl TaskPolicy for TracedSeg<'_> {
    type Output = SegMask;
    const SUPPORTS_FALLBACK: bool = <SegTask<'static> as TaskPolicy>::SUPPORTS_FALLBACK;

    fn scheme(&self) -> SchemeKind {
        self.inner.scheme()
    }

    fn nnl_ops(&self) -> u64 {
        self.inner.nnl_ops()
    }

    fn infer_anchor(&mut self, display: u32, reinfer: bool) -> SegMask {
        let inner = &mut self.inner;
        let mask = self.tracer.span("nn.nnl_segment", Some(display), || {
            inner.infer_anchor(display, reinfer)
        });
        self.seen.borrow_mut().refs.insert(display, mask.clone());
        mask
    }

    fn store_refined(&mut self, display: u32, mask: SegMask) {
        self.seen.borrow_mut().last_refined = Some((display, mask.clone()));
        self.inner.store_refined(display, mask);
    }

    fn store_nearest(&mut self, display: u32, refs: &BTreeMap<u32, SegMask>) {
        self.inner.store_nearest(display, refs);
    }

    fn store_empty(&mut self, display: u32) {
        self.inner.store_empty(display);
    }

    fn finalize_strict(self) -> vr_dann::Result<Vec<SegMask>> {
        self.inner.finalize_strict()
    }

    fn finalize_concealed(self) -> Vec<SegMask> {
        self.inner.finalize_concealed()
    }
}

/// `StrictFrameSource` with a span around each `next_unit`.
#[derive(Debug)]
pub struct TimingSource<'a> {
    inner: StrictFrameSource,
    tracer: &'a Tracer,
}

impl<'a> TimingSource<'a> {
    /// Opens the bitstream.
    ///
    /// # Errors
    /// Returns a message when the stream header does not parse.
    pub fn new(encoded: &EncodedVideo, tracer: &'a Tracer) -> Result<Self, String> {
        let inner = StrictFrameSource::new(&encoded.bitstream)
            .map_err(|e| format!("bitstream does not open: {e}"))?;
        Ok(Self { inner, tracer })
    }
}

impl FrameSource for TimingSource<'_> {
    fn info(&self) -> StreamInfo {
        self.inner.info()
    }

    fn next_unit(&mut self) -> Option<vrd_codec::Result<DecodedUnit>> {
        let open = self.tracer.open("codec.next_unit");
        let unit = self.inner.next_unit();
        let display = unit
            .as_ref()
            .and_then(|u| u.as_ref().ok())
            .and_then(DecodedUnit::display);
        self.tracer.close(open, display);
        unit
    }

    fn live_frames(&self) -> usize {
        self.inner.live_frames()
    }

    fn peak_live_frames(&self) -> usize {
        self.inner.peak_live_frames()
    }

    fn totals(&self) -> StreamTotals {
        self.inner.totals()
    }
}

/// Kernel replay state: the quantized twin of NN-S (built once, as the
/// engine builds its own at prime) and the replay/engine disagreements.
struct Replay {
    nns_q: Option<QuantNnS>,
    mismatches: usize,
}

/// One stream stepped unit by unit through the engine's streaming API.
pub struct Stepper<'a> {
    model: &'a VrDann,
    engine: PipelineEngine<'a, TracedSeg<'a>, StrictPolicy>,
    source: TimingSource<'a>,
    seen: Rc<RefCell<Seen>>,
    info: StreamInfo,
    tracer: &'a Tracer,
    replay: Option<Replay>,
}

impl<'a> Stepper<'a> {
    /// Opens the stream and primes a fresh engine. With `replay`, each
    /// B-frame's kernels are re-run after its step (traced runs only).
    ///
    /// # Errors
    /// Returns a message when the bitstream does not open.
    pub fn new(
        model: &'a VrDann,
        seq: &'a Sequence,
        encoded: &EncodedVideo,
        tracer: &'a Tracer,
        replay: bool,
    ) -> Result<Self, String> {
        let source = TimingSource::new(encoded, tracer)?;
        let info = source.info();
        let task = TracedSeg::new(model, seq, &info, tracer);
        let seen = task.seen();
        let mut engine =
            PipelineEngine::new(model.config(), model.nns(), task, StrictPolicy::default());
        engine.prime(&info, &[]);
        let replay = replay.then(|| Replay {
            nns_q: (model.config().compute == ComputeMode::Int8).then(|| model.nns().quantize()),
            mismatches: 0,
        });
        Ok(Self {
            model,
            engine,
            source,
            seen,
            info,
            tracer,
            replay,
        })
    }

    /// Frames the stream announces (one decoded unit each).
    pub fn frames(&self) -> usize {
        self.info.n_frames
    }

    /// Decodes and steps the next unit; `Ok(false)` once the stream ends.
    ///
    /// # Errors
    /// Returns a message on decode, engine or replay failure.
    pub fn advance(&mut self) -> Result<bool, String> {
        let Some(unit) = self.source.next_unit() else {
            return Ok(false);
        };
        let unit = unit.map_err(|e| format!("decode failed: {e}"))?;
        let display = unit.display();
        let (name, replay_info) = match &unit.payload {
            UnitPayload::Motion(info) => {
                ("core.step_b", self.replay.as_ref().map(|_| info.clone()))
            }
            _ => ("core.step_anchor", None),
        };
        let engine = &mut self.engine;
        let work = self
            .tracer
            .span(name, display, || engine.step(unit))
            .map_err(|e| format!("engine step failed: {e}"))?;
        if let (Some(info), Some(work)) = (replay_info, work) {
            if !work.uses_large_model {
                self.replay_b(&info);
            }
        }
        Ok(true)
    }

    /// Re-runs one B-frame's kernels on the engine's inputs, each in its
    /// own span, and counts a mismatch when the result differs from the
    /// mask the engine stored (a replay that errors where the engine did
    /// not is a mismatch too).
    fn replay_b(&mut self, info: &BFrameInfo) {
        let cfg = self.model.config();
        let nns = self.model.nns();
        let d = info.display_idx;
        let tracer = self.tracer;
        let seen = self.seen.borrow();
        let replay = self.replay.as_mut().expect("replay enabled");
        let (w, h, mb) = (self.info.width, self.info.height, self.info.mb_size);
        let open = tracer.open("bench.replay");
        let mask = tracer
            .span("core.reconstruct", Some(d), || {
                reconstruct_b_frame(info, &seen.refs, w, h, mb, &cfg.recon)
            })
            .and_then(|plane| {
                if !cfg.refine {
                    return Ok(plane_to_mask(&plane, &cfg.recon));
                }
                let input = tracer.span("core.sandwich", Some(d), || {
                    if cfg.sandwich {
                        build_sandwich(d, &plane, &seen.refs)
                    } else {
                        Ok(build_reconstruction_only(&plane))
                    }
                })?;
                let out = match &replay.nns_q {
                    Some(q) => tracer.span("nn.nns_int8", Some(d), || q.infer(&input)),
                    None => tracer.span("nn.nns_f32", Some(d), || nns.infer(&input)),
                };
                Ok(out.to_mask(0.5))
            });
        tracer.close(open, Some(d));
        let agrees = mask.is_ok_and(|m| seen.last_refined.as_ref() == Some(&(d, m)));
        if !agrees {
            replay.mismatches += 1;
        }
    }

    /// Replayed B-frames whose kernels disagreed with the engine.
    pub fn replay_mismatches(&self) -> usize {
        self.replay.as_ref().map_or(0, |r| r.mismatches)
    }

    /// Ends the stream.
    ///
    /// # Errors
    /// Returns a message when the engine cannot close the run.
    pub fn finish(self) -> Result<EngineRun<SegMask>, String> {
        let totals = self.source.totals();
        let peak = self.source.peak_live_frames();
        let engine = self.engine;
        self.tracer
            .span("core.finish", None, || engine.finish(totals, peak))
            .map_err(|e| format!("engine finish failed: {e}"))
    }
}

/// Result of [`stepper_pass`].
#[derive(Debug)]
pub struct PassResult {
    /// The engine's run.
    pub run: EngineRun<SegMask>,
    /// Replayed B-frames that disagreed with the engine.
    pub mismatches: usize,
}

/// Steps a whole stream unpaced inside one `bench.stepper_pass` span.
///
/// # Errors
/// As [`Stepper::advance`] and [`Stepper::finish`].
pub fn stepper_pass(
    model: &VrDann,
    seq: &Sequence,
    encoded: &EncodedVideo,
    tracer: &Tracer,
    replay: bool,
) -> Result<PassResult, String> {
    let open = tracer.open("bench.stepper_pass");
    let mut stepper = Stepper::new(model, seq, encoded, tracer, replay)?;
    while stepper.advance()? {}
    let mismatches = stepper.replay_mismatches();
    let run = stepper.finish()?;
    tracer.close(open, None);
    Ok(PassResult { run, mismatches })
}

/// What [`stepper_layers`] measured.
#[derive(Debug)]
pub struct StepperLayers {
    /// The traced pass's runs, one per stream.
    pub runs: Vec<EngineRun<SegMask>>,
    /// Wall seconds of one untraced pass (mean of the two).
    pub untraced_wall_s: f64,
    /// Replayed B-frames whose kernels disagreed with the engine.
    pub mismatches: usize,
    /// The traced pass's span dump (JSON lines).
    pub dump: String,
    /// The traced pass's self-time table.
    pub table: String,
}

/// [`stepper_layers`] plus output checks: each traced stream's run must
/// pass `check(stream index, run)` and every kernel replay must agree with
/// the engine, or the stream's frames count as failed.
///
/// # Errors
/// As [`stepper_layers`].
pub fn measure_stepper(
    model: &VrDann,
    streams: &[(&Sequence, &EncodedVideo)],
    layers: &mut BTreeMap<&'static str, f64>,
    out: &mut crate::Outcome,
    check: &dyn Fn(usize, &vr_dann::SegmentationRun) -> bool,
) -> Result<StepperLayers, String> {
    let m = stepper_layers(model, streams, layers)?;
    for (i, run) in m.runs.iter().enumerate() {
        let ok = m.mismatches == 0 && check(i, &vr_dann::SegmentationRun::from(run.clone()));
        out.check(run.outputs.len(), ok);
    }
    Ok(m)
}

/// The per-layer stepper measurement every workload shares: the streams
/// stepped untraced, traced with kernel replay, and untraced again, giving the
/// codec, NN, core and simulator layer metrics plus trace coverage and
/// overhead.
///
/// # Errors
/// As [`stepper_pass`].
pub fn stepper_layers(
    model: &VrDann,
    streams: &[(&Sequence, &EncodedVideo)],
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<StepperLayers, String> {
    use crate::common::{sim_stream_host, timed};
    use crate::trace::{aggregate, coverage_pct};

    // Untraced passes before and after the traced one; their mean is the
    // overhead baseline, so cache warm-up does not land on either side.
    let off = Tracer::new(false);
    let untraced_pass = || {
        timed(|| {
            streams
                .iter()
                .try_for_each(|(seq, enc)| stepper_pass(model, seq, enc, &off, false).map(|_| ()))
        })
    };
    let (before, before_s) = untraced_pass();
    before?;

    let tracer = Tracer::new(true);
    let mut runs = Vec::new();
    let mut mismatches = 0;
    for (seq, enc) in streams {
        let pass = stepper_pass(model, seq, enc, &tracer, true)?;
        mismatches += pass.mismatches;
        runs.push(pass.run);
    }
    let (after, after_s) = untraced_pass();
    after?;
    let untraced_wall_s = (before_s + after_s) / 2.0;

    let spans = tracer.spans();
    let agg = aggregate(&spans);
    let get = |name: &str| agg.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;

    let wall_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "bench.stepper_pass")
        .map(|s| s.dur_ns())
        .sum();
    let replay = get("bench.replay");
    let traced_wall_s = (wall_ns - replay.total_ns) as f64 / 1e9;
    let steps = get("core.step_anchor").calls + get("core.step_b").calls;
    // Step time the spans inside (NN-L) and the replays (B-frame kernels)
    // do not explain: the engine's own bookkeeping per step.
    let kernels_ns: u64 = [
        "core.reconstruct",
        "core.sandwich",
        "nn.nns_f32",
        "nn.nns_int8",
    ]
    .iter()
    .map(|n| get(n).total_ns)
    .sum::<u64>()
        + get("nn.nnl_segment").total_ns;
    let step_ns = get("core.step_anchor").total_ns + get("core.step_b").total_ns;
    // The source's final `next_unit` call (end of stream) decodes nothing
    // and carries no request id.
    let frames = spans
        .iter()
        .filter(|s| s.name == "codec.next_unit" && s.req.is_some())
        .count();
    let main_thread = spans.first().map_or(0, |s| s.thread);

    layers.insert(
        "codec.next_unit_ms",
        ms(get("codec.next_unit").total_ns) / frames.max(1) as f64,
    );
    layers.insert("codec.units", frames as f64);
    layers.insert("nn.nnl_segment_ms", get("nn.nnl_segment").mean_ms());
    layers.insert("nn.nnl_calls", get("nn.nnl_segment").calls as f64);
    layers.insert("nn.nns_f32_ms", get("nn.nns_f32").mean_ms());
    layers.insert("nn.nns_int8_ms", get("nn.nns_int8").mean_ms());
    layers.insert(
        "nn.nns_calls",
        (get("nn.nns_f32").calls + get("nn.nns_int8").calls) as f64,
    );
    layers.insert("core.reconstruct_ms", get("core.reconstruct").mean_ms());
    layers.insert("core.sandwich_ms", get("core.sandwich").mean_ms());
    layers.insert("core.step_anchor_ms", get("core.step_anchor").mean_ms());
    layers.insert("core.step_b_ms", get("core.step_b").mean_ms());
    layers.insert(
        "core.step_self_ms",
        (ms(step_ns) - ms(kernels_ns)) / steps.max(1) as f64,
    );
    layers.insert("core.finish_ms", get("core.finish").mean_ms());
    layers.insert("core.sequential_fps", frames as f64 / traced_wall_s);
    let peak = runs
        .iter()
        .map(|r| r.peak_live_frames + r.peak_inflight_units)
        .max()
        .unwrap_or(0);
    layers.insert("core.peak_live_units", peak as f64);
    let (mut switches, mut sim_ms) = (0usize, 0.0);
    for r in &runs {
        let (s, host_ms) = sim_stream_host(&r.trace);
        switches += s;
        sim_ms += host_ms;
    }
    layers.insert("sim.simulate_stream_ms", sim_ms / runs.len().max(1) as f64);
    layers.insert("sim.model_switches", switches as f64);
    layers.insert("trace.coverage_pct", coverage_pct(&spans, main_thread));
    layers.insert(
        "trace.overhead_pct",
        100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    );
    layers.insert("bench.replay_mismatches", mismatches as f64);
    layers.insert("bench.traced_wall_s", traced_wall_s);
    layers.insert("bench.untraced_wall_s", untraced_wall_s);
    Ok(StepperLayers {
        dump: crate::trace::render_jsonl("stepper", &spans),
        table: crate::trace::render_table("stepper", &spans),
        runs,
        untraced_wall_s,
        mismatches,
    })
}
