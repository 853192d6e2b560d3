//! Property tests pinning the engine driver's two-lane layout
//! (`PipelineEngine::run_pipelined`) bit-identical to the sequential engine:
//! same masks, detections, traces, concealment counters and live-frame
//! accounting over random GOP shapes × thread counts (1, 2, 4, 8) ×
//! strict/concealing policies. The wave-front fan-out and the decode-lane
//! thread must be invisible in every output, and a stream that fails
//! mid-way must fail the same way on both layouts.

use proptest::prelude::*;
use std::sync::{mpsc, OnceLock};
use std::time::Duration;
use vr_dann::{
    ConcealingPolicy, DetTask, DetectionRun, FaultPolicy, FeatPropTask, PipelineEngine,
    PipelineOptions, ResilienceOptions, SegTask, SegmentationRun, StrictPolicy, TaskPolicy,
    TrainTask, VrDann, VrDannConfig, VrDannError,
};
use vrd_codec::faults::PacketStream;
use vrd_codec::{
    inject, BFrameMode, CodecConfig, EncodedVideo, FaultConfig, FaultKind, FrameSource,
    ResilientFrameSource, StreamInfo, StrictFrameSource,
};
use vrd_nn::LargeNet;
use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};
use vrd_video::Sequence;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const SEQ_NAMES: [&str; 4] = ["cows", "dog", "goat", "parkour"];

fn seg_model() -> &'static VrDann {
    static MODEL: OnceLock<VrDann> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = SuiteConfig::tiny();
        let train = davis_train_suite(&cfg, 2);
        VrDann::train(
            &train,
            TrainTask::Segmentation,
            VrDannConfig {
                nns_hidden: 4,
                ..VrDannConfig::default()
            },
        )
        .unwrap()
    })
}

/// The same trained NN-S redeployed under a different codec configuration
/// (GOP shape randomisation without retraining per case).
fn with_codec(model: &VrDann, codec: CodecConfig) -> VrDann {
    let cfg = VrDannConfig {
        codec,
        ..*model.config()
    };
    VrDann::from_parts(cfg, &model.export_nns()).unwrap()
}

fn assert_seg_identical(seq_run: &SegmentationRun, pipe_run: &SegmentationRun, label: &str) {
    assert_eq!(seq_run.masks, pipe_run.masks, "masks diverged: {label}");
    assert_eq!(seq_run.trace, pipe_run.trace, "trace diverged: {label}");
    assert_eq!(
        seq_run.concealment, pipe_run.concealment,
        "concealment diverged: {label}"
    );
    assert_eq!(
        seq_run.peak_live_frames, pipe_run.peak_live_frames,
        "live-frame accounting diverged: {label}"
    );
    assert_eq!(
        seq_run.peak_live_features, pipe_run.peak_live_features,
        "feature accounting diverged: {label}"
    );
}

fn assert_det_identical(seq_run: &DetectionRun, pipe_run: &DetectionRun, label: &str) {
    assert_eq!(
        seq_run.detections, pipe_run.detections,
        "detections diverged: {label}"
    );
    assert_eq!(seq_run.trace, pipe_run.trace, "trace diverged: {label}");
    assert_eq!(
        seq_run.concealment, pipe_run.concealment,
        "concealment diverged: {label}"
    );
}

fn random_codec(gop_sel: usize, bmode_sel: usize) -> CodecConfig {
    let gop_len = [4, 8, 16][gop_sel % 3];
    CodecConfig {
        gop_len,
        b_frames: match bmode_sel % 9 {
            0 => BFrameMode::Auto,
            // A fixed B run must be shorter than the GOP.
            n => BFrameMode::Fixed(((n - 1) as u8).min(gop_len as u8 - 1)),
        },
        ..CodecConfig::default()
    }
}

fn pick_sequence(seq_sel: usize, frames: usize) -> Sequence {
    let cfg = SuiteConfig {
        frames,
        ..SuiteConfig::tiny()
    };
    davis_sequence(SEQ_NAMES[seq_sel % SEQ_NAMES.len()], &cfg).unwrap()
}

fn seg_task<'a>(model: &VrDann, seq: &'a Sequence, info: &StreamInfo) -> SegTask<'a> {
    let cfg = model.config();
    SegTask::new(seq, LargeNet::new(cfg.segment_profile), cfg.seed, info)
}

fn det_task<'a>(model: &VrDann, seq: &'a Sequence, info: &StreamInfo) -> DetTask<'a> {
    let cfg = model.config();
    DetTask::new(seq, LargeNet::new(cfg.detect_profile), cfg.seed, info)
}

fn featprop_task<'a>(model: &VrDann, seq: &'a Sequence, info: &StreamInfo) -> FeatPropTask<'a> {
    let cfg = model.config();
    FeatPropTask::new(seq, LargeNet::new(cfg.segment_profile), cfg.seed, info)
}

/// `PipelineEngine::run_pipelined` over `source`, with the task `task`
/// builds — the two-lane counterpart of the sequential `VrDann::run_*`
/// entry points.
fn pipelined<S, T, P, R>(
    model: &VrDann,
    source: S,
    prepopulate: &[u32],
    policy: P,
    opts: &PipelineOptions,
    task: impl FnOnce(&StreamInfo) -> T,
) -> R
where
    S: FrameSource + Send,
    T: TaskPolicy,
    P: FaultPolicy,
    R: From<vr_dann::EngineRun<T::Output>>,
{
    let task = task(&source.info());
    PipelineEngine::new(model.config(), model.nns(), task, policy)
        .run_pipelined(source, prepopulate, opts)
        .unwrap()
        .into()
}

fn strict_pipelined<T: TaskPolicy, R: From<vr_dann::EngineRun<T::Output>>>(
    model: &VrDann,
    encoded: &EncodedVideo,
    opts: &PipelineOptions,
    task: impl FnOnce(&StreamInfo) -> T,
) -> R {
    let source = StrictFrameSource::new(&encoded.bitstream).unwrap();
    pipelined(model, source, &[], StrictPolicy::default(), opts, task)
}

fn concealing_pipelined<T: TaskPolicy, R: From<vr_dann::EngineRun<T::Output>>>(
    model: &VrDann,
    stream: &PacketStream,
    res: &ResilienceOptions,
    opts: &PipelineOptions,
    task: impl FnOnce(&StreamInfo) -> T,
) -> R {
    let source = ResilientFrameSource::new(stream).unwrap();
    let prepopulate = source.usable_anchor_displays().to_vec();
    pipelined(
        model,
        source,
        &prepopulate,
        ConcealingPolicy::new(res),
        opts,
        task,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn strict_pipelined_matches_sequential(
        gop_sel in 0usize..3,
        bmode_sel in 0usize..9,
        seq_sel in 0usize..4,
        frames in 24usize..56,
        cap in 1usize..9,
    ) {
        let model = with_codec(seg_model(), random_codec(gop_sel, bmode_sel));
        let seq = pick_sequence(seq_sel, frames);
        let encoded = model.encode(&seq).unwrap();
        let baseline = model.run_segmentation(&seq, &encoded).unwrap();
        for threads in THREADS {
            let opts = PipelineOptions {
                threads: Some(threads),
                channel_capacity: Some(cap),
            };
            let piped: SegmentationRun =
                strict_pipelined(&model, &encoded, &opts, |i| seg_task(&model, &seq, i));
            assert_seg_identical(
                &baseline,
                &piped,
                &format!("strict seg, {threads} threads, cap {cap}"),
            );
            prop_assert_eq!(piped.peak_inflight_units <= cap, true);
        }
    }

    #[test]
    fn concealing_pipelined_matches_sequential(
        gop_sel in 0usize..3,
        bmode_sel in 0usize..9,
        seq_sel in 0usize..4,
        fault_seed in 0u64..1_000_000,
        rate_pct in 5u64..35,
        nns_fail_pct in 0u64..30,
    ) {
        let model = with_codec(seg_model(), random_codec(gop_sel, bmode_sel));
        let seq = pick_sequence(seq_sel, 48);
        let encoded = model.encode(&seq).unwrap();
        let stream = vrd_codec::packetize(&encoded.bitstream).unwrap();
        let faults = FaultConfig {
            seed: fault_seed,
            rate: rate_pct as f64 / 100.0,
            kinds: vec![
                FaultKind::DropFrame,
                FaultKind::DropBMvs,
                FaultKind::Truncate,
            ],
            b_frames_only: false,
            protect_first_i: true,
        };
        let (damaged, _log) = inject(&stream, &faults);
        let res = ResilienceOptions {
            nns_failure_rate: nns_fail_pct as f64 / 100.0,
            seed: fault_seed ^ 0x5eed,
        };
        let baseline = model.run_segmentation_resilient(&seq, &damaged, &res).unwrap();
        for threads in THREADS {
            let opts = PipelineOptions {
                threads: Some(threads),
                channel_capacity: None,
            };
            let piped: SegmentationRun =
                concealing_pipelined(&model, &damaged, &res, &opts, |i| seg_task(&model, &seq, i));
            assert_seg_identical(
                &baseline,
                &piped,
                &format!("concealing seg, {threads} threads, rate {rate_pct}%"),
            );
        }
    }
}

#[test]
fn detection_pipelined_matches_sequential_strict_and_resilient() {
    let cfg = SuiteConfig::tiny();
    let train = davis_train_suite(&cfg, 2);
    let model = VrDann::train(
        &train,
        TrainTask::Detection,
        VrDannConfig {
            nns_hidden: 4,
            ..VrDannConfig::default()
        },
    )
    .unwrap();
    let seq = davis_sequence("camel", &cfg).unwrap();
    let encoded = model.encode(&seq).unwrap();

    let baseline = model.run_detection(&seq, &encoded).unwrap();
    for threads in THREADS {
        let opts = PipelineOptions {
            threads: Some(threads),
            channel_capacity: Some(4),
        };
        let piped: DetectionRun =
            strict_pipelined(&model, &encoded, &opts, |i| det_task(&model, &seq, i));
        assert_det_identical(&baseline, &piped, &format!("strict det, {threads} threads"));
    }

    let stream = vrd_codec::packetize(&encoded.bitstream).unwrap();
    let faults = FaultConfig {
        seed: 0xdec0de,
        rate: 0.25,
        kinds: vec![FaultKind::DropFrame, FaultKind::DropBMvs],
        b_frames_only: false,
        protect_first_i: true,
    };
    let (damaged, _log) = inject(&stream, &faults);
    let res = ResilienceOptions {
        nns_failure_rate: 0.1,
        seed: 0xfa17,
    };
    let baseline = model.run_detection_resilient(&seq, &damaged, &res).unwrap();
    for threads in THREADS {
        let opts = PipelineOptions {
            threads: Some(threads),
            channel_capacity: Some(4),
        };
        let piped: DetectionRun =
            concealing_pipelined(&model, &damaged, &res, &opts, |i| det_task(&model, &seq, i));
        assert_det_identical(
            &baseline,
            &piped,
            &format!("resilient det, {threads} threads"),
        );
    }
}

#[test]
fn featprop_pipelined_matches_sequential() {
    let model = seg_model();
    let seq = pick_sequence(0, 48);
    let encoded = model.encode(&seq).unwrap();
    let baseline = model.run_feature_propagation(&seq, &encoded).unwrap();
    for threads in THREADS {
        let opts = PipelineOptions {
            threads: Some(threads),
            channel_capacity: Some(4),
        };
        let piped: SegmentationRun =
            strict_pipelined(model, &encoded, &opts, |i| featprop_task(model, &seq, i));
        assert_seg_identical(&baseline, &piped, &format!("featprop, {threads} threads"));
    }
}

#[test]
fn adaptive_fallback_pipelined_matches_sequential() {
    // The fallback reroutes fast B-frames through NN-L mid-GOP, mutating
    // the reference window — the pipelined executor must flush its wave at
    // exactly that point to keep earlier B-frames' sandwiches identical.
    let base = seg_model();
    let cfg = VrDannConfig {
        fallback_mv_threshold: Some(1.5),
        ..*base.config()
    };
    let model = VrDann::from_parts(cfg, &base.export_nns()).unwrap();
    let seq = pick_sequence(3, 48); // parkour: fast motion
    let encoded = model.encode(&seq).unwrap();
    let baseline = model.run_segmentation(&seq, &encoded).unwrap();
    assert!(
        baseline
            .trace
            .frames
            .iter()
            .filter(|f| f.ftype == vrd_codec::FrameType::B)
            .any(|f| f.kind.uses_large_model()),
        "fallback rerouted nothing; the barrier under test never fired"
    );
    for threads in THREADS {
        let opts = PipelineOptions {
            threads: Some(threads),
            channel_capacity: Some(2),
        };
        let piped: SegmentationRun =
            strict_pipelined(&model, &encoded, &opts, |i| seg_task(&model, &seq, i));
        assert_seg_identical(&baseline, &piped, &format!("fallback, {threads} threads"));
    }
}

/// Runs `f` on a thread of its own and returns its result, failing the test
/// if `f` panics or has not returned within a minute (a decode lane that
/// never shuts down would otherwise hang the suite).
fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(f()).is_ok());
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("driver panicked or hung on a failing stream");
    assert!(worker.join().expect("worker exits after sending"));
    result
}

#[test]
fn truncated_stream_fails_identically_on_both_layouts() {
    // A bitstream cut after a few frames: the header parses, the first
    // units decode, then a later unit errors. Both layouts must return the
    // same error, and the two-lane one must shut its decode lane down
    // (forward the error, drop the receiver, join) instead of hanging.
    let model = seg_model();
    let seq = pick_sequence(0, 48);
    let encoded = model.encode(&seq).unwrap();
    let cut = EncodedVideo {
        bitstream: encoded.bitstream.slice(..encoded.bitstream.len() / 3),
        ..encoded
    };
    let mut probe = StrictFrameSource::new(&cut.bitstream).unwrap();
    let decoded = std::iter::from_fn(|| probe.next_unit())
        .take_while(Result::is_ok)
        .count();
    assert!(
        (3..seq.len()).contains(&decoded),
        "cut should fail mid-stream, decoded {decoded} of {} units",
        seq.len()
    );

    let run = |opts: Option<PipelineOptions>| {
        let (seq, cut) = (seq.clone(), cut.clone());
        within_deadline(move || {
            let source = StrictFrameSource::new(&cut.bitstream).unwrap();
            let task = seg_task(model, &seq, &source.info());
            let engine =
                PipelineEngine::new(model.config(), model.nns(), task, StrictPolicy::default());
            match opts {
                None => engine.run(source, &[]),
                Some(opts) => engine.run_pipelined(source, &[], &opts),
            }
            .map(|run| run.outputs.len())
        })
    };
    let sequential = run(None).expect_err("a truncated strict stream must fail");
    assert!(
        matches!(sequential, VrDannError::Codec(_)),
        "{sequential:?}"
    );
    for threads in [1, 2, 4] {
        let piped = run(Some(PipelineOptions {
            threads: Some(threads),
            channel_capacity: Some(2),
        }))
        .expect_err("a truncated strict stream must fail on two lanes");
        assert_eq!(
            std::mem::discriminant(&piped),
            std::mem::discriminant(&sequential),
            "error variant diverged at {threads} threads"
        );
        assert_eq!(piped, sequential, "error diverged at {threads} threads");
    }
}

#[test]
fn hook_error_shuts_the_decode_lane_down() {
    // The hook fails while the decode lane is blocked on a full channel:
    // the driver must drop its receiver before joining the lane, or the
    // two lanes wait on each other forever.
    let model = seg_model();
    let seq = pick_sequence(0, 48);
    let encoded = model.encode(&seq).unwrap();
    let layouts = [
        None,
        Some(PipelineOptions {
            threads: Some(2),
            channel_capacity: Some(1),
        }),
    ];
    for exec in layouts {
        let (seq, encoded) = (seq.clone(), encoded.clone());
        let err = within_deadline(move || {
            let source = StrictFrameSource::new(&encoded.bitstream).unwrap();
            let task = seg_task(model, &seq, &source.info());
            PipelineEngine::new(model.config(), model.nns(), task, StrictPolicy::default())
                .run_with(source, &[], exec.as_ref(), |k, _, _| match k {
                    0 | 1 => Ok(()),
                    _ => Err(VrDannError::BadInput(format!("hook stopped at unit {k}"))),
                })
                .map(|run| run.outputs.len())
        })
        .expect_err("a hook error must end the run");
        assert_eq!(
            err,
            VrDannError::BadInput("hook stopped at unit 2".into()),
            "layout {exec:?}"
        );
    }
}
