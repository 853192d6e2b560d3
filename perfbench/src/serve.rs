//! `serve-sd-20`: the 20-sequence 160×96 validation suite offered at once
//! to `vrd_serve::serve`, closed loop over serve windows.

use crate::common::{
    block_percentile, digest_str, emit, finish_e2e, nproc, repeat_setup, timed, train_model,
    train_videos, PeakRss, SetupTimes, PER_LAYER,
};
use crate::expected;
use crate::stepper::measure_stepper;
use crate::trace::{aggregate, render_jsonl, render_table, Tracer};
use crate::{Outcome, RunConfig, Scale};
use std::collections::BTreeMap;
use std::time::Instant;
use vr_dann::{VrDann, VrDannConfig};
use vrd_bench::e2e::digest_run;
use vrd_codec::{BFrameMode, CodecConfig, EncodedVideo};
use vrd_metrics::score_sequence;
use vrd_nn::LargeNet;
use vrd_serve::{
    admit_and_drive, drive_session, schedule, serve, SchedPolicy, ServeConfig, ServeReport,
    SessionSpec, SessionState,
};
use vrd_video::davis::{davis_val_suite, SuiteConfig};
use vrd_video::Sequence;

/// Per-session frame interval as a multiple of one NN-L inference: at 15
/// the SLO admits 15 of the 20 sessions and refuses 5, so admission does
/// real work.
pub const LOAD_FACTOR: f64 = 15.0;

/// The serving configuration: f32 NN-S and one B-frame between anchors.
/// Admission projects each session's load from its anchor and B-frame
/// counts; with the encoder's auto B-ratio those counts follow the video
/// content, so the SLO admitted 18 or 19 sessions depending on the seed and
/// the window's work (and wall time) jumped with it. A fixed B-ratio makes
/// the admitted set the same at every seed.
fn serve_model_config() -> VrDannConfig {
    VrDannConfig {
        codec: CodecConfig {
            b_frames: BFrameMode::Fixed(1),
            ..CodecConfig::default()
        },
        ..VrDannConfig::default()
    }
}

struct Inputs {
    suite: Vec<Sequence>,
    model: VrDann,
    encoded: Vec<EncodedVideo>,
}

fn setup(cfg: &RunConfig) -> Result<(Inputs, SetupTimes), String> {
    let base = match cfg.scale {
        Scale::Full => SuiteConfig::default(),
        Scale::Toy => SuiteConfig::tiny(),
    };
    let suite_cfg = SuiteConfig {
        seed: cfg.seed,
        ..base
    };
    let ((suite, train), generate_s) = timed(|| {
        (
            davis_val_suite(&suite_cfg),
            train_videos(cfg.scale, cfg.seed),
        )
    });
    let (model, train_s) = train_model(&train, serve_model_config())?;
    let (encoded, encode_s) =
        timed(|| vrd_runtime::parallel_map_with(&suite, nproc(), |s| model.encode(s)));
    let encoded = encoded
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("encoding failed: {e}"))?;
    let times = SetupTimes {
        generate_s,
        encode_s,
        train_s,
    };
    Ok((
        Inputs {
            suite,
            model,
            encoded,
        },
        times,
    ))
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        load_factor: LOAD_FACTOR,
        threads: Some(nproc()),
        ..ServeConfig::default()
    }
}

/// Frames of the admitted sessions.
fn admitted_frames(r: &ServeReport) -> usize {
    r.sessions
        .iter()
        .filter(|s| s.state == SessionState::Drained)
        .map(|s| s.frames)
        .sum()
}

/// Conservation: every request is admitted or rejected, and under each
/// policy every admitted frame is served or shed.
fn conserves(r: &ServeReport, requests: usize) -> bool {
    let frames = admitted_frames(r);
    r.admitted + r.rejected == requests
        && [&r.fifo, &r.batched]
            .iter()
            .all(|p| p.frames_served + p.frames_shed == frames)
}

/// Windows per latency block, about 3 s of serving. The latency
/// percentiles are taken per block and the median over the run's blocks is
/// reported.
const LATENCY_BLOCK_WINDOWS: usize = 4;

/// Runs the workload.
///
/// # Errors
/// Returns a message when set-up, the warm-up window or the sequential
/// reference runs fail.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (inputs, times) = repeat_setup(cfg, || setup(cfg))?;
    let Inputs {
        suite,
        model,
        encoded,
    } = &inputs;
    let requests: Vec<(&Sequence, &EncodedVideo)> = suite.iter().zip(encoded).collect();
    let scfg = serve_config();

    // The first window warms caches and is the reference report every
    // later window must reproduce exactly.
    let first =
        serve(model, &requests, &scfg).map_err(|e| format!("warm-up window failed: {e}"))?;
    let first_digest = digest_str(&format!("{first:?}"));
    let first_ok = conserves(&first, requests.len()) && expected::matches(cfg, first_digest);
    let frames = admitted_frames(&first);
    let admitted: Vec<usize> = first
        .sessions
        .iter()
        .enumerate()
        .filter(|(_, s)| s.state == SessionState::Drained)
        .map(|(i, _)| i)
        .collect();

    // `serve` returns no masks: accuracy and the stepper's output check use
    // the same commit's sequential engine on each admitted session.
    let admitted_jobs: Vec<(&Sequence, &EncodedVideo)> =
        admitted.iter().map(|&i| requests[i]).collect();
    let references = model
        .run_segmentation_batch(&admitted_jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("sequential reference run failed: {e}"))?;
    let j_mean = references
        .iter()
        .zip(&admitted_jobs)
        .map(|(r, (seq, _))| score_sequence(&r.masks, &seq.gt_masks).iou)
        .sum::<f64>()
        / references.len().max(1) as f64;
    let batched = &first.batched;
    let sim_fps = batched.frames_served as f64 / (batched.makespan_ns / 1e9);
    let sim_p99_ms = batched.latency.p99_ns / 1e6;

    let mut out = Outcome::default();
    out.fixed("report_digest", format!("{first_digest:#018x}"));
    out.fixed("sessions_admitted", first.admitted);
    out.fixed("sessions_rejected", first.rejected);
    out.fixed("frames_admitted", frames);
    out.fixed("j_mean", j_mean);
    out.fixed("sim_fps", sim_fps);
    out.fixed("sim_p99_ms", sim_p99_ms);
    out.host
        .push(("threads", format!("{} session workers", nproc())));
    out.host.push(("load_factor", LOAD_FACTOR.to_string()));
    out.host.push(("frames_per_window", frames.to_string()));
    out.host.push((
        "expected_digest_checked",
        expected::checked(cfg).to_string(),
    ));

    if cfg.trace {
        let mut layers = BTreeMap::new();
        times[0].record(&mut layers);
        let tracer = Tracer::new(true);
        let mut driven_ref = None;
        let start = Instant::now();
        loop {
            let open = tracer.open("bench.window");
            let drove = tracer.span("serve.admit_and_drive", None, || {
                admit_and_drive(model, &requests, &scfg)
            });
            let ok = match drove {
                Ok((_, driven, _)) => {
                    let fifo = tracer.span("serve.schedule", None, || {
                        schedule(&driven, SchedPolicy::Fifo, &scfg.sched, &scfg.sim)
                    });
                    let batch = tracer.span("serve.schedule", None, || {
                        schedule(&driven, SchedPolicy::Batch, &scfg.sched, &scfg.sim)
                    });
                    let ok = first_ok
                        && fifo.is_ok_and(|f| f == first.fifo)
                        && batch.is_ok_and(|b| b == first.batched);
                    driven_ref.get_or_insert(driven);
                    ok
                }
                Err(_) => false,
            };
            tracer.close(open, None);
            out.check(frames, ok);
            if start.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
        }

        // Each admitted session driven alone, with the spec `serve` gives it.
        let interval_ns = |seq: &Sequence| {
            let nnl_ops =
                LargeNet::new(model.config().segment_profile).ops(seq.width(), seq.height());
            scfg.load_factor * nnl_ops as f64 / scfg.sim.npu_ops_per_ns()
        };
        let mut drive_ms = Vec::new();
        for (session, &r) in admitted.iter().enumerate() {
            let (seq, enc) = requests[r];
            let spec = SessionSpec {
                start_offset_ns: session as f64 * scfg.stagger_frac * interval_ns(seq),
                frame_interval_ns: interval_ns(seq),
            };
            let (driven, s) = timed(|| {
                tracer.span("serve.session_drive", None, || {
                    drive_session(model, session, seq, enc, &spec, &scfg.sim)
                })
            });
            drive_ms.push(s * 1e3);
            let same = match (&driven, &driven_ref) {
                (Ok(d), Some(all)) => all.get(session) == Some(d),
                _ => false,
            };
            out.check(seq.len(), same);
        }

        let agg = aggregate(&tracer.spans());
        let get = |n: &str| agg.get(n).copied().unwrap_or_default();
        layers.insert(
            "serve.admit_and_drive_ms",
            get("serve.admit_and_drive").mean_ms(),
        );
        layers.insert("serve.schedule_ms", get("serve.schedule").mean_ms());
        layers.insert(
            "serve.session_drive_ms_mean",
            drive_ms.iter().sum::<f64>() / drive_ms.len().max(1) as f64,
        );
        layers.insert(
            "serve.session_drive_ms_max",
            drive_ms.iter().copied().fold(0.0, f64::max),
        );
        layers.insert("serve.sessions_rejected", first.rejected as f64);
        layers.insert("serve.sim_switches", first.batched.switches as f64);
        layers.insert("serve.sim_switches_fifo", first.fifo.switches as f64);
        layers.insert(
            "serve.sim_max_queue_depth",
            first.batched.max_queue_depth as f64,
        );
        layers.insert(
            "serve.sim_decoder_stalls",
            first.batched.decoder_stalls as f64,
        );
        layers.insert("serve.frames_shed", first.batched.frames_shed as f64);

        let ref_digests: Vec<u64> = references.iter().map(digest_run).collect();
        let stepper = measure_stepper(model, &admitted_jobs, &mut layers, &mut out, &|i, r| {
            digest_run(r) == ref_digests[i]
        })?;
        emit(&mut out, &PER_LAYER, &layers);
        let spans = tracer.spans();
        out.table = render_table("serve", &spans) + &stepper.table;
        out.span_dump = render_jsonl("serve", &spans) + &stepper.dump;
        crate::common::write_span_dump(cfg, &out.span_dump)?;
        return Ok(out);
    }

    let mut window_s = Vec::new();
    let rss = PeakRss::start();
    let start = Instant::now();
    loop {
        let (report, s) = timed(|| serve(model, &requests, &scfg));
        let ok = match report {
            Ok(mut r) => {
                if cfg.corrupt && window_s.is_empty() {
                    r.batched.frames_shed += 1;
                }
                first_ok && r == first
            }
            Err(_) => false,
        };
        out.check(frames, ok);
        window_s.push(s);
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let peak_rss_mb = rss.read_mb();
    // Every frame of a window is delivered when `serve` returns.
    let latencies: Vec<f64> = window_s
        .iter()
        .flat_map(|&s| std::iter::repeat_n(s * 1e3, frames))
        .collect();
    let mut e2e = BTreeMap::new();
    e2e.insert(
        "fps",
        (frames * window_s.len()) as f64 / window_s.iter().sum::<f64>(),
    );
    for (name, q) in [
        ("frame_latency_p50_ms", 50.0),
        ("frame_latency_p95_ms", 95.0),
    ] {
        let block = frames * LATENCY_BLOCK_WINDOWS;
        e2e.insert(name, block_percentile(&latencies, block, q));
    }
    e2e.insert("j_mean", j_mean);
    e2e.insert("sessions_admitted", first.admitted as f64);
    e2e.insert("sim_fps", sim_fps);
    e2e.insert("sim_p99_ms", sim_p99_ms);
    finish_e2e(&mut out, e2e, &times, peak_rss_mb);
    out.host
        .push(("windows_measured", window_s.len().to_string()));
    out.host.push(("peak_rss_scope", rss.scope().to_string()));
    Ok(out)
}
