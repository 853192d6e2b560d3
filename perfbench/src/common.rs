//! Pieces every workload shares: metric catalogue, set-up timing, host
//! shape, order statistics and the simulator read-outs.

use crate::{Metric, Outcome, RunConfig, Scale};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vr_dann::{SchemeTrace, TrainTask, VrDann, VrDannConfig};
use vrd_sim::{ExecMode, ParallelOptions, SimConfig, SimReport};
use vrd_video::davis::{davis_train_suite, SuiteConfig};
use vrd_video::Sequence;

/// End-to-end metrics (timed run), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("fps", "frames/s"),
    ("frame_latency_p50_ms", "ms"),
    ("frame_latency_p95_ms", "ms"),
    ("j_mean", "IoU"),
    ("sessions_admitted", "count"),
    ("sim_fps", "sim_frames/s"),
    ("sim_p99_ms", "sim_ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order. Every traced
/// run reports all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("video.generate_s", "s"),
    ("codec.encode_s", "s"),
    ("nn.train_s", "s"),
    ("codec.next_unit_ms", "ms"),
    ("codec.units", "count"),
    ("nn.nnl_segment_ms", "ms"),
    ("nn.nnl_calls", "count"),
    ("nn.nns_f32_ms", "ms"),
    ("nn.nns_int8_ms", "ms"),
    ("nn.nns_calls", "count"),
    ("core.reconstruct_ms", "ms"),
    ("core.sandwich_ms", "ms"),
    ("core.step_anchor_ms", "ms"),
    ("core.step_b_ms", "ms"),
    ("core.step_self_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.sequential_fps", "frames/s"),
    ("core.pipelined_speedup", "x"),
    ("core.peak_live_units", "count"),
    ("runtime.decode_lane_busy_pct", "%"),
    ("runtime.decode_lane_blocked_pct", "%"),
    ("runtime.channel_peak_depth", "count"),
    ("serve.admit_and_drive_ms", "ms"),
    ("serve.schedule_ms", "ms"),
    ("serve.session_drive_ms_mean", "ms"),
    ("serve.session_drive_ms_max", "ms"),
    ("serve.sessions_rejected", "count"),
    ("serve.sim_switches", "count"),
    ("serve.sim_switches_fifo", "count"),
    ("serve.sim_max_queue_depth", "count"),
    ("serve.sim_decoder_stalls", "count"),
    ("serve.frames_shed", "count"),
    ("sim.simulate_stream_ms", "ms"),
    ("sim.model_switches", "count"),
    ("bench.pacer_late_p95_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("bench.replay_mismatches", "count"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
];

/// Emits `values` into `out` in catalogue order, 0 for any name missing.
///
/// # Panics
/// Panics if `values` names a metric outside the catalogue — a typo in the
/// benchmark, not a runtime condition.
pub fn emit(
    out: &mut Outcome,
    catalogue: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) {
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
    }
    for &(name, unit) in catalogue {
        out.metrics.push(Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        });
    }
}

/// Adds the set-up and memory metrics every workload shares and emits the
/// end-to-end catalogue. `peak_rss_mb` is read by the caller as soon as
/// its timed loop ends (see [`PeakRss`]).
pub fn finish_e2e(
    out: &mut Outcome,
    mut e2e: BTreeMap<&'static str, f64>,
    setups: &[SetupTimes],
    peak_rss_mb: f64,
) {
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    e2e.insert("setup_s", median(&totals));
    e2e.insert("peak_rss_mb", peak_rss_mb);
    emit(out, &END_TO_END, &e2e);
}

/// Worker threads the benchmark hands the program: every core the
/// process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Directory of the benchmark package (where the span dump goes).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a digest of a string (used for the serve report).
pub fn digest_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, s.as_bytes());
    h
}

fn digest_tree(dir: &Path, hash: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            digest_tree(&p, hash);
        } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
            fnv1a(hash, p.to_string_lossy().as_bytes());
            if let Ok(bytes) = std::fs::read(&p) {
                fnv1a(hash, &bytes);
            }
        }
    }
}

/// Identifies the code measured: the git commit when the source tree is a
/// git checkout, and always a digest of the crates' sources (the
/// benchmark may run from an export that carries no git metadata).
fn commit_and_source() -> (String, String) {
    let root = bench_dir().join("..");
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    digest_tree(&root.join("crates"), &mut h);
    (commit, format!("{h:016x}"))
}

/// Host shape and the knobs of this invocation.
pub fn host_shape(cfg: &RunConfig) -> Vec<(&'static str, String)> {
    let avx2 = {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    };
    let (commit, source) = commit_and_source();
    vec![
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("nproc", nproc().to_string()),
        (
            "runtime_max_threads",
            vrd_runtime::max_threads().to_string(),
        ),
        ("avx2", avx2.to_string()),
        ("commit", commit),
        ("source_digest", source),
    ]
}

/// Peak resident memory of the timed loop alone: [`PeakRss::start`]
/// resets the kernel's high-water mark (`VmHWM`) just before the loop, so
/// set-up and the reference runs do not set the figure; inputs the loop
/// reads still count, as they stay resident while it runs.
pub struct PeakRss {
    reset: bool,
}

impl PeakRss {
    /// Resets the high-water mark to the current resident size by writing
    /// `5` to `/proc/self/clear_refs` (Linux).
    pub fn start() -> Self {
        Self {
            reset: std::fs::write("/proc/self/clear_refs", "5").is_ok(),
        }
    }

    /// What the figure covers, for the host context line.
    pub fn scope(&self) -> &'static str {
        if self.reset {
            "timed loop"
        } else {
            "whole process (high-water mark reset unsupported)"
        }
    }

    /// Peak resident memory since [`PeakRss::start`] in MiB, 0 where the
    /// platform does not report it.
    pub fn read_mb(&self) -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if p == 50.0 && v.len().is_multiple_of(2) {
        return (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentile `p` of each consecutive block of `block` samples of `xs` (in
/// offer order; the last block may be short), then the median over the
/// blocks. On a shared host a slow period inflates the tail of the block
/// it falls in, not the whole run's figure, while a slower program moves
/// every block.
pub fn block_percentile(xs: &[f64], block: usize, p: f64) -> f64 {
    let per_block: Vec<f64> = xs.chunks(block.max(1)).map(|c| percentile(c, p)).collect();
    median(&per_block)
}

/// Percentile `p` over the positions of a replayed sequence: `xs` holds
/// back-to-back replays of `period` samples (the last may be short), each
/// position's value is its median over the replays, and the percentile is
/// taken over those `period` medians. A slow period of a shared host hits
/// some replays of a position, not its median, so the tail stays that of
/// the program's slowest positions; a slower program moves every replay.
pub fn position_percentile(xs: &[f64], period: usize, p: f64) -> f64 {
    let period = period.max(1);
    let per_position: Vec<f64> = (0..period.min(xs.len()))
        .map(|i| {
            median(
                &xs.iter()
                    .skip(i)
                    .step_by(period)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    percentile(&per_position, p)
}

/// Wall time of one set-up, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Video generation (evaluation and training videos), seconds.
    pub generate_s: f64,
    /// Encoding the evaluation videos, seconds.
    pub encode_s: f64,
    /// `VrDann::train` (which encodes its training videos itself), seconds.
    pub train_s: f64,
}

impl SetupTimes {
    /// Whole set-up, seconds.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.encode_s + self.train_s
    }

    /// Records the split as the per-layer set-up metrics.
    pub fn record(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("video.generate_s", self.generate_s);
        layers.insert("codec.encode_s", self.encode_s);
        layers.insert("nn.train_s", self.train_s);
    }
}

/// Set-ups in a timed run; `setup_s` is the median of their totals.
pub const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times in a timed run and once in a traced
/// run, keeping the last inputs and every repetition's timing.
pub fn repeat_setup<T>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> Result<(T, SetupTimes), String>,
) -> Result<(T, Vec<SetupTimes>), String> {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous inputs first so repetitions do not stack up
        // in resident memory.
        drop(last.take());
        let (inputs, t) = setup()?;
        times.push(t);
        last = Some(inputs);
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// The seeded training videos: two short sequences of the suite.
pub fn train_videos(scale: Scale, seed: u64) -> Vec<Sequence> {
    let cfg = SuiteConfig {
        seed,
        ..SuiteConfig::tiny()
    };
    let n = match scale {
        Scale::Full => 2,
        Scale::Toy => 1,
    };
    davis_train_suite(&cfg, n)
}

/// Trains the model of one workload (timed as `nn.train_s`).
pub fn train_model(train: &[Sequence], cfg: VrDannConfig) -> Result<(VrDann, f64), String> {
    let (model, s) = timed(|| VrDann::train(train, TrainTask::Segmentation, cfg));
    Ok((model.map_err(|e| format!("training failed: {e}"))?, s))
}

/// The trace replayed on the modelled SoC in VR-DANN-parallel mode.
fn simulate(trace: &SchemeTrace) -> SimReport {
    vrd_sim::simulate_stream(
        trace.frames.iter(),
        trace.scheme,
        trace.width,
        trace.height,
        trace.mb_size,
        ExecMode::VrDannParallel(ParallelOptions::default()),
        &SimConfig::default(),
    )
}

/// The simulator's VR-DANN-parallel fps for a trace.
pub fn sim_fps(trace: &SchemeTrace) -> f64 {
    simulate(trace).fps
}

/// Model switches and host milliseconds of one `simulate_stream` call.
pub fn sim_stream_host(trace: &SchemeTrace) -> (usize, f64) {
    let (report, s) = timed(|| simulate(trace));
    (report.switches, s * 1e3)
}

/// Writes the traced run's span dump under `out/` in the benchmark
/// directory, returning the path written.
pub fn write_span_dump(cfg: &RunConfig, dump: &str) -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&path, dump).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[], 95.0), 0.0);
        let blocks = [1.0, 2.0, 90.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(block_percentile(&blocks, 3, 95.0), 8.0);
        assert_eq!(block_percentile(&blocks, 3, 50.0), 4.0);
        // Three replays of four positions; the 90 in replay 1 is outvoted.
        let replays = [1.0, 2.0, 3.0, 9.0, 1.0, 90.0, 3.0, 8.0, 2.0, 2.0, 4.0, 7.0];
        assert_eq!(position_percentile(&replays, 4, 95.0), 8.0);
        assert_eq!(position_percentile(&replays, 4, 50.0), 2.5);
        assert_eq!(position_percentile(&[], 4, 95.0), 0.0);
    }
}
