//! End-to-end and per-layer benchmark of the VR-DANN stack.
//!
//! Three workloads (see `README.md` in this directory for why each exists):
//!
//! * [`Workload::Clip`] — offline 864×480 f32 clip through the pipelined
//!   executor, closed loop;
//! * [`Workload::Live`] — a paced 20 fps 864×480 int8 feed stepped through
//!   the streaming `prime`/`step`/`finish` API, open loop;
//! * [`Workload::Serve`] — the 20-sequence 160×96 suite offered to
//!   `vrd_serve::serve`, closed loop over serve windows.
//!
//! The untraced run reports end-to-end metrics; the traced run (a separate
//! process) reports per-layer metrics from spans the benchmark records
//! around its own calls into each crate's public API.

pub mod clip;
pub mod common;
pub mod expected;
pub mod live;
pub mod serve;
pub mod single;
pub mod stepper;
pub mod trace;

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `clip-hd-f32`.
    Clip,
    /// `live-hd-int8`.
    Live,
    /// `serve-sd-20`.
    Serve,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Clip, Workload::Live, Workload::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Clip => "clip-hd-f32",
            Workload::Live => "live-hd-int8",
            Workload::Serve => "serve-sd-20",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::Full`] is what the benchmark measures;
/// [`Scale::Toy`] shrinks every video to 64×48 for the benchmark's own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The documented workload sizes.
    Full,
    /// 64×48 videos, a few frames each.
    Toy,
}

/// Measurement length when `--seconds` is not given: the `run_seconds` of
/// `BENCHMARK.json`, at which the bounds were set.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed for every generated video.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Deliberately corrupt one measured output, so the benchmark's own
    /// test can check that output verification counts it as failed.
    pub corrupt: bool,
}

impl RunConfig {
    /// The measured configuration of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            corrupt: false,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one invocation produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Frames (or served frames) whose outputs were checked.
    pub attempted: u64,
    /// Checked frames whose run failed a check; a mismatch fails every
    /// frame of that run.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Fields that must repeat exactly for a fixed seed: output digests,
    /// counts, accuracy and simulated figures.
    pub deterministic: Vec<(&'static str, String)>,
    /// Host shape and run knobs.
    pub host: Vec<(&'static str, String)>,
    /// Span dump (traced runs only), JSON lines.
    pub span_dump: String,
    /// Self-time tables (traced runs only).
    pub table: String,
}

impl Outcome {
    /// Records a deterministic field.
    pub fn fixed(&mut self, name: &'static str, value: impl std::fmt::Display) {
        self.deterministic.push((name, value.to_string()));
    }

    /// Counts one checked run of `frames` frames.
    pub fn check(&mut self, frames: usize, ok: bool) {
        self.attempted += frames as u64;
        if !ok {
            self.failed += frames as u64;
        }
    }

    /// The metric named `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
        )
    }

    /// Host shape, knobs and deterministic fields as one JSON object line.
    pub fn context_json(&self) -> String {
        let fields: Vec<String> = self
            .host
            .iter()
            .chain(&self.deterministic)
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!("{{\"context\": {{{}}}}}", fields.join(", "))
    }
}

/// Runs one invocation.
///
/// # Errors
/// Returns a message when set-up fails (inputs could not be generated or
/// encoded, or the model could not be trained); failures of measured runs
/// are counted in the outcome instead.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = match cfg.workload {
        Workload::Clip => clip::run(cfg)?,
        Workload::Live => live::run(cfg)?,
        Workload::Serve => serve::run(cfg)?,
    };
    let mut host = common::host_shape(cfg);
    host.append(&mut out.host);
    out.host = host;
    Ok(out)
}
