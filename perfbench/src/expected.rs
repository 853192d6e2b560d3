//! Outputs recorded at the default seed on the full-size workloads. A run
//! at the default seed must reproduce them; other seeds are checked only
//! against the same commit's sequential reference.

use crate::{RunConfig, Scale, Workload};

/// The seed the documentation's figures use.
pub const DEFAULT_SEED: u64 = 42;

/// Recorded digest of `workload` at [`DEFAULT_SEED`]: the
/// `vrd_bench::e2e::digest_run` of the clip and live outputs, and the
/// FNV-1a digest of the serve window's `ServeReport` debug rendering.
fn recorded(workload: Workload) -> u64 {
    match workload {
        Workload::Clip => 0x9f0c_45fa_3b1a_701b,
        Workload::Live => 0xf59f_ce87_6f20_8c2e,
        Workload::Serve => 0xb62d_f604_3656_1159,
    }
}

/// Whether this run is compared against a recorded digest.
pub fn checked(cfg: &RunConfig) -> bool {
    cfg.scale == Scale::Full && cfg.seed == DEFAULT_SEED
}

/// `false` only when this run has a recorded digest and `digest` differs.
pub fn matches(cfg: &RunConfig, digest: u64) -> bool {
    !checked(cfg) || digest == recorded(cfg.workload)
}
