//! The benchmark's own test: every workload at 64×48 under two seeds.

use perfbench::common::{END_TO_END, PER_LAYER};
use perfbench::{run, Outcome, RunConfig, Scale, Workload};

fn toy(workload: Workload, seed: u64, trace: bool, corrupt: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Toy,
        corrupt,
    }
}

fn names(out: &Outcome) -> Vec<&str> {
    out.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn deterministic_fields_repeat_exactly_and_follow_the_seed() {
    for w in Workload::ALL {
        let a = run(&toy(w, 1, false, false)).expect("toy run");
        let b = run(&toy(w, 1, false, false)).expect("toy run");
        let c = run(&toy(w, 2, false, false)).expect("toy run");
        assert_eq!(a.deterministic, b.deterministic, "{}", w.name());
        assert_ne!(
            a.deterministic,
            c.deterministic,
            "{}: seed ignored",
            w.name()
        );
        assert!(
            a.attempted > 0 && a.failed == 0,
            "{}: {}",
            w.name(),
            a.result_json()
        );
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&a), expected, "{}", w.name());
        assert!(a.result_json().starts_with("{\"correct\": true"));
    }
}

#[test]
fn corrupted_output_is_counted_as_failed() {
    for w in Workload::ALL {
        let out = run(&toy(w, 1, false, true)).expect("toy run");
        assert!(out.failed > 0, "{}: corruption went unnoticed", w.name());
        assert!(out.failed <= out.attempted);
        assert!(out.result_json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    for w in Workload::ALL {
        let out = run(&toy(w, 1, true, false)).expect("toy run");
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&out), expected, "{}", w.name());
        assert!(
            out.attempted > 0 && out.failed == 0,
            "{}: {}",
            w.name(),
            out.result_json()
        );
        assert_eq!(out.get("bench.replay_mismatches"), Some(0.0));
        assert!(out.get("codec.units").is_some_and(|u| u > 0.0));
        assert!(!out.span_dump.is_empty() && !out.table.is_empty());
    }
}
