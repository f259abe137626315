//! A tiny-size pass of every workload, untraced and traced: every
//! check must pass and every metric must be reported.

use admbench::run::{end_to_end, Args, Report};
use admbench::trace::per_layer;
use admbench::workload::{Scale, Workload};

fn run(workload: Workload, trace: bool) -> Report {
    let args = Args {
        workload,
        seed: 7,
        seconds: 2.0,
        trace,
        scale: Scale::TINY,
    };
    let report = if trace {
        per_layer(&args, None)
    } else {
        end_to_end(&args)
    };
    report.unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()))
}

fn assert_clean(workload: Workload, trace: bool, expected: &[&str]) {
    let r = run(workload, trace);
    let what = format!("{} (trace {trace}): {:?}", workload.name(), r.notes);
    assert!(r.correct, "{what}");
    assert!(r.attempted > 0, "{what}");
    assert_eq!(r.failed, 0, "{what}");
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
    assert_eq!(names, expected, "{what}");
    for (name, value, _) in &r.metrics {
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
}

const END_TO_END: [&str; 10] = [
    "decisions_per_s",
    "whatif_p50_ms",
    "whatif_p90_ms",
    "admit_p50_ms",
    "admit_p90_ms",
    "release_p50_ms",
    "release_p90_ms",
    "init_p50_ms",
    "setup_s",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 23] = [
    "serve.decode_us",
    "serve.encode_us",
    "serve.unattributed_whatif_ms",
    "serve.unattributed_admit_ms",
    "serve.unattributed_release_ms",
    "netcalc.screen_us",
    "netcalc.screen_attempts",
    "netcalc.screen_hits",
    "netcalc.screen_hit_ratio",
    "admission.try_admit_ms",
    "admission.release_ms",
    "admission.settle_ms",
    "analysis.extend_ms",
    "analysis.remove_ms",
    "analysis.cold_build_ms",
    "analysis.rows_recomputed",
    "analysis.rows_reused",
    "fixpoint.rounds",
    "fixpoint.solve_us",
    "fixpoint.largest_component",
    "model.extend_set_us",
    "process.cpu_ms_per_decision",
    "trace.overhead_pct",
];

#[test]
fn dense_churn_passes_its_checks() {
    assert_clean(Workload::DenseChurn, false, &END_TO_END);
}

#[test]
fn dense_churn_traced_passes_its_checks() {
    assert_clean(Workload::DenseChurn, true, &PER_LAYER);
}

#[test]
fn dense_saturated_passes_its_checks() {
    assert_clean(Workload::DenseSaturated, false, &END_TO_END);
}

#[test]
fn dense_saturated_traced_passes_its_checks() {
    assert_clean(Workload::DenseSaturated, true, &PER_LAYER);
}

#[test]
fn sparse_islands_passes_its_checks() {
    assert_clean(Workload::SparseIslands, false, &END_TO_END);
}

#[test]
fn sparse_islands_traced_passes_its_checks() {
    assert_clean(Workload::SparseIslands, true, &PER_LAYER);
}
