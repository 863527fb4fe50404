//! The benchmark's seed contract, on scaled-down workloads: the same seed
//! commits identical log bytes, and a held-out seed gives a different
//! program of the same shape that reports the same metric set.

use std::path::PathBuf;

use bugnet_e2ebench::layers::LAYER_METRICS;
use bugnet_e2ebench::pipeline::{run_pass, Ops, Pass};
use bugnet_e2ebench::workload::WorkloadDef;
use bugnet_e2ebench::{run, RunConfig, END_TO_END_METRICS};

/// Seed used while the benchmark was written.
const SEED: u64 = 1;
/// A seed that played no part in writing the benchmark.
const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

fn small(name: &str) -> WorkloadDef {
    let mut def = WorkloadDef::find(name).expect("workload exists");
    def.instructions_per_thread = 200_000;
    def
}

fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("e2ebench-{test}"))
}

fn pass(def: &WorkloadDef, seed: u64, dir: &str) -> Pass {
    let mut ops = Ops::default();
    let pass = run_pass(def, seed, &scratch(dir), None, &mut ops).expect("pass completes");
    assert_eq!(ops.failed, 0, "{:?}", ops.problems);
    pass
}

#[test]
fn same_seed_commits_identical_log_bytes() {
    for name in ["gzip", "gzip_shared"] {
        let def = small(name);
        let a = pass(&def, SEED, &format!("same-a-{name}"));
        let b = pass(&def, SEED, &format!("same-b-{name}"));
        assert!(a.log_bytes() > 0);
        assert_eq!(a.log_bytes(), b.log_bytes(), "{name}");
        assert_eq!(a.files, b.files, "{name}: dump bytes differ");
    }
}

#[test]
fn held_out_seed_changes_the_program_not_its_shape() {
    let def = small("mcf");
    let a = pass(&def, SEED, "shape-a");
    let b = pass(&def, HELD_OUT_SEED, "shape-b");
    let (pa, pb) = (
        &a.workload.threads[0].program,
        &b.workload.threads[0].program,
    );
    assert!(
        pa.code() != pb.code() || pa.data() != pb.data(),
        "a held-out seed must generate a different program"
    );
    assert_ne!(a.files, b.files);
    let ratio = a.committed as f64 / b.committed as f64;
    assert!(
        (0.9..1.1).contains(&ratio),
        "instruction counts {} vs {}",
        a.committed,
        b.committed
    );
    let logs = a.log_bytes() as f64 / b.log_bytes() as f64;
    assert!(
        (0.75..1.33).contains(&logs),
        "log bytes {} vs {}",
        a.log_bytes(),
        b.log_bytes()
    );
}

#[test]
fn every_seed_reports_the_full_metric_set() {
    for (trace, expected) in [
        (false, END_TO_END_METRICS.map(|m| m.0).to_vec()),
        (true, LAYER_METRICS.map(|m| m.0).to_vec()),
    ] {
        for seed in [SEED, HELD_OUT_SEED] {
            let cfg = RunConfig {
                workload: small("gzip_shared"),
                seed,
                seconds: 0,
                trace,
                out_dir: scratch(&format!("metrics-{trace}-{seed}")),
            };
            std::fs::create_dir_all(&cfg.out_dir).expect("scratch directory");
            let mut result = run(&cfg);
            let metrics = result.medians(&bugnet_e2ebench::reported_metrics(trace));
            assert_eq!(result.ops.failed, 0, "{:?}", result.ops.problems);
            let names: Vec<_> = metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
        }
    }
}
