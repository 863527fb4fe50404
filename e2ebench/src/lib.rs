//! End-to-end benchmark of the BugNet pipeline with per-layer attribution.
//!
//! One run drives a named workload through the public API a user drives —
//! generate the programs from a seed, record them with BugNet on, commit a
//! crash dump, load it back and replay it — repeatedly for a fixed time,
//! checking every output, and reports each metric's median. An untraced run
//! reports the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer metrics, exports its timeline as Perfetto JSON and checks that
//! tracing left the dump bytes unchanged. `README.md` beside this crate
//! lists every metric and why each workload is in the benchmark.

pub mod layers;
pub mod pipeline;
pub mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bugnet_trace::TraceSession;

use crate::layers::{measure_modules, self_times, trace_layers, LAYER_METRICS};
use crate::pipeline::{per_kinstr, run_pass, Ops, Pass};
use crate::workload::{WorkloadDef, CHECKPOINT_INTERVAL};

/// Name, unit and better direction of every end-to-end metric, in report
/// order. `BENCHMARK.json` lists the same set.
pub const END_TO_END_METRICS: [(&str, &str, &str); 7] = [
    ("record_minstr_per_s", "Minstr/s", "higher"),
    ("dump_commit_ms", "ms", "lower"),
    ("reproduce_ms", "ms", "lower"),
    ("log_bytes_per_kinstr", "B/kinstr", "lower"),
    ("dump_bytes_per_kinstr", "B/kinstr", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadDef,
    /// Seed the workload's programs are generated from.
    pub seed: u64,
    /// How long to keep repeating passes, counting one warm-up pass that
    /// is not sampled. At least one sampled pass is always made.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory for dumps (removed afterwards) and the exported timeline.
    pub out_dir: PathBuf,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every sample taken, by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Report lines to print before the result (self times, trace path).
    pub notes: Vec<String>,
}

impl RunResult {
    fn record(&mut self, sample: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in sample {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Median of every metric in `metrics`, with its unit. A metric that
    /// was never sampled or is not finite is counted as a failure.
    pub fn medians(&mut self, metrics: &[(&'static str, &'static str, &str)]) -> Vec<Metric> {
        let mut out = Vec::new();
        for &(name, unit, _) in metrics {
            let values = self.samples.get(name).cloned().unwrap_or_default();
            let q = quartiles(&values);
            let ok = q.is_some_and(|q| q.iter().all(|v| v.is_finite()));
            self.ops
                .expect(ok, || format!("metric {name} has no finite samples"));
            if let (true, Some(q)) = (ok, q) {
                out.push(Metric {
                    name,
                    unit,
                    median: q[1],
                    p25: q[0],
                    p75: q[2],
                    samples: values.len(),
                });
            }
        }
        out
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median over the run's samples.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Samples taken.
    pub samples: usize,
}

/// First quartile, median and third quartile of `values`, computed as
/// Python's `statistics.quantiles(values, n=4)` does. `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// Runs the configured benchmark.
pub fn run(cfg: &RunConfig) -> RunResult {
    let work = cfg.out_dir.join(format!("work-{}", std::process::id()));
    let mut result = RunResult::default();
    if cfg.trace {
        run_traced(cfg, &work, &mut result);
    } else {
        run_end_to_end(cfg, &work, &mut result);
    }
    let _ = fs::remove_dir_all(&work);
    result
}

/// Checks that `pass` committed exactly the dump of the first pass of the
/// same seed, whose log bytes and files `reference` holds.
fn check_repeats(
    result: &mut RunResult,
    name: &str,
    reference: &(u64, BTreeMap<String, Vec<u8>>),
    pass: &Pass,
) {
    let (log_bytes, files) = reference;
    result.ops.expect(pass.log_bytes() == *log_bytes, || {
        format!(
            "{name}: log bytes {} differ from the first pass's {log_bytes}",
            pass.log_bytes()
        )
    });
    result.ops.expect(&pass.files == files, || {
        format!("{name}: dump bytes differ from the first pass's")
    });
}

fn end_to_end_sample(pass: &Pass) -> [(&'static str, f64); 6] {
    let window = pass.window_instructions();
    [
        (
            "record_minstr_per_s",
            pass.committed as f64 / pass.record_s / 1e6,
        ),
        ("dump_commit_ms", pass.commit_s * 1e3),
        ("reproduce_ms", pass.reproduce_s() * 1e3),
        ("log_bytes_per_kinstr", per_kinstr(pass.log_bytes(), window)),
        (
            "dump_bytes_per_kinstr",
            per_kinstr(pass.dump_bytes(), window),
        ),
        ("setup_s", pass.setup_s()),
    ]
}

fn run_end_to_end(cfg: &RunConfig, work: &Path, result: &mut RunResult) {
    let def = &cfg.workload;
    let dir = work.join("dump");
    let started = Instant::now();
    // Warm-up: fills the allocator and page cache; checked, not sampled.
    let Some(reference) = run_pass(def, cfg.seed, &dir, None, &mut result.ops) else {
        return;
    };
    // Only the dump is kept, so the reference adds little to peak memory;
    // the rest of the pass, its machine and flush workers, is dropped here.
    let reference = {
        let first = reference;
        (first.log_bytes(), first.files)
    };
    loop {
        let Some(pass) = run_pass(def, cfg.seed, &dir, None, &mut result.ops) else {
            return;
        };
        check_repeats(result, def.name, &reference, &pass);
        result.record(end_to_end_sample(&pass));
        if started.elapsed() >= Duration::from_secs(cfg.seconds) {
            break;
        }
    }
    result.record([("peak_rss_mb", peak_rss_mb())]);
}

/// Trace-ring capacity that holds every event one traced pass and its
/// module timings emit on any one track, with room to spare.
fn ring_capacity(def: &WorkloadDef) -> usize {
    let intervals = def.threads as u64 * (def.instructions_per_thread / CHECKPOINT_INTERVAL + 1);
    (8 * intervals + 1024) as usize
}

fn run_traced(cfg: &RunConfig, work: &Path, result: &mut RunResult) {
    let def = &cfg.workload;
    let dir = work.join("dump");
    let mut last_session = None;
    let started = Instant::now();
    let mut rep = 0;
    // One warm-up rep, then reps until the time is up (at least one).
    while rep < 2 || started.elapsed() < Duration::from_secs(cfg.seconds) {
        let session = Arc::new(TraceSession::with_capacity(
            format!("e2ebench {} seed {}", def.name, cfg.seed),
            ring_capacity(def),
        ));
        // Alternate which side of the overhead A/B pair runs first.
        let (plain, traced) = if rep % 2 == 0 {
            let plain = run_pass(def, cfg.seed, &dir, None, &mut result.ops);
            (
                plain,
                run_pass(def, cfg.seed, &dir, Some(&session), &mut result.ops),
            )
        } else {
            let traced = run_pass(def, cfg.seed, &dir, Some(&session), &mut result.ops);
            (run_pass(def, cfg.seed, &dir, None, &mut result.ops), traced)
        };
        let (Some(plain), Some(traced)) = (plain, traced) else {
            return;
        };
        result.ops.expect(traced.files == plain.files, || {
            format!(
                "{}: the traced dump differs from the untraced dump",
                def.name
            )
        });
        let mut layer_track = session.thread("bench-layers");
        let modules = measure_modules(def, &plain, Some(&mut layer_track), &mut result.ops);
        let dropped = session.dropped_events();
        result.ops.expect(dropped == 0, || {
            format!("{}: the trace session dropped {dropped} events", def.name)
        });
        if rep > 0 {
            result.record(modules);
            result.record(trace_layers(def, &session));
            result.record([(
                "trace.overhead_frac",
                traced.record_s / plain.record_s - 1.0,
            )]);
        }
        last_session = Some(session);
        rep += 1;
    }
    if let Some(session) = last_session {
        export_timeline(cfg, &session, result);
    }
}

/// Writes the last traced rep's timeline as Perfetto (Chrome trace-event)
/// JSON, checks that it parses back, and notes its self-time table.
fn export_timeline(cfg: &RunConfig, session: &TraceSession, result: &mut RunResult) {
    let path = cfg.out_dir.join(format!(
        "{}-seed{}.perfetto.json",
        cfg.workload.name, cfg.seed
    ));
    let json = session.to_chrome_json();
    let parsed = bugnet_trace::json::parse(&json);
    let written = fs::write(&path, &json);
    result.ops.check(parsed.is_ok() && written.is_ok(), || {
        format!(
            "timeline export to {} failed: {written:?} {:?}",
            path.display(),
            parsed.err()
        )
    });
    result.notes.push(format!("timeline: {}", path.display()));
    result.notes.push(format!(
        "{:<28} {:>6} {:>11} {:>11}",
        "span", "count", "total_ms", "self_ms"
    ));
    for row in self_times(session) {
        result.notes.push(format!(
            "{:<28} {:>6} {:>11.3} {:>11.3}",
            row.label,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The metric set a run reports: end-to-end untraced, per-layer traced.
pub fn reported_metrics(trace: bool) -> Vec<(&'static str, &'static str, &'static str)> {
    if trace {
        LAYER_METRICS.to_vec()
    } else {
        END_TO_END_METRICS.to_vec()
    }
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and each metric's median value and unit.
pub fn result_json(ops: &Ops, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.median, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]).unwrap(), [4.0; 3]);
        assert_eq!(quartiles(&[]), None);
    }
}
