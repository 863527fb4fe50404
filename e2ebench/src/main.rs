//! `e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and the median of every metric. Exits 0 only when
//! every operation succeeded and every output checked out; 1 when one did
//! not; 2 on a usage or host error, without a result line.

use std::path::PathBuf;
use std::process::ExitCode;

use bugnet_e2ebench::pipeline::{allowed_cpus, pin_thread};
use bugnet_e2ebench::workload::{WorkloadDef, WORKLOADS};
use bugnet_e2ebench::{reported_metrics, result_json, run, RunConfig};

/// Where dumps are staged and timelines written, relative to the working
/// directory.
const OUT_DIR: &str = ".e2ebench_out";

fn usage(problem: &str) -> ExitCode {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("e2ebench: {problem}");
    eprintln!(
        "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadDef::find(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(OUT_DIR),
    })
}

/// Processors the `nproc` utility reports, if it runs.
fn nproc() -> Option<usize> {
    let out = std::process::Command::new("nproc").output().ok()?;
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(problem) => return usage(&problem),
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nproc = nproc().unwrap_or(parallelism);
    let threads = cfg.workload.host_threads();
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!("host: nproc={nproc} available_parallelism={parallelism} threads_used={threads}");
    let offered = nproc.min(parallelism);
    if threads > offered {
        eprintln!("e2ebench: {threads} threads needed, the host offers {offered}");
        return ExitCode::from(2);
    }
    // With flush workers, the machine thread keeps the first allowed
    // processor and each pass pins its workers to the others
    // (`pipeline::run_pass`). A lone machine thread is left to the kernel.
    if cfg.workload.flush_workers > 0 {
        let cpus = allowed_cpus();
        let pinned = match cpus.first() {
            Some(&cpu) => pin_thread(&std::process::id().to_string(), cpu),
            None => Err("no allowed processors in /proc/self/status".to_string()),
        };
        if let Err(e) = pinned {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
        println!(
            "pinned: machine thread to cpu {}, flush workers to {:?}",
            cpus[0],
            &cpus[1..]
        );
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }

    let mut result = run(&cfg);
    let metrics = result.medians(&reported_metrics(cfg.trace));
    for note in &result.notes {
        println!("{note}");
    }
    for m in &metrics {
        println!(
            "{:<32} {:>14.4} {:<9} p25 {:.4} p75 {:.4} n={}",
            m.name, m.median, m.unit, m.p25, m.p75, m.samples
        );
    }
    let ops = &result.ops;
    println!(
        "failed_ops_frac {} ({} of {} operations failed)",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        ops.failed,
        ops.attempted
    );
    for problem in &ops.problems {
        println!("FAILED: {problem}");
    }
    println!("{}", result_json(ops, &metrics));
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
