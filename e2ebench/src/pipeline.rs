//! One end-to-end pass through the public API a user drives: generate the
//! workload, record it, commit the crash dump, load it back and replay it,
//! checking every output on the way.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bugnet_core::{CrashDump, DumpManifest, DumpReplayReport};
use bugnet_sim::Machine;
use bugnet_trace::{ThreadTracer, TraceSession};
use bugnet_workloads::Workload;

use crate::workload::WorkloadDef;

/// Operations attempted and failed over a run: record runs, commits, loads
/// and replayed intervals. Every failure is also described in `problems`.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or diverged.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Ops {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Counts a check on an operation already counted as attempted.
    pub fn expect(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

/// Everything one pass measured and produced.
#[derive(Debug)]
pub struct Pass {
    /// Seconds generating the workload's programs.
    pub generate_s: f64,
    /// Seconds in `MachineBuilder::build_with_workload`.
    pub build_s: f64,
    /// Seconds in `Machine::run_to_completion`, seal and store hand-off
    /// included.
    pub record_s: f64,
    /// Seconds in `Machine::write_crash_dump`.
    pub commit_s: f64,
    /// Seconds in `CrashDump::load`.
    pub load_s: f64,
    /// Seconds in `CrashDump::replay` up to the all-digests-match verdict.
    pub replay_s: f64,
    /// Instructions the machine committed.
    pub committed: u64,
    /// The workload that was recorded.
    pub workload: Workload,
    /// The machine after recording (its store holds the retained window).
    pub machine: Machine,
    /// The manifest the commit wrote.
    pub manifest: DumpManifest,
    /// The replay of the loaded dump.
    pub replay: DumpReplayReport,
    /// Every file of the committed dump, by name.
    pub files: BTreeMap<String, Vec<u8>>,
}

impl Pass {
    /// Set-up time: workload generation plus machine build.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s
    }

    /// Committed instructions in the dump's retained window.
    pub fn window_instructions(&self) -> u64 {
        self.manifest.threads.iter().map(|t| t.instructions).sum()
    }

    /// Stored FLL + MRL frame bytes in the dump.
    pub fn log_bytes(&self) -> u64 {
        self.manifest.total_fll_stored_size().bytes()
            + self.manifest.total_mrl_stored_size().bytes()
    }

    /// Bytes of every file of the committed dump directory.
    pub fn dump_bytes(&self) -> u64 {
        self.files.values().map(|f| f.len() as u64).sum()
    }

    /// Seconds from `CrashDump::load` to the replay verdict.
    pub fn reproduce_s(&self) -> f64 {
        self.load_s + self.replay_s
    }
}

/// Per-1000-instruction rate of `count` over `instructions`.
pub fn per_kinstr(count: u64, instructions: u64) -> f64 {
    count as f64 * 1000.0 / instructions.max(1) as f64
}

/// Runs `f`, returning its result and seconds taken. With a tracer, also
/// emits a `bench`-category span named `name` around it.
pub fn timed<T>(
    tracer: &mut Option<&mut ThreadTracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span_start = tracer.as_ref().map(|t| t.now());
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    if let (Some(t), Some(start)) = (tracer.as_deref_mut(), span_start) {
        t.span_since(name, "bench", start);
    }
    (out, secs)
}

/// Runs one pass of `def` on the programs of `seed` (see
/// [`WorkloadDef::generate`]), committing the dump to `dir` (removed
/// first, so the commit never pays for replacing an older dump). With a
/// session, the machine traces into it and the benchmark's own stage spans
/// go onto its `bench` track. Failed checks are counted in `ops`; `None`
/// means the pass could not continue.
pub fn run_pass(
    def: &WorkloadDef,
    seed: u64,
    dir: &Path,
    session: Option<&Arc<TraceSession>>,
    ops: &mut Ops,
) -> Option<Pass> {
    let mut bench_track = session.map(|s| s.thread("bench"));
    let mut tracer = bench_track.as_mut();

    let (workload, generate_s) = timed(&mut tracer, "setup", || def.generate(seed));
    let builder = def.recording_builder(session.cloned());
    let threads_before = thread_ids();
    let (mut machine, build_s) = timed(&mut tracer, "setup", || {
        builder.build_with_workload(&workload)
    });

    let pinned = threads_before.and_then(|before| pin_flush_workers(&before));
    ops.check(pinned.is_ok(), || format!("{}: {pinned:?}", def.name));

    let (outcome, record_s) = timed(&mut tracer, "record", || machine.run_to_completion());
    let halted = outcome.threads.iter().all(|t| t.halted);
    ops.check(halted, || {
        format!("{}: a thread did not halt: {outcome:?}", def.name)
    });

    if dir.exists() {
        fs::remove_dir_all(dir).expect("stale dump directory is removable");
    }
    let (written, commit_s) = timed(&mut tracer, "commit", || machine.write_crash_dump(dir));
    ops.check(written.is_ok(), || {
        format!("{}: commit failed: {written:?}", def.name)
    });
    let written = written.ok()?;

    let (loaded, load_s) = timed(&mut tracer, "load", || CrashDump::load(dir));
    ops.check(loaded.is_ok(), || {
        format!("{}: load failed: {loaded:?}", def.name)
    });
    let loaded = loaded.ok()?;
    ops.expect(loaded.manifest == written, || {
        format!("{}: loaded manifest differs from the written one", def.name)
    });

    let mut replay_track = session.map(|s| s.thread("replay"));
    let (replay, replay_s) = timed(&mut tracer, "replay", || {
        let report = match replay_track.as_mut() {
            Some(track) => loaded.replay_traced(|_| None, None, track),
            None => loaded.replay(|_| None),
        };
        let verdict = report.as_ref().is_ok_and(|r| r.all_match());
        (report, verdict)
    });
    let (replay, all_match) = replay;
    let replay = match replay {
        Ok(report) => report,
        Err(e) => {
            ops.check(false, || format!("{}: replay failed: {e}", def.name));
            return None;
        }
    };
    for interval in &replay.intervals {
        ops.check(interval.digest_match, || {
            format!(
                "{}: thread {} checkpoint {} diverged",
                def.name, interval.thread.0, interval.checkpoint.0
            )
        });
    }
    ops.expect(all_match, || {
        format!("{}: replay verdict is not all-match", def.name)
    });
    let checkpoints = written.total_checkpoints();
    ops.expect(replay.intervals.len() as u64 == checkpoints, || {
        format!(
            "{}: replayed {} intervals, manifest lists {checkpoints}",
            def.name,
            replay.intervals.len()
        )
    });
    // The deep pass behind `verify_dump`, over the dump already loaded.
    let verified = loaded.verify();
    ops.expect(verified.is_ok(), || {
        format!("{}: verify failed: {verified:?}", def.name)
    });

    let files = read_dir_files(dir);
    fs::remove_dir_all(dir).expect("dump directory is removable");
    Some(Pass {
        generate_s,
        build_s,
        record_s,
        commit_s,
        load_s,
        replay_s,
        committed: outcome.total_committed(),
        workload,
        machine,
        manifest: written,
        replay,
        files,
    })
}

/// Processors this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (e.g. `0-1` or `2,4-5`). Read on the first call,
/// before any pinning narrows the list, and kept.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let Some(list) = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        else {
            return Vec::new();
        };
        let mut cpus = Vec::new();
        for part in list.trim().split(',') {
            let mut ends = part.split('-').map(|n| n.trim().parse::<usize>());
            match (ends.next(), ends.next()) {
                (Some(Ok(a)), None) => cpus.push(a),
                (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
                _ => return Vec::new(),
            }
        }
        cpus
    })
}

/// Pins thread `tid` of this process to processor `cpu` with `taskset`.
pub fn pin_thread(tid: &str, cpu: usize) -> Result<(), String> {
    let out = Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), tid])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "taskset could not pin thread {tid} to cpu {cpu}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Ids of this process's threads.
fn thread_ids() -> Result<Vec<u64>, String> {
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("cannot list threads: {e}"))?;
    let mut tids: Vec<u64> = tasks
        .flatten()
        .filter_map(|task| task.file_name().to_string_lossy().parse().ok())
        .collect();
    tids.sort_unstable();
    Ok(tids)
}

/// Pins the threads started since `before` was listed — the flush workers
/// the machine build started — to the allowed processors after the first,
/// in turn; `main` pins the machine thread to the first. Each worker and
/// the machine thread then run on processors of their own. Left to itself,
/// the kernel often keeps a worker, which wakes for every sealed interval,
/// on the machine thread's processor, and the two then take turns for whole
/// runs at a time: record time swung by a third between runs depending on
/// where the worker happened to land. Workers are told apart by thread id,
/// not by name: a thread names itself only once it first runs.
fn pin_flush_workers(before: &[u64]) -> Result<(), String> {
    let cpus = allowed_cpus();
    let others = cpus
        .get(1..)
        .filter(|rest| !rest.is_empty())
        .unwrap_or(cpus);
    let workers = thread_ids()?
        .into_iter()
        .filter(|tid| !before.contains(tid));
    for (k, tid) in workers.enumerate() {
        let cpu = others
            .get(k % others.len().max(1))
            .ok_or("no allowed processors")?;
        if let Err(e) = pin_thread(&tid.to_string(), *cpu) {
            // A thread that ended meanwhile needs no pin. The workers live
            // as long as their machine, so such a thread belongs to someone
            // else, e.g. another test of the same binary.
            if thread_alive(tid) {
                return Err(e);
            }
        }
    }
    Ok(())
}

/// Whether thread `tid` of this process exists and has not exited.
fn thread_alive(tid: u64) -> bool {
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap_or_default();
    // The state letter follows the parenthesised command name.
    let state = stat
        .rsplit_once(") ")
        .and_then(|(_, rest)| rest.chars().next());
    matches!(state, Some(c) if c != 'Z' && c != 'X')
}

/// Every regular file directly inside `dir`, by name.
fn read_dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("committed dump directory is listable")
        .map(|entry| {
            let entry = entry.expect("dump directory entry is readable");
            let bytes = fs::read(entry.path()).expect("dump file is readable");
            (entry.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect()
}
