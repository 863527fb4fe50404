//! Per-layer attribution: timings of calls into each module's public
//! functions, counts read from the recorded machine and dump, and totals
//! taken from a traced pass's timeline.

use std::hint::black_box;
use std::sync::Arc;

use bugnet_compress::{codec, decode_streams, encode_streams};
use bugnet_core::columnar::{split_fll, split_mrl};
use bugnet_core::SealedCheckpoint;
use bugnet_cpu::{Cpu, SparseMemoryPort};
use bugnet_isa::{encode_image, Program};
use bugnet_sim::MachineBuilder;
use bugnet_trace::{EventKind, ThreadTracer, TraceSession};

use crate::pipeline::{per_kinstr, timed, Ops, Pass};
use crate::workload::{WorkloadDef, CODEC};

/// One measurement of every per-layer metric it covers, by metric name.
pub type Sample = Vec<(&'static str, f64)>;

/// Name, unit and better direction of every per-layer metric, in report
/// order. `BENCHMARK.json` lists the same set.
pub const LAYER_METRICS: [(&str, &str, &str); 28] = [
    ("workloads.build_ms", "ms", "lower"),
    ("sim.build_ms", "ms", "lower"),
    ("sim.plain_ns_per_instr", "ns/instr", "lower"),
    ("cpu.ns_per_instr", "ns/instr", "lower"),
    ("memsys.ns_per_instr", "ns/instr", "lower"),
    ("memsys.l1_miss_rate", "ratio", "lower"),
    ("memsys.l2_miss_rate", "ratio", "lower"),
    ("memsys.invalidations_per_kinstr", "1/kinstr", "lower"),
    ("recorder.ns_per_instr", "ns/instr", "lower"),
    ("dictionary.hit_rate", "ratio", "higher"),
    ("fll.logged_load_frac", "ratio", "lower"),
    ("fll.raw_bytes_per_kinstr", "B/kinstr", "lower"),
    ("mrl.entries_per_kinstr", "1/kinstr", "lower"),
    ("mrl.raw_bytes_per_kinstr", "B/kinstr", "lower"),
    ("seal.ns_per_instr", "ns/instr", "lower"),
    ("seal.inline_share", "ratio", "lower"),
    ("columnar.split_mb_per_s", "MB/s", "higher"),
    ("compress.encode_mb_per_s", "MB/s", "higher"),
    ("compress.decode_mb_per_s", "MB/s", "higher"),
    ("compress.log_ratio", "ratio", "higher"),
    ("flush.worker_busy_frac", "ratio", "lower"),
    ("store.reconcile_ms", "ms", "lower"),
    ("dump.image_encode_ms", "ms", "lower"),
    ("io.commit_ms", "ms", "lower"),
    ("dump.load_ms", "ms", "lower"),
    ("replay.ns_per_instr", "ns/instr", "lower"),
    ("replay.log_load_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ns_per(secs: f64, instructions: u64) -> f64 {
    secs * 1e9 / instructions.max(1) as f64
}

fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-9)
}

/// Times each module's public entry points over the products of an
/// untraced `pass`, and reads the layer counts off its machine and dump.
/// With a tracer, each timed call also gets a `bench` span.
pub fn measure_modules(
    def: &WorkloadDef,
    pass: &Pass,
    mut tracer: Option<&mut ThreadTracer>,
    ops: &mut Ops,
) -> Sample {
    let workload = &pass.workload;
    let window = pass.window_instructions();

    // sim without recording: the Machine loop plus memsys.
    let mut plain = MachineBuilder::new().build_with_workload(workload);
    let (plain_outcome, plain_s) = timed(&mut tracer, "sim_plain", || plain.run_to_completion());
    ops.expect(plain_outcome.total_committed() == pass.committed, || {
        format!(
            "{}: plain run committed {}, recording run {}",
            def.name,
            plain_outcome.total_committed(),
            pass.committed
        )
    });
    let sim_plain = ns_per(plain_s, plain_outcome.total_committed());

    // cpu alone: the interpreter over flat memory, one thread at a time.
    let mut ports: Vec<(Cpu, SparseMemoryPort)> = workload
        .threads
        .iter()
        .map(|t| {
            let port = SparseMemoryPort::from_program(&t.program);
            (Cpu::new(Arc::clone(&t.program)), port)
        })
        .collect();
    let (cpu_instructions, cpu_s) = timed(&mut tracer, "cpu", || {
        ports
            .iter_mut()
            .map(|(cpu, port)| {
                cpu.run(port, u64::MAX);
                cpu.icount().0
            })
            .sum::<u64>()
    });
    let cpu = ns_per(cpu_s, cpu_instructions);

    let cache = pass.machine.cache_stats();
    let report = pass.machine.log_report();

    // seal, then its two halves: the columnar split and the codec.
    let logs: Vec<_> = pass
        .machine
        .dump_logs()
        .into_iter()
        .flat_map(|(_, logs)| logs)
        .collect();
    let row_bytes: u64 = logs
        .iter()
        .map(|l| l.fll.serialized_len() + l.mrl.serialized_len())
        .sum();
    let (streams, split_s) = timed(&mut tracer, "split", || {
        logs.iter()
            .flat_map(|l| {
                let fll = split_fll(&l.fll).expect("recorded FLL splits into streams");
                [fll, split_mrl(&l.mrl)]
            })
            .collect::<Vec<_>>()
    });
    let stream_bytes: u64 = streams
        .iter()
        .flatten()
        .map(|(_, bytes)| bytes.len() as u64)
        .sum();
    let (blobs, encode_s) = timed(&mut tracer, "encode", || {
        streams
            .iter()
            .map(|s| encode_streams(CODEC, s))
            .collect::<Vec<_>>()
    });
    let (decoded, decode_s) = timed(&mut tracer, "decode", || {
        blobs.iter().map(|b| decode_streams(b)).collect::<Vec<_>>()
    });
    let round_trips = decoded
        .iter()
        .zip(&streams)
        .all(|(d, s)| d.as_ref().is_ok_and(|d| d == s));
    ops.expect(round_trips, || {
        format!(
            "{}: encode_streams/decode_streams round trip failed",
            def.name
        )
    });
    let (_sealed, seal_s) = timed(&mut tracer, "seal", || {
        logs.into_iter()
            .map(|l| SealedCheckpoint::seal(l, CODEC))
            .collect::<Vec<_>>()
    });
    let seal = ns_per(seal_s, window);

    // Image encoding as a dump does it: once per unique image.
    let mut images: Vec<&Arc<Program>> = Vec::new();
    for t in &workload.threads {
        if !images.iter().any(|p| Arc::ptr_eq(p, &t.program)) {
            images.push(&t.program);
        }
    }
    let (_, image_s) = timed(&mut tracer, "image_encode", || {
        images
            .iter()
            .map(|p| black_box(codec(CODEC).compress(&encode_image(p))).len())
            .sum::<usize>()
    });

    let record = ns_per(pass.record_s, pass.committed);
    let inline_seal = if def.flush_workers == 0 { seal } else { 0.0 };
    let m = &pass.manifest;
    let replayed_from_log: u64 = pass.replay.intervals.iter().map(|i| i.loads_from_log).sum();
    let replayed_from_memory: u64 = pass
        .replay
        .intervals
        .iter()
        .map(|i| i.loads_from_memory)
        .sum();
    vec![
        ("workloads.build_ms", pass.generate_s * 1e3),
        ("sim.build_ms", pass.build_s * 1e3),
        ("sim.plain_ns_per_instr", sim_plain),
        ("cpu.ns_per_instr", cpu),
        ("memsys.ns_per_instr", sim_plain - cpu),
        (
            "memsys.l1_miss_rate",
            ratio(cache.l1_misses, cache.accesses()),
        ),
        (
            "memsys.l2_miss_rate",
            ratio(cache.l2_misses, cache.l2_hits + cache.l2_misses),
        ),
        (
            "memsys.invalidations_per_kinstr",
            per_kinstr(cache.invalidations, pass.committed),
        ),
        ("recorder.ns_per_instr", record - sim_plain - inline_seal),
        ("dictionary.hit_rate", report.dictionary_hit_rate()),
        ("fll.logged_load_frac", report.logged_load_fraction()),
        (
            "fll.raw_bytes_per_kinstr",
            per_kinstr(m.total_fll_size().bytes(), window),
        ),
        (
            "mrl.entries_per_kinstr",
            per_kinstr(report.mrl_entries, window),
        ),
        (
            "mrl.raw_bytes_per_kinstr",
            per_kinstr(m.total_mrl_size().bytes(), window),
        ),
        ("seal.ns_per_instr", seal),
        ("columnar.split_mb_per_s", mb_per_s(row_bytes, split_s)),
        ("compress.encode_mb_per_s", mb_per_s(stream_bytes, encode_s)),
        ("compress.decode_mb_per_s", mb_per_s(stream_bytes, decode_s)),
        (
            "compress.log_ratio",
            ratio(
                m.total_fll_size().bytes() + m.total_mrl_size().bytes(),
                pass.log_bytes(),
            ),
        ),
        ("dump.image_encode_ms", image_s * 1e3),
        ("dump.load_ms", pass.load_s * 1e3),
        (
            "replay.ns_per_instr",
            ns_per(pass.replay_s, pass.replay.instructions()),
        ),
        (
            "replay.log_load_frac",
            ratio(replayed_from_log, replayed_from_log + replayed_from_memory),
        ),
    ]
}

/// One span of a traced pass, flattened off its track.
#[derive(Debug, Clone, Copy)]
struct Span {
    track_kind: TrackKind,
    cat: &'static str,
    name: &'static str,
    start: u64,
    end: u64,
}

/// Which host thread a track's events were emitted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrackKind {
    /// The benchmark's main thread, which also runs the machine loop.
    Main,
    /// A flush worker (its own track and the store handles it seals for).
    Worker,
}

fn spans(session: &TraceSession) -> Vec<Span> {
    let mut out = Vec::new();
    for (_, track, events) in session.snapshot() {
        let track_kind = if track.starts_with("flush-worker-") || track.starts_with("store-t") {
            TrackKind::Worker
        } else {
            TrackKind::Main
        };
        for e in events {
            if let EventKind::Span { dur_ns } = e.kind {
                out.push(Span {
                    track_kind,
                    cat: e.cat,
                    name: e.name,
                    start: e.ts_ns,
                    end: e.ts_ns + dur_ns,
                });
            }
        }
    }
    out
}

fn total_ns(spans: &[Span], keep: impl Fn(&Span) -> bool) -> u64 {
    spans
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.end - s.start)
        .sum()
}

/// The per-layer metrics read off a traced pass's timeline.
pub fn trace_layers(def: &WorkloadDef, session: &TraceSession) -> Sample {
    let spans = spans(session);
    let record_ns = total_ns(&spans, |s| s.cat == "bench" && s.name == "record").max(1);
    let inline_seal_ns = total_ns(&spans, |s| {
        s.track_kind == TrackKind::Main && s.cat == "store" && s.name == "seal"
    });
    let worker_ns = total_ns(&spans, |s| s.cat == "flush" && s.name == "seal_job");
    let reconcile_ns = total_ns(&spans, |s| s.cat == "store" && s.name == "reconcile");
    let io_ns = total_ns(&spans, |s| s.cat == "io");
    let worker_capacity_ns = record_ns * def.flush_workers.max(1) as u64;
    vec![
        ("seal.inline_share", ratio(inline_seal_ns, record_ns)),
        (
            "flush.worker_busy_frac",
            ratio(worker_ns, worker_capacity_ns),
        ),
        ("store.reconcile_ms", reconcile_ns as f64 / 1e6),
        ("io.commit_ms", io_ns as f64 / 1e6),
    ]
}

/// One row of the self-time table: every span of one category and name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// `category/name`, prefixed with `worker:` for flush-worker spans.
    pub label: String,
    /// Spans folded into the row.
    pub count: u64,
    /// Summed span durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the time each span's nested spans cover on
    /// the same host thread, in nanoseconds.
    pub self_ns: u64,
}

/// Self time of every span category/name in `session`: a span's duration
/// minus the union of the spans it contains on the same host thread.
pub fn self_times(session: &TraceSession) -> Vec<SelfTime> {
    let mut spans = spans(session);
    // Parents sort before the spans they contain.
    spans.sort_by_key(|s| {
        (
            s.track_kind == TrackKind::Worker,
            s.start,
            std::cmp::Reverse(s.end),
        )
    });
    let mut rows: Vec<SelfTime> = Vec::new();
    for (i, parent) in spans.iter().enumerate() {
        let mut covered = 0;
        let mut reach = parent.start;
        for child in spans[i + 1..]
            .iter()
            .take_while(|c| c.track_kind == parent.track_kind && c.start < parent.end)
            .filter(|c| c.end <= parent.end)
        {
            covered += child.end.saturating_sub(child.start.max(reach));
            reach = reach.max(child.end);
        }
        let prefix = if parent.track_kind == TrackKind::Worker {
            "worker:"
        } else {
            ""
        };
        let label = format!("{prefix}{}/{}", parent.cat, parent.name);
        let duration = parent.end - parent.start;
        let row = match rows.iter_mut().find(|r| r.label == label) {
            Some(row) => row,
            None => {
                rows.push(SelfTime {
                    label,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                rows.last_mut().expect("row just pushed")
            }
        };
        row.count += 1;
        row.total_ns += duration;
        row.self_ns += duration - covered.min(duration);
    }
    rows
}
