//! End-to-end tests of the `bugnet` binary against the committed golden
//! dumps.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bugnet_core::dump::CrashDump;

fn fixture(version: u32) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/fixtures/golden-v{version}"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bugnet-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn bugnet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bugnet"))
        .args(args)
        .output()
        .expect("bugnet runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn replay_at_composes_with_metrics_json_trace_out_and_workload() {
    let dir = fixture(5);
    let dump = CrashDump::load(&dir).unwrap();
    let checkpoints = &dump.threads[0].checkpoints;
    let at = checkpoints[checkpoints.len() / 2].fll.header.checkpoint.0;
    let expected = checkpoints.len() - checkpoints.len() / 2;
    let out = temp_dir("replay-at");
    let metrics = out.join("metrics.json");
    let trace = out.join("trace.json");
    let at = at.to_string();
    let run = bugnet(&[
        "replay",
        dir.to_str().unwrap(),
        "--at",
        &at,
        "--metrics-json",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--workload",
        &dump.manifest.workload,
    ]);
    let stdout = text(&run.stdout);
    assert!(run.status.success(), "{stdout}{}", text(&run.stderr));
    assert!(
        stdout.contains(&format!("seeking to checkpoint {at}")),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!("{expected} interval(s)")),
        "{stdout}"
    );
    assert_eq!(stdout.matches("digest OK").count(), expected, "{stdout}");
    // The telemetry covers exactly the replayed tail.
    let json = fs::read_to_string(&metrics).unwrap();
    let snapshot = bugnet_telemetry::Snapshot::from_json(&json).unwrap();
    match snapshot.entries.get("replay_intervals_total") {
        Some(bugnet_telemetry::MetricValue::Counter(n)) => assert_eq!(*n, expected as u64),
        other => panic!("replay_intervals_total missing: {other:?}"),
    }
    assert!(fs::read_to_string(&trace).unwrap().contains("\"interval\""));
    fs::remove_dir_all(&out).unwrap();
}

#[test]
fn appended_frame_is_the_same_inconsistency_to_verify_and_fsck() {
    // A copy of frame 0 appended to a thread's FLL: every appended byte
    // checksums cleanly, so only the frame-count cross-check catches it —
    // and strict verify and salvage fsck must name the same cause.
    let dir = temp_dir("appended-frame");
    for entry in fs::read_dir(fixture(5)).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let fll = dir.join("thread-0.fll");
    let mut bytes = fs::read(&fll).unwrap();
    let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let frame = bytes[16..20 + len + 8].to_vec();
    bytes.extend_from_slice(&frame);
    fs::write(&fll, &bytes).unwrap();
    let declared = CrashDump::load_salvage(&dir).unwrap().dump.manifest.threads[0].checkpoints;
    let cause = format!(
        "thread-0.fll: inconsistent: file holds {} well-formed frame(s), manifest declares \
         {declared}",
        declared + 1
    );

    let verify = bugnet(&["verify", dir.to_str().unwrap()]);
    assert_eq!(verify.status.code(), Some(1));
    assert!(
        text(&verify.stderr).contains(&cause),
        "{}",
        text(&verify.stderr)
    );

    let fsck = bugnet(&["fsck", dir.to_str().unwrap()]);
    assert_eq!(fsck.status.code(), Some(1));
    assert!(
        text(&fsck.stdout).contains(&cause),
        "{}",
        text(&fsck.stdout)
    );
    fs::remove_dir_all(&dir).unwrap();
}
