//! Golden-dump compatibility tests: small dumps in every supported format
//! (v1 to v5) are committed to the repository, and these tests prove the
//! current tree still loads, verifies and replays them. The writer emits
//! only v5, so v1–v4 bytes are frozen; format work (v6 and whatever comes
//! after) can never silently break loading of old dumps — the failure
//! shows up here, in CI, against bytes that predate the change.
//!
//! Every fixture holds the same recording: `GOLDEN_SPEC` with checkpoint
//! interval `GOLDEN_INTERVAL`.

use std::path::PathBuf;

use bugnet::core::dump::{
    verify_dump, CrashDump, DumpVerifyReport, DUMP_VERSION_V1, DUMP_VERSION_V2, DUMP_VERSION_V3,
    DUMP_VERSION_V4, DUMP_VERSION_V5,
};
use bugnet::types::{BugNetConfig, ThreadId};
use bugnet::workloads::registry;

/// Workload and recorder parameters the committed fixtures were written with.
const GOLDEN_SPEC: &str = "spec:gzip:8000:1";
const GOLDEN_INTERVAL: u64 = 2_000;

fn fixture_dir(version: u32) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/golden-v{version}"))
}

/// Verifies and loads the committed fixture of `version`, checking what
/// every fixture shares.
fn load_fixture(version: u32) -> (DumpVerifyReport, CrashDump) {
    let dir = fixture_dir(version);
    assert!(
        dir.join("manifest.bnd").exists(),
        "fixture missing at {}",
        dir.display()
    );
    let report = verify_dump(&dir).expect("golden dump verifies");
    assert!(
        report.checkpoints >= 4,
        "checkpoints = {}",
        report.checkpoints
    );
    assert_eq!(report.records, report.records_decoded);
    let dump = CrashDump::load(&dir).expect("golden dump loads");
    assert_eq!(dump.manifest.version, version);
    assert_eq!(dump.manifest.workload, GOLDEN_SPEC);
    (report, dump)
}

/// Replays a pre-v3 fixture, which embeds no images, through the registry
/// fallback: the digests recorded in the committed manifest must still
/// match a replay on today's tree.
fn replay_via_registry(dump: &CrashDump) {
    assert!(!dump.is_self_contained());
    let workload = registry::resolve(&dump.manifest.workload).expect("spec resolves");
    let programs: Vec<_> = workload.threads.iter().map(|t| t.program.clone()).collect();
    let replay = dump
        .replay(|t: ThreadId| programs.get(t.0 as usize).cloned())
        .expect("golden dump replays");
    assert!(replay.all_match(), "{:?}", replay.divergences());
}

/// Replays a self-contained fixture from its embedded image alone, no
/// workload registry needed.
fn replay_self_contained(dump: &CrashDump) {
    assert!(dump.is_self_contained());
    let replay = dump
        .replay(|_: ThreadId| None)
        .expect("golden dump replays");
    assert!(replay.all_match(), "{:?}", replay.divergences());
}

#[test]
fn committed_v1_dump_still_loads_verifies_and_replays() {
    let (report, dump) = load_fixture(DUMP_VERSION_V1);
    assert_eq!(report.images, 0, "v1 dumps embed no images");
    // v1 predates the codec layer: frames are stored raw.
    for t in &dump.manifest.threads {
        assert_eq!(t.fll_stored_bytes, t.fll_bytes);
        assert_eq!(t.mrl_stored_bytes, t.mrl_bytes);
    }
    replay_via_registry(&dump);
}

#[test]
fn committed_v2_dump_still_loads_verifies_and_replays() {
    let (report, dump) = load_fixture(DUMP_VERSION_V2);
    assert_eq!(report.images, 0, "v2 dumps embed no images");
    replay_via_registry(&dump);
}

#[test]
fn committed_v3_dump_still_loads_verifies_and_replays() {
    let (report, dump) = load_fixture(DUMP_VERSION_V3);
    assert!(report.images >= 1, "v3 dumps embed one image per thread");
    // v3 has no content addressing: per-thread image files, no hashes.
    for t in &dump.manifest.threads {
        assert_eq!(t.image_hash, None);
        assert_eq!(t.image_file(), format!("image-{}.bni", t.thread.0));
        assert!(fixture_dir(DUMP_VERSION_V3).join(t.image_file()).exists());
    }
    replay_self_contained(&dump);
}

#[test]
fn committed_v4_dump_still_loads_verifies_and_replays() {
    let (report, dump) = load_fixture(DUMP_VERSION_V4);
    assert!(report.images >= 1, "v4 dumps embed program images");
    replay_self_contained(&dump);
}

#[test]
fn committed_v5_dump_still_loads_verifies_and_replays() {
    let (report, dump) = load_fixture(DUMP_VERSION_V5);
    assert!(
        report.images >= 1,
        "v5 dumps embed content-addressed images"
    );
    // The columnar streams decode and the embedded image replays the
    // digests recorded in the committed manifest.
    replay_self_contained(&dump);
}

/// Writes the v5 fixture. v5 is the format the writer emits; regenerate
/// only on an *intentional* v5 change, alongside a version bump
/// discussion. The v1–v4 fixtures have no writer any more: their bytes are
/// frozen.
///
/// ```text
/// cargo test --test golden_dump -- --ignored regenerate_golden_fixture_v5
/// ```
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_golden_fixture_v5() {
    use bugnet::sim::MachineBuilder;
    let dir = fixture_dir(DUMP_VERSION_V5);
    let workload = registry::resolve(GOLDEN_SPEC).unwrap();
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(GOLDEN_INTERVAL))
        .workload_spec(GOLDEN_SPEC)
        .build_with_workload(&workload);
    machine.run_to_completion();
    let manifest = machine.write_crash_dump(&dir).unwrap();
    println!(
        "wrote golden v5 fixture to {}: {} checkpoint(s)",
        dir.display(),
        manifest.total_checkpoints()
    );
}
