//! The benchmark's workloads: which program each one records, on how many
//! simulated threads, and how the recording machine is configured.

use std::sync::Arc;

use bugnet_compress::CodecId;
use bugnet_sim::{MachineBuilder, RecordingOptions};
use bugnet_trace::TraceSession;
use bugnet_types::BugNetConfig;
use bugnet_workloads::{SpecProfile, Workload};

/// Committed instructions per checkpoint interval, on every workload.
pub const CHECKPOINT_INTERVAL: u64 = 100_000;

/// Load-value dictionary entries, on every workload.
pub const DICTIONARY_ENTRIES: usize = 64;

/// Back-end codec the log store seals with, on every workload.
pub const CODEC: CodecId = CodecId::Lz77;

/// Kernel operations per generated loop body, on every workload (the
/// profiles default to 40). The generator draws each operation at random
/// from the profile's weights, so a longer body keeps the mix of programs
/// generated from different seeds close to the profile's mean: across ten
/// seeds the quartile spread of `gzip`'s log bytes is 0.30 at 40 operations,
/// 0.09 at 400 and 0.04 at 1600.
pub const KERNEL_OPS: u32 = 1600;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The SPEC-like profile the programs are generated from.
    pub profile: fn() -> SpecProfile,
    /// Simulated threads, all on one shared working set.
    pub threads: usize,
    /// Background sealing threads (zero seals inline on the machine loop).
    pub flush_workers: usize,
    /// Instruction-count hint per thread handed to the program generator.
    pub instructions_per_thread: u64,
}

/// Every workload, in the order the docs list them. `BENCHMARK.json` lists
/// `gzip` and `gzip_shared` only: `mcf`'s time metrics spread across runs
/// by more than any bound allows on a shared host (see `README.md`).
pub const WORKLOADS: [WorkloadDef; 3] = [
    // Small working set, repeating values: time goes to cpu, memsys and the
    // recorder. Bypasses the MRL, the flush pipeline and most image encoding.
    WorkloadDef {
        name: "gzip",
        profile: SpecProfile::gzip,
        threads: 1,
        flush_workers: 0,
        instructions_per_thread: 3_000_000,
    },
    // A 2 MB pointer-chased working set: low dictionary hit rate, a large
    // FLL, a heavy inline seal, and a 2 MB image that dominates the commit.
    WorkloadDef {
        name: "mcf",
        profile: SpecProfile::mcf,
        threads: 1,
        flush_workers: 0,
        instructions_per_thread: 3_000_000,
    },
    // Two threads on one working set with one flush worker: coherence
    // traffic, a large MRL, and sealing off the machine thread.
    WorkloadDef {
        name: "gzip_shared",
        profile: SpecProfile::gzip,
        threads: 2,
        flush_workers: 1,
        instructions_per_thread: 1_500_000,
    },
];

impl WorkloadDef {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<WorkloadDef> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Host threads a run of this workload uses: the machine loop plus the
    /// flush workers.
    pub fn host_threads(&self) -> usize {
        1 + self.flush_workers
    }

    /// Generates the workload's programs: the profile with a
    /// [`KERNEL_OPS`]-long loop body and its generator seed XORed with the
    /// benchmark seed, so code and data change with the seed while the
    /// profile's shape stays.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut profile = (self.profile)();
        profile.seed ^= seed;
        profile.kernel_ops = KERNEL_OPS;
        let mut workload = profile.build_workload(self.instructions_per_thread, self.threads);
        workload.name = format!("e2ebench:{}:{seed}", self.name);
        workload
    }

    /// The recording machine: BugNet attached, sealing with [`CODEC`] on
    /// [`WorkloadDef::flush_workers`] background threads, dumps in the
    /// default (v5, images embedded) format. `trace` attaches a timeline
    /// session, which never changes the bytes of a dump.
    pub fn recording_builder(&self, trace: Option<Arc<TraceSession>>) -> MachineBuilder {
        MachineBuilder::new()
            .bugnet(bugnet_config())
            .recording(RecordingOptions {
                codec: CODEC,
                flush_workers: self.flush_workers,
                trace,
                ..RecordingOptions::default()
            })
    }
}

/// The recorder configuration shared by every workload.
pub fn bugnet_config() -> BugNetConfig {
    BugNetConfig::default()
        .with_checkpoint_interval(CHECKPOINT_INTERVAL)
        .with_dictionary_entries(DICTIONARY_ENTRIES)
}
