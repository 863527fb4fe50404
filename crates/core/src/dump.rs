//! The on-disk crash-dump directory format (paper §4.8).
//!
//! When the OS detects a fault it dumps the retained window of First-Load
//! Logs and Memory Race Logs to stable storage; the resulting directory is
//! the *portable artifact* a developer ships to the vendor and replays
//! offline. This module defines that format, its one writer, and its one
//! checksum-guarded reader.
//!
//! A dump directory contains:
//!
//! * `manifest.bnd` — magic (`BUGNETDP`), format version, the recorder
//!   configuration, the workload identity string, the fault that triggered
//!   the dump (if any), and a per-thread table (checkpoint counts, replay
//!   window, byte totals, per-interval execution digests). The whole file is
//!   covered by a trailing FNV-1a-style checksum ([`fnv1a`]).
//! * `thread-<id>.fll` / `thread-<id>.mrl` — one file pair per thread, each a
//!   small header (magic, version, thread id, frame count) followed by
//!   length-prefixed frames, one per retained checkpoint interval. Every
//!   frame carries a checksum over its stored bytes.
//! * `image-<hash>.bni` — the full program image of each thread (code as
//!   stable instruction words, data segments, entry PC, stack top, symbol
//!   table — the `bugnet_isa::encode` image wire format), stored as a single
//!   codec container behind the same file-header framing as the log files.
//!   Images are *content addressed*: the manifest records the hash of each
//!   thread's raw encoded image and the file is named by it, so threads
//!   running the same binary share one file. With the images embedded a
//!   dump is *self-contained*: [`CrashDump::replay`] prefers the embedded
//!   image and only needs the workload registry for threads without one.
//!
//! Every FLL/MRL frame payload is *columnar*: a multi-stream blob (see
//! [`crate::columnar`]) that splits the log into per-field streams —
//! L-Counts, value-type bits, dictionary ranks and full load values for the
//! FLL; per-entry fields for the MRL — delta/varint codes the monotone or
//! near-monotone ones, and runs every stream through the back-end codec in
//! its own self-describing container. The manifest records the
//! *row-serialized* raw sizes next to the stored sizes, so compression
//! ratios stay comparable across format versions.
//!
//! Writers emit only the current format, v5. Dumps in the older formats
//! still load — the committed golden fixtures pin every one of them:
//!
//! * v1 — raw row-serialized frames, each followed by its own checksum; no
//!   codec layer, no images.
//! * v2 — frames are codec containers (codec id, raw/encoded lengths,
//!   checksum of the raw payload); the manifest records the codec and the
//!   stored sizes.
//! * v3 — adds a checksum over the *stored* container bytes to every frame
//!   (LZ streams are redundant enough that a flipped encoded bit can
//!   decompress to identical raw bytes) and embeds per-thread images as
//!   `image-<tid>.bni`.
//! * v4 — content-addressed images, as in v5; frames are still row
//!   containers.
//!
//! Dumps are committed *atomically*: the writer encodes every file in
//! memory, stages them in a `<dir>.staging-<nonce>` sibling, fsyncs, and
//! renames into place (see [`crate::io`]). A dump directory therefore either
//! exists complete or not at all, no matter at which operation a crash,
//! disk-full or kill interrupts the write.
//!
//! Loading validates everything it reads — magics, versions, bounds, frame
//! checksums, manifest/file cross-consistency, FLL/MRL pairing, image
//! decodability — and never panics on bad input or silently accepts a
//! flipped bit. There is one parser: [`CrashDump::load_salvage`] recovers
//! every checksum-intact prefix of frames and reports exactly what was lost
//! ([`SalvageReport`]); [`CrashDump::load`] runs the same parse and returns
//! the report's first typed [`DumpError`], or the dump when nothing was
//! lost.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use bugnet_compress::{
    container_info, decode_container, encode_container, streams_info, CodecId, ColumnarError,
    ColumnarStreamInfo, FrameError,
};
use bugnet_isa::{decode_image, encode_image, Program};
use bugnet_types::{Addr, BugNetConfig, ByteSize, CheckpointId, InstrCount, ThreadId, Timestamp};

use crate::columnar::{decode_fll_columnar, decode_mrl_columnar, ColumnarCodecError};
use crate::digest::{fnv1a, ExecutionDigest};
use crate::fll::FirstLoadLog;
use crate::io::{commit_atomic, DumpIo, IoFailure, IoOp, StdIo};
use crate::mrl::MemoryRaceLog;
use crate::recorder::LogStore;
use crate::replayer::{ReplayError, Replayer};

/// Magic bytes opening the manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"BUGNETDP";
/// Magic bytes opening a per-thread FLL file.
pub const FLL_FILE_MAGIC: [u8; 4] = *b"BNFL";
/// Magic bytes opening a per-thread MRL file.
pub const MRL_FILE_MAGIC: [u8; 4] = *b"BNMR";
/// Magic bytes opening a per-thread program-image file.
pub const IMAGE_FILE_MAGIC: [u8; 4] = *b"BNIM";
/// Crash-dump format version the writer emits: columnar FLL/MRL frames and
/// content-addressed embedded images.
pub const DUMP_VERSION: u32 = 5;
/// The v5 format: columnar, delta-encoded FLL/MRL frames (the current
/// format, [`DUMP_VERSION`]).
pub const DUMP_VERSION_V5: u32 = 5;
/// The v4 format: like v3, but embedded program images are content-addressed
/// (`image-<hash>.bni`) and shared between threads running the same binary.
/// Read-only.
pub const DUMP_VERSION_V4: u32 = 4;
/// The v3 format: each thread's full program image is embedded as a
/// codec-compressed, checksummed per-thread `image-<tid>.bni` section, and
/// every frame carries a stored-bytes checksum. Read-only.
pub const DUMP_VERSION_V3: u32 = 3;
/// The v2 format: frames pass through a back-end codec (self-describing
/// containers) and the manifest records the codec and the raw vs stored
/// sizes, but program images are not embedded. Read-only.
pub const DUMP_VERSION_V2: u32 = 2;
/// The original format version: raw frames, each with its own trailing
/// checksum. Read-only.
pub const DUMP_VERSION_V1: u32 = 1;
/// File name of the manifest inside a dump directory.
pub const MANIFEST_FILE: &str = "manifest.bnd";

/// Upper bound on string fields in the manifest (workload id, fault text).
const MAX_STRING_BYTES: u32 = 4096;
/// Upper bound on the number of threads a manifest may declare.
const MAX_THREADS: u32 = 4096;
/// Upper bound on checkpoints per thread a manifest may declare.
const MAX_CHECKPOINTS: u32 = 1 << 20;

/// Error produced when writing or reading a crash dump.
#[derive(Debug)]
pub enum DumpError {
    /// An underlying filesystem operation failed.
    Io {
        /// The filesystem operation that failed.
        op: IoOp,
        /// Path the operation targeted.
        path: String,
        /// The I/O error.
        source: io::Error,
    },
    /// A file did not start with the expected magic bytes.
    BadMagic {
        /// Offending file (relative to the dump directory).
        file: String,
    },
    /// The file declares a format version this reader does not understand.
    UnsupportedVersion {
        /// Offending file.
        file: String,
        /// Declared version.
        version: u32,
    },
    /// A file ended before its declared content did.
    Truncated {
        /// Offending file.
        file: String,
    },
    /// A file contains bytes after its declared content.
    TrailingBytes {
        /// Offending file.
        file: String,
    },
    /// A checksum over a manifest body or log frame did not match.
    ChecksumMismatch {
        /// Offending file.
        file: String,
        /// Frame index within the file, `None` for the manifest body.
        frame: Option<u32>,
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum recomputed over the bytes read.
        actual: u64,
    },
    /// A frame passed its checksum but its payload failed to decode, or a
    /// declared field is outside its sanity bound.
    CorruptLog {
        /// Offending file.
        file: String,
        /// Frame index within the file.
        frame: u32,
        /// What failed to decode.
        detail: String,
    },
    /// A manifest field passed the file checksum but declares something
    /// structurally invalid (unknown codec, bad tag byte, out-of-bounds
    /// count). Distinct from [`DumpError::CorruptLog`] so manifest problems
    /// are never reported with frame-level context they don't have.
    CorruptManifest {
        /// The invalid declaration.
        detail: String,
    },
    /// Two structurally valid parts of the dump contradict each other
    /// (manifest vs. log file, or FLL vs. MRL pairing).
    Inconsistent {
        /// Offending file.
        file: String,
        /// The contradiction.
        detail: String,
    },
    /// A dump was requested from a machine with no recorder attached.
    NoRecorder,
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::Io { op, path, source } => {
                write!(f, "i/o error ({op}) on {path}: {source}")
            }
            DumpError::BadMagic { file } => write!(f, "{file}: bad magic bytes"),
            DumpError::UnsupportedVersion { file, version } => {
                write!(f, "{file}: unsupported dump format version {version}")
            }
            DumpError::Truncated { file } => write!(f, "{file}: truncated"),
            DumpError::TrailingBytes { file } => {
                write!(f, "{file}: trailing bytes after declared content")
            }
            DumpError::ChecksumMismatch {
                file,
                frame,
                expected,
                actual,
            } => match frame {
                Some(i) => write!(
                    f,
                    "{file}: frame {i} checksum mismatch (stored {expected:#018x}, computed {actual:#018x})"
                ),
                None => write!(
                    f,
                    "{file}: manifest checksum mismatch (stored {expected:#018x}, computed {actual:#018x})"
                ),
            },
            DumpError::CorruptLog {
                file,
                frame,
                detail,
            } => write!(f, "{file}: frame {frame} is corrupt: {detail}"),
            DumpError::CorruptManifest { detail } => {
                write!(f, "{MANIFEST_FILE}: corrupt manifest: {detail}")
            }
            DumpError::Inconsistent { file, detail } => write!(f, "{file}: inconsistent: {detail}"),
            DumpError::NoRecorder => f.write_str("machine has no BugNet recorder attached"),
        }
    }
}

impl Error for DumpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DumpError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> DumpError {
    DumpError::Io {
        op: IoOp::Read,
        path: path.display().to_string(),
        source,
    }
}

impl From<IoFailure> for DumpError {
    fn from(f: IoFailure) -> Self {
        DumpError::Io {
            op: f.op,
            path: f.path.display().to_string(),
            source: f.source,
        }
    }
}

/// Compact copy of an interval's [`ExecutionDigest`], stored in the manifest
/// so an offline replay can check it reproduced the recorded execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestSummary {
    /// Order-sensitive FNV hash over loads, stores and the final state.
    pub hash: u64,
    /// Committed loads in the interval.
    pub loads: u64,
    /// Committed stores in the interval.
    pub stores: u64,
    /// Committed instructions in the interval.
    pub instructions: u64,
}

impl From<&ExecutionDigest> for DigestSummary {
    fn from(d: &ExecutionDigest) -> Self {
        DigestSummary {
            hash: d.value(),
            loads: d.loads(),
            stores: d.stores(),
            instructions: d.instructions(),
        }
    }
}

impl DigestSummary {
    /// Whether a replayed digest matches this recorded summary exactly.
    pub fn matches(&self, d: &ExecutionDigest) -> bool {
        self == &DigestSummary::from(d)
    }
}

/// The fault that triggered a dump, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpFault {
    /// Thread that faulted.
    pub thread: ThreadId,
    /// Program counter of the faulting instruction.
    pub pc: Addr,
    /// Committed instructions of the faulting thread at the fault.
    pub icount: InstrCount,
    /// Human-readable fault description (e.g. "integer divide by zero").
    pub description: String,
}

/// Per-thread entry of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadManifest {
    /// The thread.
    pub thread: ThreadId,
    /// Number of retained checkpoint intervals (= frames in each log file).
    pub checkpoints: u32,
    /// Replay window: committed instructions across the retained intervals.
    pub instructions: u64,
    /// Total serialized (uncompressed) FLL payload bytes.
    pub fll_bytes: u64,
    /// Total serialized (uncompressed) MRL payload bytes.
    pub mrl_bytes: u64,
    /// Total stored FLL frame bytes in `thread-<id>.fll` (container headers
    /// plus encoded bytes). Equal to `fll_bytes` in v1 dumps.
    pub fll_stored_bytes: u64,
    /// Total stored MRL frame bytes in `thread-<id>.mrl`.
    pub mrl_stored_bytes: u64,
    /// Whether this thread's program image is embedded (format v3; always
    /// `false` in v1/v2 dumps).
    pub has_image: bool,
    /// Serialized (uncompressed) program-image bytes, zero when no image is
    /// embedded.
    pub image_raw_bytes: u64,
    /// Stored program-image bytes in the image file (container header plus
    /// encoded bytes), zero when no image is embedded.
    pub image_stored_bytes: u64,
    /// FNV-1a hash of the raw encoded program image (format v4, where the
    /// image file is content-addressed by this hash; `None` in v1–v3
    /// dumps, whose image files are named per thread).
    pub image_hash: Option<u64>,
    /// Recorded execution digest of each interval, oldest first.
    pub digests: Vec<DigestSummary>,
}

impl ThreadManifest {
    /// File name of this thread's FLL file inside the dump directory.
    pub fn fll_file(&self) -> String {
        format!("thread-{}.fll", self.thread.0)
    }

    /// File name of this thread's MRL file inside the dump directory.
    pub fn mrl_file(&self) -> String {
        format!("thread-{}.mrl", self.thread.0)
    }

    /// File name of this thread's program-image file inside the dump
    /// directory (present only when [`ThreadManifest::has_image`]):
    /// content-addressed `image-<hash>.bni` in v4 dumps, per-thread
    /// `image-<tid>.bni` in v3.
    pub fn image_file(&self) -> String {
        match self.image_hash {
            Some(hash) => format!("image-{hash:016x}.bni"),
            None => format!("image-{}.bni", self.thread.0),
        }
    }
}

/// Metadata the dumping site provides when writing a dump.
#[derive(Debug, Clone)]
pub struct DumpMeta {
    /// Workload identity string (see `bugnet_workloads::registry`), so an
    /// offline replayer can rebuild the recorded program image.
    pub workload: String,
    /// Recorder configuration in effect when the logs were captured.
    pub config: BugNetConfig,
    /// Machine clock when the dump was taken.
    pub created: Timestamp,
    /// The fault that triggered the dump, if any.
    pub fault: Option<DumpFault>,
    /// Checkpoints the log store discarded before the dump to stay within
    /// its capacity (context for "how much history is missing").
    pub evicted_checkpoints: u64,
    /// Telemetry snapshot taken at dump time, embedded in the manifest so
    /// the run's metrics survive alongside the logs. `None` keeps the
    /// manifest byte-identical to pre-telemetry dumps.
    pub telemetry: Option<bugnet_telemetry::Snapshot>,
}

/// The decoded manifest of a crash-dump directory.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpManifest {
    /// Format version of the dump.
    pub version: u32,
    /// Back-end codec the log frames were stored with ([`CodecId::Identity`]
    /// for v1 dumps, which predate the codec layer).
    pub codec: CodecId,
    /// Machine clock when the dump was taken.
    pub created: Timestamp,
    /// Workload identity string.
    pub workload: String,
    /// Recorder configuration in effect when the logs were captured.
    pub config: BugNetConfig,
    /// The fault that triggered the dump, if any.
    pub fault: Option<DumpFault>,
    /// Checkpoints discarded before the dump due to capacity.
    pub evicted_checkpoints: u64,
    /// Per-thread log tables, in thread-id order.
    pub threads: Vec<ThreadManifest>,
    /// Telemetry snapshot embedded at dump time, if the recording ran with
    /// a metrics registry attached. Stored as an optional trailing section
    /// so its absence leaves the manifest bytes unchanged from older dumps.
    pub telemetry: Option<bugnet_telemetry::Snapshot>,
}

impl DumpManifest {
    /// Total retained checkpoints across all threads.
    pub fn total_checkpoints(&self) -> u64 {
        self.threads.iter().map(|t| u64::from(t.checkpoints)).sum()
    }

    /// Total serialized FLL bytes across all threads.
    pub fn total_fll_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.threads.iter().map(|t| t.fll_bytes).sum())
    }

    /// Total serialized MRL bytes across all threads.
    pub fn total_mrl_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.threads.iter().map(|t| t.mrl_bytes).sum())
    }

    /// Total stored (post-codec) FLL frame bytes across all threads.
    pub fn total_fll_stored_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.threads.iter().map(|t| t.fll_stored_bytes).sum())
    }

    /// Total stored (post-codec) MRL frame bytes across all threads.
    pub fn total_mrl_stored_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.threads.iter().map(|t| t.mrl_stored_bytes).sum())
    }

    /// Threads whose program image is embedded in the dump.
    pub fn embedded_images(&self) -> usize {
        self.threads.iter().filter(|t| t.has_image).count()
    }

    /// Whether every thread in the dump carries its program image, i.e. the
    /// dump replays without any out-of-band workload registry.
    pub fn is_self_contained(&self) -> bool {
        self.threads.iter().all(|t| t.has_image)
    }

    /// The manifest entries owning each *unique* image file, one per file
    /// name. In v4 dumps threads running the same binary share one
    /// content-addressed file; in v1–v3 every image-carrying thread owns
    /// its own file, so this is simply those threads.
    fn unique_image_owners(&self) -> Vec<&ThreadManifest> {
        let mut seen: Vec<String> = Vec::new();
        let mut owners = Vec::new();
        for t in self.threads.iter().filter(|t| t.has_image) {
            let file = t.image_file();
            if !seen.contains(&file) {
                seen.push(file);
                owners.push(t);
            }
        }
        owners
    }

    /// Number of unique image *files* in the dump (≤ [`embedded_images`],
    /// which counts image-carrying threads; smaller exactly when v4
    /// content addressing deduplicated identical images).
    ///
    /// [`embedded_images`]: DumpManifest::embedded_images
    pub fn unique_images(&self) -> usize {
        self.unique_image_owners().len()
    }

    /// Total serialized (uncompressed) program-image bytes across the
    /// unique image files (what the images cost on disk before the codec,
    /// counting each deduplicated v4 image once).
    pub fn total_image_size(&self) -> ByteSize {
        ByteSize::from_bytes(
            self.unique_image_owners()
                .iter()
                .map(|t| t.image_raw_bytes)
                .sum(),
        )
    }

    /// Total stored (post-codec) program-image bytes across the unique
    /// image files.
    pub fn total_image_stored_size(&self) -> ByteSize {
        ByteSize::from_bytes(
            self.unique_image_owners()
                .iter()
                .map(|t| t.image_stored_bytes)
                .sum(),
        )
    }

    /// Back-end compression ratio over the embedded images (raw / stored;
    /// 1.0 when no images are embedded).
    pub fn image_ratio(&self) -> f64 {
        let stored = self.total_image_stored_size().bytes();
        if stored == 0 {
            1.0
        } else {
            self.total_image_size().bytes() as f64 / stored as f64
        }
    }

    /// Back-end compression ratio over all frames (raw / stored; 1.0 when
    /// the dump is empty).
    pub fn backend_ratio(&self) -> f64 {
        let raw = (self.total_fll_size() + self.total_mrl_size()).bytes();
        let stored = (self.total_fll_stored_size() + self.total_mrl_stored_size()).bytes();
        if stored == 0 {
            1.0
        } else {
            raw as f64 / stored as f64
        }
    }

    /// Loads and validates the manifest of a dump directory.
    ///
    /// # Errors
    ///
    /// Returns a [`DumpError`] if the file is missing, corrupt, truncated or
    /// declares out-of-bounds structure.
    pub fn load(dir: &Path) -> Result<Self, DumpError> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        Self::decode(&bytes)
    }

    fn decode(bytes: &[u8]) -> Result<Self, DumpError> {
        let file = MANIFEST_FILE.to_string();
        let truncated = || DumpError::Truncated {
            file: MANIFEST_FILE.to_string(),
        };
        // The trailing 8 bytes are the checksum over everything before them.
        if bytes.len() < MANIFEST_MAGIC.len() + 8 {
            return Err(truncated());
        }
        let (body, stored) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
        let actual = fnv1a(body);
        if expected != actual {
            return Err(DumpError::ChecksumMismatch {
                file,
                frame: None,
                expected,
                actual,
            });
        }
        let mut r = ByteReader::new(body);
        if r.take(MANIFEST_MAGIC.len()).ok_or_else(truncated)? != MANIFEST_MAGIC {
            return Err(DumpError::BadMagic {
                file: MANIFEST_FILE.to_string(),
            });
        }
        let version = r.u32().ok_or_else(truncated)?;
        if !(DUMP_VERSION_V1..=DUMP_VERSION).contains(&version) {
            return Err(DumpError::UnsupportedVersion {
                file: MANIFEST_FILE.to_string(),
                version,
            });
        }
        // v1 predates the codec layer: frames are stored raw.
        let codec = if version >= 2 {
            let byte = r.u8().ok_or_else(truncated)?;
            CodecId::from_u8(byte).ok_or_else(|| DumpError::CorruptManifest {
                detail: format!("unknown codec id {byte}"),
            })?
        } else {
            CodecId::Identity
        };
        let created = Timestamp(r.u64().ok_or_else(truncated)?);
        let config = decode_config(&mut r).ok_or_else(truncated)?;
        let workload = r.string(MAX_STRING_BYTES).map_err(|e| e.into_error())?;
        let fault = match r.u8().ok_or_else(truncated)? {
            0 => None,
            1 => Some(DumpFault {
                thread: ThreadId(r.u32().ok_or_else(truncated)?),
                pc: Addr::new(r.u64().ok_or_else(truncated)?),
                icount: InstrCount(r.u64().ok_or_else(truncated)?),
                description: r.string(MAX_STRING_BYTES).map_err(|e| e.into_error())?,
            }),
            tag => {
                return Err(DumpError::CorruptManifest {
                    detail: format!("invalid fault-presence tag {tag}"),
                })
            }
        };
        let evicted_checkpoints = r.u64().ok_or_else(truncated)?;
        let thread_count = r.u32().ok_or_else(truncated)?;
        if thread_count > MAX_THREADS {
            return Err(DumpError::CorruptManifest {
                detail: format!("declared thread count {thread_count} exceeds {MAX_THREADS}"),
            });
        }
        let mut threads = Vec::with_capacity(thread_count as usize);
        let mut previous: Option<ThreadId> = None;
        for _ in 0..thread_count {
            let thread = ThreadId(r.u32().ok_or_else(truncated)?);
            if previous.is_some_and(|p| p >= thread) {
                return Err(DumpError::Inconsistent {
                    file: MANIFEST_FILE.to_string(),
                    detail: format!("thread table not strictly ordered at {thread}"),
                });
            }
            previous = Some(thread);
            let checkpoints = r.u32().ok_or_else(truncated)?;
            if checkpoints > MAX_CHECKPOINTS {
                return Err(DumpError::CorruptManifest {
                    detail: format!("thread {thread} declares {checkpoints} checkpoints"),
                });
            }
            let instructions = r.u64().ok_or_else(truncated)?;
            let fll_bytes = r.u64().ok_or_else(truncated)?;
            let mrl_bytes = r.u64().ok_or_else(truncated)?;
            let (fll_stored_bytes, mrl_stored_bytes) = if version >= 2 {
                (
                    r.u64().ok_or_else(truncated)?,
                    r.u64().ok_or_else(truncated)?,
                )
            } else {
                (fll_bytes, mrl_bytes)
            };
            let (has_image, image_raw_bytes, image_stored_bytes, image_hash) = if version >= 3 {
                match r.u8().ok_or_else(truncated)? {
                    0 => (false, 0, 0, None),
                    1 => {
                        // v4 content addressing: the image's FNV-1a hash
                        // precedes the size fields.
                        let hash = if version >= 4 {
                            Some(r.u64().ok_or_else(truncated)?)
                        } else {
                            None
                        };
                        (
                            true,
                            r.u64().ok_or_else(truncated)?,
                            r.u64().ok_or_else(truncated)?,
                            hash,
                        )
                    }
                    tag => {
                        return Err(DumpError::CorruptManifest {
                            detail: format!("thread {thread} has invalid image-presence tag {tag}"),
                        })
                    }
                }
            } else {
                (false, 0, 0, None)
            };
            let mut digests = Vec::with_capacity(checkpoints as usize);
            for _ in 0..checkpoints {
                digests.push(DigestSummary {
                    hash: r.u64().ok_or_else(truncated)?,
                    loads: r.u64().ok_or_else(truncated)?,
                    stores: r.u64().ok_or_else(truncated)?,
                    instructions: r.u64().ok_or_else(truncated)?,
                });
            }
            threads.push(ThreadManifest {
                thread,
                checkpoints,
                instructions,
                fll_bytes,
                mrl_bytes,
                fll_stored_bytes,
                mrl_stored_bytes,
                has_image,
                image_raw_bytes,
                image_stored_bytes,
                image_hash,
                digests,
            });
        }
        // Optional trailing telemetry section (any version): a presence tag,
        // a u32 length, and a `bugnet_telemetry` snapshot blob. Dumps
        // written without a registry attached end right after the thread
        // table, which keeps them byte-identical to pre-telemetry dumps.
        let telemetry = if r.is_exhausted() {
            None
        } else {
            match r.u8().ok_or_else(truncated)? {
                1 => {
                    let len = r.u32().ok_or_else(truncated)? as usize;
                    let blob = r.take(len).ok_or_else(truncated)?;
                    let snapshot = bugnet_telemetry::Snapshot::from_bytes(blob).map_err(|e| {
                        DumpError::CorruptManifest {
                            detail: format!("embedded telemetry snapshot: {e}"),
                        }
                    })?;
                    Some(snapshot)
                }
                tag => {
                    return Err(DumpError::CorruptManifest {
                        detail: format!("invalid telemetry-presence tag {tag}"),
                    })
                }
            }
        };
        if !r.is_exhausted() {
            return Err(DumpError::TrailingBytes {
                file: MANIFEST_FILE.to_string(),
            });
        }
        Ok(DumpManifest {
            version,
            codec,
            created,
            workload,
            config,
            fault,
            evicted_checkpoints,
            threads,
            telemetry,
        })
    }

    /// Encodes the manifest in the current format (the writer only ever
    /// emits [`DUMP_VERSION`]; older layouts are read-only).
    fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(self.version, DUMP_VERSION);
        let mut w = Vec::with_capacity(256 + self.threads.len() * 64);
        w.extend_from_slice(&MANIFEST_MAGIC);
        put_u32(&mut w, self.version);
        w.push(self.codec.as_u8());
        put_u64(&mut w, self.created.0);
        encode_config(&mut w, &self.config);
        put_string(&mut w, &self.workload);
        match &self.fault {
            None => w.push(0),
            Some(fault) => {
                w.push(1);
                put_u32(&mut w, fault.thread.0);
                put_u64(&mut w, fault.pc.raw());
                put_u64(&mut w, fault.icount.0);
                put_string(&mut w, &fault.description);
            }
        }
        put_u64(&mut w, self.evicted_checkpoints);
        put_u32(&mut w, self.threads.len() as u32);
        for t in &self.threads {
            put_u32(&mut w, t.thread.0);
            put_u32(&mut w, t.checkpoints);
            put_u64(&mut w, t.instructions);
            put_u64(&mut w, t.fll_bytes);
            put_u64(&mut w, t.mrl_bytes);
            put_u64(&mut w, t.fll_stored_bytes);
            put_u64(&mut w, t.mrl_stored_bytes);
            if t.has_image {
                w.push(1);
                put_u64(&mut w, t.image_hash.unwrap_or(0));
                put_u64(&mut w, t.image_raw_bytes);
                put_u64(&mut w, t.image_stored_bytes);
            } else {
                w.push(0);
            }
            for d in &t.digests {
                put_u64(&mut w, d.hash);
                put_u64(&mut w, d.loads);
                put_u64(&mut w, d.stores);
                put_u64(&mut w, d.instructions);
            }
        }
        if let Some(snapshot) = &self.telemetry {
            let blob = snapshot.to_bytes();
            w.push(1);
            put_u32(&mut w, blob.len() as u32);
            w.extend_from_slice(&blob);
        }
        let checksum = fnv1a(&w);
        put_u64(&mut w, checksum);
        w
    }
}

fn encode_config(w: &mut Vec<u8>, cfg: &BugNetConfig) {
    put_u64(w, cfg.checkpoint_interval);
    put_u64(w, cfg.dictionary_entries as u64);
    put_u32(w, cfg.dictionary_counter_bits);
    put_u32(w, cfg.reduced_lcount_bits);
    put_u32(w, cfg.checkpoint_id_bits);
    put_u32(w, cfg.thread_id_bits);
    put_u64(w, cfg.checkpoint_buffer.bytes());
    put_u64(w, cfg.memory_race_buffer.bytes());
    put_u64(w, cfg.fll_region.bytes());
    put_u64(w, cfg.mrl_region.bytes());
    put_u64(w, cfg.target_replay_window);
    w.push(u8::from(cfg.netzer_reduction));
}

fn decode_config(r: &mut ByteReader<'_>) -> Option<BugNetConfig> {
    Some(BugNetConfig {
        checkpoint_interval: r.u64()?,
        dictionary_entries: r.u64()? as usize,
        dictionary_counter_bits: r.u32()?,
        reduced_lcount_bits: r.u32()?,
        checkpoint_id_bits: r.u32()?,
        thread_id_bits: r.u32()?,
        checkpoint_buffer: ByteSize::from_bytes(r.u64()?),
        memory_race_buffer: ByteSize::from_bytes(r.u64()?),
        fll_region: ByteSize::from_bytes(r.u64()?),
        mrl_region: ByteSize::from_bytes(r.u64()?),
        target_replay_window: r.u64()?,
        netzer_reduction: r.u8()? != 0,
    })
}

/// One retained checkpoint interval loaded back from a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpedCheckpoint {
    /// The interval's First-Load Log.
    pub fll: FirstLoadLog,
    /// The interval's Memory Race Log.
    pub mrl: MemoryRaceLog,
    /// The execution digest recorded for the interval.
    pub digest: DigestSummary,
    /// Per-stream headers (split and stored sizes) of the FLL frame, as read
    /// from disk; empty for pre-v5 dumps, whose frames are not columnar.
    pub fll_streams: Vec<ColumnarStreamInfo>,
    /// Per-stream headers of the MRL frame; empty for pre-v5 dumps.
    pub mrl_streams: Vec<ColumnarStreamInfo>,
}

/// All retained intervals of one thread loaded back from a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadDump {
    /// The thread.
    pub thread: ThreadId,
    /// The thread's embedded program image, decoded and validated (format
    /// v3 dumps with image embedding on; `None` otherwise).
    pub image: Option<Arc<Program>>,
    /// Retained intervals, oldest first.
    pub checkpoints: Vec<DumpedCheckpoint>,
}

/// A fully loaded and validated crash-dump directory.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashDump {
    /// The decoded manifest.
    pub manifest: DumpManifest,
    /// Per-thread logs, in thread-id order.
    pub threads: Vec<ThreadDump>,
}

/// Writes the retained window of `store` to `dir` as a crash-dump directory
/// in the current (v5, columnar) format: the sealed columnar frames the
/// store already holds are written out verbatim, so serial and parallel
/// flushing produce byte-identical dumps and dump time pays no compression
/// cost. `image_of`
/// supplies each thread's program image; threads for which it returns a
/// program get a codec-compressed, checksummed, content-addressed
/// `image-<hash>.bni` section (threads running the same binary share one
/// file), making the dump self-contained for offline replay. Return `None`
/// to dump a thread without its image (the `embed_image` knob off).
///
/// The dump is committed atomically via staging + rename (see
/// [`commit_atomic`]): `dir` either appears complete or not at all, and an
/// existing dump at `dir` is replaced. Returns the manifest that was
/// written.
///
/// # Errors
///
/// Returns [`DumpError::Io`] (with operation context) if the commit fails,
/// or [`DumpError::Inconsistent`] if the store holds frames sealed with a
/// codec other than its own (mixed-codec stores are not representable on
/// disk) or a program image does not round-trip.
pub fn write_dump(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
    image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
) -> Result<DumpManifest, DumpError> {
    write_dump_with_io(dir, meta, store, image_of, &mut StdIo::new())
}

/// [`write_dump`] against an explicit [`DumpIo`] backend — the
/// fault-injection seam. All filesystem traffic of the commit goes through
/// `io`; the encoding itself is pure and performs no I/O.
///
/// # Errors
///
/// As [`write_dump`].
pub fn write_dump_with_io(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
    image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    io: &mut dyn DumpIo,
) -> Result<DumpManifest, DumpError> {
    let (manifest, files) = encode_dump(meta, store, image_of)?;
    commit_atomic(io, dir, &files)?;
    Ok(manifest)
}

/// Every file of an encoded dump: name and full contents.
type DumpFiles = Vec<(String, Vec<u8>)>;

/// Encodes the whole dump in memory and performs no I/O. Returns the
/// manifest and every file's full contents, manifest first, so a commit
/// interrupted mid-staging still leaves the most salvage-critical file
/// (salvage cannot start without a manifest) on disk first. The store's
/// sealed columnar frames pass through untouched; identical program images
/// are stored once, under their content hash.
fn encode_dump(
    meta: &DumpMeta,
    store: &LogStore,
    mut image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
) -> Result<(DumpManifest, DumpFiles), DumpError> {
    let codec = store.codec();
    let mut threads = Vec::new();
    let mut files = DumpFiles::new();
    // Content addressing: raw-image hash → (raw bytes for the collision
    // check, raw size, stored size).
    let mut images_by_hash: Vec<(u64, Vec<u8>, u64, u64)> = Vec::new();
    for thread in store.threads() {
        let logs = store.thread_logs(thread);
        let mut fll_file = Vec::new();
        let mut mrl_file = Vec::new();
        let mut fll_bytes = 0u64;
        let mut mrl_bytes = 0u64;
        let mut fll_stored_bytes = 0u64;
        let mut mrl_stored_bytes = 0u64;
        let mut digests = Vec::with_capacity(logs.len());
        begin_file(&mut fll_file, FLL_FILE_MAGIC, thread, logs.len() as u32);
        begin_file(&mut mrl_file, MRL_FILE_MAGIC, thread, logs.len() as u32);
        for entry in logs {
            if entry.codec != codec {
                return Err(DumpError::Inconsistent {
                    file: format!("thread-{}.fll", thread.0),
                    detail: format!(
                        "interval sealed with codec {} in a {} store",
                        entry.codec, codec
                    ),
                });
            }
            fll_bytes += entry.fll_raw_bytes;
            mrl_bytes += entry.mrl_raw_bytes;
            fll_stored_bytes += put_frame(&mut fll_file, &entry.fll_frame);
            mrl_stored_bytes += put_frame(&mut mrl_file, &entry.mrl_frame);
            digests.push(DigestSummary::from(&entry.digest));
        }
        let (has_image, image_raw_bytes, image_stored_bytes, image_hash) = match image_of(thread) {
            Some(program) => {
                let raw = encode_image(&program);
                // Trust boundary: never ship an image that does not decode
                // back to the recorded binary. Programs exceeding the wire
                // format's sanity bounds (counts, string lengths) would
                // otherwise produce a dump its own loader rejects — or,
                // for truncation-collapsed symbol names, a dump that loads
                // cleanly but replays a subtly different program.
                let hash = fnv1a(&raw);
                let file = format!("image-{hash:016x}.bni");
                match decode_image(&raw) {
                    Ok(decoded) if decoded == *program => {}
                    Ok(_) => {
                        return Err(DumpError::Inconsistent {
                            file,
                            detail: "encoded program image does not round-trip to the \
                                     recorded binary (name or symbol beyond wire-format \
                                     limits?)"
                                .into(),
                        })
                    }
                    Err(e) => {
                        return Err(DumpError::Inconsistent {
                            file,
                            detail: format!(
                                "encoded program image does not decode (program exceeds \
                                 wire-format limits): {e}"
                            ),
                        })
                    }
                }
                if let Some((_, seen_raw, raw_len, stored)) =
                    images_by_hash.iter().find(|(h, ..)| *h == hash)
                {
                    // Same hash must mean same bytes: FNV is not
                    // collision-resistant, and silently aliasing two
                    // different binaries would replay the wrong program.
                    if seen_raw != &raw {
                        return Err(DumpError::Inconsistent {
                            file,
                            detail: format!(
                                "image hash {hash:#018x} collides across different \
                                 program images"
                            ),
                        });
                    }
                    (true, *raw_len, *stored, Some(hash))
                } else {
                    let container = encode_container(codec, &raw);
                    let mut image_file = Vec::with_capacity(16 + 12 + container.len());
                    // One frame behind the same header framing as the log
                    // files; the header's thread id is the first thread that
                    // embedded this image.
                    begin_file(&mut image_file, IMAGE_FILE_MAGIC, thread, 1);
                    let stored = put_frame(&mut image_file, &container);
                    let raw_len = raw.len() as u64;
                    files.push((file, image_file));
                    images_by_hash.push((hash, raw, raw_len, stored));
                    (true, raw_len, stored, Some(hash))
                }
            }
            None => (false, 0, 0, None),
        };
        let t = ThreadManifest {
            thread,
            checkpoints: logs.len() as u32,
            instructions: store.replay_window(thread),
            fll_bytes,
            mrl_bytes,
            fll_stored_bytes,
            mrl_stored_bytes,
            has_image,
            image_raw_bytes,
            image_stored_bytes,
            image_hash,
            digests,
        };
        files.push((t.fll_file(), fll_file));
        files.push((t.mrl_file(), mrl_file));
        threads.push(t);
    }
    let manifest = DumpManifest {
        version: DUMP_VERSION,
        codec,
        created: meta.created,
        workload: meta.workload.clone(),
        config: meta.config.clone(),
        fault: meta.fault.clone(),
        evicted_checkpoints: meta.evicted_checkpoints,
        threads,
        telemetry: meta.telemetry.clone(),
    };
    files.insert(0, (MANIFEST_FILE.to_string(), manifest.encode()));
    Ok((manifest, files))
}

/// Opens a per-thread file: magic, format version, thread id, frame count.
fn begin_file(w: &mut Vec<u8>, magic: [u8; 4], thread: ThreadId, frames: u32) {
    w.extend_from_slice(&magic);
    put_u32(w, DUMP_VERSION);
    put_u32(w, thread.0);
    put_u32(w, frames);
}

/// Appends one frame: length prefix, the stored bytes (a columnar blob or a
/// codec container), and an FNV-1a checksum over those stored bytes. The
/// codec containers' own checksums cover the raw payload only, and LZ
/// streams are redundant enough that a flipped encoded bit can decompress
/// to identical raw bytes; the stored-bytes checksum makes every byte of a
/// frame integrity-covered. Returns the stored size; the length prefix and
/// trailer are framing overhead and not counted.
fn put_frame(w: &mut Vec<u8>, stored: &[u8]) -> u64 {
    put_u32(w, stored.len() as u32);
    w.extend_from_slice(stored);
    put_u64(w, fnv1a(stored));
    stored.len() as u64
}

/// How one frame is laid out on disk, by format generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// v1: length prefix, raw row-serialized payload, FNV-1a checksum of the
    /// payload.
    V1,
    /// v2: length prefix, codec container.
    V2,
    /// v3 and v4 frames, and every image file: a v2 frame followed by an
    /// FNV-1a checksum over the stored container bytes.
    V3,
    /// v5 FLL/MRL frames: the v3 outer framing around a columnar
    /// multi-stream blob, which is carried verbatim — each per-field stream
    /// stays inside its own codec container until the log is decoded.
    Columnar,
}

impl Framing {
    /// The framing of the files of a `version` dump; `log` is set for
    /// FLL/MRL files (image files keep the single-container layout in every
    /// version).
    fn of(version: u32, log: bool) -> Self {
        match version {
            DUMP_VERSION_V1 => Framing::V1,
            DUMP_VERSION_V2 => Framing::V2,
            v if v >= DUMP_VERSION_V5 && log => Framing::Columnar,
            _ => Framing::V3,
        }
    }
}

/// One frame read off disk.
struct Frame {
    /// The decompressed payload (v1–v4), or the columnar blob verbatim (v5
    /// logs).
    payload: Vec<u8>,
    /// Stored size: the container or blob bytes, or the raw payload in v1.
    stored: u64,
    /// Offset of the frame's length prefix in its file.
    offset: u64,
    /// Per-stream headers of a columnar blob; empty otherwise.
    streams: Vec<ColumnarStreamInfo>,
}

/// Reads one frame at the reader's position, validating its checksums, its
/// container or blob structure, and that it was encoded with the manifest's
/// codec. Per-stream payload checksums of a columnar blob are verified when
/// the streams are decoded.
fn read_frame(
    r: &mut ByteReader<'_>,
    file: &str,
    index: u32,
    framing: Framing,
    codec: CodecId,
) -> Result<Frame, DumpError> {
    let truncated = || DumpError::Truncated { file: file.into() };
    let offset = r.position();
    let len = r.u32().ok_or_else(truncated)?;
    let body = r.take(len as usize).ok_or_else(truncated)?;
    if framing != Framing::V2 {
        let expected = r.u64().ok_or_else(truncated)?;
        let actual = fnv1a(body);
        if expected != actual {
            return Err(DumpError::ChecksumMismatch {
                file: file.into(),
                frame: Some(index),
                expected,
                actual,
            });
        }
    }
    let wrong_codec = |what: String, used: CodecId| DumpError::Inconsistent {
        file: file.into(),
        detail: format!("frame {index}{what} uses codec {used}, manifest declares {codec}"),
    };
    let (payload, streams) = match framing {
        Framing::V1 => (body.to_vec(), Vec::new()),
        Framing::V2 | Framing::V3 => {
            let info = container_info(body).map_err(|e| frame_error(file, index, e))?;
            if info.codec != codec {
                return Err(wrong_codec(String::new(), info.codec));
            }
            let (_, payload) = decode_container(body).map_err(|e| frame_error(file, index, e))?;
            (payload, Vec::new())
        }
        Framing::Columnar => {
            let streams = streams_info(body).map_err(|e| columnar_frame_error(file, index, e))?;
            if let Some(s) = streams.iter().find(|s| s.codec != codec) {
                return Err(wrong_codec(format!(" stream {}", s.id), s.codec));
            }
            (body.to_vec(), streams)
        }
    };
    Ok(Frame {
        payload,
        stored: u64::from(len),
        offset,
        streams,
    })
}

/// Maps a columnar-container [`ColumnarError`] to the dump-level error
/// vocabulary, surfacing per-stream checksum mismatches as such.
fn columnar_frame_error(file: &str, index: u32, e: ColumnarError) -> DumpError {
    match e {
        ColumnarError::Stream {
            error: FrameError::Checksum { expected, actual },
            ..
        } => DumpError::ChecksumMismatch {
            file: file.into(),
            frame: Some(index),
            expected,
            actual,
        },
        other => DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: other.to_string(),
        },
    }
}

/// Maps a columnar join failure ([`ColumnarCodecError`]) to the dump-level
/// error vocabulary.
fn columnar_log_error(file: &str, index: u32, e: ColumnarCodecError) -> DumpError {
    match e {
        ColumnarCodecError::Container(inner) => columnar_frame_error(file, index, inner),
        other => DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: other.to_string(),
        },
    }
}

/// Maps a container [`FrameError`] to the dump-level error vocabulary.
fn frame_error(file: &str, index: u32, e: FrameError) -> DumpError {
    match e {
        // The container was cut short *inside* a length-prefixed frame: the
        // bytes the length prefix promised are all present (a genuinely
        // truncated file fails the `take` above), so this is frame-level
        // corruption — a forged or bit-flipped length prefix — not file
        // truncation, and must not be reported as `DumpError::Truncated`.
        FrameError::Truncated => DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: "container truncated inside a length-prefixed frame".into(),
        },
        FrameError::Checksum { expected, actual } => DumpError::ChecksumMismatch {
            file: file.into(),
            frame: Some(index),
            expected,
            actual,
        },
        other => DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: other.to_string(),
        },
    }
}

impl CrashDump {
    /// Loads a complete crash dump from `dir`, validating checksums, bounds,
    /// manifest/file consistency and FLL/MRL pairing, and decoding every log.
    ///
    /// This is [`CrashDump::load_salvage`] — the one dump parser — with no
    /// tolerance for loss: it returns the first cause in the salvage
    /// report's order (per thread: FLL file, MRL file, then the thread's
    /// image file), and the dump only when every declared frame was
    /// recovered and the per-thread table re-derived from the files equals
    /// the manifest's.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DumpError`] describing the first problem found.
    pub fn load(dir: &Path) -> Result<Self, DumpError> {
        let SalvagedDump { dump, report } = Self::load_salvage(dir)?;
        match report.files.into_iter().find_map(|f| f.cause) {
            Some(cause) => Err(cause),
            None => Ok(dump),
        }
    }

    /// The logs of one thread, if retained in the dump.
    pub fn thread(&self, thread: ThreadId) -> Option<&ThreadDump> {
        self.threads.iter().find(|t| t.thread == thread)
    }

    /// The embedded program image of one thread, if the dump carries it.
    pub fn embedded_program(&self, thread: ThreadId) -> Option<&Arc<Program>> {
        self.thread(thread).and_then(|t| t.image.as_ref())
    }

    /// Whether every thread in the dump carries its program image, i.e. the
    /// dump replays with no out-of-band workload registry.
    pub fn is_self_contained(&self) -> bool {
        self.threads.iter().all(|t| t.image.is_some())
    }

    /// Replays every retained interval of every thread and checks each
    /// replay against the recorded digest. A thread's *embedded* program
    /// image is preferred; `fallback` is only consulted for threads without
    /// one (v1/v2 dumps, or image embedding disabled) — the
    /// registry-resolution path. Threads with neither are reported as
    /// unreplayable rather than failing the whole dump.
    ///
    /// Shorthand for [`replay_with`](CrashDump::replay_with) with default
    /// [`ReplayOptions`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an interval that cannot be
    /// replayed at all (corrupt stream, bad initial state, divergent length).
    pub fn replay(
        &self,
        fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_with(ReplayOptions::default(), fallback)
    }

    /// Like [`replay`](CrashDump::replay), but emits one `interval` span
    /// (category `replay`, instruction-count arg) per replayed interval
    /// into `tracer`, plus `digest_mismatch` instants where the replay
    /// diverges, and feeds `stats` when supplied.
    ///
    /// Shorthand for [`replay_with`](CrashDump::replay_with).
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an unreplayable interval.
    pub fn replay_traced(
        &self,
        fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
        stats: Option<&ReplayStats>,
        tracer: &mut bugnet_trace::ThreadTracer,
    ) -> Result<DumpReplayReport, ReplayError> {
        let opts = ReplayOptions {
            stats,
            tracer: Some(tracer),
            ..ReplayOptions::default()
        };
        self.replay_with(opts, fallback)
    }

    /// The one dump replay: re-executes the retained intervals selected by
    /// `opts.from` against the program images chosen by `opts.images`
    /// (`programs` supplies the non-embedded ones), compares every interval
    /// with its recorded digest and fault, and reports to `opts.stats` and
    /// `opts.tracer` as it goes. Every FLL header carries the complete
    /// architectural state at the start of its interval, so seeking with
    /// `from` is free — earlier intervals are skipped outright, never
    /// re-executed.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an interval that cannot be
    /// replayed at all.
    pub fn replay_with(
        &self,
        opts: ReplayOptions<'_>,
        mut programs: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Result<DumpReplayReport, ReplayError> {
        let ReplayOptions {
            from,
            images,
            stats,
            mut tracer,
        } = opts;
        let mut report = DumpReplayReport::default();
        for t in &self.threads {
            let Some(program) = t.program(images, &mut programs) else {
                report.unreplayable_threads.push(t.thread);
                continue;
            };
            let replayer = Replayer::new(program);
            for cp in &t.checkpoints {
                if from.is_some_and(|from| cp.fll.header.checkpoint < from) {
                    continue;
                }
                let started = stats.map(|_| std::time::Instant::now());
                let trace_start = tracer.as_ref().map(|tr| tr.now());
                let replayed = replayer.replay_interval(&cp.fll)?;
                let fault_reproduced = cp.fll.fault.map(|expected| {
                    replayed
                        .observed_fault
                        .map(|(pc, _)| pc == expected.pc)
                        .unwrap_or(false)
                });
                let digest_match = cp.digest.matches(&replayed.digest);
                if let (Some(stats), Some(started)) = (stats, started) {
                    stats.interval_ns.record_duration(started.elapsed());
                    stats.intervals.inc();
                    stats.instructions.add(replayed.instructions);
                    stats.loads_from_log.add(replayed.loads_from_log);
                    if digest_match {
                        stats.digest_matches.inc();
                    } else {
                        stats.digest_mismatches.inc();
                    }
                }
                if let (Some(tr), Some(start)) = (tracer.as_deref_mut(), trace_start) {
                    tr.span_since_arg(
                        "interval",
                        "replay",
                        start,
                        "instructions",
                        replayed.instructions,
                    );
                    if !digest_match {
                        tr.instant("digest_mismatch", "replay");
                    }
                }
                report.intervals.push(DumpIntervalReplay {
                    thread: t.thread,
                    checkpoint: cp.fll.header.checkpoint,
                    instructions: replayed.instructions,
                    loads_from_log: replayed.loads_from_log,
                    loads_from_memory: replayed.loads_from_memory,
                    digest_match,
                    fault_reproduced,
                });
            }
        }
        Ok(report)
    }

    /// Searches for each thread's first interval whose replayed digest
    /// diverges from the recorded one, replaying as few intervals as it can
    /// get away with: under the usual failure mode — corruption persists
    /// from some interval onward — a binary search plus a two-probe
    /// verification finds the frontier in `O(log n)` interval replays. When
    /// the verification detects that divergence is *not* monotone (say, a
    /// single tampered digest in the middle of a clean window), it falls
    /// back to a linear scan so the answer is still the true first
    /// divergence. Program images resolve exactly as in
    /// [`replay`](CrashDump::replay): embedded image first, `fallback` for
    /// threads without one.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an interval that cannot be
    /// replayed at all.
    pub fn bisect(
        &self,
        mut fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Result<BisectReport, ReplayError> {
        let mut report = BisectReport::default();
        for t in &self.threads {
            report.intervals += t.checkpoints.len() as u64;
            let Some(program) = t.program(ImageSource::EmbeddedFirst, &mut fallback) else {
                report.unreplayable_threads.push(t.thread);
                continue;
            };
            let replayer = Replayer::new(program);
            let n = t.checkpoints.len();
            let mut probes = 0u64;
            let probe = |i: usize, probes: &mut u64| -> Result<bool, ReplayError> {
                *probes += 1;
                let cp = &t.checkpoints[i];
                let replayed = replayer.replay_interval(&cp.fll)?;
                Ok(cp.digest.matches(&replayed.digest))
            };
            // Binary search for the match/diverge frontier, assuming all
            // intervals before it match and all after it diverge.
            let (mut lo, mut hi) = (0usize, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if probe(mid, &mut probes)? {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let mut first = None;
            if lo < n {
                // Verify the monotonicity assumption around the candidate:
                // it must diverge and its predecessor must match.
                if !probe(lo, &mut probes)? && (lo == 0 || probe(lo - 1, &mut probes)?) {
                    first = Some(lo);
                }
            }
            if first.is_none() {
                // Either every probe matched (a lone divergence can hide
                // from the binary search) or the frontier shape was
                // violated: scan for the ground truth.
                for i in 0..n {
                    if !probe(i, &mut probes)? {
                        first = Some(i);
                        break;
                    }
                }
            }
            report.probes += probes;
            if let Some(index) = first {
                report.divergences.push(BisectDivergence {
                    thread: t.thread,
                    checkpoint: t.checkpoints[index].fll.header.checkpoint,
                    index: index as u32,
                });
            }
        }
        Ok(report)
    }
}

impl ThreadDump {
    /// The program image a replay of this thread runs: per `images`, the
    /// embedded image first or only what `programs` supplies. The one
    /// program resolution of [`CrashDump::replay_with`],
    /// [`CrashDump::bisect`] and the profiler.
    pub(crate) fn program(
        &self,
        images: ImageSource,
        programs: &mut impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Option<Arc<Program>> {
        match images {
            ImageSource::EmbeddedFirst => self.image.clone().or_else(|| programs(self.thread)),
            ImageSource::Override => programs(self.thread),
        }
    }
}

/// Where [`CrashDump::replay_with`] takes each thread's program image from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ImageSource {
    /// The thread's embedded image; the program closure only for threads
    /// without one (v1/v2 dumps, or image embedding off).
    #[default]
    EmbeddedFirst,
    /// Exactly what the program closure supplies, ignoring any embedded
    /// image — the `--workload` override.
    Override,
}

/// Everything that varies about one replay of a dump. `Default` replays
/// every retained interval, embedded images first, unobserved.
#[derive(Default)]
pub struct ReplayOptions<'a> {
    /// Checkpoint-seeking time travel: replay only the intervals whose
    /// checkpoint id is `from` or later.
    pub from: Option<CheckpointId>,
    /// Where program images come from.
    pub images: ImageSource,
    /// Replay telemetry (interval latency, instruction and
    /// digest-comparison counters) to feed.
    pub stats: Option<&'a ReplayStats>,
    /// Timeline to emit per-interval spans and `digest_mismatch` instants
    /// into.
    pub tracer: Option<&'a mut bugnet_trace::ThreadTracer>,
}

/// Telemetry handles for the dump replay path, registered under the
/// `replay_*` metric names.
#[derive(Debug, Clone)]
pub struct ReplayStats {
    /// Instructions replayed (`replay_instructions_total`).
    pub instructions: Arc<bugnet_telemetry::Counter>,
    /// Intervals replayed (`replay_intervals_total`).
    pub intervals: Arc<bugnet_telemetry::Counter>,
    /// Loads satisfied from the FLL (`replay_loads_from_log_total`).
    pub loads_from_log: Arc<bugnet_telemetry::Counter>,
    /// Digest comparisons that matched (`replay_digest_matches_total`).
    pub digest_matches: Arc<bugnet_telemetry::Counter>,
    /// Digest comparisons that diverged (`replay_digest_mismatches_total`).
    pub digest_mismatches: Arc<bugnet_telemetry::Counter>,
    /// Wall-clock latency of one interval replay (`replay_interval_ns`).
    pub interval_ns: Arc<bugnet_telemetry::Histogram>,
}

impl ReplayStats {
    /// Registers (or re-attaches to) the replay metrics in `registry`.
    pub fn register(registry: &bugnet_telemetry::Registry) -> Self {
        ReplayStats {
            instructions: registry.counter("replay_instructions_total"),
            intervals: registry.counter("replay_intervals_total"),
            loads_from_log: registry.counter("replay_loads_from_log_total"),
            digest_matches: registry.counter("replay_digest_matches_total"),
            digest_mismatches: registry.counter("replay_digest_mismatches_total"),
            interval_ns: registry.histogram("replay_interval_ns"),
        }
    }
}

/// Result of [`CrashDump::bisect`]: the per-thread digest-divergence
/// frontier and how much replay work finding it took.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BisectReport {
    /// First divergent interval of each thread that has one, in thread
    /// order.
    pub divergences: Vec<BisectDivergence>,
    /// Threads that could not be replayed (no embedded image and no
    /// fallback program).
    pub unreplayable_threads: Vec<ThreadId>,
    /// Interval replays performed across all threads.
    pub probes: u64,
    /// Retained intervals across all threads.
    pub intervals: u64,
}

impl BisectReport {
    /// Whether every replayable interval matched its recorded digest.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// One thread's first digest-divergent interval, found by
/// [`CrashDump::bisect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectDivergence {
    /// Thread the interval belongs to.
    pub thread: ThreadId,
    /// Checkpoint identifier of the first divergent interval.
    pub checkpoint: CheckpointId,
    /// Index of the interval within the thread's retained window.
    pub index: u32,
}

/// Result of replaying one interval out of a dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpIntervalReplay {
    /// Thread the interval belongs to.
    pub thread: ThreadId,
    /// Checkpoint identifier.
    pub checkpoint: CheckpointId,
    /// Instructions replayed.
    pub instructions: u64,
    /// Loads whose value came from the log.
    pub loads_from_log: u64,
    /// Loads regenerated from the replayed memory image.
    pub loads_from_memory: u64,
    /// Whether the replay digest matched the digest recorded in the dump.
    pub digest_match: bool,
    /// For fault-terminated intervals: whether the fault reproduced at the
    /// recorded program counter.
    pub fault_reproduced: Option<bool>,
}

/// Result of replaying a whole dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DumpReplayReport {
    /// Per-interval results, grouped by thread, oldest interval first.
    pub intervals: Vec<DumpIntervalReplay>,
    /// Threads whose program image could not be reconstructed.
    pub unreplayable_threads: Vec<ThreadId>,
}

impl DumpReplayReport {
    /// Whether every interval replayed to the recorded digest (and fault,
    /// where applicable) and every thread was replayable.
    pub fn all_match(&self) -> bool {
        !self.intervals.is_empty()
            && self.unreplayable_threads.is_empty()
            && self
                .intervals
                .iter()
                .all(|i| i.digest_match && i.fault_reproduced.unwrap_or(true))
    }

    /// Intervals that diverged from the recording.
    pub fn divergences(&self) -> Vec<&DumpIntervalReplay> {
        self.intervals
            .iter()
            .filter(|i| !(i.digest_match && i.fault_reproduced.unwrap_or(true)))
            .collect()
    }

    /// Total instructions replayed.
    pub fn instructions(&self) -> u64 {
        self.intervals.iter().map(|i| i.instructions).sum()
    }
}

/// Summary statistics of a verified dump.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumpVerifyReport {
    /// Threads in the dump.
    pub threads: usize,
    /// Retained checkpoint intervals across all threads.
    pub checkpoints: u64,
    /// Serialized FLL payload bytes.
    pub fll_bytes: u64,
    /// Serialized MRL payload bytes.
    pub mrl_bytes: u64,
    /// Stored (post-codec) FLL frame bytes.
    pub fll_stored_bytes: u64,
    /// Stored (post-codec) MRL frame bytes.
    pub mrl_stored_bytes: u64,
    /// Threads whose program image is embedded (format v3).
    pub images: usize,
    /// Serialized (uncompressed) program-image bytes across all threads.
    pub image_raw_bytes: u64,
    /// Stored (post-codec) program-image bytes across all threads.
    pub image_stored_bytes: u64,
    /// Back-end codec of the dump.
    pub codec: CodecId,
    /// First-load records across all FLLs.
    pub records: u64,
    /// Records that individually decoded during the deep pass.
    pub records_decoded: u64,
    /// Ordering edges across all MRLs.
    pub mrl_entries: u64,
}

impl Default for DumpVerifyReport {
    fn default() -> Self {
        DumpVerifyReport {
            threads: 0,
            checkpoints: 0,
            fll_bytes: 0,
            mrl_bytes: 0,
            fll_stored_bytes: 0,
            mrl_stored_bytes: 0,
            images: 0,
            image_raw_bytes: 0,
            image_stored_bytes: 0,
            codec: CodecId::Identity,
            records: 0,
            records_decoded: 0,
            mrl_entries: 0,
        }
    }
}

impl DumpVerifyReport {
    /// Back-end compression ratio over all frames (raw / stored).
    pub fn backend_ratio(&self) -> f64 {
        let stored = self.fll_stored_bytes + self.mrl_stored_bytes;
        if stored == 0 {
            1.0
        } else {
            (self.fll_bytes + self.mrl_bytes) as f64 / stored as f64
        }
    }

    /// Back-end compression ratio over the embedded program images (raw /
    /// stored; 1.0 when no images are embedded).
    pub fn image_ratio(&self) -> f64 {
        if self.image_stored_bytes == 0 {
            1.0
        } else {
            self.image_raw_bytes as f64 / self.image_stored_bytes as f64
        }
    }
}

/// Loads a dump and additionally decodes every FLL record stream, i.e. the
/// full checksum + decode pass behind `bugnet verify`.
///
/// # Errors
///
/// Returns a typed [`DumpError`] describing the first problem found.
pub fn verify_dump(dir: &Path) -> Result<DumpVerifyReport, DumpError> {
    CrashDump::load(dir)?.verify()
}

impl CrashDump {
    /// The deep pass of [`verify_dump`] over an already-loaded dump:
    /// decodes every FLL record stream and aggregates the size statistics,
    /// without re-reading anything from disk.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DumpError`] describing the first problem found.
    pub fn verify(&self) -> Result<DumpVerifyReport, DumpError> {
        let mut report = DumpVerifyReport {
            threads: self.threads.len(),
            codec: self.manifest.codec,
            ..DumpVerifyReport::default()
        };
        let mut seen_image_files: Vec<String> = Vec::new();
        for (t, m) in self.threads.iter().zip(&self.manifest.threads) {
            report.checkpoints += t.checkpoints.len() as u64;
            report.fll_bytes += m.fll_bytes;
            report.mrl_bytes += m.mrl_bytes;
            report.fll_stored_bytes += m.fll_stored_bytes;
            report.mrl_stored_bytes += m.mrl_stored_bytes;
            if t.image.is_some() {
                report.images += 1;
                // Byte totals count each content-addressed (v4) image file
                // once, matching what the dump costs on disk.
                let file = m.image_file();
                if !seen_image_files.contains(&file) {
                    seen_image_files.push(file);
                    report.image_raw_bytes += m.image_raw_bytes;
                    report.image_stored_bytes += m.image_stored_bytes;
                }
            }
            for (i, cp) in t.checkpoints.iter().enumerate() {
                report.records += cp.fll.records();
                report.mrl_entries += cp.mrl.entries().len() as u64;
                let decoded = cp.fll.decode_records().map_err(|e| DumpError::CorruptLog {
                    file: m.fll_file(),
                    frame: i as u32,
                    detail: e.to_string(),
                })?;
                report.records_decoded += decoded.len() as u64;
            }
        }
        Ok(report)
    }
}

// --- the dump parser: salvage, and strict loading on top of it -------------

/// What salvage recovered from (and lost in) one dump file.
#[derive(Debug)]
pub struct FileSalvage {
    /// The file (relative to the dump directory).
    pub file: String,
    /// Frames the manifest declares for this file.
    pub declared_frames: u32,
    /// Leading frames that were fully intact (checksums, decode, pairing
    /// preconditions) and therefore recovered.
    pub intact_frames: u32,
    /// Byte offset of the first damage in the file, when any.
    pub first_bad_offset: Option<u64>,
    /// The typed error that ended recovery of this file, when any.
    pub cause: Option<DumpError>,
}

impl FileSalvage {
    /// Declared frames that could not be recovered.
    pub fn lost_frames(&self) -> u32 {
        self.declared_frames.saturating_sub(self.intact_frames)
    }

    /// Whether the file was fully intact.
    pub fn is_clean(&self) -> bool {
        self.cause.is_none() && self.lost_frames() == 0
    }

    /// Records damage found at frame `index` after the byte-level pass: a
    /// decode, pairing or hash failure there is earlier damage than any
    /// cause the byte-level pass found further on, so it replaces it.
    fn damaged_at(&mut self, index: usize, offset: u64, cause: DumpError) {
        self.intact_frames = index as u32;
        self.first_bad_offset = Some(offset);
        self.cause = Some(cause);
    }

    /// Records a contradiction between the file's recovered content and the
    /// manifest, unless the file already has a cause.
    fn contradicts_manifest(&mut self, detail: Option<String>) {
        if self.cause.is_none() {
            self.cause = detail.map(|detail| DumpError::Inconsistent {
                file: self.file.clone(),
                detail,
            });
        }
    }
}

/// Ground-truth account of what [`CrashDump::load_salvage`] recovered: one
/// entry per dump file plus interval/image totals.
#[derive(Debug, Default)]
pub struct SalvageReport {
    /// Per-file results, in manifest thread order (FLL, MRL, then image per
    /// thread; each content-addressed v4 image file appears once).
    pub files: Vec<FileSalvage>,
    /// Checkpoint intervals recovered intact across all threads (both logs
    /// intact, decoded and correctly paired).
    pub intact_intervals: u64,
    /// Declared checkpoint intervals that could not be recovered.
    pub lost_intervals: u64,
    /// Embedded image files that could not be recovered.
    pub lost_images: u32,
}

impl SalvageReport {
    /// Whether nothing at all was lost — the dump was fully intact.
    pub fn is_clean(&self) -> bool {
        self.lost_intervals == 0
            && self.lost_images == 0
            && self.files.iter().all(|f| f.cause.is_none())
    }

    /// Total frames lost across all files.
    pub fn lost_frames(&self) -> u64 {
        self.files.iter().map(|f| u64::from(f.lost_frames())).sum()
    }
}

/// A dump recovered by [`CrashDump::load_salvage`]: every intact prefix of
/// intervals, plus the account of what was lost. The contained dump's
/// manifest is *adjusted* to the salvaged content (checkpoint counts, byte
/// totals, digests, image presence), so it is internally consistent and
/// [`CrashDump::replay`] / [`CrashDump::verify`] work on it unchanged —
/// replay simply runs up to the last fully-intact interval of each thread.
#[derive(Debug)]
pub struct SalvagedDump {
    /// The recovered dump.
    pub dump: CrashDump,
    /// What was recovered and what was lost.
    pub report: SalvageReport,
}

/// Lenient parse of one per-thread file: every leading frame that
/// validates, plus where and why parsing stopped.
struct ParsedFile {
    frames: Vec<Frame>,
    first_bad_offset: Option<u64>,
    cause: Option<DumpError>,
}

impl ParsedFile {
    fn failed(cause: DumpError, offset: Option<u64>) -> Self {
        ParsedFile {
            frames: Vec::new(),
            first_bad_offset: offset,
            cause: Some(cause),
        }
    }

    /// Splits the parse into the file's salvage-report entry (before
    /// interval pairing) and its intact frames.
    fn into_report(self, file: String, declared_frames: u32) -> (FileSalvage, Vec<Frame>) {
        let report = FileSalvage {
            file,
            declared_frames,
            intact_frames: self.frames.len() as u32,
            first_bad_offset: self.first_bad_offset,
            cause: self.cause,
        };
        (report, self.frames)
    }
}

/// Reads as many leading frames of a per-thread file as validate: its
/// header (magic, version, thread, frame count), then every frame the
/// manifest declares, then — when all of them are intact — that nothing
/// follows. Nothing that fails a checksum is ever recovered.
fn parse_file(
    dir: &Path,
    file: &str,
    magic: [u8; 4],
    manifest: &DumpManifest,
    thread: ThreadId,
    expect_frames: u32,
) -> ParsedFile {
    let path = dir.join(file);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => return ParsedFile::failed(io_err(&path, e), None),
    };
    let mut r = ByteReader::new(&bytes);
    let truncated = || DumpError::Truncated { file: file.into() };
    let inconsistent = |detail: String| DumpError::Inconsistent {
        file: file.into(),
        detail,
    };
    match r.take(4) {
        Some(m) if m == magic => {}
        Some(_) => return ParsedFile::failed(DumpError::BadMagic { file: file.into() }, Some(0)),
        None => return ParsedFile::failed(truncated(), Some(0)),
    }
    let Some(version) = r.u32() else {
        return ParsedFile::failed(truncated(), Some(r.position()));
    };
    if !(DUMP_VERSION_V1..=DUMP_VERSION).contains(&version) {
        let cause = DumpError::UnsupportedVersion {
            file: file.into(),
            version,
        };
        return ParsedFile::failed(cause, Some(4));
    }
    if version != manifest.version {
        let cause = inconsistent(format!(
            "file is format v{version}, manifest declares v{}",
            manifest.version
        ));
        return ParsedFile::failed(cause, Some(4));
    }
    let Some(file_thread) = r.u32().map(ThreadId) else {
        return ParsedFile::failed(truncated(), Some(r.position()));
    };
    if file_thread != thread {
        let cause = inconsistent(format!(
            "file claims {file_thread}, manifest expects {thread}"
        ));
        return ParsedFile::failed(cause, Some(8));
    }
    let Some(declared) = r.u32() else {
        return ParsedFile::failed(truncated(), Some(r.position()));
    };
    let limit = declared.min(expect_frames);
    let mut parsed = ParsedFile {
        frames: Vec::with_capacity(limit as usize),
        first_bad_offset: None,
        cause: None,
    };
    if declared != expect_frames {
        // Keep parsing up to the smaller count, but the disagreement itself
        // is damage worth reporting.
        parsed.cause = Some(inconsistent(format!(
            "file holds {declared} frames, manifest expects {expect_frames}"
        )));
        parsed.first_bad_offset = Some(12);
    }
    let framing = Framing::of(version, magic != IMAGE_FILE_MAGIC);
    for i in 0..limit {
        let offset = r.position();
        match read_frame(&mut r, file, i, framing, manifest.codec) {
            Ok(frame) => parsed.frames.push(frame),
            Err(e) => {
                if parsed.cause.is_none() {
                    parsed.cause = Some(e);
                    parsed.first_bad_offset = Some(offset);
                }
                return parsed;
            }
        }
    }
    if parsed.cause.is_none() && !r.is_exhausted() {
        // All declared frames are intact but bytes follow. Distinguish
        // garbage from the sneakier forgery where whole well-formed frames
        // were appended: the manifest's frame count must match the frames
        // actually present even when the extras checksum cleanly.
        parsed.first_bad_offset = Some(r.position());
        let extra = count_clean_extra_frames(&mut r, file, manifest.codec);
        parsed.cause = Some(if extra > 0 {
            inconsistent(format!(
                "file holds {} well-formed frame(s), manifest declares {declared}",
                u64::from(declared) + extra
            ))
        } else {
            DumpError::TrailingBytes { file: file.into() }
        });
    }
    parsed
}

/// Counts well-formed frames (of any framing generation) remaining after
/// the declared content, for the frame-count consistency diagnostic.
fn count_clean_extra_frames(r: &mut ByteReader<'_>, file: &str, codec: CodecId) -> u64 {
    let mut extra = 0u64;
    'frames: loop {
        // Columnar blobs and codec containers are structurally disjoint (a
        // blob opens with the columnar magic, which is not a codec id), so
        // speculating every generation cannot double-count a frame.
        for framing in [Framing::Columnar, Framing::V3, Framing::V2, Framing::V1] {
            let mut probe = *r;
            if read_frame(&mut probe, file, 0, framing, codec).is_ok() {
                *r = probe;
                extra += 1;
                continue 'frames;
            }
        }
        // Whatever remains is not a clean frame; only fully-consumed
        // trailing frames count.
        return if r.is_exhausted() { extra } else { 0 };
    }
}

/// Decodes one FLL frame payload: a columnar blob in v5, a row-serialized
/// log before.
fn decode_fll(
    payload: &[u8],
    columnar: bool,
    file: &str,
    index: u32,
) -> Result<FirstLoadLog, DumpError> {
    if columnar {
        decode_fll_columnar(payload).map_err(|e| columnar_log_error(file, index, e))
    } else {
        FirstLoadLog::from_bytes(payload).map_err(|e| DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: e.to_string(),
        })
    }
}

/// Decodes one MRL frame payload, like [`decode_fll`].
fn decode_mrl(
    payload: &[u8],
    columnar: bool,
    file: &str,
    index: u32,
) -> Result<MemoryRaceLog, DumpError> {
    if columnar {
        decode_mrl_columnar(payload).map_err(|e| columnar_log_error(file, index, e))
    } else {
        MemoryRaceLog::from_bytes(payload).ok_or_else(|| DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: "memory race log failed to decode".into(),
        })
    }
}

/// Recovers the intact prefix of one thread's intervals: an interval
/// survives when both of its frames are intact, decode, and pair. Returns
/// the intervals, the per-thread table row re-derived from them (image
/// fields blank), and the FLL and MRL report entries.
fn salvage_logs(
    dir: &Path,
    manifest: &DumpManifest,
    t: &ThreadManifest,
) -> (Vec<DumpedCheckpoint>, ThreadManifest, [FileSalvage; 2]) {
    let (fll_file, mrl_file) = (t.fll_file(), t.mrl_file());
    let fll = parse_file(
        dir,
        &fll_file,
        FLL_FILE_MAGIC,
        manifest,
        t.thread,
        t.checkpoints,
    );
    let mrl = parse_file(
        dir,
        &mrl_file,
        MRL_FILE_MAGIC,
        manifest,
        t.thread,
        t.checkpoints,
    );
    let (mut fll_report, fll_frames) = fll.into_report(fll_file.clone(), t.checkpoints);
    let (mut mrl_report, mrl_frames) = mrl.into_report(mrl_file.clone(), t.checkpoints);
    let columnar = manifest.version >= DUMP_VERSION_V5;
    let mut row = ThreadManifest {
        thread: t.thread,
        checkpoints: 0,
        instructions: 0,
        fll_bytes: 0,
        mrl_bytes: 0,
        fll_stored_bytes: 0,
        mrl_stored_bytes: 0,
        has_image: false,
        image_raw_bytes: 0,
        image_stored_bytes: 0,
        image_hash: None,
        digests: Vec::new(),
    };
    let mut checkpoints = Vec::with_capacity(fll_frames.len().min(mrl_frames.len()));
    for (i, (ff, mf)) in fll_frames.into_iter().zip(mrl_frames).enumerate() {
        let index = i as u32;
        let decoded_fll = match decode_fll(&ff.payload, columnar, &fll_file, index) {
            Ok(log) => log,
            Err(e) => {
                fll_report.damaged_at(i, ff.offset, e);
                break;
            }
        };
        let decoded_mrl = match decode_mrl(&mf.payload, columnar, &mrl_file, index) {
            Ok(log) => log,
            Err(e) => {
                mrl_report.damaged_at(i, mf.offset, e);
                break;
            }
        };
        if decoded_fll.header.thread != t.thread {
            let detail = format!(
                "frame {i} belongs to {}, expected {}",
                decoded_fll.header.thread, t.thread
            );
            let cause = DumpError::Inconsistent {
                file: fll_file.clone(),
                detail,
            };
            fll_report.damaged_at(i, ff.offset, cause);
            break;
        }
        if decoded_mrl.header.checkpoint != decoded_fll.header.checkpoint
            || decoded_mrl.header.thread != decoded_fll.header.thread
        {
            let detail = format!(
                "frame {i} pairs {} {} with FLL {} {}",
                decoded_mrl.header.thread,
                decoded_mrl.header.checkpoint,
                decoded_fll.header.thread,
                decoded_fll.header.checkpoint
            );
            let cause = DumpError::Inconsistent {
                file: mrl_file.clone(),
                detail,
            };
            mrl_report.damaged_at(i, mf.offset, cause);
            break;
        }
        // Checked: frames are attacker-controlled (FNV is not a MAC), and
        // an overflowing sum must not panic or wrap past the manifest
        // cross-check.
        let Some(instructions) = row.instructions.checked_add(decoded_fll.instructions) else {
            let cause = DumpError::Inconsistent {
                file: fll_file.clone(),
                detail: "declared per-interval instruction counts overflow".into(),
            };
            fll_report.damaged_at(i, ff.offset, cause);
            break;
        };
        row.instructions = instructions;
        // Each version's raw-size semantics: row-serialized sizes in v5
        // (the payloads are columnar blobs), payload sizes otherwise.
        if columnar {
            row.fll_bytes += decoded_fll.serialized_len();
            row.mrl_bytes += decoded_mrl.serialized_len();
        } else {
            row.fll_bytes += ff.payload.len() as u64;
            row.mrl_bytes += mf.payload.len() as u64;
        }
        row.fll_stored_bytes += ff.stored;
        row.mrl_stored_bytes += mf.stored;
        checkpoints.push(DumpedCheckpoint {
            fll: decoded_fll,
            mrl: decoded_mrl,
            digest: t.digests[i],
            fll_streams: ff.streams,
            mrl_streams: mf.streams,
        });
    }
    row.checkpoints = checkpoints.len() as u32;
    row.digests = t.digests[..checkpoints.len()].to_vec();
    if row.checkpoints == t.checkpoints {
        // Every interval recovered: the table re-derived from the files
        // must be the manifest's.
        let mismatch = |what: &str, actual: u64, declared: u64| {
            (actual != declared)
                .then(|| format!("frames total {actual} {what}, manifest declares {declared}"))
        };
        fll_report.contradicts_manifest(
            (row.instructions != t.instructions)
                .then(|| {
                    format!(
                        "logs cover {} instructions, manifest declares {}",
                        row.instructions, t.instructions
                    )
                })
                .or_else(|| mismatch("raw bytes", row.fll_bytes, t.fll_bytes))
                .or_else(|| mismatch("stored bytes", row.fll_stored_bytes, t.fll_stored_bytes)),
        );
        mrl_report.contradicts_manifest(
            mismatch("raw bytes", row.mrl_bytes, t.mrl_bytes)
                .or_else(|| mismatch("stored bytes", row.mrl_stored_bytes, t.mrl_stored_bytes)),
        );
    }
    (checkpoints, row, [fll_report, mrl_report])
}

/// A recovered program image with its raw and stored sizes on disk.
type SalvagedImage = Option<(Arc<Program>, u64, u64)>;

/// Recovers the image file `file` that `t` is the first thread to embed:
/// its one frame must be intact, match the manifest's content hash and
/// decode.
fn salvage_image(
    dir: &Path,
    manifest: &DumpManifest,
    t: &ThreadManifest,
    file: String,
) -> (FileSalvage, SalvagedImage) {
    let parsed = parse_file(dir, &file, IMAGE_FILE_MAGIC, manifest, t.thread, 1);
    let (mut report, frames) = parsed.into_report(file, 1);
    let image = frames.into_iter().next().and_then(|frame| {
        let hashed = match t
            .image_hash
            .map(|expected| (expected, fnv1a(&frame.payload)))
        {
            Some((expected, actual)) if expected != actual => Err(DumpError::ChecksumMismatch {
                file: report.file.clone(),
                frame: Some(0),
                expected,
                actual,
            }),
            _ => Ok(()),
        };
        let decoded = hashed.and_then(|()| {
            decode_image(&frame.payload).map_err(|e| DumpError::CorruptLog {
                file: report.file.clone(),
                frame: 0,
                detail: format!("program image failed to decode: {e}"),
            })
        });
        match decoded {
            Ok(program) => Some((Arc::new(program), frame.payload.len() as u64, frame.stored)),
            Err(e) => {
                report.damaged_at(0, frame.offset, e);
                None
            }
        }
    });
    (report, image)
}

impl CrashDump {
    /// Loads whatever is recoverable from a dump directory — the one dump
    /// parser, behind [`CrashDump::load`] as well.
    ///
    /// Recovers every *intact prefix* of checkpoint intervals per thread:
    /// an interval survives when both of its log frames pass their
    /// checksums, decode, and pair correctly. Embedded program images are
    /// recovered when their file validates. The returned dump's manifest is
    /// re-derived from the recovered content so replay and verification
    /// work unchanged, and the [`SalvageReport`] states per file how many
    /// frames survived, where the first damage sits, and the typed cause —
    /// including any contradiction between a fully recovered file and the
    /// manifest's table.
    ///
    /// # Errors
    ///
    /// Returns a [`DumpError`] only when the *manifest* is unusable
    /// (missing, corrupt, truncated): without it there is no ground truth
    /// about what the dump contained, so there is nothing to salvage
    /// against. Everything else degrades into the report.
    pub fn load_salvage(dir: &Path) -> Result<SalvagedDump, DumpError> {
        let manifest = DumpManifest::load(dir)?;
        let mut report = SalvageReport::default();
        let mut threads = Vec::with_capacity(manifest.threads.len());
        let mut table = Vec::with_capacity(manifest.threads.len());
        // Content-addressed image files are salvaged once and shared.
        let mut images: Vec<(String, SalvagedImage)> = Vec::new();
        for t in &manifest.threads {
            let (checkpoints, mut row, logs) = salvage_logs(dir, &manifest, t);
            report.intact_intervals += u64::from(row.checkpoints);
            report.lost_intervals += u64::from(t.checkpoints.saturating_sub(row.checkpoints));
            report.files.extend(logs);
            let mut image = None;
            if t.has_image {
                let file = t.image_file();
                let salvaged = match images.iter().find(|(f, _)| *f == file) {
                    Some((_, salvaged)) => salvaged.clone(),
                    None => {
                        let (entry, salvaged) = salvage_image(dir, &manifest, t, file.clone());
                        report.lost_images += u32::from(salvaged.is_none());
                        report.files.push(entry);
                        images.push((file.clone(), salvaged.clone()));
                        salvaged
                    }
                };
                if let Some((program, raw, stored)) = salvaged {
                    if (raw, stored) != (t.image_raw_bytes, t.image_stored_bytes) {
                        let detail = format!(
                            "image is {raw} raw / {stored} stored bytes, manifest declares {} / {}",
                            t.image_raw_bytes, t.image_stored_bytes
                        );
                        report
                            .files
                            .iter_mut()
                            .find(|f| f.file == file)
                            .expect("an image is cached only after its report entry")
                            .contradicts_manifest(Some(detail));
                    }
                    row.has_image = true;
                    row.image_raw_bytes = raw;
                    row.image_stored_bytes = stored;
                    row.image_hash = t.image_hash;
                    image = Some(program);
                }
            }
            table.push(row);
            threads.push(ThreadDump {
                thread: t.thread,
                image,
                checkpoints,
            });
        }
        let dump = CrashDump {
            manifest: DumpManifest {
                threads: table,
                ..manifest
            },
            threads,
        };
        Ok(SalvagedDump { dump, report })
    }
}

// --- little-endian byte plumbing -----------------------------------------

fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_string(w: &mut Vec<u8>, s: &str) {
    // The loader rejects strings over MAX_STRING_BYTES; never write one a
    // dump's own loader would refuse — truncate at a char boundary instead.
    let mut end = s.len().min(MAX_STRING_BYTES as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let s = &s[..end];
    put_u32(w, s.len() as u32);
    w.extend_from_slice(s.as_bytes());
}

/// Error cause while reading a manifest string.
enum StringError {
    Truncated,
    TooLong(u32),
    NotUtf8,
}

impl StringError {
    fn into_error(self) -> DumpError {
        match self {
            StringError::Truncated => DumpError::Truncated {
                file: MANIFEST_FILE.to_string(),
            },
            StringError::TooLong(len) => DumpError::CorruptManifest {
                detail: format!("string of {len} bytes exceeds limit {MAX_STRING_BYTES}"),
            },
            StringError::NotUtf8 => DumpError::CorruptManifest {
                detail: "string is not valid UTF-8".into(),
            },
        }
    }
}

/// Bounds-checked little-endian reader over a byte slice. `Copy` so
/// speculative parses (the trailing-frame diagnostic) can snapshot it.
#[derive(Clone, Copy)]
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn string(&mut self, max: u32) -> Result<String, StringError> {
        let len = self.u32().ok_or(StringError::Truncated)?;
        if len > max {
            return Err(StringError::TooLong(len));
        }
        let bytes = self.take(len as usize).ok_or(StringError::Truncated)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StringError::NotUtf8)
    }

    fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Current byte offset from the start of the buffer (salvage uses it to
    /// report where a file first went bad).
    fn position(&self) -> u64 {
        self.pos as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fll::TerminationCause;
    use crate::recorder::ThreadRecorder;
    use bugnet_cpu::ArchState;
    use bugnet_types::{ProcessId, Word};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bugnet-dump-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The committed golden fixture of format `version` (see
    /// `tests/golden_dump.rs`).
    fn fixture(version: u32) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../../tests/fixtures/golden-v{version}"))
    }

    /// A scratch copy of a committed fixture, for tests that damage it.
    fn fixture_copy(version: u32, name: &str) -> std::path::PathBuf {
        let dir = temp_dir(name);
        fs::create_dir_all(&dir).unwrap();
        for entry in fs::read_dir(fixture(version)).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        dir
    }

    /// Strict load and salvage are one parser: `load` succeeds exactly when
    /// the salvage report is clean, and otherwise both name the same
    /// [`DumpError`] variant.
    fn load_agreeing_with_salvage(dir: &Path) -> Result<CrashDump, DumpError> {
        use std::mem::discriminant;
        let strict = CrashDump::load(dir);
        match (&strict, CrashDump::load_salvage(dir)) {
            (_, Ok(salvaged)) => {
                assert_eq!(strict.is_ok(), salvaged.report.is_clean(), "{strict:?}");
                if let Err(e) = &strict {
                    let first = salvaged.report.files.iter().find_map(|f| f.cause.as_ref());
                    assert_eq!(Some(discriminant(e)), first.map(discriminant), "{e}");
                }
            }
            (Err(e), Err(fatal)) => assert_eq!(discriminant(e), discriminant(&fatal)),
            (Ok(_), Err(fatal)) => panic!("salvage failed on a loadable dump: {fatal}"),
        }
        strict
    }

    fn store_with_logs(threads: u32, checkpoints: usize) -> LogStore {
        let cfg = BugNetConfig::default().with_checkpoint_interval(1_000);
        let mut store = LogStore::new(&cfg);
        for t in 0..threads {
            let mut rec = ThreadRecorder::new(cfg.clone(), ProcessId(1), ThreadId(t));
            for c in 0..checkpoints {
                rec.begin_interval(ArchState::default(), Timestamp((t as u64) * 100 + c as u64));
                for i in 0..20u32 {
                    rec.record_load(
                        Addr::new(0x1000 + u64::from(i) * 4),
                        Word::new(i % 5),
                        i % 3 == 0,
                    );
                    rec.record_committed_instruction();
                }
                let logs = rec
                    .end_interval(TerminationCause::IntervalFull, &ArchState::default())
                    .unwrap();
                store.push(logs);
            }
        }
        store
    }

    fn meta() -> DumpMeta {
        DumpMeta {
            workload: "test:unit".into(),
            config: BugNetConfig::default().with_checkpoint_interval(1_000),
            created: Timestamp(42),
            fault: Some(DumpFault {
                thread: ThreadId(0),
                pc: Addr::new(0x40_0010),
                icount: InstrCount(19),
                description: "integer divide by zero".into(),
            }),
            evicted_checkpoints: 3,
            telemetry: None,
        }
    }

    #[test]
    fn dump_round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let store = store_with_logs(2, 3);
        let written = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        assert_eq!(written.threads.len(), 2);
        assert_eq!(written.total_checkpoints(), 6);

        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        assert_eq!(dump.manifest.workload, "test:unit");
        assert_eq!(dump.manifest.created, Timestamp(42));
        assert_eq!(dump.manifest.evicted_checkpoints, 3);
        let fault = dump.manifest.fault.as_ref().unwrap();
        assert_eq!(fault.description, "integer divide by zero");
        for (td, t) in dump.threads.iter().zip(store.threads()) {
            assert_eq!(td.thread, t);
            let original = store.thread_logs(t);
            assert_eq!(td.checkpoints.len(), original.len());
            for (cp, orig) in td.checkpoints.iter().zip(original) {
                assert_eq!(cp.fll, orig.fll);
                assert_eq!(cp.mrl, orig.mrl);
                assert!(cp.digest.matches(&orig.digest));
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_stats() {
        let dir = temp_dir("verify");
        let store = store_with_logs(1, 2);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let report = verify_dump(&dir).unwrap();
        assert_eq!(report.threads, 1);
        assert_eq!(report.checkpoints, 2);
        assert!(report.records > 0);
        assert_eq!(report.records, report.records_decoded);
        assert!(report.fll_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_an_io_error() {
        let dir = temp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        assert!(matches!(err, DumpError::Io { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_bit_flip_is_a_checksum_mismatch() {
        let dir = temp_dir("manifest-flip");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                DumpError::ChecksumMismatch { .. } | DumpError::BadMagic { .. }
            ),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_frame_bit_flips_are_typed_errors() {
        let dir = temp_dir("frame-flip");
        let store = store_with_logs(1, 1);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let original = fs::read(&path).unwrap();
        // Flip every byte past the 16-byte file header + 4-byte frame
        // length: container header flips surface as CorruptLog/Inconsistent,
        // encoded-payload flips as codec or checksum failures — but every
        // flip must be caught.
        for pos in 20..original.len() {
            let mut bytes = original.clone();
            bytes[pos] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
            let err = load_agreeing_with_salvage(&dir).unwrap_err();
            assert!(
                matches!(
                    err,
                    DumpError::ChecksumMismatch { .. }
                        | DumpError::CorruptLog { .. }
                        | DumpError::Inconsistent { .. }
                        | DumpError::Truncated { .. }
                        | DumpError::TrailingBytes { .. }
                ),
                "flip at {pos}: {err}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_files_are_rejected() {
        let dir = temp_dir("truncate");
        let store = store_with_logs(1, 2);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        for file in [
            MANIFEST_FILE.to_string(),
            manifest.threads[0].fll_file(),
            manifest.threads[0].mrl_file(),
        ] {
            let path = dir.join(&file);
            let original = fs::read(&path).unwrap();
            fs::write(&path, &original[..original.len() - 3]).unwrap();
            let err = load_agreeing_with_salvage(&dir).unwrap_err();
            assert!(
                matches!(
                    err,
                    DumpError::Truncated { .. } | DumpError::ChecksumMismatch { .. }
                ),
                "truncating {file}: {err}"
            );
            fs::write(&path, &original).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let dir = temp_dir("trailing");
        let store = store_with_logs(1, 1);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let mut bytes = fs::read(&path).unwrap();
        bytes.push(0xAB);
        fs::write(&path, &bytes).unwrap();
        let err = load_agreeing_with_salvage(&dir).unwrap_err();
        assert!(matches!(err, DumpError::TrailingBytes { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let dir = temp_dir("version");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal the checksum so the version check itself is exercised.
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        assert!(
            matches!(err, DumpError::UnsupportedVersion { version: 99, .. }),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_workload_string_is_truncated_not_unloadable() {
        let dir = temp_dir("longstring");
        let store = store_with_logs(1, 1);
        let mut m = meta();
        m.workload = "x".repeat(MAX_STRING_BYTES as usize + 100) + "é";
        write_dump(&dir, &m, &store, |_| None).unwrap();
        // The dump written at crash time must load back by its own loader.
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest.workload.len(), MAX_STRING_BYTES as usize);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_dumps_still_load_and_report_identity_codec() {
        let dump = CrashDump::load(&fixture(DUMP_VERSION_V1)).unwrap();
        assert_eq!(dump.manifest.version, DUMP_VERSION_V1);
        assert_eq!(dump.manifest.codec, CodecId::Identity);
        // v1 has no codec layer: stored == raw.
        for t in &dump.manifest.threads {
            assert_eq!(t.fll_stored_bytes, t.fll_bytes);
            assert_eq!(t.mrl_stored_bytes, t.mrl_bytes);
        }
        // The same recording as the v2 fixture decodes to the same logs.
        let v2 = CrashDump::load(&fixture(DUMP_VERSION_V2)).unwrap();
        for (t1, t2) in dump.threads.iter().zip(&v2.threads) {
            for (c1, c2) in t1.checkpoints.iter().zip(&t2.checkpoints) {
                assert_eq!((&c1.fll, &c1.mrl), (&c2.fll, &c2.mrl));
            }
        }
    }

    #[test]
    fn v2_lz_dump_is_smaller_than_v1() {
        // The committed v1 and v2 fixtures hold the same recording.
        let total = |dir: &std::path::Path| -> u64 {
            fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().metadata().unwrap().len())
                .sum()
        };
        let v1 = total(&fixture(DUMP_VERSION_V1));
        let v2 = total(&fixture(DUMP_VERSION_V2));
        assert!(
            v2 < v1,
            "v2 dump ({v2} bytes) must be smaller than v1 ({v1})"
        );
    }

    #[test]
    fn identity_codec_store_writes_loadable_dumps() {
        let cfg = BugNetConfig::default().with_checkpoint_interval(1_000);
        let mut store = LogStore::with_codec(&cfg, CodecId::Identity);
        let mut rec = ThreadRecorder::new(cfg, ProcessId(1), ThreadId(0));
        rec.begin_interval(ArchState::default(), Timestamp(0));
        for i in 0..10u32 {
            rec.record_load(Addr::new(0x2000 + u64::from(i) * 4), Word::new(i), true);
            rec.record_committed_instruction();
        }
        store.push(
            rec.end_interval(TerminationCause::IntervalFull, &ArchState::default())
                .unwrap(),
        );
        let dir = temp_dir("identity");
        let written = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        assert_eq!(written.codec, CodecId::Identity);
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        // Identity stores every column stream as split: the stream headers
        // read off disk carry equal split and stored sizes.
        let cp = &dump.threads[0].checkpoints[0];
        assert!(!cp.fll_streams.is_empty() && !cp.mrl_streams.is_empty());
        for info in cp.fll_streams.iter().chain(&cp.mrl_streams) {
            assert_eq!(info.codec, CodecId::Identity);
            assert_eq!(info.raw_len, info.stored_len);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appended_clean_frame_is_a_frame_count_inconsistency() {
        let dir = temp_dir("extra-frame");
        let store = store_with_logs(1, 2);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let mut bytes = fs::read(&path).unwrap();
        // Duplicate the first frame (length prefix + columnar blob +
        // stored-bytes checksum) at the end: every byte of the addition
        // checksums cleanly, so only the frame-count cross-check can catch
        // it.
        let first_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let frame = bytes[16..20 + first_len + 8].to_vec();
        bytes.extend_from_slice(&frame);
        fs::write(&path, &bytes).unwrap();
        let err = load_agreeing_with_salvage(&dir).unwrap_err();
        match &err {
            DumpError::Inconsistent { detail, .. } => {
                assert!(detail.contains("well-formed frame"), "{err}")
            }
            other => panic!("expected Inconsistent, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A small deterministic program with data segments and symbols, for
    /// image-embedding tests.
    fn test_program() -> Arc<Program> {
        use bugnet_isa::{AluOp, ProgramBuilder, Reg};
        let mut b = ProgramBuilder::new("dump-test-program");
        let counter = b.alloc_data_word(7);
        b.li_addr(Reg::R3, counter);
        b.load(Reg::R4, Reg::R3, 0);
        b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
        b.store(Reg::R4, Reg::R3, 0);
        b.halt();
        let mut p = b.build();
        p.add_symbol("counter", counter);
        Arc::new(p)
    }

    #[test]
    fn v3_dump_embeds_and_round_trips_program_images() {
        let dir = temp_dir("image-roundtrip");
        let store = store_with_logs(2, 2);
        let program = test_program();
        let written = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        assert_eq!(written.version, DUMP_VERSION);
        assert_eq!(written.embedded_images(), 2);
        assert!(written.is_self_contained());
        assert!(written.total_image_size().bytes() > 0);
        for t in &written.threads {
            assert!(t.has_image);
            assert!(t.image_raw_bytes > 0);
            assert!(t.image_stored_bytes > 0);
            assert!(dir.join(t.image_file()).exists());
        }

        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        assert!(dump.is_self_contained());
        for t in &dump.threads {
            assert_eq!(t.image.as_deref(), Some(program.as_ref()));
        }
        assert_eq!(
            dump.embedded_program(ThreadId(0)).map(|p| p.name()),
            Some("dump-test-program")
        );
        let report = dump.verify().unwrap();
        assert_eq!(report.images, 2);
        assert!(report.image_raw_bytes > 0);
        assert!(report.image_ratio() >= 1.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_embedding_is_per_thread() {
        let dir = temp_dir("image-partial");
        let store = store_with_logs(2, 1);
        let program = test_program();
        let written = write_dump(&dir, &meta(), &store, |t| {
            (t == ThreadId(0)).then(|| Arc::clone(&program))
        })
        .unwrap();
        assert_eq!(written.embedded_images(), 1);
        assert!(!written.is_self_contained());
        let dump = CrashDump::load(&dir).unwrap();
        assert!(dump.thread(ThreadId(0)).unwrap().image.is_some());
        assert!(dump.thread(ThreadId(1)).unwrap().image.is_none());
        assert!(!dump.is_self_contained());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_file_bit_flips_are_typed_errors() {
        let dir = temp_dir("image-flip");
        let store = store_with_logs(1, 1);
        let program = test_program();
        let manifest = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        let path = dir.join(manifest.threads[0].image_file());
        let original = fs::read(&path).unwrap();
        // Exhaustive: every bit of every byte. This is what forced the v3
        // stored-bytes frame checksum — LZ streams are redundant enough
        // that some encoded-region flips decompress to identical raw bytes
        // and sail through the container's raw-payload checksum.
        for pos in 0..original.len() {
            for bit in 0..8 {
                let mut bytes = original.clone();
                bytes[pos] ^= 1 << bit;
                fs::write(&path, &bytes).unwrap();
                let err = load_agreeing_with_salvage(&dir).unwrap_err();
                assert!(
                    matches!(
                        err,
                        DumpError::ChecksumMismatch { .. }
                            | DumpError::CorruptLog { .. }
                            | DumpError::Inconsistent { .. }
                            | DumpError::Truncated { .. }
                            | DumpError::TrailingBytes { .. }
                            | DumpError::BadMagic { .. }
                            | DumpError::UnsupportedVersion { .. }
                    ),
                    "flip of bit {bit} at {pos}: {err}"
                );
            }
        }
        fs::write(&path, &original).unwrap();
        assert!(load_agreeing_with_salvage(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appended_image_frame_is_a_frame_count_inconsistency() {
        let dir = temp_dir("image-extra-frame");
        let store = store_with_logs(1, 1);
        let program = test_program();
        let manifest = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        let path = dir.join(manifest.threads[0].image_file());
        let mut bytes = fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let frame = bytes[16..20 + first_len].to_vec();
        bytes.extend_from_slice(&frame);
        fs::write(&path, &bytes).unwrap();
        let err = load_agreeing_with_salvage(&dir).unwrap_err();
        match &err {
            DumpError::Inconsistent { file, detail } => {
                assert!(file.starts_with("image-"), "{err}");
                assert!(detail.contains("well-formed frame"), "{err}");
            }
            other => panic!("expected Inconsistent, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_declared_image_file_is_a_typed_error() {
        let dir = temp_dir("image-missing");
        let store = store_with_logs(1, 1);
        let program = test_program();
        let manifest = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        fs::remove_file(dir.join(manifest.threads[0].image_file())).unwrap();
        assert!(matches!(
            CrashDump::load(&dir).unwrap_err(),
            DumpError::Io { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unencodable_programs_are_rejected_at_write_time() {
        use bugnet_isa::DataSegment;
        use bugnet_types::Word;
        let store = store_with_logs(1, 1);

        // More data segments than the image wire format allows: the writer
        // must refuse with a typed error, not produce a dump its own
        // loader rejects.
        let segments: Vec<DataSegment> = (0..4097)
            .map(|i| DataSegment {
                base: Addr::new(0x1000_0000 + i as u64 * 16),
                words: vec![Word::new(0)],
            })
            .collect();
        let oversized = Arc::new(Program::new(
            "oversized",
            vec![bugnet_isa::Instr::Halt],
            Addr::new(0x40_0000),
            0,
            segments,
        ));
        let dir = temp_dir("image-oversized");
        let err = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&oversized)))
            .expect_err("oversized image must be rejected at write time");
        match &err {
            DumpError::Inconsistent { file, detail } => {
                assert!(file.starts_with("image-"), "{err}");
                assert!(detail.contains("wire-format limits"), "{err}");
            }
            other => panic!("expected Inconsistent, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);

        // Two symbols sharing an over-limit name prefix would be collapsed
        // by string truncation: the decoded image would differ from the
        // recorded binary, so the writer must refuse.
        let mut collapsing = (*test_program()).clone();
        let long = "s".repeat(5000);
        collapsing.add_symbol(format!("{long}a"), Addr::new(0x100));
        collapsing.add_symbol(format!("{long}b"), Addr::new(0x200));
        let collapsing = Arc::new(collapsing);
        let dir = temp_dir("image-collapse");
        let err = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&collapsing)))
            .expect_err("symbol-collapsing image must be rejected at write time");
        assert!(
            matches!(&err, DumpError::Inconsistent { detail, .. }
                if detail.contains("round-trip")),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_prefers_the_embedded_image() {
        // The fallback closure must not even be consulted for threads with
        // an embedded image.
        let dir = temp_dir("image-replay-pref");
        let store = store_with_logs(1, 1);
        let program = test_program();
        write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        let dump = CrashDump::load(&dir).unwrap();
        let mut fallback_calls = 0;
        // The synthetic logs here do not replay against the test program
        // (that end-to-end path is covered by the integration tests); what
        // matters is that the fallback was never consulted.
        let result = dump.replay(|_| {
            fallback_calls += 1;
            None
        });
        assert_eq!(fallback_calls, 0);
        if let Ok(report) = &result {
            assert!(report.unreplayable_threads.is_empty());
        }
        // An override ignores the embedded image: with no override programs
        // the thread is unreplayable.
        let opts = ReplayOptions {
            images: ImageSource::Override,
            ..ReplayOptions::default()
        };
        let report = dump.replay_with(opts, |_| None).unwrap();
        assert_eq!(report.unreplayable_threads, vec![ThreadId(0)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_fields_are_manifest_errors_not_frame_errors() {
        // Satellite sweep: a manifest field corruption must surface as
        // CorruptManifest (manifest context), never as a frame-level
        // CorruptLog claiming "frame 0 is corrupt".
        let dir = temp_dir("manifest-field");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let original = fs::read(&path).unwrap();
        // The codec byte sits right after magic (8) + version (4).
        let mut bytes = original.clone();
        bytes[12] = 0xEE;
        reseal_manifest(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        match &err {
            DumpError::CorruptManifest { detail } => {
                assert!(detail.contains("codec"), "{err}");
                assert!(!err.to_string().contains("frame"), "{err}");
            }
            other => panic!("expected CorruptManifest, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Recomputes and rewrites the manifest's trailing checksum, so tests
    /// can corrupt declared fields without tripping the checksum first.
    fn reseal_manifest(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn frame_length_forgery_is_corruption_not_truncation() {
        // Satellite sweep: shrinking a frame's length prefix cuts the
        // container short while the file keeps its full length — that is
        // frame corruption (CorruptLog), not file truncation. Exercised on
        // a copy of the v2 fixture: from v3 on the stored-bytes checksum
        // trips first (also a typed error, tested elsewhere).
        let dir = fixture_copy(DUMP_VERSION_V2, "frame-length-forgery");
        let path = dir.join("thread-0.fll");
        let original = fs::read(&path).unwrap();
        // Shrink the first frame's length prefix below the container header
        // size; the declared bytes are all present, the container is not.
        for forged_len in [0u32, 5, 16] {
            let mut bytes = original.clone();
            bytes[16..20].copy_from_slice(&forged_len.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let err = load_agreeing_with_salvage(&dir).unwrap_err();
            assert!(
                matches!(err, DumpError::CorruptLog { .. }),
                "forged length {forged_len}: expected CorruptLog, got {err}"
            );
            assert!(
                !matches!(err, DumpError::Truncated { .. }),
                "forged length {forged_len} misreported as file truncation"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v4_dedups_identical_images_across_threads() {
        let dir = temp_dir("v4-dedup");
        let store = store_with_logs(3, 2);
        let program = test_program();
        let written = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        assert_eq!(written.version, DUMP_VERSION);
        assert_eq!(written.embedded_images(), 3);
        // All three threads run the same binary: one content-addressed file.
        assert_eq!(written.unique_images(), 1);
        let hash = written.threads[0].image_hash.unwrap();
        for t in &written.threads {
            assert_eq!(t.image_hash, Some(hash));
            assert_eq!(t.image_file(), format!("image-{hash:016x}.bni"));
        }
        let image_files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("image-"))
            .collect();
        assert_eq!(image_files, vec![format!("image-{hash:016x}.bni")]);
        // Totals count the deduplicated file once.
        assert_eq!(
            written.total_image_size().bytes(),
            written.threads[0].image_raw_bytes
        );

        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        assert!(dump.is_self_contained());
        // One decoded program, shared by every thread.
        let first = dump.threads[0].image.as_ref().unwrap();
        for t in &dump.threads {
            assert!(Arc::ptr_eq(t.image.as_ref().unwrap(), first));
        }
        let report = dump.verify().unwrap();
        assert_eq!(report.images, 3);
        assert_eq!(report.image_raw_bytes, written.threads[0].image_raw_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v4_stores_distinct_images_separately() {
        let dir = temp_dir("v4-distinct");
        let store = store_with_logs(2, 1);
        let a = test_program();
        let mut other = (*test_program()).clone();
        other.add_symbol("extra", Addr::new(0x300));
        let b = Arc::new(other);
        let written = write_dump(&dir, &meta(), &store, |t| {
            Some(if t == ThreadId(0) {
                Arc::clone(&a)
            } else {
                Arc::clone(&b)
            })
        })
        .unwrap();
        assert_eq!(written.unique_images(), 2);
        assert_ne!(written.threads[0].image_hash, written.threads[1].image_hash);
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.threads[0].image.as_deref(), Some(a.as_ref()));
        assert_eq!(dump.threads[1].image.as_deref(), Some(b.as_ref()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_of_a_clean_dump_is_lossless() {
        let dir = temp_dir("salvage-clean");
        let store = store_with_logs(2, 3);
        let program = test_program();
        write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        let strict = CrashDump::load(&dir).unwrap();
        let salvaged = CrashDump::load_salvage(&dir).unwrap();
        assert!(salvaged.report.is_clean(), "{:?}", salvaged.report);
        assert_eq!(salvaged.report.intact_intervals, 6);
        assert_eq!(salvaged.report.lost_intervals, 0);
        assert_eq!(salvaged.report.lost_frames(), 0);
        assert_eq!(salvaged.dump, strict);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_recovers_the_intact_prefix_of_a_truncated_log() {
        let dir = temp_dir("salvage-trunc");
        let store = store_with_logs(1, 3);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let original = fs::read(&path).unwrap();
        // Truncate at every possible byte offset; salvage must never panic,
        // and must recover exactly the frames whose bytes fully survive.
        for cut in 0..original.len() {
            fs::write(&path, &original[..cut]).unwrap();
            let salvaged = CrashDump::load_salvage(&dir).unwrap();
            let fll = salvaged
                .report
                .files
                .iter()
                .find(|f| f.file == manifest.threads[0].fll_file())
                .unwrap();
            assert!(fll.intact_frames <= 3, "cut {cut}");
            assert_eq!(
                u64::from(fll.intact_frames) + salvaged.report.lost_intervals,
                3,
                "cut {cut}: intervals must be fll-limited here"
            );
            if cut < original.len() {
                assert!(fll.cause.is_some(), "cut {cut}: loss must have a cause");
                assert!(fll.first_bad_offset.is_some(), "cut {cut}");
            }
            // The salvaged dump is internally consistent: deep verify works.
            let report = salvaged.dump.verify().unwrap();
            assert_eq!(report.checkpoints, u64::from(fll.intact_frames));
        }
        fs::write(&path, &original).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_ground_truth_matches_frame_layout() {
        // Cut exactly at each frame boundary and check the loss report
        // against the known layout: 16-byte header, then per frame a
        // 4-byte length prefix + container + 8-byte stored checksum.
        let dir = temp_dir("salvage-exact");
        let store = store_with_logs(1, 3);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let original = fs::read(&path).unwrap();
        let mut boundaries = vec![16u64];
        {
            let mut pos = 16usize;
            for _ in 0..3 {
                let len = u32::from_le_bytes(original[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4 + len + 8;
                boundaries.push(pos as u64);
            }
            assert_eq!(pos, original.len(), "layout walk must cover the file");
        }
        for (frames_kept, cut) in boundaries.iter().enumerate() {
            fs::write(&path, &original[..*cut as usize]).unwrap();
            let salvaged = CrashDump::load_salvage(&dir).unwrap();
            let fll = salvaged
                .report
                .files
                .iter()
                .find(|f| f.file.ends_with(".fll"))
                .unwrap();
            assert_eq!(fll.intact_frames as usize, frames_kept, "cut at {cut}");
            assert_eq!(fll.declared_frames, 3);
            assert_eq!(
                salvaged.report.intact_intervals as usize, frames_kept,
                "cut at {cut}"
            );
            if frames_kept < 3 {
                // The first bad offset is the cut frame's start.
                assert_eq!(fll.first_bad_offset, Some(*cut), "cut at {cut}");
                assert!(matches!(fll.cause, Some(DumpError::Truncated { .. })));
            }
        }
        fs::write(&path, &original).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_pairs_intervals_across_both_logs() {
        // MRL truncated to fewer frames than the FLL: intervals are limited
        // by the pair, and the FLL's own report stays at its byte-level
        // intact count.
        let dir = temp_dir("salvage-pair");
        let store = store_with_logs(1, 3);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let mrl_path = dir.join(manifest.threads[0].mrl_file());
        let original = fs::read(&mrl_path).unwrap();
        // Keep header + first frame of the MRL.
        let first_len = u32::from_le_bytes(original[16..20].try_into().unwrap()) as usize;
        fs::write(&mrl_path, &original[..16 + 4 + first_len + 8]).unwrap();
        let salvaged = CrashDump::load_salvage(&dir).unwrap();
        assert_eq!(salvaged.report.intact_intervals, 1);
        assert_eq!(salvaged.report.lost_intervals, 2);
        let fll = salvaged
            .report
            .files
            .iter()
            .find(|f| f.file.ends_with(".fll"))
            .unwrap();
        assert_eq!(fll.intact_frames, 3, "FLL itself is fully intact");
        let mrl = salvaged
            .report
            .files
            .iter()
            .find(|f| f.file.ends_with(".mrl"))
            .unwrap();
        assert_eq!(mrl.intact_frames, 1);
        assert_eq!(salvaged.dump.threads[0].checkpoints.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_survives_a_lost_image_and_a_lost_log_file() {
        let dir = temp_dir("salvage-missing");
        let store = store_with_logs(2, 2);
        let program = test_program();
        let manifest = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        // Destroy the (shared) image file and thread 1's FLL entirely.
        fs::remove_file(dir.join(manifest.threads[0].image_file())).unwrap();
        fs::remove_file(dir.join(manifest.threads[1].fll_file())).unwrap();
        let salvaged = CrashDump::load_salvage(&dir).unwrap();
        assert_eq!(salvaged.report.lost_images, 1);
        assert_eq!(salvaged.report.intact_intervals, 2);
        assert_eq!(salvaged.report.lost_intervals, 2);
        assert!(salvaged.dump.threads.iter().all(|t| t.image.is_none()));
        // Thread 0's intervals replay-ready; thread 1 contributes none.
        assert_eq!(salvaged.dump.threads[0].checkpoints.len(), 2);
        assert_eq!(salvaged.dump.threads[1].checkpoints.len(), 0);
        let fll1 = salvaged
            .report
            .files
            .iter()
            .find(|f| f.file == manifest.threads[1].fll_file())
            .unwrap();
        assert!(matches!(fll1.cause, Some(DumpError::Io { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_rejects_checksum_damaged_frames() {
        // A bit flip inside a frame: salvage keeps earlier frames, drops the
        // damaged one and everything after it (no resynchronization — a
        // forged length could otherwise smuggle bytes).
        let dir = temp_dir("salvage-flip");
        let store = store_with_logs(1, 3);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let original = fs::read(&path).unwrap();
        // Second frame starts after header + first frame.
        let first_len = u32::from_le_bytes(original[16..20].try_into().unwrap()) as usize;
        let second_start = 16 + 4 + first_len + 8;
        let mut bytes = original.clone();
        bytes[second_start + 10] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let salvaged = CrashDump::load_salvage(&dir).unwrap();
        let fll = salvaged
            .report
            .files
            .iter()
            .find(|f| f.file.ends_with(".fll"))
            .unwrap();
        assert_eq!(fll.intact_frames, 1);
        assert_eq!(fll.first_bad_offset, Some(second_start as u64));
        assert!(fll.cause.is_some());
        assert_eq!(salvaged.report.intact_intervals, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_without_a_manifest_is_fatal() {
        let dir = temp_dir("salvage-no-manifest");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = CrashDump::load_salvage(&dir).unwrap_err();
        assert!(matches!(err, DumpError::Io { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_io_surfaces_as_typed_dump_errors_with_op_context() {
        use crate::io::{FaultIo, FaultKind};
        let base = temp_dir("write-faults");
        fs::create_dir_all(&base).unwrap();
        let store = store_with_logs(1, 1);
        let dir = base.join("crash");
        let mut io = FaultIo::new(StdIo::new(), 2, FaultKind::Enospc);
        let err = write_dump_with_io(&dir, &meta(), &store, |_| None, &mut io).unwrap_err();
        match &err {
            DumpError::Io { op, source, .. } => {
                assert_eq!(*op, IoOp::WriteFile);
                assert_eq!(source.raw_os_error(), Some(28));
            }
            other => panic!("expected Io, got {other}"),
        }
        assert!(err.to_string().contains("write"), "{err}");
        assert!(!dir.exists());
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn manifest_table_contradictions_are_inconsistent_to_load_and_salvage() {
        // Every frame intact, but the (re-checksummed) manifest table
        // disagrees with what the files hold: salvage recovers everything
        // yet reports the contradiction, and strict load refuses with it.
        let dir = temp_dir("table-contradiction");
        let store = store_with_logs(1, 2);
        let program = test_program();
        let written = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        // (forgery, file that must carry the cause, text of the cause)
        type Forgery = (fn(&mut ThreadManifest), &'static str, &'static str);
        let forgeries: [Forgery; 3] = [
            (|t| t.instructions += 1, ".fll", "instructions"),
            (|t| t.mrl_stored_bytes += 1, ".mrl", "stored bytes"),
            (|t| t.image_raw_bytes += 1, ".bni", "manifest declares"),
        ];
        for (mutate, file, detail) in forgeries {
            let mut forged = written.clone();
            mutate(&mut forged.threads[0]);
            fs::write(dir.join(MANIFEST_FILE), forged.encode()).unwrap();
            let salvaged = CrashDump::load_salvage(&dir).unwrap();
            assert_eq!(salvaged.report.lost_intervals, 0);
            let entry = salvaged.report.files.iter().find(|f| f.cause.is_some());
            let entry = entry.expect("the contradiction is reported");
            assert!(entry.file.ends_with(file), "{entry:?}");
            match load_agreeing_with_salvage(&dir).unwrap_err() {
                DumpError::Inconsistent { detail: d, .. } => assert!(d.contains(detail), "{d}"),
                other => panic!("expected Inconsistent, got {other}"),
            }
        }
        fs::write(dir.join(MANIFEST_FILE), written.encode()).unwrap();
        assert_eq!(CrashDump::load(&dir).unwrap().manifest, written);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_display_names_the_file() {
        let err = DumpError::ChecksumMismatch {
            file: "thread-0.fll".into(),
            frame: Some(2),
            expected: 1,
            actual: 2,
        };
        let text = err.to_string();
        assert!(text.contains("thread-0.fll"));
        assert!(text.contains("frame 2"));
        assert!(DumpError::NoRecorder.to_string().contains("recorder"));
    }
}
