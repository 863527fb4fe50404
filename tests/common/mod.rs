//! Helpers shared by the dump integration tests.

use std::mem::discriminant;
use std::path::Path;

use bugnet::core::dump::{CrashDump, DumpError};

/// Loads a dump strictly and checks that strict loading and salvage agree,
/// as they must — they are one parser: `load` succeeds exactly when the
/// salvage report is clean, and otherwise both name the same [`DumpError`]
/// variant (salvage's first cause in report order, or the same fatal
/// manifest error).
pub fn load_agreeing_with_salvage(dir: &Path) -> Result<CrashDump, DumpError> {
    let strict = CrashDump::load(dir);
    match (&strict, CrashDump::load_salvage(dir)) {
        (_, Ok(salvaged)) => {
            assert_eq!(
                strict.is_ok(),
                salvaged.report.is_clean(),
                "{}: strict {strict:?} vs salvage {:?}",
                dir.display(),
                salvaged.report
            );
            if let Err(e) = &strict {
                let first = salvaged.report.files.iter().find_map(|f| f.cause.as_ref());
                assert_eq!(Some(discriminant(e)), first.map(discriminant), "{e}");
            }
        }
        (Err(e), Err(fatal)) => assert_eq!(discriminant(e), discriminant(&fatal), "{e}"),
        (Ok(_), Err(fatal)) => panic!("salvage failed on a loadable dump: {fatal}"),
    }
    strict
}
