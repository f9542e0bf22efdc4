//! Corruption-tolerance properties of the proof journal (ISSUE 4,
//! satellite 1): a valid journal truncated at *every* byte offset, or
//! hit by a single flipped byte at a random offset, must (a) never
//! panic the loader, (b) never yield a record that was not a valid
//! prefix record of the original file, and (c) always be appendable
//! and cleanly re-loadable afterwards.
//!
//! The truncation sweep is exhaustive and deterministic; the byte-flip
//! sweep is seeded through the property harness, so a failure is
//! reproducible with `COBALT_PROP_SEED=<seed>`.

use cobalt_support::journal::{Journal, FRAME, MAGIC};
use cobalt_support::{prop, prop_assert, prop_assert_eq, props};
use std::path::PathBuf;
use std::time::Duration;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A fresh path in the temp dir, unique across tests and cases.
fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cobalt_journal_prop_{}_{tag}_{n}.cobj",
        std::process::id()
    ))
}

/// Payloads spanning the interesting shapes: empty, short, tab/newline
/// riddled, binary, and one long enough to span several cache lines.
fn base_payloads() -> Vec<Vec<u8>> {
    vec![
        b"".to_vec(),
        b"v1\tfp=00ff\trule=const_prop\tproved=1".to_vec(),
        b"line\nbreaks\rand\ttabs\\".to_vec(),
        vec![0u8, 255, 128, 7, 0, 13, 10],
        vec![b'x'; 300],
        b"final-record".to_vec(),
    ]
}

/// The raw bytes of a journal holding [`base_payloads`], built once.
fn base_file() -> &'static Vec<u8> {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(|| {
        let path = scratch_path("base");
        let mut opened = Journal::open(&path, Duration::ZERO).expect("fresh journal opens");
        for p in base_payloads() {
            opened.journal.append(&p).expect("append");
        }
        opened.journal.sync().expect("sync");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// Byte offsets at which each record of [`base_payloads`] ends, i.e.
/// the clean truncation points of the base file.
fn record_end_offsets() -> Vec<usize> {
    let mut at = MAGIC.len();
    base_payloads()
        .iter()
        .map(|p| {
            at += FRAME + p.len();
            at
        })
        .collect()
}

/// Writes `bytes` to a fresh file, opens it as a journal, and checks
/// the three loader invariants. Returns the recovered record count.
fn check_recovery(tag: &str, bytes: &[u8]) -> Result<usize, prop::CaseError> {
    let originals = base_payloads();
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).expect("write corrupt image");

    // (a) + (b): loading never panics (a panic would fail the whole
    // test) and yields only a prefix of the original record sequence —
    // anything else would be a trusted-but-wrong record.
    let opened =
        Journal::open(&path, Duration::ZERO).expect("open never errors on corrupt bytes");
    let n = opened.records.len();
    prop_assert!(
        n <= originals.len(),
        "loader invented records: {n} > {}",
        originals.len()
    );
    for (i, rec) in opened.records.iter().enumerate() {
        prop_assert_eq!(
            rec,
            &originals[i],
            "record {i} of {n} is not the original payload"
        );
    }
    drop(opened);

    // (c): the journal is appendable after recovery, and the appended
    // record lands after the recovered prefix with no residual
    // corruption (open() truncated the bad tail away).
    let fresh = b"post-recovery append".to_vec();
    let mut reopened = Journal::open(&path, Duration::ZERO).expect("reopen after repair");
    prop_assert!(
        !reopened.report.corrupted(),
        "first open must have repaired the file: {:?}",
        reopened.report
    );
    prop_assert_eq!(reopened.records.len(), n, "repair must preserve the prefix");
    reopened.journal.append(&fresh).expect("append after recovery");
    reopened.journal.sync().expect("sync after recovery");
    drop(reopened);

    let last = Journal::open(&path, Duration::ZERO).expect("open after append");
    prop_assert_eq!(last.records.len(), n + 1);
    prop_assert_eq!(last.records.last().expect("appended record"), &fresh);
    prop_assert!(!last.report.corrupted(), "{:?}", last.report);
    drop(last);

    std::fs::remove_file(&path).ok();
    Ok(n)
}

/// Exhaustive sweep: truncating the journal at every byte offset from 0
/// to the full length recovers exactly the records that end at or
/// before the cut, and nothing else.
#[test]
fn truncation_at_every_byte_offset_recovers_the_exact_valid_prefix() {
    let bytes = base_file();
    let ends = record_end_offsets();
    assert_eq!(*ends.last().unwrap(), bytes.len(), "offsets cover the file");

    for cut in 0..=bytes.len() {
        let expected = ends.iter().filter(|&&e| e <= cut).count();
        let got = check_recovery("trunc", &bytes[..cut])
            .unwrap_or_else(|e| panic!("cut at byte {cut}: {e:?}"));
        assert_eq!(
            got, expected,
            "cut at byte {cut}: recovered {got} records, expected {expected}"
        );
    }
}

props! {
    config = prop::Config::with_cases(192);

    /// A single flipped byte anywhere in the file never panics the
    /// loader, never produces a non-original record, and never makes
    /// the journal unappendable. (Offset and bit are drawn from the
    /// seeded harness; rerun with `COBALT_PROP_SEED` to reproduce.)
    fn single_byte_flip_is_contained(raw_offset in 0u64..1_000_000, bit in 0u32..8) {
        let mut bytes = base_file().clone();
        let offset = (raw_offset as usize) % bytes.len();
        bytes[offset] ^= 1u8 << bit;
        let n = check_recovery("flip", &bytes)?;

        // A flip strictly before a record's last byte can only hide
        // that record and its successors, never earlier ones.
        let intact = record_end_offsets()
            .iter()
            .filter(|&&e| e <= offset)
            .count();
        prop_assert!(
            n >= intact,
            "flip at byte {offset} destroyed records before it: {n} < {intact}"
        );
    }

    /// Truncation combined with a flip inside the surviving prefix —
    /// the compound failure a torn write plus media error produces.
    fn truncation_plus_flip_is_contained(
        cut_raw in 0u64..1_000_000,
        flip_raw in 0u64..1_000_000,
        bit in 0u32..8,
    ) {
        let full = base_file();
        let cut = 1 + (cut_raw as usize) % full.len();
        let mut bytes = full[..cut].to_vec();
        let offset = (flip_raw as usize) % bytes.len();
        bytes[offset] ^= 1u8 << bit;
        check_recovery("truncflip", &bytes)?;
    }
}
