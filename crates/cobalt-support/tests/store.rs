//! The record store's contract, once for every consumer (verify
//! session, engine session, serve cache): site faults at open and at
//! insert, `Fresh` reset, latest-wins loading, first-reason
//! degradation, lock contention, and ordered compaction on finish.

use cobalt_support::fault;
use cobalt_support::journal::{
    decode_fields, encode_fields, Journal, Record, ResumeMode, Store, DEFAULT_LOCK_WAIT,
};
use std::path::PathBuf;
use std::time::Duration;

const SITE: &str = "store.test";

#[derive(Debug, Clone, PartialEq, Eq)]
struct Rec {
    fp: u64,
    text: String,
}

impl Record for Rec {
    fn fingerprint(&self) -> u64 {
        self.fp
    }

    fn encode(&self) -> Vec<u8> {
        encode_fields(self.fp, &[("text", &self.text)])
    }

    fn decode(payload: &[u8]) -> Option<Rec> {
        let (fp, [text]) = decode_fields(payload, ["text"])?;
        Some(Rec { fp, text })
    }
}

fn rec(fp: u64, text: &str) -> Rec {
    Rec { fp, text: text.into() }
}

fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cobalt_store_{}_{name}", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

fn open_waiting(path: &PathBuf, mode: ResumeMode, lock_wait: Duration) -> Store<Rec> {
    Store::open(path, mode, lock_wait, Some(SITE))
}

fn open(path: &PathBuf, mode: ResumeMode) -> Store<Rec> {
    open_waiting(path, mode, DEFAULT_LOCK_WAIT)
}

/// The raw payloads on disk, in file order.
fn on_disk(path: &PathBuf) -> Vec<Vec<u8>> {
    Journal::open(path, Duration::ZERO).expect("journal reopens").records
}

#[test]
fn site_fault_at_open_degrades_but_memory_still_answers() {
    let path = scratch("open_fault");
    let mut store = fault::with_faults(&format!("{SITE}:fail@1"), || open(&path, ResumeMode::Resume));
    let why = store.degraded().expect("open fault degrades").to_string();
    assert!(why.contains(SITE), "{why}");
    store.insert(rec(1, "kept in memory"));
    assert_eq!(store.get(1), Some(&rec(1, "kept in memory")));
    assert!(on_disk(&path).is_empty(), "nothing was journaled");
    std::fs::remove_file(&path).ok();
}

#[test]
fn site_fault_at_first_insert_degrades_but_memory_still_answers() {
    let path = scratch("insert_fault");
    let mut store = open(&path, ResumeMode::Resume);
    assert!(store.degraded().is_none());
    fault::with_faults(&format!("{SITE}:fail@1"), || store.insert(rec(1, "a")));
    let why = store.degraded().expect("insert fault degrades").to_string();
    assert!(why.contains("journal write failed"), "{why}");
    store.insert(rec(2, "b"));
    assert_eq!(store.get(1), Some(&rec(1, "a")));
    assert_eq!(store.get(2), Some(&rec(2, "b")));
    drop(store);
    assert!(on_disk(&path).is_empty(), "nothing persisted after the fault");
    std::fs::remove_file(&path).ok();
}

#[test]
fn fresh_mode_truncates_the_file() {
    let path = scratch("fresh");
    let mut store = open(&path, ResumeMode::Resume);
    store.insert(rec(1, "old"));
    drop(store);
    assert_eq!(on_disk(&path).len(), 1);
    let store = open(&path, ResumeMode::Fresh);
    assert!(store.is_empty());
    assert_eq!(store.load_report().records, 0);
    drop(store);
    assert!(on_disk(&path).is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn latest_record_wins_on_load() {
    let path = scratch("latest");
    let mut store = open(&path, ResumeMode::Resume);
    store.insert(rec(7, "first"));
    store.insert(rec(7, "second"));
    store.insert(rec(8, "other"));
    drop(store); // unclean: no finish(), the appends alone must load
    let store = open(&path, ResumeMode::Resume);
    assert_eq!(store.load_report().records, 3);
    assert_eq!(store.len(), 2);
    assert_eq!(store.get(7), Some(&rec(7, "second")));
    std::fs::remove_file(&path).ok();
}

#[test]
fn first_degrade_reason_is_kept() {
    let path = scratch("first_reason");
    let mut store = open(&path, ResumeMode::Resume);
    fault::with_faults(&format!("{SITE}:fail@1"), || store.insert(rec(1, "a")));
    let first = store.degraded().unwrap().to_string();
    assert!(first.contains(SITE), "{first}");
    // Later write and compaction faults must not overwrite the reason.
    fault::with_faults("journal.write:fail,journal.fsync:fail", || {
        store.insert(rec(2, "b"));
        store.finish(&[1, 2]);
    });
    assert_eq!(store.degraded(), Some(first.as_str()));
    // An open that fails outright yields a degraded store.
    let failed: Store<Rec> =
        Store::open(std::env::temp_dir(), ResumeMode::Resume, DEFAULT_LOCK_WAIT, None);
    assert!(failed.degraded().unwrap().contains("journal unavailable"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn contention_degrades_and_finish_compacts_in_order_then_unlocks() {
    let path = scratch("finish");
    let mut store = open(&path, ResumeMode::Resume);
    for (fp, text) in [(1, "one"), (2, "two"), (3, "three")] {
        store.insert(rec(fp, text));
    }
    let contender = open_waiting(&path, ResumeMode::Resume, Duration::from_millis(20));
    let why = contender.degraded().expect("contention degrades");
    assert!(why.contains("journal lock unavailable"), "{why}");
    // Unknown fingerprints are skipped; order is the caller's.
    store.finish(&[3, 99, 1]);
    assert!(store.degraded().is_none());
    assert!(!store.is_journaled(), "finish releases the journal");
    assert_eq!(on_disk(&path), [rec(3, "three").encode(), rec(1, "one").encode()]);
    // The lock was released: a second locked open acquires it.
    let again = open_waiting(&path, ResumeMode::Resume, Duration::ZERO);
    assert!(again.is_journaled(), "{:?}", again.degraded());
    assert_eq!(again.len(), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn field_codec_skips_unknown_keys_and_rejects_malformed_fields() {
    let r = rec(0xabc, "tab\there\nnewline\\");
    assert_eq!(r.encode(), b"v1\tfp=0000000000000abc\ttext=tab\\there\\nnewline\\\\");
    let mut extended = r.encode();
    extended.extend_from_slice(b"\tfuture=whatever");
    assert_eq!(Rec::decode(&extended), Some(r));
    assert_eq!(Rec::decode(b"v1\tfp=01"), None, "short");
    assert_eq!(Rec::decode(b"v2\tfp=01\ttext=x"), None, "version");
    assert_eq!(Rec::decode(b"v1\tfp=01\ttext"), None, "field without =");
    assert_eq!(Rec::decode(b"v1\tfp=01\ttext=bad\\x"), None, "bad escape");
}
