//! The shared proof cache: a journal-backed [`Store`] mapping request
//! fingerprint to a finished, deterministic result.
//!
//! The store supplies the durability rules (`DESIGN.md` §10): a daemon
//! kill loses at most the in-flight work, and any journal trouble
//! (including an injected `serve.cache` fault) **degrades to uncached
//! service** — identical verdicts, plus a `note` on every response. A
//! cache problem can never change a verdict.
//!
//! Only *deterministic* outcomes are cached: exit 0 (proved / ok) and
//! exit 2 (unsound). Resource-limited (exit 3) and error (exit 1)
//! outcomes depend on budgets and transient conditions, so replaying
//! them could flip a verdict that a fresh run would get right — they
//! are always re-executed.

use crate::proto::{Response, ServedFrom};
use cobalt_support::journal::{
    decode_fields, encode_fields, Record, ResumeMode, Store,
};
use std::path::Path;
use std::time::Duration;

/// One cached result: everything needed to replay a response except
/// the correlation id (which belongs to the asking client, not the
/// proof).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// Request fingerprint (see `exec::request_fingerprint`).
    pub fingerprint: u64,
    /// `verify` or `optimize`.
    pub op: String,
    /// CLI-compatible exit code (only 0 and 2 are ever cached).
    pub exit: u8,
    /// Human verdict (`proved`, `unsound`, `ok`).
    pub verdict: String,
    /// The deterministic report text.
    pub output: String,
}

impl CachedResult {
    /// Whether this outcome is deterministic and therefore cacheable.
    /// Exit 3 (resource-limited) depends on budgets; exit 1 (error)
    /// may be transient. Neither may be replayed.
    pub fn cacheable(exit: u8) -> bool {
        exit == 0 || exit == 2
    }

    /// Replays this result as a response for `id`.
    pub fn to_response(&self, id: &str, served: ServedFrom) -> Response {
        Response::ok(id, self.exit, &self.verdict, served, self.output.clone())
    }
}

/// Tab-separated `key=value` fields behind a version tag. Short records
/// and non-deterministic exits decode to `None`: skipped, never trusted.
impl Record for CachedResult {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn encode(&self) -> Vec<u8> {
        encode_fields(
            self.fingerprint,
            &[
                ("op", &self.op),
                ("exit", &self.exit),
                ("verdict", &self.verdict),
                ("output", &self.output),
            ],
        )
    }

    fn decode(payload: &[u8]) -> Option<CachedResult> {
        let (fingerprint, [op, exit, verdict, output]) =
            decode_fields(payload, ["op", "exit", "verdict", "output"])?;
        let exit = exit.parse().ok().filter(|&e| Self::cacheable(e))?;
        Some(CachedResult {
            fingerprint,
            op,
            exit,
            verdict,
            output,
        })
    }
}

/// A journal-backed, degrade-don't-fail proof cache. All methods are
/// infallible from the caller's perspective: trouble flips the cache
/// into its degraded (in-memory-only) state and the daemon keeps
/// serving.
#[derive(Debug)]
pub struct ProofCache {
    store: Store<CachedResult>,
}

impl ProofCache {
    /// A cache with no journal: single-flight dedup and in-memory
    /// replay still work, nothing survives a restart.
    pub fn in_memory() -> ProofCache {
        ProofCache {
            store: Store::in_memory(),
        }
    }

    /// Opens (creating if absent) the cache journal at `path` under
    /// its advisory exclusive lock, replaying intact records into the
    /// in-memory index (`ResumeMode::Fresh` truncates instead). Trouble
    /// — open failure, lock contention, an injected `serve.cache`
    /// fault — yields a *degraded* in-memory cache, never an error:
    /// the daemon must come up and serve regardless.
    pub fn open(path: impl AsRef<Path>, mode: ResumeMode, lock_wait: Duration) -> ProofCache {
        ProofCache {
            store: Store::open(path, mode, lock_wait, Some("serve.cache"))
                .unwrap_or_else(|e| Store::unavailable(&e)),
        }
    }

    /// Why persistence was disabled, if it was. Verdicts are
    /// unaffected — only warmth across restarts is lost.
    pub fn degraded(&self) -> Option<&str> {
        self.store.degraded()
    }

    /// Number of cached results currently replayable.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the cache holds no replayable results.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Looks up a finished result by request fingerprint.
    pub fn get(&self, fingerprint: u64) -> Option<&CachedResult> {
        self.store.get(fingerprint)
    }

    /// Records a finished result if it is cacheable (exit 0 or 2):
    /// into the in-memory index always, and append+fsync into the
    /// journal while persistence is healthy. A write failure (or
    /// injected `serve.cache` fault) degrades persistence for the rest
    /// of the run — the in-memory index keeps working.
    pub fn insert(&mut self, result: CachedResult) {
        if CachedResult::cacheable(result.exit) {
            self.store.insert(result);
        }
    }

    /// Compacts the journal down to every live result, in fingerprint
    /// order (atomic temp-file + rename), and releases it. Called once
    /// during graceful drain; a compaction failure degrades (the
    /// appended journal is still valid) rather than erroring.
    pub fn finish(&mut self) {
        let mut fps: Vec<u64> = self.store.fingerprints().collect();
        fps.sort_unstable();
        self.store.finish(&fps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_support::fault;

    fn result(fp: u64, exit: u8) -> CachedResult {
        CachedResult {
            fingerprint: fp,
            op: "verify".into(),
            exit,
            verdict: if exit == 0 { "proved" } else { "unsound" }.into(),
            output: "verified `r`: 3/3 obligations\twith\ttabs\nand newlines".into(),
        }
    }

    #[test]
    fn record_roundtrips() {
        let r = result(0xfeed_f00d_dead_beef, 0);
        assert_eq!(CachedResult::decode(&r.encode()), Some(r));
        let u = result(7, 2);
        assert_eq!(CachedResult::decode(&u.encode()), Some(u));
    }

    /// The on-disk bytes of one record, pinned literally so a codec
    /// change cannot silently orphan existing journals.
    #[test]
    fn record_bytes_are_golden() {
        assert_eq!(
            result(0xfeed_f00d_dead_beef, 2).encode(),
            b"v1\tfp=feedf00ddeadbeef\top=verify\texit=2\tverdict=unsound\t\
              output=verified `r`: 3/3 obligations\\twith\\ttabs\\nand newlines"
        );
    }

    #[test]
    fn decode_rejects_junk_and_uncacheable_exits() {
        assert_eq!(CachedResult::decode(b""), None);
        assert_eq!(CachedResult::decode(b"v0\tfp=00"), None);
        assert_eq!(CachedResult::decode(b"v1\tfp=nothex"), None);
        assert_eq!(CachedResult::decode(&[0xff, 0xfe]), None);
        // A record claiming a non-deterministic exit must never be
        // replayed, even if something managed to write one.
        let mut rl = result(1, 0);
        rl.exit = 3;
        assert_eq!(CachedResult::decode(&rl.encode()), None);
        let mut truncated = result(2, 0).encode();
        truncated.truncate(truncated.len() / 2);
        let _ = CachedResult::decode(&truncated); // must not panic
    }

    /// What stays the cache's own on top of the shared store: only exits
    /// 0 and 2 are cached, and journal faults are injected at
    /// `serve.cache`.
    #[test]
    fn caches_conclusive_exits_and_degrades_at_its_fault_site() {
        let path =
            std::env::temp_dir().join(format!("cobalt-serve-cache-{}.jrnl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut cache = ProofCache::open(&path, ResumeMode::Fresh, Duration::from_secs(1));
        cache.insert(result(1, 0));
        cache.insert(result(2, 2));
        cache.insert(result(3, 3)); // resource-limited: not cached at all
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(3), None);
        fault::with_faults("serve.cache:fail", || cache.insert(result(4, 0)));
        let why = cache
            .degraded()
            .expect("a serve.cache fault degrades")
            .to_string();
        assert!(why.contains("serve.cache"), "{why}");
        assert_eq!(
            cache.get(4),
            Some(&result(4, 0)),
            "in-memory replay survives"
        );
        drop(cache); // unclean: no finish() — appends alone must survive
        let cache = ProofCache::open(&path, ResumeMode::Resume, Duration::from_secs(1));
        assert!(cache.degraded().is_none());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(2), Some(&result(2, 2)));
        drop(cache);
        let _ = std::fs::remove_file(&path);
    }
}
