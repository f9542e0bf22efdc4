//! A crash-safe, corruption-tolerant append-only record journal.
//!
//! The proof journal is what lets a killed verification run resume warm
//! instead of starting over (see `DESIGN.md` §10): each record is an
//! opaque payload framed with its length and an FNV-64 checksum, so a
//! torn write, a truncated tail, or a bit flip is *detected* and
//! discarded rather than trusted. Corruption never panics and never
//! yields a record whose checksum does not match — the failure mode is
//! always "fewer cached records", i.e. graceful degradation to
//! re-proving.
//!
//! # On-disk format
//!
//! ```text
//! file   := magic record*
//! magic  := "COBJRNL1"                      (8 bytes)
//! record := len:u32le checksum:u64le payload(len bytes)
//! ```
//!
//! `checksum` is [`fnv64`] of the payload. The loader scans records in
//! order and stops at the first frame that is truncated, oversized, or
//! checksum-mismatched; everything from that point on is discarded and
//! the file is truncated back to the last good record, so the journal
//! is loadable again after the next append. A missing or mangled magic
//! discards the whole file (it was not a journal we wrote, or its very
//! head was torn).
//!
//! # Durability
//!
//! [`Journal::append`] writes the frame; [`Journal::sync`] fsyncs it.
//! [`Journal::compact`] atomically replaces the journal with a snapshot
//! via a temp file + rename, so a crash mid-compaction leaves either
//! the old journal or the new one, never a half-written hybrid.
//!
//! # Cross-process sharing
//!
//! [`Journal::open`] takes an **advisory exclusive lock** (BSD `flock`
//! semantics via `std::fs::File::try_lock`), so several processes can
//! share one journal path without interleaving half-frames: exactly one
//! holds it, the rest time out after a bounded wait and degrade. The
//! lock follows the handle across [`Journal::compact`]'s rename, and
//! acquisition re-verifies the inode in case a competitor compacted in
//! between (`DESIGN.md` §10).
//!
//! # Fault points
//!
//! `journal.load`, `journal.write`, and `journal.fsync` are
//! [`fault`](crate::fault) sites (`fail` actions surface as
//! `io::Error`), so callers' degradation paths are testable:
//! `COBALT_FAULTS=journal.write:fail@1`. A `fail` action at
//! `journal.lock` simulates lock *contention*: an immediate
//! [`io::ErrorKind::WouldBlock`] error, the same one a real timeout
//! gives.
//!
//! # Record store
//!
//! [`Store`] layers a fingerprint-indexed cache of typed [`Record`]s on
//! a locked journal. It is the one open/load/append/degrade/compact
//! implementation behind the verify session, the engine session, and
//! the serve proof cache; records use the shared `v1` field codec
//! ([`encode_fields`], [`decode_fields`]).

use crate::fault;
use std::collections::HashMap;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long a journaled consumer waits for the advisory lock before
/// degrading: long enough to ride out a sibling's append bursts, short
/// enough that a wedged holder cannot wedge us.
pub const DEFAULT_LOCK_WAIT: Duration = Duration::from_secs(5);

/// The 8-byte magic prefix identifying a journal file (and its format
/// version — bump the trailing digit on incompatible changes).
pub const MAGIC: &[u8; 8] = b"COBJRNL1";

/// Hard cap on a single record's payload; a length field above this is
/// treated as corruption rather than honoured (it would otherwise let
/// one flipped bit demand a multi-gigabyte allocation).
pub const MAX_PAYLOAD: usize = 1 << 24; // 16 MiB

/// Bytes of framing per record: `len: u32` + `checksum: u64`.
pub const FRAME: usize = 4 + 8;

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher, shared by the record checksums and
/// the checker's obligation fingerprints.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a 64-bit hash of `bytes` in one call.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Number of intact records recovered.
    pub records: usize,
    /// Bytes discarded from the tail (torn write, truncation, bit
    /// flip, or a foreign/mangled header). Zero for a clean journal.
    pub discarded_bytes: u64,
    /// Human-readable description of the first corruption encountered,
    /// if any.
    pub corruption: Option<String>,
}

impl LoadReport {
    /// Whether anything had to be discarded.
    pub fn corrupted(&self) -> bool {
        self.discarded_bytes > 0
    }
}

/// Version tag written as the first field of every `v1` record.
const RECORD_VERSION: &str = "v1";

/// Encodes a `v1` record: `v1\tfp=<hex16>`, then one tab-separated
/// `key=value` field per entry, in order, each value escaped.
pub fn encode_fields(fingerprint: u64, fields: &[(&str, &dyn std::fmt::Display)]) -> Vec<u8> {
    let mut out = format!("{RECORD_VERSION}\tfp={fingerprint:016x}");
    for (key, value) in fields {
        out.push('\t');
        out.push_str(key);
        out.push('=');
        out.push_str(&escape_field(&value.to_string()));
    }
    out.into_bytes()
}

/// Decodes a `v1` record into its fingerprint and the unescaped values
/// of `keys`, in order. Total: `None` for non-UTF-8 bytes, another
/// version tag, a field without `=`, a bad escape, or a missing `fp` or
/// key — such a record is skipped, never trusted, never fatal. Unknown
/// keys are ignored (forward compatibility); a repeated key reads as
/// its last value.
pub fn decode_fields<const N: usize>(
    payload: &[u8],
    keys: [&str; N],
) -> Option<(u64, [String; N])> {
    let mut fields = std::str::from_utf8(payload).ok()?.split('\t');
    if fields.next()? != RECORD_VERSION {
        return None;
    }
    let mut fp = None;
    let mut raw = [None; N];
    for field in fields {
        let (key, value) = field.split_once('=')?;
        if key == "fp" {
            fp = Some(value);
        } else if let Some(i) = keys.iter().position(|k| *k == key) {
            raw[i] = Some(value);
        }
    }
    let fingerprint = u64::from_str_radix(fp?, 16).ok()?;
    let mut complete = true;
    let values = std::array::from_fn(|i| {
        raw[i].and_then(unescape_field).unwrap_or_else(|| {
            complete = false;
            String::new()
        })
    });
    complete.then_some((fingerprint, values))
}

/// Escapes a field value of the `v1` codec that every [`Store`]
/// consumer uses (verify, engine, and serve records): backslash, tab,
/// newline, and carriage return are escaped so a value can never alias
/// the record's separators.
fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_field`]. `None` on a malformed escape — callers
/// treat the whole record as not cached (total decoding, never fatal).
fn unescape_field(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// How [`Store::open`] treats an existing journal, for every consumer
/// (verify sessions, engine sessions, the serve proof cache), so the
/// CLI's `--resume`/`--fresh` contract is one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeMode {
    /// Reuse every intact, fingerprint-matching cached outcome; the
    /// default. An empty or absent journal resumes to nothing, so this
    /// is always safe.
    Resume,
    /// Discard any existing journal contents and start cold.
    Fresh,
}

/// The result of opening a journal: the handle, the recovered payloads
/// (in append order), and what the loader had to discard.
#[derive(Debug)]
pub struct Opened {
    /// The journal, positioned to append after the last good record.
    pub journal: Journal,
    /// Every intact record's payload, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Recovery statistics.
    pub report: LoadReport,
}

/// An append-only journal of checksummed records. See the
/// [module docs](self) for the format and crash-safety contract.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// End of the last good record (including the magic header); the
    /// next append goes here.
    valid_len: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` under an
    /// **advisory exclusive lock**, waiting up to `lock_wait` for a
    /// competing holder to release it, then recovers every intact
    /// record and truncates any corrupt tail so the file is immediately
    /// appendable again. The lock is held until the journal is
    /// dropped. The wait polls `try_lock`, so a wedged holder can never
    /// wedge us past the deadline.
    ///
    /// # Errors
    ///
    /// An [`io::ErrorKind::WouldBlock`] error when another holder kept
    /// the lock for the whole wait (or an injected `journal.lock` fault
    /// simulated that); nothing is held or modified then. Otherwise the
    /// `io::Error` of a filesystem failure or an injected
    /// `journal.load` fault. *Corruption is not an error* — it is
    /// reported in [`Opened::report`] and repaired by truncation.
    pub fn open(path: impl AsRef<Path>, lock_wait: Duration) -> io::Result<Opened> {
        let path = path.as_ref().to_path_buf();
        fault::point_err("journal.load").map_err(fault_io)?;
        if let Err(e) = fault::point_err("journal.lock") {
            return Err(contended(format!("simulated lock contention ({e})")));
        }
        let deadline = Instant::now() + lock_wait;
        // Outer loop: reopen when the path was renamed-over (a
        // competing holder compacted) between our open and our lock.
        loop {
            let file = open_file(&path)?;
            loop {
                match file.try_lock() {
                    Ok(()) => break,
                    Err(TryLockError::WouldBlock) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(TryLockError::WouldBlock) => {
                        return Err(contended(format!(
                            "another process held the journal lock for {lock_wait:?}"
                        )));
                    }
                    Err(TryLockError::Error(e)) => return Err(e),
                }
            }
            if same_inode(&file, &path)? {
                return load(path, file);
            }
            // Stale inode: the lock we won is on an unlinked file.
            // Drop it (releasing the lock) and race again.
        }
    }

    /// Appends one record (length + FNV-64 checksum + payload).
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` on filesystem failure, an injected
    /// `journal.write` fault, or a payload above [`MAX_PAYLOAD`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        fault::point_err("journal.write").map_err(fault_io)?;
        if payload.len() > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("journal record of {} bytes exceeds the cap", payload.len()),
            ));
        }
        let mut frame = Vec::with_capacity(FRAME + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.seek(SeekFrom::Start(self.valid_len))?;
        self.file.write_all(&frame)?;
        self.valid_len += frame.len() as u64;
        Ok(())
    }

    /// Flushes appended records to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` on failure or an injected `journal.fsync`
    /// fault.
    pub fn sync(&mut self) -> io::Result<()> {
        fault::point_err("journal.fsync").map_err(fault_io)?;
        self.file.sync_data()
    }

    /// Atomically replaces the journal's contents with exactly
    /// `records`, via a temp file in the same directory + rename. A
    /// crash at any point leaves either the old journal or the new one.
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` on filesystem failure or an injected
    /// `journal.write`/`journal.fsync` fault; the original journal is
    /// untouched on error.
    pub fn compact<P: AsRef<[u8]>>(&mut self, records: &[P]) -> io::Result<()> {
        fault::point_err("journal.write").map_err(fault_io)?;
        let tmp_path = tmp_sibling(&self.path);
        let result = (|| -> io::Result<(File, u64)> {
            let mut tmp = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            let mut buf = Vec::with_capacity(MAGIC.len());
            buf.extend_from_slice(MAGIC);
            for payload in records {
                let payload = payload.as_ref();
                if payload.len() > MAX_PAYLOAD {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "journal record exceeds the cap",
                    ));
                }
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(&fnv64(payload).to_le_bytes());
                buf.extend_from_slice(payload);
            }
            tmp.write_all(&buf)?;
            // Lock the replacement *before* it becomes the journal, so
            // exclusivity never lapses across the rename: a competitor
            // that opens the path pre-rename locks a doomed inode (and
            // re-verifies, per `open`); one that opens it post-rename
            // finds it already locked.
            tmp.lock()?;
            fault::point_err("journal.fsync").map_err(fault_io)?;
            tmp.sync_data()?;
            std::fs::rename(&tmp_path, &self.path)?;
            Ok((tmp, buf.len() as u64))
        })();
        match result {
            Ok((file, len)) => {
                // The renamed temp file *is* the journal now; keep its
                // handle so later appends go to the right inode.
                self.file = file;
                self.valid_len = len;
                Ok(())
            }
            Err(e) => {
                std::fs::remove_file(&tmp_path).ok();
                Err(e)
            }
        }
    }

    fn write_magic(&mut self) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(MAGIC)?;
        self.valid_len = MAGIC.len() as u64;
        Ok(())
    }
}

/// A record a [`Store`] persists: keyed by a content fingerprint and
/// encoded to an opaque journal payload.
pub trait Record: Sized {
    /// The key: a hash of every input the record's result depends on.
    fn fingerprint(&self) -> u64;
    /// The journal payload.
    fn encode(&self) -> Vec<u8>;
    /// Total decoding: `None` skips the payload (never trusted, never
    /// fatal).
    fn decode(payload: &[u8]) -> Option<Self>;
}

/// A fingerprint-indexed record cache backed by a locked [`Journal`]
/// (`DESIGN.md` §10). Journal trouble after the open never surfaces as
/// an error: the store **degrades** — it drops the journal (releasing
/// the lock), keeps answering from memory, and
/// [`degraded`](Self::degraded) keeps the first reason.
#[derive(Debug)]
pub struct Store<R> {
    journal: Option<Journal>,
    /// The latest record per fingerprint, with its exact payload so
    /// compaction carries it byte-for-byte.
    index: HashMap<u64, (R, Vec<u8>)>,
    loaded: LoadReport,
    degraded: Option<String>,
    /// The consumer's fault site, checked before the open and before
    /// every append.
    site: Option<&'static str>,
}

impl<R: Record> Store<R> {
    /// A store without a journal: records live in memory only.
    pub fn in_memory() -> Store<R> {
        Store {
            journal: None,
            index: HashMap::new(),
            loaded: LoadReport::default(),
            degraded: None,
            site: None,
        }
    }

    /// Opens (creating if absent) the journal at `path` under its
    /// advisory lock, waiting up to `lock_wait`, and indexes every
    /// decodable record, the latest per fingerprint winning.
    /// [`ResumeMode::Fresh`] empties the journal instead.
    ///
    /// **Never fails**: a fault at `site`, lock contention, or any
    /// error opening or resetting the journal (bad path, permissions,
    /// an injected `journal.load` fault) yields a degraded in-memory
    /// store. Corruption is not an error; see
    /// [`load_report`](Self::load_report).
    pub fn open(
        path: impl AsRef<Path>,
        mode: ResumeMode,
        lock_wait: Duration,
        site: Option<&'static str>,
    ) -> Store<R> {
        let mut store = Self::in_memory();
        store.site = site;
        let opened = check_site(site)
            .and_then(|()| Journal::open(path, lock_wait))
            .and_then(|mut opened| {
                if mode == ResumeMode::Fresh {
                    opened.journal.compact(&[] as &[&[u8]])?;
                }
                Ok(opened)
            });
        match opened {
            Ok(opened) => {
                if mode == ResumeMode::Resume {
                    for raw in opened.records {
                        if let Some(record) = R::decode(&raw) {
                            store.index.insert(record.fingerprint(), (record, raw));
                        }
                    }
                    store.loaded = opened.report;
                }
                store.journal = Some(opened.journal);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                store.degrade(format!("journal lock unavailable ({e})"));
            }
            Err(e) => store.degrade(format!("journal unavailable ({e})")),
        }
        store
    }

    /// The record stored under `fingerprint`.
    pub fn get(&self, fingerprint: u64) -> Option<&R> {
        self.index.get(&fingerprint).map(|(record, _)| record)
    }

    /// Indexes `record` and appends it with an fsync, after the site's
    /// fault point. A failure degrades the store; the record still
    /// answers from memory.
    pub fn insert(&mut self, record: R) {
        let raw = record.encode();
        if let Some(journal) = self.journal.as_mut() {
            let wrote = check_site(self.site)
                .and_then(|()| journal.append(&raw))
                .and_then(|()| journal.sync());
            if let Err(e) = wrote {
                self.degrade(format!("journal write failed: {e}"));
            }
        }
        self.index.insert(record.fingerprint(), (record, raw));
    }

    /// Every stored fingerprint, in no particular order.
    pub fn fingerprints(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.keys().copied()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no record is stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether a journal is attached and healthy.
    pub fn is_journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// Why the store runs without its journal, if it does.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// What the journal loader recovered and discarded at open.
    pub fn load_report(&self) -> &LoadReport {
        &self.loaded
    }

    /// Atomically compacts the journal to the payloads of
    /// `fingerprints`, in the order given (unknown ones are skipped),
    /// and releases the lock. A compaction failure degrades; the
    /// appended journal stays valid.
    pub fn finish(&mut self, fingerprints: &[u64]) {
        if let Some(mut journal) = self.journal.take() {
            let payloads: Vec<&[u8]> = fingerprints
                .iter()
                .filter_map(|fp| self.index.get(fp))
                .map(|(_, raw)| raw.as_slice())
                .collect();
            if let Err(e) = journal.compact(&payloads) {
                self.degrade(format!("journal compaction failed: {e}"));
            }
        }
    }

    fn degrade(&mut self, reason: String) {
        self.journal = None;
        self.degraded.get_or_insert(reason);
    }
}

fn check_site(site: Option<&str>) -> io::Result<()> {
    site.map_or(Ok(()), |s| fault::point_err(s).map_err(fault_io))
}

/// Opens (creating if absent, never truncating) the journal file.
fn open_file(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

/// Reads, scans, and repairs an already-opened journal file, producing
/// the [`Opened`] handle.
fn load(path: PathBuf, mut file: File) -> io::Result<Opened> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let (records, valid_len, report) = scan(&bytes);
    // Repair: drop the corrupt tail now so the invariant "the file
    // ends at a record boundary" holds for every append.
    if (bytes.len() as u64) > valid_len {
        file.set_len(valid_len)?;
    }
    let mut journal = Journal {
        path,
        file,
        valid_len,
    };
    if journal.valid_len == 0 {
        journal.write_magic()?;
    }
    Ok(Opened {
        journal,
        records,
        report,
    })
}

/// Whether the open handle still names the same file as `path` — false
/// when a competing compaction renamed a replacement over the path
/// between our `open` and our lock acquisition.
#[cfg(unix)]
fn same_inode(file: &File, path: &Path) -> io::Result<bool> {
    use std::os::unix::fs::MetadataExt;
    let handle = file.metadata()?;
    let on_disk = std::fs::metadata(path)?;
    Ok(handle.ino() == on_disk.ino() && handle.dev() == on_disk.dev())
}

/// Non-Unix fallback: no inode identity to compare; trust the handle.
#[cfg(not(unix))]
fn same_inode(_file: &File, _path: &Path) -> io::Result<bool> {
    Ok(true)
}

/// Scans raw journal bytes, returning the intact payloads, the byte
/// offset after the last good record, and a recovery report. Total and
/// panic-free on arbitrary input.
fn scan(bytes: &[u8]) -> (Vec<Vec<u8>>, u64, LoadReport) {
    let mut report = LoadReport::default();
    if bytes.is_empty() {
        return (Vec::new(), 0, report);
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        report.discarded_bytes = bytes.len() as u64;
        report.corruption = Some("missing or corrupt magic header".into());
        return (Vec::new(), 0, report);
    }
    let mut records = Vec::new();
    let mut offset = MAGIC.len();
    let corrupt = loop {
        if offset == bytes.len() {
            break None; // clean end
        }
        if bytes.len() - offset < FRAME {
            break Some(format!("torn frame header at byte {offset}"));
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let checksum =
            u64::from_le_bytes(bytes[offset + 4..offset + FRAME].try_into().expect("8 bytes"));
        if len > MAX_PAYLOAD {
            break Some(format!("implausible record length {len} at byte {offset}"));
        }
        if bytes.len() - offset - FRAME < len {
            break Some(format!("truncated record payload at byte {offset}"));
        }
        let payload = &bytes[offset + FRAME..offset + FRAME + len];
        if fnv64(payload) != checksum {
            break Some(format!("checksum mismatch at byte {offset}"));
        }
        records.push(payload.to_vec());
        offset += FRAME + len;
    };
    report.records = records.len();
    report.discarded_bytes = (bytes.len() - offset) as u64;
    report.corruption = corrupt;
    (records, offset as u64, report)
}

/// The temp-file path used by [`Journal::compact`]: a sibling so the
/// rename stays within one filesystem.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn fault_io(e: fault::FaultError) -> io::Error {
    io::Error::other(e)
}

/// The error of an open that never got the lock.
fn contended(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::WouldBlock, reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cobalt_journal_{}_{name}.cobj",
            std::process::id()
        ))
    }

    #[test]
    fn roundtrip_append_and_reload() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut opened = Journal::open(&path, Duration::ZERO).unwrap();
        assert!(opened.records.is_empty());
        opened.journal.append(b"alpha").unwrap();
        opened.journal.append(b"").unwrap(); // empty payloads are legal
        opened.journal.append(b"gamma\tdelta\n").unwrap();
        opened.journal.sync().unwrap();
        drop(opened);
        let reopened = Journal::open(&path, Duration::ZERO).unwrap();
        assert_eq!(
            reopened.records,
            vec![b"alpha".to_vec(), b"".to_vec(), b"gamma\tdelta\n".to_vec()]
        );
        assert!(!reopened.report.corrupted());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_discarded_and_repaired() {
        let path = tmp("truncated");
        std::fs::remove_file(&path).ok();
        let mut opened = Journal::open(&path, Duration::ZERO).unwrap();
        opened.journal.append(b"keep-me").unwrap();
        opened.journal.append(b"lose-my-tail").unwrap();
        drop(opened);
        let len = std::fs::metadata(&path).unwrap().len();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..len as usize - 3]).unwrap();
        let recovered = Journal::open(&path, Duration::ZERO).unwrap();
        assert_eq!(recovered.records, vec![b"keep-me".to_vec()]);
        assert!(recovered.report.corrupted());
        assert!(recovered.report.corruption.is_some());
        // The repair truncated the file: a fresh append then reload
        // yields exactly [keep-me, appended].
        let mut journal = recovered.journal;
        journal.append(b"appended").unwrap();
        drop(journal);
        let reloaded = Journal::open(&path, Duration::ZERO).unwrap();
        assert_eq!(
            reloaded.records,
            vec![b"keep-me".to_vec(), b"appended".to_vec()]
        );
        assert!(!reloaded.report.corrupted());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_discards_from_the_flipped_record() {
        let path = tmp("bitflip");
        std::fs::remove_file(&path).ok();
        let mut opened = Journal::open(&path, Duration::ZERO).unwrap();
        for payload in [b"record-one".as_slice(), b"record-two", b"record-three"] {
            opened.journal.append(payload).unwrap();
        }
        drop(opened);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the second record's payload.
        let second_payload_start = MAGIC.len() + FRAME + b"record-one".len() + FRAME;
        bytes[second_payload_start + 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = Journal::open(&path, Duration::ZERO).unwrap();
        assert_eq!(recovered.records, vec![b"record-one".to_vec()]);
        assert!(recovered
            .report
            .corruption
            .as_deref()
            .unwrap()
            .contains("checksum mismatch"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_is_not_trusted() {
        let path = tmp("foreign");
        std::fs::write(&path, b"this is not a journal at all").unwrap();
        let recovered = Journal::open(&path, Duration::ZERO).unwrap();
        assert!(recovered.records.is_empty());
        assert!(recovered.report.corrupted());
        drop(recovered);
        // And it has been converted into a valid empty journal.
        let reloaded = Journal::open(&path, Duration::ZERO).unwrap();
        assert!(reloaded.records.is_empty());
        assert!(!reloaded.report.corrupted());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_field_is_corruption_not_allocation() {
        let path = tmp("oversize");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        let recovered = Journal::open(&path, Duration::ZERO).unwrap();
        assert!(recovered.records.is_empty());
        assert!(recovered
            .report
            .corruption
            .as_deref()
            .unwrap()
            .contains("implausible"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_replaces_contents_atomically() {
        let path = tmp("compact");
        std::fs::remove_file(&path).ok();
        let mut opened = Journal::open(&path, Duration::ZERO).unwrap();
        opened.journal.append(b"old-1").unwrap();
        opened.journal.append(b"old-2").unwrap();
        opened
            .journal
            .compact(&[b"new-1".as_slice(), b"new-2", b"new-3"])
            .unwrap();
        // Appends after compaction land on the renamed file.
        opened.journal.append(b"post").unwrap();
        opened.journal.sync().unwrap();
        drop(opened);
        let reloaded = Journal::open(&path, Duration::ZERO).unwrap();
        assert_eq!(
            reloaded.records,
            vec![
                b"new-1".to_vec(),
                b"new-2".to_vec(),
                b"new-3".to_vec(),
                b"post".to_vec()
            ]
        );
        assert!(!std::fs::exists(tmp_sibling(&path)).unwrap_or(true));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_points_surface_as_io_errors() {
        let path = tmp("faults");
        std::fs::remove_file(&path).ok();
        let e = fault::with_faults("journal.load:fail@1", || Journal::open(&path, Duration::ZERO))
            .unwrap_err();
        assert!(e.to_string().contains("injected fault"));
        let mut opened = Journal::open(&path, Duration::ZERO).unwrap();
        let e = fault::with_faults("journal.write:fail@1", || opened.journal.append(b"x"))
            .unwrap_err();
        assert!(e.to_string().contains("journal.write"));
        let e = fault::with_faults("journal.fsync:fail@1", || opened.journal.sync()).unwrap_err();
        assert!(e.to_string().contains("journal.fsync"));
        // After a failed append nothing was written: reload is clean.
        opened.journal.append(b"real").unwrap();
        drop(opened);
        let reloaded = Journal::open(&path, Duration::ZERO).unwrap();
        assert_eq!(reloaded.records, vec![b"real".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_is_exclusive_within_and_across_handles() {
        // flock is per open file description, so two handles in one
        // process contend exactly like two processes do.
        let path = tmp("lock_excl");
        std::fs::remove_file(&path).ok();
        let holder = Journal::open(&path, Duration::ZERO).expect("fresh file acquires");
        let e = Journal::open(&path, Duration::from_millis(20)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e}");
        assert!(e.to_string().contains("held the journal lock"), "{e}");
        drop(holder);
        Journal::open(&path, Duration::ZERO).expect("lock released on drop");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_wait_outlasts_a_short_holder() {
        let path = tmp("lock_wait");
        std::fs::remove_file(&path).ok();
        let holder = Journal::open(&path, Duration::ZERO).unwrap();
        let path2 = path.clone();
        let waiter = std::thread::spawn(move || Journal::open(&path2, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        drop(holder);
        waiter.join().unwrap().expect("waiter should win the lock");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_survives_compaction_rename() {
        let path = tmp("lock_compact");
        std::fs::remove_file(&path).ok();
        let mut holder = Journal::open(&path, Duration::ZERO).unwrap();
        holder.journal.append(b"pre").unwrap();
        holder.journal.compact(&[b"kept".as_slice()]).unwrap();
        // The path's current inode (the renamed replacement) is locked:
        // a competitor still times out.
        let e = Journal::open(&path, Duration::from_millis(20)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "exclusivity lapsed: {e}");
        holder.journal.append(b"post").unwrap();
        drop(holder);
        let reloaded = Journal::open(&path, Duration::ZERO).unwrap();
        assert_eq!(reloaded.records, vec![b"kept".to_vec(), b"post".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_fault_simulates_contention() {
        let path = tmp("lock_fault");
        std::fs::remove_file(&path).ok();
        let e = fault::with_faults("journal.lock:fail@1", || {
            Journal::open(&path, Duration::from_secs(5))
        })
        .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e}");
        assert!(e.to_string().contains("simulated lock contention"), "{e}");
        // The fault fired once; a retry acquires normally.
        Journal::open(&path, Duration::ZERO).expect("second attempt should acquire");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn escape_roundtrips_control_characters() {
        for s in ["", "plain", "tab\there", "line\nbreak", "back\\slash\r"] {
            assert_eq!(unescape_field(&escape_field(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape_field("bad\\x"), None);
        assert_eq!(unescape_field("dangling\\"), None);
    }

    #[test]
    fn fnv64_matches_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        let mut streaming = Fnv64::new();
        streaming.write(b"foo").write(b"bar");
        assert_eq!(streaming.finish(), fnv64(b"foobar"));
    }
}
