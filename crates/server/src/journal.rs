//! Write-ahead request journal: the durability layer that lets a served
//! workload survive the *process* dying.
//!
//! Every robustness layer below this one heals inside a living server —
//! quarantined workers, checkpointed rank crashes, certified re-runs. A
//! SIGKILL defeats them all: every admitted-but-unanswered request simply
//! vanishes. The journal closes that gap with the classic write-ahead
//! contract:
//!
//! - an **admit record** is appended when a request is accepted by the
//!   admission queue (id, source, deadline budget, opts), *before* any
//!   work happens;
//! - a **completion record** is appended when the terminal response is
//!   produced (id, status, result digest, and — for cacheable `ok`
//!   responses — the verbatim response line), *before* it is delivered.
//!
//! On restart the journal is replayed: completion records warm-start the
//! [`DedupCache`](crate::dedup::DedupCache) so reconnecting clients that
//! resend completed ids are answered `"deduped":true` without
//! recomputation, and every admit without a matching completion is
//! re-enqueued ahead of new traffic. Replay is torn-tail-tolerant: each
//! record is CRC32-framed, and a truncated or corrupt *trailing* record —
//! the only kind a crash mid-append can produce — is discarded, never
//! panicked on. The recovered prefix is exactly the longest valid record
//! sequence, which the torn-journal property test asserts for every
//! possible truncation offset.
//!
//! ## Framing
//!
//! ```text
//! file   := header record*
//! header := "xbfs-journal-v1\n"                      (16 bytes)
//! record := len:u32le crc:u32le payload[len]          (crc = CRC32(payload))
//! ```
//!
//! Payloads are single-line JSON objects (the workspace's std-only JSON),
//! so a journal is greppable with standard tools despite the binary
//! framing: `{"t":"a",...}` admits, `{"t":"d",...}` completions.
//!
//! ## Fsync policies and their loss windows
//!
//! `--journal-fsync` picks how often appends reach stable storage:
//!
//! - `always` — fsync after every record. Loss window: nothing (a machine
//!   crash loses at most the record being written, which the CRC frame
//!   discards on replay).
//! - `batch=N` — fsync after every N unsynced records. Loss window: up to
//!   N−1 admits/completions on a *machine* crash; a mere process SIGKILL
//!   loses nothing (the OS page cache survives the process).
//! - `off` — never fsync explicitly. Loss window: whatever the OS has not
//!   written back; still SIGKILL-safe for the same reason.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use xbfs_spec::{tokenize, SpecError, Token};
use xbfs_telemetry::json::{JsonValue, Val};

use crate::protocol::{BfsRequest, MAX_ID};

/// File magic + format version. A journal that does not start with this
/// is not ours and replay treats it as empty rather than guessing.
pub const HEADER: &[u8; 16] = b"xbfs-journal-v1\n";

/// Per-record frame overhead: 4-byte LE payload length + 4-byte LE CRC32.
pub const FRAME_BYTES: usize = 8;

/// Sanity bound on a single payload. A frame length beyond this is
/// corruption (or not a journal), not a real record.
const MAX_PAYLOAD: u32 = 1 << 20;

// IEEE CRC-32 (the zlib/gzip polynomial), table-driven, std-only.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the checksum in every record frame.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// How often journal appends are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record (no loss window, slowest).
    Always,
    /// fsync once per N unsynced records (loss window ≤ N−1 records on a
    /// machine crash; process kills lose nothing).
    Batch(u32),
    /// Never fsync explicitly; the OS writes back on its own schedule.
    Off,
}

impl FsyncPolicy {
    /// Parse a `--journal-fsync` spec with the workspace spec grammar:
    /// `always` | `off` | `batch=N` (also accepted as `batch:N`, and bare
    /// `batch` defaults to 8).
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        let mut out = None;
        for tok in tokenize(spec) {
            let policy = match tok {
                Token::Assign {
                    key: "batch",
                    value,
                    ..
                } => FsyncPolicy::Batch(tok.num("batch", value)?),
                Token::Assign { .. } => {
                    return Err(tok.err("unknown fsync setting (try always, batch=N, or off)"))
                }
                Token::Item {
                    kind: "always",
                    at: None,
                    arg: None,
                    ..
                } => FsyncPolicy::Always,
                Token::Item {
                    kind: "off",
                    at: None,
                    arg: None,
                    ..
                } => FsyncPolicy::Off,
                Token::Item { kind: "batch", .. } => FsyncPolicy::Batch(tok.arg_count(8)?),
                Token::Item { .. } => {
                    return Err(tok.err("unknown fsync policy (try always, batch=N, or off)"))
                }
            };
            if let FsyncPolicy::Batch(0) = policy {
                return Err(tok.err("batch size must be at least 1"));
            }
            if out.is_some() {
                return Err(tok.err("fsync policy takes a single token"));
            }
            out = Some(policy);
        }
        out.ok_or_else(|| SpecError::new(spec, "empty fsync policy (try always, batch=N, or off)"))
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch(n) => write!(f, "batch={n}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A request was admitted to the queue.
    Admit(BfsRequest),
    /// A terminal response was produced for an admitted request.
    Done(DoneRecord),
}

/// A completion record: the request is finished and (when cacheable) its
/// verbatim response line rides along for dedup warm-start.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneRecord {
    /// Correlation id of the completed request.
    pub id: u64,
    /// Source vertex (part of the dedup key).
    pub source: u32,
    /// Terminal status: `ok`, `timeout`, or `error`.
    pub status: String,
    /// Result digest (`{:#018x}` hex) for `ok` responses.
    pub digest: Option<String>,
    /// The verbatim response line, present only for `ok` responses that
    /// are dedup-cacheable (i.e. chaos-free) — exactly what the warm
    /// cache should answer a replayed id with.
    pub line: Option<String>,
}

impl Record {
    /// Serialize to the single-line JSON payload that goes inside a frame.
    pub fn payload(&self) -> String {
        // One buffer: an admit is under 128 bytes, a completion is its
        // response line plus that line's escapes (about one byte in six).
        let line_len = match self {
            Record::Done(DoneRecord { line: Some(l), .. }) => l.len(),
            _ => 0,
        };
        let mut s = String::with_capacity(128 + line_len + line_len / 4);
        Val::new(&mut s).obj(|o| match self {
            Record::Admit(req) => {
                o.key("t").str("a");
                req.write_fields(o);
            }
            Record::Done(d) => {
                o.key("t").str("d");
                o.key("id").int(d.id);
                o.key("source").int(d.source);
                o.key("status").str(&d.status);
                o.opt("digest", d.digest.as_deref(), Val::str);
                o.opt("line", d.line.as_deref(), Val::str);
            }
        });
        s
    }

    /// Decode one payload. `None` means the payload is not a record this
    /// version understands — replay treats that as corruption and stops.
    pub fn decode(payload: &str) -> Option<Record> {
        let v = JsonValue::parse(payload).ok()?;
        let id = v.uint_field("id", MAX_ID).ok()??;
        match v.get("t")?.as_str()? {
            "a" => BfsRequest::read(&v, id).ok().map(Record::Admit),
            "d" => Some(Record::Done(DoneRecord {
                id,
                source: v.uint_field("source", u64::from(u32::MAX)).ok()?? as u32,
                status: v.get("status")?.as_str()?.to_string(),
                digest: v.get("digest").and_then(|d| d.as_str()).map(String::from),
                line: v.get("line").and_then(|l| l.as_str()).map(String::from),
            })),
            _ => None,
        }
    }

    /// Frame the record for appending: length + CRC + payload.
    pub fn frame(&self) -> Vec<u8> {
        let payload = self.payload();
        let bytes = payload.as_bytes();
        let mut out = Vec::with_capacity(FRAME_BYTES + bytes.len());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(bytes).to_le_bytes());
        out.extend_from_slice(bytes);
        out
    }
}

/// Everything a replay recovers from an existing journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayedJournal {
    /// Completion records, in journal order. Entries with a `line` warm
    /// the dedup cache.
    pub completed: Vec<DoneRecord>,
    /// Admitted requests with no matching completion, in admit order —
    /// these re-enter the queue ahead of new traffic.
    pub incomplete: Vec<BfsRequest>,
    /// Valid records decoded (admits + completions).
    pub records: u64,
    /// Bytes discarded past the valid prefix (torn tail).
    pub torn_bytes: u64,
    /// File offset where the valid prefix ends — the journal is truncated
    /// here before appending resumes.
    pub valid_len: u64,
}

/// Decode the longest valid record prefix of `buf`. Never panics: a
/// missing/short header yields an empty replay, and the first frame that
/// is truncated, oversized, CRC-mismatched, or undecodable ends the scan
/// with everything after it counted as torn.
pub fn replay_bytes(buf: &[u8]) -> ReplayedJournal {
    let mut out = ReplayedJournal::default();
    if buf.len() < HEADER.len() || &buf[..HEADER.len()] != HEADER {
        out.torn_bytes = buf.len() as u64;
        return out;
    }
    // Pending admits keyed like the dedup cache; order preserved so the
    // re-enqueue keeps the original admission order. A key that has ever
    // completed stays completed: admit and done records race on separate
    // threads (a fast worker can journal the completion before the
    // handler journals the admit), and a completed key must never be
    // resurrected as incomplete by a late admit.
    let mut pending: Vec<(u64, u32)> = Vec::new();
    let mut admits: HashMap<(u64, u32), BfsRequest> = HashMap::new();
    let mut done_keys: std::collections::HashSet<(u64, u32)> = std::collections::HashSet::new();
    let mut pos = HEADER.len();
    loop {
        if buf.len() - pos < FRAME_BYTES {
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_PAYLOAD {
            break;
        }
        let body_start = pos + FRAME_BYTES;
        let Some(body_end) = body_start.checked_add(len as usize) else {
            break;
        };
        if body_end > buf.len() {
            break;
        }
        let payload = &buf[body_start..body_end];
        if crc32(payload) != crc {
            break;
        }
        let Some(record) = std::str::from_utf8(payload).ok().and_then(Record::decode) else {
            break;
        };
        match record {
            Record::Admit(req) => {
                let key = (req.id, req.source);
                // A duplicate admit (client resend that was re-executed)
                // still completes once; keep a single pending entry, and
                // never resurrect a key that already completed.
                if !done_keys.contains(&key) && admits.insert(key, req).is_none() {
                    pending.push(key);
                }
            }
            Record::Done(done) => {
                let key = (done.id, done.source);
                done_keys.insert(key);
                admits.remove(&key);
                pending.retain(|k| *k != key);
                out.completed.push(done);
            }
        }
        out.records += 1;
        pos = body_end;
    }
    out.valid_len = pos as u64;
    out.torn_bytes = (buf.len() - pos) as u64;
    out.incomplete = pending
        .into_iter()
        .filter_map(|k| admits.remove(&k))
        .collect();
    out
}

/// The append side of the journal: an open file positioned past the
/// valid prefix, an fsync policy, and lock-free counters for the metrics
/// plane. Appends serialize on one mutex — the frame write must be a
/// single contiguous `write_all` so a crash can only tear the *tail*.
pub struct Journal {
    path: PathBuf,
    policy: FsyncPolicy,
    file: Mutex<AppendState>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
}

struct AppendState {
    file: File,
    unsynced: u32,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("appends", &self.appends.load(Ordering::Relaxed))
            .finish()
    }
}

impl Journal {
    /// Open (or create) the journal at `path`: replay the existing
    /// content torn-tail-tolerantly, truncate the torn tail so appends
    /// resume from a consistent prefix, and return both halves.
    pub fn open(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> std::io::Result<(Journal, ReplayedJournal)> {
        let path = path.as_ref().to_path_buf();
        let existing = match std::fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let replay = replay_bytes(&existing);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if replay.valid_len == 0 {
            // Fresh (or unrecognizable) journal: start a clean file.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(HEADER)?;
        } else {
            // Discard the torn tail; everything before it is intact.
            file.set_len(replay.valid_len)?;
            file.seek(SeekFrom::Start(replay.valid_len))?;
        }
        if policy != FsyncPolicy::Off {
            file.sync_data()?;
        }
        let journal = Journal {
            path,
            policy,
            file: Mutex::new(AppendState { file, unsynced: 0 }),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        };
        Ok((journal, replay))
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Append an admit record for a freshly accepted request.
    pub fn append_admit(&self, req: &BfsRequest) -> std::io::Result<()> {
        self.append(&Record::Admit(req.clone()))
    }

    /// Append a completion record. `line` should be `Some` only for
    /// dedup-cacheable `ok` responses — it is what a restarted server
    /// answers a replayed id with.
    pub fn append_done(
        &self,
        id: u64,
        source: u32,
        status: &str,
        digest: Option<&str>,
        line: Option<&str>,
    ) -> std::io::Result<()> {
        self.append(&Record::Done(DoneRecord {
            id,
            source,
            status: status.to_string(),
            digest: digest.map(String::from),
            line: line.map(String::from),
        }))
    }

    /// Append one framed record and apply the fsync policy.
    pub fn append(&self, record: &Record) -> std::io::Result<()> {
        let frame = record.frame();
        let mut g = self.file.lock().unwrap_or_else(|e| e.into_inner());
        g.file.write_all(&frame)?;
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        match self.policy {
            FsyncPolicy::Always => {
                g.file.sync_data()?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            FsyncPolicy::Batch(n) => {
                g.unsynced += 1;
                if g.unsynced >= n {
                    g.file.sync_data()?;
                    g.unsynced = 0;
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
            }
            FsyncPolicy::Off => {}
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage (drain path).
    pub fn sync(&self) -> std::io::Result<()> {
        let mut g = self.file.lock().unwrap_or_else(|e| e.into_inner());
        g.file.sync_data()?;
        g.unsynced = 0;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Records appended over this journal's life (this process only).
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Explicit fsyncs issued.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Bytes appended (frames included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, source: u32) -> BfsRequest {
        BfsRequest {
            id,
            source,
            deadline_ms: None,
            verify: None,
            chaos: None,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("xbfs-journal-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_grammar() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("off").unwrap(), FsyncPolicy::Off);
        assert_eq!(
            FsyncPolicy::parse("batch=32").unwrap(),
            FsyncPolicy::Batch(32)
        );
        assert_eq!(
            FsyncPolicy::parse("batch:4").unwrap(),
            FsyncPolicy::Batch(4)
        );
        assert_eq!(FsyncPolicy::parse("batch").unwrap(), FsyncPolicy::Batch(8));
        for bad in ["", "sometimes", "batch=0", "batch=x", "always,off", "al@2"] {
            let e = FsyncPolicy::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad} must be rejected");
        }
        assert_eq!(FsyncPolicy::Batch(8).to_string(), "batch=8");
    }

    #[test]
    fn record_round_trip() {
        let full = BfsRequest {
            id: 42,
            source: 7,
            deadline_ms: Some(250.5),
            verify: Some(true),
            chaos: Some("panic:3".into()),
        };
        for r in [
            Record::Admit(req(1, 2)),
            Record::Admit(full),
            Record::Done(DoneRecord {
                id: 42,
                source: 7,
                status: "ok".into(),
                digest: Some("0x00ab".into()),
                line: Some("{\"id\":42,\"status\":\"ok\"}".into()),
            }),
            Record::Done(DoneRecord {
                id: 9,
                source: 1,
                status: "timeout".into(),
                digest: None,
                line: None,
            }),
        ] {
            assert_eq!(Record::decode(&r.payload()).as_ref(), Some(&r));
        }
    }

    #[test]
    fn replay_pairs_admits_with_completions() {
        let mut buf = HEADER.to_vec();
        buf.extend(Record::Admit(req(1, 10)).frame());
        buf.extend(Record::Admit(req(2, 20)).frame());
        buf.extend(
            Record::Done(DoneRecord {
                id: 1,
                source: 10,
                status: "ok".into(),
                digest: Some("0x1".into()),
                line: Some("{}".into()),
            })
            .frame(),
        );
        buf.extend(Record::Admit(req(3, 30)).frame());
        let r = replay_bytes(&buf);
        assert_eq!(r.records, 4);
        assert_eq!(r.torn_bytes, 0);
        assert_eq!(r.valid_len, buf.len() as u64);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(
            r.incomplete.iter().map(|q| q.id).collect::<Vec<_>>(),
            [2, 3],
            "incomplete admits keep admission order"
        );
    }

    #[test]
    fn replay_tolerates_crc_mismatch_as_torn_tail() {
        let mut buf = HEADER.to_vec();
        buf.extend(Record::Admit(req(1, 1)).frame());
        let keep = buf.len();
        let mut bad = Record::Admit(req(2, 2)).frame();
        let flip = bad.len() - 1;
        bad[flip] ^= 0x40; // corrupt the payload; CRC no longer matches
        buf.extend(bad);
        let r = replay_bytes(&buf);
        assert_eq!(r.records, 1);
        assert_eq!(r.valid_len, keep as u64);
        assert_eq!(r.torn_bytes, (buf.len() - keep) as u64);
        assert_eq!(r.incomplete.len(), 1);
    }

    #[test]
    fn replay_tolerates_double_completion() {
        let done = Record::Done(DoneRecord {
            id: 5,
            source: 2,
            status: "ok".into(),
            digest: Some("0xaa".into()),
            line: Some("{\"id\":5}".into()),
        });
        let mut buf = HEADER.to_vec();
        buf.extend(Record::Admit(req(5, 2)).frame());
        buf.extend(done.frame());
        buf.extend(done.frame()); // a crash between journal+deliver replays
        let r = replay_bytes(&buf);
        assert_eq!(r.records, 3);
        assert!(r.incomplete.is_empty());
        // Both completions surface; dedup.record is idempotent on the key.
        assert_eq!(r.completed.len(), 2);
    }

    #[test]
    fn replay_tolerates_done_before_admit() {
        // Admit and done records are appended from different threads; a
        // fast worker can journal the completion first. The late admit
        // must not resurrect the request as incomplete.
        let mut buf = HEADER.to_vec();
        buf.extend(
            Record::Done(DoneRecord {
                id: 7,
                source: 3,
                status: "ok".into(),
                digest: None,
                line: Some("{\"id\":7}".into()),
            })
            .frame(),
        );
        buf.extend(Record::Admit(req(7, 3)).frame());
        let r = replay_bytes(&buf);
        assert_eq!(r.records, 2);
        assert!(r.incomplete.is_empty(), "completed key stays completed");
        assert_eq!(r.completed.len(), 1);
    }

    #[test]
    fn replay_of_garbage_is_empty_not_a_panic() {
        for garbage in [
            &b""[..],
            &b"xb"[..],
            &b"not a journal at all, much longer than the header"[..],
        ] {
            let r = replay_bytes(garbage);
            assert_eq!(r.records, 0);
            assert_eq!(r.valid_len, 0);
            assert_eq!(r.torn_bytes, garbage.len() as u64);
        }
        // Valid header, then a frame claiming an absurd length.
        let mut buf = HEADER.to_vec();
        buf.extend((u32::MAX).to_le_bytes());
        buf.extend(0u32.to_le_bytes());
        buf.extend([0u8; 32]);
        let r = replay_bytes(&buf);
        assert_eq!(r.records, 0);
        assert_eq!(r.valid_len, HEADER.len() as u64);
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let path = tmp("truncate");
        let _ = std::fs::remove_file(&path);
        {
            let (j, r) = Journal::open(&path, FsyncPolicy::Off).unwrap();
            assert_eq!(r.records, 0);
            j.append_admit(&req(1, 4)).unwrap();
            j.append_done(1, 4, "ok", Some("0xbeef"), Some("{\"id\":1}"))
                .unwrap();
            j.append_admit(&req(2, 5)).unwrap();
            assert_eq!(j.appends(), 3);
            assert!(j.bytes_written() > 0);
        }
        // Tear the tail mid-record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        {
            let (j, r) = Journal::open(&path, FsyncPolicy::Always).unwrap();
            assert_eq!(r.records, 2, "torn admit discarded");
            assert!(r.torn_bytes > 0);
            assert!(r.incomplete.is_empty());
            assert_eq!(r.completed.len(), 1);
            assert_eq!(r.completed[0].line.as_deref(), Some("{\"id\":1}"));
            // Appending after truncation yields a parseable journal again.
            j.append_admit(&req(3, 6)).unwrap();
            assert_eq!(j.fsyncs(), 1);
        }
        let r = replay_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(r.records, 3);
        assert_eq!(r.incomplete.iter().map(|q| q.id).collect::<Vec<_>>(), [3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_policy_syncs_every_n() {
        let path = tmp("batch");
        let _ = std::fs::remove_file(&path);
        let (j, _) = Journal::open(&path, FsyncPolicy::Batch(3)).unwrap();
        for i in 0..7 {
            j.append_admit(&req(i, 0)).unwrap();
        }
        assert_eq!(j.fsyncs(), 2, "7 appends at batch=3 → 2 syncs");
        j.sync().unwrap();
        assert_eq!(j.fsyncs(), 3);
        let _ = std::fs::remove_file(&path);
    }
}
