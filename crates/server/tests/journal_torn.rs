//! Torn-journal recovery: the replay must recover exactly the longest
//! valid record prefix for *every possible* truncation offset — a crash
//! can stop an append after any byte — and must never panic on arbitrary
//! corruption. Exercised exhaustively (every offset) and with proptest
//! (random journals, random mutilation) through the public API only.

use proptest::prelude::*;
use xbfs_server::journal::{crc32, DoneRecord, FRAME_BYTES, HEADER};
use xbfs_server::protocol::BfsRequest;
use xbfs_server::{replay_bytes, FsyncPolicy, Journal, Record};

fn req(id: u64, source: u32) -> BfsRequest {
    BfsRequest {
        id,
        source,
        deadline_ms: None,
        verify: None,
        chaos: None,
    }
}

fn done(id: u64, source: u32, line: Option<&str>) -> Record {
    Record::Done(DoneRecord {
        id,
        source,
        status: "ok".into(),
        digest: Some(format!("{:#018x}", id * 31 + source as u64)),
        line: line.map(String::from),
    })
}

/// A representative journal: admits, completions (with and without
/// cached lines), a duplicate completion, and a trailing orphan admit.
/// Returns the byte buffer plus the frame end offsets (the only offsets
/// where a truncation is *not* torn).
fn build_journal() -> (Vec<u8>, Vec<usize>) {
    let records = vec![
        Record::Admit(req(1, 10)),
        Record::Admit(req(2, 20)),
        done(1, 10, Some("{\"id\":1,\"status\":\"ok\"}")),
        Record::Admit(req(3, 30)),
        done(2, 20, None),
        done(2, 20, None), // crash between journal and deliver replays
        Record::Admit(req(4, 40)),
    ];
    let mut buf = HEADER.to_vec();
    let mut ends = Vec::new();
    for r in &records {
        buf.extend(r.frame());
        ends.push(buf.len());
    }
    (buf, ends)
}

/// Truncating at every single byte offset recovers the longest valid
/// prefix: exactly the records whose frames fit entirely below the cut,
/// with everything past the last intact frame counted as torn.
#[test]
fn every_truncation_offset_recovers_the_longest_valid_prefix() {
    let (buf, ends) = build_journal();
    for cut in 0..=buf.len() {
        let r = replay_bytes(&buf[..cut]);
        if cut < HEADER.len() {
            assert_eq!(r.records, 0, "cut={cut}");
            assert_eq!(r.valid_len, 0, "cut={cut}");
            assert_eq!(r.torn_bytes, cut as u64, "cut={cut}");
            continue;
        }
        let intact = ends.iter().filter(|&&e| e <= cut).count();
        let prefix_end = if intact == 0 {
            HEADER.len()
        } else {
            ends[intact - 1]
        };
        assert_eq!(r.records, intact as u64, "cut={cut}");
        assert_eq!(r.valid_len, prefix_end as u64, "cut={cut}");
        assert_eq!(r.torn_bytes, (cut - prefix_end) as u64, "cut={cut}");
        // The recovered prefix is itself a fully valid journal.
        let again = replay_bytes(&buf[..prefix_end]);
        assert_eq!(again.torn_bytes, 0, "cut={cut}");
        assert_eq!(again.records, r.records, "cut={cut}");
        assert_eq!(again.incomplete, r.incomplete, "cut={cut}");
    }
}

/// `Journal::open` on every truncation both recovers that same prefix
/// and leaves a file that appends cleanly (open truncates the torn
/// tail, so the next append cannot create a mid-file tear). Sampled at
/// frame-interior offsets rather than every byte to keep the test fast.
#[test]
fn open_after_truncation_resumes_appending_cleanly() {
    let (buf, ends) = build_journal();
    let path =
        std::env::temp_dir().join(format!("xbfs-journal-torn-open-{}.wal", std::process::id()));
    for cut in [
        0,
        HEADER.len() - 1,
        HEADER.len(),
        ends[0] - 1,
        ends[0],
        ends[2] + FRAME_BYTES / 2,
        ends[5] + 1,
        buf.len() - 1,
        buf.len(),
    ] {
        std::fs::write(&path, &buf[..cut]).unwrap();
        let (j, r) = Journal::open(&path, FsyncPolicy::Off).unwrap();
        let expected = replay_bytes(&buf[..cut]);
        assert_eq!(r, expected, "cut={cut}");
        j.append_admit(&req(999, 5)).unwrap();
        drop(j);
        let healed = replay_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(healed.torn_bytes, 0, "cut={cut}: append after open heals");
        assert_eq!(healed.records, expected.records + 1, "cut={cut}");
        assert!(healed.incomplete.iter().any(|q| q.id == 999), "cut={cut}");
    }
    let _ = std::fs::remove_file(&path);
}

/// A deadline that is not a JSON number must not produce a frame replay
/// cannot decode — everything admitted after it would be truncated away.
/// It is written `null` and replays as "no per-request deadline".
#[test]
fn non_finite_deadline_does_not_truncate_the_journal() {
    let path =
        std::env::temp_dir().join(format!("xbfs-journal-nonfinite-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let hostile = BfsRequest {
        deadline_ms: Some(f64::INFINITY),
        ..req(2, 20)
    };
    {
        let (j, _) = Journal::open(&path, FsyncPolicy::Off).unwrap();
        j.append_admit(&req(1, 10)).unwrap();
        j.append_admit(&hostile).unwrap();
        j.append_admit(&req(3, 30)).unwrap();
    }
    let (_, r) = Journal::open(&path, FsyncPolicy::Off).unwrap();
    assert_eq!((r.records, r.torn_bytes), (3, 0));
    let ids: Vec<u64> = r.incomplete.iter().map(|q| q.id).collect();
    assert_eq!(ids, [1, 2, 3]);
    assert_eq!(r.incomplete[1].deadline_ms, None);
    let _ = std::fs::remove_file(&path);
}

/// A CRC mismatch anywhere in the tail record ends the valid prefix
/// exactly at the previous record — a flipped bit is indistinguishable
/// from a torn write and must be discarded the same way.
#[test]
fn crc_mismatch_ends_the_valid_prefix() {
    let (buf, ends) = build_journal();
    // Flip one payload byte in the last record.
    let mut bad = buf.clone();
    let idx = ends[6] - 2;
    bad[idx] ^= 0x10;
    let r = replay_bytes(&bad);
    assert_eq!(r.records, 6);
    assert_eq!(r.valid_len, ends[5] as u64);
    assert_eq!(r.torn_bytes, (bad.len() - ends[5]) as u64);
    // Sanity: the CRC actually protects the payload we flipped.
    let p0 = &buf[ends[5] + FRAME_BYTES..ends[6]];
    let p1 = &bad[ends[5] + FRAME_BYTES..ends[6]];
    assert_ne!(crc32(p0), crc32(p1));
}

/// Double completions and done-before-admit orderings never leave a
/// completed key in the incomplete set (both occur in real crashes:
/// replayed delivery, and admit/done racing on separate threads).
#[test]
fn completed_keys_never_resurface_as_incomplete() {
    let mut buf = HEADER.to_vec();
    buf.extend(done(8, 2, Some("{\"id\":8}")).frame());
    buf.extend(Record::Admit(req(8, 2)).frame());
    buf.extend(Record::Admit(req(9, 3)).frame());
    buf.extend(done(9, 3, None).frame());
    buf.extend(done(9, 3, None).frame());
    let r = replay_bytes(&buf);
    assert_eq!(r.records, 5);
    assert!(r.incomplete.is_empty());
    assert_eq!(r.completed.len(), 3);
}

proptest! {
    /// Random journals truncated at random offsets: replay never panics,
    /// the recovered prefix replays to itself byte-for-byte, and every
    /// incomplete request it returns was actually admitted.
    #[test]
    fn random_truncation_recovers_a_self_consistent_prefix(
        ids in proptest::collection::vec((0u64..50, 0u32..8, any::<bool>()), 0..40),
        cut_ppm in 0usize..=1_000_000,
    ) {
        let mut buf = HEADER.to_vec();
        let mut admitted = std::collections::HashSet::new();
        for (id, source, complete) in &ids {
            if *complete {
                buf.extend(done(*id, *source, None).frame());
            } else {
                buf.extend(Record::Admit(req(*id, *source)).frame());
                admitted.insert((*id, *source));
            }
        }
        let cut = (buf.len() * cut_ppm / 1_000_000).min(buf.len());
        let r = replay_bytes(&buf[..cut]);
        prop_assert!(r.valid_len as usize <= cut);
        let again = replay_bytes(&buf[..r.valid_len as usize]);
        prop_assert_eq!(again.torn_bytes, 0);
        prop_assert_eq!(again.records, r.records);
        for q in &r.incomplete {
            prop_assert!(admitted.contains(&(q.id, q.source)));
        }
    }

    /// Arbitrary byte mutilation (overwrite a random span) never panics
    /// replay and never yields a prefix that fails to re-replay cleanly.
    #[test]
    fn random_corruption_never_panics_replay(
        n_records in 0usize..20,
        at in 0usize..2048,
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut buf = HEADER.to_vec();
        for i in 0..n_records {
            buf.extend(Record::Admit(req(i as u64, (i % 5) as u32)).frame());
        }
        let at = at.min(buf.len());
        for (k, b) in garbage.iter().enumerate() {
            if at + k < buf.len() {
                buf[at + k] = *b;
            } else {
                buf.push(*b);
            }
        }
        let r = replay_bytes(&buf);
        prop_assert!(r.valid_len as usize <= buf.len());
        let again = replay_bytes(&buf[..r.valid_len as usize]);
        prop_assert_eq!(again.torn_bytes, 0);
        prop_assert_eq!(again.records, r.records);
    }
}
