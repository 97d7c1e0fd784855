//! Crash-recovery and compaction integration tests for the persistent
//! store: a torn tail record must be truncated away, a flipped checksum
//! byte must invalidate exactly the damaged suffix, compaction must
//! preserve exactly the live key set, and the record codec must
//! round-trip arbitrary payloads.

use std::path::PathBuf;

use drmap_store::record::{encode_record, record_len, HEADER_LEN};
use drmap_store::store::Store;
use drmap_store::verify::verify;
use proptest::{prop_assert_eq, proptest, ProptestConfig};

fn temp_store_path(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("drmap-store-recovery-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.wal");
    let _ = std::fs::remove_file(&path);
    path
}

/// Build a store with `n` keyed records and return its path.
fn populated(tag: &str, n: usize) -> PathBuf {
    let path = temp_store_path(tag);
    let store = Store::open(&path).unwrap();
    for i in 0..n {
        store
            .put(
                &format!("key-{i:03}"),
                format!("value-payload-{i:03}").as_bytes(),
            )
            .unwrap();
    }
    drop(store);
    path
}

#[test]
fn a_truncated_tail_record_is_dropped_and_the_rest_survives() {
    let path = populated("torn-tail", 5);
    let clean_len = std::fs::metadata(&path).unwrap().len();
    // Tear the last record: chop 3 bytes off its value.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

    let report = verify(&path, false).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.records, 4);

    let store = Store::open(&path).unwrap();
    assert_eq!(store.len(), 4, "the torn record is gone, the rest live");
    for i in 0..4 {
        assert_eq!(
            store.get(&format!("key-{i:03}")).unwrap().unwrap(),
            format!("value-payload-{i:03}").as_bytes()
        );
    }
    assert_eq!(store.get("key-004").unwrap(), None);
    let stats = store.stats();
    assert!(stats.recovered_bytes > 0, "{stats:?}");
    // Recovery physically truncated the file to the last good record.
    let recovered_len = std::fs::metadata(&path).unwrap().len();
    let last_record = record_len("key-004".len(), "value-payload-004".len());
    assert_eq!(recovered_len, clean_len - last_record);
    // A recovered store accepts new appends and verifies clean again.
    store.put("key-004", b"rewritten").unwrap();
    drop(store);
    let report = verify(&path, false).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.live_keys, 5);
}

#[test]
fn a_flipped_checksum_byte_invalidates_the_damaged_suffix() {
    let path = populated("flipped-crc", 6);
    // Flip one byte inside the 4th record's checksum field. Records are
    // fixed-size here: header + 3 records precede it.
    let record = record_len("key-000".len(), "value-payload-000".len());
    let target = (HEADER_LEN + 3 * record) as usize; // first CRC byte of record 3
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[target] ^= 0xA5;
    std::fs::write(&path, &bytes).unwrap();

    let report = verify(&path, false).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.records, 3, "scan stops at the first bad checksum");
    assert!(report.tail_error.unwrap().contains("checksum"));

    // Recovery truncates there: records 0..3 live, 3..6 are gone (the
    // documented contract — a WAL cannot trust anything after its first
    // broken record).
    let store = Store::open(&path).unwrap();
    assert_eq!(store.len(), 3);
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        HEADER_LEN + 3 * record
    );
    drop(store);
    assert!(verify(&path, false).unwrap().is_clean());
}

#[test]
fn compaction_preserves_exactly_the_live_key_set() {
    let path = temp_store_path("compact-live-set");
    let store = Store::open(&path).unwrap();
    // 12 keys, then overwrite 8 of them twice: 28 records, 16 dead
    // (>50% of the log is dead, the acceptance scenario).
    for i in 0..12 {
        store
            .put(&format!("k{i}"), format!("gen0-{i}").as_bytes())
            .unwrap();
    }
    for gen in 1..=2 {
        for i in 0..8 {
            store
                .put(&format!("k{i}"), format!("gen{gen}-{i}").as_bytes())
                .unwrap();
        }
    }
    let before = store.stats();
    assert_eq!(before.records, 28);
    assert_eq!(before.dead_records, 16);
    assert!(
        before.dead_bytes * 2 >= before.file_bytes - HEADER_LEN,
        "at least half the log must be dead: {before:?}"
    );
    assert!(
        verify(&path, false).unwrap().is_clean(),
        "verify passes before"
    );

    let expected: Vec<(String, Vec<u8>)> = (0..12)
        .map(|i| {
            let key = format!("k{i}");
            let value = store.get(&key).unwrap().unwrap();
            (key, value)
        })
        .collect();

    let report = store.compact().unwrap();
    assert_eq!(report.live_records, 12);
    assert_eq!(report.dropped_records, 16);
    assert!(report.bytes_after < report.bytes_before);

    assert!(
        verify(&path, false).unwrap().is_clean(),
        "verify passes after"
    );
    assert_eq!(store.len(), 12);
    for (key, value) in &expected {
        assert_eq!(store.get(key).unwrap().as_ref(), Some(value));
    }
    // And the same holds after a reopen of the compacted log.
    drop(store);
    let reopened = Store::open(&path).unwrap();
    assert_eq!(reopened.len(), 12);
    assert_eq!(reopened.stats().dead_records, 0);
    for (key, value) in &expected {
        assert_eq!(reopened.get(key).unwrap().as_ref(), Some(value));
    }
}

/// A log written by the store before its index keyed data by digest
/// (`tests/data/string_index.wal`): twelve data keys, four of them
/// rewritten, and three slow-trace slots, one of them rewritten. The
/// record format did not change, so it must open and serve every key.
#[test]
fn a_log_written_by_the_string_keyed_index_opens_and_serves_every_key() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/string_index.wal");
    let path = temp_store_path("string-index");
    std::fs::copy(fixture, &path).unwrap();
    let store = Store::open(&path).unwrap();
    let stats = store.stats();
    assert_eq!(
        (stats.live_entries, stats.records, stats.dead_records),
        (15, 20, 5)
    );
    assert_eq!(stats.recovered_bytes, 0);
    for i in 0..12u32 {
        let key = format!(
            "SALP-2|h{}w13j384i256p3q3s1g1|ib65536wb65536ob65536px1b1|obj=edp;layer={i}",
            13 + i
        );
        let round = if i % 3 == 0 { "second" } else { "first" };
        assert_eq!(
            store.get(&key).unwrap().unwrap(),
            format!("value-{i}-{round}").as_bytes(),
            "{key}"
        );
    }
    for (slot, value) in [(0, "trace-0"), (1, "trace-1-again"), (2, "trace-2")] {
        let key = format!("~slow/{slot:08}");
        assert_eq!(store.get(&key).unwrap().unwrap(), value.as_bytes());
    }
    assert_eq!(
        store.keys_with_prefix("~slow/").unwrap()[0],
        "~slow/00000001"
    );
    assert_eq!(store.bulk_load(None).unwrap().entries.len(), 12);
    // Compacting rewrites it into the same format, byte-compatible.
    store.compact().unwrap();
    drop(store);
    let reopened = Store::open(&path).unwrap();
    assert_eq!(reopened.len(), 15);
    assert_eq!(reopened.stats().dead_records, 0);
}

#[test]
fn an_empty_and_a_header_only_log_both_open() {
    let path = temp_store_path("empty");
    let store = Store::open(&path).unwrap();
    assert!(store.is_empty());
    drop(store);
    // Reopen the header-only file.
    let store = Store::open(&path).unwrap();
    assert!(store.is_empty());
    assert!(verify(&path, false).unwrap().is_clean());
}

/// An ASCII-ish key from raw bytes, so arbitrary byte vectors become
/// valid (and occasionally colliding) keys.
fn key_from(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b'a' + (b % 16)) as char).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The record codec round-trips arbitrary key/value pairs through a
    /// real file, and the store agrees with a plain HashMap replay.
    #[test]
    fn record_codec_round_trips(
        pairs in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..255, 1..12),
                proptest::collection::vec(0u8..255, 0..200),
            ),
            1..24,
        )
    ) {
        // Pure codec round trip, concatenated in one buffer.
        let mut log = Vec::new();
        for (key_bytes, value) in &pairs {
            log.extend_from_slice(&encode_record(&key_from(key_bytes), value));
        }
        let mut reader = std::io::BufReader::new(&log[..]);
        for (key_bytes, value) in &pairs {
            match drmap_store::record::read_record(&mut reader).unwrap() {
                drmap_store::record::RecordRead::Record { key, value: got } => {
                    prop_assert_eq!(&key, &key_from(key_bytes));
                    prop_assert_eq!(&got, value);
                }
                other => panic!("expected a record, got {other:?}"),
            }
        }
        assert!(matches!(
            drmap_store::record::read_record(&mut reader).unwrap(),
            drmap_store::record::RecordRead::Eof
        ));

        // Store-level replay equivalence (including key collisions and
        // a reopen).
        let path = temp_store_path("proptest");
        let store = Store::open(&path).unwrap();
        let mut model = std::collections::HashMap::new();
        for (key_bytes, value) in &pairs {
            let key = key_from(key_bytes);
            store.put(&key, value).unwrap();
            model.insert(key, value.clone());
        }
        drop(store);
        let store = Store::open(&path).unwrap();
        prop_assert_eq!(store.len(), model.len());
        for (key, value) in &model {
            prop_assert_eq!(store.get(key).unwrap().as_ref(), Some(value));
        }
    }
}
