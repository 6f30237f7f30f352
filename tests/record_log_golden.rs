//! Byte-level goldens for the two record-log formats on disk: the
//! checkpoint journal (`rt::journal`) and the profile store
//! (`serve::store`, data + index segment).
//!
//! Each format is rebuilt from a fixed script and must match the
//! committed bytes under `tests/golden/record_log/` exactly. Every file
//! is then truncated at every byte offset and reopened — the shape a
//! crash at that byte leaves behind — and the recovery outcome (records
//! kept, torn flags, quarantined bytes, the repaired file) must match the
//! committed table row for row. Refactors of either format's replay or
//! repair path must keep both byte-identical.
//!
//! Bless intentional format changes with
//! `UPDATE_GOLDEN=1 cargo test --test record_log_golden`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use smokescreen::core::{Aggregate, Profile, ProfilePoint};
use smokescreen::degrade::InterventionSet;
use smokescreen::rt::journal::{checksum64, Journal};
use smokescreen::video::codec::Quality;
use smokescreen::video::{ObjectClass, Resolution};
use smokescreen_serve::store::{DATA_FILE, INDEX_FILE};
use smokescreen_serve::{ProfileStore, StoreKey};

const JOURNAL_IDENTITY: &str = "golden-journal";
const STORE_IDENTITY: &str = "golden-store";
const JOURNAL_PAYLOADS: [&[u8]; 3] = [
    b"{\"cell\":0,\"y\":1.25}",
    b"{\"cell\":1,\"y\":2.5,\"early_stop\":true}",
    b"",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/record_log")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!(
            "smokescreen-record-log-golden-{}",
            std::process::id()
        ))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_golden(name: &str, actual: &[u8]) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
    if golden != actual {
        let at = golden.iter().zip(actual).position(|(a, b)| a != b);
        panic!(
            "{name} drifted from the pinned golden: {} golden bytes vs {} actual, \
             first difference at {at:?} (bless intentional changes with UPDATE_GOLDEN=1)",
            golden.len(),
            actual.len()
        );
    }
}

/// A small profile exercising every codec column: resolution, class
/// masks, noise, quality and the corrected flag.
fn profile(tag: u64) -> Profile {
    let points = (0..2u64)
        .map(|i| {
            let mut set = InterventionSet::sampling(0.25 + 0.5 * i as f64);
            if i == 0 {
                set.resolution = Some(Resolution::new(320 + 32 * tag as u32, 240));
                set.restricted = vec![ObjectClass::Person];
            } else {
                set.blurred = vec![ObjectClass::Face];
                set.noise = 0.125;
                set.quality = Some(Quality::new(0.75));
            }
            ProfilePoint {
                set,
                y_approx: 3.0 + tag as f64 / 4.0 + i as f64,
                err_b: 0.0625 * (i + 1) as f64,
                corrected: i == 1,
                n: 50 * (tag as usize + i as usize + 1),
            }
        })
        .collect();
    Profile {
        corpus: format!("golden-{tag}"),
        model: "oracle".into(),
        class: ObjectClass::Car,
        aggregate: Aggregate::Quantile { r: 0.5 },
        delta: 0.05,
        points,
    }
}

fn build_journal(path: &Path) {
    let (mut w, replay) = Journal::open(path, JOURNAL_IDENTITY, |_, _| true).unwrap();
    assert!(replay.created);
    for (i, p) in JOURNAL_PAYLOADS.iter().enumerate() {
        w.append(i as u32, p).unwrap();
    }
}

/// Puts (one key updated twice, so compaction reclaims a frame), one
/// compaction, then two tail puts past the index high-water mark: one new
/// key and one update of a compacted key.
fn build_store(dir: &Path) {
    let (mut store, replay) = ProfileStore::open(dir, STORE_IDENTITY).unwrap();
    assert!(replay.created);
    store.put(StoreKey::new(7, 1), &profile(0)).unwrap();
    store.put(StoreKey::new(3, 2), &profile(1)).unwrap();
    store.put(StoreKey::new(7, 1), &profile(2)).unwrap();
    store.put(StoreKey::new(5, 9), &profile(3)).unwrap();
    store.compact().unwrap();
    store.put(StoreKey::new(1, 4), &profile(4)).unwrap();
    store.put(StoreKey::new(3, 2), &profile(5)).unwrap();
}

/// `len:checksum` of a file after recovery, or `-` when it is absent.
fn file_digest(path: &Path) -> String {
    match std::fs::read(path) {
        Ok(bytes) => format!("{}:{:016x}", bytes.len(), checksum64(&bytes)),
        Err(_) => "-".into(),
    }
}

#[test]
fn journal_bytes_and_every_truncation_match_golden() {
    let dir = scratch("journal");
    let path = dir.join("golden.journal");
    build_journal(&path);
    let bytes = std::fs::read(&path).unwrap();
    assert_golden("journal.bin", &bytes);

    let mut table = String::from(
        "cut,records,corrupt_records,torn_record,quarantined_bytes,created,writer_bytes,file\n",
    );
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (w, replay) = Journal::open(&path, JOURNAL_IDENTITY, |_, _| true).unwrap();
        assert_eq!(w.records() as usize, replay.payloads.len());
        for (got, want) in replay.payloads.iter().zip(JOURNAL_PAYLOADS) {
            assert_eq!(got.as_slice(), want, "cut {cut}: replayed payload bytes");
        }
        writeln!(
            table,
            "{cut},{},{},{},{},{},{},{}",
            replay.payloads.len(),
            replay.corrupt_records,
            replay.torn_record.map_or("-".into(), |i| i.to_string()),
            replay.quarantined_bytes,
            replay.created,
            w.bytes(),
            file_digest(&path),
        )
        .unwrap();
    }
    assert_golden("journal_truncation.csv", table.as_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_bytes_and_every_truncation_match_golden() {
    let dir = scratch("store");
    build_store(&dir);
    let data = std::fs::read(dir.join(DATA_FILE)).unwrap();
    let index = std::fs::read(dir.join(INDEX_FILE)).unwrap();
    assert_golden(DATA_FILE, &data);
    assert_golden(INDEX_FILE, &index);

    let mut table = String::from(
        "segment,cut,records,scanned_records,index_used,quarantined_records,\
         quarantined_bytes,torn_tail,created,data_bytes,data,index\n",
    );
    let case = scratch("store-case");
    for (segment, truncated) in [(DATA_FILE, &data), (INDEX_FILE, &index)] {
        for cut in 0..=truncated.len() {
            for (name, full) in [(DATA_FILE, &data), (INDEX_FILE, &index)] {
                let body = if name == segment {
                    &full[..cut]
                } else {
                    &full[..]
                };
                std::fs::write(case.join(name), body).unwrap();
            }
            let (store, replay) = ProfileStore::open(&case, STORE_IDENTITY).unwrap();
            assert_eq!(store.len(), replay.records);
            writeln!(
                table,
                "{segment},{cut},{},{},{},{},{},{},{},{},{},{}",
                replay.records,
                replay.scanned_records,
                replay.index_used,
                replay.quarantined_records,
                replay.quarantined_bytes,
                replay.torn_tail,
                replay.created,
                store.data_bytes(),
                file_digest(&case.join(DATA_FILE)),
                file_digest(&case.join(INDEX_FILE)),
            )
            .unwrap();
        }
    }
    assert_golden("store_truncation.csv", table.as_bytes());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&case);
}
