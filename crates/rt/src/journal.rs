//! Crash-consistent record logs — the durability substrate for
//! checkpoint/resume and for the profile store.
//!
//! A record log is a single file holding a versioned header followed by
//! a sequence of length-and-checksum framed records. The format is
//! designed around one failure model: **the process can die at any
//! byte**. Every corruption a kill can produce — a torn (half-written)
//! tail record, a file that stops mid-header, a zero-byte file created
//! but never written — is detected on open and quarantined, never
//! trusted and never panicked on. Bit-rot (a flipped byte in the middle
//! of the file) is caught by per-record checksums.
//!
//! This module holds one framed-file core — [`RecordLog`] and the frame
//! walker [`frames`] — and two formats are built on it: the checkpoint
//! [`Journal`] below and the keyed profile store in `serve::store`. The
//! core owns every decision the two share, each in one place:
//!
//! * the file header, `MAGIC (8) | format version u32 | identity len u32
//!   | identity checksum u64 | identity bytes` ([`file_header`]); a file
//!   is trusted only if it starts with exactly these bytes;
//! * open-or-create: a missing file gets a fresh header, a bad header is
//!   quarantined wholesale, and a damaged record suffix is cut off by
//!   rewriting the valid prefix;
//! * the durable append and the torn append the crash tests simulate;
//! * the frame walk: each record is a format-specific frame header that
//!   carries the payload length and checksum, then the payload, and every
//!   frame is classified as good, torn, header-damaged or
//!   payload-damaged ([`Frame`]).
//!
//! A journal frame is
//!
//! ```text
//! record:  index u32 | payload len u32 | payload checksum u64 | payload
//! ```
//!
//! All integers are little-endian. Records must carry strictly
//! consecutive indices starting at 0 — the journal is a *contiguous
//! prefix* of some externally defined task list, which is what makes
//! resume accounting schedule-independent (see `core::generation`). A
//! record with an out-of-sequence index is treated as corruption. Replay
//! keeps the valid prefix and discards everything from the first damaged
//! record onward, because framing downstream of damage cannot be trusted.
//!
//! Atomicity comes from two mechanisms:
//!
//! * **Append + sync** — each record is written with a single `write_all`
//!   followed by `sync_data`, so a crash leaves at most one torn tail
//!   record, which replay detects by framing.
//! * **Temp-file + rename** — creating a log and repairing one
//!   (rewriting the valid prefix after quarantining a damaged tail) go
//!   through [`atomic_write`]: the new contents are written to a
//!   temporary file in the same directory, synced, then `rename`d over
//!   the target. POSIX rename is atomic, so the file is always either
//!   the old bytes or the new bytes, never a mixture.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Environment variable carrying the checkpoint directory for resumable
/// profile generation. Unset disables checkpointing entirely; a set but
/// empty value is a configuration error (see [`checkpoint_dir_from_env`]).
pub const CHECKPOINT_DIR_ENV: &str = "SMOKESCREEN_CHECKPOINT_DIR";

/// On-disk format version. Bumped on any incompatible layout change; a
/// journal with a different version is quarantined wholesale (its cells
/// are simply recomputed) rather than misread.
pub const FORMAT_VERSION: u32 = 1;

/// File magic: identifies a smokescreen journal.
const MAGIC: [u8; 8] = *b"SMKJRNL\0";

/// Journal frame header: index + payload length + payload checksum.
const RECORD_HEADER_LEN: usize = 4 + 4 + 8;

/// Upper bound on a single record payload (1 GiB) in any record log; a
/// larger length field can only come from corruption.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 30;

/// FNV-1a 64-bit checksum. Not cryptographic — it defends against
/// torn writes and bit-rot, not adversaries, and a 64-bit avalanche makes
/// silent acceptance of a damaged record vanishingly unlikely.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Atomically replaces `path` with `bytes`: writes a temporary sibling
/// file, syncs it, and renames it over the target. Readers (and crashes)
/// observe either the old contents or the new, never a torn mixture.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = sibling_tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn sibling_tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| ".journal".into());
    name.push(".tmp");
    path.with_file_name(name)
}

/// Reads the checkpoint directory from [`CHECKPOINT_DIR_ENV`].
///
/// Unset means checkpointing is disabled (`None`) — the production
/// default. A set-but-empty value is a loud startup error: silently
/// ignoring it would disable durability the operator asked for.
pub fn checkpoint_dir_from_env() -> Option<PathBuf> {
    match parse_checkpoint_dir(std::env::var_os(CHECKPOINT_DIR_ENV).as_deref()) {
        Ok(dir) => dir,
        Err(msg) => panic!("{msg}"),
    }
}

/// Parse layer behind [`checkpoint_dir_from_env`], exposed for tests:
/// `None` (unset) disables, a non-empty value enables, an empty value is
/// an error naming the offending variable.
pub fn parse_checkpoint_dir(
    raw: Option<&std::ffi::OsStr>,
) -> Result<Option<PathBuf>, String> {
    match raw {
        None => Ok(None),
        Some(v) if v.is_empty() => Err(format!(
            "{CHECKPOINT_DIR_ENV} is set but empty; unset it to disable checkpointing \
             or point it at a writable directory"
        )),
        Some(v) => Ok(Some(PathBuf::from(v))),
    }
}

/// The header every record log starts with: `magic` | format `version`
/// u32 | identity len u32 | identity checksum u64 | identity bytes.
pub fn file_header(magic: &[u8; 8], version: u32, identity: &str) -> Vec<u8> {
    let id = identity.as_bytes();
    let mut buf = Vec::with_capacity(8 + 4 + 4 + 8 + id.len());
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&(id.len() as u32).to_le_bytes());
    buf.extend_from_slice(&checksum64(id).to_le_bytes());
    buf.extend_from_slice(id);
    buf
}

/// Little-endian `u32` at byte `at`; the caller has checked the bounds.
pub fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

/// Little-endian `u64` at byte `at`; the caller has checked the bounds.
pub fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

/// How [`RecordLog::open`] found the file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Opened {
    /// The file did not exist and was created with a fresh header.
    pub created: bool,
    /// The header was foreign, mis-versioned, damaged or truncated (a
    /// zero-byte file included): the whole file was quarantined and
    /// replaced by a fresh header.
    pub bad_header: bool,
    /// Bytes discarded: the whole file for a bad header, otherwise the
    /// suffix past the valid prefix the scan reported.
    pub quarantined_bytes: u64,
}

/// An open record log: the append handle and its durable length.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    file: File,
    len: u64,
}

impl RecordLog {
    /// Opens (creating if absent) the log at `path`, which must start
    /// with exactly `header`. `scan` sees the whole file once its header
    /// matched and returns the length of its valid prefix, header
    /// included. Any quarantine repairs the file through [`atomic_write`]
    /// before the handle is returned — a bad header is replaced by a
    /// fresh one, a damaged suffix is cut off — so appends always
    /// continue well-formed framing.
    pub fn open(
        path: &Path,
        header: &[u8],
        scan: impl FnOnce(&[u8]) -> usize,
    ) -> io::Result<(RecordLog, Opened)> {
        let mut opened = Opened::default();
        let existing = match std::fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let len = match existing {
            Some(bytes) if bytes.starts_with(header) => {
                let valid = scan(&bytes);
                if valid < bytes.len() {
                    opened.quarantined_bytes = (bytes.len() - valid) as u64;
                    atomic_write(path, &bytes[..valid])?;
                }
                valid
            }
            Some(bytes) => {
                opened.bad_header = true;
                opened.quarantined_bytes = bytes.len() as u64;
                atomic_write(path, header)?;
                header.len()
            }
            None => {
                opened.created = true;
                atomic_write(path, header)?;
                header.len()
            }
        };
        let file = OpenOptions::new().append(true).open(path)?;
        let log = RecordLog {
            path: path.to_path_buf(),
            file,
            len: len as u64,
        };
        Ok((log, opened))
    }

    /// Durable length in bytes: the header plus every appended frame.
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// Appends one frame durably: a single `write_all`, then
    /// `sync_data`. When this returns `Ok`, a crash at any later byte
    /// cannot lose the frame.
    pub fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.write_all(frame)?;
        self.file.sync_data()?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Deliberately writes a *torn* frame — its `head_len`-byte frame
    /// header plus a `keep_frac` share of the payload, never the whole
    /// frame — simulating a crash mid-append for the seeded crash tests.
    /// Nothing may be appended afterwards; the next open quarantines the
    /// tail.
    pub fn append_torn(&mut self, frame: &[u8], head_len: usize, keep_frac: f64) -> io::Result<()> {
        let keep_payload = ((frame.len() - head_len) as f64 * keep_frac.clamp(0.0, 1.0)) as usize;
        let keep = (head_len + keep_payload).min(frame.len().saturating_sub(1));
        self.file.write_all(&frame[..keep])?;
        self.file.sync_data()?;
        self.len += keep as u64;
        Ok(())
    }

    /// Atomically replaces the whole file with `bytes` (temp-file +
    /// rename) and reopens the append handle on the new file.
    pub fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        atomic_write(&self.path, bytes)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.len = bytes.len() as u64;
        Ok(())
    }

    /// The raw append handle, for fault seams that write bytes no ack
    /// covers. Such bytes are not counted in [`bytes`](Self::bytes).
    pub fn file(&mut self) -> &mut File {
        &mut self.file
    }
}

/// One frame as [`frames`] classified it.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<'a, H> {
    /// Header accepted and payload checksum verified.
    Good(H, &'a [u8]),
    /// Cut short by the end of the file: inside the frame header
    /// (`None`), or inside the payload after an intact header.
    Torn(Option<H>),
    /// The format rejected the frame header, or its length is
    /// implausible; the next frame cannot be located.
    HeaderDamaged,
    /// Header accepted, payload checksum mismatch.
    PayloadDamaged(H, &'a [u8]),
}

/// Walks the frames of `bytes` from offset `from`, yielding each frame's
/// start offset and classification; a walk that reaches the end of
/// `bytes` exactly ended cleanly. Every frame is a `head_len`-byte frame
/// header, then its payload. `parse` decodes a frame header into the
/// format's own fields plus the payload length and checksum, or `None`
/// when the format rejects it. A payload-damaged frame still has a
/// trusted length, so the walk continues past it; a torn or
/// header-damaged frame ends it.
pub fn frames<'a, H: 'a>(
    bytes: &'a [u8],
    from: usize,
    head_len: usize,
    mut parse: impl FnMut(&[u8]) -> Option<(H, u32, u64)> + 'a,
) -> impl Iterator<Item = (usize, Frame<'a, H>)> + 'a {
    let mut next = Some(from);
    std::iter::from_fn(move || {
        let at = next.take().filter(|&at| at < bytes.len())?;
        let rest = &bytes[at..];
        let Some(head) = rest.get(..head_len) else {
            return Some((at, Frame::Torn(None)));
        };
        let frame = match parse(head) {
            Some((fields, len, sum)) if len <= MAX_PAYLOAD_LEN => {
                match rest[head_len..].get(..len as usize) {
                    None => Frame::Torn(Some(fields)),
                    Some(payload) => {
                        next = Some(at + head_len + payload.len());
                        if checksum64(payload) == sum {
                            Frame::Good(fields, payload)
                        } else {
                            Frame::PayloadDamaged(fields, payload)
                        }
                    }
                }
            }
            _ => Frame::HeaderDamaged,
        };
        Some((at, frame))
    })
}

/// What replay recovered from an existing journal.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    /// Payloads of the valid contiguous record prefix: `payloads[i]` is
    /// record index `i`.
    pub payloads: Vec<Vec<u8>>,
    /// Corruption events detected and quarantined: a torn tail, a
    /// checksum mismatch, an out-of-sequence index, a rejected payload,
    /// or an unreadable/foreign/mis-versioned header (each counts once).
    pub corrupt_records: usize,
    /// Index of the record lost to a torn tail write, when identifiable.
    /// The writer uses this to avoid re-injecting a torn crash for a cell
    /// whose torn write already "happened" (see `rt::fault::CrashPlan`).
    pub torn_record: Option<u32>,
    /// Bytes discarded by quarantine (everything after the valid prefix).
    pub quarantined_bytes: u64,
    /// Whether the journal file did not exist and was freshly created.
    pub created: bool,
}

/// Append handle for an open journal.
///
/// Obtained from [`Journal::open`]; appends are flushed and synced per
/// record so a crash loses at most the record being written.
#[derive(Debug)]
pub struct JournalWriter {
    log: RecordLog,
    records: u32,
}

impl JournalWriter {
    /// Total journal size in bytes (header + all durable records).
    pub fn bytes(&self) -> u64 {
        self.log.bytes()
    }

    /// Number of valid records in the journal (replayed + appended).
    pub fn records(&self) -> u32 {
        self.records
    }

    /// Appends one record durably: frame + payload in a single write,
    /// then `sync_data`. `index` must continue the consecutive sequence.
    pub fn append(&mut self, index: u32, payload: &[u8]) -> io::Result<()> {
        debug_assert_eq!(index, self.records, "journal indices must be consecutive");
        self.log.append(&frame_record(index, payload))?;
        self.records += 1;
        Ok(())
    }

    /// Deliberately writes a *torn* record (see [`RecordLog::append_torn`])
    /// for the seeded crash tests. `keep_frac` in `[0, 1]` selects how
    /// much of the payload survives; the full record is never written,
    /// and it is not counted in [`records`](Self::records).
    pub fn append_torn(&mut self, index: u32, payload: &[u8], keep_frac: f64) -> io::Result<()> {
        debug_assert_eq!(index, self.records, "journal indices must be consecutive");
        self.log
            .append_torn(&frame_record(index, payload), RECORD_HEADER_LEN, keep_frac)
    }
}

fn frame_record(index: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    buf.extend_from_slice(&index.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&checksum64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Namespace for opening journals.
pub struct Journal;

impl Journal {
    /// Opens (creating if absent) the journal at `path` for the given
    /// `identity`, replaying its valid record prefix.
    ///
    /// `validate` vets each replayed payload (`(index, payload) → ok`);
    /// a rejected payload is treated exactly like a checksum mismatch —
    /// the record and everything after it are quarantined. A journal
    /// whose header is unreadable, carries the wrong format version, or
    /// names a different identity is quarantined wholesale.
    ///
    /// Any quarantine **repairs the file** (see [`RecordLog::open`]), so
    /// appends always continue a well-formed journal.
    pub fn open(
        path: &Path,
        identity: &str,
        validate: impl Fn(u32, &[u8]) -> bool,
    ) -> io::Result<(JournalWriter, Replay)> {
        let header = file_header(&MAGIC, FORMAT_VERSION, identity);
        let mut replay = Replay::default();
        let parse = |h: &[u8]| Some((read_u32(h, 0), read_u32(h, 4), read_u64(h, 8)));
        let (log, opened) = RecordLog::open(path, &header, |bytes| {
            for (at, frame) in frames(bytes, header.len(), RECORD_HEADER_LEN, parse) {
                // Indices are consecutive by construction, so the record a
                // torn frame header belonged to is still known.
                let expected = replay.payloads.len() as u32;
                match frame {
                    Frame::Good(index, payload)
                        if index == expected && validate(index, payload) =>
                    {
                        replay.payloads.push(payload.to_vec());
                        continue;
                    }
                    Frame::Torn(None) => replay.torn_record = Some(expected),
                    Frame::Torn(Some(index)) if index == expected => {
                        replay.torn_record = Some(index)
                    }
                    _ => {}
                }
                replay.corrupt_records += 1;
                return at;
            }
            bytes.len()
        })?;
        replay.created = opened.created;
        replay.corrupt_records += opened.bad_header as usize;
        replay.quarantined_bytes = opened.quarantined_bytes;
        let records = replay.payloads.len() as u32;
        Ok((JournalWriter { log, records }, replay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smokescreen-journal-tests-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn accept_all(_: u32, _: &[u8]) -> bool {
        true
    }

    #[test]
    fn create_append_replay_round_trip() {
        let path = tmp_journal("round_trip.journal");
        let _ = std::fs::remove_file(&path);
        let payloads: Vec<Vec<u8>> = (0..5u32)
            .map(|i| format!("{{\"cell\":{i},\"data\":\"x{i}\"}}").into_bytes())
            .collect();
        {
            let (mut w, replay) = Journal::open(&path, "id-a", accept_all).unwrap();
            assert!(replay.created);
            assert!(replay.payloads.is_empty());
            for (i, p) in payloads.iter().enumerate() {
                w.append(i as u32, p).unwrap();
            }
            assert_eq!(w.records(), 5);
        }
        let (w, replay) = Journal::open(&path, "id-a", accept_all).unwrap();
        assert!(!replay.created);
        assert_eq!(replay.payloads, payloads);
        assert_eq!(replay.corrupt_records, 0);
        assert_eq!(replay.quarantined_bytes, 0);
        assert_eq!(w.records(), 5);
        assert_eq!(w.bytes(), std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_is_detected_attributed_and_repaired() {
        let path = tmp_journal("torn.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"record-zero").unwrap();
            w.append(1, b"record-one").unwrap();
            w.append_torn(2, b"record-two-will-tear", 0.5).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let (w, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 2);
        assert_eq!(replay.torn_record, Some(2));
        assert_eq!(replay.corrupt_records, 1);
        assert!(replay.quarantined_bytes > 0);
        // Repaired: the file now holds exactly the valid prefix.
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        assert_eq!(w.bytes(), std::fs::metadata(&path).unwrap().len());
        // And a further reopen is clean.
        let (_, replay2) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay2.corrupt_records, 0);
        assert_eq!(replay2.payloads.len(), 2);
    }

    #[test]
    fn fully_torn_frame_header_still_reports_sequence_position() {
        let path = tmp_journal("torn_header.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"zero").unwrap();
            // Tear so hard that even the 16-byte frame header is partial.
            w.append_torn(1, b"", 0.0).unwrap();
        }
        let (_, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 1);
        assert_eq!(replay.torn_record, Some(1), "index inferred from sequence");
    }

    #[test]
    fn checksum_flip_quarantines_suffix() {
        let path = tmp_journal("bitflip.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            for i in 0..4u32 {
                w.append(i, format!("payload-{i}").as_bytes()).unwrap();
            }
        }
        // Flip one bit inside record 1's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let header_len = file_header(&MAGIC, FORMAT_VERSION, "id").len();
        let rec_len = RECORD_HEADER_LEN + "payload-0".len();
        let target = header_len + rec_len + RECORD_HEADER_LEN + 3;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (_, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 1, "only the prefix before damage survives");
        assert_eq!(replay.corrupt_records, 1);
        assert_eq!(replay.torn_record, None, "bit-rot is not a torn write");
        assert!(replay.quarantined_bytes > 0);
        // Appending record 1 again after repair works.
        let (mut w, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.corrupt_records, 0);
        w.append(1, b"payload-1-again").unwrap();
        let (_, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 2);
    }

    #[test]
    fn wrong_version_and_foreign_identity_quarantine_wholesale() {
        let path = tmp_journal("version.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"data").unwrap();
        }
        // Different identity: everything is discarded and rewritten.
        let (_, replay) = Journal::open(&path, "other-identity", accept_all).unwrap();
        assert!(replay.payloads.is_empty());
        assert_eq!(replay.corrupt_records, 1);

        // Corrupt the version field of the (freshly rewritten) header.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(&path, "other-identity", accept_all).unwrap();
        assert!(replay.payloads.is_empty());
        assert_eq!(replay.corrupt_records, 1);
    }

    #[test]
    fn zero_byte_journal_is_quarantined_not_trusted() {
        let path = tmp_journal("empty.journal");
        std::fs::write(&path, b"").unwrap();
        let (w, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert!(replay.payloads.is_empty());
        assert_eq!(
            replay.corrupt_records, 1,
            "a created-but-never-written file is a crash artifact"
        );
        assert_eq!(w.records(), 0);
        // Repaired to a proper header; usable immediately.
        let (_, replay2) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay2.corrupt_records, 0);
    }

    #[test]
    fn out_of_sequence_record_is_corruption() {
        let path = tmp_journal("sequence.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"zero").unwrap();
        }
        // Hand-append a record claiming index 5.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame_record(5, b"rogue"));
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 1);
        assert_eq!(replay.corrupt_records, 1);
    }

    #[test]
    fn rejected_payload_quarantines_like_checksum_damage() {
        let path = tmp_journal("reject.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"good").unwrap();
            w.append(1, b"BAD").unwrap();
            w.append(2, b"good-too").unwrap();
        }
        let (_, replay) =
            Journal::open(&path, "id", |_, p| p.starts_with(b"good")).unwrap();
        assert_eq!(replay.payloads.len(), 1, "validation failure stops the replay");
        assert_eq!(replay.corrupt_records, 1);
    }

    #[test]
    fn frame_walk_steps_past_payload_damage_and_stops_at_lost_framing() {
        let parse = |h: &[u8]| Some((read_u32(h, 0), read_u32(h, 4), read_u64(h, 8)));
        let mut bytes = frame_record(0, b"good");
        let rot_at = bytes.len();
        bytes.extend_from_slice(&frame_record(1, b"rot"));
        bytes[rot_at + RECORD_HEADER_LEN] ^= 0x01; // "rot" -> "sot"
        let torn_at = bytes.len();
        bytes.extend_from_slice(&frame_record(2, b"torn-away")[..RECORD_HEADER_LEN + 2]);
        let walked: Vec<_> = frames(&bytes, 0, RECORD_HEADER_LEN, parse).collect();
        assert_eq!(
            walked,
            vec![
                (0, Frame::Good(0, &b"good"[..])),
                (rot_at, Frame::PayloadDamaged(1, &b"sot"[..])),
                (torn_at, Frame::Torn(Some(2))),
            ]
        );
        // A rejected frame header ends the walk: its length is untrusted.
        let reject_one = |h: &[u8]| parse(h).filter(|(index, _, _)| *index != 1);
        let walked: Vec<_> = frames(&bytes, 0, RECORD_HEADER_LEN, reject_one).collect();
        assert_eq!(walked[1], (rot_at, Frame::HeaderDamaged));
        assert_eq!(walked.len(), 2);
        // So does a frame header cut short.
        let walked: Vec<_> = frames(&bytes[..rot_at + 3], 0, RECORD_HEADER_LEN, parse).collect();
        assert_eq!(walked[1], (rot_at, Frame::Torn(None)));
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let path = tmp_journal("atomic.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second-longer");
        // No temp residue.
        assert!(!sibling_tmp_path(&path).exists());
    }

    #[test]
    fn checksum_is_stable_and_input_sensitive() {
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum64(b"abc"), checksum64(b"abc"));
        assert_ne!(checksum64(b"abc"), checksum64(b"abd"));
        assert_ne!(checksum64(b"abc"), checksum64(b"ab"));
    }

    #[test]
    fn checkpoint_dir_parsing_is_strict() {
        assert_eq!(parse_checkpoint_dir(None), Ok(None));
        assert_eq!(
            parse_checkpoint_dir(Some(std::ffi::OsStr::new("/tmp/ckpt"))),
            Ok(Some(PathBuf::from("/tmp/ckpt")))
        );
        let err = parse_checkpoint_dir(Some(std::ffi::OsStr::new(""))).unwrap_err();
        assert!(err.contains(CHECKPOINT_DIR_ENV), "{err}");
    }
}
