//! Checksummed, length-prefixed write-ahead log of rendered group
//! frames.
//!
//! A WAL file is an 8-byte magic header ([`MAGIC`]) followed by frames:
//!
//! ```text
//! [u32 LE payload length][u64 LE group index][u64 LE FNV-1a digest][payload]
//! ```
//!
//! The digest covers the group-index bytes *and* the payload, so a bit
//! flip anywhere in a frame is caught either by the length failing to
//! line up or by the checksum. Frames are appended strictly in group
//! order — frame *i* carries group *i*, enforced on both the write side
//! ([`WalWriter::append_batch`] numbers frames itself) and the read side
//! ([`read`] stops at the first out-of-sequence frame). A recovered WAL
//! therefore can never replay a group twice or skip one: its valid
//! prefix is exactly groups `0..k`.
//!
//! # Durability
//!
//! [`WalWriter::append_batch`] encodes a batch of frames into a reusable
//! scratch buffer (zero steady-state heap allocations once the buffer is
//! sized — pinned by `tests/alloc_counter.rs`), writes them with a single
//! `write_all`, and `fsync`s the file once before returning: every frame
//! of the batch is **committed** exactly when the call that wrote it
//! returns `Ok`, and none is before. [`WalWriter::append`] is the
//! one-frame batch. A crash mid-write leaves a torn tail, possibly in
//! the middle of a batch; [`read`] reports the length of the valid
//! prefix and [`repair`] cuts the file back to it, after which appends
//! continue from the first missing group. [`WalCounters`] keep running
//! totals of committed frames, syncs and bytes.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic: identifies (and versions) the frame format.
pub const MAGIC: &[u8; 8] = b"FTSWAL1\n";

const FRAME_HEADER: usize = 4 + 8 + 8;

/// The FNV-1a 64-bit offset basis: the digest of no bytes.
pub(crate) const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte stream — the same digest the serve layer uses for
/// spec content hashes.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv1a_from(FNV1A_BASIS, bytes)
}

/// Continues an FNV-1a digest from `state` over more bytes.
pub(crate) fn fnv1a_from(state: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(state, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn frame_digest(group_index: u64, payload: &[u8]) -> u64 {
    fnv1a(
        group_index
            .to_le_bytes()
            .into_iter()
            .chain(payload.iter().copied()),
    )
}

/// Running totals of committed WAL writes, shared by every writer of a
/// [`Store`](super::Store). Relaxed atomics: they are statistics and
/// publish no other data.
#[derive(Debug, Default)]
pub struct WalCounters {
    frames: AtomicU64,
    syncs: AtomicU64,
    bytes: AtomicU64,
}

impl WalCounters {
    /// Group frames committed (written and `fsync`ed).
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// `fsync`s that committed frames: one per batch.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Bytes of committed frames, frame headers included.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Append handle over a WAL file. Frames are numbered by the writer —
/// callers supply payloads only, so a frame's group index can never
/// diverge from its position.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    buf: Vec<u8>,
    next_group: usize,
    counters: Arc<WalCounters>,
}

impl WalWriter {
    /// Creates a fresh WAL (truncating any previous file) and commits
    /// the magic header.
    pub fn create(path: &Path) -> io::Result<WalWriter> {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            buf: Vec::new(),
            next_group: 0,
            counters: Arc::default(),
        })
    }

    /// Opens an existing WAL for appending after recovery: the file must
    /// already be cut back to a valid prefix of `next_group` frames
    /// (see [`repair`]).
    pub fn open_at(path: &Path, next_group: usize) -> io::Result<WalWriter> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter {
            file,
            buf: Vec::new(),
            next_group,
            counters: Arc::default(),
        })
    }

    /// Counts this writer's commits into `counters` from now on.
    pub(super) fn counted_by(mut self, counters: &Arc<WalCounters>) -> WalWriter {
        self.counters = Arc::clone(counters);
        self
    }

    /// The group index the next appended frame will carry.
    pub fn next_group(&self) -> usize {
        self.next_group
    }

    /// Appends one group frame and `fsync`s: the frame is durable when
    /// this returns. The one-frame case of [`WalWriter::append_batch`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append_batch([payload])
    }

    /// Appends one frame per payload, numbered on from
    /// [`WalWriter::next_group`], with one `write_all` and one `fsync`:
    /// the frames are durable when this returns `Ok`. After an error
    /// none of them counts as committed and the writer's position is
    /// unchanged. An empty batch writes and syncs nothing. Steady-state
    /// batches reuse the encode buffer and perform no heap allocation
    /// once it is sized.
    pub fn append_batch<'p>(
        &mut self,
        payloads: impl IntoIterator<Item = &'p [u8]>,
    ) -> io::Result<()> {
        self.buf.clear();
        let mut frames = 0;
        for payload in payloads {
            let gi = (self.next_group + frames) as u64;
            self.buf
                .extend_from_slice(&(payload.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(&gi.to_le_bytes());
            self.buf
                .extend_from_slice(&frame_digest(gi, payload).to_le_bytes());
            self.buf.extend_from_slice(payload);
            frames += 1;
        }
        if frames == 0 {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        self.next_group += frames;
        let c = &self.counters;
        c.frames.fetch_add(frames as u64, Ordering::Relaxed);
        c.syncs.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// The valid prefix of a WAL file, as recovered by [`read`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalContents {
    /// Frame payloads in group order: `groups[i]` is group `i`.
    pub groups: Vec<String>,
    /// Byte length of the valid prefix (magic + whole valid frames).
    pub valid_len: u64,
    /// Whether bytes past the valid prefix were present (a torn or
    /// corrupt tail that [`truncate_to`] should drop).
    pub truncated_tail: bool,
}

/// Reads the valid frame prefix of a WAL file. A missing or mangled
/// magic header yields an empty contents with `valid_len == 0` (the
/// whole file is condemned); scanning stops at the first frame that is
/// incomplete, fails its checksum, is out of sequence, or is not UTF-8.
pub fn read(path: &Path) -> io::Result<WalContents> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Ok(WalContents {
            groups: Vec::new(),
            valid_len: 0,
            truncated_tail: !bytes.is_empty(),
        });
    }
    let mut groups = Vec::new();
    let mut off = MAGIC.len();
    loop {
        let rest = &bytes[off..];
        if rest.len() < FRAME_HEADER {
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let gi = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let digest = u64::from_le_bytes(rest[12..20].try_into().expect("8 bytes"));
        if rest.len() < FRAME_HEADER + len {
            break; // torn payload
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        if gi != groups.len() as u64 || digest != frame_digest(gi, payload) {
            break; // out of sequence or corrupt
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        groups.push(text.to_string());
        off += FRAME_HEADER + len;
    }
    Ok(WalContents {
        groups,
        valid_len: off as u64,
        truncated_tail: off < bytes.len(),
    })
}

/// Truncates a WAL back to a valid prefix reported by [`read`]. With
/// `valid_len` shorter than the magic header the file is rewritten as a
/// fresh empty WAL (magic only), so a condemned header never survives
/// recovery.
pub fn truncate_to(path: &Path, valid_len: u64) -> io::Result<()> {
    if valid_len < MAGIC.len() as u64 {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        return file.sync_all();
    }
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_all()
}

/// Reads a WAL's valid prefix ([`read`]) and cuts the file back to it
/// ([`truncate_to`]) wherever appends could not follow it: a torn or
/// corrupt tail is dropped, and a file without a whole magic header —
/// an empty one included, as a crash between creating the file and
/// syncing its header leaves — is rewritten as a fresh WAL.
pub fn repair(path: &Path) -> io::Result<WalContents> {
    let contents = read(path)?;
    if contents.truncated_tail || contents.valid_len < MAGIC.len() as u64 {
        truncate_to(path, contents.valid_len)?;
    }
    Ok(contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ftsched_wal_{name}_{}", std::process::id()))
    }

    #[test]
    fn append_read_round_trip() {
        let path = tmp("round_trip");
        let mut w = WalWriter::create(&path).unwrap();
        for payload in ["alpha", "beta", "gamma"] {
            w.append(payload.as_bytes()).unwrap();
        }
        let contents = read(&path).unwrap();
        assert_eq!(contents.groups, vec!["alpha", "beta", "gamma"]);
        assert!(!contents.truncated_tail);
        assert_eq!(
            contents.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "everything written is valid"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_continues_the_sequence() {
        let path = tmp("resume");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"g0").unwrap();
        drop(w);
        let contents = read(&path).unwrap();
        let mut w = WalWriter::open_at(&path, contents.groups.len()).unwrap();
        assert_eq!(w.next_group(), 1);
        w.append(b"g1").unwrap();
        assert_eq!(read(&path).unwrap().groups, vec!["g0", "g1"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mangled_magic_condemns_the_file() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAWAL!garbage").unwrap();
        let contents = read(&path).unwrap();
        assert!(contents.groups.is_empty());
        assert_eq!(contents.valid_len, 0);
        assert!(contents.truncated_tail);
        truncate_to(&path, contents.valid_len).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), MAGIC);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_frame_cuts_the_tail() {
        let path = tmp("corrupt");
        let mut w = WalWriter::create(&path).unwrap();
        for payload in ["first", "second", "third"] {
            w.append(payload.as_bytes()).unwrap();
        }
        drop(w);
        // Flip one payload byte of the second frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload = MAGIC.len() + FRAME_HEADER + 5 + FRAME_HEADER;
        bytes[second_payload] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let contents = read(&path).unwrap();
        assert_eq!(contents.groups, vec!["first"]);
        assert!(contents.truncated_tail);
        truncate_to(&path, contents.valid_len).unwrap();

        // Appends resume from the first missing group; the re-read sees
        // every group exactly once.
        let mut w = WalWriter::open_at(&path, contents.groups.len()).unwrap();
        w.append(b"second'").unwrap();
        w.append(b"third'").unwrap();
        assert_eq!(
            read(&path).unwrap().groups,
            vec!["first", "second'", "third'"]
        );
        let _ = std::fs::remove_file(&path);
    }
}
