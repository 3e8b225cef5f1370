//! Durable campaign-run store: persistent idempotency records plus a
//! write-ahead log of rendered groups, the substrate of `ftsched
//! serve --data-dir`.
//!
//! The store follows the execution-queue discipline the serving layer
//! already uses in memory — explicit states, idempotency keys, result
//! fingerprints — and makes it survive process death. Per run (keyed by
//! the FNV-1a content hash of the canonical spec JSON) it keeps three
//! files in one flat data directory:
//!
//! * `<key>.spec.json` — the canonical spec, so a run is resumable from
//!   persisted state **only** (no client has to re-send anything);
//! * `<key>.run.json` — the [`RunRecord`]: state machine
//!   (`running → resumable → completed | failed`), group count, result
//!   fingerprint. Written via atomic write-rename (tmp file, `fsync`,
//!   `rename`, directory `fsync`), so a record is always either the old
//!   or the new version, never a torn mix;
//! * `<key>.wal` — the checksummed, length-prefixed group WAL
//!   ([`wal`]): frame *i* is the rendered bytes of group *i*, `fsync`ed
//!   before the group is exposed to any client. Frames are appended in
//!   batches ([`WalWriter::append_batch`]), one `fsync` per batch; a
//!   frame is committed when the call that wrote it returns, and the
//!   store's [`WalCounters`] count committed frames, syncs and bytes.
//!
//! # Recovery
//!
//! [`Store::recover`] (run once at server bind) deletes orphaned tmp
//! files, cuts every WAL back to its valid frame prefix ([`wal::repair`];
//! a WAL without a whole magic header is rewritten fresh), demotes
//! in-flight `running` records to `resumable`, and re-verifies the
//! result fingerprint of `completed` runs against the replayed WAL —
//! a completed run whose WAL no longer reproduces its fingerprint is
//! demoted to `resumable` and recomputed rather than served wrong.
//! Because group bytes are pure functions of `(spec, group index)`, a
//! resumed run re-executes **only** the missing group range and its
//! final body is byte-identical to an uninterrupted run.
//!
//! An unparseable run record is a hard [`recover`](Store::recover)
//! error, not a skip: ignoring it would let a resubmission silently
//! overwrite durable state that an operator may still want.

pub mod wal;

pub use wal::{fnv1a, WalCounters, WalWriter};

use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Lifecycle state of a persisted run (`running → resumable →
/// completed | failed`; `running` only ever appears in a live process —
/// recovery demotes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// A live process is computing and appending to the WAL.
    Running,
    /// The run was interrupted (crash or client hangup); its WAL prefix
    /// is intact and the missing group range can be re-executed.
    Resumable,
    /// All groups are in the WAL and the fingerprint is recorded.
    Completed,
    /// The run halted on a typed campaign/store error or a panic; sticky.
    Failed,
}

/// The persisted idempotency record of one campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Idempotency key: FNV-1a content hash of the canonical spec JSON,
    /// as 16 lowercase hex digits (duplicated in the file name).
    pub key: String,
    /// The spec's campaign id (`CampaignSpec::id`).
    pub campaign: String,
    /// Total number of groups the run must produce.
    pub groups: usize,
    /// Current lifecycle state.
    pub state: RunState,
    /// Result fingerprint over the rendered group payloads (see
    /// [`Fingerprint`]); `Some` exactly for completed runs.
    pub fingerprint: Option<String>,
    /// Failure message; `Some` exactly for failed runs.
    pub error: Option<String>,
}

/// Rolling FNV-1a digest over a run's rendered groups, in group order —
/// the result fingerprint of a [`RunRecord`]. Group boundaries are
/// folded in as a separator byte so reframed payload bytes cannot
/// collide.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a digest (FNV-1a offset basis).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Fingerprint {
        Fingerprint(wal::FNV1A_BASIS)
    }

    /// Folds one group payload (and a boundary marker) into the digest.
    pub fn push_group(&mut self, payload: &str) {
        self.0 = wal::fnv1a_from(self.0, payload.bytes().chain([0x1E]));
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn fingerprint_of(groups: &[String]) -> u64 {
    let mut fp = Fingerprint::new();
    for g in groups {
        fp.push_group(g);
    }
    fp.finish()
}

/// One run as found by [`Store::recover`], after WAL truncation and
/// state demotion.
#[derive(Debug)]
pub struct PersistedRun {
    /// Idempotency key (numeric form of [`RunRecord::key`]).
    pub key: u64,
    /// The (possibly demoted) record as it now stands on disk.
    pub record: RunRecord,
    /// Number of valid WAL frames (groups `0..groups_done` replay).
    pub groups_done: usize,
    /// Replayed group payloads — populated for completed runs (the
    /// server rebuilds the response body from them); empty otherwise
    /// (resumable runs re-read their WAL at claim time).
    pub groups: Vec<String>,
}

/// The durable run store over one data directory. One live server per
/// directory; the store itself does no cross-process locking.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    counters: Arc<WalCounters>,
}

/// Hex form of an idempotency key, as used in file names and URLs.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

impl Store {
    /// Opens (creating if needed) a data directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            counters: Arc::default(),
        })
    }

    /// Running totals over every WAL writer this store handed out.
    pub fn wal_counters(&self) -> &WalCounters {
        &self.counters
    }

    fn run_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.run.json", key_hex(key)))
    }

    fn spec_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.spec.json", key_hex(key)))
    }

    /// Path of a run's WAL file (exposed for fault-injection tests and
    /// operational tooling).
    pub fn wal_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.wal", key_hex(key)))
    }

    fn write_record(&self, record: &RunRecord) -> io::Result<()> {
        let key = u64::from_str_radix(&record.key, 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "malformed record key"))?;
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic(&self.dir, &self.run_path(key), json.as_bytes())
    }

    fn read_record(&self, key: u64) -> io::Result<RunRecord> {
        let path = self.run_path(key);
        let json = fs::read_to_string(&path)?;
        let record: RunRecord = serde_json::from_str(&json).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable run record {}: {e}", path.display()),
            )
        })?;
        if record.key != key_hex(key) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "run record {} names key {} (expected {})",
                    path.display(),
                    record.key,
                    key_hex(key)
                ),
            ));
        }
        Ok(record)
    }

    fn update_record(&self, key: u64, f: impl FnOnce(&mut RunRecord)) -> io::Result<()> {
        let mut record = self.read_record(key)?;
        f(&mut record);
        self.write_record(&record)
    }

    /// Registers a brand-new run: persists the canonical spec, a
    /// `running` record, and a fresh WAL (in that order — the WAL never
    /// exists without its record). Returns the WAL append handle.
    pub fn begin_run(
        &self,
        key: u64,
        campaign: &str,
        canonical_spec: &str,
        groups: usize,
    ) -> io::Result<WalWriter> {
        write_atomic(&self.dir, &self.spec_path(key), canonical_spec.as_bytes())?;
        self.write_record(&RunRecord {
            key: key_hex(key),
            campaign: campaign.to_string(),
            groups,
            state: RunState::Running,
            fingerprint: None,
            error: None,
        })?;
        Ok(WalWriter::create(&self.wal_path(key))?.counted_by(&self.counters))
    }

    /// The persisted canonical spec of a run.
    pub fn load_spec(&self, key: u64) -> io::Result<String> {
        fs::read_to_string(self.spec_path(key))
    }

    /// Claims a resumable run: re-reads and repairs the WAL (a second
    /// crash may have torn it again since recovery), marks the record
    /// `running`, and returns the replayed group payloads plus a writer
    /// positioned at the first missing group.
    pub fn resume_run(&self, key: u64) -> io::Result<(Vec<String>, WalWriter)> {
        let contents = wal::repair(&self.wal_path(key))?;
        self.update_record(key, |r| {
            r.state = RunState::Running;
            r.fingerprint = None;
            r.error = None;
        })?;
        let writer = WalWriter::open_at(&self.wal_path(key), contents.groups.len())?
            .counted_by(&self.counters);
        Ok((contents.groups, writer))
    }

    /// Marks a run completed, recording its result fingerprint. Every
    /// group frame is already `fsync`ed by this point, so the record
    /// flip is the commit point of the whole run.
    pub fn complete_run(&self, key: u64, fingerprint: u64) -> io::Result<()> {
        self.update_record(key, |r| {
            r.state = RunState::Completed;
            r.fingerprint = Some(key_hex(fingerprint));
            r.error = None;
        })
    }

    /// Marks an interrupted run resumable (client hangup, shutdown).
    pub fn mark_resumable(&self, key: u64) -> io::Result<()> {
        self.update_record(key, |r| r.state = RunState::Resumable)
    }

    /// Marks a run failed with a sticky error message.
    pub fn fail_run(&self, key: u64, error: &str) -> io::Result<()> {
        self.update_record(key, |r| {
            r.state = RunState::Failed;
            r.error = Some(error.to_string());
        })
    }

    /// Recovery bootstrap: scans the data directory, cleans orphaned
    /// tmp files, repairs every WAL, demotes `running` records
    /// to `resumable`, verifies completed runs' fingerprints (demoting
    /// on mismatch), and returns every persisted run sorted by key.
    pub fn recover(&self) -> io::Result<Vec<PersistedRun>> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                // Never-committed atomic-write leftovers.
                fs::remove_file(entry.path())?;
                continue;
            }
            if let Some(hex) = name.strip_suffix(".run.json") {
                let key = u64::from_str_radix(hex, 16).map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("run record with malformed key name: {name}"),
                    )
                })?;
                keys.push(key);
            }
        }
        keys.sort_unstable();

        let mut runs = Vec::with_capacity(keys.len());
        for key in keys {
            let mut record = self.read_record(key)?;
            let wal_path = self.wal_path(key);
            let contents = if wal_path.exists() {
                wal::repair(&wal_path)?
            } else {
                // A record committed before its WAL creation crashed:
                // materialize the empty WAL it promises.
                WalWriter::create(&wal_path)?;
                wal::WalContents {
                    groups: Vec::new(),
                    valid_len: wal::MAGIC.len() as u64,
                    truncated_tail: false,
                }
            };
            let groups_done = contents.groups.len().min(record.groups);

            let demote = match record.state {
                RunState::Running => true,
                RunState::Completed => {
                    let fp = Some(key_hex(fingerprint_of(&contents.groups)));
                    groups_done != record.groups || fp != record.fingerprint
                }
                RunState::Resumable | RunState::Failed => false,
            };
            if demote {
                record.state = RunState::Resumable;
                record.fingerprint = None;
                self.write_record(&record)?;
            }

            let groups = if record.state == RunState::Completed {
                contents.groups
            } else {
                Vec::new()
            };
            runs.push(PersistedRun {
                key,
                record,
                groups_done,
                groups,
            });
        }
        Ok(runs)
    }
}

/// Atomic write-rename with explicit `fsync` points: the tmp file is
/// synced before the rename, the directory after it, so the committed
/// path always holds either the previous contents or the new ones.
fn write_atomic(dir: &Path, path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(dir)
}

#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ftsched_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lifecycle_round_trip() {
        let dir = tmp_dir("lifecycle");
        let store = Store::open(&dir).unwrap();
        let key = 0xABCD_EF01;
        let mut w = store
            .begin_run(key, "demo", "{\"id\": \"demo\"}", 2)
            .unwrap();
        w.append(b"g0").unwrap();
        w.append(b"g1").unwrap();
        let fp = fingerprint_of(&["g0".into(), "g1".into()]);
        store.complete_run(key, fp).unwrap();

        let runs = store.recover().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].key, key);
        assert_eq!(runs[0].record.state, RunState::Completed);
        assert_eq!(runs[0].record.fingerprint, Some(key_hex(fp)));
        assert_eq!(runs[0].groups, vec!["g0", "g1"]);
        assert_eq!(store.load_spec(key).unwrap(), "{\"id\": \"demo\"}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_demotes_running_and_cleans_tmp() {
        let dir = tmp_dir("demote");
        let store = Store::open(&dir).unwrap();
        let key = 7;
        let mut w = store.begin_run(key, "demo", "{}", 3).unwrap();
        w.append(b"g0").unwrap();
        drop(w); // crash: record still `running`
        fs::write(dir.join("orphan.tmp"), b"half-written").unwrap();

        let runs = store.recover().unwrap();
        assert_eq!(runs[0].record.state, RunState::Resumable);
        assert_eq!(runs[0].groups_done, 1);
        assert!(runs[0].groups.is_empty(), "resumable runs replay lazily");
        assert!(!dir.join("orphan.tmp").exists());
        // The demotion is durable: a second recovery sees the same.
        assert_eq!(
            store.recover().unwrap()[0].record.state,
            RunState::Resumable
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_run_with_bad_fingerprint_is_demoted() {
        let dir = tmp_dir("fp");
        let store = Store::open(&dir).unwrap();
        let key = 9;
        let mut w = store.begin_run(key, "demo", "{}", 1).unwrap();
        w.append(b"genuine").unwrap();
        store.complete_run(key, 0xDEAD).unwrap(); // wrong fingerprint
        let runs = store.recover().unwrap();
        assert_eq!(runs[0].record.state, RunState::Resumable);
        assert_eq!(runs[0].record.fingerprint, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_run_replays_and_continues() {
        let dir = tmp_dir("resume");
        let store = Store::open(&dir).unwrap();
        let key = 11;
        let mut w = store.begin_run(key, "demo", "{}", 3).unwrap();
        w.append(b"g0").unwrap();
        drop(w);
        store.recover().unwrap();

        let (replayed, mut w) = store.resume_run(key).unwrap();
        assert_eq!(replayed, vec!["g0"]);
        assert_eq!(w.next_group(), 1);
        assert_eq!(store.read_record(key).unwrap().state, RunState::Running);
        w.append(b"g1").unwrap();
        w.append(b"g2").unwrap();
        let fp = fingerprint_of(&["g0".into(), "g1".into(), "g2".into()]);
        store.complete_run(key, fp).unwrap();
        let runs = store.recover().unwrap();
        assert_eq!(runs[0].record.state, RunState::Completed);
        assert_eq!(runs[0].groups, vec!["g0", "g1", "g2"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_record_fails_recovery_loudly() {
        let dir = tmp_dir("loud");
        let store = Store::open(&dir).unwrap();
        fs::write(dir.join("0000000000000001.run.json"), b"not json").unwrap();
        let err = store.recover().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_group_boundaries() {
        let a = fingerprint_of(&["ab".into(), "c".into()]);
        let b = fingerprint_of(&["a".into(), "bc".into()]);
        assert_ne!(a, b, "reframing the same bytes must change the digest");
    }
}
