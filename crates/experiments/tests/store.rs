//! Durability properties of `experiments::store` — the invariants the
//! crash-exact resume contract rests on:
//!
//! * recovery after truncating a WAL at **any** byte never replays a
//!   group twice or skips one: the recovered prefix is exactly groups
//!   `0..k`, and resuming appends `k..n` so every group appears once —
//!   also when the frames were written in batches, one `fsync` each;
//! * a WAL cut to zero bytes (a crash before its magic header was
//!   synced) is rewritten fresh before a resumed run appends to it;
//! * a corrupted frame (bit flip) condemns the tail, never a valid
//!   prefix;
//! * the run-record state machine recovers as specified: `running`
//!   demotes to `resumable`, verified `completed` replays, tampered
//!   `completed` demotes instead of serving wrong bytes;
//! * recovery is idempotent — a second scan of the same directory sees
//!   the same state.

use experiments::store::{fnv1a, key_hex, wal, Fingerprint, RunState, Store, WalWriter};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory per test case (proptest runs many cases,
/// so a per-test name is not enough).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ftsched_store_suite_{name}_{}_{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn payloads(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("group-{i}-{}", "x".repeat(i % 7)))
        .collect()
}

fn write_wal(path: &std::path::Path, groups: &[String]) {
    let mut w = WalWriter::create(path).expect("create wal");
    for g in groups {
        w.append(g.as_bytes()).expect("append");
    }
}

/// Writes `groups` to a fresh WAL in batches of the given sizes (cycled;
/// the last batch takes what is left).
fn write_wal_in_batches(path: &std::path::Path, groups: &[String], sizes: &[usize]) {
    let mut w = WalWriter::create(path).expect("create wal");
    let mut rest = groups;
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        w.append_batch(batch.iter().map(String::as_bytes))
            .expect("append batch");
        rest = tail;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frames written in batches (one `write_all` and one `fsync` each)
    /// are the same bytes as frames written one at a time, so a cut at
    /// any byte — mid-batch included — recovers exactly groups `0..k`,
    /// and batches appended after recovery continue the sequence.
    #[test]
    fn batched_wal_cut_at_any_byte_recovers_an_exact_prefix(
        n in 1usize..12,
        sizes in collection::vec(1usize..5, 1..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch("batched");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.wal");
        let groups = payloads(n);
        write_wal_in_batches(&path, &groups, &sizes);
        let one_by_one = dir.join("single.wal");
        write_wal(&one_by_one, &groups);
        prop_assert_eq!(fs::read(&path).unwrap(), fs::read(&one_by_one).unwrap());

        let full = fs::metadata(&path).unwrap().len();
        let cut = (full as f64 * cut_frac) as u64;
        let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let contents = wal::repair(&path).unwrap();
        let k = contents.groups.len();
        prop_assert_eq!(&contents.groups[..], &groups[..k], "prefix must be exact");
        let mut w = WalWriter::open_at(&path, k).unwrap();
        for batch in groups[k..].chunks(sizes[0]) {
            w.append_batch(batch.iter().map(String::as_bytes)).unwrap();
        }
        let recovered = wal::read(&path).unwrap();
        prop_assert_eq!(recovered.groups, groups);
        prop_assert!(!recovered.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncate a WAL at a random byte offset, recover, resume: every
    /// group is replayed or re-appended exactly once, in order.
    #[test]
    fn truncation_never_duplicates_or_skips_groups(
        n in 1usize..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch("truncate");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.wal");
        let groups = payloads(n);
        write_wal(&path, &groups);

        // Cut the file at an arbitrary byte offset.
        let full = fs::metadata(&path).unwrap().len();
        let cut = (full as f64 * cut_frac) as u64;
        let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        // Recovery: the valid prefix is exactly groups 0..k.
        let contents = wal::read(&path).unwrap();
        let k = contents.groups.len();
        prop_assert!(k <= n);
        prop_assert_eq!(&contents.groups[..], &groups[..k], "prefix must be exact");
        wal::truncate_to(&path, contents.valid_len).unwrap();

        // Resume: append the missing range; re-read sees each group
        // exactly once, in order.
        let mut w = WalWriter::open_at(&path, k).unwrap();
        prop_assert_eq!(w.next_group(), k);
        for g in &groups[k..] {
            w.append(g.as_bytes()).unwrap();
        }
        let recovered = wal::read(&path).unwrap();
        prop_assert_eq!(recovered.groups, groups);
        prop_assert!(!recovered.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flip one byte anywhere past the magic: the valid prefix never
    /// contains a corrupted frame, and always is a frame-aligned run of
    /// leading groups.
    #[test]
    fn bit_flip_is_always_caught(
        n in 1usize..6,
        flip_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let dir = scratch("flip");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.wal");
        let groups = payloads(n);
        write_wal(&path, &groups);

        let mut bytes = fs::read(&path).unwrap();
        let lo = wal::MAGIC.len();
        let pos = lo + ((bytes.len() - lo - 1) as f64 * flip_frac) as usize;
        bytes[pos] ^= mask;
        fs::write(&path, &bytes).unwrap();

        let contents = wal::read(&path).unwrap();
        let k = contents.groups.len();
        prop_assert!(k < n, "the flipped frame (or one after it) must be dropped");
        prop_assert_eq!(&contents.groups[..], &groups[..k]);
        prop_assert!(contents.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_is_idempotent_and_preserves_resumable_progress() {
    let dir = scratch("idempotent");
    let store = Store::open(&dir).unwrap();
    let key = 0x42;
    let groups = payloads(4);
    let mut w = store
        .begin_run(key, "demo", "{\"id\": \"demo\"}", 4)
        .unwrap();
    w.append(groups[0].as_bytes()).unwrap();
    w.append(groups[1].as_bytes()).unwrap();
    drop(w); // simulated crash: record still `running`

    let first = store.recover().unwrap();
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].record.state, RunState::Resumable);
    assert_eq!(first[0].groups_done, 2);

    // A second recovery pass (second restart) sees identical state.
    let second = store.recover().unwrap();
    assert_eq!(second[0].record, first[0].record);
    assert_eq!(second[0].groups_done, 2);

    // Resume replays exactly the durable prefix and finishes the run.
    let (replayed, mut w) = store.resume_run(key).unwrap();
    assert_eq!(replayed, &groups[..2]);
    w.append(groups[2].as_bytes()).unwrap();
    w.append(groups[3].as_bytes()).unwrap();
    let mut fp = Fingerprint::new();
    for g in &groups {
        fp.push_group(g);
    }
    store.complete_run(key, fp.finish()).unwrap();

    let done = store.recover().unwrap();
    assert_eq!(done[0].record.state, RunState::Completed);
    assert_eq!(done[0].groups, groups);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tampered_completed_run_is_demoted_not_served() {
    let dir = scratch("tampered");
    let store = Store::open(&dir).unwrap();
    let key = 0x77;
    let groups = payloads(3);
    let mut w = store.begin_run(key, "demo", "{}", 3).unwrap();
    for g in &groups {
        w.append(g.as_bytes()).unwrap();
    }
    let mut fp = Fingerprint::new();
    for g in &groups {
        fp.push_group(g);
    }
    store.complete_run(key, fp.finish()).unwrap();

    // Corrupt the last WAL frame behind the store's back.
    let wal_path = store.wal_path(key);
    let mut bytes = fs::read(&wal_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&wal_path, &bytes).unwrap();

    let runs = store.recover().unwrap();
    assert_eq!(
        runs[0].record.state,
        RunState::Resumable,
        "a completed record whose WAL fails verification must recompute"
    );
    assert_eq!(runs[0].record.fingerprint, None);
    assert_eq!(runs[0].groups_done, 2, "only the verified prefix survives");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unparseable_record_is_a_loud_recovery_error() {
    let dir = scratch("loud");
    let store = Store::open(&dir).unwrap();
    fs::write(dir.join(format!("{}.run.json", key_hex(3))), b"{broken").unwrap();
    let err = store.recover().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fnv1a_matches_reference_vectors() {
    // Standard FNV-1a 64-bit test vectors.
    assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a".iter().copied()), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar".iter().copied()), 0x8594_4171_f739_67e8);
}

#[test]
fn fingerprint_of_fixed_groups_is_pinned() {
    // Completed runs keep their fingerprint on disk, and recovery
    // re-verifies it, so the digest of a fixed run must never move.
    let mut fp = Fingerprint::new();
    assert_eq!(fp.finish(), 0xcbf2_9ce4_8422_2325);
    fp.push_group(r#"{"group":0,"mean":1.5}"#);
    fp.push_group(r#"{"group":1,"mean":2.25}"#);
    assert_eq!(key_hex(fp.finish()), "3667f3b651eabb9d");
}

/// A crash between creating a run's WAL and syncing its magic header
/// leaves a zero-length file behind a committed `running` record. The
/// resumed run must rewrite it as a fresh WAL before appending: frames
/// appended after zero bytes would make the whole file unreadable, so
/// every fsynced group would be thrown away at the next recovery.
#[test]
fn zero_length_wal_is_rewritten_before_a_resumed_run_appends() {
    let dir = scratch("zero-length");
    let store = Store::open(&dir).unwrap();
    let key = 0x5A;
    let groups = payloads(2);
    drop(store.begin_run(key, "demo", "{}", 2).unwrap());
    fs::OpenOptions::new()
        .write(true)
        .open(store.wal_path(key))
        .unwrap()
        .set_len(0)
        .unwrap();

    let runs = store.recover().unwrap();
    assert_eq!(runs[0].record.state, RunState::Resumable);
    assert_eq!(runs[0].groups_done, 0);
    let (replayed, mut w) = store.resume_run(key).unwrap();
    assert!(replayed.is_empty());
    w.append(groups[0].as_bytes()).unwrap();
    w.append(groups[1].as_bytes()).unwrap();
    drop(w);

    assert_eq!(wal::read(&store.wal_path(key)).unwrap().groups, groups);
    let runs = store.recover().unwrap();
    assert_eq!(runs[0].groups_done, 2, "the appended frames must survive");
    let _ = fs::remove_dir_all(&dir);
}

/// One batch is one `fsync`: the store's counters see every frame and
/// byte its writers commit, and a sync per batch, not per frame.
#[test]
fn store_counters_count_one_sync_per_batch() {
    let dir = scratch("counters");
    let store = Store::open(&dir).unwrap();
    let groups = payloads(7);
    let mut w = store.begin_run(0x9, "demo", "{}", 7).unwrap();
    w.append_batch(groups[..4].iter().map(String::as_bytes))
        .unwrap();
    w.append_batch(std::iter::empty()).unwrap();
    w.append(groups[4].as_bytes()).unwrap();
    drop(w);
    store.recover().unwrap();
    let (_, mut w) = store.resume_run(0x9).unwrap();
    w.append_batch(groups[5..].iter().map(String::as_bytes))
        .unwrap();

    let counters = store.wal_counters();
    assert_eq!(counters.frames(), 7);
    assert_eq!(counters.syncs(), 3, "an empty batch syncs nothing");
    let wal_len = fs::metadata(store.wal_path(0x9)).unwrap().len();
    assert_eq!(counters.bytes(), wal_len - wal::MAGIC.len() as u64);
    assert_eq!(wal::read(&store.wal_path(0x9)).unwrap().groups, groups);
    let _ = fs::remove_dir_all(&dir);
}
