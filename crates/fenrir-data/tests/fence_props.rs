//! Hostile-payload properties for the tier's records — the lease, the
//! WAL head, the WAL observation record and the manifest, each with its
//! byte layout pinned — plus the CAS boundaries that consume them. For
//! small but realistic objects, every possible truncation point and
//! every possible single-bit flip is tried, not a random sample. The
//! contract: damage surfaces as a typed [`Error::Corrupted`], never a
//! panic and never a silently wrong record; and every stale-fence write
//! to the lease or the WAL is refused at the conditional put.

use std::sync::Arc;
use std::time::Duration;

use fenrir_core::error::Error;
use fenrir_core::health::CampaignHealth;
use fenrir_core::time::Timestamp;
use fenrir_data::storage::lease::LEASE_MAGIC;
use fenrir_data::storage::wal::{record_key, WalHead};
use fenrir_data::storage::{
    CasOutcome, FencedWal, Lease, LeaseRecord, Manifest, ObjectChaos, ObjectSim, ObsRecord,
    RetryPolicy, SegmentEntry, Storage,
};

const PREFIX: &str = "fence/tier";

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        backoff_base: Duration::from_micros(50),
        backoff_max: Duration::from_micros(200),
        deadline: Duration::from_secs(2),
        seed: 0xFA17,
        stats: None,
    }
}

fn sim() -> Arc<dyn Storage> {
    Arc::new(ObjectSim::new(ObjectChaos::none(0xFA17)).unwrap())
}

fn lease_record() -> LeaseRecord {
    LeaseRecord {
        epoch: 7,
        expires_at_ms: 123_456_789,
        holder: "10.0.0.7:4477".into(),
    }
}

fn wal_head() -> WalHead {
    WalHead {
        fence: 3,
        len: 41,
        floor: 17,
    }
}

fn obs_record() -> ObsRecord {
    let mut health = CampaignHealth::new(Timestamp::from_days(12), 6);
    health.responses = 5;
    health.attempts = 9;
    ObsRecord {
        time: Timestamp::from_days(12).as_secs(),
        codes: vec![0, 0, 1, 1, 2, 2],
        health,
    }
}

/// A fenced manifest naming two sealed epochs.
fn manifest() -> Manifest {
    let entry = |gen: u64, len: u64, sum: u16, frames: u32| SegmentEntry {
        gen,
        key: format!("{PREFIX}/segments/seg-{gen:08}.00000009"),
        len,
        sum,
        frames,
    };
    Manifest {
        fence: 9,
        entries: vec![entry(1, 123, 0xBEEF, 4), entry(2, 456, 0xCAFE, 9)],
    }
}

/// Lower-case hex of `bytes`.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Flip every bit of `bytes` in turn and require the decoder to refuse
/// each damaged copy with a typed corruption error.
fn assert_every_bit_flip_rejected<T>(
    what: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, Error>,
) {
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.to_vec();
            damaged[byte] ^= 1 << bit;
            match decode(&damaged) {
                Err(Error::Corrupted { .. }) => {}
                Err(other) => panic!("{what}: flip {byte}.{bit} gave untyped error {other}"),
                Ok(_) => panic!("{what}: flip {byte}.{bit} decoded as a valid record"),
            }
        }
    }
}

/// Truncate `bytes` at every offset short of whole and require a typed
/// refusal — a prefix of a record is never a record.
fn assert_every_truncation_rejected<T>(
    what: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, Error>,
) {
    for cut in 0..bytes.len() {
        match decode(&bytes[..cut]) {
            Err(Error::Corrupted { .. }) => {}
            Err(other) => panic!("{what}: cut {cut} gave untyped error {other}"),
            Ok(_) => panic!("{what}: cut {cut} decoded as a valid record"),
        }
    }
}

#[test]
fn lease_record_round_trips_including_empty_and_unicode_holders() {
    for holder in ["", "10.0.0.7:4477", "nödé-α", &"x".repeat(300)] {
        let rec = LeaseRecord {
            epoch: u64::MAX,
            expires_at_ms: 0,
            holder: holder.into(),
        };
        assert_eq!(LeaseRecord::decode(&rec.encode()).unwrap(), rec);
    }
}

#[test]
fn lease_record_rejects_every_bit_flip_and_truncation() {
    let bytes = lease_record().encode();
    assert_eq!(LeaseRecord::decode(&bytes).unwrap(), lease_record());
    assert_every_bit_flip_rejected("lease", &bytes, LeaseRecord::decode);
    assert_every_truncation_rejected("lease", &bytes, LeaseRecord::decode);
}

#[test]
fn wal_head_rejects_every_bit_flip_and_truncation() {
    let bytes = wal_head().encode();
    assert_eq!(WalHead::decode(&bytes).unwrap(), wal_head());
    assert_every_bit_flip_rejected("wal head", &bytes, WalHead::decode);
    assert_every_truncation_rejected("wal head", &bytes, WalHead::decode);
}

#[test]
fn obs_record_rejects_every_bit_flip_and_truncation() {
    let bytes = obs_record().encode(3);
    let (rec, fence) = ObsRecord::decode(&bytes).unwrap();
    assert_eq!(rec, obs_record());
    assert_eq!(fence, 3);
    assert_every_bit_flip_rejected("obs record", &bytes, ObsRecord::decode);
    assert_every_truncation_rejected("obs record", &bytes, ObsRecord::decode);
}

#[test]
fn obs_record_rejects_trailing_garbage() {
    let mut bytes = obs_record().encode(3);
    bytes.push(0);
    assert!(matches!(
        ObsRecord::decode(&bytes),
        Err(Error::Corrupted { .. })
    ));
}

/// Each record kind is rejected at its magic when fed to another
/// kind's decoder — a misdirected object (or a reader from a build
/// with a different layout behind the same magic version) fails loudly
/// at byte zero instead of shearing fields.
#[test]
fn cross_kind_payloads_are_rejected_at_the_magic() {
    let lease = lease_record().encode();
    let head = wal_head().encode();
    let rec = obs_record().encode(3);
    assert!(matches!(
        WalHead::decode(&lease[..30.min(lease.len())]),
        Err(Error::Corrupted { .. })
    ));
    assert!(matches!(
        ObsRecord::decode(&lease),
        Err(Error::Corrupted { .. })
    ));
    assert!(matches!(
        LeaseRecord::decode(&head),
        Err(Error::Corrupted { .. })
    ));
    assert!(matches!(
        ObsRecord::decode(&head),
        Err(Error::Corrupted { .. })
    ));
    assert!(matches!(
        LeaseRecord::decode(&rec),
        Err(Error::Corrupted { .. })
    ));
    assert!(matches!(
        WalHead::decode(&rec[..30]),
        Err(Error::Corrupted { .. })
    ));
    // And a record whose magic names a future layout revision is not
    // this decoder's to interpret, however plausible its body.
    let mut future = lease_record().encode();
    future[..4].copy_from_slice(b"FNR2");
    assert!(matches!(
        LeaseRecord::decode(&future),
        Err(Error::Corrupted { .. })
    ));
    let _ = LEASE_MAGIC; // the magic under test, pinned by the import
}

/// The conditional put's three outcomes, as the fencing paths consume
/// them: a create races to exactly one winner (the loser learns the
/// truth from the conflict), a stale expectation is refused without
/// mutating, and only an exact match commits.
#[test]
fn cas_outcomes_carry_the_truth_and_never_mutate_on_conflict() {
    let store = sim();
    let key = "fence/tier/probe";
    assert_eq!(
        store.put_if(key, None, b"one").unwrap(),
        CasOutcome::Committed
    );
    // A second create loses and is told what won.
    match store.put_if(key, None, b"two").unwrap() {
        CasOutcome::Conflict { actual } => assert_eq!(actual.as_deref(), Some(&b"one"[..])),
        CasOutcome::Committed => panic!("two writers both created {key}"),
    }
    // A stale expectation loses the compare and writes nothing.
    match store.put_if(key, Some(b"stale"), b"three").unwrap() {
        CasOutcome::Conflict { actual } => assert_eq!(actual.as_deref(), Some(&b"one"[..])),
        CasOutcome::Committed => panic!("stale compare committed"),
    }
    assert_eq!(store.get(key).unwrap().as_deref(), Some(&b"one"[..]));
    // The exact expectation commits.
    assert_eq!(
        store.put_if(key, Some(b"one"), b"three").unwrap(),
        CasOutcome::Committed
    );
    assert_eq!(store.get(key).unwrap().as_deref(), Some(&b"three"[..]));
}

/// Every write path a deposed WAL writer has — append, truncate,
/// reclaim — is refused with [`Error::Fenced`] once a higher epoch
/// claimed the log, and nothing the stale writer tried is visible to
/// the successor.
#[test]
fn stale_wal_writer_is_fenced_on_every_path() {
    let store = sim();
    let mut old = FencedWal::open(Arc::clone(&store), PREFIX, retry(), 1).unwrap();
    old.append(&obs_record()).unwrap();

    let mut new = FencedWal::open(Arc::clone(&store), PREFIX, retry(), 2).unwrap();
    assert_eq!(new.len(), 1, "the successor sees the acked prefix");

    // Reopening at or below the stored fence is itself refused.
    for stale_epoch in [0, 1] {
        match FencedWal::open(Arc::clone(&store), PREFIX, retry(), stale_epoch) {
            Err(Error::Fenced { held, current, .. }) => {
                assert_eq!((held, current), (stale_epoch, 2));
            }
            other => panic!("stale reopen at {stale_epoch} gave {other:?}"),
        }
    }

    // The successor writes; the deposed writer's append then collides
    // with a higher-fenced record and must refuse without acking.
    new.append(&obs_record()).unwrap();
    match old.append(&obs_record()) {
        Err(Error::Fenced { held, current, .. }) => assert_eq!((held, current), (1, 2)),
        other => panic!("stale append gave {other:?}"),
    }
    // A stale truncate must not touch the successor's floor either.
    match old.truncate_to(1) {
        Err(Error::Fenced { .. }) => {}
        other => panic!("stale truncate gave {other:?}"),
    }

    // Nothing the stale writer tried moved the shared truth.
    let check = FencedWal::open(Arc::clone(&store), PREFIX, retry(), 3).unwrap();
    assert_eq!(check.len(), 2);
    assert_eq!(check.floor(), 0);
    assert_eq!(check.replay(0).unwrap().len(), 2);
    // And the record objects on the tier all carry a real fence.
    for seq in 0..2 {
        let bytes = store.get(&record_key(PREFIX, seq)).unwrap().unwrap();
        let (_, fence) = ObsRecord::decode(&bytes).unwrap();
        assert!((1..=2).contains(&fence), "seq {seq} fence {fence}");
    }
}

/// The lease's epoch discipline: exactly one bump per change of
/// holder, never on renewal, and a live lease excludes every other
/// claimant until it lapses or is released.
#[test]
fn lease_epoch_increments_exactly_once_per_holder_change() {
    let store = sim();
    let mut a = Lease::new(Arc::clone(&store), PREFIX, "node-a", retry()).unwrap();
    let mut b = Lease::new(Arc::clone(&store), PREFIX, "node-b", retry()).unwrap();

    assert_eq!(a.acquire(0, 1_000).unwrap(), Some(1));
    assert!(a.renew(500, 1_000).unwrap(), "renewal within the term");
    assert_eq!(a.held_epoch(), Some(1), "renewal never bumps the epoch");
    assert_eq!(b.acquire(900, 1_000).unwrap(), None, "live lease excludes");

    // The holder goes silent; the term lapses; the next claim is a new
    // holder under the next epoch.
    assert_eq!(b.acquire(1_501, 1_000).unwrap(), Some(2));
    assert!(!a.renew(1_600, 1_000).unwrap(), "the old holder lost");
    assert_eq!(a.held_epoch(), None);

    // A clean release lets the next claimant win without waiting out
    // the TTL — and still costs exactly one epoch.
    b.release(1_700).unwrap();
    assert_eq!(a.acquire(1_701, 1_000).unwrap(), Some(3));

    // The record on the wire is the record the fence trusts.
    let rec = LeaseRecord::decode(
        &store
            .get(&fenrir_data::storage::lease::lease_key(PREFIX))
            .unwrap()
            .unwrap(),
    )
    .unwrap();
    assert_eq!(rec.epoch, 3);
    assert_eq!(rec.holder, "node-a");
}

#[test]
fn manifest_rejects_every_bit_flip_and_truncation() {
    let bytes = manifest().encode();
    assert_eq!(Manifest::decode(&bytes).unwrap(), manifest());
    assert_every_bit_flip_rejected("manifest", &bytes, Manifest::decode);
    assert_every_truncation_rejected("manifest", &bytes, Manifest::decode);
}

/// The byte layout of each tier record, pinned: a fixed record encodes
/// to exactly these bytes and decodes back to itself. A tier outlives
/// the build that wrote it, so a layout change must fail here first.
#[test]
fn record_encodings_are_pinned() {
    let lease = lease_record().encode();
    assert_eq!(
        hex(&lease),
        "464e524c070000000000000015cd5b07000000000d0031302e302e302e373a343437375d81"
    );
    assert_eq!(LeaseRecord::decode(&lease).unwrap(), lease_record());

    let head = wal_head().encode();
    assert_eq!(
        hex(&head),
        "464e52570300000000000000290000000000000011000000000000005a2a"
    );
    assert_eq!(WalHead::decode(&head).unwrap(), wal_head());

    let rec = obs_record().encode(5);
    assert_eq!(
        hex(&rec),
        concat!(
            "464e5252050000000000000000d20f0000000000060000000000000000000000",
            "010001000200020000d20f000000000006000000000000000500000000000000",
            "0900000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000bb22",
        )
    );
    assert_eq!(ObsRecord::decode(&rec).unwrap(), (obs_record(), 5));

    let man = manifest().encode();
    assert_eq!(
        hex(&man),
        concat!(
            "464e524d020009000000000000000200000001000000000000007b0000000000",
            "000004000000efbe290066656e63652f746965722f7365676d656e74732f7365",
            "672d30303030303030312e30303030303030390200000000000000c801000000",
            "00000009000000feca290066656e63652f746965722f7365676d656e74732f73",
            "65672d30303030303030322e3030303030303039519b",
        )
    );
    assert_eq!(Manifest::decode(&man).unwrap(), manifest());
}
