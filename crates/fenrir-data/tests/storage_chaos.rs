//! Storage chaos: kill the writer at every storage-op boundary, fault
//! every operation, throttle every put — and prove the tiered journal
//! always recovers to a state bit-identical to a clean run, or fails
//! with a typed error. Never a hang, never a silent mix of old and new.
//!
//! Like the serving layer's TCP chaos suite, every fault here is drawn
//! from a seed-deterministic stream: set `FENRIR_STORAGE_SEED` to
//! replay a failing run exactly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::time::Timestamp;
use fenrir_data::journal::{CampaignMeta, Journal, JournalSink, RecoverablePipeline};
use fenrir_data::storage::tiered::{hydrate_latest, manifest_key};
use fenrir_data::storage::{
    storage_err, ObjectChaos, ObjectSim, RetryPolicy, Storage, TieredJournal,
};
use fenrir_measure::checkpoint::{CampaignSink, SweepCheckpoint};

const TARGETS: usize = 3;
const SWEEPS: usize = 10;
const PREFIX: &str = "chaos/tier";

/// Seed for every chaos stream in this suite; pin it in CI, override it
/// to replay a failure.
fn seed() -> u64 {
    std::env::var("FENRIR_STORAGE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF3A7)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fenrir-stchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn meta() -> CampaignMeta {
    CampaignMeta {
        campaign: "broot-verfploeter".into(),
        seed: 42,
        targets: TARGETS,
        observations: SWEEPS,
    }
}

fn checkpoint(sweep: usize) -> SweepCheckpoint<Vec<u16>> {
    let mut health = CampaignHealth::new(Timestamp::from_days(sweep as i64), TARGETS);
    health.responses = TARGETS - 1;
    health.attempts = TARGETS + sweep;
    SweepCheckpoint {
        sweep,
        row: (0..TARGETS as u16).map(|n| n * 7 + sweep as u16).collect(),
        health,
        consecutive_failures: vec![sweep; TARGETS],
        quarantined_until: vec![0; TARGETS],
        campaign_rng_pos: 100 + 10 * sweep as u64,
        fault_rng_pos: 3 * sweep as u64,
    }
}

fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        backoff_base: Duration::from_micros(50),
        backoff_max: Duration::from_micros(200),
        deadline: Duration::from_secs(2),
        seed: seed(),
        stats: None,
    }
}

/// A retry budget generous enough to absorb probabilistic chaos.
fn patient_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        backoff_base: Duration::from_micros(50),
        backoff_max: Duration::from_millis(1),
        deadline: Duration::from_secs(30),
        seed: seed(),
        stats: None,
    }
}

/// Drive the campaign from wherever the sink resumed to completion,
/// compacting (sealing, on a tiered backend) after sweeps 3 and 7 and
/// once more at the end, so every run — clean or resumed after a crash
/// that swallowed a mid-campaign seal — finishes with the full final
/// state sealed into the tier.
fn run_campaign(sink: &mut JournalSink<Vec<u16>>) -> Result<()> {
    for sweep in sink.state().next_sweep..SWEEPS {
        sink.record(checkpoint(sweep))?;
        if (sweep + 1) % 4 == 0 {
            sink.compact()?;
        }
    }
    sink.compact()
}

/// A storage wrapper that models the writer's machine dying: the first
/// `budget` operations pass through, every later one fails permanently
/// (the "process" never talks to the tier again). Dropping the wrapper
/// and reopening from the inner store is the reboot.
struct KillSwitch {
    inner: Arc<dyn Storage>,
    budget: AtomicU64,
}

impl KillSwitch {
    fn new(inner: Arc<dyn Storage>, budget: u64) -> Self {
        KillSwitch {
            inner,
            budget: AtomicU64::new(budget),
        }
    }

    fn spend(&self, op: &'static str, key: &str) -> Result<()> {
        let alive = self
            .budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_ok();
        if alive {
            Ok(())
        } else {
            Err(storage_err(op, key, false, "writer killed at op boundary"))
        }
    }
}

impl Storage for KillSwitch {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        self.spend("put", key)?;
        self.inner.put(key, bytes)
    }
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.spend("get", key)?;
        self.inner.get(key)
    }
    fn delete(&self, key: &str) -> Result<()> {
        self.spend("delete", key)?;
        self.inner.delete(key)
    }
    fn put_if(
        &self,
        key: &str,
        expected: Option<&[u8]>,
        bytes: &[u8],
    ) -> Result<fenrir_data::storage::CasOutcome> {
        self.spend("put_if", key)?;
        self.inner.put_if(key, expected, bytes)
    }
}

/// A writer that crashes between a seal's commit and its tail reset, then
/// reboots while the tier still serves older objects, must reopen at the
/// committed epoch. Were it to read the previous manifest, its next seal
/// would reuse the committed generation and overwrite that segment, and
/// a second crash would leave a manifest naming bytes that are gone.
#[test]
fn a_reboot_inside_the_visibility_window_keeps_every_acked_frame() {
    let dir = scratch("lagreboot");
    let hot = dir.join("hot.fnrj");
    let sim: Arc<dyn Storage> =
        Arc::new(ObjectSim::new(ObjectChaos::none(7).visibility(2)).unwrap());
    let frame = |i: u8| (0x21u16, vec![i; 4]);
    let (mut tj, _, _) =
        TieredJournal::open(&hot, Arc::clone(&sim), PREFIX, quick_retry()).unwrap();
    tj.seal(&[frame(1), frame(2)]).unwrap();
    tj.append(0x21, &frame(3).1).unwrap();
    // First crash: after the second seal's commit, before its tail reset.
    let tail = std::fs::read(&hot).unwrap();
    tj.seal(&[frame(1), frame(2), frame(3)]).unwrap();
    drop(tj);
    std::fs::write(&hot, &tail).unwrap();

    // Reboot at once, append, and die again between the next seal's
    // segment put and its commit.
    let switch = Arc::new(KillSwitch::new(Arc::clone(&sim), u64::MAX));
    let (mut tj, frames, _) = TieredJournal::open(
        &hot,
        Arc::clone(&switch) as Arc<dyn Storage>,
        PREFIX,
        quick_retry(),
    )
    .unwrap();
    tj.append(0x21, &frame(4).1).unwrap();
    let mut state: Vec<(u16, Vec<u8>)> = frames.into_iter().map(|f| (f.kind, f.payload)).collect();
    state.push(frame(4));
    switch.budget.store(1, Ordering::SeqCst);
    tj.seal(&state).expect_err("killed before the commit");
    drop(tj);

    let (tj, frames, _) = TieredJournal::open(&hot, Arc::clone(&sim), PREFIX, quick_retry())
        .unwrap_or_else(|e| panic!("reopen after the second crash: {e}"));
    let got: Vec<(u16, Vec<u8>)> = frames.into_iter().map(|f| (f.kind, f.payload)).collect();
    assert_eq!(
        got,
        (1..=4).map(frame).collect::<Vec<_>>(),
        "acked frames lost"
    );
    for entry in &tj.manifest().entries {
        tj.hydrate_epoch(entry.gen)
            .unwrap_or_else(|e| panic!("generation {}: {e}", entry.gen));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer that crashed between a seal's segment put and its commit
/// left an orphan; after a reboot it reseals that generation with other
/// bytes. Were the reseal to reuse the orphan's key, a reader inside the
/// tier's visibility window would be served the orphan and refuse an
/// intact tier as corrupted.
#[test]
fn a_reseal_after_a_crash_before_its_commit_is_read_back_intact() {
    let dir = scratch("reseal");
    let hot = dir.join("hot.fnrj");
    let sim: Arc<dyn Storage> =
        Arc::new(ObjectSim::new(ObjectChaos::none(7).visibility(5)).unwrap());
    let frame = |i: u8| (0x21u16, vec![i; 4]);
    let switch = Arc::new(KillSwitch::new(Arc::clone(&sim), u64::MAX));
    let (mut tj, _, _) = TieredJournal::open(
        &hot,
        Arc::clone(&switch) as Arc<dyn Storage>,
        PREFIX,
        quick_retry(),
    )
    .unwrap();
    tj.seal(&[frame(1)]).unwrap();
    tj.append(0x21, &frame(2).1).unwrap();
    // Crash between the second seal's segment put and its commit.
    switch.budget.store(1, Ordering::SeqCst);
    tj.seal(&[frame(1), frame(2)])
        .expect_err("killed before the commit");
    drop(tj);

    // Reboot, read the sealed epoch back, append, and reseal generation 2.
    let (mut tj, _, _) =
        TieredJournal::open(&hot, Arc::clone(&sim), PREFIX, quick_retry()).unwrap();
    for _ in 0..2 {
        tj.hydrate_epoch(1).unwrap();
    }
    tj.append(0x21, &frame(3).1).unwrap();
    assert_eq!(tj.seal(&[frame(1), frame(2), frame(3)]).unwrap(), 2);
    drop(tj);

    for attempt in 0..2 {
        let (_, frames, _) = TieredJournal::open(&hot, Arc::clone(&sim), PREFIX, quick_retry())
            .unwrap_or_else(|e| panic!("open {attempt}: {e}"));
        let got: Vec<(u16, Vec<u8>)> = frames.into_iter().map(|f| (f.kind, f.payload)).collect();
        assert_eq!(
            got,
            (1..=3).map(frame).collect::<Vec<_>>(),
            "open {attempt}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reference outcome of an unfaulted campaign: final resume state,
/// the final hydrated epoch's frames, and how many storage ops it took.
struct CleanRun {
    state: fenrir_measure::checkpoint::ResumeState<Vec<u16>>,
    epoch_frames: Vec<(u16, Vec<u8>)>,
    ops: u64,
}

/// Run the whole campaign clean (no faults).
fn clean_run() -> CleanRun {
    let dir = scratch("clean");
    let hot = dir.join("hot.fnrj");
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(seed())).unwrap());
    let mut sink = JournalSink::open_tiered(
        &hot,
        Arc::clone(&sim) as Arc<dyn Storage>,
        PREFIX,
        quick_retry(),
        meta(),
    )
    .unwrap();
    run_campaign(&mut sink).unwrap();
    let state = sink.state().clone();
    // Count the campaign's ops before the verification fetch below adds
    // its own — the kill sweep must cover exactly the writer's traffic.
    let ops = sim.op_count();
    let frames = hydrate_latest(sim.as_ref(), PREFIX, &quick_retry())
        .unwrap()
        .expect("clean run sealed at least one epoch")
        .1
        .into_iter()
        .map(|f| (f.kind, f.payload))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    CleanRun {
        state,
        epoch_frames: frames,
        ops,
    }
}

/// Kill the writer at every storage-op boundary, over an instantly
/// consistent tier and over one whose plain puts stay invisible for two
/// operations.
#[test]
fn kill_at_every_op_boundary_then_reboot_completes_bit_identical() {
    let clean = clean_run();
    let (want_state, want_sealed, total_ops) = (clean.state, clean.epoch_frames, clean.ops);
    assert!(total_ops > 0);

    let settings = [
        ObjectChaos::none(seed()),
        ObjectChaos::none(seed()).visibility(2),
    ];
    for (chaos, kill) in settings
        .into_iter()
        .flat_map(|chaos| (0..total_ops).map(move |kill| (chaos, kill)))
    {
        let at = format!("lag {} kill {kill}", chaos.visibility_lag);
        let dir = scratch(&format!("kill{kill}"));
        let hot = dir.join("hot.fnrj");
        let sim = Arc::new(ObjectSim::new(chaos).unwrap());
        let switch: Arc<dyn Storage> =
            Arc::new(KillSwitch::new(Arc::clone(&sim) as Arc<dyn Storage>, kill));

        // The doomed run: dies at op boundary `kill`. The error it dies
        // with must be typed, and reaching it must not hang.
        let crashed = (|| {
            let mut sink = JournalSink::open_tiered(&hot, switch, PREFIX, quick_retry(), meta())?;
            run_campaign(&mut sink)
        })();
        let e = crashed.expect_err("a kill inside the op budget must surface");
        assert!(
            matches!(e, Error::Storage { .. } | Error::Exhausted { .. }),
            "{at}: untyped crash error {e}"
        );

        // Reboot against the intact tier: recovery must land on a state
        // the clean run passed through, and replaying the remaining
        // sweeps must converge on the exact clean-run result.
        let mut sink = JournalSink::open_tiered(
            &hot,
            Arc::clone(&sim) as Arc<dyn Storage>,
            PREFIX,
            quick_retry(),
            meta(),
        )
        .unwrap_or_else(|e| panic!("{at}: reboot failed: {e}"));
        let resumed = sink.state().next_sweep;
        assert!(resumed <= SWEEPS, "{at}: recovered beyond the campaign");
        for (i, row) in sink.state().rows.iter().enumerate() {
            assert_eq!(
                row,
                &checkpoint(i).row,
                "{at}: recovered row {i} is not bit-identical"
            );
        }
        run_campaign(&mut sink).unwrap_or_else(|e| panic!("{at}: replay failed: {e}"));
        assert_eq!(sink.state(), &want_state, "{at}: final state diverged");

        let sealed: Vec<(u16, Vec<u8>)> = hydrate_latest(sim.as_ref(), PREFIX, &quick_retry())
            .unwrap()
            .expect("replay sealed an epoch")
            .1
            .into_iter()
            .map(|f| (f.kind, f.payload))
            .collect();
        assert_eq!(sealed, want_sealed, "{at}: sealed epoch diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn faults_on_every_op_class_still_converge_bit_identical_to_clean() {
    let clean = clean_run();
    let (want_state, want_sealed) = (clean.state, clean.epoch_frames);

    let dir = scratch("faulty");
    let hot = dir.join("hot.fnrj");
    let chaos = ObjectChaos::none(seed())
        .throttle(0.35)
        .fail(0.25)
        .visibility(2);
    let sim = Arc::new(ObjectSim::new(chaos).unwrap());
    let mut sink = JournalSink::open_tiered(
        &hot,
        Arc::clone(&sim) as Arc<dyn Storage>,
        PREFIX,
        patient_retry(),
        meta(),
    )
    .unwrap();
    run_campaign(&mut sink).unwrap();
    assert_eq!(sink.state(), &want_state);
    drop(sink);

    // Reopen through the same chaos, then hydrate from the tier alone:
    // both views must match the fault-free run exactly.
    let sink = JournalSink::<Vec<u16>>::open_tiered(
        &hot,
        Arc::clone(&sim) as Arc<dyn Storage>,
        PREFIX,
        patient_retry(),
        meta(),
    )
    .unwrap();
    assert_eq!(sink.state(), &want_state);
    let sealed: Vec<(u16, Vec<u8>)> = hydrate_latest(sim.as_ref(), PREFIX, &patient_retry())
        .unwrap()
        .unwrap()
        .1
        .into_iter()
        .map(|f| (f.kind, f.payload))
        .collect();
    assert_eq!(sealed, want_sealed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_throttled_tier_exhausts_typed_within_deadline_without_partial_seal() {
    let dir = scratch("throttle");
    let hot = dir.join("hot.fnrj");
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(seed())).unwrap());
    let mut sink = JournalSink::open_tiered(
        &hot,
        Arc::clone(&sim) as Arc<dyn Storage>,
        PREFIX,
        quick_retry(),
        meta(),
    )
    .unwrap();
    for sweep in 0..3 {
        sink.record(checkpoint(sweep)).unwrap();
    }
    let before = sink.state().clone();

    // Every put now answers SlowDown. Compaction must spend its retry
    // budget, surface typed exhaustion within the deadline, and leave
    // no trace of a partial seal.
    sim.set_chaos(ObjectChaos::none(seed()).throttle(1.0))
        .unwrap();
    let t0 = Instant::now();
    let e = sink.compact().unwrap_err();
    assert!(
        t0.elapsed() < quick_retry().deadline + Duration::from_secs(5),
        "exhaustion took {:?} — retry loop is not deadline-bounded",
        t0.elapsed()
    );
    match e {
        Error::Exhausted { what, attempts, .. } => {
            assert_eq!(what, "segment seal");
            assert_eq!(attempts, quick_retry().max_attempts);
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    sim.set_chaos(ObjectChaos::none(seed())).unwrap();
    assert!(
        sim.get(&manifest_key(PREFIX)).unwrap().is_none(),
        "a failed seal must not publish a manifest"
    );
    assert_eq!(
        sink.state(),
        &before,
        "failed compaction must not lose state"
    );

    // The sink keeps working: later sweeps append, and the next
    // compaction (tier healthy again) seals everything.
    sink.record(checkpoint(3)).unwrap();
    sink.compact().unwrap();
    drop(sink);
    let sink = JournalSink::<Vec<u16>>::open_tiered(
        &hot,
        Arc::clone(&sim) as Arc<dyn Storage>,
        PREFIX,
        quick_retry(),
        meta(),
    )
    .unwrap();
    assert_eq!(sink.state().next_sweep, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hydrating_from_an_empty_or_offline_tier_is_a_typed_error_not_a_hang() {
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(seed())).unwrap());

    // Empty tier: the tier answered, nothing is sealed.
    let e = RecoverablePipeline::hydrate_read_only(sim.as_ref(), PREFIX, &quick_retry())
        .expect_err("nothing sealed yet");
    assert!(matches!(e, Error::EmptyInput(_)), "got {e}");

    // Offline tier: retry budget spends, then typed exhaustion.
    sim.set_offline(true);
    let t0 = Instant::now();
    let e = RecoverablePipeline::hydrate_read_only(sim.as_ref(), PREFIX, &quick_retry())
        .expect_err("offline tier");
    assert!(matches!(e, Error::Exhausted { .. }), "got {e}");
    assert!(t0.elapsed() < quick_retry().deadline + Duration::from_secs(5));
}

#[test]
fn seal_crash_after_commit_point_is_finished_on_reopen() {
    let dir = scratch("commitcrack");
    let hot = dir.join("hot.fnrj");
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(seed())).unwrap());
    let mut sink = JournalSink::open_tiered(
        &hot,
        Arc::clone(&sim) as Arc<dyn Storage>,
        PREFIX,
        quick_retry(),
        meta(),
    )
    .unwrap();
    for sweep in 0..4 {
        sink.record(checkpoint(sweep)).unwrap();
    }
    // Snapshot the hot tail as it was *before* the seal, seal, then put
    // the old tail back: that is exactly the on-disk state of a writer
    // that crashed after publishing the manifest (the commit point) but
    // before resetting its tail.
    let pre_seal_tail = std::fs::read(&hot).unwrap();
    sink.compact().unwrap();
    let want = sink.state().clone();
    drop(sink);
    std::fs::write(&hot, &pre_seal_tail).unwrap();

    let sink = JournalSink::<Vec<u16>>::open_tiered(
        &hot,
        Arc::clone(&sim) as Arc<dyn Storage>,
        PREFIX,
        quick_retry(),
        meta(),
    )
    .unwrap();
    assert_eq!(sink.state(), &want);
    let tier = sink.tier().expect("tiered sink");
    assert_eq!(tier.base_gen(), 1, "open must finish the crashed reset");
    // The stale deltas were folded into the sealed epoch; the finished
    // tail holds only the base marker.
    let (frames, report) = Journal::decode(tier.hot_bytes()).unwrap();
    assert!(report.is_clean());
    assert_eq!(frames.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flat-journal analogue of the kill sweep: crash at every stage of
/// `Journal::rewrite`'s durable-replace (partial tmp at every length,
/// complete tmp, renamed-into-place) and prove reopening always yields
/// exactly the old frame set or exactly the new one — never a mix —
/// with the staging file cleaned up.
#[test]
fn crash_at_every_stage_of_flat_compaction_recovers_old_or_new_never_a_mix() {
    let dir = scratch("flatcrash");
    let path = dir.join("campaign.fnrj");
    let tmp = path.with_extension("compact.tmp");

    // Old content: meta + 4 sweep deltas. New content: meta + snapshot.
    let mut sink = JournalSink::open(&path, meta()).unwrap();
    for sweep in 0..4 {
        sink.record(checkpoint(sweep)).unwrap();
    }
    let old_bytes = std::fs::read(&path).unwrap();
    sink.compact().unwrap();
    let new_bytes = std::fs::read(&path).unwrap();
    drop(sink);
    let decode = |bytes: &[u8]| {
        let (frames, report) = Journal::decode(bytes).unwrap();
        assert!(report.is_clean());
        frames
            .into_iter()
            .map(|f| (f.kind, f.payload))
            .collect::<Vec<_>>()
    };
    let old_frames = decode(&old_bytes);
    let new_frames = decode(&new_bytes);
    assert_ne!(old_frames, new_frames);

    let reopen_and_check = |stage: String, want: &[(u16, Vec<u8>)]| {
        let (_, frames, report) = Journal::open(&path).unwrap();
        assert!(report.is_clean(), "{stage}: dirty recovery");
        let got: Vec<(u16, Vec<u8>)> = frames.into_iter().map(|f| (f.kind, f.payload)).collect();
        assert_eq!(&got, want, "{stage}: recovered a mix of old and new");
        assert!(!tmp.exists(), "{stage}: staging file leaked");
    };

    // Crash while writing the staging file, at every possible length:
    // the journal file still holds the old content, the tmp holds a
    // prefix of the new. Recovery must serve the old content untouched.
    for cut in 0..=new_bytes.len() {
        std::fs::write(&path, &old_bytes).unwrap();
        std::fs::write(&tmp, &new_bytes[..cut]).unwrap();
        reopen_and_check(format!("tmp cut at {cut}"), &old_frames);
    }

    // Crash after the rename: the new content is the journal. (With the
    // parent directory not yet fsynced the rename may also be undone by
    // the crash — that is the `cut == len` case above.)
    std::fs::write(&path, &new_bytes).unwrap();
    let _ = std::fs::remove_file(&tmp);
    reopen_and_check("after rename".into(), &new_frames);

    // Belt and braces: a stale tmp alongside the already-renamed new
    // content (rename durable, unlink of a re-created tmp lost).
    std::fs::write(&path, &new_bytes).unwrap();
    std::fs::write(&tmp, &old_bytes).unwrap();
    reopen_and_check("stale tmp beside new".into(), &new_frames);

    let _ = std::fs::remove_dir_all(&dir);
}
