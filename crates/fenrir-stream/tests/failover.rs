//! Fenced-failover chaos: kill the leader at every frame boundary,
//! partition it from the tier mid-seal, let a deposed leader keep
//! writing — and prove the acked prefix survives bit-identical, every
//! stale write is refused by the fence, and no transition is ever
//! announced twice. Time is an injected counter (no wall clock), and
//! every randomised knob draws from `FENRIR_FAILOVER_SEED`, so a
//! failing run replays exactly.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fenrir_core::error::Error;
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_data::storage::{ObjectChaos, ObjectSim, RetryPolicy, Storage};
use fenrir_measure::submit::SubmitRow;
use fenrir_serve::{
    Client, ModeStore, Reply, Request, ServeConfig, Server, StreamEvent, StreamHandler,
    SubmitOutcome,
};
use fenrir_stream::{
    Clock, ReplicatedConfig, ReplicatedIngestor, StreamConfig, StreamIngestor, StreamServer,
    SubmitClient, Subscriber,
};

const NETWORKS: usize = 6;
const PREFIX: &str = "failover/tier";
const TTL_MS: u64 = 1_000;

/// Seed for every randomised knob in this suite; pinned in CI, override
/// to replay a failure.
fn seed() -> u64 {
    std::env::var("FENRIR_FAILOVER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA17)
}

fn sites() -> SiteTable {
    SiteTable::from_names(["LAX", "MIA", "AMS"])
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fenrir-failover-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        backoff_base: Duration::from_micros(50),
        backoff_max: Duration::from_micros(200),
        deadline: Duration::from_secs(2),
        seed: seed(),
        stats: None,
    }
}

/// A hand-cranked clock: the test decides when the lease TTL lapses.
fn test_clock() -> (Arc<AtomicU64>, Clock) {
    let t = Arc::new(AtomicU64::new(0));
    let view = Arc::clone(&t);
    (t, Arc::new(move || view.load(Ordering::SeqCst)))
}

fn node_cfg(dir: &Path, name: &str, advertise: &str) -> ReplicatedConfig {
    ReplicatedConfig {
        hot_path: dir.join(format!("{name}.fnrj")),
        prefix: PREFIX.into(),
        retry: retry(),
        sites: sites(),
        networks: NETWORKS,
        stream: StreamConfig::new(NETWORKS),
        advertise: advertise.into(),
        lease_ttl_ms: TTL_MS,
    }
}

fn node(
    store: &Arc<dyn Storage>,
    dir: &Path,
    name: &str,
    advertise: &str,
    clock: Clock,
) -> ReplicatedIngestor {
    ReplicatedIngestor::new(Arc::clone(store), node_cfg(dir, name, advertise), clock)
        .expect("standby node")
}

fn sim_store() -> Arc<dyn Storage> {
    Arc::new(ObjectSim::new(ObjectChaos::none(seed())).unwrap())
}

/// Ten observations with a scripted catchment flip at frame 5 plus a
/// churning last vantage — the same feed the kill/restart suite uses.
fn synthetic_rows() -> Vec<SubmitRow> {
    (0..10)
        .map(|day| {
            let mut codes: Vec<u16> = if day < 5 {
                vec![0, 0, 1, 1, 2, 2]
            } else {
                vec![1, 1, 2, 2, 0, 0]
            };
            codes[5] = (day % 3) as u16;
            let time = Timestamp::from_days(day as i64);
            let mut health = CampaignHealth::new(time, NETWORKS);
            health.responses = NETWORKS;
            SubmitRow {
                seq: day as u64,
                time: time.as_secs(),
                codes,
                health,
            }
        })
        .collect()
}

/// Submit one row through a handler, require an `Accepted` ack, and
/// hand back the transitions that fold announced.
fn accept(h: &dyn StreamHandler, row: &SubmitRow) -> Vec<StreamEvent> {
    let (reply, events) = h.submit(row.seq, row.time, &row.codes, row.health.clone());
    assert!(
        matches!(
            reply,
            Reply::SubmitAck {
                outcome: SubmitOutcome::Accepted { .. },
                ..
            }
        ),
        "seq {} not accepted: {reply:?}",
        row.seq
    );
    events
}

fn transition_seqs(events: &[StreamEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            StreamEvent::ModeTransition { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect()
}

/// The uninterrupted reference: one in-memory ingestor, never failed
/// over, fingerprinted after every frame.
fn uninterrupted_states(rows: &[SubmitRow]) -> Vec<fenrir_stream::StateBits> {
    let ing = StreamIngestor::in_memory(sites(), NETWORKS, StreamConfig::new(NETWORKS))
        .expect("reference ingestor");
    rows.iter()
        .map(|row| {
            accept(&ing, row);
            ing.state_bits().expect("reference state")
        })
        .collect()
}

/// Kill the leader after every acked frame (drop it mid-lease: no
/// resign, no goodbye) and promote a cold standby. The successor's
/// hydrate + WAL replay must land bit-identical to the uninterrupted
/// run at the acked prefix — zero acked-observation loss at every
/// boundary — absorb the client's at-least-once retry as a Duplicate,
/// and never re-announce a replayed transition.
#[test]
fn kill_leader_at_every_frame_boundary_is_bit_identical_and_loses_no_ack() {
    let rows = synthetic_rows();
    let expected = uninterrupted_states(&rows);

    for kill in 0..rows.len() {
        let dir = scratch(&format!("kill{kill}"));
        let store = sim_store();
        let (t, clock) = test_clock();

        let a = node(&store, &dir, "a", "10.0.0.1:4477", Arc::clone(&clock));
        assert!(a.tick().unwrap(), "kill {kill}: empty lease must be won");
        let mut announced = Vec::new();
        for row in &rows[..=kill] {
            announced.extend(transition_seqs(&accept(&a, row)));
            // A mid-prefix seal makes the takeover exercise tier
            // hydration *plus* WAL-suffix replay, not replay alone.
            if row.seq == 3 {
                a.compact().unwrap();
            }
        }
        // The crash: the leader vanishes holding a live lease.
        drop(a);

        t.store(2 * TTL_MS + 1, Ordering::SeqCst);
        let b = node(&store, &dir, "b", "10.0.0.2:4477", clock);
        assert!(
            b.tick().unwrap(),
            "kill {kill}: the lapsed lease must be claimable"
        );
        let ing = b.ingestor().expect("leader pipeline");
        assert_eq!(
            ing.observations(),
            kill as u64 + 1,
            "kill {kill}: an acked observation was lost in failover"
        );
        assert_eq!(
            ing.state_bits().unwrap(),
            expected[kill],
            "kill {kill}: recovered state diverged from the acked prefix"
        );
        // Replayed history is in the announce log (resuming subscribers
        // can fetch it) but was never re-broadcast as a fresh event.
        assert_eq!(
            ing.boundary_count(),
            announced.len() as u64,
            "kill {kill}: replay changed the announced-boundary count"
        );

        // The at-least-once retry of the frame whose ack the crash may
        // have swallowed: already durable, so Duplicate — not a re-fold.
        let last = &rows[kill];
        let (reply, events) = b.submit(last.seq, last.time, &last.codes, last.health.clone());
        assert_eq!(
            reply,
            Reply::SubmitAck {
                seq: last.seq,
                outcome: SubmitOutcome::Duplicate
            },
            "kill {kill}: post-failover retry not absorbed"
        );
        assert!(events.is_empty(), "kill {kill}: duplicate announced events");

        for row in &rows[kill + 1..] {
            announced.extend(transition_seqs(&accept(&b, row)));
        }
        assert_eq!(
            b.ingestor().unwrap().state_bits().unwrap(),
            expected[rows.len() - 1],
            "kill {kill}: full feed diverged after failover"
        );
        let mut unique = announced.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            announced.len(),
            "kill {kill}: a transition was announced twice: {announced:?}"
        );
        assert_eq!(b.metrics().takeovers.get(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A partitioned leader that never noticed the election: its next seal
/// and its next submit both hit the fence, it steps down, and nothing
/// it wrote after deposition ever becomes durable.
#[test]
fn deposed_leader_is_fenced_on_first_write_and_steps_down() {
    let rows = synthetic_rows();
    let expected = uninterrupted_states(&rows);
    let dir = scratch("deposed");
    let store = sim_store();
    let (t, clock) = test_clock();

    let a = node(&store, &dir, "a", "10.0.0.1:4477", Arc::clone(&clock));
    assert!(a.tick().unwrap());
    let mut announced = Vec::new();
    for row in &rows[..4] {
        announced.extend(transition_seqs(&accept(&a, row)));
    }

    // A partitions: it stops renewing but keeps believing it leads.
    t.store(2 * TTL_MS + 1, Ordering::SeqCst);
    let b = node(&store, &dir, "b", "10.0.0.2:4477", clock);
    assert!(b.tick().unwrap(), "lapsed lease must fail over");
    assert_eq!(b.metrics().fence_epoch.load(Ordering::Relaxed), 2);
    announced.extend(transition_seqs(&accept(&b, &rows[4])));

    // The stale leader's seal: the manifest CAS is conditional on its
    // fence, so the tier refuses it outright.
    assert!(a.is_leader(), "A has not yet noticed the deposition");
    let e = a.compact().expect_err("stale seal must be fenced");
    assert!(matches!(e, Error::Fenced { .. }), "got {e}");

    // The stale leader's submit: refused at the WAL, answered with a
    // redirect naming the live leader, and A steps down.
    let stale = &rows[4];
    let (reply, events) = a.submit(stale.seq, stale.time, &stale.codes, stale.health.clone());
    match reply {
        Reply::NotLeader { hint } => assert_eq!(
            hint.as_deref(),
            Some("10.0.0.2:4477"),
            "the redirect must name the live leader"
        ),
        other => panic!("stale write must answer NotLeader, got {other:?}"),
    }
    assert!(events.is_empty());
    assert!(!a.is_leader(), "a fenced write must force a step-down");
    assert!(a.metrics().fenced_rejects.get() >= 1);
    assert_eq!(a.metrics().step_downs.get(), 1);

    // A stays a standby while B's lease is live, and nothing A tried
    // after deposition reached the shared truth.
    assert!(!a.tick().unwrap());
    let ing = b.ingestor().unwrap();
    assert_eq!(ing.observations(), 5);
    assert_eq!(ing.state_bits().unwrap(), expected[4]);
    for row in &rows[5..] {
        announced.extend(transition_seqs(&accept(&b, row)));
    }
    assert_eq!(ing.state_bits().unwrap(), expected[rows.len() - 1]);
    let mut unique = announced.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        announced.len(),
        "double-announce: {announced:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Partition the leader from the tier mid-seal: the seal fails typed,
/// no acked observation is lost, and the next leader recovers the full
/// prefix from the WAL even though the seal never landed.
#[test]
fn tier_partition_mid_seal_loses_no_ack() {
    let rows = synthetic_rows();
    let expected = uninterrupted_states(&rows);
    let dir = scratch("midseal");
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(seed())).unwrap());
    let store: Arc<dyn Storage> = Arc::clone(&sim) as Arc<dyn Storage>;
    let (t, clock) = test_clock();

    let a = node(&store, &dir, "a", "10.0.0.1:4477", Arc::clone(&clock));
    assert!(a.tick().unwrap());
    for row in &rows[..6] {
        accept(&a, row);
    }

    // Every tier put now answers SlowDown: the seal must spend its
    // retry budget and fail typed, never hang or half-publish.
    sim.set_chaos(ObjectChaos::none(seed()).throttle(1.0))
        .unwrap();
    let e = a.compact().expect_err("seal against a throttled tier");
    assert!(
        matches!(e, Error::Exhausted { .. } | Error::Storage { .. }),
        "untyped mid-seal failure: {e}"
    );
    sim.set_chaos(ObjectChaos::none(seed())).unwrap();
    drop(a); // and then the partitioned leader dies

    t.store(2 * TTL_MS + 1, Ordering::SeqCst);
    let b = node(&store, &dir, "b", "10.0.0.2:4477", clock);
    assert!(b.tick().unwrap());
    let ing = b.ingestor().unwrap();
    assert_eq!(ing.observations(), 6, "acked prefix lost with the seal");
    assert_eq!(
        ing.state_bits().unwrap(),
        expected[5],
        "WAL replay must cover for the failed seal bit-identically"
    );
    // And the successor's own seal works against the healed tier.
    b.compact().unwrap();
    for row in &rows[6..] {
        accept(&b, row);
    }
    assert_eq!(ing.state_bits().unwrap(), expected[rows.len() - 1]);
    let _ = fs::remove_dir_all(&dir);
}

fn tiered_read_store(store: &Arc<dyn Storage>) -> Arc<ModeStore> {
    Arc::new(ModeStore::open_tiered(Arc::clone(store), PREFIX, retry()).expect("tiered read store"))
}

/// A standby behind a real TCP server answers `Submit` with a
/// `NotLeader` redirect carrying the live leader's advertised address.
#[test]
fn standby_redirects_submits_over_tcp() {
    let rows = synthetic_rows();
    let dir = scratch("redirect");
    let store = sim_store();
    let (_t, clock) = test_clock();

    let a = Arc::new(node(&store, &dir, "a", "10.0.0.1:4477", Arc::clone(&clock)));
    let b = Arc::new(node(&store, &dir, "b", "10.0.0.2:4477", clock));
    assert!(a.tick().unwrap());
    assert!(!b.tick().unwrap(), "B must lose the election");

    // A tiered read store attaches to sealed epochs, so the leader
    // seals its first frames before the serve fleet comes up.
    for row in &rows[..2] {
        accept(a.as_ref(), row);
    }
    a.compact().unwrap();

    let server_b = Server::start_with_stream(
        tiered_read_store(&store),
        Arc::clone(&b) as Arc<dyn StreamHandler>,
        ServeConfig::default(),
    )
    .expect("standby server");

    let mut client = Client::connect(server_b.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let row = &rows[0];
    match client
        .request(&Request::Submit {
            seq: row.seq,
            time: row.time,
            codes: row.codes.clone(),
            health: row.health.clone(),
        })
        .expect("submit to standby")
    {
        Reply::NotLeader { hint } => {
            assert_eq!(hint.as_deref(), Some("10.0.0.1:4477"));
        }
        other => panic!("standby did not redirect: {other:?}"),
    }
    assert!(b.metrics().not_leader.get() >= 1);

    server_b.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The whole failover story over real sockets: a submitter and a
/// subscriber ride through the leader's death. Every acked transition
/// is delivered exactly once — the resume cursor replays the outage on
/// the new leader — and the books close with zero acked loss.
#[test]
fn failover_clients_ride_through_leader_death_exactly_once() {
    let rows = synthetic_rows();
    let dir = scratch("ride");
    let store = sim_store();
    let (t, clock) = test_clock();

    // Advertised names deliberately do not parse as socket addresses:
    // the redirect hint names the *node*, and the clients fall back to
    // rotating through their candidate list — the path a fleet behind
    // logical names exercises.
    let a = Arc::new(node(&store, &dir, "a", "node-a", Arc::clone(&clock)));
    let b = Arc::new(node(&store, &dir, "b", "node-b", Arc::clone(&clock)));
    assert!(a.tick().unwrap());
    assert!(!b.tick().unwrap());

    // Bootstrap: the read fleet hydrates from sealed epochs, so the
    // leader seals its first frames before the servers come up.
    for row in &rows[..2] {
        accept(a.as_ref(), row);
    }
    a.compact().unwrap();

    let server_a = Server::start_with_stream(
        tiered_read_store(&store),
        Arc::clone(&a) as Arc<dyn StreamHandler>,
        ServeConfig::default(),
    )
    .expect("server a");
    let server_b = Server::start_with_stream(
        tiered_read_store(&store),
        Arc::clone(&b) as Arc<dyn StreamHandler>,
        ServeConfig::default(),
    )
    .expect("server b");
    let addrs = vec![server_a.addr(), server_b.addr()];

    let mut sub = Subscriber::new(addrs.clone()).expect("subscribe");
    sub.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut submitter = SubmitClient::new(addrs).expect("submitter");
    submitter
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    let mut acked_transitions = 0u64;
    let mut seen = Vec::new();
    let drain = |sub: &mut Subscriber, seen: &mut Vec<u64>, upto: u64| {
        while (seen.len() as u64) < upto {
            match sub.next_event().expect("pushed event") {
                StreamEvent::ModeTransition { seq, .. } => seen.push(seq),
                StreamEvent::Lagged { missed } => {
                    panic!("nothing sheds at this rate, lost {missed}")
                }
                StreamEvent::Closed => unreachable!("resumed on the standby"),
            }
        }
    };

    for row in &rows[2..6] {
        match submitter.submit_row(row).expect("acked") {
            SubmitOutcome::Accepted { transitions, .. } => {
                acked_transitions += transitions as u64;
            }
            other => panic!("seq {} not accepted: {other:?}", row.seq),
        }
    }
    drain(&mut sub, &mut seen, acked_transitions);

    // The leader dies: its server goes away mid-lease, and only after
    // the TTL lapses does the standby win the next election.
    server_a.shutdown();
    drop(a);
    t.store(2 * TTL_MS + 1, Ordering::SeqCst);
    assert!(b.tick().unwrap(), "standby must take over");

    for row in &rows[6..] {
        match submitter.submit_row(row).expect("acked after failover") {
            SubmitOutcome::Accepted { transitions, .. } => {
                acked_transitions += transitions as u64;
            }
            other => panic!("seq {} not accepted post-failover: {other:?}", row.seq),
        }
    }
    drain(&mut sub, &mut seen, acked_transitions);

    // Exactly once: no skip (count matches the acks), no double
    // delivery (seqs unique), and the cursor sits at the live edge.
    let mut unique = seen.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), seen.len(), "duplicate delivery: {seen:?}");
    assert_eq!(seen.len() as u64, acked_transitions);
    let ing = b.ingestor().unwrap();
    assert_eq!(ing.observations(), rows.len() as u64, "acked loss");
    assert_eq!(sub.cursor(), ing.boundary_count());
    assert_eq!(b.metrics().takeovers.get(), 1);

    server_b.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A server `Error` reply is an answer, not a failover trigger: a row
/// the stream rejects is sent once, however many candidates there are.
#[test]
fn submit_error_reply_is_returned_without_retry() {
    let path = scratch("error-rule").join("stream.fnrj");
    let server = StreamServer::start(
        &path,
        sites(),
        NETWORKS,
        StreamConfig::new(NETWORKS),
        ServeConfig::default(),
    )
    .expect("start server");

    let mut submitter = SubmitClient::new(vec![server.addr()]).expect("submitter");
    submitter
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let row = &synthetic_rows()[0];
    let err = submitter
        .submit(row.seq, row.time, vec![0; NETWORKS + 1], row.health.clone())
        .expect_err("a row of the wrong width is refused");
    assert!(err.to_string().contains("codes"), "{err}");
    assert_eq!(
        server
            .server()
            .registry()
            .value("fenrir_stream_submits_total", &[]),
        Some(1.0),
        "the refused row was sent exactly once"
    );

    server.shutdown();
    let _ = fs::remove_dir_all(path.parent().unwrap());
}

/// A leader answers duplicate and gap submits from its ingestor's own
/// sequencing, so its stream metrics count them as a single node does.
#[test]
fn a_leader_counts_duplicate_and_gap_acks() {
    let rows = synthetic_rows();
    let dir = scratch("leader-acks");
    let store = sim_store();
    let (_t, clock) = test_clock();
    let a = node(&store, &dir, "a", "10.0.0.1:4477", clock);
    assert!(a.tick().unwrap());

    accept(&a, &rows[0]);
    let submit = |row: &SubmitRow| {
        a.submit(row.seq, row.time, &row.codes, row.health.clone())
            .0
    };
    assert_eq!(
        submit(&rows[0]),
        Reply::SubmitAck {
            seq: 0,
            outcome: SubmitOutcome::Duplicate
        }
    );
    assert_eq!(
        submit(&rows[2]),
        Reply::SubmitAck {
            seq: 2,
            outcome: SubmitOutcome::Gap { expected: 1 }
        }
    );
    let m = a.ingestor().expect("leader pipeline").metrics().clone();
    assert_eq!(
        [
            m.submits.get(),
            m.acks.get(),
            m.duplicates.get(),
            m.gaps.get()
        ],
        [3, 3, 1, 1],
        "submits, acks, duplicates, gaps"
    );
    let _ = fs::remove_dir_all(&dir);
}
