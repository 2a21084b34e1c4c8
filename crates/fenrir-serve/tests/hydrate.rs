//! Tier-hydrated serving: a replica bootstraps its whole snapshot from
//! the object tier's latest sealed epoch — no local journal file — and
//! degrades to its last-good epoch (stale, still answering) when the
//! tier goes unreachable, recovering when it comes back.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::latency::LatencyPanel;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_data::storage::tiered::manifest_key;
use fenrir_data::storage::{CasOutcome, ObjectChaos, ObjectSim, RetryPolicy, Storage};
use fenrir_serve::protocol::{Reply, Request};
use fenrir_serve::{Client, ModeStore, ReplicaSet, ServeConfig, Server};

const NETWORKS: usize = 12;
const DAY: i64 = 86_400;
const PREFIX: &str = "serve/hydrate";

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fenrir-hydrate-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn vector(day: i64, shift: usize) -> RoutingVector {
    let codes = (0..NETWORKS)
        .map(|n| match (n + shift) % 4 {
            3 => u16::MAX,
            s => s as u16,
        })
        .collect();
    RoutingVector::from_codes(Timestamp::from_secs(day * DAY), codes)
}

fn panel(day: i64) -> LatencyPanel {
    let samples = (0..NETWORKS)
        .map(|n| (n % 3 != 2).then_some(20.0 + n as f64 + day as f64 * 0.5))
        .collect();
    LatencyPanel::new(Timestamp::from_secs(day * DAY), samples)
}

fn health(day: i64) -> CampaignHealth {
    let mut h = CampaignHealth::new(Timestamp::from_secs(day * DAY), NETWORKS);
    h.responses = NETWORKS;
    h
}

fn observe_days(pipe: &mut RecoverablePipeline, from: i64, to: i64) {
    for day in from..to {
        let p = (day % 2 == 0).then(|| panel(day));
        pipe.observe_with_latency(vector(day, (day % 2) as usize), p, health(day))
            .unwrap();
    }
}

/// A retry policy fast enough that an offline tier exhausts in
/// milliseconds instead of stalling the test.
fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        backoff_base: Duration::from_micros(200),
        backoff_max: Duration::from_millis(1),
        deadline: Duration::from_secs(2),
        seed: 7,
        stats: None,
    }
}

/// A tiered writer over `sim` with its hot tail at `hot`.
fn writer(sim: &Arc<ObjectSim>, hot: &Path) -> RecoverablePipeline {
    let sites = SiteTable::from_names((0..3).map(|s| format!("SITE{s}")));
    RecoverablePipeline::open_tiered(
        hot,
        Arc::clone(sim) as Arc<dyn Storage>,
        PREFIX,
        quick_retry(),
        sites,
        NETWORKS,
        PipelineConfig::new(NETWORKS),
    )
    .unwrap()
}

/// Write `days` observations through a tiered writer and seal them into
/// the tier; the hot tail file is deleted afterwards to prove serving
/// needs nothing local.
fn seal_days(sim: &Arc<ObjectSim>, name: &str, days: i64) -> PathBuf {
    let hot = scratch(name);
    let mut pipe = writer(sim, &hot);
    observe_days(&mut pipe, 0, days);
    pipe.compact().unwrap();
    hot
}

fn the_queries() -> Vec<Request> {
    let t3 = 3 * DAY;
    let t6 = 6 * DAY;
    let mut qs = vec![
        Request::Mode { t: t3 },
        Request::Similarity { t: t3, u: t6 },
        Request::Transition { t: t3, u: t6 },
        Request::Latency { t: t6 },
    ];
    for n in 0..NETWORKS as u32 {
        qs.push(Request::Assign { t: t3, network: n });
    }
    qs
}

#[test]
fn tier_hydrated_replica_answers_bit_identical_to_file_backed_replica() {
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(11)).unwrap());
    let hot = seal_days(&sim, "bitident", 8);

    // File-backed reference replica over an equivalent flat journal.
    let flat = scratch("bitident-flat");
    let sites = SiteTable::from_names((0..3).map(|s| format!("SITE{s}")));
    let mut reference =
        RecoverablePipeline::open(&flat, sites, NETWORKS, PipelineConfig::new(NETWORKS)).unwrap();
    observe_days(&mut reference, 0, 8);
    drop(reference);

    // The tier replica must need nothing local: remove the hot tail.
    std::fs::remove_file(&hot).unwrap();

    let tiered = Arc::new(
        ModeStore::open_tiered(Arc::clone(&sim) as Arc<dyn Storage>, PREFIX, quick_retry())
            .unwrap(),
    );
    let file = Arc::new(ModeStore::open(&flat).unwrap());
    let st = Server::start(Arc::clone(&tiered), ServeConfig::default()).unwrap();
    let sf = Server::start(Arc::clone(&file), ServeConfig::default()).unwrap();
    let mut ct = Client::connect(st.addr()).unwrap();
    let mut cf = Client::connect(sf.addr()).unwrap();

    for q in the_queries() {
        let a = ct.request(&q).unwrap();
        let b = cf.request(&q).unwrap();
        assert_eq!(a, b, "tier and file replicas disagree on {q:?}");
        assert!(
            !matches!(a, Reply::Error { .. }),
            "fixture query {q:?} failed: {a:?}"
        );
    }

    st.shutdown();
    sf.shutdown();
    let _ = std::fs::remove_file(&flat);
}

#[test]
fn tiered_store_follows_newly_sealed_epochs() {
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(12)).unwrap());
    let hot = seal_days(&sim, "follow", 6);

    let store = ModeStore::open_tiered(Arc::clone(&sim) as Arc<dyn Storage>, PREFIX, quick_retry())
        .unwrap();
    assert_eq!(store.snapshot(0).series.len(), 6);
    // Nothing new sealed: the poll is a no-op.
    assert!(!store.maybe_reload().unwrap());

    // The writer seals a richer epoch.
    let mut pipe = writer(&sim, &hot);
    observe_days(&mut pipe, 6, 10);
    pipe.compact().unwrap();

    assert!(store.maybe_reload().unwrap());
    assert_eq!(store.epoch(), 1);
    assert_eq!(store.reloads(), 1);
    assert_eq!(store.snapshot(0).series.len(), 10);
    assert!(!store.stale());
    let _ = std::fs::remove_file(&hot);
}

/// A tier whose second manifest read first seals days 6–7 through a
/// held writer: an epoch committed while a store opens.
struct SealsOnSecondManifestRead {
    sim: Arc<ObjectSim>,
    writer: Mutex<Option<RecoverablePipeline>>,
    manifest_reads: AtomicUsize,
}

impl Storage for SealsOnSecondManifestRead {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        self.sim.put(key, bytes)
    }
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        if key == manifest_key(PREFIX) && self.manifest_reads.fetch_add(1, Ordering::SeqCst) == 1 {
            let mut pipe = self.writer.lock().unwrap().take().unwrap();
            observe_days(&mut pipe, 6, 8);
            pipe.compact().unwrap();
        }
        self.sim.get(key)
    }
    fn delete(&self, key: &str) -> Result<()> {
        self.sim.delete(key)
    }
    fn put_if(&self, key: &str, expected: Option<&[u8]>, bytes: &[u8]) -> Result<CasOutcome> {
        self.sim.put_if(key, expected, bytes)
    }
}

#[test]
fn an_epoch_sealed_while_the_store_opens_is_served_after_the_next_poll() {
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(15)).unwrap());
    let hot = scratch("open-race");
    let mut pipe = writer(&sim, &hot);
    observe_days(&mut pipe, 0, 6);
    pipe.compact().unwrap();
    let tier = Arc::new(SealsOnSecondManifestRead {
        sim,
        writer: Mutex::new(Some(pipe)),
        manifest_reads: AtomicUsize::new(0),
    });

    let store =
        ModeStore::open_tiered(Arc::clone(&tier) as Arc<dyn Storage>, PREFIX, quick_retry())
            .unwrap();
    assert!(
        tier.writer.lock().unwrap().is_none(),
        "days 6–7 were sealed"
    );
    store.maybe_reload().unwrap();
    assert_eq!(store.snapshot(0).series.len(), 8);
    let _ = std::fs::remove_file(&hot);
}

#[test]
fn unreachable_tier_degrades_to_stale_and_recovers_when_back() {
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(13)).unwrap());
    let hot = seal_days(&sim, "degrade", 6);

    let store = Arc::new(
        ModeStore::open_tiered(Arc::clone(&sim) as Arc<dyn Storage>, PREFIX, quick_retry())
            .unwrap(),
    );
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Tier goes dark: the poll fails typed, the store degrades, and
    // queries keep being answered from the last-good epoch.
    sim.set_offline(true);
    let e = store.maybe_reload().unwrap_err();
    assert!(
        matches!(e, fenrir_core::error::Error::Exhausted { .. }),
        "offline tier must exhaust the retry budget, got {e}"
    );
    assert!(store.stale());
    assert_eq!(store.reload_failures(), 1);
    let reply = client.request(&Request::Mode { t: 3 * DAY }).unwrap();
    assert!(matches!(reply, Reply::Mode { .. }), "got {reply:?}");
    match client.request(&Request::Health).unwrap() {
        Reply::Health(h) => assert!(h.stale, "health must advertise the degraded epoch"),
        other => panic!("expected Health, got {other:?}"),
    }

    // Tier returns with a richer epoch: the next poll recovers.
    sim.set_offline(false);
    let mut pipe = writer(&sim, &hot);
    observe_days(&mut pipe, 6, 9);
    pipe.compact().unwrap();

    assert!(store.maybe_reload().unwrap());
    assert!(!store.stale());
    assert_eq!(store.snapshot(0).series.len(), 9);
    match client.request(&Request::Health).unwrap() {
        Reply::Health(h) => {
            assert!(!h.stale);
            assert_eq!(h.observations, 9);
        }
        other => panic!("expected Health, got {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_file(&hot);
}

#[test]
fn replica_set_starts_from_tier_alone() {
    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(14)).unwrap());
    let hot = seal_days(&sim, "set", 6);
    std::fs::remove_file(&hot).unwrap();

    let set = ReplicaSet::start_tiered(
        Arc::clone(&sim) as Arc<dyn Storage>,
        PREFIX,
        quick_retry(),
        2,
        ServeConfig::default(),
    )
    .unwrap();
    assert_eq!(set.len(), 2);
    assert_eq!(set.journal(), std::path::Path::new(PREFIX));

    // Both replicas answer, and identically.
    let mut replies = Vec::new();
    for addr in set.addrs() {
        let mut client = Client::connect(addr).unwrap();
        replies.push(client.request(&Request::Mode { t: 3 * DAY }).unwrap());
    }
    assert_eq!(replies[0], replies[1]);
    assert!(matches!(replies[0], Reply::Mode { .. }));

    // Tier loss degrades each replica independently; both keep serving.
    sim.set_offline(true);
    for i in 0..set.len() {
        assert!(set.store(i).maybe_reload().is_err());
        assert!(set.store(i).stale());
    }
    for addr in set.addrs() {
        let mut client = Client::connect(addr).unwrap();
        match client.request(&Request::Health).unwrap() {
            Reply::Health(h) => assert!(h.stale),
            other => panic!("expected Health, got {other:?}"),
        }
    }
    set.shutdown();
}

/// A file or tier source with no observations is refused at open: a
/// store over bytes must have data to serve.
#[test]
fn file_and_tier_stores_refuse_a_source_without_observations() {
    let flat = scratch("empty-flat");
    let sites = SiteTable::from_names((0..3).map(|s| format!("SITE{s}")));
    drop(RecoverablePipeline::open(&flat, sites, NETWORKS, PipelineConfig::new(NETWORKS)).unwrap());
    assert!(matches!(
        ModeStore::open(&flat),
        Err(Error::EmptyInput("serve snapshot"))
    ));

    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(16)).unwrap());
    let hot = seal_days(&sim, "empty-tier", 0);
    assert!(matches!(
        ModeStore::open_tiered(sim as Arc<dyn Storage>, PREFIX, quick_retry()),
        Err(Error::EmptyInput("serve snapshot"))
    ));

    let _ = std::fs::remove_file(&flat);
    let _ = std::fs::remove_file(&hot);
}
