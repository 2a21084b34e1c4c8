//! The resilient client against real sockets: short reads reassembled,
//! dead replicas failed over and breaker-fenced, draining servers
//! yielding typed errors within the budget — never a hang.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fenrir_core::error::Error;
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_serve::breaker::{BreakerConfig, BreakerState};
use fenrir_serve::protocol::{Reply, Request};
use fenrir_serve::{
    ChaosPlan, Client, FaultyListener, ReplicaSet, ResilientClient, ResilientConfig, ServeConfig,
};

const NETWORKS: usize = 10;
const DAY: i64 = 86_400;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fenrir-resilient-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn write_journal(path: &Path, days: i64) {
    let sites = SiteTable::from_names(["AMS", "FRA", "LHR"].map(str::to_string));
    let cfg = PipelineConfig::new(NETWORKS);
    let mut pipe = RecoverablePipeline::open(path, sites, NETWORKS, cfg).unwrap();
    for day in 0..days {
        let codes = (0..NETWORKS)
            .map(|n| ((n + day as usize) % 3) as u16)
            .collect();
        let v = RoutingVector::from_codes(Timestamp::from_secs(day * DAY), codes);
        let mut h = CampaignHealth::new(Timestamp::from_secs(day * DAY), NETWORKS);
        h.responses = NETWORKS;
        pipe.observe(v, h).unwrap();
    }
}

fn quick_cfg() -> ResilientConfig {
    ResilientConfig {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_millis(1500),
        max_attempts: 5,
        deadline: Duration::from_secs(8),
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(40),
        seed: 7,
        hedge_after: None,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(30),
            probe_successes: 1,
        },
    }
}

/// An address that accepts nothing: bound, then dropped.
fn dead_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    drop(l);
    addr
}

#[test]
fn byte_dribbled_replies_are_reassembled_not_corrupted() {
    let path = scratch("dribble");
    write_journal(&path, 5);
    let mut set = ReplicaSet::start(&path, 1, ServeConfig::default()).unwrap();
    // A proxy that forwards every reply chunk one byte per write: the
    // client sees the worst legal TCP fragmentation.
    let proxy = FaultyListener::start(set.addrs()[0], ChaosPlan::new(11).dribble(1.0)).unwrap();

    let mut client = Client::connect(proxy.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for _ in 0..3 {
        match client.request(&Request::Health).unwrap() {
            Reply::Health(h) => assert_eq!(h.observations, 5),
            other => panic!("dribbled health: {other:?}"),
        }
    }

    proxy.shutdown();
    set.stop(0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dead_replica_is_failed_over_and_breaker_fenced() {
    let path = scratch("failover");
    write_journal(&path, 5);
    let mut set = ReplicaSet::start(&path, 2, ServeConfig::default()).unwrap();
    let addrs = set.addrs();
    // Kill replica 0; its address now refuses connections.
    set.stop(0);

    let client = ResilientClient::new(&addrs, quick_cfg()).unwrap();
    for _ in 0..8 {
        match client.request(&Request::Health).unwrap() {
            Reply::Health(h) => {
                assert_eq!(h.observations, 5);
                assert_eq!(h.replica, 1, "answers must come from the live replica");
            }
            other => panic!("failover health: {other:?}"),
        }
    }
    // The dead replica's breaker opened after its failure threshold, so
    // later requests stopped paying for it at all.
    assert_eq!(client.breaker_state(0), BreakerState::Open);
    assert_eq!(client.breaker_state(1), BreakerState::Closed);
    assert!(
        client
            .stats()
            .retries
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    set.stop(1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn draining_cluster_yields_typed_exhaustion_within_the_deadline() {
    // Every replica is down: the client must spend its budget and
    // return Error::Exhausted with the last connection failure — within
    // the configured deadline, never hanging.
    let addrs = [dead_addr(), dead_addr()];
    let cfg = ResilientConfig {
        max_attempts: 3,
        deadline: Duration::from_secs(4),
        ..quick_cfg()
    };
    let client = ResilientClient::new(&addrs, cfg).unwrap();
    let started = Instant::now();
    let err = client.request(&Request::Health).unwrap_err();
    let elapsed = started.elapsed();
    match err {
        Error::Exhausted { what, attempts, .. } => {
            assert_eq!(what, "serve request");
            assert!((1..=3).contains(&attempts), "attempts: {attempts}");
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(6),
        "budget must bound the wait, took {elapsed:?}"
    );
}

#[test]
fn draining_server_mid_conversation_is_a_typed_error_not_a_hang() {
    let path = scratch("drain");
    write_journal(&path, 5);
    let mut set = ReplicaSet::start(&path, 1, ServeConfig::default()).unwrap();
    let addrs = set.addrs();
    let client = ResilientClient::new(&addrs, quick_cfg()).unwrap();

    // Warm: the replica answers.
    assert!(client.request(&Request::Health).is_ok());

    // Drain the only replica, then keep asking: every request must
    // come back as a typed error within the budget.
    set.stop(0);
    let started = Instant::now();
    for _ in 0..2 {
        match client.request(&Request::Health) {
            Err(Error::Exhausted { .. }) => {}
            Err(other) => panic!("expected Exhausted, got {other:?}"),
            Ok(r) => panic!("request against drained cluster answered: {r:?}"),
        }
    }
    assert!(started.elapsed() < Duration::from_secs(10));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn health_probe_learns_stale_flags_for_selection() {
    let path = scratch("probe");
    write_journal(&path, 5);
    let good_bytes = std::fs::read(&path).unwrap();
    let set = ReplicaSet::start(
        &path,
        2,
        ServeConfig {
            follow: Some(Duration::from_millis(30)),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Tear the shared journal: both replicas degrade to their last-good
    // epoch and advertise stale=true.
    std::fs::write(&path, &good_bytes[..good_bytes.len() - 1]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while (set.store(0).reload_failures() == 0 || set.store(1).reload_failures() == 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(set.store(0).stale() && set.store(1).stale());

    let client = ResilientClient::new(&set.addrs(), quick_cfg()).unwrap();
    client.probe_health();
    // Stale replicas are still served from — degraded beats dead — and
    // answers still come back.
    match client.request(&Request::Health).unwrap() {
        Reply::Health(h) => assert!(h.stale),
        other => panic!("stale health: {other:?}"),
    }

    set.shutdown();
    let _ = std::fs::remove_file(&path);
}
