//! The end-to-end chaos suite: a three-replica group behind
//! fault-injecting TCP proxies, queried by the resilient client. The
//! contract under test: every request returns either an answer
//! **bit-identical** to direct fenrir-core computation, or a typed
//! error — never a hang, never silently wrong data.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fenrir_core::error::Error;
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_obs::{fetch, Registry};
use fenrir_serve::breaker::BreakerConfig;
use fenrir_serve::protocol::{Reply, Request};
use fenrir_serve::{
    ChaosPlan, Client, FaultyListener, ModeStore, ReplicaSet, ResilientClient, ResilientConfig,
    ServeConfig, Server,
};

const NETWORKS: usize = 12;
const DAY: i64 = 86_400;
const DAYS: i64 = 8;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fenrir-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn write_journal(path: &Path) {
    let sites = SiteTable::from_names(["NRT", "SYD", "GRU"].map(str::to_string));
    let cfg = PipelineConfig::new(NETWORKS);
    let mut pipe = RecoverablePipeline::open(path, sites, NETWORKS, cfg).unwrap();
    for day in 0..DAYS {
        // Period-2 routing so recurring modes exist.
        let codes = (0..NETWORKS)
            .map(|n| match (n + (day % 2) as usize) % 4 {
                3 => u16::MAX,
                s => s as u16,
            })
            .collect();
        let v = RoutingVector::from_codes(Timestamp::from_secs(day * DAY), codes);
        let mut h = CampaignHealth::new(Timestamp::from_secs(day * DAY), NETWORKS);
        h.responses = NETWORKS;
        pipe.observe(v, h).unwrap();
    }
}

/// The direct (no server, no wire) answer to a request, as the exact
/// reply frame payload it should produce.
fn direct_answer(store: &ModeStore, req: &Request) -> (u8, Vec<u8>) {
    let snap = store.snapshot(0);
    let reply = match req {
        Request::Assign { t, network } => snap.assign(*t, *network),
        Request::Similarity { t, u } => snap.similarity(*t, *u),
        Request::Mode { t } => snap.mode(*t),
        Request::Transition { t, u } => snap.transition(*t, *u),
        Request::Latency { t } => snap.latency(*t),
        Request::Health
        | Request::Stats
        | Request::Metrics
        | Request::Admin { .. }
        | Request::Submit { .. }
        | Request::Subscribe { .. } => {
            unreachable!("per-process replies are not compared")
        }
    };
    reply.kind_and_payload()
}

#[test]
fn chaotic_cluster_answers_bit_identically_or_with_typed_errors() {
    let path = scratch("bitident");
    write_journal(&path);
    let set = ReplicaSet::start(&path, 3, ServeConfig::default()).unwrap();

    // A proxy with every fault class enabled in front of each replica,
    // all driven from one fixed seed (CI runs this exact storm).
    let seed: u64 = std::env::var("FENRIR_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFE2206);
    let mut proxies = Vec::new();
    for (i, addr) in set.addrs().into_iter().enumerate() {
        let plan = ChaosPlan::new(seed.wrapping_add(i as u64))
            .refuse(0.15)
            .reset(0.10)
            .stall(0.05, Duration::from_millis(400))
            .flip(0.10)
            .dribble(0.25);
        proxies.push(FaultyListener::start(addr, plan).unwrap());
    }
    let proxy_addrs: Vec<_> = proxies.iter().map(|p| p.addr()).collect();

    let client = ResilientClient::new(
        &proxy_addrs,
        ResilientConfig {
            connect_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_millis(250),
            max_attempts: 8,
            deadline: Duration::from_secs(8),
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(20),
            seed,
            hedge_after: Some(Duration::from_millis(60)),
            breaker: BreakerConfig {
                failure_threshold: 4,
                cooldown: Duration::from_millis(200),
                probe_successes: 1,
            },
        },
    )
    .unwrap();

    // The reference store computes every expected answer directly.
    let reference = ModeStore::open(&path).unwrap();

    let mut queries = Vec::new();
    for t in 0..DAYS {
        queries.push(Request::Mode { t: t * DAY });
        queries.push(Request::Assign {
            t: t * DAY,
            network: (t % NETWORKS as i64) as u32,
        });
        if t > 0 {
            queries.push(Request::Similarity {
                t: (t - 1) * DAY,
                u: t * DAY,
            });
            queries.push(Request::Transition {
                t: (t - 1) * DAY,
                u: t * DAY,
            });
        }
    }
    // Out-of-range queries must come back as the same typed server-side
    // errors the direct path produces.
    queries.push(Request::Similarity { t: -DAY, u: 0 });
    queries.push(Request::Latency { t: 0 });

    let mut answered = 0usize;
    let mut exhausted = 0usize;
    for req in &queries {
        let started = Instant::now();
        match client.request(req) {
            Ok(reply) => {
                let (kind, payload) = reply.kind_and_payload();
                let (want_kind, want_payload) = direct_answer(&reference, req);
                assert_eq!(
                    (kind, &payload),
                    (want_kind, &want_payload),
                    "{req:?}: served answer differs from direct computation"
                );
                answered += 1;
            }
            // A typed exhaustion is an acceptable outcome under this
            // much injected fault; silent wrongness or a hang is not.
            Err(Error::Exhausted { .. }) => exhausted += 1,
            Err(other) => panic!("{req:?}: untyped failure {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{req:?}: request exceeded its deadline"
        );
    }
    assert!(
        answered >= queries.len() / 2,
        "retries should beat this fault rate: {answered}/{} answered ({exhausted} exhausted)",
        queries.len()
    );

    for p in proxies {
        p.shutdown();
    }
    set.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flipped_reply_bits_surface_as_errors_never_as_answers() {
    let path = scratch("flip");
    write_journal(&path);
    let set = ReplicaSet::start(&path, 1, ServeConfig::default()).unwrap();
    let proxy = FaultyListener::start(set.addrs()[0], ChaosPlan::new(3).flip(1.0)).unwrap();

    // Every reply chunk has one bit flipped: the checksum must reject
    // each one. Whatever happens, a flipped frame never decodes.
    for _ in 0..4 {
        match Client::connect(proxy.addr()).and_then(|mut c| {
            c.set_read_timeout(Some(Duration::from_secs(3)))?;
            c.request(&Request::Health)
        }) {
            Err(_) => {}
            Ok(reply) => panic!("bit-flipped reply decoded: {reply:?}"),
        }
    }

    proxy.shutdown();
    set.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stalls_past_the_deadline_are_typed_timeouts_not_corruption() {
    let path = scratch("stall");
    write_journal(&path);
    let set = ReplicaSet::start(&path, 1, ServeConfig::default()).unwrap();
    // Every reply stalls for 2 s mid-chunk; the client deadline is
    // 300 ms. The failure must be the typed timeout, not `Corrupted`.
    let proxy = FaultyListener::start(
        set.addrs()[0],
        ChaosPlan::new(5).stall(1.0, Duration::from_secs(2)),
    )
    .unwrap();

    let mut client = Client::connect(proxy.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let started = Instant::now();
    match client.request(&Request::Health) {
        Err(Error::Internal { what, message }) => {
            assert_eq!(what, "serve recv");
            assert!(message.contains("timed out"), "message: {message}");
        }
        other => panic!("expected typed timeout, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(2));

    proxy.shutdown();
    set.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hedged_reads_win_when_one_replica_stalls() {
    let path = scratch("hedge");
    write_journal(&path);
    let set = ReplicaSet::start(&path, 2, ServeConfig::default()).unwrap();
    // Replica 0 sits behind a proxy that stalls EVERY reply past the
    // hedge delay; replica 1 is direct. Hedging must answer from
    // replica 1 without waiting out the stall.
    let proxy = FaultyListener::start(
        set.addrs()[0],
        ChaosPlan::new(9).stall(1.0, Duration::from_millis(800)),
    )
    .unwrap();
    let addrs = vec![proxy.addr(), set.addrs()[1]];

    let client = ResilientClient::new(
        &addrs,
        ResilientConfig {
            connect_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_secs(2),
            max_attempts: 4,
            deadline: Duration::from_secs(8),
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(50),
            seed: 1,
            hedge_after: Some(Duration::from_millis(50)),
            breaker: BreakerConfig::default(),
        },
    )
    .unwrap();

    let mut hedged_answers = 0;
    for _ in 0..6 {
        let started = Instant::now();
        match client.request(&Request::Mode { t: 3 * DAY }) {
            Ok(Reply::Mode { time, .. }) => {
                assert_eq!(time, 3 * DAY);
                if started.elapsed() < Duration::from_millis(700) {
                    hedged_answers += 1;
                }
            }
            other => panic!("hedged mode query: {other:?}"),
        }
    }
    // The stall is 800 ms per reply; answering faster than that on most
    // rounds means the hedge (or a rotation to the healthy replica) did
    // its job.
    assert!(
        hedged_answers >= 4,
        "expected most answers to beat the stall, got {hedged_answers}/6"
    );

    proxy.shutdown();
    set.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// One breaker event per request: `max_attempts: 1` and no hedging
/// make every transition count below exact, independent of seed or
/// timing.
fn one_shot_config() -> ResilientConfig {
    ResilientConfig {
        connect_timeout: Duration::from_millis(200),
        read_timeout: Duration::from_millis(500),
        max_attempts: 1,
        deadline: Duration::from_secs(2),
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        seed: 7,
        hedge_after: None,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(150),
            probe_successes: 1,
        },
    }
}

#[test]
fn breaker_transitions_count_exactly_through_outage_and_recovery() {
    let path = scratch("transitions");
    write_journal(&path);

    // Reserve an address, then release it: connections are refused
    // until a real server binds it below.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();

    let client = ResilientClient::new(&[addr], one_shot_config()).unwrap();
    let registry = Registry::new();
    client.register_metrics(&registry);

    // Exactly two refused connections trip the breaker: one `open`
    // transition, nothing else.
    for _ in 0..2 {
        assert!(client.request(&Request::Mode { t: 0 }).is_err());
    }
    let text = registry.render();
    assert!(
        text.contains(r#"fenrir_breaker_transitions_total{replica="0",to="open"} 1"#),
        "after the trip:\n{text}"
    );
    assert!(text.contains(r#"fenrir_breaker_transitions_total{replica="0",to="half_open"} 0"#));
    assert!(text.contains(r#"fenrir_breaker_transitions_total{replica="0",to="closed"} 0"#));
    assert!(
        text.contains(r#"fenrir_breaker_state{replica="0"} 2"#),
        "open = 2:\n{text}"
    );

    // While open, requests are skipped — the breaker is not touched, so
    // the counts cannot move.
    assert!(client.request(&Request::Mode { t: 0 }).is_err());
    assert!(registry
        .render()
        .contains(r#"fenrir_breaker_transitions_total{replica="0",to="open"} 1"#));
    assert!(
        client
            .stats()
            .breaker_skips
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the open breaker skipped the attempt"
    );

    // Recovery: a real server takes the reserved address; once the
    // cooldown passes, the next request is the half-open probe and its
    // success closes the breaker. One transition each, exactly.
    let store = Arc::new(ModeStore::open(&path).unwrap());
    let server = Server::start(
        Arc::clone(&store),
        ServeConfig {
            addr: addr.to_string(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    match client.request(&Request::Mode { t: 0 }).unwrap() {
        Reply::Mode { time, .. } => assert_eq!(time, 0),
        other => panic!("expected a mode reply, got {other:?}"),
    }
    let text = registry.render();
    for series in [
        r#"fenrir_breaker_transitions_total{replica="0",to="open"} 1"#,
        r#"fenrir_breaker_transitions_total{replica="0",to="half_open"} 1"#,
        r#"fenrir_breaker_transitions_total{replica="0",to="closed"} 1"#,
        r#"fenrir_breaker_state{replica="0"} 0"#,
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// `fenrir_serve_queries_total{kind="mode"}` from a scrape body (0 when
/// the series has not materialized yet).
fn scraped_mode_count(scrape: &str) -> u64 {
    scrape
        .lines()
        .find(|l| l.starts_with("fenrir_serve_queries_total{kind=\"mode\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn scraped_metrics_alone_tell_the_outage_and_recovery_story() {
    let path = scratch("scrapestory");
    write_journal(&path);
    let cfg = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        admin_token: Some("chaos-token".into()),
        ..ServeConfig::default()
    };
    let mut set = ReplicaSet::start(&path, 2, cfg.clone()).unwrap();
    let addrs = set.addrs();

    let client = ResilientClient::new(
        &addrs,
        ResilientConfig {
            connect_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_secs(1),
            max_attempts: 6,
            deadline: Duration::from_secs(8),
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(20),
            seed: 11,
            hedge_after: None,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(200),
                probe_successes: 1,
            },
        },
    )
    .unwrap();

    // Healthy fleet: no hedging and no failures, so the two scrapes
    // account for every query exactly once.
    for _ in 0..10 {
        match client.request(&Request::Mode { t: 0 }).unwrap() {
            Reply::Mode { .. } => {}
            other => panic!("expected a mode reply, got {other:?}"),
        }
    }
    let s0 = fetch(set.metrics_addr(0).unwrap(), "/metrics").unwrap();
    let s1 = fetch(set.metrics_addr(1).unwrap(), "/metrics").unwrap();
    assert_eq!(
        scraped_mode_count(&s0) + scraped_mode_count(&s1),
        10,
        "both replicas together answered exactly the queries sent"
    );

    // Deliberate outage. The drain is visible in the gauge before the
    // replica goes away; drain-and-stop then empties inflight to zero
    // before the process-level stop.
    set.drain(0).unwrap();
    let s0 = fetch(set.metrics_addr(0).unwrap(), "/metrics").unwrap();
    assert!(
        s0.lines()
            .any(|l| l.starts_with("fenrir_serve_draining") && l.ends_with(" 1")),
        "drain visible in the scrape:\n{s0}"
    );
    set.drain_and_stop(0, Duration::from_secs(5)).unwrap();
    assert!(!set.is_running(0));

    // Degraded fleet: every query is still answered, and the survivor's
    // scrape shows it absorbed all of them.
    let survivor_before =
        scraped_mode_count(&fetch(set.metrics_addr(1).unwrap(), "/metrics").unwrap());
    for _ in 0..10 {
        match client.request(&Request::Mode { t: 0 }).unwrap() {
            Reply::Mode { .. } => {}
            other => panic!("expected a mode reply, got {other:?}"),
        }
    }
    let survivor_after =
        scraped_mode_count(&fetch(set.metrics_addr(1).unwrap(), "/metrics").unwrap());
    assert_eq!(
        survivor_after - survivor_before,
        10,
        "the survivor absorbed the full load"
    );

    // Recovery: a fresh server takes the dead replica's address. After
    // the breaker cooldown, a health probe closes the breaker and the
    // rotation spreads load across both replicas again — visible as the
    // revived scrape's query counter moving off zero.
    let store = Arc::new(ModeStore::open(&path).unwrap());
    let revived = Server::start(
        Arc::clone(&store),
        ServeConfig {
            addr: addrs[0].to_string(),
            ..cfg
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    client.probe_health();
    let revived_before =
        scraped_mode_count(&fetch(revived.metrics_addr().unwrap(), "/metrics").unwrap());
    assert_eq!(revived_before, 0, "the revived replica starts fresh");
    for _ in 0..10 {
        match client.request(&Request::Mode { t: 0 }).unwrap() {
            Reply::Mode { .. } => {}
            other => panic!("expected a mode reply, got {other:?}"),
        }
    }
    let revived_after =
        scraped_mode_count(&fetch(revived.metrics_addr().unwrap(), "/metrics").unwrap());
    assert!(
        revived_after > 0,
        "rotation must reach the revived replica once its breaker closes"
    );

    revived.shutdown();
    set.shutdown();
    let _ = std::fs::remove_file(&path);
}
