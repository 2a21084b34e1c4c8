//! End-to-end tests for the observability and control plane: the
//! metric inventory over both export paths (HTTP scrape and the
//! protocol `Metrics` frame), slow-query traces, admin authentication
//! (fail closed), force-reload / rotate, live reconfiguration, and
//! drain semantics — all asserted from outside the process boundary,
//! the way a fleet controller sees the server.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_obs::fetch;
use fenrir_serve::protocol::{Reply, Request, ERR_BAD_REQUEST, ERR_UNAUTHORIZED, ERR_UNAVAILABLE};
use fenrir_serve::{AdminCmd, Client, ModeStore, ReplicaSet, ServeConfig, Server};

const NETWORKS: usize = 12;
const DAY: i64 = 86_400;
const DAYS: i64 = 8;
const TOKEN: &str = "obs-suite-token";

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fenrir-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn append_days(pipe: &mut RecoverablePipeline, from: i64, to: i64) {
    for day in from..to {
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

fn write_journal_days(path: &Path, days: i64) -> RecoverablePipeline {
    let sites = SiteTable::from_names(["NRT", "SYD", "GRU"].map(str::to_string));
    let cfg = PipelineConfig::new(NETWORKS);
    let mut pipe = RecoverablePipeline::open(path, sites, NETWORKS, cfg).unwrap();
    append_days(&mut pipe, 0, days);
    pipe
}

fn write_journal(path: &Path) {
    write_journal_days(path, DAYS);
}

fn start_server(path: &Path, cfg: ServeConfig) -> (Server, Arc<ModeStore>) {
    let store = Arc::new(ModeStore::open(path).unwrap());
    let server = Server::start(Arc::clone(&store), cfg).unwrap();
    (server, store)
}

fn obs_config() -> ServeConfig {
    ServeConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        admin_token: Some(TOKEN.into()),
        ..ServeConfig::default()
    }
}

/// Every metric family the server must export. CI greps scrape output
/// for this same list; keep the two in sync.
const INVENTORY: &[&str] = &[
    "fenrir_serve_connections_total",
    "fenrir_serve_queries_total",
    "fenrir_serve_queries_answered_total",
    "fenrir_serve_errors_total",
    "fenrir_serve_overloaded_total",
    "fenrir_serve_query_latency_us",
    "fenrir_serve_inflight",
    "fenrir_serve_draining",
    "fenrir_serve_max_inflight",
    "fenrir_cache_hits_total",
    "fenrir_cache_misses_total",
    "fenrir_cache_evictions_total",
    "fenrir_cache_purged_total",
    "fenrir_cache_entries",
    "fenrir_cache_capacity",
    "fenrir_store_reloads_total",
    "fenrir_store_reload_failures_total",
    "fenrir_storage_retries_total",
    "fenrir_storage_exhausted_total",
    "fenrir_store_epoch",
    "fenrir_store_stale",
    "fenrir_store_reload_age_seconds",
    "fenrir_store_reload_duration_us",
    "fenrir_traces_dropped_total",
];

#[test]
fn both_export_paths_carry_the_full_inventory_and_real_counts() {
    let path = scratch("inventory");
    write_journal(&path);
    let (server, _store) = start_server(&path, obs_config());

    // Traffic across every query kind so per-kind series materialize.
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..5 {
        client.request(&Request::Mode { t: 0 }).unwrap();
    }
    client
        .request(&Request::Assign { t: 0, network: 1 })
        .unwrap();
    client
        .request(&Request::Similarity { t: 0, u: DAY })
        .unwrap();
    client
        .request(&Request::Transition { t: 0, u: DAY })
        .unwrap();
    client.request(&Request::Latency { t: 0 }).unwrap();
    client.request(&Request::Health).unwrap();
    client.request(&Request::Stats).unwrap();

    let scraped = fetch(server.metrics_addr().unwrap(), "/metrics").unwrap();
    let framed = client.metrics_text().unwrap();
    for name in INVENTORY {
        assert!(scraped.contains(name), "scrape is missing {name}");
        assert!(framed.contains(name), "metrics frame is missing {name}");
    }

    // The per-kind counter carries the real count, with its label.
    let mode_line = scraped
        .lines()
        .find(|l| l.starts_with("fenrir_serve_queries_total{kind=\"mode\"}"))
        .expect("mode series present");
    let count: u64 = mode_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(count, 5, "exactly the five mode queries sent");

    // Latency histograms carry cumulative buckets and a count for the
    // same kind, and the count agrees with the counter.
    assert!(
        scraped.contains("fenrir_serve_query_latency_us_bucket{kind=\"mode\""),
        "latency histogram buckets for mode queries"
    );
    let count_line = scraped
        .lines()
        .find(|l| l.starts_with("fenrir_serve_query_latency_us_count{kind=\"mode\"}"))
        .expect("histogram count series present");
    let observed: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(observed, 5, "one observation per mode query");

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn slow_queries_leave_traces_that_drain_once() {
    let path = scratch("traces");
    write_journal(&path);
    let (server, _store) = start_server(
        &path,
        ServeConfig {
            // Everything is "slow" at a zero threshold.
            slow_query: Some(Duration::ZERO),
            ..obs_config()
        },
    );

    let mut client = Client::connect(server.addr()).unwrap();
    client.request(&Request::Mode { t: 0 }).unwrap();
    client.request(&Request::Latency { t: DAY }).unwrap();

    let traces = fetch(server.metrics_addr().unwrap(), "/traces").unwrap();
    assert!(traces.contains("kind=mode"), "mode query traced: {traces}");
    assert!(traces.contains("kind=latency"), "latency query traced");
    // The drain is destructive; a second scrape starts empty.
    assert!(
        fetch(server.metrics_addr().unwrap(), "/traces")
            .unwrap()
            .is_empty(),
        "second drain is empty"
    );

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn admin_fails_closed_without_a_token_and_rejects_bad_tokens() {
    let path = scratch("auth");
    write_journal(&path);

    // No token configured: every admin command is unavailable.
    let (server, _store) = start_server(&path, ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    match client.admin(TOKEN, AdminCmd::Drain).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ERR_UNAVAILABLE),
        other => panic!("expected unavailable, got {other:?}"),
    }
    server.shutdown();

    // Token configured: the wrong one is unauthorized and has no
    // side effects — the server keeps serving un-drained.
    let (server, _store) = start_server(&path, obs_config());
    let mut client = Client::connect(server.addr()).unwrap();
    match client.admin("not-the-token", AdminCmd::Drain).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ERR_UNAUTHORIZED),
        other => panic!("expected unauthorized, got {other:?}"),
    }
    match client.request(&Request::Mode { t: 0 }).unwrap() {
        Reply::Mode { .. } => {}
        other => panic!("bad token must not drain; got {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn force_reload_picks_up_journal_growth_and_purges_stale_cache() {
    let path = scratch("reload");
    let mut pipe = write_journal_days(&path, DAYS);
    let (server, store) = start_server(&path, obs_config());
    let mut client = Client::connect(server.addr()).unwrap();

    // Warm the cache at epoch 0 (derived answers — transition and
    // latency — are the cached kinds; this journal has no latency
    // panels, so transition queries do the warming).
    for day in 0..3 {
        client
            .request(&Request::Transition { t: 0, u: day * DAY })
            .unwrap();
    }
    assert!(!store.cache.is_empty(), "cache warmed");

    // Grow the journal, then force a reload through the admin plane.
    // (Force means force: it rebuilds even when nothing changed, so
    // the reply always reports the epoch now being served.)
    append_days(&mut pipe, DAYS, DAYS + 2);
    let epoch_before = store.epoch();
    match client.admin(TOKEN, AdminCmd::ForceReload).unwrap() {
        Reply::Admin { info } => assert!(info.contains("reloaded"), "got: {info}"),
        other => panic!("expected admin reply, got {other:?}"),
    }
    assert!(store.epoch() > epoch_before, "epoch advanced");
    // The epoch advance evicted every stale entry rather than letting
    // them squat on LRU capacity.
    assert_eq!(store.cache.len(), 0, "stale entries purged on reload");
    assert!(store.cache.purged() > 0, "purge counter advanced");

    // The new observations are actually served.
    match client
        .request(&Request::Mode {
            t: (DAYS + 1) * DAY,
        })
        .unwrap()
    {
        Reply::Mode { time, .. } => assert_eq!(time, (DAYS + 1) * DAY),
        other => panic!("expected the grown journal's tail, got {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rotate_swaps_journals_and_keeps_serving_the_old_one_on_failure() {
    let path = scratch("rotate-a");
    let next = scratch("rotate-b");
    write_journal_days(&path, DAYS);
    write_journal_days(&next, DAYS + 4);
    let (server, store) = start_server(&path, obs_config());
    let mut client = Client::connect(server.addr()).unwrap();

    // Rotating to a journal that doesn't exist fails loudly and leaves
    // the old journal serving.
    let bogus = scratch("rotate-missing");
    match client
        .admin(
            TOKEN,
            AdminCmd::Rotate {
                path: bogus.display().to_string(),
            },
        )
        .unwrap()
    {
        Reply::Error { code, message } => {
            assert_eq!(code, ERR_BAD_REQUEST);
            assert!(message.contains("still serving"), "got: {message}");
        }
        other => panic!("expected a rotate failure, got {other:?}"),
    }
    match client.request(&Request::Mode { t: 0 }).unwrap() {
        Reply::Mode { .. } => {}
        other => panic!("old journal must keep serving, got {other:?}"),
    }

    // A real rotate validates, commits, and bumps the epoch.
    let epoch_before = store.epoch();
    match client
        .admin(
            TOKEN,
            AdminCmd::Rotate {
                path: next.display().to_string(),
            },
        )
        .unwrap()
    {
        Reply::Admin { info } => assert!(info.contains("rotated"), "got: {info}"),
        other => panic!("expected admin reply, got {other:?}"),
    }
    assert!(store.epoch() > epoch_before);
    match client
        .request(&Request::Mode {
            t: (DAYS + 3) * DAY,
        })
        .unwrap()
    {
        Reply::Mode { time, .. } => assert_eq!(time, (DAYS + 3) * DAY),
        other => panic!("expected the rotated journal's tail, got {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&next);
}

#[test]
fn live_reconfig_changes_cache_capacity_and_shed_limit() {
    let path = scratch("reconfig");
    write_journal(&path);
    let (server, store) = start_server(&path, obs_config());
    let mut client = Client::connect(server.addr()).unwrap();

    // Shrink the cache to nothing: entries drop and stay out.
    // (Transition answers are the cached kind this journal exercises.)
    client
        .request(&Request::Transition { t: 0, u: DAY })
        .unwrap();
    assert!(!store.cache.is_empty());
    match client
        .admin(TOKEN, AdminCmd::SetCacheCapacity { entries: 0 })
        .unwrap()
    {
        Reply::Admin { .. } => {}
        other => panic!("expected admin reply, got {other:?}"),
    }
    assert_eq!(store.cache.capacity(), 0);
    client
        .request(&Request::Transition { t: 0, u: 2 * DAY })
        .unwrap();
    assert_eq!(store.cache.len(), 0, "disabled cache admits nothing");

    // Grow it back; caching resumes.
    client
        .admin(TOKEN, AdminCmd::SetCacheCapacity { entries: 64 })
        .unwrap();
    assert!(store.cache.capacity() >= 64);
    client
        .request(&Request::Transition { t: 0, u: 2 * DAY })
        .unwrap();
    assert!(!store.cache.is_empty(), "re-enabled cache admits again");

    // Zero service slots: a fresh connection's query sheds. The admin
    // plane itself must keep working (control frames bypass slots) so
    // we can raise the limit again.
    client
        .admin(TOKEN, AdminCmd::SetMaxInflight { slots: 0 })
        .unwrap();
    let mut starved = Client::connect(server.addr()).unwrap();
    match starved.request(&Request::Mode { t: 0 }).unwrap() {
        Reply::Overloaded { .. } => {}
        other => panic!("zero slots must shed, got {other:?}"),
    }
    match starved
        .admin(TOKEN, AdminCmd::SetMaxInflight { slots: 64 })
        .unwrap()
    {
        Reply::Admin { .. } => {}
        other => panic!("admin must bypass slots, got {other:?}"),
    }
    let mut fresh = Client::connect(server.addr()).unwrap();
    match fresh.request(&Request::Mode { t: 0 }).unwrap() {
        Reply::Mode { .. } => {}
        other => panic!("restored limit must serve, got {other:?}"),
    }

    // The scrape sees the gauge move too.
    let scraped = fetch(server.metrics_addr().unwrap(), "/metrics").unwrap();
    assert!(
        scraped
            .lines()
            .any(|l| l.starts_with("fenrir_serve_max_inflight") && l.ends_with(" 64")),
        "max_inflight gauge tracks the live limit"
    );

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn drain_sheds_queries_keeps_control_frames_and_undrain_restores() {
    let path = scratch("drain");
    write_journal(&path);
    let set = ReplicaSet::start(&path, 2, obs_config()).unwrap();

    match set.drain(0).unwrap() {
        Reply::Admin { info } => assert!(info.contains("drain"), "got: {info}"),
        other => panic!("expected admin reply, got {other:?}"),
    }

    let mut client = Client::connect(set.addrs()[0]).unwrap();
    // Queries shed; health advertises the drain; stats and metrics
    // still answer (they're slot-exempt control frames).
    match client.request(&Request::Mode { t: 0 }).unwrap() {
        Reply::Overloaded { .. } => {}
        other => panic!("drained replica must shed, got {other:?}"),
    }
    match client.request(&Request::Health).unwrap() {
        Reply::Health(h) => assert!(h.draining),
        other => panic!("expected health, got {other:?}"),
    }
    match client.request(&Request::Stats).unwrap() {
        Reply::Stats(s) => assert_eq!(s.inflight, 0),
        other => panic!("expected stats, got {other:?}"),
    }
    let scraped = fetch(set.metrics_addr(0).unwrap(), "/metrics").unwrap();
    assert!(
        scraped
            .lines()
            .any(|l| l.starts_with("fenrir_serve_draining") && l.ends_with(" 1")),
        "draining gauge set: {scraped}"
    );
    // Replica 1 is untouched.
    let mut other = Client::connect(set.addrs()[1]).unwrap();
    match other.request(&Request::Mode { t: 0 }).unwrap() {
        Reply::Mode { .. } => {}
        o => panic!("sibling replica must keep serving, got {o:?}"),
    }

    set.undrain(0).unwrap();
    let mut fresh = Client::connect(set.addrs()[0]).unwrap();
    match fresh.request(&Request::Mode { t: 0 }).unwrap() {
        Reply::Mode { .. } => {}
        other => panic!("undrained replica must serve, got {other:?}"),
    }

    set.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn drain_and_stop_reaches_zero_inflight_before_stopping() {
    let path = scratch("drainstop");
    write_journal(&path);
    let mut set = ReplicaSet::start(&path, 3, obs_config()).unwrap();

    // Keep one slot-holding connection busy, then drain-and-stop
    // underneath it: the call must wait for the slot to empty (the
    // holder's connection closes after its burst) and only then stop.
    // The drain starts only once the holder has its first answer, so
    // it always has a slot to wait for.
    let addr = set.addrs()[1];
    let (answered, first_answer) = std::sync::mpsc::channel();
    let busy = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.request(&Request::Mode { t: 0 }).unwrap();
        answered.send(()).unwrap();
        // Each request is its own burst; the drain closes the
        // connection between bursts, surfacing as a typed error here.
        loop {
            match client.request(&Request::Mode { t: 0 }) {
                Ok(_) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => return,
            }
        }
    });

    first_answer.recv().unwrap();
    set.drain_and_stop(1, Duration::from_secs(5)).unwrap();
    assert!(!set.is_running(1), "replica stopped after the drain");
    busy.join().unwrap();

    // Survivors unaffected.
    for i in [0usize, 2] {
        let mut client = Client::connect(set.addrs()[i]).unwrap();
        match client.request(&Request::Mode { t: 0 }).unwrap() {
            Reply::Mode { .. } => {}
            other => panic!("survivor {i} must serve, got {other:?}"),
        }
    }

    set.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shutdown_is_not_starved_by_a_streaming_shed_connection() {
    let path = scratch("shedstream");
    write_journal(&path);
    let set = ReplicaSet::start(&path, 1, obs_config()).unwrap();

    // Drain first, then connect: the connection is admitted slotless,
    // so every query is answered with an `Overloaded` shed — which the
    // client sees as a normal reply. A peer like this streams frames
    // faster than the server's read tick, so shutdown must be able to
    // cut it off at a burst boundary rather than wait for a read
    // timeout that never comes.
    match set.drain(0).unwrap() {
        Reply::Admin { .. } => {}
        other => panic!("drain refused: {other:?}"),
    }
    let addr = set.addrs()[0];
    let pump = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        loop {
            match client.request(&Request::Mode { t: 0 }) {
                // Keep hammering through sheds; only a closed
                // connection stops this peer.
                Ok(_) => std::thread::sleep(Duration::from_millis(1)),
                Err(_) => return,
            }
        }
    });
    // Let the pump establish its cadence before pulling the plug.
    std::thread::sleep(Duration::from_millis(100));

    let started = std::time::Instant::now();
    set.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown starved by a streaming connection for {:?}",
        started.elapsed()
    );
    pump.join().unwrap();
    let _ = std::fs::remove_file(&path);
}
