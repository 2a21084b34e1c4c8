//! End-to-end: journal → store → server → client, answers bit-identical
//! to direct fenrir-core computation, hostile input survival, hot
//! reload, and cache behaviour.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use fenrir_core::cluster::{AdaptiveThreshold, Dendrogram};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::latency::{LatencyPanel, LatencySummary};
use fenrir_core::modes::ModeAnalysis;
use fenrir_core::time::Timestamp;
use fenrir_core::transition::TransitionMatrix;
use fenrir_core::vector::RoutingVector;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_serve::protocol::{Reply, Request, ERR_NOT_FOUND, ERR_UNAVAILABLE};
use fenrir_serve::{Client, ModeStore, ServeConfig, Server};

const NETWORKS: usize = 12;
const SITES: usize = 3;
const DAY: i64 = 86_400;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fenrir-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn vector(day: i64, shift: usize) -> RoutingVector {
    let codes = (0..NETWORKS)
        .map(|n| match (n + shift) % 4 {
            3 => u16::MAX, // unknown
            s => s as u16, // sites 0..=2
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

/// Build a journal on disk with `days` observations; every even day
/// carries a latency panel.
fn write_journal(path: &Path, days: i64) -> RecoverablePipeline {
    let sites = SiteTable::from_names((0..SITES).map(|s| format!("SITE{s}")));
    let cfg = PipelineConfig::new(NETWORKS);
    let mut pipe = RecoverablePipeline::open(path, sites, NETWORKS, cfg).unwrap();
    append_days(&mut pipe, 0, days);
    pipe
}

fn append_days(pipe: &mut RecoverablePipeline, from: i64, to: i64) {
    for day in from..to {
        // Period-2 routing so recurring modes exist.
        let p = (day % 2 == 0).then(|| panel(day));
        pipe.observe_with_latency(vector(day, (day % 2) as usize), p, health(day))
            .unwrap();
    }
}

fn start(path: &Path, follow: Option<Duration>) -> (Server, Arc<ModeStore>) {
    let store = Arc::new(ModeStore::open(path).unwrap());
    let server = Server::start(
        Arc::clone(&store),
        ServeConfig {
            follow,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    (server, store)
}

#[test]
fn all_six_query_kinds_match_direct_computation_bit_for_bit() {
    let path = scratch("bitident");
    let pipe = write_journal(&path, 8);
    let (server, _store) = start(&path, None);
    let mut client = Client::connect(server.addr()).unwrap();

    // Direct computation, same inputs.
    let series = pipe.series();
    let matrix = pipe.matrix().unwrap();
    let dendro: &Dendrogram = pipe.dendrogram().unwrap();
    let choice = AdaptiveThreshold::default().choose(dendro).unwrap();
    let modes = ModeAnalysis::from_choice(matrix, &series.times(), &choice);
    let weights = &pipe.config().weights;

    let t3 = 3 * DAY;
    let t6 = 6 * DAY;

    // Assign: every network of day 3, including a between-times query.
    for n in 0..NETWORKS {
        for t in [t3, t3 + 1234] {
            let reply = client
                .request(&Request::Assign {
                    t,
                    network: n as u32,
                })
                .unwrap();
            let v = series.get(3);
            let expect = v.get(n);
            match reply {
                Reply::Assign { time, code, label } => {
                    assert_eq!(time, t3);
                    assert_eq!(code, expect.code());
                    assert_eq!(label, expect.display(series.sites()).to_string());
                }
                other => panic!("assign: {other:?}"),
            }
        }
    }

    // Similarity: served Φ must be the exact matrix entry.
    let reply = client
        .request(&Request::Similarity { t: t3, u: t6 })
        .unwrap();
    match reply {
        Reply::Similarity { t, u, phi } => {
            assert_eq!((t, u), (t3, t6));
            assert_eq!(phi.to_bits(), matrix.get(3, 6).to_bits());
        }
        other => panic!("similarity: {other:?}"),
    }

    // Mode: membership, threshold, recurrence, intra-Φ.
    let reply = client.request(&Request::Mode { t: t6 }).unwrap();
    let label = modes.labels[6];
    let mode = &modes.modes[label];
    match reply {
        Reply::Mode {
            time,
            mode: id,
            threshold,
            recurs,
            members,
            intra_phi,
        } => {
            assert_eq!(time, t6);
            assert_eq!(id, mode.id as u64);
            assert_eq!(threshold.to_bits(), modes.threshold.to_bits());
            assert_eq!(recurs, mode.recurs());
            assert_eq!(members, mode.members.len() as u64);
            match (intra_phi, mode.intra_phi) {
                (Some((a, b)), Some((c, d))) => {
                    assert_eq!(a.to_bits(), c.to_bits());
                    assert_eq!(b.to_bits(), d.to_bits());
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none()),
            }
        }
        other => panic!("mode: {other:?}"),
    }

    // Transition: full weighted cell matrix.
    let reply = client
        .request(&Request::Transition { t: t3, u: t6 })
        .unwrap();
    let direct =
        TransitionMatrix::compute_weighted(series.get(3), series.get(6), SITES, weights).unwrap();
    match reply {
        Reply::Transition {
            from,
            to,
            num_sites,
            cells,
        } => {
            assert_eq!((from, to), (t3, t6));
            assert_eq!(num_sites, SITES as u64);
            assert_eq!(cells.len(), direct.cells().len());
            for (got, want) in cells.iter().zip(direct.cells()) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        other => panic!("transition: {other:?}"),
    }

    // Latency: day 6 has a panel; summary rows must match exactly.
    let reply = client.request(&Request::Latency { t: t6 }).unwrap();
    let direct = LatencySummary::compute(
        series.get(6),
        pipe.panels()[6].as_ref().unwrap(),
        weights,
        SITES,
    )
    .unwrap();
    match reply {
        Reply::Latency {
            time,
            overall_mean_ms,
            per_site,
        } => {
            assert_eq!(time, t6);
            assert_eq!(
                overall_mean_ms.map(f64::to_bits),
                direct.overall_mean_ms.map(f64::to_bits)
            );
            let direct_rows: Vec<_> = direct
                .per_site
                .iter()
                .filter(|c| c.mean_ms.is_some())
                .collect();
            assert_eq!(per_site.len(), direct_rows.len());
            for (got, want) in per_site.iter().zip(direct_rows) {
                assert_eq!(got.mean_ms.to_bits(), want.mean_ms.unwrap().to_bits());
                assert_eq!(got.p50_ms.to_bits(), want.p50_ms.unwrap().to_bits());
                assert_eq!(got.p90_ms.to_bits(), want.p90_ms.unwrap().to_bits());
                assert_eq!(got.samples, want.samples as u64);
            }
        }
        other => panic!("latency: {other:?}"),
    }

    // Latency on a panel-less observation is a typed Unavailable.
    match client.request(&Request::Latency { t: t3 }).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ERR_UNAVAILABLE),
        other => panic!("latency without panel: {other:?}"),
    }

    // Health mirrors the dataset shape.
    match client.request(&Request::Health).unwrap() {
        Reply::Health(h) => {
            assert_eq!(h.epoch, 0);
            assert_eq!(h.observations, 8);
            assert_eq!(h.networks, NETWORKS as u64);
            assert_eq!(h.sites, SITES as u64);
            assert_eq!(h.modes, modes.modes.len() as u64);
            assert_eq!(h.threshold.to_bits(), modes.threshold.to_bits());
            assert!(!h.torn);
            assert!(!h.draining);
        }
        other => panic!("health: {other:?}"),
    }

    // Stats counts the work above.
    match client.request(&Request::Stats).unwrap() {
        Reply::Stats(s) => {
            assert!(s.connections >= 1);
            assert!(s.queries >= 28);
            assert_eq!(s.reloads, 0);
        }
        other => panic!("stats: {other:?}"),
    }

    // A time before the first observation is a typed NotFound.
    match client
        .request(&Request::Similarity { t: -DAY, u: t3 })
        .unwrap()
    {
        Reply::Error { code, .. } => assert_eq!(code, ERR_NOT_FOUND),
        other => panic!("pre-series query: {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hostile_frames_do_not_take_the_server_down() {
    let path = scratch("hostile");
    write_journal(&path, 4);
    let (server, _store) = start(&path, None);

    // Connection 1: raw garbage. The server must reply with a typed
    // error (or just hang up) — never crash.
    let mut evil = Client::connect(server.addr()).unwrap();
    evil.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    evil.send_raw(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    match evil.recv() {
        Ok(Reply::Error { .. }) => {}
        Ok(other) => panic!("garbage answered with {other:?}"),
        Err(_) => {} // server hung up — acceptable
    }

    // Connection 2: a valid frame with a corrupted checksum byte.
    let mut evil2 = Client::connect(server.addr()).unwrap();
    evil2
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut frame = Request::Health.encode();
    frame[6] ^= 0xFF;
    evil2.send_raw(&frame).unwrap();
    match evil2.recv() {
        Ok(Reply::Error { .. }) | Err(_) => {}
        Ok(other) => panic!("corrupt frame answered with {other:?}"),
    }

    // The server still answers well-formed queries afterwards.
    let mut good = Client::connect(server.addr()).unwrap();
    match good.request(&Request::Health).unwrap() {
        Reply::Health(h) => assert_eq!(h.observations, 4),
        other => panic!("health after hostile input: {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_growth_is_served_after_hot_reload() {
    let path = scratch("reload");
    let mut pipe = write_journal(&path, 4);
    let (server, store) = start(&path, Some(Duration::from_millis(50)));
    let mut client = Client::connect(server.addr()).unwrap();

    match client.request(&Request::Health).unwrap() {
        Reply::Health(h) => {
            assert_eq!(h.observations, 4);
            assert_eq!(h.epoch, 0);
        }
        other => panic!("health: {other:?}"),
    }
    // Day 5 is not served yet: it resolves to day 3's observation.
    match client
        .request(&Request::Assign {
            t: 5 * DAY,
            network: 0,
        })
        .unwrap()
    {
        Reply::Assign { time, .. } => assert_eq!(time, 3 * DAY),
        other => panic!("assign: {other:?}"),
    }

    // Writer appends two more days; the reloader should pick them up.
    // `append_days` writes three frames (day 4, its latency panel, day
    // 5) while the 50 ms reloader runs, so a reload may publish a prefix
    // of them first: wait until Health serves all six observations.
    append_days(&mut pipe, 4, 6);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let epoch = loop {
        match client.request(&Request::Health).unwrap() {
            Reply::Health(h) if h.observations == 6 => break h.epoch,
            Reply::Health(h) => assert!(
                std::time::Instant::now() < deadline,
                "hot reload never served 6 observations (last {})",
                h.observations
            ),
            other => panic!("health after reload: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(epoch >= 1, "the epoch did not advance");
    // `publish` sets the epoch, then counts the reload: once the count
    // reaches the served epoch, it has counted every publish.
    while store.reloads() < epoch && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(store.reloads(), store.epoch());
    match client
        .request(&Request::Assign {
            t: 5 * DAY,
            network: 0,
        })
        .unwrap()
    {
        Reply::Assign { time, .. } => assert_eq!(time, 5 * DAY),
        other => panic!("assign after reload: {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_on_reload_degrades_to_last_good_epoch_and_recovers() {
    let path = scratch("degrade");
    write_journal(&path, 6);
    let good_bytes = std::fs::read(&path).unwrap();
    let (server, store) = start(&path, Some(Duration::from_millis(50)));
    let mut client = Client::connect(server.addr()).unwrap();

    // Tear the journal tail: drop the last byte so the final frame is
    // torn and the recovered prefix holds fewer observations than the
    // epoch already being served.
    std::fs::write(&path, &good_bytes[..good_bytes.len() - 1]).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while store.reload_failures() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(store.reload_failures() >= 1, "reload failure never counted");
    assert!(store.stale(), "store should be marked stale");
    assert_eq!(store.epoch(), 0, "degradation must not swap epochs");

    // The server keeps answering from the last-good snapshot, and says
    // so: Health carries stale=true, Stats counts the failed reload.
    match client.request(&Request::Health).unwrap() {
        Reply::Health(h) => {
            assert_eq!(h.observations, 6);
            assert_eq!(h.epoch, 0);
            assert!(h.stale, "health must advertise the degraded state");
        }
        other => panic!("health while degraded: {other:?}"),
    }
    match client
        .request(&Request::Assign {
            t: 5 * DAY,
            network: 1,
        })
        .unwrap()
    {
        Reply::Assign { time, .. } => assert_eq!(time, 5 * DAY),
        other => panic!("assign while degraded: {other:?}"),
    }
    match client.request(&Request::Stats).unwrap() {
        Reply::Stats(s) => assert!(s.reload_failures >= 1),
        other => panic!("stats while degraded: {other:?}"),
    }

    // Repair the journal in place. The file length matches the original
    // load, so only the stale flag makes the reloader look again — a
    // repaired journal must clear the degradation.
    std::fs::write(&path, &good_bytes).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while store.stale() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!store.stale(), "repair never cleared the stale flag");
    match client.request(&Request::Health).unwrap() {
        Reply::Health(h) => {
            assert_eq!(h.observations, 6);
            assert!(!h.stale);
            assert!(h.epoch >= 1, "recovery reload must bump the epoch");
        }
        other => panic!("health after repair: {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn repeated_derived_queries_hit_the_cache() {
    let path = scratch("cache");
    write_journal(&path, 6);
    let (server, store) = start(&path, None);
    let mut client = Client::connect(server.addr()).unwrap();

    let q = Request::Transition {
        t: 2 * DAY,
        u: 4 * DAY,
    };
    let first = client.request(&q).unwrap();
    let hits_before = store.cache.hits();
    for _ in 0..5 {
        assert_eq!(client.request(&q).unwrap(), first);
    }
    assert!(
        store.cache.hits() >= hits_before + 5,
        "expected cache hits, got {} -> {}",
        hits_before,
        store.cache.hits()
    );

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
