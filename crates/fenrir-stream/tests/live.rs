//! The ROADMAP scenarios end-to-end through a real TCP server in
//! submit mode: a campaign streams its observations as `Submit`
//! frames, a subscribed connection receives every `ModeTransition`
//! push, and the loss accounting closes exactly — events received plus
//! explicit `Lagged` misses equal events emitted, zero silent loss.
//! Also the drain regression: a subscriber-only connection is released
//! promptly with a final `Closed` event, not held to its read deadline;
//! and the read path: a stream server answers what a snapshot of its
//! journal answers.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fenrir_core::cluster::AdaptiveThreshold;
use fenrir_data::journal::RecoverablePipeline;
use fenrir_serve::protocol::{AdminCmd, ERR_NOT_FOUND};
use fenrir_serve::{Client, Reply, Request, ServeConfig, Snapshot, StreamEvent};
use fenrir_stream::{
    ddos_catchment_flip, hypergiant_churn, StreamConfig, StreamScenario, StreamServer,
    SubmitClient, Subscriber,
};

fn temp_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fenrir-stream-{tag}-{}", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

fn seed() -> u64 {
    std::env::var("FENRIR_STREAM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn start(sc: &StreamScenario, path: &Path, cfg: ServeConfig) -> StreamServer {
    let stream = StreamConfig::new(sc.networks);
    StreamServer::start(path, sc.sites.clone(), sc.networks, stream, cfg).expect("start server")
}

/// A submitter with a 5 s read deadline.
fn submitter(server: &StreamServer) -> SubmitClient {
    let mut submitter = SubmitClient::connect(server.addr()).expect("submitter");
    submitter
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    submitter
}

/// A query client with a 5 s read deadline.
fn client(server: &StreamServer) -> Client {
    let mut client = Client::connect(server.addr()).expect("client");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    client
}

/// Drive one scenario through a live server with a subscriber watching,
/// and close the books on every pushed event.
fn stream_scenario(tag: &str, sc: StreamScenario) {
    let path = temp_journal(tag);
    let server = start(&sc, &path, ServeConfig::default());
    let addr = server.addr();

    // Subscribe before the first frame so every transition is pushed.
    let mut sub = Subscriber::connect(addr).expect("subscribe");
    sub.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    let acked_transitions = submitter(&server)
        .submit_all(&sc.rows)
        .expect("submit campaign");
    assert!(
        acked_transitions > 0,
        "{}: the scripted routing changes must surface as transitions",
        sc.name
    );

    // Collect exactly what the acks promised; explicit Lagged markers
    // (none expected at this rate, but never silent) count as misses.
    let mut received = Vec::new();
    let mut missed = 0u64;
    while (received.len() as u64) + missed < acked_transitions {
        match sub.next_event().expect("pushed event") {
            StreamEvent::ModeTransition { seq, .. } => received.push(seq),
            StreamEvent::Lagged { missed: m } => missed += m,
            StreamEvent::Closed => panic!("{}: premature Closed", sc.name),
        }
    }

    // Every scripted change is discovered at its frame (give or take
    // one observation of discovery lag). With explicit misses the
    // attribution is unknowable, but at this rate nothing sheds.
    if missed == 0 {
        for &change in &sc.scripted_changes {
            let hit = received
                .iter()
                .any(|&s| (s as i64 - change as i64).abs() <= 1);
            assert!(
                hit,
                "{}: no transition within one frame of scripted change {change} \
                 (got {received:?})",
                sc.name
            );
        }
    }

    // The books must balance: emitted == delivered + explicitly shed.
    let registry = server.server().registry();
    let emitted = registry
        .value("fenrir_stream_transitions_total", &[])
        .expect("transitions family") as u64;
    let pushed = registry
        .value("fenrir_stream_events_pushed_total", &[])
        .expect("pushed family") as u64;
    let shed = registry
        .value("fenrir_stream_lagged_drops_total", &[])
        .expect("lagged family") as u64;
    assert_eq!(emitted, acked_transitions, "{}: acks vs counter", sc.name);
    assert_eq!(
        pushed + shed,
        emitted,
        "{}: every emitted event was either delivered or explicitly shed",
        sc.name
    );
    assert_eq!(
        received.len() as u64 + missed,
        emitted,
        "{}: the subscriber can account for every event",
        sc.name
    );
    assert_eq!(
        registry.value("fenrir_stream_submits_total", &[]),
        Some(sc.rows.len() as f64),
        "{}: one submit per row",
        sc.name
    );
    assert_eq!(
        registry.value("fenrir_stream_subscribers", &[]),
        Some(1.0),
        "{}: the subscriber is registered",
        sc.name
    );

    // The per-subscriber ledger closes against the same books: one
    // row, whose counters are this subscriber's share of the fleet
    // totals (here, all of them).
    let mut stats_client = Client::connect(addr).expect("stats client");
    let per_sub = match stats_client.request(&Request::Stats).expect("stats") {
        Reply::Stats(s) => s.subscribers,
        other => panic!("{}: stats got {other:?}", sc.name),
    };
    assert_eq!(per_sub.len(), 1, "{}: one subscriber row", sc.name);
    assert_eq!(
        per_sub[0].events_pushed, pushed,
        "{}: the row's pushed count matches the fleet counter",
        sc.name
    );
    assert_eq!(
        per_sub[0].lagged_drops, shed,
        "{}: the row's shed count matches the fleet counter",
        sc.name
    );

    // Unsubscribe cleanly; the gauge drops and late events are none.
    let late = sub.unsubscribe().expect("unsubscribe");
    assert!(
        late.is_empty(),
        "{}: no events after the feed ended",
        sc.name
    );
    assert_eq!(registry.value("fenrir_stream_subscribers", &[]), Some(0.0));

    server.shutdown();
    let _ = fs::remove_file(&path);
}

#[test]
fn ddos_catchment_flip_streams_end_to_end() {
    stream_scenario("live-ddos", ddos_catchment_flip(seed()).expect("scenario"));
}

#[test]
fn hypergiant_churn_streams_end_to_end() {
    stream_scenario(
        "live-hypergiant",
        hypergiant_churn(seed()).expect("scenario"),
    );
}

#[test]
fn duplicate_replays_over_tcp_are_absorbed() {
    let sc = ddos_catchment_flip(seed()).expect("scenario");
    let path = temp_journal("live-dup");
    let server = start(&sc, &path, ServeConfig::default());

    let mut submitter = submitter(&server);
    submitter.submit_all(&sc.rows[..5]).expect("first half");
    // An at-least-once retry of the whole prefix plus the rest: the
    // replayed rows ack Duplicate, the rest are accepted, and the
    // server ends with exactly one copy of everything.
    submitter.submit_all(&sc.rows).expect("replay then finish");
    assert_eq!(server.ingestor().observations(), sc.rows.len() as u64);
    let registry = server.server().registry();
    assert_eq!(
        registry.value("fenrir_stream_duplicates_total", &[]),
        Some(5.0)
    );
    assert_eq!(registry.value("fenrir_stream_gaps_total", &[]), Some(0.0));

    server.shutdown();
    let _ = fs::remove_file(&path);
}

/// The drain regression (the small-fix satellite): a subscriber-only
/// connection — no queries in flight, nothing to finish — must be
/// released promptly when the server drains, with the subscription's
/// final `Closed` event on the wire, not parked until its read
/// deadline.
#[test]
fn drain_releases_subscriber_only_connections_promptly() {
    let sc = ddos_catchment_flip(seed()).expect("scenario");
    let path = temp_journal("live-drain");
    let cfg = ServeConfig {
        admin_token: Some("drain-test-token".into()),
        ..ServeConfig::default()
    };
    let server = start(&sc, &path, cfg);
    let addr = server.addr();

    let mut sub = Subscriber::connect(addr).expect("subscribe");
    sub.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let mut admin = Client::connect(addr).expect("admin client");
    match admin
        .admin("drain-test-token", AdminCmd::Drain)
        .expect("drain")
    {
        Reply::Admin { .. } => {}
        other => panic!("drain refused: {other:?}"),
    }

    let start = Instant::now();
    let events = sub.drain().expect("final Closed before the deadline");
    assert!(events.is_empty(), "no data events were pending");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "subscriber held {:?} on drain — must be released promptly, \
         not parked until the read deadline",
        start.elapsed()
    );

    server.shutdown();
    let _ = fs::remove_file(&path);
}

#[test]
fn a_fresh_stream_server_answers_not_found() {
    let sc = ddos_catchment_flip(seed()).expect("scenario");
    let path = temp_journal("live-fresh");
    let server = start(&sc, &path, ServeConfig::default());
    match client(&server).request(&Request::Assign { t: 0, network: 0 }) {
        Ok(Reply::Error { code, .. }) => assert_eq!(code, ERR_NOT_FOUND),
        other => panic!("an empty stream must answer NOT_FOUND, got {other:?}"),
    }
    server.shutdown();
    let _ = fs::remove_file(&path);
}

/// Once the store has caught up with every submitted row, each served
/// reply equals, byte for byte, the reply of a snapshot built over the
/// journal file read back from disk.
#[test]
fn served_replies_equal_a_snapshot_of_the_journal() {
    let sc = ddos_catchment_flip(seed()).expect("scenario");
    let path = temp_journal("live-served");
    let server = start(&sc, &path, ServeConfig::default());
    submitter(&server)
        .submit_all(&sc.rows)
        .expect("submit campaign");

    let mut client = client(&server);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.request(&Request::Health) {
            Ok(Reply::Health(h)) if h.observations == sc.rows.len() as u64 => break,
            Ok(Reply::Health(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("the store never served every row: {other:?}"),
        }
    }

    let pipe = RecoverablePipeline::open_read_only(&path).expect("journal");
    let direct = Snapshot::build(&pipe, &AdaptiveThreshold::default(), 0, false).expect("snapshot");
    let times: Vec<i64> = sc.rows.iter().map(|r| r.time).collect();
    for (i, &t) in times.iter().enumerate() {
        let u = times[(i * 7 + 3) % times.len()];
        let network = (i * 5 % sc.networks) as u32;
        for (req, want) in [
            (Request::Assign { t, network }, direct.assign(t, network)),
            (Request::Similarity { t, u }, direct.similarity(t, u)),
            (Request::Mode { t }, direct.mode(t)),
            (Request::Transition { t, u }, direct.transition(t, u)),
        ] {
            assert!(
                !matches!(want, Reply::Error { .. }),
                "{req:?} has no answer: {want:?}"
            );
            let served = client.request(&req).expect("served reply");
            assert_eq!(served.encode(), want.encode(), "{req:?}");
        }
    }

    server.shutdown();
    let _ = fs::remove_file(&path);
}

/// The store serves the ingestor's pipeline, so `Health.torn` reports
/// the torn tail that the ingestor's open cut off after a crash.
#[test]
fn a_restarted_stream_server_reports_the_torn_tail_its_open_cut_off() {
    let sc = ddos_catchment_flip(seed()).expect("scenario");
    let path = temp_journal("live-torn");
    let server = start(&sc, &path, ServeConfig::default());
    submitter(&server)
        .submit_all(&sc.rows[..4])
        .expect("submit prefix");
    server.shutdown();

    // The start of a frame whose append was cut short.
    let mut journal = fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("journal");
    journal.write_all(&[0x46, 0x4e, 0x52]).expect("torn bytes");
    drop(journal);

    let server = start(&sc, &path, ServeConfig::default());
    match client(&server).request(&Request::Health) {
        Ok(Reply::Health(h)) => assert!(h.torn && h.observations == 4, "{h:?}"),
        other => panic!("health: {other:?}"),
    }
    server.shutdown();
    let _ = fs::remove_file(&path);
}
