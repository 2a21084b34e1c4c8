//! Backpressure and graceful drain.
//!
//! The server is configured down to one worker, one service slot, and
//! a one-deep accept queue, so a single slow consumer saturates it and
//! the behaviour of the *next* query is deterministic: an explicit
//! `Overloaded` reply within bounded time, never an unbounded wait.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_serve::protocol::{Reply, Request};
use fenrir_serve::sync::Mutex;
use fenrir_serve::{Client, ModeStore, ServeConfig, Server};

const NETWORKS: usize = 8;
const DAY: i64 = 86_400;

fn tiny_store() -> Arc<ModeStore> {
    let sites = SiteTable::from_names(["AAA", "BBB"]);
    let mut pipe =
        RecoverablePipeline::in_memory(sites, NETWORKS, PipelineConfig::new(NETWORKS)).unwrap();
    for day in 0..4 {
        let codes = (0..NETWORKS).map(|n| ((n + day) % 2) as u16).collect();
        let v = RoutingVector::from_codes(Timestamp::from_secs(day as i64 * DAY), codes);
        let mut h = CampaignHealth::new(v.time(), NETWORKS);
        h.responses = NETWORKS;
        pipe.observe(v, h).unwrap();
    }
    Arc::new(ModeStore::over(Arc::new(Mutex::new(pipe))).unwrap())
}

fn saturated_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_inflight: 1,
        backlog: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn saturation_yields_prompt_overloaded_replies() {
    let server = Server::start(tiny_store(), saturated_config()).unwrap();

    // A holds the only service slot (and the only worker) by staying
    // connected after a query.
    let mut a = Client::connect(server.addr()).unwrap();
    match a.request(&Request::Health).unwrap() {
        Reply::Health(_) => {}
        other => panic!("health: {other:?}"),
    }

    // B fills the worker's one-deep accept queue (the worker itself is
    // parked on A's connection); C exceeds every queue and must be
    // shed at accept time with an Overloaded frame, promptly.
    let mut b = Client::connect(server.addr()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    let c_reply = c.recv();
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(4),
        "shed reply took {waited:?}"
    );
    assert!(
        matches!(c_reply, Ok(Reply::Overloaded { .. })),
        "expected an accept-time Overloaded, got {c_reply:?}"
    );

    // A releases everything; the queued connection must now be served.
    drop(a);
    let queued = &mut b;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match queued.request(&Request::Health) {
            Ok(Reply::Health(_)) => break,
            Ok(Reply::Overloaded { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(other) => panic!("queued connection got {other:?}"),
            Err(e) => panic!("queued connection failed: {e}"),
        }
    }

    server.shutdown();
}

/// One queue feeds every worker: with A idle on one worker, a new
/// connection C is answered by the other worker at once instead of
/// waiting behind A until A's read deadline closes it.
#[test]
fn a_new_connection_is_served_by_a_free_worker_not_behind_an_idle_one() {
    let server = Server::start(
        tiny_store(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let stats = |client: &mut Client| {
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        client.request(&Request::Stats)
    };

    // A stays connected and idle after one query; B asks and leaves.
    let mut a = Client::connect(server.addr()).unwrap();
    assert!(matches!(stats(&mut a), Ok(Reply::Stats(_))));
    let mut b = Client::connect(server.addr()).unwrap();
    assert!(matches!(stats(&mut b), Ok(Reply::Stats(_))));
    drop(b);

    let mut c = Client::connect(server.addr()).unwrap();
    let reply = stats(&mut c);
    assert!(
        matches!(reply, Ok(Reply::Stats(_))),
        "C waited behind idle A while a worker was free: {reply:?}"
    );

    drop(a);
    server.shutdown();
}

#[test]
fn slotless_connections_get_overloaded_not_silence() {
    // Two workers but one service slot: the second connection is
    // *accepted* and read, yet its queries must be answered with
    // Overloaded while the slot is held.
    let server = Server::start(
        tiny_store(),
        ServeConfig {
            workers: 2,
            max_inflight: 1,
            backlog: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut a = Client::connect(server.addr()).unwrap();
    match a.request(&Request::Health).unwrap() {
        Reply::Health(_) => {}
        other => panic!("health: {other:?}"),
    }

    let mut b = Client::connect(server.addr()).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    match b.request(&Request::Health).unwrap() {
        Reply::Overloaded { .. } => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(4));

    // Slot freed: B's next query is served (the worker re-tries the
    // slot per query).
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match b.request(&Request::Health) {
            Ok(Reply::Health(_)) => break,
            Ok(Reply::Overloaded { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(other) => panic!("got {other:?}"),
            Err(e) => panic!("failed: {e}"),
        }
    }

    server.shutdown();
}

#[test]
fn shutdown_drains_pipelined_queries_before_hanging_up() {
    let server = Server::start(
        tiny_store(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut client = Client::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Warm the connection so the worker is parked on it.
    match client.request(&Request::Health).unwrap() {
        Reply::Health(_) => {}
        other => panic!("health: {other:?}"),
    }

    // Pipeline a burst, then shut down while it is in flight.
    const BURST: usize = 64;
    for i in 0..BURST {
        client
            .send(&Request::Similarity {
                t: (i as i64 % 4) * DAY,
                u: DAY,
            })
            .unwrap();
    }
    client.flush().unwrap();
    let shutdown = std::thread::spawn(move || server.shutdown());

    // Every pipelined query must be answered before the server closes
    // the connection: drained, not dropped.
    for i in 0..BURST {
        match client.recv() {
            Ok(Reply::Similarity { .. }) => {}
            Ok(other) => panic!("burst reply {i}: {other:?}"),
            Err(e) => panic!("burst reply {i} lost to shutdown: {e}"),
        }
    }
    shutdown.join().unwrap();

    // After the drain the server is gone: new connections fail or are
    // closed without service.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            assert!(
                late.request(&Request::Health).is_err(),
                "server answered after shutdown"
            );
        }
    }
}
