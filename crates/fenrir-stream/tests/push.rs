//! Push is exactly once on one node. The server orders every announce
//! against every subscribe, so a transition reaches a subscriber in its
//! replay or live, never both and never neither, and `Subscribed` is
//! the first frame of every subscription. These tests serve handlers
//! whose transitions are easy to tell apart (or deliberately not) and
//! check delivery frame by frame.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_serve::sync::Mutex;
use fenrir_serve::{
    Client, ModeStore, Reply, Request, ServeConfig, Server, StreamEvent, StreamHandler,
    SubmitOutcome,
};
use fenrir_stream::{SubmitClient, Subscriber};

/// A transition whose `seq` field carries `index`, so a subscriber can
/// tell which announce it is.
fn transition(index: u64) -> StreamEvent {
    StreamEvent::ModeTransition {
        seq: index,
        time: 86_400,
        from_mode: 0,
        to_mode: 1,
        modes: 2,
        threshold: 0.5,
        step_phi: 0.25,
        trusted: true,
    }
}

/// A handler that accepts every submit and announces what `announce`
/// returns for it, keeping the whole announce history for replay.
struct Announcer {
    history: Mutex<Vec<StreamEvent>>,
    /// The events one submit announces, given its `seq` and the
    /// boundary count before it.
    announce: fn(u64, u64) -> Vec<StreamEvent>,
}

impl Announcer {
    fn new(announce: fn(u64, u64) -> Vec<StreamEvent>) -> Arc<Announcer> {
        Arc::new(Announcer {
            history: Mutex::new(Vec::new()),
            announce,
        })
    }
}

impl StreamHandler for Announcer {
    fn submit(
        &self,
        seq: u64,
        _time: i64,
        _codes: &[u16],
        _health: CampaignHealth,
    ) -> (Reply, Vec<StreamEvent>) {
        let mut history = self.history.lock();
        let events = (self.announce)(seq, history.len() as u64);
        history.extend(events.iter().cloned());
        let outcome = SubmitOutcome::Accepted {
            observations: seq + 1,
            transitions: events.len() as u32,
        };
        (Reply::SubmitAck { seq, outcome }, events)
    }

    fn boundary_count(&self) -> u64 {
        self.history.lock().len() as u64
    }

    fn events_since(&self, from: u64) -> Vec<StreamEvent> {
        self.history.lock()[from as usize..].to_vec()
    }
}

fn serve(handler: Arc<Announcer>, workers: usize) -> Server {
    let pipe =
        RecoverablePipeline::in_memory(SiteTable::from_names(["A"]), 1, PipelineConfig::new(1))
            .expect("pipeline");
    let store = Arc::new(ModeStore::over(Arc::new(Mutex::new(pipe))).expect("store"));
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    Server::start_with_stream(store, handler, cfg).expect("server")
}

fn health() -> CampaignHealth {
    CampaignHealth::new(Timestamp::from_secs(86_400), 1)
}

/// The adaptive threshold can drop a boundary and find it again, so a
/// real stream may announce the same fields twice. Each announce is a
/// boundary the server counts, and the subscriber must count it too.
#[test]
fn a_transition_announced_twice_is_delivered_twice() {
    let handler = Announcer::new(|_, _| vec![transition(7)]);
    let server = serve(Arc::clone(&handler), 4);
    let mut sub = Subscriber::connect(server.addr()).expect("subscribe");
    sub.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let mut submitter = SubmitClient::connect(server.addr()).expect("submitter");
    for seq in 0..2 {
        submitter
            .submit(seq, 86_400 * (seq as i64 + 1), vec![0], health())
            .expect("acked");
    }
    for _ in 0..2 {
        assert_eq!(sub.next_event().expect("pushed"), transition(7));
    }
    assert_eq!(sub.cursor(), 2);
    assert_eq!(sub.cursor(), handler.boundary_count());
    server.shutdown();
}

/// What one subscriber has accounted for, checked frame by frame.
struct Tally {
    /// The boundary count its first subscription started at.
    start: u64,
    /// The next announce index it expects.
    cursor: u64,
    delivered: u64,
    missed: u64,
}

impl Tally {
    /// Account for one pushed frame: a transition must carry exactly
    /// the next index, and a `Lagged` marker skips the indices it
    /// counts. Returns whether the frame was the final `Closed`.
    fn account(&mut self, reply: Reply) -> bool {
        match reply {
            Reply::Event(StreamEvent::ModeTransition { seq, .. }) => {
                assert_eq!(seq, self.cursor, "delivered out of announce order or twice");
                self.cursor += 1;
                self.delivered += 1;
            }
            Reply::Event(StreamEvent::Lagged { missed }) => {
                self.cursor += missed;
                self.missed += missed;
            }
            Reply::Event(StreamEvent::Closed) => return true,
            other => panic!("expected a pushed event, got {other:?}"),
        }
        false
    }
}

fn connect(server: &Server) -> Client {
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

/// Subscribe and return the `Subscribed` boundary count, which must be
/// the subscription's first frame.
fn subscribe(client: &mut Client, resume_from: Option<u64>) -> u64 {
    client
        .send(&Request::Subscribe {
            enable: true,
            resume_from,
        })
        .expect("send");
    client.flush().expect("flush");
    match client.recv().expect("reply") {
        Reply::Subscribed {
            active: true,
            boundary_count,
            ..
        } => boundary_count,
        other => panic!("the first frame must be Subscribed, got {other:?}"),
    }
}

/// Unsubscribe and account for every frame pushed before the
/// subscription's `Closed`, which must come last.
fn unsubscribe(client: &mut Client, tally: &mut Tally) {
    client
        .send(&Request::Subscribe {
            enable: false,
            resume_from: None,
        })
        .expect("send");
    client.flush().expect("flush");
    while !tally.account(client.recv().expect("pushed")) {}
    match client.recv().expect("reply") {
        Reply::Subscribed { active: false, .. } => {}
        other => panic!("expected the inactive Subscribed after Closed, got {other:?}"),
    }
}

/// A small deterministic mixer (splitmix64) for the race's choices.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Subscribe fresh after `delay`, then until the submitters are done
/// keep ending the subscription and resuming at the cursor: half the
/// time by an unsubscribe on the same connection, half by dropping the
/// connection after reading part of the replay and pausing, so that
/// some replays outgrow the subscriber's queue and shed. The last round
/// unsubscribes after every submit was acked, so by then every announce
/// is accounted for.
fn subscriber(server: &Server, done: &AtomicBool, seed: u64, delay: Duration) -> Tally {
    std::thread::sleep(delay);
    let mut client = connect(server);
    let start = subscribe(&mut client, None);
    let mut tally = Tally {
        start,
        cursor: start,
        delivered: 0,
        missed: 0,
    };
    let mut count = start;
    for round in 0u64.. {
        let r = mix(seed ^ round);
        // The first events a subscription owes, up to the server's
        // 64-event queue, are queued before its pusher starts, so no
        // shed can precede them: reading them never waits on a `Lagged`
        // marker that only a later event or the close would carry.
        let queued = (count - tally.cursor).min(64);
        for _ in 0..(r % (queued + 1)) {
            assert!(!tally.account(client.recv().expect("replayed")));
        }
        let finished = done.load(Ordering::SeqCst);
        if round % 2 == 0 || finished {
            std::thread::sleep(Duration::from_micros((r >> 8) % 2_000));
            unsubscribe(&mut client, &mut tally);
            if finished {
                return tally;
            }
        } else {
            drop(client);
            std::thread::sleep(Duration::from_micros((r >> 16) % 10_000));
            client = connect(server);
        }
        count = subscribe(&mut client, Some(tally.cursor));
    }
    unreachable!("the rounds end once the submitters are done")
}

/// Several connections submit while several subscribers keep resuming:
/// each subscriber sees every announce index exactly once, in announce
/// order, each subscription opens with `Subscribed`, and the books
/// close against the server's count.
#[test]
fn racing_submits_and_resumes_push_each_announce_exactly_once() {
    // Submit `seq` announces `seq % 3` transitions, so broadcasts of
    // zero, one and two events interleave.
    let handler =
        Announcer::new(|seq, before| (before..before + seq % 3).map(transition).collect());
    let server = serve(Arc::clone(&handler), 12);
    let done = AtomicBool::new(false);
    let tallies = std::thread::scope(|s| {
        let subscribers: Vec<_> = (0..3u64)
            .map(|i| {
                let (server, done) = (&server, &done);
                let delay = Duration::from_millis(10 * i);
                s.spawn(move || subscriber(server, done, mix(i), delay))
            })
            .collect();
        let submitters: Vec<_> = (0..3u64)
            .map(|i| {
                let server = &server;
                s.spawn(move || {
                    let mut client = connect(server);
                    for seq in 0..300 {
                        let submit = Request::Submit {
                            seq,
                            time: 86_400,
                            codes: vec![0],
                            health: health(),
                        };
                        match client.request(&submit).expect("ack") {
                            Reply::SubmitAck { .. } => {}
                            other => panic!("expected an ack, got {other:?}"),
                        }
                        let pause = mix(i << 32 | seq) % 300;
                        std::thread::sleep(Duration::from_micros(pause));
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("submitter");
        }
        done.store(true, Ordering::SeqCst);
        subscribers
            .into_iter()
            .map(|h| h.join().expect("subscriber"))
            .collect::<Vec<_>>()
    });
    let total = handler.boundary_count();
    assert_eq!(total, 3 * (0..300).map(|seq| seq % 3).sum::<u64>());
    for tally in tallies {
        assert_eq!(tally.cursor, total, "every announce is accounted for");
        assert_eq!(tally.delivered + tally.missed, total - tally.start);
    }
    server.shutdown();
}
