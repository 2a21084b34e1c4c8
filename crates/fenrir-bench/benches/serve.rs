//! fenrir-serve load generator: a deterministic, seeded query mix fired
//! at a real server over loopback TCP.
//!
//! Two phases:
//!
//! 1. **throughput** — closed-loop: several client threads pipeline
//!    batches of queries and drain the replies; reported as total
//!    queries per second across threads. The acceptance bar (50k qps)
//!    is asserted here.
//! 2. **latency** — open-loop: one client schedules query arrivals on a
//!    fixed interval (independent of reply times, so queueing shows up
//!    as latency rather than reduced load) and records per-query
//!    round-trip times; reported as p50/p99.
//!
//! The query mix is ~50% assign / 30% similarity / 10% mode /
//! 5% transition / 5% latency, drawn from a seeded ChaCha8 stream so
//! every run replays the same sequence. Emits `BENCH_serve.json` at the
//! workspace root.
//!
//! The throughput phase runs **twice**: once against a plain server
//! (no scrape endpoint, slow-query tracing off) and once with the full
//! observability plane live (HTTP scrape listener bound, per-kind
//! counters and histograms exporting, slow-query tracing armed). The
//! ratio is the measured cost of metrics on the hot path and is
//! asserted to stay above [`OBS_QPS_RATIO_FLOOR`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use fenrir_bench::report::{self, percentile, Obj};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::latency::LatencyPanel;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_netsim::rng::ChaCha8Rng;
use fenrir_serve::protocol::{Reply, Request};
use fenrir_serve::sync::Mutex;
use fenrir_serve::{Client, ModeStore, ServeConfig, Server};

const NETWORKS: usize = 256;
const SITES: usize = 8;
const OBSERVATIONS: usize = 64;
const DAY: i64 = 86_400;

const THROUGHPUT_THREADS: usize = 4;
const THROUGHPUT_BATCH: usize = 256;
const THROUGHPUT_BATCHES: usize = 40;
const OPEN_LOOP_QPS: u64 = 2_000;
const OPEN_LOOP_QUERIES: usize = 4_000;
const QPS_FLOOR: f64 = 50_000.0;
/// Metrics-enabled closed-loop throughput must stay within 10% of the
/// plain server (the observed cost is a few percent; the floor leaves
/// headroom for shared-runner noise).
const OBS_QPS_RATIO_FLOOR: f64 = 0.90;

fn build_store() -> Arc<ModeStore> {
    let sites = SiteTable::from_names((0..SITES).map(|s| format!("S{s:02}")));
    let mut pipe = RecoverablePipeline::in_memory(sites, NETWORKS, PipelineConfig::new(NETWORKS))
        .expect("pipeline");
    let mut rng = ChaCha8Rng::seed_from_u64(0xF3_2177);
    for day in 0..OBSERVATIONS {
        let t = Timestamp::from_secs(day as i64 * DAY);
        // Period-4 routing with light noise: recurring modes plus churn.
        let phase = day % 4;
        let codes = (0..NETWORKS)
            .map(|n| {
                if rng.gen_range(0..100) < 3 {
                    u16::MAX // unknown
                } else {
                    ((n + phase) % SITES) as u16
                }
            })
            .collect();
        let v = RoutingVector::from_codes(t, codes);
        let panel = LatencyPanel::new(
            t,
            (0..NETWORKS)
                .map(|n| {
                    (rng.gen_range(0..100) < 90)
                        .then_some(15.0 + (n % 50) as f64 + phase as f64 * 2.0)
                })
                .collect(),
        );
        let mut h = CampaignHealth::new(t, NETWORKS);
        h.responses = NETWORKS;
        pipe.observe_with_latency(v, Some(panel), h)
            .expect("observe");
    }
    Arc::new(ModeStore::over(Arc::new(Mutex::new(pipe))).expect("store"))
}

/// The seeded query mix.
fn draw(rng: &mut ChaCha8Rng) -> Request {
    let t = rng.gen_range(0..OBSERVATIONS as i64) * DAY + rng.gen_range(0..DAY);
    match rng.gen_range(0..100u32) {
        0..50 => Request::Assign {
            t,
            network: rng.gen_range(0..NETWORKS as u32),
        },
        50..80 => Request::Similarity {
            t,
            u: rng.gen_range(0..OBSERVATIONS as i64) * DAY,
        },
        80..90 => Request::Mode { t },
        90..95 => Request::Transition {
            t,
            u: rng.gen_range(0..OBSERVATIONS as i64) * DAY,
        },
        _ => Request::Latency { t },
    }
}

fn is_error(reply: &Reply) -> bool {
    matches!(reply, Reply::Error { .. } | Reply::Overloaded { .. })
}

/// Closed-loop pipelined throughput over several client threads.
fn throughput_phase(addr: std::net::SocketAddr) -> (f64, u64, u64) {
    let start = Instant::now();
    let handles: Vec<_> = (0..THROUGHPUT_THREADS)
        .map(|tid| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("bench connect");
                let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF + tid as u64);
                let mut answered = 0u64;
                let mut errors = 0u64;
                for _ in 0..THROUGHPUT_BATCHES {
                    for _ in 0..THROUGHPUT_BATCH {
                        client.send(&draw(&mut rng)).expect("send");
                    }
                    client.flush().expect("flush");
                    for _ in 0..THROUGHPUT_BATCH {
                        let reply = client.recv().expect("recv");
                        answered += 1;
                        if is_error(&reply) {
                            errors += 1;
                        }
                    }
                }
                (answered, errors)
            })
        })
        .collect();
    let mut answered = 0u64;
    let mut errors = 0u64;
    for h in handles {
        let (a, e) = h.join().expect("bench thread");
        answered += a;
        errors += e;
    }
    let qps = answered as f64 / start.elapsed().as_secs_f64();
    (qps, answered, errors)
}

/// Open-loop arrival schedule; returns sorted round-trip times.
fn latency_phase(addr: std::net::SocketAddr) -> Vec<Duration> {
    let mut client = Client::connect(addr).expect("bench connect");
    let mut rng = ChaCha8Rng::seed_from_u64(0x0A11);
    let interval = Duration::from_nanos(1_000_000_000 / OPEN_LOOP_QPS);
    let mut rtts = Vec::with_capacity(OPEN_LOOP_QUERIES);
    let epoch = Instant::now();
    for i in 0..OPEN_LOOP_QUERIES {
        // Arrivals are scheduled on the wall clock, not on reply
        // completion: if the server stalls, the backlog drains late and
        // the stall is *visible* in the recorded latencies.
        let due = epoch + interval * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let reply = client.request(&draw(&mut rng)).expect("request");
        assert!(!is_error(&reply), "open-loop query failed: {reply:?}");
        rtts.push(sent.elapsed());
    }
    rtts.sort();
    rtts
}

fn main() {
    println!("building store: {OBSERVATIONS} observations x {NETWORKS} networks, {SITES} sites…");

    // Baseline: no scrape listener, no slow-query tracing. A fresh
    // store per run keeps the cache cold for both, so neither side
    // inherits the other's warm-up.
    let plain_store = build_store();
    let plain = Server::start(
        Arc::clone(&plain_store),
        ServeConfig {
            workers: THROUGHPUT_THREADS,
            max_inflight: 64,
            slow_query: None,
            ..ServeConfig::default()
        },
    )
    .expect("plain server");
    let (qps_plain, answered_plain, errors_plain) = throughput_phase(plain.addr());
    plain.shutdown();
    println!(
        "throughput (plain): {answered_plain} queries -> {qps_plain:.0} qps ({errors_plain} errors)"
    );

    // Observed: scrape endpoint bound, per-kind counters/histograms
    // exporting, slow-query tracing armed at its default threshold.
    let store = build_store();
    let server = Server::start(
        Arc::clone(&store),
        ServeConfig {
            workers: THROUGHPUT_THREADS,
            max_inflight: 64,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .expect("server");
    let addr = server.addr();

    let (qps, answered, errors) = throughput_phase(addr);
    let ratio = qps / qps_plain;
    println!(
        "throughput (metrics on): {answered} queries -> {qps:.0} qps ({errors} errors); ratio {ratio:.3} of plain"
    );
    // The exporters must have been live during the run, not just bound.
    let scrape = fenrir_obs::fetch(server.metrics_addr().expect("metrics addr"), "/metrics")
        .expect("scrape");
    assert!(
        scrape.contains("fenrir_serve_queries_total{kind=\"assign\"}"),
        "scrape missing per-kind counters during the bench"
    );

    let rtts = latency_phase(addr);
    let us = |p| percentile(&rtts, p).as_secs_f64() * 1e6;
    let (p50, p99) = (us(0.50), us(0.99));
    println!(
        "open-loop @ {OPEN_LOOP_QPS} qps: p50 {p50:.1} us, p99 {p99:.1} us over {} queries",
        rtts.len()
    );

    let hits = store.cache.hits();
    let misses = store.cache.misses();
    server.shutdown();

    let throughput = Obj::new()
        .int("threads", THROUGHPUT_THREADS)
        .int("queries", answered)
        .num("qps", qps, 0)
        .int("errors", errors);
    let observability = Obj::new()
        .num("qps_plain", qps_plain, 0)
        .num("qps_metrics", qps, 0)
        .num("ratio", ratio, 3);
    let open_loop = Obj::new()
        .int("target_qps", OPEN_LOOP_QPS)
        .int("queries", rtts.len())
        .num("p50_us", p50, 1)
        .num("p99_us", p99, 1);
    let fields = Obj::new()
        .int("observations", OBSERVATIONS)
        .int("networks", NETWORKS)
        .int("sites", SITES)
        .obj("throughput", throughput)
        .obj("observability", observability)
        .obj("open_loop", open_loop)
        .obj("cache", Obj::new().int("hits", hits).int("misses", misses));
    report::write("serve", fields);

    assert_eq!(errors_plain, 0, "the seeded query mix must never error");
    assert_eq!(errors, 0, "the seeded query mix must never error");
    assert!(
        qps >= QPS_FLOOR,
        "throughput {qps:.0} qps is below the {QPS_FLOOR:.0} qps bar"
    );
    assert!(
        ratio >= OBS_QPS_RATIO_FLOOR,
        "metrics cost too much: {qps:.0} qps is {ratio:.3} of the plain {qps_plain:.0} qps \
         (floor {OBS_QPS_RATIO_FLOOR})"
    );
}
