//! High-availability serving bench: hedged vs unhedged tail latency
//! under injected stalls.
//!
//! Two replicas serve the same journal, each behind a chaos proxy that
//! stalls 5% of reply chunks for ~100 ms (seed-fixed, so fault
//! placement is identical across runs and across the two phases). The
//! same seeded query sequence is then driven twice through the
//! resilient client:
//!
//! 1. **unhedged** — the client waits out every stall (its read
//!    timeout exceeds the stall), so stalled replies land in the tail;
//! 2. **hedged** — after 10 ms without an answer the client fires the
//!    query at the other replica and takes the first valid frame.
//!
//! The acceptance bar is the whole point of hedging: the hedged p99
//! must beat the unhedged p99. Emits `BENCH_serve_ha.json` at the
//! workspace root.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use fenrir_bench::report::{self, percentile, Obj};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_netsim::rng::ChaCha8Rng;
use fenrir_serve::breaker::BreakerConfig;
use fenrir_serve::protocol::Request;
use fenrir_serve::{
    ChaosPlan, FaultyListener, ReplicaSet, ResilientClient, ResilientConfig, ServeConfig,
};

const NETWORKS: usize = 128;
const SITES: usize = 4;
const OBSERVATIONS: usize = 32;
const DAY: i64 = 86_400;

const QUERIES: usize = 400;
const STALL_PROB: f64 = 0.05;
const STALL_MS: u64 = 100;
const HEDGE_AFTER_MS: u64 = 10;
const CHAOS_SEED: u64 = 0x0005_EED0;

fn write_journal(path: &Path) {
    let sites = SiteTable::from_names((0..SITES).map(|s| format!("S{s:02}")));
    let mut pipe = RecoverablePipeline::open(path, sites, NETWORKS, PipelineConfig::new(NETWORKS))
        .expect("pipeline");
    let mut rng = ChaCha8Rng::seed_from_u64(0xF3_4411);
    for day in 0..OBSERVATIONS {
        let t = Timestamp::from_secs(day as i64 * DAY);
        let phase = day % 4;
        let codes = (0..NETWORKS)
            .map(|n| {
                if rng.gen_range(0..100) < 3 {
                    u16::MAX
                } else {
                    ((n + phase) % SITES) as u16
                }
            })
            .collect();
        let v = RoutingVector::from_codes(t, codes);
        let mut h = CampaignHealth::new(t, NETWORKS);
        h.responses = NETWORKS;
        pipe.observe(v, h).expect("observe");
    }
}

/// The seeded query mix (cheap kinds only: this bench measures wire
/// tail latency, not compute).
fn draw(rng: &mut ChaCha8Rng) -> Request {
    let t = rng.gen_range(0..OBSERVATIONS as i64) * DAY + rng.gen_range(0..DAY);
    match rng.gen_range(0..100u32) {
        0..60 => Request::Assign {
            t,
            network: rng.gen_range(0..NETWORKS as u32),
        },
        60..90 => Request::Similarity {
            t,
            u: rng.gen_range(0..OBSERVATIONS as i64) * DAY,
        },
        _ => Request::Mode { t },
    }
}

/// Fresh stall-injecting proxies in front of both replicas. Rebuilt per
/// phase so accept ordinals — and therefore fault placement — are
/// identical for the hedged and unhedged runs.
fn start_proxies(upstreams: &[SocketAddr]) -> Vec<FaultyListener> {
    upstreams
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let plan = ChaosPlan::new(CHAOS_SEED.wrapping_add(i as u64))
                .stall(STALL_PROB, Duration::from_millis(STALL_MS));
            FaultyListener::start(addr, plan).expect("chaos proxy")
        })
        .collect()
}

fn client_config(hedge: bool) -> ResilientConfig {
    ResilientConfig {
        connect_timeout: Duration::from_millis(500),
        // Longer than the stall: an unhedged client *waits out* every
        // stall rather than erroring, so stalls show up as latency.
        read_timeout: Duration::from_secs(2),
        max_attempts: 4,
        deadline: Duration::from_secs(10),
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
        seed: 42,
        hedge_after: hedge.then(|| Duration::from_millis(HEDGE_AFTER_MS)),
        breaker: BreakerConfig::default(),
    }
}

/// Run the seeded query sequence; returns sorted round-trip times plus
/// (hedges fired, hedge wins).
fn run_phase(addrs: &[SocketAddr], hedge: bool) -> (Vec<Duration>, u64, u64) {
    let client = ResilientClient::new(addrs, client_config(hedge)).expect("client");
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1A1);
    let mut rtts = Vec::with_capacity(QUERIES);
    for _ in 0..QUERIES {
        let req = draw(&mut rng);
        let sent = Instant::now();
        client.request(&req).expect("query under stalls");
        rtts.push(sent.elapsed());
    }
    rtts.sort();
    let hedges = client
        .stats()
        .hedges
        .load(std::sync::atomic::Ordering::Relaxed);
    let wins = client
        .stats()
        .hedge_wins
        .load(std::sync::atomic::Ordering::Relaxed);
    (rtts, hedges, wins)
}

fn main() {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "fenrir-bench-serve-ha-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    println!("building journal: {OBSERVATIONS} observations x {NETWORKS} networks…");
    write_journal(&path);

    let set = ReplicaSet::start(&path, 2, ServeConfig::default()).expect("replica set");
    println!(
        "2 replicas up; injecting {STALL_MS} ms stalls on {:.0}% of reply chunks (seed {CHAOS_SEED:#x})",
        STALL_PROB * 100.0
    );

    let proxies = start_proxies(&set.addrs());
    let addrs: Vec<_> = proxies.iter().map(|p| p.addr()).collect();
    let (unhedged, _, _) = run_phase(&addrs, false);
    for p in proxies {
        p.shutdown();
    }

    let proxies = start_proxies(&set.addrs());
    let addrs: Vec<_> = proxies.iter().map(|p| p.addr()).collect();
    let (hedged, hedges, wins) = run_phase(&addrs, true);
    for p in proxies {
        p.shutdown();
    }

    let u50 = percentile(&unhedged, 0.50);
    let u99 = percentile(&unhedged, 0.99);
    let h50 = percentile(&hedged, 0.50);
    let h99 = percentile(&hedged, 0.99);
    println!(
        "unhedged: p50 {:.2} ms, p99 {:.2} ms over {QUERIES} queries",
        u50.as_secs_f64() * 1e3,
        u99.as_secs_f64() * 1e3
    );
    println!(
        "hedged ({HEDGE_AFTER_MS} ms trigger): p50 {:.2} ms, p99 {:.2} ms; {hedges} hedges fired, {wins} won",
        h50.as_secs_f64() * 1e3,
        h99.as_secs_f64() * 1e3
    );

    set.shutdown();
    let _ = std::fs::remove_file(&path);

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let tail = |p50, p99| {
        Obj::new()
            .num("p50_us", us(p50), 1)
            .num("p99_us", us(p99), 1)
    };
    let stall = Obj::new()
        .num("prob", STALL_PROB, 2)
        .int("ms", STALL_MS)
        .int("seed", CHAOS_SEED);
    let fields = Obj::new()
        .int("replicas", 2)
        .int("queries", QUERIES)
        .obj("stall", stall)
        .int("hedge_after_ms", HEDGE_AFTER_MS)
        .obj("unhedged", tail(u50, u99))
        .obj(
            "hedged",
            tail(h50, h99).int("hedges", hedges).int("hedge_wins", wins),
        );
    report::write("serve_ha", fields);

    // The stalls must actually have landed in the unhedged tail…
    assert!(
        u99 >= Duration::from_millis(STALL_MS / 2),
        "unhedged p99 {u99:?} does not reflect the injected {STALL_MS} ms stalls"
    );
    // …and hedging must have cut that tail.
    assert!(
        h99 < u99,
        "hedged p99 {h99:?} failed to beat unhedged p99 {u99:?}"
    );
    assert!(hedges > 0, "the hedge trigger never fired");
}
