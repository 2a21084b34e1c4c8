//! Observability & control-plane quickstart: start a 3-replica set
//! with metrics and an admin token, run some queries, scrape one
//! replica's `/metrics` endpoint over plain HTTP, then drain a replica
//! and watch the fleet's health change — everything asserted from the
//! outside, the way a fleet controller would see it.
//!
//! ```text
//! cargo run --release --example obs_quickstart
//! ```

use std::time::Duration;

use fenrir_core::health::CampaignHealth;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_data::scenarios::{broot, Scale};
use fenrir_obs::fetch;
use fenrir_serve::protocol::{Reply, Request};
use fenrir_serve::{AdminCmd, Client, ReplicaSet, ServeConfig};

const TOKEN: &str = "quickstart-token";

fn main() {
    eprintln!("building and journaling the B-Root scenario…");
    let study = broot(Scale::Test);
    let series = &study.result.series;
    let path = std::env::temp_dir().join(format!("fenrir-obs-qs-{}.fnrj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = PipelineConfig::new(series.networks());
    let mut pipe = RecoverablePipeline::open(&path, series.sites().clone(), series.networks(), cfg)
        .expect("journal open");
    for (i, v) in series.vectors().iter().enumerate() {
        let health = study
            .result
            .health
            .get(i)
            .cloned()
            .unwrap_or_else(|| CampaignHealth::new(v.time(), v.len()));
        pipe.observe_with_latency(v.clone(), None, health)
            .expect("journal observe");
    }

    // Three replicas, each with its own ephemeral metrics endpoint and
    // a shared admin token.
    let set = ReplicaSet::start(
        &path,
        3,
        ServeConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            admin_token: Some(TOKEN.into()),
            ..ServeConfig::default()
        },
    )
    .expect("replica set start");
    println!("3 replicas up:");
    for (i, addr) in set.addrs().iter().enumerate() {
        println!(
            "  replica {i}: queries {addr}, metrics http://{}/metrics",
            set.metrics_addr(i).expect("metrics addr")
        );
    }

    // Some traffic so the counters have something to say.
    let t = series.get(series.len() / 2).time().as_secs();
    for addr in set.addrs() {
        let mut client = Client::connect(addr).expect("connect");
        for _ in 0..10 {
            client
                .request(&Request::Mode { t })
                .expect("mode query answered");
        }
    }

    // Scrape replica 0 the HTTP way — the full exposition text, the
    // way a Prometheus-style collector would see it. (CI greps this
    // output for the complete metric inventory.)
    let scrape = fetch(set.metrics_addr(0).unwrap(), "/metrics").expect("scrape");
    println!("\nreplica 0 scrape ({} lines):", scrape.lines().count());
    for line in scrape.lines() {
        println!("  {line}");
    }

    // The same text is available over the query socket as a frame.
    let mut client = Client::connect(set.addrs()[1]).expect("connect");
    let text = client.metrics_text().expect("metrics frame");
    assert!(text.contains("fenrir_serve_queries_total"));
    println!(
        "\nreplica 1 Metrics frame carries {} bytes of exposition text",
        text.len()
    );

    // Drain replica 2 and watch its health flip, then bring it back.
    match set.drain(2).expect("drain") {
        Reply::Admin { info } => println!("\ndrain replica 2: {info}"),
        other => panic!("drain refused: {other:?}"),
    }
    let mut c2 = Client::connect(set.addrs()[2]).expect("connect");
    match c2.request(&Request::Health).expect("health") {
        Reply::Health(h) => {
            assert!(h.draining, "drained replica must advertise it");
            println!("replica 2 health: draining={}", h.draining);
        }
        other => panic!("expected health, got {other:?}"),
    }
    match c2.request(&Request::Mode { t }).expect("query under drain") {
        Reply::Overloaded { retry_after_ms, .. } => {
            println!("replica 2 sheds queries while drained (retry after {retry_after_ms} ms)")
        }
        other => panic!("a drained replica must shed, got {other:?}"),
    }
    // A wrong token is refused without side effects.
    match c2.admin("wrong-token", AdminCmd::Undrain).expect("reply") {
        Reply::Error { code, .. } => println!("wrong token refused (code {code})"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    set.undrain(2).expect("undrain");
    let mut c2 = Client::connect(set.addrs()[2]).expect("connect");
    match c2
        .request(&Request::Mode { t })
        .expect("query after undrain")
    {
        Reply::Mode { mode, .. } => println!("replica 2 serving again (mode #{mode})"),
        other => panic!("expected a mode reply, got {other:?}"),
    }

    // Deliberate failover: drain-and-stop empties inflight before the
    // process exits; the survivors keep answering.
    let mut set = set;
    set.drain_and_stop(2, Duration::from_secs(5))
        .expect("drain and stop");
    println!("replica 2 drained to zero inflight and stopped; 2 survivors:");
    for i in 0..2 {
        let mut client = Client::connect(set.addrs()[i]).expect("connect");
        match client.request(&Request::Mode { t }).expect("query") {
            Reply::Mode { mode, .. } => println!("  replica {i} still answers (mode #{mode})"),
            other => panic!("expected a mode reply, got {other:?}"),
        }
    }

    set.shutdown();
    let _ = std::fs::remove_file(&path);
    println!("\ndone.");
}
