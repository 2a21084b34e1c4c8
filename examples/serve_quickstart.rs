//! Serve the B-Root case study over TCP: build the scenario, journal it
//! with latency panels, start `fenrir-serve` on an ephemeral port, and
//! ask one of every query kind through the bundled client.
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use std::sync::Arc;

use fenrir_core::health::CampaignHealth;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_data::scenarios::{broot, Scale};
use fenrir_serve::protocol::{Reply, Request};
use fenrir_serve::{Client, ModeStore, ServeConfig, Server};

fn main() {
    let scale = if std::env::args().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Test
    };
    eprintln!("building the B-Root scenario ({scale:?} scale)…");
    let study = broot(scale);
    let series = &study.result.series;
    println!(
        "B-Root/Verfploeter: {} observations of {} /24 blocks, {} sites",
        series.len(),
        series.networks(),
        series.sites().len()
    );

    // Journal the sweep, attaching the Figure-4 latency panels to the
    // observations they cover.
    let path = std::env::temp_dir().join(format!("fenrir-serve-qs-{}.fnrj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    eprintln!("journaling to {}…", path.display());
    let panels = study.latency_panels();
    let mut by_time = std::collections::HashMap::new();
    for p in panels {
        by_time.insert(p.time(), p);
    }
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
        let panel = by_time.remove(&v.time());
        pipe.observe_with_latency(v.clone(), panel, health)
            .expect("journal observe");
    }

    // Serve it.
    let store = Arc::new(ModeStore::open(&path).expect("store open"));
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).expect("server start");
    println!("fenrir-serve listening on {}", server.addr());

    let mut client = Client::connect(server.addr()).expect("client connect");
    let t_mid = series.get(series.len() / 2).time().as_secs();
    let t_late = series.get(series.len() - 1).time().as_secs();
    // A time with a latency panel, if the window produced any.
    let t_lat = store
        .snapshot(0)
        .panels
        .iter()
        .zip(series.vectors())
        .rev()
        .find_map(|(p, v)| p.as_ref().map(|_| v.time().as_secs()))
        .unwrap_or(t_mid);

    println!("\none of each query kind:");
    for req in [
        Request::Assign {
            t: t_mid,
            network: 0,
        },
        Request::Similarity {
            t: t_mid,
            u: t_late,
        },
        Request::Mode { t: t_mid },
        Request::Transition {
            t: t_mid,
            u: t_late,
        },
        Request::Latency { t: t_lat },
        Request::Health,
        Request::Stats,
    ] {
        let reply = client.request(&req).expect("request");
        match reply {
            Reply::Assign { time, label, .. } => {
                println!("  assign    block 0 at t={time} → {label}")
            }
            Reply::Similarity { t, u, phi } => {
                println!("  similarity Φ({t}, {u}) = {phi:.4}")
            }
            Reply::Mode {
                mode,
                recurs,
                members,
                ..
            } => println!(
                "  mode      #{mode} ({members} observations{})",
                if recurs { ", recurring" } else { "" }
            ),
            Reply::Transition { cells, .. } => {
                let moved: f64 = cells.iter().sum::<f64>();
                println!(
                    "  transition matrix mass {moved:.3} over {} cells",
                    cells.len()
                )
            }
            Reply::Latency {
                overall_mean_ms,
                per_site,
                ..
            } => println!(
                "  latency   overall mean {} over {} catchments",
                overall_mean_ms
                    .map(|m| format!("{m:.1} ms"))
                    .unwrap_or_else(|| "n/a".into()),
                per_site.len()
            ),
            Reply::Health(h) => println!(
                "  health    epoch {} / {} observations / {} modes @ threshold {:.2}",
                h.epoch, h.observations, h.modes, h.threshold
            ),
            Reply::Stats(s) => println!(
                "  stats     {} queries, {} cache hits, {} misses",
                s.queries, s.cache_hits, s.cache_misses
            ),
            other => println!("  unexpected reply: {other:?}"),
        }
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path);
    println!("\nserver drained and stopped.");
}
