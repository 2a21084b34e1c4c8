//! # fenrir
//!
//! Facade crate for the Fenrir reproduction: re-exports the component
//! crates and hosts the runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`).
//!
//! * [`core`] (`fenrir-core`) — the paper's contribution: routing vectors,
//!   Gower similarity, HAC mode discovery, transition matrices, change
//!   detection, heatmaps, latency summaries.
//! * [`wire`] (`fenrir-wire`) — DNS (EDNS Client-Subnet, CHAOS), ICMPv4,
//!   IPv4 and UDP wire formats.
//! * [`netsim`] (`fenrir-netsim`) — AS topology + Gao–Rexford BGP policy
//!   routing substrate.
//! * [`measure`] (`fenrir-measure`) — Verfploeter, Atlas-style,
//!   traceroute, EDNS-CS, and latency measurement simulators.
//! * [`data`] (`fenrir-data`) — dataset IO and the paper's case-study
//!   scenario builders.
//! * [`serve`] (`fenrir-serve`) — sharded, cache-aware TCP query server
//!   over a pipeline journal (catchments, modes, similarity, latency).
//! * [`stream`] (`fenrir-stream`) — streaming ingest, live mode
//!   discovery, push subscriptions, and fenced leader failover.
//! * [`obs`] (`fenrir-obs`) — lock-cheap metrics core (counters, gauges,
//!   fixed-bucket histograms), Prometheus-style exposition, scrape
//!   endpoint, slow-query trace ring.
//!
//! Start with `examples/quickstart.rs`, which walks the whole Table 1
//! pipeline on a small anycast deployment.

pub use fenrir_core as core;
pub use fenrir_data as data;
pub use fenrir_measure as measure;
pub use fenrir_netsim as netsim;
pub use fenrir_obs as obs;
pub use fenrir_serve as serve;
pub use fenrir_stream as stream;
pub use fenrir_wire as wire;
