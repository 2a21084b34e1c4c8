//! End-to-end integration: the full Table 1 pipeline across all crates —
//! simulate an Internet, run a measurement campaign through real packets,
//! clean, compare, cluster, quantify, and validate against ground truth.

use fenrir::core::clean::interpolate_nearest;
use fenrir::core::cluster::{AdaptiveThreshold, Linkage};
use fenrir::core::detect::ChangeDetector;
use fenrir::core::modes::ModeAnalysis;
use fenrir::core::similarity::{SimilarityMatrix, UnknownPolicy};
use fenrir::core::time::Timestamp;
use fenrir::core::transition::TransitionMatrix;
use fenrir::core::weight::Weights;
use fenrir::measure::atlas::AtlasCampaign;
use fenrir::netsim::anycast::AnycastService;
use fenrir::netsim::events::Scenario;
use fenrir::netsim::geo::cities;
use fenrir::netsim::topology::{Tier, TopologyBuilder};

/// One story, asserted at every stage: a three-site anycast service with a
/// maintenance drain in the middle of the observation window.
#[test]
fn pipeline_rediscovers_a_drain() {
    // Collect.
    let topo = TopologyBuilder {
        transit: 3,
        regional: 9,
        stubs: 72,
        blocks_per_stub: 2,
        seed: 0xE2E,
        ..Default::default()
    }
    .build();
    let regionals = topo.tier_members(Tier::Regional);
    let mut service = AnycastService::new("e2e-root");
    service.add_site("LAX", regionals[0], cities::LAX);
    service.add_site("AMS", regionals[1], cities::AMS);
    service.add_site("NRT", regionals[2], cities::NRT);
    let mut scenario = Scenario::new();
    let drain_from = Timestamp::from_days(14);
    let drain_to = Timestamp::from_days(18);
    scenario.drain(0, drain_from.as_secs(), drain_to.as_secs(), "neteng");
    let times: Vec<Timestamp> = (0..30).map(Timestamp::from_days).collect();
    let campaign = AtlasCampaign {
        vantage_points: 90,
        loss_prob: 0.05,
        ..Default::default()
    };
    let mut series = campaign.run(&topo, &service, &scenario, &times).series;
    assert_eq!(series.len(), 30);
    let raw_coverage = series.mean_coverage();
    assert!(raw_coverage < 1.0, "losses leave gaps");

    // Clean.
    let stats = interpolate_nearest(&mut series, 3);
    assert!(stats.filled > 0);
    assert!(series.mean_coverage() > raw_coverage);

    // Compare.
    let w = Weights::uniform(series.networks());
    let sim = SimilarityMatrix::compute_parallel(&series, &w, UnknownPolicy::KnownOnly, 4)
        .expect("similarity");
    // Days on the same side of the drain are near-identical; across is not.
    assert!(sim.get(0, 5) > 0.98);
    assert!(sim.get(20, 25) > 0.98);
    assert!(sim.get(5, 15) < sim.get(0, 5));

    // Cluster: the drain days form their own mode, and the pre-drain mode
    // recurs after the drain.
    let modes = ModeAnalysis::discover(&sim, &times, Linkage::Single, AdaptiveThreshold::default())
        .expect("modes");
    assert_eq!(
        modes.len(),
        2,
        "baseline mode + drain mode: {}",
        modes.summary()
    );
    let baseline = &modes.modes[0];
    assert!(baseline.recurs(), "baseline mode returns after the drain");
    let drain_mode = &modes.modes[1];
    assert_eq!(drain_mode.intervals.len(), 1);
    let iv = drain_mode.intervals[0];
    assert_eq!(times[iv.start], drain_from);
    assert_eq!(times[iv.end], Timestamp::from_days(17));

    // Quantify: the transition matrix at the drain boundary localises the
    // movement out of LAX.
    let i = 14;
    let t = TransitionMatrix::compute(series.get(i - 1), series.get(i), series.sites().len())
        .expect("transition");
    assert!(t.churn() > 0.0);
    let flows = t.top_flows(series.sites(), 5);
    assert!(
        flows
            .iter()
            .all(|f| f.from == "LAX" || f.to == "LAX" || f.weight <= 2.0),
        "dominant flows leave LAX: {flows:?}"
    );

    // Detect: exactly two change events (drain start, drain end).
    let detector = ChangeDetector {
        policy: UnknownPolicy::KnownOnly,
        ..Default::default()
    };
    let events = detector.detect(&series, &w);
    assert_eq!(events.len(), 2, "onset + recovery: {events:?}");
    assert_eq!(events[0].time, drain_from);
    assert_eq!(events[1].time, drain_to);
}

/// The same pipeline through the dataset layer: serialize the collected
/// series to both formats and analyse the round-tripped copy.
#[test]
fn pipeline_survives_serialization() {
    let topo = TopologyBuilder {
        transit: 3,
        regional: 6,
        stubs: 30,
        blocks_per_stub: 1,
        seed: 0x5E1A,
        ..Default::default()
    }
    .build();
    let regionals = topo.tier_members(Tier::Regional);
    let mut service = AnycastService::new("ser-root");
    service.add_site("LAX", regionals[0], cities::LAX);
    service.add_site("AMS", regionals[1], cities::AMS);
    let times: Vec<Timestamp> = (0..8).map(Timestamp::from_days).collect();
    let campaign = AtlasCampaign {
        vantage_points: 40,
        loss_prob: 0.1,
        ..Default::default()
    };
    let run = campaign.run(&topo, &service, &Scenario::new(), &times);
    let labels: Vec<String> = (0..run.series.networks())
        .map(|i| format!("vp{i}"))
        .collect();

    let jsonl = fenrir::data::io::to_jsonl(&run.series, &labels).expect("jsonl");
    let (back, back_labels) = fenrir::data::io::from_jsonl(&jsonl).expect("parse");
    assert_eq!(back_labels, labels);

    let w = Weights::uniform(run.series.networks());
    let sim_orig =
        SimilarityMatrix::compute(&run.series, &w, UnknownPolicy::Pessimistic).expect("ok");
    let sim_back = SimilarityMatrix::compute(&back, &w, UnknownPolicy::Pessimistic).expect("ok");
    assert_eq!(
        sim_orig.raw(),
        sim_back.raw(),
        "analysis identical after round trip"
    );
}
