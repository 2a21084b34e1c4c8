//! Determinism regression: every campaign, run twice with the same seed
//! and the same fault plan, must produce identical series *and* identical
//! health records — fault injection must never introduce hidden
//! nondeterminism (wall clocks, hash-map iteration order, ...).
//!
//! Two runs of one build agree even when a codec change shifts which
//! probes a corruption draw breaks, so each wire campaign's faulted
//! result is also pinned to a digest: any moved byte on the wire, or any
//! moved draw from the campaign or fault streams, changes it.

use fenrir::core::health::CampaignHealth;
use fenrir::core::series::VectorSeries;
use fenrir::core::time::Timestamp;
use fenrir::measure::atlas::AtlasCampaign;
use fenrir::measure::ednscs::{EdnsCsCampaign, FrontendPolicy};
use fenrir::measure::fault::{
    BurstyLoss, ClockSkew, FaultPlan, ResponseTiming, VpChurn, WireCorruption,
};
use fenrir::measure::latency::LatencyProber;
use fenrir::measure::runner::RunnerConfig;
use fenrir::measure::traceroute::TracerouteCampaign;
use fenrir::measure::verfploeter::Verfploeter;
use fenrir::netsim::anycast::AnycastService;
use fenrir::netsim::events::Scenario;
use fenrir::netsim::geo::cities;
use fenrir::netsim::prefix::BlockId;
use fenrir::netsim::topology::{Tier, Topology, TopologyBuilder};

fn setup() -> (Topology, AnycastService) {
    let topo = TopologyBuilder {
        transit: 3,
        regional: 6,
        stubs: 30,
        blocks_per_stub: 2,
        seed: 0xDE7,
        ..Default::default()
    }
    .build();
    let regionals = topo.tier_members(Tier::Regional);
    let mut svc = AnycastService::new("det-root");
    svc.add_site("LAX", regionals[0], cities::LAX);
    svc.add_site("AMS", regionals[1], cities::AMS);
    (topo, svc)
}

fn days(n: i64) -> Vec<Timestamp> {
    (0..n).map(Timestamp::from_days).collect()
}

/// A plan exercising every fault dimension at once.
fn full_plan() -> FaultPlan {
    FaultPlan::new(0xF0117)
        .with_bursty_loss(BurstyLoss {
            p_enter_bad: 0.1,
            p_exit_bad: 0.3,
            loss_good: 0.1,
            loss_bad: 0.9,
        })
        .with_vp_churn(VpChurn {
            churn_frac: 0.25,
            min_window: 1,
            max_window: 3,
        })
        .with_blackout(3, 4)
        .with_response_timing(ResponseTiming {
            dup_prob: 0.1,
            delay_prob: 0.15,
        })
        .with_clock_skew(ClockSkew {
            max_skew_secs: 3_600,
        })
        .with_wire_corruption(WireCorruption {
            corrupt_prob: 0.05,
            max_bit_flips: 3,
            truncate_prob: 0.25,
        })
}

/// FNV-1a over every series code and the `Debug` text of every health
/// record.
fn digest<'a>(
    series: impl IntoIterator<Item = &'a VectorSeries>,
    health: &[CampaignHealth],
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for s in series {
        for v in s.vectors() {
            for code in v.codes() {
                eat(&code.to_le_bytes());
            }
        }
    }
    for record in health {
        eat(format!("{record:?}").as_bytes());
    }
    h
}

/// Checks a faulted run against its pinned digest, and that the plan's
/// corruption reached the decoders at all.
fn assert_pinned(got: u64, health: &[CampaignHealth], expected: u64) {
    let failures: usize = health.iter().map(|h| h.decode_failures).sum();
    assert!(failures > 0, "no corrupted packet reached a decoder");
    assert_eq!(got, expected, "digest {got:#018x}, pinned {expected:#018x}");
}

fn cfg() -> RunnerConfig {
    RunnerConfig {
        max_retries: 2,
        probe_budget: Some(500),
        quarantine_after: Some(3),
        ..Default::default()
    }
}

#[test]
fn verfploeter_is_deterministic_under_faults() {
    let (topo, svc) = setup();
    let vp = Verfploeter {
        mean_response_rate: 0.8,
        seed: 11,
    };
    let plan = full_plan();
    let run = || {
        vp.run_with(&topo, &svc, &Scenario::new(), &days(8), &cfg(), Some(&plan))
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.series.vectors(), b.series.vectors());
    assert_eq!(a.health, b.health);
    assert_eq!(a.health.len(), 8);
    assert_pinned(
        digest([&a.series], &a.health),
        &a.health,
        0xd497_8efc_f361_a5dd,
    );
}

#[test]
fn atlas_is_deterministic_under_faults() {
    let (topo, svc) = setup();
    let c = AtlasCampaign {
        vantage_points: 40,
        ..Default::default()
    };
    let plan = full_plan();
    let run = || {
        c.run_with(&topo, &svc, &Scenario::new(), &days(8), &cfg(), Some(&plan))
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.series.vectors(), b.series.vectors());
    assert_eq!(a.health, b.health);
    assert_pinned(
        digest([&a.series], &a.health),
        &a.health,
        0x17f1_aa4b_4779_4061,
    );
}

#[test]
fn traceroute_is_deterministic_under_faults() {
    let (topo, _svc) = setup();
    let stubs = topo.tier_members(Tier::Stub);
    let c = TracerouteCampaign {
        source: stubs[0],
        ..Default::default()
    };
    let plan = full_plan();
    let run = || {
        c.run_with(&topo, &Scenario::new(), &days(8), &cfg(), Some(&plan))
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.hop_series.len(), b.hop_series.len());
    for (sa, sb) in a.hop_series.iter().zip(&b.hop_series) {
        assert_eq!(sa.vectors(), sb.vectors());
    }
    assert_eq!(a.health, b.health);
    assert_pinned(
        digest(&a.hop_series, &a.health),
        &a.health,
        0x6f8c_ace3_98c4_5923,
    );
}

#[test]
fn ednscs_is_deterministic_under_faults() {
    let (topo, svc) = setup();
    let c = EdnsCsCampaign {
        hostname: "www.example.org".into(),
        policy: FrontendPolicy::Geo {
            sticky_return_frac: 0.3,
        },
        loss_prob: 0.02,
        seed: 13,
    };
    let plan = full_plan();
    let run = || {
        c.run_with(&topo, &svc, &Scenario::new(), &days(8), &cfg(), Some(&plan))
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.series.vectors(), b.series.vectors());
    assert_eq!(a.health, b.health);
    assert_pinned(
        digest([&a.series], &a.health),
        &a.health,
        0x9f0a_e633_24d4_a3f2,
    );
}

#[test]
fn latency_is_deterministic_under_faults() {
    let (topo, svc) = setup();
    let blocks: Vec<BlockId> = topo.all_blocks().iter().map(|&(b, _)| b).collect();
    let p = LatencyProber::default();
    let plan = full_plan();
    let run = || {
        p.probe_with(
            &topo,
            &svc,
            &Scenario::new(),
            &blocks,
            &days(8),
            &cfg(),
            Some(&plan),
        )
        .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.panels, b.panels);
    assert_eq!(a.health, b.health);
}

#[test]
fn skewed_timestamps_stay_strictly_increasing_everywhere() {
    // Three days of skew on a one-day cadence forces reordering; the
    // renormalised output must still satisfy the series invariant and the
    // health records must follow their observations.
    let (topo, svc) = setup();
    let vp = Verfploeter {
        mean_response_rate: 0.9,
        seed: 21,
    };
    let plan = FaultPlan::new(5).with_clock_skew(ClockSkew {
        max_skew_secs: 3 * 86_400,
    });
    let r = vp
        .run_with(
            &topo,
            &svc,
            &Scenario::new(),
            &days(10),
            &RunnerConfig::default(),
            Some(&plan),
        )
        .unwrap();
    for i in 1..r.series.len() {
        assert!(r.series.get(i).time() > r.series.get(i - 1).time());
    }
    for (v, h) in r.series.vectors().iter().zip(&r.health) {
        assert_eq!(v.time(), h.time);
    }
}
