//! The multi-homed-enterprise case study of Figure 2 (and the Sankey
//! Figures 7–8): eight months of daily traceroutes out of a USC-like
//! campus network, with one large reconfiguration on 2025-01-16 that swaps
//! the dominant upstream several hops out.

use super::{cadence, Scale};
use fenrir_core::time::Timestamp;
use fenrir_measure::traceroute::{TracerouteCampaign, TracerouteResult};
use fenrir_netsim::events::{EventKind, Party, Scenario, ScenarioEvent};
use fenrir_netsim::topology::{AsId, Relationship, Tier, Topology};

/// Everything the Figure 2 / 7 / 8 experiments need.
#[derive(Debug, Clone)]
pub struct UscStudy {
    /// The simulated Internet.
    pub topo: Topology,
    /// The enterprise AS probing outward.
    pub source: AsId,
    /// Its two upstream providers `(old primary, new primary)`.
    pub providers: (AsId, AsId),
    /// The event script (the 2025-01-16 reconfiguration).
    pub scenario: Scenario,
    /// Observation instants (daily).
    pub times: Vec<Timestamp>,
    /// Per-hop traceroute series (gap-filled).
    pub result: TracerouteResult,
    /// When the reconfiguration happened.
    pub change_at: Timestamp,
}

/// Fraction of destination ASes whose hop-3 entity (from `source`) changes
/// when `source` pins its routing to `via`.
fn hop3_shift(topo: &Topology, source: AsId, via: AsId) -> f64 {
    use fenrir_netsim::routing::{RouteTable, RoutingConfig};
    let mut pinned = RoutingConfig::default();
    pinned.prefer(source, via);
    let quiet = RoutingConfig::default();
    let dests: Vec<AsId> = topo
        .all_blocks()
        .iter()
        .map(|&(_, a)| a)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    if dests.is_empty() {
        return 0.0;
    }
    let hop3 = |cfg: &RoutingConfig, d: AsId| {
        RouteTable::compute(topo, &[(d, 0)], cfg)
            .full_path(source)
            .and_then(|p| p.get(3).copied())
    };
    let moved = dests
        .iter()
        .filter(|&&d| hop3(&quiet, d) != hop3(&pinned, d))
        .count();
    moved as f64 / dests.len() as f64
}

/// Choose the enterprise stub: the multihomed stub with the largest hop-3
/// shift under a provider pin (requiring at least 20%).
fn pick_enterprise(topo: &Topology) -> Option<(AsId, (AsId, AsId))> {
    let mut best: Option<(f64, AsId, (AsId, AsId))> = None;
    for s in topo.tier_members(Tier::Stub).into_iter().take(12) {
        let provs: Vec<AsId> = topo
            .neighbors(s)
            .iter()
            .filter(|&&(_, rel)| rel == Relationship::Provider)
            .map(|&(n, _)| n)
            .collect();
        if provs.len() < 2 {
            continue;
        }
        let shift = hop3_shift(topo, s, provs[1]);
        if best.as_ref().is_none_or(|&(b, _, _)| shift > b) {
            best = Some((shift, s, (provs[0], provs[1])));
        }
    }
    best.filter(|&(shift, _, _)| shift >= 0.2)
        .map(|(_, s, p)| (s, p))
}

/// Build and run the enterprise scenario.
///
/// The source is the first multihomed stub of the generated topology; on
/// 2025-01-16 the campus operators re-prefer their secondary provider
/// (modelled as an operator-party preference pin), which re-routes most of
/// the routing cone at hops 1–4, as the paper's Figure 2 and the appendix
/// Sankeys show.
pub fn usc(scale: Scale) -> UscStudy {
    let topo = scale.topology(0x05C).build();
    // Pick the enterprise: a multihomed stub whose provider swap changes
    // the hop-3 entity for a large share of destinations (the paper's USC
    // reconfiguration moved ~80% at hop 3). Verified by simulating the pin
    // on and off at one instant.
    let (source, providers) = pick_enterprise(&topo).expect("a steerable multihomed stub exists");

    let change_at = Timestamp::from_ymd(2025, 1, 16);
    let mut scenario = Scenario::new();
    scenario.push(ScenarioEvent {
        start: change_at.as_secs(),
        end: None,
        kind: EventKind::Prefer {
            who: source,
            via: providers.1,
        },
        party: Party::Operator,
        operator: "usc-neteng".to_owned(),
    });

    let times = cadence(
        scale,
        Timestamp::from_ymd(2024, 8, 1),
        Timestamp::from_ymd(2025, 4, 1),
        86_400,
    );
    let campaign = TracerouteCampaign {
        source,
        max_hops: match scale {
            Scale::Test => 6,
            Scale::Paper => 10,
        },
        hop_loss_prob: 0.01,
        filtered_frac: 0.05,
        seed: 0x05CAA,
    };
    let mut result = campaign.run(&topo, &scenario, &times);
    // The paper's nearest-viable-hop gap fill.
    result.fill_gaps(3);
    UscStudy {
        topo,
        source,
        providers,
        scenario,
        times,
        result,
        change_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenrir_core::cluster::{AdaptiveThreshold, Linkage};
    use fenrir_core::modes::ModeAnalysis;
    use fenrir_core::similarity::{phi, SimilarityMatrix, UnknownPolicy};
    use fenrir_core::vector::Catchment;
    use fenrir_core::weight::Weights;

    fn count_via(v: &fenrir_core::vector::RoutingVector, asid: AsId) -> usize {
        (0..v.len())
            .filter(|&n| v.get(n) == Catchment::Site(fenrir_core::ids::SiteId(asid.0 as u16)))
            .count()
    }

    #[test]
    fn reconfiguration_swaps_hop1_shares() {
        let s = usc(Scale::Test);
        let hop1 = s.result.hop(1);
        let before_idx = s.times.iter().position(|&t| t >= s.change_at).unwrap() - 1;
        let after_idx = before_idx + 2;
        let before = hop1.get(before_idx);
        let after = hop1.get(after_idx);
        let (old_p, new_p) = s.providers;
        assert!(
            count_via(after, new_p) > count_via(before, new_p),
            "new provider gains at hop 1"
        );
        assert!(
            count_via(after, old_p) < count_via(before, old_p),
            "old provider loses at hop 1"
        );
    }

    #[test]
    fn change_is_visible_in_phi_at_hop3() {
        let s = usc(Scale::Test);
        let hop3 = s.result.hop(3);
        let w = Weights::uniform(hop3.networks());
        let change_idx = s.times.iter().position(|&t| t >= s.change_at).unwrap();
        // Φ across the change must be clearly lower than Φ within the
        // stable periods on each side.
        let within_before = phi(
            hop3.get(1),
            hop3.get(change_idx - 1),
            &w,
            UnknownPolicy::KnownOnly,
        );
        let across = phi(
            hop3.get(change_idx - 1),
            hop3.get(change_idx + 1),
            &w,
            UnknownPolicy::KnownOnly,
        );
        assert!(
            across < within_before - 0.1,
            "across-change Φ {across:.3} vs stable Φ {within_before:.3}"
        );
    }

    /// Fig. 2 through the chain `repro --exp fig2` runs: hop-3 Φ under the
    /// known-only policy, then average-linkage modes at the paper's
    /// adaptive threshold. The figures are the ones EXPERIMENTS.md reports.
    #[test]
    fn fig2_finds_two_modes_split_on_2025_01_16() {
        let s = usc(Scale::Test);
        let hop3 = s.result.hop(3);
        let w = Weights::uniform(hop3.networks());
        let sim = SimilarityMatrix::compute(hop3, &w, UnknownPolicy::KnownOnly).unwrap();
        let modes = ModeAnalysis::discover(
            &sim,
            &s.times,
            Linkage::Average,
            AdaptiveThreshold::default(),
        )
        .unwrap();
        let sizes: Vec<usize> = modes.modes.iter().map(|m| m.len()).collect();
        assert_eq!(sizes, [21, 10]);
        assert!(modes.modes.iter().all(|m| !m.recurs()));
        let opens = s.times[modes.modes[1].members[0]];
        assert_eq!(opens, Timestamp::from_ymd(2025, 1, 16));
        let (lo, hi) = modes.inter_phi(&sim, 0, 1).unwrap();
        assert_eq!(format!("[{lo:.2}, {hi:.2}]"), "[0.42, 0.46]");
    }

    #[test]
    fn gap_fill_leaves_high_coverage() {
        let s = usc(Scale::Test);
        for k in 1..=3 {
            let cov = s.result.hop(k).mean_coverage();
            assert!(cov > 0.9, "hop {k} coverage {cov}");
        }
    }

    #[test]
    fn study_is_deterministic() {
        let a = usc(Scale::Test);
        let b = usc(Scale::Test);
        assert_eq!(a.source, b.source);
        for (sa, sb) in a.result.hop_series.iter().zip(&b.result.hop_series) {
            assert_eq!(sa.vectors(), sb.vectors());
        }
    }
}
