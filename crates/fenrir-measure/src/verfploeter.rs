//! Verfploeter-style anycast catchment sweeps (de Vries et al., §2.3.1).
//!
//! Verfploeter is run *by* the anycast operator: one site pings targets in
//! millions of /24 blocks and the operator watches **which site the reply
//! arrives at** — that site is the block's catchment. Coverage is broad but
//! imperfect: "predicting a responsive IP address in a target network
//! employing dynamic address assignment is probabilistic", and about half
//! of the 5M target blocks stay unknown, which pins stable-routing Φ to
//! 0.5–0.6 under the pessimistic policy.
//!
//! The simulator reproduces all of that: each block gets a persistent
//! responsiveness probability (some blocks are reliably pingable, some
//! never answer), replies route to the block's AS's best anycast site, and
//! every answered probe carries a real ICMP echo reply over the wire. The
//! campaign writes each reply into one buffer it owns and reads it back
//! in place, so a probe does not allocate.

use crate::checkpoint::{CampaignSink, NullSink};
use crate::fault::FaultPlan;
use crate::runner::{code_series, run_campaign, ProbeOutcome, ProbeReply, RunnerConfig};
use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::series::VectorSeries;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::{Catchment, CODE_UNKNOWN};
use fenrir_netsim::anycast::AnycastService;
use fenrir_netsim::events::Scenario;
use fenrir_netsim::prefix::BlockId;
use fenrir_netsim::rng::ChaCha8Rng;
use fenrir_netsim::topology::{AsId, Topology};
use fenrir_wire::icmp::{IcmpKind, IcmpView};

/// The payload of every Verfploeter echo request, mirrored by the reply.
const PAYLOAD: &[u8] = b"fenrir-vp";

/// Configuration of a Verfploeter campaign.
#[derive(Debug, Clone)]
pub struct Verfploeter {
    /// Mean fraction of blocks that answer a given sweep (paper: ~0.5).
    pub mean_response_rate: f64,
    /// Seed for block responsiveness and per-probe noise.
    pub seed: u64,
}

impl Default for Verfploeter {
    fn default() -> Self {
        Verfploeter {
            mean_response_rate: 0.5,
            seed: 0x5EED_0001,
        }
    }
}

/// Result of a campaign: the series plus the block list defining the
/// network population (vector position `n` is `blocks[n]`).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One vector per observation time.
    pub series: VectorSeries,
    /// The probed blocks, aligned with vector positions.
    pub blocks: Vec<BlockId>,
    /// Per-observation campaign health, aligned with the series.
    pub health: Vec<CampaignHealth>,
}

impl SweepResult {
    /// Byzantine-resilient change detection over the campaign, feeding
    /// the sweep health into the coverage gate and cross-block trust
    /// scores into the similarity weights.
    pub fn detect_trusted(
        &self,
        detector: &fenrir_core::detect::ChangeDetector,
        weights: &fenrir_core::weight::Weights,
        coverage_floor: f64,
        cfg: fenrir_core::trust::TrustConfig,
    ) -> Result<fenrir_core::trust::TrustedDetection> {
        fenrir_core::trust::detect_trusted(
            detector,
            &self.series,
            weights,
            &self.health,
            coverage_floor,
            cfg,
            None,
        )
    }
}

impl Verfploeter {
    /// Run the campaign: one sweep per entry of `times`, against the
    /// service/routing state the scenario defines at that instant.
    ///
    /// The returned site table contains every site of `base` (active or
    /// not) in site-index order, so `SiteId(i)` is site `i` throughout the
    /// series even as sites drain and return.
    pub fn run(
        &self,
        topo: &Topology,
        base: &AnycastService,
        scenario: &Scenario,
        times: &[Timestamp],
    ) -> SweepResult {
        self.run_with(topo, base, scenario, times, &RunnerConfig::default(), None)
            .expect("default verfploeter campaign cannot fail")
    }

    /// Run the campaign under an explicit execution policy and an
    /// optional fault plan. `run` is `run_with` with defaults.
    pub fn run_with(
        &self,
        topo: &Topology,
        base: &AnycastService,
        scenario: &Scenario,
        times: &[Timestamp],
        cfg: &RunnerConfig,
        faults: Option<&FaultPlan>,
    ) -> Result<SweepResult> {
        self.run_recoverable(topo, base, scenario, times, cfg, faults, &mut NullSink)
    }

    /// [`Verfploeter::run_with`] streaming per-sweep progress into a
    /// durable [`CampaignSink`] (one checkpoint row = one sweep's
    /// catchment codes). If the sink holds state from a killed run of the
    /// same campaign, completed sweeps are **not** re-probed: the RNG
    /// streams are seeked to their recorded positions and the campaign
    /// continues from the next sweep, producing results bit-identical to
    /// an uninterrupted run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_recoverable(
        &self,
        topo: &Topology,
        base: &AnycastService,
        scenario: &Scenario,
        times: &[Timestamp],
        cfg: &RunnerConfig,
        faults: Option<&FaultPlan>,
        sink: &mut dyn CampaignSink<Vec<u16>>,
    ) -> Result<SweepResult> {
        if !(0.0..=1.0).contains(&self.mean_response_rate) {
            return Err(Error::InvalidParameter {
                name: "mean_response_rate",
                message: format!("must lie in [0, 1], got {}", self.mean_response_rate),
            });
        }
        let blocks: Vec<BlockId> = topo.all_blocks().iter().map(|&(b, _)| b).collect();
        let owners: Vec<AsId> = blocks
            .iter()
            .map(|&b| topo.owner_of(b).expect("block has an owner"))
            .collect();
        let sites = SiteTable::from_names(base.sites().iter().map(|s| s.name.as_str()));

        // Persistent per-block responsiveness, bimodal as on the real
        // Internet: a block either has stably pingable addresses (answers
        // almost every sweep) or uses dynamic addressing and almost never
        // answers. This is what pins the paper's stable pessimistic Φ to
        // 0.5–0.6 rather than coverage²: the *same* half answers each day.
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let responsive_frac = (self.mean_response_rate / 0.95).min(1.0);
        // Dark blocks still answer occasionally (a transient DHCP lease);
        // scaled so a zero response rate really is silence.
        let dark_prob = 0.04 * self.mean_response_rate;
        let response_prob: Vec<f64> = blocks
            .iter()
            .map(|_| {
                if rng.gen_bool(responsive_frac) {
                    0.95
                } else {
                    dark_prob
                }
            })
            .collect();

        let mut live = crate::routes::ScenarioRoutes::new();
        // Every reply of the campaign is written into, mangled in and read
        // from this one buffer.
        let mut reply = Vec::with_capacity(8 + PAYLOAD.len());
        let (rows, health) = run_campaign(
            cfg,
            faults,
            times,
            blocks.len(),
            rng,
            sink,
            |runner, rng, t, _| {
                if runner.divergence_scheduled() {
                    live.poison(topo);
                }
                let (_svc, routes) = live.at(topo, base, scenario, t.as_secs());
                let mut codes = vec![CODE_UNKNOWN; blocks.len()];
                for (n, (&block, &owner)) in blocks.iter().zip(&owners).enumerate() {
                    let outcome = runner.probe(n, |wire| {
                        if !rng.gen_bool(response_prob[n]) {
                            return ProbeReply::NoResponse; // target silent
                        }
                        // The target answers the echo request exactly as
                        // Verfploeter encodes it: block id in the ICMP
                        // ident/seq so any site can attribute the reply.
                        // The reply follows the target AS's best route to
                        // the anycast prefix, possibly mangled on the way.
                        reply.clear();
                        IcmpView {
                            kind: IcmpKind::EchoReply,
                            ident: (block.0 >> 16) as u16,
                            seq: block.0 as u16,
                            payload: PAYLOAD,
                        }
                        .encode_into(&mut reply);
                        wire.corrupt(&mut reply);
                        let Ok(reply) = IcmpView::parse(&reply) else {
                            return ProbeReply::DecodeFailure;
                        };
                        // A corrupted-but-parseable reply that no longer
                        // matches the probe is discarded, never misattributed.
                        if reply.kind != IcmpKind::EchoReply
                            || (u32::from(reply.ident) << 16) | u32::from(reply.seq) != block.0
                        {
                            return ProbeReply::DecodeFailure;
                        }
                        match routes.catchment(owner) {
                            Some(site) => ProbeReply::Response(Catchment::Site(
                                fenrir_core::ids::SiteId(site as u16),
                            )),
                            // Responsive block, but no site reachable (all
                            // drained): the reply goes nowhere — the paper's
                            // err state.
                            None => ProbeReply::Response(Catchment::Err),
                        }
                    });
                    if let ProbeOutcome::Response(c) = outcome {
                        codes[n] = c.code();
                    }
                }
                runner.note_divergences(live.drain_divergences());
                codes
            },
        )?;
        Ok(SweepResult {
            series: code_series(sites, blocks.len(), rows),
            blocks,
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenrir_core::similarity::{phi, UnknownPolicy};
    use fenrir_core::weight::Weights;
    use fenrir_netsim::geo::cities;
    use fenrir_netsim::topology::{Tier, TopologyBuilder};

    fn setup() -> (Topology, AnycastService) {
        let topo = TopologyBuilder {
            transit: 3,
            regional: 6,
            stubs: 40,
            blocks_per_stub: 2,
            seed: 11,
            ..Default::default()
        }
        .build();
        let regionals = topo.tier_members(Tier::Regional);
        let mut svc = AnycastService::new("B-Root");
        svc.add_site("LAX", regionals[0], cities::LAX);
        svc.add_site("MIA", regionals[1], cities::MIA);
        (topo, svc)
    }

    fn days(n: i64) -> Vec<Timestamp> {
        (0..n).map(Timestamp::from_days).collect()
    }

    #[test]
    fn sweep_covers_all_blocks() {
        let (topo, svc) = setup();
        let vp = Verfploeter::default();
        let r = vp.run(&topo, &svc, &Scenario::new(), &days(3));
        assert_eq!(r.blocks.len(), 80);
        assert_eq!(r.series.len(), 3);
        assert_eq!(r.series.networks(), 80);
        assert_eq!(r.series.sites().len(), 2);
    }

    #[test]
    fn coverage_is_roughly_the_configured_rate() {
        let (topo, svc) = setup();
        let vp = Verfploeter {
            mean_response_rate: 0.5,
            ..Default::default()
        };
        let r = vp.run(&topo, &svc, &Scenario::new(), &days(10));
        let cov = r.series.mean_coverage();
        assert!((0.35..0.65).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn full_response_rate_gives_full_coverage() {
        let (topo, svc) = setup();
        let vp = Verfploeter {
            mean_response_rate: 1.0,
            seed: 3,
        };
        let r = vp.run(&topo, &svc, &Scenario::new(), &days(2));
        // mean_response_rate 1.0 -> per-block probability uniform in [0,2]
        // clamped to 1 ... blocks with u >= 0.5 are always-on; others
        // probabilistic. Coverage must be well above the 0.5 default.
        assert!(r.series.mean_coverage() > 0.7);
    }

    #[test]
    fn stable_routing_phi_sits_at_the_coverage_ceiling() {
        // The paper's §2.6.1 observation: ~50% unknown pins Φ to ~0.5-0.6
        // pessimistically, while known-only similarity is ~1.
        let (topo, svc) = setup();
        let vp = Verfploeter::default();
        let r = vp.run(&topo, &svc, &Scenario::new(), &days(5));
        let w = Weights::uniform(r.series.networks());
        let p_pess = phi(
            r.series.get(0),
            r.series.get(1),
            &w,
            UnknownPolicy::Pessimistic,
        );
        let p_known = phi(
            r.series.get(0),
            r.series.get(1),
            &w,
            UnknownPolicy::KnownOnly,
        );
        assert!((0.15..0.75).contains(&p_pess), "pessimistic {p_pess}");
        assert!((p_known - 1.0).abs() < 1e-9, "known-only {p_known}");
    }

    #[test]
    fn drain_is_visible_in_the_series() {
        let (topo, svc) = setup();
        let mut sc = Scenario::new();
        // Drain site 0 on days 2..4.
        sc.drain(
            0,
            Timestamp::from_days(2).as_secs(),
            Timestamp::from_days(4).as_secs(),
            "op",
        );
        let vp = Verfploeter {
            mean_response_rate: 1.0,
            seed: 5,
        };
        let r = vp.run(&topo, &svc, &sc, &days(6));
        let aggs = r.series.aggregates();
        assert!(aggs[1].per_site[0] > 0, "site 0 serves before the drain");
        assert_eq!(aggs[2].per_site[0], 0, "site 0 empty during the drain");
        assert_eq!(aggs[3].per_site[0], 0);
        assert!(aggs[4].per_site[0] > 0, "site 0 returns after the drain");
        // The drained blocks went to the other site, not to err.
        assert!(aggs[2].per_site[1] > aggs[1].per_site[1]);
    }

    #[test]
    fn all_sites_drained_yields_err_not_unknown() {
        let (topo, svc) = setup();
        let mut sc = Scenario::new();
        let d0 = Timestamp::from_days(1).as_secs();
        let d2 = Timestamp::from_days(2).as_secs();
        sc.drain(0, d0, d2, "op");
        sc.drain(1, d0, d2, "op");
        let vp = Verfploeter {
            mean_response_rate: 1.0,
            seed: 5,
        };
        let r = vp.run(&topo, &svc, &sc, &days(3));
        let aggs = r.series.aggregates();
        assert!(aggs[1].err > 0, "responsive blocks with no service are err");
        assert_eq!(aggs[1].per_site.iter().sum::<u64>(), 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let (topo, svc) = setup();
        let vp = Verfploeter::default();
        let a = vp.run(&topo, &svc, &Scenario::new(), &days(3));
        let b = vp.run(&topo, &svc, &Scenario::new(), &days(3));
        for (va, vb) in a.series.vectors().iter().zip(b.series.vectors()) {
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn different_seed_changes_coverage_pattern() {
        let (topo, svc) = setup();
        let a = Verfploeter {
            seed: 1,
            ..Default::default()
        }
        .run(&topo, &svc, &Scenario::new(), &days(1));
        let b = Verfploeter {
            seed: 2,
            ..Default::default()
        }
        .run(&topo, &svc, &Scenario::new(), &days(1));
        assert_ne!(a.series.get(0), b.series.get(0));
    }
}
