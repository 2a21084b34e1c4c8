//! RIPE-Atlas-style catchment observation (§2.3.1).
//!
//! Atlas runs *independently of* the anycast operator: ~10k vantage points
//! each send a `CHAOS TXT hostname.bind` query toward the service and read
//! the per-server identifier out of the TXT answer; an identifier → site
//! mapping (following Fan et al.) turns that into a catchment. Compared to
//! Verfploeter, coverage is sparse (thousands of VPs, not millions of
//! blocks) but the cadence is high — the paper's Table 4 validation reads
//! Atlas "every four minutes".
//!
//! Here every VP query is a real wire round trip — `hostname.bind TXT CH`
//! inside UDP inside IPv4 — the simulated site parses the datagram, answers
//! with its identifier string, and the campaign decodes and maps it. Sites
//! answer with identifiers like `"b4-lax"`; an unknown identifier (a site
//! the mapping has not learned) decodes to [`Catchment::Other`]. The
//! campaign writes the query and the response, all three layers, into two
//! buffers it owns and reads both in place, so a probe does not allocate.

use crate::checkpoint::{CampaignSink, NullSink};
use crate::fault::FaultPlan;
use crate::runner::{
    code_series, read_dns, run_campaign, write_dns, ProbeOutcome, ProbeReply, RunnerConfig,
};
use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::{SiteId, SiteTable};
use fenrir_core::series::VectorSeries;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::{Catchment, CODE_UNKNOWN};
use fenrir_netsim::anycast::AnycastService;
use fenrir_netsim::events::Scenario;
use fenrir_netsim::rng::ChaCha8Rng;
use fenrir_netsim::topology::{AsId, Tier, Topology};
use fenrir_wire::dns::{Header, MessageWriter, QClass, QType, Rcode};
use fenrir_wire::udp::DNS_PORT;
use std::collections::HashMap;

/// The name every Atlas query asks for, as its labels.
const HOSTNAME_BIND: [&[u8]; 2] = [b"hostname", b"bind"];

/// Configuration of an Atlas-style campaign.
#[derive(Debug, Clone)]
pub struct AtlasCampaign {
    /// Number of vantage points to place (on distinct stub ASes when
    /// possible).
    pub vantage_points: usize,
    /// Per-query loss probability (the VP sees a timeout → Unknown).
    pub loss_prob: f64,
    /// Fraction of site identifiers the mapping does not know → Other.
    /// Models the paper's "other responses" category.
    pub unmapped_identifier_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AtlasCampaign {
    fn default() -> Self {
        AtlasCampaign {
            vantage_points: 100,
            loss_prob: 0.01,
            unmapped_identifier_prob: 0.0,
            seed: 0xA71A_0001,
        }
    }
}

/// Campaign output: the series plus the VP placement (vector position `n`
/// is a VP hosted in `vp_ases[n]`).
#[derive(Debug, Clone)]
pub struct AtlasResult {
    /// One vector per observation time; networks are vantage points.
    pub series: VectorSeries,
    /// Host AS of each VP.
    pub vp_ases: Vec<AsId>,
    /// Per-observation campaign health, aligned with the series.
    pub health: Vec<CampaignHealth>,
}

impl AtlasCampaign {
    /// Place VPs deterministically on stub ASes (round-robin if more VPs
    /// than stubs).
    pub fn place_vps(&self, topo: &Topology) -> Vec<AsId> {
        let mut stubs = topo.tier_members(Tier::Stub);
        if stubs.is_empty() {
            stubs = topo.nodes().iter().map(|n| n.id).collect();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        rng.shuffle(&mut stubs);
        (0..self.vantage_points)
            .map(|i| stubs[i % stubs.len()])
            .collect()
    }

    /// Run the campaign over `times`.
    pub fn run(
        &self,
        topo: &Topology,
        base: &AnycastService,
        scenario: &Scenario,
        times: &[Timestamp],
    ) -> AtlasResult {
        self.run_with(topo, base, scenario, times, &RunnerConfig::default(), None)
            .expect("default atlas campaign cannot fail")
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
    ) -> Result<AtlasResult> {
        self.run_recoverable(topo, base, scenario, times, cfg, faults, &mut NullSink)
    }

    /// [`AtlasCampaign::run_with`] streaming per-sweep progress into a
    /// durable [`CampaignSink`] (one checkpoint row = one sweep's
    /// catchment codes); resumes bit-identically from a killed run.
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
    ) -> Result<AtlasResult> {
        for (name, p) in [
            ("loss_prob", self.loss_prob),
            ("unmapped_identifier_prob", self.unmapped_identifier_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(Error::InvalidParameter {
                    name,
                    message: format!("must lie in [0, 1], got {p}"),
                });
            }
        }
        let vp_ases = self.place_vps(topo);
        let sites = SiteTable::from_names(base.sites().iter().map(|s| s.name.as_str()));
        // What each site answers: "b4-<lowercase site>", or "anon-<index>"
        // for an identifier the mapping has not learned. A scenario keeps
        // its sites' names, so these hold for the whole campaign.
        let idents: Vec<(Vec<u8>, Vec<u8>)> = base
            .sites()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let known = format!("b4-{}", s.name.to_lowercase());
                (known.into_bytes(), format!("anon-{i}").into_bytes())
            })
            .collect();
        // Identifier mapping -> site, as built from prior work's identifier
        // surveys, keyed by the TXT bytes the VP reads.
        let mapping: HashMap<&[u8], SiteId> = idents
            .iter()
            .enumerate()
            .map(|(i, (known, _))| (known.as_slice(), SiteId(i as u16)))
            .collect();
        let mut dns = MessageWriter::default();
        // The query and the response of every probe are written into,
        // mangled in and read from these two buffers.
        let (mut query, mut response) = (Vec::with_capacity(64), Vec::with_capacity(96));

        let mut live = crate::routes::ScenarioRoutes::new();
        let (rows, health) = run_campaign(
            cfg,
            faults,
            times,
            vp_ases.len(),
            ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(1)),
            sink,
            |runner, rng, t, _| {
                if runner.divergence_scheduled() {
                    live.poison(topo);
                }
                let (_svc, routes) = live.at(topo, base, scenario, t.as_secs());
                let mut codes = vec![CODE_UNKNOWN; vp_ases.len()];
                for (n, &vp) in vp_ases.iter().enumerate() {
                    let outcome = runner.probe(n, |wire| {
                        if rng.gen_bool(self.loss_prob) {
                            return ProbeReply::NoResponse; // timeout
                        }
                        // Real wire round trip: the CHAOS query travels inside
                        // a UDP/IPv4 datagram from the VP to the anycast
                        // prefix, and may be mangled in either direction.
                        let vp_addr = [100, 64, (n >> 8) as u8, n as u8];
                        let service_addr = [192, 0, 2, 1];
                        let from_vp = (vp_addr, 33_000 + n as u16);
                        write_dns(&mut query, from_vp, (service_addr, DNS_PORT), |out| {
                            let header = Header {
                                id: n as u16,
                                rd: true,
                                ..Header::default()
                            };
                            dns.header(out, header, [1, 0, 0, 0]);
                            dns.question(out, HOSTNAME_BIND.into_iter(), QType::Txt, QClass::Chaos);
                            Ok(())
                        });
                        wire.corrupt(&mut query);
                        let Ok((udp_in, at_server)) = read_dns(&query) else {
                            // The site could not parse the query: it never
                            // answers, and the VP records a failure.
                            return ProbeReply::DecodeFailure;
                        };
                        if udp_in.dst_port != DNS_PORT {
                            return ProbeReply::DecodeFailure;
                        }
                        let Some(site) = routes.catchment(vp) else {
                            // Query reached no site at all.
                            return ProbeReply::Response(Catchment::Err);
                        };
                        // ... identifier back. Occasionally a site announces
                        // an identifier the mapping has not learned.
                        let unmapped = rng.gen_bool(self.unmapped_identifier_prob);
                        let (known, anon) = &idents[site as usize];
                        let ident = if unmapped { anon } else { known };
                        // The answer is named after the first question; a
                        // query without one gets no answer.
                        let Some(asked) = at_server.questions().next() else {
                            return ProbeReply::DecodeFailure;
                        };
                        let to_vp = (vp_addr, udp_in.src_port);
                        write_dns(&mut response, (service_addr, DNS_PORT), to_vp, |out| {
                            dns.response_to(out, &at_server, Rcode::NoError, 1);
                            let name = asked.name.labels();
                            dns.txt(out, name, QClass::Chaos, 0, [ident.as_slice()])
                        });
                        wire.corrupt(&mut response);
                        let Ok((_, at_vp)) = read_dns(&response) else {
                            return ProbeReply::DecodeFailure;
                        };
                        // A mangled-but-parseable answer that lost its TXT or
                        // its transaction id is discarded, never mapped.
                        if at_vp.header().id != n as u16 {
                            return ProbeReply::DecodeFailure;
                        }
                        let Some(got) = at_vp.first_txt() else {
                            return ProbeReply::DecodeFailure;
                        };
                        match mapping.get(got) {
                            Some(&sid) => ProbeReply::Response(Catchment::Site(sid)),
                            None => ProbeReply::Response(Catchment::Other),
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
        Ok(AtlasResult {
            series: code_series(sites, vp_ases.len(), rows),
            vp_ases,
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenrir_netsim::geo::cities;
    use fenrir_netsim::topology::TopologyBuilder;

    fn setup() -> (Topology, AnycastService) {
        let topo = TopologyBuilder {
            transit: 3,
            regional: 6,
            stubs: 50,
            blocks_per_stub: 1,
            seed: 21,
            ..Default::default()
        }
        .build();
        let regionals = topo.tier_members(Tier::Regional);
        let mut svc = AnycastService::new("G-Root");
        svc.add_site("STR", regionals[0], cities::STR);
        svc.add_site("NAP", regionals[1], cities::NAP);
        svc.add_site("CMH", regionals[2], cities::CMH);
        (topo, svc)
    }

    fn times(n: i64) -> Vec<Timestamp> {
        (0..n)
            .map(|i| Timestamp::from_secs(i * 240)) // 4-minute cadence
            .collect()
    }

    #[test]
    fn vps_are_placed_deterministically() {
        let (topo, _) = setup();
        let c = AtlasCampaign::default();
        assert_eq!(c.place_vps(&topo), c.place_vps(&topo));
        assert_eq!(c.place_vps(&topo).len(), 100);
    }

    #[test]
    fn run_produces_aligned_series() {
        let (topo, svc) = setup();
        let c = AtlasCampaign {
            vantage_points: 40,
            ..Default::default()
        };
        let r = c.run(&topo, &svc, &Scenario::new(), &times(5));
        assert_eq!(r.series.len(), 5);
        assert_eq!(r.series.networks(), 40);
        assert_eq!(r.vp_ases.len(), 40);
        assert_eq!(r.series.sites().len(), 3);
    }

    #[test]
    fn lossless_campaign_has_full_coverage() {
        let (topo, svc) = setup();
        let c = AtlasCampaign {
            vantage_points: 30,
            loss_prob: 0.0,
            ..Default::default()
        };
        let r = c.run(&topo, &svc, &Scenario::new(), &times(3));
        assert_eq!(r.series.mean_coverage(), 1.0);
    }

    #[test]
    fn loss_shows_as_unknown() {
        let (topo, svc) = setup();
        let c = AtlasCampaign {
            vantage_points: 50,
            loss_prob: 0.5,
            ..Default::default()
        };
        let r = c.run(&topo, &svc, &Scenario::new(), &times(4));
        let cov = r.series.mean_coverage();
        assert!((0.3..0.7).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn unmapped_identifiers_become_other() {
        let (topo, svc) = setup();
        let c = AtlasCampaign {
            vantage_points: 50,
            loss_prob: 0.0,
            unmapped_identifier_prob: 1.0,
            ..Default::default()
        };
        let r = c.run(&topo, &svc, &Scenario::new(), &times(1));
        let agg = r.series.get(0).aggregate(3);
        assert_eq!(agg.other, 50);
        assert_eq!(agg.per_site.iter().sum::<u64>(), 0);
    }

    #[test]
    fn drain_moves_vps_between_sites() {
        let (topo, svc) = setup();
        let mut sc = Scenario::new();
        sc.drain(0, 240 * 2, 240 * 4, "op"); // drained at obs 2 and 3
        let c = AtlasCampaign {
            vantage_points: 60,
            loss_prob: 0.0,
            ..Default::default()
        };
        let r = c.run(&topo, &svc, &sc, &times(6));
        let aggs = r.series.aggregates();
        assert!(aggs[1].per_site[0] > 0);
        assert_eq!(aggs[2].per_site[0], 0, "STR drained");
        assert!(aggs[4].per_site[0] > 0, "STR restored");
        // Total observed stays constant (no loss).
        for a in &aggs {
            assert_eq!(a.total(), 60);
            assert_eq!(a.unknown, 0);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let (topo, svc) = setup();
        let c = AtlasCampaign::default();
        let a = c.run(&topo, &svc, &Scenario::new(), &times(3));
        let b = c.run(&topo, &svc, &Scenario::new(), &times(3));
        for (va, vb) in a.series.vectors().iter().zip(b.series.vectors()) {
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn more_vps_than_stubs_wraps_round_robin() {
        let (topo, svc) = setup();
        let c = AtlasCampaign {
            vantage_points: 120, // only 50 stubs
            ..Default::default()
        };
        let r = c.run(&topo, &svc, &Scenario::new(), &times(1));
        assert_eq!(r.vp_ases.len(), 120);
    }
}
