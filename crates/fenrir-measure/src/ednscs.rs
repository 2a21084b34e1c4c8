//! EDNS Client-Subnet website catchment mapping (§2.3.3).
//!
//! For websites behind DNS load balancers, the front-end serving a client
//! depends on the client's network. The paper maps these catchments for
//! *all* networks from one vantage point by attaching an EDNS Client
//! Subnet option to each query (Calder et al.'s technique). Two selection
//! policies cover the paper's two subjects:
//!
//! * [`FrontendPolicy::Geo`] — Wikipedia-like: a handful of named sites,
//!   clients mapped to the nearest active site, with *sticky* DNS state:
//!   when a drained site returns, only a configured fraction of its former
//!   clients return (the paper measures ~30%).
//! * [`FrontendPolicy::Churn`] — Google-like: hundreds of front-end
//!   clusters, weekly reshuffles of most clients, a persistent sticky
//!   minority, and an `era` tag that changes when the infrastructure is
//!   rebuilt outright (2013 vs 2024 share nothing).
//!
//! Every lookup is a real DNS message round trip: query with ECS out,
//! A-record answer back, with the front-end identity encoded in the
//! address. The campaign checks its hostname once, writes the query and
//! the answer, all three layers, into two buffers it owns and reads both
//! in place, so a probe does not allocate.

use crate::checkpoint::{CampaignSink, NullSink};
use crate::fault::FaultPlan;
use crate::runner::{
    code_series, read_dns, run_campaign, write_dns, ProbeOutcome, ProbeReply, RunnerConfig,
    WireFault,
};
use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::series::VectorSeries;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::{CODE_ERR, CODE_OTHER, CODE_UNKNOWN};
use fenrir_netsim::anycast::AnycastService;
use fenrir_netsim::events::Scenario;
use fenrir_netsim::prefix::BlockId;
use fenrir_netsim::rng::ChaCha8Rng;
use fenrir_netsim::topology::Topology;
use fenrir_wire::dns::{ClientSubnet, Header, MessageWriter, Name, QClass, QType, RDataRef, Rcode};
use fenrir_wire::udp::DNS_PORT;

/// Front-end selection policy.
#[derive(Debug, Clone)]
pub enum FrontendPolicy {
    /// Geographic nearest-active-site selection with sticky return.
    Geo {
        /// Fraction of a returning site's former clients that go back to it
        /// (the paper observes ~0.3 for Wikipedia's codfw).
        sticky_return_frac: f64,
    },
    /// Hashed cluster selection with weekly epochs.
    Churn {
        /// Number of front-end clusters.
        clusters: usize,
        /// Epoch length in seconds (a week for the paper's Google data).
        epoch_secs: i64,
        /// Infrastructure era: changing it reshuffles everything (the
        /// 2013-vs-2024 discontinuity).
        era: u64,
        /// Fraction of blocks that never move across epochs.
        sticky_frac: f64,
        /// Per-observation probability a non-sticky block is temporarily
        /// rehashed (intra-week churn).
        daily_churn: f64,
    },
}

/// An EDNS-CS measurement campaign against one website.
#[derive(Debug, Clone)]
pub struct EdnsCsCampaign {
    /// Hostname queried (informational; appears in the DNS messages). A
    /// name that is not a valid domain name fails the campaign with
    /// [`Error::Wire`] before its first sweep.
    pub hostname: String,
    /// Selection policy.
    pub policy: FrontendPolicy,
    /// Per-query loss probability (timeout → Unknown).
    pub loss_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Campaign output.
#[derive(Debug, Clone)]
pub struct EdnsCsResult {
    /// One vector per observation; networks are client /24 blocks.
    pub series: VectorSeries,
    /// The client blocks, aligned with vector positions.
    pub blocks: Vec<BlockId>,
    /// Per-observation campaign health, aligned with the series.
    pub health: Vec<CampaignHealth>,
}

impl EdnsCsResult {
    /// Byzantine-resilient change detection over the campaign.
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

/// Stable per-block hash (splitmix-style) for deterministic policies.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn hash2(a: u64, b: u64) -> u64 {
    mix(a.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(b))
}

/// A campaign's wire state: the queried name, checked once, and the
/// writer and two buffers every probe's query and answer are written
/// into, mangled in and read from.
struct EcsWire {
    name: Name,
    dns: MessageWriter,
    query: Vec<u8>,
    answer: Vec<u8>,
}

impl EcsWire {
    fn new(hostname: &str) -> Result<Self> {
        Ok(EcsWire {
            name: Name::parse(hostname)?,
            dns: MessageWriter::default(),
            query: Vec::with_capacity(96),
            answer: Vec::with_capacity(96),
        })
    }

    /// One wire round trip: the ECS query travels inside UDP/IPv4 from
    /// the vantage point to the authoritative server; the A answer
    /// carries the assigned front-end, echoed back the same way. Both
    /// directions pass through `wire` so a fault plan can corrupt them;
    /// any read failure or mismatch against the query yields `None`.
    fn round_trip(
        &mut self,
        qid: u16,
        block: BlockId,
        site_idx: u16,
        wire: &mut WireFault<'_>,
    ) -> Option<u16> {
        let vantage = [198, 51, 100, 7];
        let auth = [192, 0, 2, 33];
        let EcsWire {
            name,
            dns,
            query,
            answer,
        } = self;
        write_dns(query, (vantage, 40_000 ^ qid), (auth, DNS_PORT), |out| {
            let header = Header {
                id: qid,
                rd: true,
                ..Header::default()
            };
            dns.header(out, header, [1, 0, 0, 1]);
            dns.question(out, name.labels(), QType::A, QClass::In);
            dns.record(out, std::iter::empty(), QType::Opt, 4096, 0, |_, out| {
                ClientSubnet::write_ipv4(out, block.addr(0), 24);
                Ok(())
            })
        });
        wire.corrupt(query);
        let (udp, at_server) = read_dns(query).ok()?;
        if udp.dst_port != DNS_PORT {
            return None;
        }
        let asked = at_server.questions().next()?;
        if at_server.client_subnet()?.slash24() != Some(block.0) {
            return None;
        }
        let front_end = [198, 18, (site_idx >> 8) as u8, site_idx as u8];
        write_dns(answer, (auth, DNS_PORT), (vantage, udp.src_port), |out| {
            dns.response_to(out, &at_server, Rcode::NoError, 1);
            let name = asked.name.labels();
            dns.record(out, name, QType::A, QClass::In.code(), 60, |_, out| {
                out.extend_from_slice(&front_end);
                Ok(())
            })
        });
        wire.corrupt(answer);
        let (_, at_client) = read_dns(answer).ok()?;
        if at_client.header().id != qid {
            return None;
        }
        at_client.answers().find_map(|r| match r.rdata {
            RDataRef::A([_, _, hi, lo]) => Some(u16::from_be_bytes([hi, lo])),
            _ => None,
        })
    }
}

impl EdnsCsCampaign {
    /// Run the campaign over `times`, with client blocks and their
    /// geography taken from `topo`, and (for the Geo policy) site
    /// definitions and drain events from `base` + `scenario`.
    pub fn run(
        &self,
        topo: &Topology,
        base: &AnycastService,
        scenario: &Scenario,
        times: &[Timestamp],
    ) -> EdnsCsResult {
        self.run_with(topo, base, scenario, times, &RunnerConfig::default(), None)
            .expect("default edns-cs campaign cannot fail")
    }

    /// Like [`run`](Self::run), but under an explicit execution policy
    /// and an optional fault plan.
    pub fn run_with(
        &self,
        topo: &Topology,
        base: &AnycastService,
        scenario: &Scenario,
        times: &[Timestamp],
        cfg: &RunnerConfig,
        faults: Option<&FaultPlan>,
    ) -> Result<EdnsCsResult> {
        self.run_recoverable(topo, base, scenario, times, cfg, faults, &mut NullSink)
    }

    /// [`EdnsCsCampaign::run_with`] streaming per-sweep progress into a
    /// durable [`CampaignSink`] (one checkpoint row = one sweep's
    /// catchment codes); resumes bit-identically from a killed run. The
    /// Geo policy's sticky DNS state needs no extra checkpoint fields: a
    /// block's current front-end is its most recent site-coded recorded
    /// observation, which a straight run and a resumed one both fold from
    /// the recorded rows, adversary's rewrites included.
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
    ) -> Result<EdnsCsResult> {
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return Err(Error::InvalidParameter {
                name: "loss_prob",
                message: format!("must lie in [0, 1], got {}", self.loss_prob),
            });
        }
        let mut ecs = EcsWire::new(&self.hostname)?;
        let blocks: Vec<BlockId> = topo.all_blocks().iter().map(|&(b, _)| b).collect();
        match &self.policy {
            FrontendPolicy::Geo { sticky_return_frac } => {
                if !(0.0..=1.0).contains(sticky_return_frac) {
                    return Err(Error::InvalidParameter {
                        name: "sticky_return_frac",
                        message: format!("must lie in [0, 1], got {sticky_return_frac}"),
                    });
                }
                self.run_geo(
                    topo,
                    base,
                    scenario,
                    times,
                    &blocks,
                    *sticky_return_frac,
                    &mut ecs,
                    cfg,
                    faults,
                    sink,
                )
            }
            FrontendPolicy::Churn {
                clusters,
                epoch_secs,
                era,
                sticky_frac,
                daily_churn,
            } => {
                for (name, p) in [("sticky_frac", *sticky_frac), ("daily_churn", *daily_churn)] {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(Error::InvalidParameter {
                            name,
                            message: format!("must lie in [0, 1], got {p}"),
                        });
                    }
                }
                if *clusters == 0 {
                    return Err(Error::InvalidParameter {
                        name: "clusters",
                        message: "need at least one front-end cluster".into(),
                    });
                }
                if *epoch_secs < 1 {
                    return Err(Error::InvalidParameter {
                        name: "epoch_secs",
                        message: format!("must be at least 1 second, got {epoch_secs}"),
                    });
                }
                self.run_churn(
                    times,
                    &blocks,
                    *clusters,
                    *epoch_secs,
                    *era,
                    *sticky_frac,
                    *daily_churn,
                    &mut ecs,
                    cfg,
                    faults,
                    sink,
                )
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_geo(
        &self,
        topo: &Topology,
        base: &AnycastService,
        scenario: &Scenario,
        times: &[Timestamp],
        blocks: &[BlockId],
        sticky_return_frac: f64,
        ecs: &mut EcsWire,
        cfg: &RunnerConfig,
        faults: Option<&FaultPlan>,
        sink: &mut dyn CampaignSink<Vec<u16>>,
    ) -> Result<EdnsCsResult> {
        let sites = SiteTable::from_names(base.sites().iter().map(|s| s.name.as_str()));
        let block_geo: Vec<_> = blocks
            .iter()
            .map(|&b| topo.node(topo.owner_of(b).expect("owned")).geo)
            .collect();
        // Whether each block is "sticky-returning" (goes back when its
        // preferred site returns) — a persistent per-block coin.
        let returns: Vec<bool> = blocks
            .iter()
            .map(|&b| {
                (hash2(u64::from(b.0), self.seed) as f64 / u64::MAX as f64) < sticky_return_frac
            })
            .collect();
        // Sticky state: a block's current front-end is its most recent
        // site-coded recorded observation. It folds from the recorded rows,
        // never from the honest echo, so a resumed run rebuilds exactly
        // what a straight run holds, adversary's rewrites included.
        let mut current: Vec<Option<u16>> = vec![None; blocks.len()];
        let mut folded = 0;
        let (rows, health) = run_campaign(
            cfg,
            faults,
            times,
            blocks.len(),
            ChaCha8Rng::seed_from_u64(self.seed),
            sink,
            |runner, rng, t, recorded| {
                for row in &recorded[folded..] {
                    for (cur, &code) in current.iter_mut().zip(row) {
                        if code < CODE_OTHER {
                            *cur = Some(code);
                        }
                    }
                }
                folded = recorded.len();
                let svc = scenario.service_at(base, t.as_secs());
                let active: Vec<usize> = (0..svc.len()).filter(|&i| svc.is_active(i)).collect();
                let mut codes = vec![CODE_UNKNOWN; blocks.len()];
                for (n, &block) in blocks.iter().enumerate() {
                    let cur = current[n];
                    let outcome = runner.probe(n, |wire| {
                        if rng.gen_bool(self.loss_prob) {
                            return ProbeReply::NoResponse;
                        }
                        if active.is_empty() {
                            // No active front-end anywhere: a hard error, not a
                            // timeout.
                            return ProbeReply::Response(None);
                        }
                        let nearest = *active
                            .iter()
                            .min_by(|&&a, &&b| {
                                let da = block_geo[n].distance_km(svc.sites()[a].geo);
                                let db = block_geo[n].distance_km(svc.sites()[b].geo);
                                da.partial_cmp(&db).expect("finite")
                            })
                            .expect("active nonempty");
                        let assigned = match cur {
                            // Current site still active: sticky blocks move back
                            // to their nearest site when it differs; others stay.
                            Some(cur) if active.contains(&(cur as usize)) => {
                                if returns[n] {
                                    nearest as u16
                                } else {
                                    cur
                                }
                            }
                            // Current site gone (or first observation): nearest
                            // active site.
                            _ => nearest as u16,
                        };
                        match ecs.round_trip(n as u16, block, assigned, wire) {
                            Some(echoed) => ProbeReply::Response(Some(echoed)),
                            None => ProbeReply::DecodeFailure,
                        }
                    });
                    match outcome {
                        ProbeOutcome::Response(Some(echoed)) => codes[n] = echoed,
                        ProbeOutcome::Response(None) => codes[n] = CODE_ERR,
                        ProbeOutcome::Unknown => {}
                    }
                }
                codes
            },
        )?;
        Ok(EdnsCsResult {
            series: code_series(sites, blocks.len(), rows),
            blocks: blocks.to_vec(),
            health,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_churn(
        &self,
        times: &[Timestamp],
        blocks: &[BlockId],
        clusters: usize,
        epoch_secs: i64,
        era: u64,
        sticky_frac: f64,
        daily_churn: f64,
        ecs: &mut EcsWire,
        cfg: &RunnerConfig,
        faults: Option<&FaultPlan>,
        sink: &mut dyn CampaignSink<Vec<u16>>,
    ) -> Result<EdnsCsResult> {
        let sites = SiteTable::from_names((0..clusters).map(|i| format!("fe-{i:03}")));
        let (rows, health) = run_campaign(
            cfg,
            faults,
            times,
            blocks.len(),
            ChaCha8Rng::seed_from_u64(self.seed),
            sink,
            |runner, rng, t, _| {
                let epoch = t.as_secs().div_euclid(epoch_secs) as u64;
                let mut codes = vec![CODE_UNKNOWN; blocks.len()];
                for (n, &block) in blocks.iter().enumerate() {
                    let outcome = runner.probe(n, |wire| {
                        if rng.gen_bool(self.loss_prob) {
                            return ProbeReply::NoResponse;
                        }
                        let b = u64::from(block.0);
                        let sticky =
                            (hash2(b, era ^ 0x571C) as f64 / u64::MAX as f64) < sticky_frac;
                        let cluster = if sticky {
                            // Sticky blocks keep one era-stable cluster.
                            hash2(b, era) as usize % clusters
                        } else if rng.gen_bool(daily_churn) {
                            // Transient intra-week churn.
                            hash2(b, era ^ hash2(epoch, t.as_secs() as u64)) as usize % clusters
                        } else {
                            // Week-stable assignment.
                            hash2(b, era ^ mix(epoch)) as usize % clusters
                        };
                        match ecs.round_trip(n as u16, block, cluster as u16, wire) {
                            Some(echoed) => ProbeReply::Response(echoed),
                            None => ProbeReply::DecodeFailure,
                        }
                    });
                    if let ProbeOutcome::Response(echoed) = outcome {
                        codes[n] = echoed;
                    }
                }
                codes
            },
        )?;
        Ok(EdnsCsResult {
            series: code_series(sites, blocks.len(), rows),
            blocks: blocks.to_vec(),
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemorySink;
    use fenrir_core::similarity::{phi, UnknownPolicy};
    use fenrir_core::weight::Weights;
    use fenrir_netsim::geo::{cities, GeoPoint};
    use fenrir_netsim::topology::TopologyBuilder;
    use fenrir_wire::WireError;

    fn topo() -> Topology {
        TopologyBuilder {
            transit: 3,
            regional: 6,
            stubs: 60,
            blocks_per_stub: 2,
            seed: 41,
            ..Default::default()
        }
        .build()
    }

    /// Wikipedia-like 3-site service.
    fn wiki_service(topo: &Topology) -> AnycastService {
        let regionals = topo.tier_members(fenrir_netsim::topology::Tier::Regional);
        let mut svc = AnycastService::new("wiki");
        svc.add_site("eqiad", regionals[0], GeoPoint::new(39.0, -77.5));
        svc.add_site("codfw", regionals[1], GeoPoint::new(32.8, -96.8));
        svc.add_site("esams", regionals[2], cities::AMS);
        svc
    }

    fn geo_campaign() -> EdnsCsCampaign {
        EdnsCsCampaign {
            hostname: "www.wikipedia.org".into(),
            policy: FrontendPolicy::Geo {
                sticky_return_frac: 0.3,
            },
            loss_prob: 0.0,
            seed: 77,
        }
    }

    fn days(n: i64) -> Vec<Timestamp> {
        (0..n).map(Timestamp::from_days).collect()
    }

    #[test]
    fn geo_policy_is_stable_without_events() {
        let topo = topo();
        let svc = wiki_service(&topo);
        let r = geo_campaign().run(&topo, &svc, &Scenario::new(), &days(5));
        let w = Weights::uniform(r.series.networks());
        for i in 1..r.series.len() {
            let p = phi(
                r.series.get(0),
                r.series.get(i),
                &w,
                UnknownPolicy::Pessimistic,
            );
            assert!((p - 1.0).abs() < 1e-12, "day {i}: {p}");
        }
    }

    #[test]
    fn geo_drain_shifts_clients_and_partial_return() {
        let topo = topo();
        let svc = wiki_service(&topo);
        let mut sc = Scenario::new();
        // codfw (site 1) drained days 3..6, like the paper's 2025-03-19
        // week.
        sc.drain(
            1,
            Timestamp::from_days(3).as_secs(),
            Timestamp::from_days(6).as_secs(),
            "sre",
        );
        let r = geo_campaign().run(&topo, &svc, &sc, &days(10));
        let aggs = r.series.aggregates();
        let codfw_before = aggs[2].per_site[1];
        assert!(codfw_before > 0, "codfw serves clients before the drain");
        assert_eq!(aggs[3].per_site[1], 0, "codfw drained");
        assert_eq!(aggs[5].per_site[1], 0);
        let codfw_after = aggs[7].per_site[1];
        assert!(codfw_after > 0, "some clients return");
        assert!(
            codfw_after < codfw_before,
            "only a fraction return ({codfw_after} of {codfw_before})"
        );
        // Roughly the sticky fraction returns.
        let ratio = codfw_after as f64 / codfw_before as f64;
        assert!((0.1..0.6).contains(&ratio), "return ratio {ratio}");
    }

    #[test]
    fn geo_post_event_mode_differs_from_pre_event() {
        // The paper: Φ(M_i, M_iii) ≈ 0.8 — the new mode is similar but not
        // identical to the old one.
        let topo = topo();
        let svc = wiki_service(&topo);
        let mut sc = Scenario::new();
        sc.drain(
            1,
            Timestamp::from_days(3).as_secs(),
            Timestamp::from_days(6).as_secs(),
            "sre",
        );
        let r = geo_campaign().run(&topo, &svc, &sc, &days(10));
        let w = Weights::uniform(r.series.networks());
        let pre_vs_post = phi(
            r.series.get(1),
            r.series.get(8),
            &w,
            UnknownPolicy::Pessimistic,
        );
        assert!(pre_vs_post < 1.0 - 1e-9, "mode did not fully revert");
        assert!(pre_vs_post > 0.5, "most clients unchanged ({pre_vs_post})");
    }

    fn churn_campaign(era: u64) -> EdnsCsCampaign {
        EdnsCsCampaign {
            hostname: "www.google.com".into(),
            policy: FrontendPolicy::Churn {
                clusters: 50,
                epoch_secs: 7 * 86_400,
                era,
                sticky_frac: 0.25,
                daily_churn: 0.15,
            },
            loss_prob: 0.0,
            seed: 99,
        }
    }

    #[test]
    fn churn_intra_week_phi_is_high_but_imperfect() {
        let topo = topo();
        let svc = wiki_service(&topo); // unused by churn policy
        let r = churn_campaign(2024).run(&topo, &svc, &Scenario::new(), &days(6));
        let w = Weights::uniform(r.series.networks());
        let p = phi(
            r.series.get(1),
            r.series.get(2),
            &w,
            UnknownPolicy::Pessimistic,
        );
        assert!((0.6..0.95).contains(&p), "intra-week Φ {p}");
    }

    #[test]
    fn churn_cross_week_phi_is_low_but_nonzero() {
        let topo = topo();
        let svc = wiki_service(&topo);
        // Days 1 and 10 are in different weekly epochs.
        let times: Vec<Timestamp> = vec![Timestamp::from_days(1), Timestamp::from_days(10)];
        let r = churn_campaign(2024).run(&topo, &svc, &Scenario::new(), &times);
        let w = Weights::uniform(r.series.networks());
        let p = phi(
            r.series.get(0),
            r.series.get(1),
            &w,
            UnknownPolicy::Pessimistic,
        );
        assert!((0.1..0.5).contains(&p), "cross-week Φ {p}");
    }

    #[test]
    fn different_eras_share_almost_nothing() {
        let topo = topo();
        let svc = wiki_service(&topo);
        let t = vec![Timestamp::from_days(3)];
        let a = churn_campaign(2013).run(&topo, &svc, &Scenario::new(), &t);
        let b = churn_campaign(2024).run(&topo, &svc, &Scenario::new(), &t);
        let w = Weights::uniform(a.series.networks());
        let p = phi(
            a.series.get(0),
            b.series.get(0),
            &w,
            UnknownPolicy::Pessimistic,
        );
        assert!(p < 0.1, "cross-era Φ {p}");
    }

    #[test]
    fn loss_leaves_unknowns() {
        let topo = topo();
        let svc = wiki_service(&topo);
        let mut c = geo_campaign();
        c.loss_prob = 0.3;
        let r = c.run(&topo, &svc, &Scenario::new(), &days(3));
        let cov = r.series.mean_coverage();
        assert!((0.55..0.85).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn campaigns_are_deterministic() {
        let topo = topo();
        let svc = wiki_service(&topo);
        for c in [geo_campaign(), churn_campaign(2024)] {
            let a = c.run(&topo, &svc, &Scenario::new(), &days(3));
            let b = c.run(&topo, &svc, &Scenario::new(), &days(3));
            for (va, vb) in a.series.vectors().iter().zip(b.series.vectors()) {
                assert_eq!(va, vb);
            }
        }
    }

    #[test]
    fn an_invalid_hostname_fails_before_the_first_sweep() {
        let topo = topo();
        let svc = wiki_service(&topo);
        let long = format!("www.{}.org", "x".repeat(64));
        for (hostname, err) in [
            ("www..example.org", WireError::InvalidInput("empty label")),
            (
                long.as_str(),
                WireError::FieldOverflow {
                    what: "label",
                    value: 64,
                    max: 63,
                },
            ),
        ] {
            for mut c in [geo_campaign(), churn_campaign(2024)] {
                c.hostname = hostname.into();
                let mut sink = MemorySink::new(topo.all_blocks().len());
                let got = c.run_recoverable(
                    &topo,
                    &svc,
                    &Scenario::new(),
                    &days(3),
                    &RunnerConfig::default(),
                    None,
                    &mut sink,
                );
                assert_eq!(got.unwrap_err(), Error::Wire(err.clone()));
                assert!(sink.resume().unwrap().is_none(), "no sweep was recorded");
            }
        }
    }

    #[test]
    fn all_sites_drained_is_err() {
        let topo = topo();
        let svc = wiki_service(&topo);
        let mut sc = Scenario::new();
        for site in 0..3 {
            sc.drain(
                site,
                Timestamp::from_days(1).as_secs(),
                Timestamp::from_days(2).as_secs(),
                "sre",
            );
        }
        let r = geo_campaign().run(&topo, &svc, &sc, &days(3));
        let agg = r.series.get(1).aggregate(3);
        assert_eq!(agg.err as usize, r.series.networks());
    }
}
