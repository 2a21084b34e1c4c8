//! Enterprise traceroute campaigns (§2.3.2).
//!
//! The paper maps a multi-homed enterprise's routing cone by tracerouting
//! from one server "to all routable network prefixes", keeping the first 10
//! hops, and asking: *which upstream carries each destination at hop k?*
//! Catchments at hop `k` are the transit networks `k` hops out — the
//! "focus" an operator can widen or narrow.
//!
//! The simulator computes the policy-routing path from the source AS to
//! every destination block and emits **one routing-vector series per hop
//! depth**, with each hop's AS label as the catchment. Imperfections are
//! modelled as the paper describes: some ASes never answer traceroute
//! (private addressing / filtering — a persistent set) and individual hop
//! responses are lost at random; both show as `Unknown`, which the paper's
//! spatial gap-fill ([`TracerouteResult::fill_gaps`], using the
//! nearest-viable-hop rule) repairs. Each hop's packets are written into
//! two buffers the campaign owns and read in place, and each probe's hops
//! are collected in a third.

use crate::checkpoint::{CampaignSink, NullSink};
use crate::fault::FaultPlan;
use crate::runner::{run_campaign, ProbeOutcome, ProbeReply, RunnerConfig};
use fenrir_core::clean::nearest_viable;
use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::series::VectorSeries;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::{Catchment, RoutingVector, CODE_UNKNOWN};
use fenrir_netsim::events::Scenario;
use fenrir_netsim::prefix::BlockId;
use fenrir_netsim::rng::ChaCha8Rng;
use fenrir_netsim::topology::{AsId, Topology};
use fenrir_wire::icmp::{IcmpKind, IcmpView};
use fenrir_wire::ipv4::{protocol, Ipv4Header};

/// The payload of every traceroute echo request.
const PAYLOAD: [u8; 32] = [0; 32];

/// How many octets of the expired datagram a time-exceeded quotes: its
/// IPv4 header and the first 8 octets of its ICMP echo (RFC 792).
const QUOTED: usize = 28;

/// Configuration of a traceroute campaign.
#[derive(Debug, Clone)]
pub struct TracerouteCampaign {
    /// The enterprise AS probing outward.
    pub source: AsId,
    /// Keep at most this many hops (paper: 10).
    pub max_hops: usize,
    /// Probability any single hop response is lost.
    pub hop_loss_prob: f64,
    /// Fraction of ASes that never answer traceroute (private addresses or
    /// ICMP filtering); the set is persistent across the campaign.
    pub filtered_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TracerouteCampaign {
    fn default() -> Self {
        TracerouteCampaign {
            source: AsId(0),
            max_hops: 10,
            hop_loss_prob: 0.02,
            filtered_frac: 0.1,
            seed: 0x72ACE,
        }
    }
}

/// Campaign output: per-hop series over the same destination blocks.
#[derive(Debug, Clone)]
pub struct TracerouteResult {
    /// `hop_series[k]` is the series for hop `k+1`; networks are
    /// destination blocks, catchment states are AS labels (`"AS17"`).
    pub hop_series: Vec<VectorSeries>,
    /// Destination blocks, aligned with vector positions.
    pub blocks: Vec<BlockId>,
    /// Per-observation campaign health (a destination counts as covered
    /// when its traceroute ran, regardless of per-hop gaps).
    pub health: Vec<CampaignHealth>,
}

impl TracerouteCampaign {
    /// Run the campaign over `times`. The routing config at each instant
    /// comes from `scenario` (link failures, preference changes).
    pub fn run(
        &self,
        topo: &Topology,
        scenario: &Scenario,
        times: &[Timestamp],
    ) -> TracerouteResult {
        self.run_with(topo, scenario, times, &RunnerConfig::default(), None)
            .expect("default traceroute campaign cannot fail")
    }

    /// Run the campaign under an explicit execution policy and an
    /// optional fault plan. `run` is `run_with` with defaults.
    pub fn run_with(
        &self,
        topo: &Topology,
        scenario: &Scenario,
        times: &[Timestamp],
        cfg: &RunnerConfig,
        faults: Option<&FaultPlan>,
    ) -> Result<TracerouteResult> {
        self.run_recoverable(topo, scenario, times, cfg, faults, &mut NullSink)
    }

    /// [`TracerouteCampaign::run_with`] streaming per-sweep progress into
    /// a durable [`CampaignSink`] (one checkpoint row = one sweep's
    /// hop-major code rows); resumes bit-identically from a killed run.
    pub fn run_recoverable(
        &self,
        topo: &Topology,
        scenario: &Scenario,
        times: &[Timestamp],
        cfg: &RunnerConfig,
        faults: Option<&FaultPlan>,
        sink: &mut dyn CampaignSink<Vec<Vec<u16>>>,
    ) -> Result<TracerouteResult> {
        for (name, p) in [
            ("hop_loss_prob", self.hop_loss_prob),
            ("filtered_frac", self.filtered_frac),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(Error::InvalidParameter {
                    name,
                    message: format!("must lie in [0, 1], got {p}"),
                });
            }
        }
        if self.max_hops == 0 {
            return Err(Error::InvalidParameter {
                name: "max_hops",
                message: "a traceroute must keep at least one hop".into(),
            });
        }
        let blocks: Vec<BlockId> = topo.all_blocks().iter().map(|&(b, _)| b).collect();
        let owners: Vec<AsId> = blocks
            .iter()
            .map(|&b| topo.owner_of(b).expect("owned"))
            .collect();
        // Shared site table: every AS gets a label; SiteId == AS index.
        let sites = SiteTable::from_names(topo.nodes().iter().map(|n| format!("AS{}", n.id.0)));

        // Persistent filtered set.
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let filtered: Vec<bool> = topo
            .nodes()
            .iter()
            .map(|_| rng.gen_bool(self.filtered_frac))
            .collect();

        // One live route table per distinct destination AS, created lazily
        // on first use and advanced incrementally across sweeps.
        let mut tables = crate::routes::DestRoutes::new();
        // Each hop's expired echo and the time-exceeded quoting it are
        // written into, mangled in and read from these two buffers; each
        // probe collects its `(hop index, catchment)` answers in `hops`.
        let (mut expired, mut answer) = (Vec::with_capacity(64), Vec::with_capacity(64));
        let mut hops: Vec<(usize, Catchment)> = Vec::with_capacity(self.max_hops);
        let (rows, health) = run_campaign(
            cfg,
            faults,
            times,
            (self.max_hops, blocks.len()),
            rng,
            sink,
            |runner, rng, t, _| {
                let cfg_t = scenario.config_at(t.as_secs());
                if runner.divergence_scheduled() {
                    tables.poison(topo);
                }
                let mut row = vec![vec![CODE_UNKNOWN; blocks.len()]; self.max_hops];
                for (n, &dest) in owners.iter().enumerate() {
                    let route = tables.at(topo, dest, &cfg_t).route(self.source);
                    // One probe per destination: the whole traceroute either
                    // runs (with per-hop gaps) or is lost/retried as a unit.
                    let outcome = runner.probe(n, |wire| {
                        hops.clear();
                        let Some(route) = route else {
                            // Unreachable destination: every hop reports err.
                            hops.extend((0..self.max_hops).map(|k| (k, Catchment::Err)));
                            return ProbeReply::Response(());
                        };
                        for k in 1..=self.max_hops {
                            match route.hop(k) {
                                Some(hop_as) => {
                                    // Each hop answer is a real packet
                                    // exchange: an IPv4 ICMP echo with TTL = k
                                    // leaves the source, every router on the
                                    // path decrements the TTL, and the hop
                                    // where it reaches 0 answers with a
                                    // time-exceeded quoting it. Lost or
                                    // filtered hops stay Unknown.
                                    if filtered[hop_as.index()] || rng.gen_bool(self.hop_loss_prob)
                                    {
                                        continue;
                                    }
                                    let echo = IcmpView {
                                        kind: IcmpKind::EchoRequest,
                                        ident: n as u16,
                                        seq: k as u16,
                                        payload: &PAYLOAD,
                                    };
                                    let dst = blocks[n].addr(1);
                                    let at_hop_k = Ipv4Header {
                                        ttl: 0,
                                        ..Ipv4Header::new(protocol::ICMP, [10, 0, 0, 1], dst)
                                    };
                                    expired.clear();
                                    at_hop_k
                                        .write(&mut expired, |out| {
                                            echo.encode_into(out);
                                            Ok(())
                                        })
                                        .expect("an echo fits");
                                    answer.clear();
                                    IcmpView {
                                        kind: IcmpKind::TimeExceeded(0),
                                        ident: 0,
                                        seq: 0,
                                        payload: &expired[..QUOTED],
                                    }
                                    .encode_into(&mut answer);
                                    wire.corrupt(&mut answer);
                                    match IcmpView::parse(&answer) {
                                        Ok(back) if back.kind == IcmpKind::TimeExceeded(0) => {
                                            hops.push((
                                                k - 1,
                                                Catchment::Site(fenrir_core::ids::SiteId(
                                                    hop_as.0 as u16,
                                                )),
                                            ));
                                        }
                                        // A mangled time-exceeded leaves this
                                        // hop Unknown but not the whole trace.
                                        _ => wire.note_decode_failure(),
                                    }
                                }
                                // Path ended before hop k: the probe reached
                                // the destination; deeper hops have no
                                // transit entity.
                                None => hops.push((k - 1, Catchment::Other)),
                            }
                        }
                        ProbeReply::Response(())
                    });
                    if let ProbeOutcome::Response(()) = outcome {
                        for &(k, c) in &hops {
                            row[k][n] = c.code();
                        }
                    }
                }
                runner.note_divergences(tables.drain_divergences());
                row
            },
        )?;
        let mut hop_series = vec![VectorSeries::new(sites, blocks.len()); self.max_hops];
        for (t, row) in rows {
            for (series, codes) in hop_series.iter_mut().zip(row) {
                series
                    .push(RoutingVector::from_codes(t, codes))
                    .expect("normalised times strictly increase");
            }
        }
        Ok(TracerouteResult {
            hop_series,
            blocks,
            health,
        })
    }
}

impl TracerouteResult {
    /// The paper's spatial gap-fill: a missing hop borrows the nearest
    /// viable hop's entity (within `limit` hops) for each destination and
    /// time. Returns the number of cells filled.
    pub fn fill_gaps(&mut self, limit: usize) -> usize {
        if self.hop_series.is_empty() {
            return 0;
        }
        let t_len = self.hop_series[0].len();
        let n_len = self.blocks.len();
        let hops = self.hop_series.len();
        let mut filled = 0;
        for ti in 0..t_len {
            for n in 0..n_len {
                let column: Vec<Option<u16>> = (0..hops)
                    .map(|k| {
                        let code = self.hop_series[k].get(ti).codes()[n];
                        (code != CODE_UNKNOWN).then_some(code)
                    })
                    .collect();
                for (k, cell) in column.iter().enumerate() {
                    if cell.is_none() {
                        if let Some(v) = nearest_viable(&column, k, limit) {
                            self.hop_series[k].get_mut(ti).codes_mut()[n] = v;
                            filled += 1;
                        }
                    }
                }
            }
        }
        filled
    }

    /// The series at hop `k` (1-based), as the paper's Figure 2 uses hop 3.
    pub fn hop(&self, k: usize) -> &VectorSeries {
        &self.hop_series[k - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenrir_netsim::topology::{Tier, TopologyBuilder};

    fn setup() -> (Topology, AsId) {
        let topo = TopologyBuilder {
            transit: 3,
            regional: 8,
            stubs: 40,
            blocks_per_stub: 2,
            seed: 31,
            multihome_prob: 0.5,
            ..Default::default()
        }
        .build();
        let src = topo.tier_members(Tier::Stub)[0];
        (topo, src)
    }

    fn days(n: i64) -> Vec<Timestamp> {
        (0..n).map(Timestamp::from_days).collect()
    }

    #[test]
    fn produces_one_series_per_hop() {
        let (topo, src) = setup();
        let c = TracerouteCampaign {
            source: src,
            max_hops: 5,
            hop_loss_prob: 0.0,
            filtered_frac: 0.0,
            ..Default::default()
        };
        let r = c.run(&topo, &Scenario::new(), &days(2));
        assert_eq!(r.hop_series.len(), 5);
        assert_eq!(r.blocks.len(), 80);
        for s in &r.hop_series {
            assert_eq!(s.len(), 2);
            assert_eq!(s.networks(), 80);
        }
    }

    #[test]
    fn hop1_is_an_upstream_of_the_source() {
        let (topo, src) = setup();
        let c = TracerouteCampaign {
            source: src,
            max_hops: 3,
            hop_loss_prob: 0.0,
            filtered_frac: 0.0,
            ..Default::default()
        };
        let r = c.run(&topo, &Scenario::new(), &days(1));
        let upstreams: Vec<u16> = topo
            .neighbors(src)
            .iter()
            .map(|&(n, _)| n.0 as u16)
            .collect();
        let hop1 = r.hop(1).get(0);
        let mut seen_any = false;
        for n in 0..hop1.len() {
            if let Catchment::Site(s) = hop1.get(n) {
                assert!(
                    upstreams.contains(&s.0),
                    "hop-1 entity {s:?} is not a neighbor of the source"
                );
                seen_any = true;
            }
        }
        assert!(seen_any);
    }

    #[test]
    fn own_blocks_terminate_immediately() {
        // Destinations inside the source AS have an empty path: every hop
        // reads Other ("delivered"), the paper's filterable local prefixes.
        let (topo, src) = setup();
        let c = TracerouteCampaign {
            source: src,
            max_hops: 3,
            hop_loss_prob: 0.0,
            filtered_frac: 0.0,
            ..Default::default()
        };
        let r = c.run(&topo, &Scenario::new(), &days(1));
        let own_block_positions: Vec<usize> = r
            .blocks
            .iter()
            .enumerate()
            .filter(|&(_, b)| topo.owner_of(*b) == Some(src))
            .map(|(i, _)| i)
            .collect();
        assert!(!own_block_positions.is_empty());
        for &n in &own_block_positions {
            assert_eq!(r.hop(1).get(0).get(n), Catchment::Other);
        }
    }

    #[test]
    fn filtering_produces_unknowns_and_fill_gaps_repairs() {
        let (topo, src) = setup();
        let c = TracerouteCampaign {
            source: src,
            max_hops: 6,
            hop_loss_prob: 0.15,
            filtered_frac: 0.0,
            ..Default::default()
        };
        let mut r = c.run(&topo, &Scenario::new(), &days(2));
        let unknown_before: usize = r
            .hop_series
            .iter()
            .flat_map(|s| s.vectors())
            .map(|v| v.len() - v.known_count())
            .sum();
        assert!(unknown_before > 0, "loss must produce gaps");
        let filled = r.fill_gaps(2);
        assert!(filled > 0);
        let unknown_after: usize = r
            .hop_series
            .iter()
            .flat_map(|s| s.vectors())
            .map(|v| v.len() - v.known_count())
            .sum();
        assert!(unknown_after < unknown_before);
    }

    #[test]
    fn deterministic_under_seed() {
        let (topo, src) = setup();
        let c = TracerouteCampaign {
            source: src,
            max_hops: 4,
            ..Default::default()
        };
        let a = c.run(&topo, &Scenario::new(), &days(2));
        let b = c.run(&topo, &Scenario::new(), &days(2));
        for (sa, sb) in a.hop_series.iter().zip(&b.hop_series) {
            for (va, vb) in sa.vectors().iter().zip(sb.vectors()) {
                assert_eq!(va, vb);
            }
        }
    }

    #[test]
    fn preference_change_shifts_hop_catchments() {
        // A third-party preference pin at the source's provider level must
        // visibly change which transit carries destinations at hop 2+.
        let (topo, src) = setup();
        let providers: Vec<AsId> = topo
            .neighbors(src)
            .iter()
            .filter(|&&(_, rel)| rel == fenrir_netsim::topology::Relationship::Provider)
            .map(|&(n, _)| n)
            .collect();
        if providers.len() < 2 {
            // Single-homed stub under this seed: nothing to steer; the
            // scenario builders always pick multihomed sources.
            return;
        }
        let mut sc = Scenario::new();
        // From day 2, the source pins everything to its second provider.
        sc.third_party_prefer(
            src,
            providers[1],
            Timestamp::from_days(2).as_secs(),
            i64::MAX,
        );
        let c = TracerouteCampaign {
            source: src,
            max_hops: 4,
            hop_loss_prob: 0.0,
            filtered_frac: 0.0,
            ..Default::default()
        };
        let r = c.run(&topo, &sc, &days(4));
        let hop1 = r.hop(1);
        // Count destinations via provider[1] at hop 1 before/after.
        let count_via = |v: &fenrir_core::vector::RoutingVector, asid: AsId| {
            (0..v.len())
                .filter(|&n| v.get(n) == Catchment::Site(fenrir_core::ids::SiteId(asid.0 as u16)))
                .count()
        };
        let before = count_via(hop1.get(1), providers[1]);
        let after = count_via(hop1.get(2), providers[1]);
        assert!(
            after > before,
            "pin must move destinations to provider {} (before {before}, after {after})",
            providers[1]
        );
    }
}
