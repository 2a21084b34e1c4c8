//! Retrying campaign executor shared by every measurement simulator.
//!
//! A campaign is a sequence of *sweeps* (one per observation time), each
//! probing every target once. `run_campaign` is the one sweep loop every
//! simulator runs: it resumes from the campaign's [`CampaignSink`], opens
//! each sweep, lets the fault plan's adversary rewrite the row, records
//! the durable checkpoint before the next sweep, and emits the rows in
//! time order. Inside a sweep, `CampaignRunner` adds the operational
//! machinery real measurement platforms need:
//!
//! * per-probe **retries** with capped exponential backoff in simulated
//!   time;
//! * per-sweep **probe budgets** and **deadlines** (simulated
//!   milliseconds) after which remaining targets go unmeasured;
//! * **quarantine** of persistently failing targets for a few sweeps, so
//!   dead targets stop eating budget;
//! * one [`CampaignHealth`] record per sweep — coverage, retries,
//!   quarantines, losses, decode failures — which downstream change
//!   detection consumes to gate alarms on data quality;
//! * application of an optional [`FaultPlan`], including re-normalising
//!   clock-skewed observation times back to the strict ordering
//!   `VectorSeries` requires.
//!
//! With the default [`RunnerConfig`] and no fault plan, the runner calls
//! each probe closure exactly once and adds no random draws, so legacy
//! `run()` entry points produce byte-identical series to the pre-runner
//! code.

use crate::checkpoint::{CampaignSink, ResumeState, SweepCheckpoint};
use crate::fault::{FaultPlan, FaultSession};
use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::series::VectorSeries;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;
use fenrir_netsim::adversary::AdversarySession;
use fenrir_netsim::rng::ChaCha8Rng;
use fenrir_wire::dns::MessageReader;
use fenrir_wire::ipv4::{protocol, Ipv4Header};
use fenrir_wire::udp::UdpHeader;
use std::fmt::Debug;

/// Execution policy for a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnerConfig {
    /// Retries per target after a failed attempt (0 = single attempt).
    pub max_retries: usize,
    /// Backoff before retry `n` is `base * 2^(n-1)`, capped below.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff interval.
    pub backoff_cap_ms: u64,
    /// Cost of one probe attempt on the sweep's simulated clock.
    pub attempt_cost_ms: u64,
    /// Maximum attempts per sweep (`None` = unlimited).
    pub probe_budget: Option<usize>,
    /// Sweep deadline on the simulated clock (`None` = unlimited).
    pub sweep_deadline_ms: Option<u64>,
    /// Quarantine a target after this many consecutive failed sweeps
    /// (`None` = never quarantine).
    pub quarantine_after: Option<usize>,
    /// How many sweeps a quarantined target sits out.
    pub quarantine_sweeps: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            max_retries: 0,
            backoff_base_ms: 500,
            backoff_cap_ms: 8_000,
            attempt_cost_ms: 1,
            probe_budget: None,
            sweep_deadline_ms: None,
            quarantine_after: None,
            quarantine_sweeps: 2,
        }
    }
}

impl RunnerConfig {
    /// Validate the configuration. Violations are configuration errors
    /// ([`fenrir_core::error::Error::Config`]), raised eagerly by
    /// `CampaignRunner::new` before any sweep runs.
    pub fn validate(&self) -> Result<()> {
        if self.backoff_cap_ms < self.backoff_base_ms {
            return Err(Error::Config {
                name: "backoff_cap_ms",
                message: format!(
                    "cap {} below base {}",
                    self.backoff_cap_ms, self.backoff_base_ms
                ),
            });
        }
        if self.probe_budget == Some(0) {
            return Err(Error::Config {
                name: "probe_budget",
                message: "a zero budget can never probe anything".into(),
            });
        }
        if self.quarantine_after == Some(0) {
            return Err(Error::Config {
                name: "quarantine_after",
                message: "must be at least 1 failed sweep".into(),
            });
        }
        Ok(())
    }

    /// Backoff before retry `n` (1-based), capped.
    fn backoff_ms(&self, retry: usize) -> u64 {
        let shift = (retry - 1).min(63) as u32;
        self.backoff_base_ms
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.backoff_cap_ms)
    }
}

/// What a probe closure observed for one attempt.
pub(crate) enum ProbeReply<T> {
    /// A usable classification (retries stop).
    Response(T),
    /// Nothing came back (retriable).
    NoResponse,
    /// A reply arrived but failed wire decoding or did not match the
    /// probe (retriable; counted in health).
    DecodeFailure,
}

/// Final verdict for one target in one sweep.
pub(crate) enum ProbeOutcome<T> {
    /// The target was classified.
    Response(T),
    /// The target stays Unknown this sweep.
    Unknown,
}

#[cfg(test)]
impl<T> ProbeOutcome<T> {
    /// The classification, if any.
    pub fn into_option(self) -> Option<T> {
        match self {
            ProbeOutcome::Response(v) => Some(v),
            ProbeOutcome::Unknown => None,
        }
    }
}

/// Handle passed to probe closures for wire-level fault injection.
///
/// With no active fault session, [`WireFault::corrupt`] is a no-op, so
/// closures can apply it unconditionally.
pub(crate) struct WireFault<'a> {
    session: Option<&'a mut FaultSession>,
    decode_failures: &'a mut usize,
}

impl WireFault<'_> {
    /// Possibly corrupt an encoded payload in place.
    pub fn corrupt(&mut self, bytes: &mut Vec<u8>) -> bool {
        match &mut self.session {
            Some(s) => s.corrupt(bytes),
            None => false,
        }
    }

    /// Record a decode failure observed *inside* a response that still
    /// classified (e.g. one hop of an otherwise-usable traceroute).
    pub fn note_decode_failure(&mut self) {
        *self.decode_failures += 1;
    }
}

/// Write a DNS message, which `dns` appends, inside UDP inside IPv4 into
/// `out`, replacing what it held: from `src` to `dst`, each an address
/// and a port.
pub(crate) fn write_dns(
    out: &mut Vec<u8>,
    (src, src_port): ([u8; 4], u16),
    (dst, dst_port): ([u8; 4], u16),
    dns: impl FnOnce(&mut Vec<u8>) -> fenrir_wire::Result<()>,
) {
    out.clear();
    Ipv4Header::new(protocol::UDP, src, dst)
        .write(out, |out| {
            UdpHeader { src_port, dst_port }.write(out, src, dst, dns)
        })
        .expect("a probe's datagram fits");
}

/// Read a DNS message in place from an IPv4 packet carrying UDP.
pub(crate) fn read_dns(packet: &[u8]) -> fenrir_wire::Result<(UdpHeader, MessageReader<'_>)> {
    let (ip, payload) = Ipv4Header::parse(packet)?;
    let (udp, dns) = UdpHeader::parse_in(&ip, payload)?;
    Ok((udp, MessageReader::new(dns)?))
}

/// Drives a campaign's sweeps: retries, budgets, quarantine, fault
/// application, and health accounting.
#[derive(Debug)]
pub(crate) struct CampaignRunner {
    cfg: RunnerConfig,
    session: Option<FaultSession>,
    consecutive_failures: Vec<usize>,
    /// Sweep index before which each target is quarantined (exclusive).
    quarantined_until: Vec<usize>,
    /// Current sweep index; `usize::MAX` before the first `begin_sweep`.
    obs: usize,
    sweep_clock_ms: u64,
    sweep_attempts: usize,
    health: Vec<CampaignHealth>,
}

impl CampaignRunner {
    /// Build a runner for `targets` targets over `observations` sweeps.
    fn new(
        cfg: &RunnerConfig,
        plan: Option<&FaultPlan>,
        targets: usize,
        observations: usize,
    ) -> Result<Self> {
        cfg.validate()?;
        let session = match plan {
            Some(p) => Some(p.session(targets, observations)?),
            None => None,
        };
        Ok(CampaignRunner {
            cfg: *cfg,
            session,
            consecutive_failures: vec![0; targets],
            quarantined_until: vec![0; targets],
            obs: usize::MAX,
            sweep_clock_ms: 0,
            sweep_attempts: 0,
            health: Vec::with_capacity(observations),
        })
    }

    /// Rebuild a runner mid-campaign from durable checkpoint state, so
    /// the next `begin_sweep` opens sweep `resume.next_sweep` and every
    /// cross-sweep mechanism (quarantine horizons, consecutive-failure
    /// streaks, the fault RNG stream) continues exactly where the killed
    /// run left it. State that does not fit the campaign (other targets,
    /// more sweeps than it has, a missing row or a row of another shape)
    /// is a configuration error, raised before any sweep runs.
    fn restore<Row: SweepRow>(
        cfg: &RunnerConfig,
        plan: Option<&FaultPlan>,
        shape: Row::Shape,
        observations: usize,
        resume: &ResumeState<Row>,
    ) -> Result<Self> {
        let targets = Row::targets(shape);
        let mut runner = CampaignRunner::new(cfg, plan, targets, observations)?;
        let misfit = |message| {
            Err(Error::Config {
                name: "resume",
                message,
            })
        };
        if resume.consecutive_failures.len() != targets || resume.quarantined_until.len() != targets
        {
            return misfit(format!(
                "checkpoint covers {} targets, campaign has {}",
                resume.consecutive_failures.len(),
                targets
            ));
        }
        if resume.next_sweep > observations
            || resume.health.len() != resume.next_sweep
            || resume.rows.len() != resume.next_sweep
        {
            return misfit(format!(
                "checkpoint claims {} completed sweeps ({} rows, {} health records) of {}",
                resume.next_sweep,
                resume.rows.len(),
                resume.health.len(),
                observations
            ));
        }
        if let Some(sweep) = resume.rows.iter().position(|row| !row.fits(shape)) {
            return misfit(format!(
                "row of sweep {sweep} does not have the campaign's shape {shape:?}"
            ));
        }
        runner.consecutive_failures = resume.consecutive_failures.clone();
        runner.quarantined_until = resume.quarantined_until.clone();
        runner.health = resume.health.clone();
        runner.health.reserve(observations - resume.next_sweep);
        runner.obs = resume.next_sweep.wrapping_sub(1);
        if let Some(s) = &mut runner.session {
            s.set_rng_word_pos(resume.fault_rng_pos);
        }
        Ok(runner)
    }

    /// Package the just-finished sweep as a durable checkpoint.
    /// `campaign_rng_pos` is the simulator RNG's word position after the
    /// sweep ([`ChaCha8Rng::get_word_pos`]).
    fn checkpoint<Row>(&self, row: Row, campaign_rng_pos: u64) -> SweepCheckpoint<Row> {
        SweepCheckpoint {
            sweep: self.obs,
            row,
            health: self
                .health
                .last()
                .cloned()
                .expect("begin_sweep before checkpoint"),
            consecutive_failures: self.consecutive_failures.clone(),
            quarantined_until: self.quarantined_until.clone(),
            campaign_rng_pos,
            fault_rng_pos: self.session.as_ref().map_or(0, |s| s.rng_word_pos()),
        }
    }

    /// Fold `n` detected-and-repaired incremental divergences into the
    /// open sweep's health record.
    pub fn note_divergences(&mut self, n: usize) {
        if n > 0 {
            self.health.last_mut().expect("sweep open").divergences += n;
        }
    }

    /// Whether the fault plan schedules an injected routing divergence
    /// for the sweep currently in progress.
    pub fn divergence_scheduled(&self) -> bool {
        self.session
            .as_ref()
            .is_some_and(|s| s.plan().divergence_at == Some(self.obs))
    }

    /// Start the next sweep at nominal time `time`.
    fn begin_sweep(&mut self, time: Timestamp) {
        self.obs = self.obs.wrapping_add(1);
        self.sweep_clock_ms = 0;
        self.sweep_attempts = 0;
        self.health
            .push(CampaignHealth::new(time, self.consecutive_failures.len()));
    }

    /// Probe one target, retrying per config. The closure performs one
    /// attempt — drawing from the *campaign's* RNG exactly as the
    /// fault-free code would — and reports what came back.
    pub fn probe<T>(
        &mut self,
        target: usize,
        mut attempt: impl FnMut(&mut WireFault<'_>) -> ProbeReply<T>,
    ) -> ProbeOutcome<T> {
        let obs = self.obs;
        debug_assert!(obs != usize::MAX, "begin_sweep before probe");
        if self.quarantined_until[target] > obs {
            self.health.last_mut().expect("sweep open").quarantined += 1;
            return ProbeOutcome::Unknown;
        }
        if let Some(s) = &self.session {
            if s.vp_absent(target, obs) {
                self.health.last_mut().expect("sweep open").churned_out += 1;
                return ProbeOutcome::Unknown;
            }
        }

        let max_attempts = self.cfg.max_retries + 1;
        let mut made = 0usize;
        let mut classified = None;
        while made < max_attempts {
            if let Some(budget) = self.cfg.probe_budget {
                if self.sweep_attempts >= budget {
                    self.health.last_mut().expect("sweep open").budget_exhausted = true;
                    // Runner-inflicted: does not count against the target.
                    return ProbeOutcome::Unknown;
                }
            }
            if let Some(deadline) = self.cfg.sweep_deadline_ms {
                if self.sweep_clock_ms >= deadline {
                    self.health
                        .last_mut()
                        .expect("sweep open")
                        .deadline_exceeded = true;
                    return ProbeOutcome::Unknown;
                }
            }
            if made > 0 {
                self.sweep_clock_ms += self.cfg.backoff_ms(made);
                self.health.last_mut().expect("sweep open").retries += 1;
            }
            made += 1;
            self.sweep_attempts += 1;
            self.sweep_clock_ms += self.cfg.attempt_cost_ms;
            self.health.last_mut().expect("sweep open").attempts += 1;

            let lost = match &mut self.session {
                Some(s) => s.attempt_lost(target, obs),
                None => false,
            };
            let reply = if lost {
                self.health.last_mut().expect("sweep open").lost += 1;
                ProbeReply::NoResponse
            } else {
                let health = self.health.last_mut().expect("sweep open");
                let mut wire = WireFault {
                    session: self.session.as_mut(),
                    decode_failures: &mut health.decode_failures,
                };
                attempt(&mut wire)
            };
            match reply {
                ProbeReply::Response(value) => {
                    let (dup, late) = match &mut self.session {
                        Some(s) => (s.duplicated(), s.delayed()),
                        None => (false, false),
                    };
                    let health = self.health.last_mut().expect("sweep open");
                    if dup {
                        health.duplicates += 1;
                    }
                    if late {
                        // Arrived after its usefulness window: counted,
                        // then treated as a lost attempt.
                        health.late += 1;
                        continue;
                    }
                    health.responses += 1;
                    self.consecutive_failures[target] = 0;
                    classified = Some(value);
                    break;
                }
                ProbeReply::NoResponse => {}
                ProbeReply::DecodeFailure => {
                    self.health.last_mut().expect("sweep open").decode_failures += 1;
                }
            }
        }

        match classified {
            Some(value) => ProbeOutcome::Response(value),
            None => {
                self.consecutive_failures[target] += 1;
                if let Some(after) = self.cfg.quarantine_after {
                    if self.consecutive_failures[target] >= after {
                        self.quarantined_until[target] = obs + 1 + self.cfg.quarantine_sweeps;
                        self.consecutive_failures[target] = 0;
                    }
                }
                ProbeOutcome::Unknown
            }
        }
    }

    /// Apply the fault plan's adversary (if any) to the sweep's assembled
    /// row, in place: after the probe loop (so honest health accounting
    /// is already done) and before the row is recorded. `history` holds
    /// the rows the campaign *recorded* so far, so replay-stale lies
    /// survive checkpoint resume bit-identically. Tampered cells are
    /// counted in the sweep's [`CampaignHealth::spoofed`]; they never
    /// count as responses, so coverage stays honest.
    fn tamper<Row: SweepRow>(&mut self, row: &mut Row, history: &[Row]) {
        let Some(adv) = self.session.as_ref().and_then(|s| s.adversary()) else {
            return;
        };
        let tampered = row.tamper(adv, self.obs, history);
        self.health.last_mut().expect("sweep open").spoofed += tampered;
    }

    /// Finish the campaign: apply clock skew to the sweeps' nominal
    /// times, restore strict time order, and return
    /// `(order, health)` where `order[k] = (original_sweep_index,
    /// normalised_time)` gives the emission order for series vectors.
    ///
    /// Without clock skew this is the identity order with unchanged
    /// times.
    fn finish(self) -> (Vec<(usize, Timestamp)>, Vec<CampaignHealth>) {
        let mut stamped: Vec<(usize, i64)> = self
            .health
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let skew = self.session.as_ref().map_or(0, |s| s.skew_for(i));
                (i, h.time.as_secs() + skew)
            })
            .collect();
        stamped.sort_by_key(|&(i, secs)| (secs, i));
        let mut order = Vec::with_capacity(stamped.len());
        let mut prev = i64::MIN;
        for (i, secs) in stamped {
            // `VectorSeries::push` requires strictly increasing times:
            // collapse ties and inversions left by the skew to +1s steps.
            let t = if prev != i64::MIN && secs <= prev {
                prev + 1
            } else {
                secs
            };
            prev = t;
            order.push((i, Timestamp::from_secs(t)));
        }
        let mut health = Vec::with_capacity(order.len());
        for &(i, t) in &order {
            let mut h = self.health[i].clone();
            h.time = t;
            health.push(h);
        }
        (order, health)
    }
}

/// A sweep's recorded row: catchment codes (`Vec<u16>`), traceroute's
/// per-hop code rows (`Vec<Vec<u16>>`) or RTT samples (`Vec<Option<f64>>`).
pub(crate) trait SweepRow: Clone {
    /// The dimensions every row of one campaign has.
    type Shape: Copy + Debug;
    /// Targets a campaign of this shape probes per sweep.
    fn targets(shape: Self::Shape) -> usize;
    /// Whether the row has `shape`.
    fn fits(&self, shape: Self::Shape) -> bool;
    /// Let `adv` rewrite the row of sweep `sweep`, which follows the
    /// recorded rows `history`; returns the number of cells it rewrote.
    fn tamper(&mut self, adv: &AdversarySession, sweep: usize, history: &[Self]) -> usize;
}

/// The row recorded `lag` sweeps before the one that follows `history`
/// (`None` before the campaign start).
fn past<Row>(history: &[Row], lag: usize) -> Option<&Row> {
    history.len().checked_sub(lag).and_then(|s| history.get(s))
}

impl SweepRow for Vec<u16> {
    type Shape = usize;
    fn targets(targets: usize) -> usize {
        targets
    }
    fn fits(&self, targets: usize) -> bool {
        self.len() == targets
    }
    fn tamper(&mut self, adv: &AdversarySession, sweep: usize, history: &[Self]) -> usize {
        let t = adv.apply_code_row(sweep, self, &|lag, n| past(history, lag).map(|r| r[n]));
        t.lied + t.mirrored + t.spoofed
    }
}

/// Shape `(hops, targets)`.
impl SweepRow for Vec<Vec<u16>> {
    type Shape = (usize, usize);
    fn targets((_, targets): (usize, usize)) -> usize {
        targets
    }
    fn fits(&self, (hops, targets): (usize, usize)) -> bool {
        self.len() == hops && self.iter().all(|hop| hop.len() == targets)
    }
    /// A compromised destination lies at every hop depth; replayed lies
    /// draw from the same hop's recorded history.
    fn tamper(&mut self, adv: &AdversarySession, sweep: usize, history: &[Self]) -> usize {
        let mut rewritten = 0;
        for (k, hop) in self.iter_mut().enumerate() {
            let t = adv.apply_code_row(sweep, hop, &|lag, n| past(history, lag).map(|r| r[k][n]));
            rewritten += t.lied + t.mirrored + t.spoofed;
        }
        rewritten
    }
}

impl SweepRow for Vec<Option<f64>> {
    type Shape = usize;
    fn targets(targets: usize) -> usize {
        targets
    }
    fn fits(&self, targets: usize) -> bool {
        self.len() == targets
    }
    fn tamper(&mut self, adv: &AdversarySession, sweep: usize, history: &[Self]) -> usize {
        let t = adv.apply_latency_row(sweep, self, &|lag, n| past(history, lag).map(|r| r[n]));
        t.lied + t.mirrored + t.spoofed
    }
}

/// A finished campaign: its rows in emission order, each at its
/// normalised time, and the health records aligned with them.
pub(crate) type Swept<Row> = (Vec<(Timestamp, Row)>, Vec<CampaignHealth>);

/// Run a campaign's sweeps over `times`, with every row of shape `shape`:
/// the one implementation of the resume contract.
///
/// If `sink` holds state from a killed run, the runner is restored from
/// it and `rng`, the campaign RNG as the simulator's prelude left it, is
/// seeked to the recorded position; completed sweeps are not re-probed.
/// Each remaining sweep calls `sweep(runner, rng, time, recorded)` to
/// probe one row, where `recorded` holds the rows of every earlier sweep.
/// That is all the cross-sweep state a checkpoint restores, so a
/// simulator whose state derives from these arguments resumes
/// bit-identically. The fault plan's adversary then rewrites the row,
/// and `sink` records it before the next sweep opens.
pub(crate) fn run_campaign<Row: SweepRow>(
    cfg: &RunnerConfig,
    faults: Option<&FaultPlan>,
    times: &[Timestamp],
    shape: Row::Shape,
    mut rng: ChaCha8Rng,
    sink: &mut dyn CampaignSink<Row>,
    mut sweep: impl FnMut(&mut CampaignRunner, &mut ChaCha8Rng, Timestamp, &[Row]) -> Row,
) -> Result<Swept<Row>> {
    let (mut runner, mut rows) = match sink.resume()? {
        Some(rs) => {
            let runner = CampaignRunner::restore(cfg, faults, shape, times.len(), &rs)?;
            rng.set_word_pos(u128::from(rs.campaign_rng_pos));
            (runner, rs.rows)
        }
        None => (
            CampaignRunner::new(cfg, faults, Row::targets(shape), times.len())?,
            Vec::with_capacity(times.len()),
        ),
    };
    for &t in &times[rows.len()..] {
        runner.begin_sweep(t);
        let mut row = sweep(&mut runner, &mut rng, t, &rows);
        runner.tamper(&mut row, &rows);
        if sink.keeps_checkpoints() {
            sink.record(runner.checkpoint(row.clone(), rng.get_word_pos() as u64))?;
        }
        rows.push(row);
    }
    let (order, health) = runner.finish();
    let mut rows: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    let emitted = order
        .into_iter()
        .map(|(sweep, t)| (t, rows[sweep].take().expect("finish emits each sweep once")))
        .collect();
    Ok((emitted, health))
}

/// The series of a campaign whose rows are catchment codes.
pub(crate) fn code_series(
    sites: SiteTable,
    networks: usize,
    rows: Vec<(Timestamp, Vec<u16>)>,
) -> VectorSeries {
    let mut series = VectorSeries::new(sites, networks);
    for (t, codes) in rows {
        series
            .push(RoutingVector::from_codes(t, codes))
            .expect("normalised times strictly increase");
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BurstyLoss, ClockSkew};

    fn times(n: usize) -> Vec<Timestamp> {
        (0..n as i64).map(Timestamp::from_days).collect()
    }

    /// Run a trivial campaign where targets `>= fail_from` never answer.
    fn trivial_campaign(
        cfg: &RunnerConfig,
        plan: Option<&FaultPlan>,
        targets: usize,
        sweeps: usize,
        fail_from: usize,
    ) -> (Vec<Vec<Option<u16>>>, Vec<CampaignHealth>) {
        let mut runner = CampaignRunner::new(cfg, plan, targets, sweeps).unwrap();
        let mut rows = Vec::new();
        for t in times(sweeps) {
            runner.begin_sweep(t);
            let mut row = Vec::with_capacity(targets);
            for n in 0..targets {
                let outcome = runner.probe(n, |_wire| {
                    if n >= fail_from {
                        ProbeReply::NoResponse
                    } else {
                        ProbeReply::Response(n as u16)
                    }
                });
                row.push(outcome.into_option());
            }
            rows.push(row);
        }
        let (_, health) = runner.finish();
        (rows, health)
    }

    #[test]
    fn default_config_probes_each_target_once() {
        let (rows, health) = trivial_campaign(&RunnerConfig::default(), None, 5, 3, 5);
        assert_eq!(rows.len(), 3);
        for h in &health {
            assert_eq!(h.targets, 5);
            assert_eq!(h.responses, 5);
            assert_eq!(h.attempts, 5);
            assert_eq!(h.retries, 0);
            assert_eq!(h.coverage(), 1.0);
        }
    }

    #[test]
    fn retries_are_counted_and_capped() {
        let cfg = RunnerConfig {
            max_retries: 3,
            ..RunnerConfig::default()
        };
        let (rows, health) = trivial_campaign(&cfg, None, 4, 2, 2);
        // Targets 2 and 3 never answer: 1 attempt for responders, 4 for
        // failures.
        assert_eq!(health[0].attempts, 2 + 2 * 4);
        assert_eq!(health[0].retries, 2 * 3);
        assert_eq!(health[0].responses, 2);
        assert_eq!(rows[0], vec![Some(0), Some(1), None, None]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = RunnerConfig {
            backoff_base_ms: 100,
            backoff_cap_ms: 350,
            ..RunnerConfig::default()
        };
        assert_eq!(cfg.backoff_ms(1), 100);
        assert_eq!(cfg.backoff_ms(2), 200);
        assert_eq!(cfg.backoff_ms(3), 350); // capped below 400
        assert_eq!(cfg.backoff_ms(10), 350);
    }

    #[test]
    fn budget_exhaustion_is_flagged_and_limits_attempts() {
        let cfg = RunnerConfig {
            probe_budget: Some(3),
            ..RunnerConfig::default()
        };
        let (rows, health) = trivial_campaign(&cfg, None, 6, 1, 6);
        assert!(health[0].budget_exhausted);
        assert_eq!(health[0].attempts, 3);
        // Unprobed targets stay Unknown.
        assert_eq!(rows[0].iter().filter(|c| c.is_some()).count(), 3);
    }

    #[test]
    fn deadline_stops_a_sweep() {
        let cfg = RunnerConfig {
            max_retries: 4,
            backoff_base_ms: 1_000,
            backoff_cap_ms: 1_000,
            sweep_deadline_ms: Some(2_500),
            ..RunnerConfig::default()
        };
        // Single never-answering target: backoffs blow the deadline
        // mid-retry; later targets are skipped.
        let (_, health) = trivial_campaign(&cfg, None, 3, 1, 0);
        assert!(health[0].deadline_exceeded);
        assert!(health[0].attempts < 15, "{}", health[0].attempts);
    }

    #[test]
    fn persistent_failures_get_quarantined() {
        let cfg = RunnerConfig {
            quarantine_after: Some(2),
            quarantine_sweeps: 3,
            ..RunnerConfig::default()
        };
        let (_, health) = trivial_campaign(&cfg, None, 4, 8, 2);
        // Targets 2,3 fail sweeps 0-1, sit out sweeps 2-4, fail 5-6,
        // sit out 7.
        assert_eq!(health[0].quarantined, 0);
        assert_eq!(health[1].quarantined, 0);
        for h in &health[2..5] {
            assert_eq!(h.quarantined, 2, "at {:?}", h.time);
            assert_eq!(h.attempts, 2); // only the healthy targets probed
        }
        assert_eq!(health[5].quarantined, 0);
        assert_eq!(health[7].quarantined, 2);
    }

    #[test]
    fn quarantined_target_that_recovers_is_readmitted() {
        let cfg = RunnerConfig {
            quarantine_after: Some(2),
            quarantine_sweeps: 2,
            ..RunnerConfig::default()
        };
        // Target 0 is dark for sweeps 0-3 (quarantined for 2-3), then
        // comes back for good; target 1 is always healthy.
        let mut runner = CampaignRunner::new(&cfg, None, 2, 10).unwrap();
        let mut rows = Vec::new();
        for (sweep, t) in times(10).into_iter().enumerate() {
            runner.begin_sweep(t);
            let mut row = Vec::new();
            for n in 0..2 {
                let outcome = runner.probe(n, |_| {
                    if n == 0 && sweep < 4 {
                        ProbeReply::NoResponse
                    } else {
                        ProbeReply::Response(7u16)
                    }
                });
                row.push(outcome.into_option());
            }
            rows.push(row);
        }
        let (_, health) = runner.finish();
        // Probation window: fails 0-1, sits out 2-3.
        assert_eq!(health[2].quarantined, 1);
        assert_eq!(health[3].quarantined, 1);
        // Re-admitted at sweep 4: probed again, answers, and stays in.
        for (sweep, h) in health.iter().enumerate().skip(4) {
            assert_eq!(
                h.quarantined, 0,
                "sweep {sweep} must probe the recovered VP"
            );
            assert_eq!(h.responses, 2, "sweep {sweep}");
            assert_eq!(rows[sweep][0], Some(7));
        }
    }

    #[test]
    fn persistently_failing_target_stays_out() {
        let cfg = RunnerConfig {
            quarantine_after: Some(2),
            quarantine_sweeps: 3,
            ..RunnerConfig::default()
        };
        // Target 1 of 3 never answers: it must cycle fail -> quarantine
        // -> brief re-probe -> quarantine again, indefinitely, and never
        // look healthy.
        let (rows, health) = trivial_campaign(&cfg, None, 3, 12, 1);
        // Fails 0-1, out 2-4, fails 5-6, out 7-9, fails 10-11.
        for sweep in [2, 3, 4, 7, 8, 9] {
            assert_eq!(health[sweep].quarantined, 2, "sweep {sweep}");
        }
        for sweep in [0, 1, 5, 6, 10, 11] {
            assert_eq!(health[sweep].quarantined, 0, "sweep {sweep}");
        }
        for (sweep, row) in rows.iter().enumerate() {
            assert_eq!(row[1], None, "sweep {sweep} must never classify it");
            assert_eq!(row[2], None);
            assert_eq!(row[0], Some(0));
        }
    }

    #[test]
    fn retries_recover_bursty_loss() {
        let loss = BurstyLoss {
            p_enter_bad: 0.1,
            p_exit_bad: 0.3,
            loss_good: 0.4,
            loss_bad: 0.9,
        };
        let plan = FaultPlan::new(77).with_bursty_loss(loss);
        let none = RunnerConfig::default();
        let three = RunnerConfig {
            max_retries: 3,
            ..RunnerConfig::default()
        };
        let (_, h0) = trivial_campaign(&none, Some(&plan), 40, 20, 40);
        let (_, h3) = trivial_campaign(&three, Some(&plan), 40, 20, 40);
        let cov0 = fenrir_core::health::mean_coverage(&h0);
        let cov3 = fenrir_core::health::mean_coverage(&h3);
        assert!(
            cov3 > cov0 + 0.15,
            "retries should lift coverage: {cov0} -> {cov3}"
        );
        assert!(h3.iter().map(|h| h.retries).sum::<usize>() > 0);
    }

    #[test]
    fn skewed_times_are_renormalised_strictly_increasing() {
        // Skew far larger than the 1-day cadence forces reordering.
        let plan = FaultPlan::new(5).with_clock_skew(ClockSkew {
            max_skew_secs: 3 * 86_400,
        });
        let mut runner = CampaignRunner::new(&RunnerConfig::default(), Some(&plan), 2, 10).unwrap();
        for t in times(10) {
            runner.begin_sweep(t);
            for n in 0..2 {
                let _ = runner.probe(n, |_| ProbeReply::Response(0u16));
            }
        }
        let (order, health) = runner.finish();
        assert_eq!(order.len(), 10);
        let mut seen: Vec<usize> = order.iter().map(|&(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        for pair in order.windows(2) {
            assert!(pair[1].1 > pair[0].1, "times must strictly increase");
        }
        for (k, &(_, t)) in order.iter().enumerate() {
            assert_eq!(health[k].time, t);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = RunnerConfig {
            backoff_base_ms: 100,
            backoff_cap_ms: 50,
            ..RunnerConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(RunnerConfig {
            probe_budget: Some(0),
            ..RunnerConfig::default()
        }
        .validate()
        .is_err());
        assert!(RunnerConfig {
            quarantine_after: Some(0),
            ..RunnerConfig::default()
        }
        .validate()
        .is_err());
    }
}
