//! Byzantine-resilient trust weighting for vantage-point populations.
//!
//! The detection pipeline (similarity Φ, [`ChangeDetector`]) implicitly
//! trusts every vantage point. A measurement substrate does not deserve
//! that: VPs get compromised and lie about their catchment, sybil
//! operators clone one view under many identities, and off-path attackers
//! inject replies for VPs that never probed. [`TrustModel`] scores VPs by
//! *cross-VP agreement* over a sliding window and turns those scores into
//! weights for the similarity matrix and the change detector, so a
//! bounded fraction of byzantine VPs (target: f < 1/3 of the voting
//! weight, evenly scattered across catchments) can neither fabricate a
//! mode transition nor suppress a real one.
//!
//! The mechanism is deliberately simple and auditable:
//!
//! * **Corroboration.** A VP's claimed catchment *flip* only counts when
//!   the majority (by identity-capped weight) of the other VPs that
//!   shared its previous catchment also moved. Routing changes move whole
//!   catchments; a lone or minority flip is more likely a lie than a
//!   routing event, so it is excluded from that step's Φ.
//! * **Non-movement is also a claim.** When a VP's group overwhelmingly
//!   moved and it did not, it is excluded too (a constant or stale liar
//!   would otherwise dilute a real event), and it is marked as owing a
//!   *catch-up flip*: if it later "discovers" the move on its own, that
//!   echo is excluded as well instead of registering a second event.
//! * **Recurrence.** Routing modes recur — that is the paper's whole
//!   point — so a flip *back* to a catchment the VP itself recently
//!   reported while trusted is self-corroborating even when the group
//!   vote fails. Without this rule, liars parked inside a catchment
//!   could vote-stuff its group and suppress a genuine recovery (the
//!   minority of VPs returning to a restored site). The returning VP is
//!   included in Φ but still charged a disagreement, and the rule only
//!   applies if its *previous* step was trusted — so a fabricate-then-
//!   "return" ping-pong stays excluded and walks into quarantine.
//! * **Quarantine.** Each VP keeps its last `window` verdicts as one
//!   disagreement bit per sweep in a `u64`, newest in bit 0
//!   ([`TrustModel::suspicion`] counts them); persistent disagreement
//!   earns strikes and then quarantine (weight 0 everywhere, no vote).
//!   Quarantined VPs that behave consistently for a probation period are
//!   re-admitted.
//! * **Identity caps.** When the caller knows VP identities (an AS, a
//!   /24, an account), the *voting* weight of each identity is split
//!   among its VPs, so a sybil bloc votes once no matter how many clones
//!   it registers. Caps apply to voting only — Φ weights are untouched,
//!   so a clean population produces bit-identical detection results.
//!
//! [`detect_trusted`] wires it all together: trust-weighted per-step Φ
//! fed through [`ChangeDetector::detect_from_steps`], gated by both
//! measurement coverage and the surviving trusted fraction, with
//! exclusions surfaced in [`CampaignHealth::distrusted`].

use crate::detect::{gate, ChangeDetector, GatedDetection, SuppressReason};
use crate::error::{Error, Result};
use crate::health::CampaignHealth;
use crate::series::VectorSeries;
use crate::similarity::{phi, phi_excluding, UnknownPolicy};
use crate::vector::{RoutingVector, CODE_ERR, CODE_UNKNOWN};
use crate::weight::Weights;
use std::collections::HashMap;

/// Tuning for [`TrustModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustConfig {
    /// Sliding-window length (in observations, 1..=64: one bit each in a
    /// `u64`) over which disagreements are remembered, and for how long
    /// an owed catch-up flip is tracked.
    pub window: usize,
    /// Fraction trimmed from each tail of the per-VP flip indicators
    /// when robustly estimating the population-wide movement rate.
    pub trim_frac: f64,
    /// A VP whose windowed disagreement rate reaches this threshold earns
    /// a strike. The rate is normalised by `window` capacity, so a single
    /// disagreement in a long window never strikes.
    pub suspicion_threshold: f64,
    /// Consecutive strikes before quarantine.
    pub quarantine_strikes: usize,
    /// Consecutive agreeing observations a quarantined VP must produce
    /// before re-admission.
    pub probation: usize,
    /// Minimum fraction of total base weight that must remain trusted for
    /// a step (or a whole run) to support a detection verdict.
    pub min_trusted_frac: f64,
    /// When at least this fraction of the population is excluded in one
    /// step for *uncorroborated flips*, the step is reported as
    /// [contested](ContestedStep): the group vote itself may have been
    /// captured (a super-minority of coordinated liars out-voting honest
    /// movers), so a transition could be hiding in the excluded mass.
    pub contested_frac: f64,
}

impl Default for TrustConfig {
    fn default() -> Self {
        TrustConfig {
            window: 8,
            trim_frac: 0.25,
            suspicion_threshold: 0.3,
            quarantine_strikes: 2,
            probation: 3,
            min_trusted_frac: 0.5,
            contested_frac: 0.15,
        }
    }
}

impl TrustConfig {
    /// Reject configurations outside their documented domains.
    pub fn validate(&self) -> Result<()> {
        if !(1..=64).contains(&self.window) {
            return Err(Error::Config {
                name: "window",
                message: format!("must lie in [1, 64], got {}", self.window),
            });
        }
        if !(0.0..0.5).contains(&self.trim_frac) {
            return Err(Error::Config {
                name: "trim_frac",
                message: format!("must lie in [0, 0.5), got {}", self.trim_frac),
            });
        }
        if !(0.0..=1.0).contains(&self.suspicion_threshold) || self.suspicion_threshold == 0.0 {
            return Err(Error::Config {
                name: "suspicion_threshold",
                message: format!("must lie in (0, 1], got {}", self.suspicion_threshold),
            });
        }
        if self.quarantine_strikes == 0 {
            return Err(Error::Config {
                name: "quarantine_strikes",
                message: "must be at least 1".into(),
            });
        }
        if self.probation == 0 {
            return Err(Error::Config {
                name: "probation",
                message: "must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.min_trusted_frac) {
            return Err(Error::Config {
                name: "min_trusted_frac",
                message: format!("must lie in [0, 1], got {}", self.min_trusted_frac),
            });
        }
        if !(0.0..=1.0).contains(&self.contested_frac) || self.contested_frac == 0.0 {
            return Err(Error::Config {
                name: "contested_frac",
                message: format!("must lie in (0, 1], got {}", self.contested_frac),
            });
        }
        Ok(())
    }
}

/// The mean of a multiset of `zeros` 0.0s and `ones` 1.0s after
/// dropping the `trim_frac` smallest and largest fractions — the classic
/// robust location estimator. Sorted, the ones occupy the tail, so the
/// trimmed sum is an interval-overlap count and no sort is needed; the
/// tests' general `trimmed_mean` matches it bit for bit. Over-trimming
/// returns the median, and empty input 0.
fn trimmed_indicator_mean(zeros: usize, ones: usize, trim_frac: f64) -> f64 {
    let len = zeros + ones;
    if len == 0 {
        return 0.0;
    }
    let k = (len as f64 * trim_frac.clamp(0.0, 0.5)).floor() as usize;
    if 2 * k >= len {
        // Over-trimming falls back to the median element v[len / 2].
        return if len / 2 >= zeros { 1.0 } else { 0.0 };
    }
    let kept = len - 2 * k;
    let ones_kept = (len - k).saturating_sub(zeros.max(k));
    ones_kept as f64 / kept as f64
}

/// Per-VP trust status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Trusted,
    Quarantined,
}

/// [`TrustModel::slot_of`] entry for a value with no cohort this sweep.
const NO_SLOT: u32 = u32::MAX;

/// Index of `code` in [`TrustModel::slot_of`]: the three sentinel codes
/// at the top of the `u16` range wrap to 0..3, so the table only grows
/// as far as the largest site id a row holds.
fn slot_key(code: u16) -> usize {
    usize::from(code.wrapping_add(3))
}

/// The slot of `code` in this sweep's `cohorts`, opened on first sight.
#[inline]
fn slot(slot_of: &mut Vec<u32>, cohorts: &mut Vec<Cohort>, code: u16) -> usize {
    match slot_of.get(slot_key(code)) {
        Some(&s) if s != NO_SLOT => s as usize,
        _ => open_slot(slot_of, cohorts, code),
    }
}

/// [`slot`] for a value seen first this sweep.
#[cold]
#[inline(never)]
fn open_slot(slot_of: &mut Vec<u32>, cohorts: &mut Vec<Cohort>, code: u16) -> usize {
    let k = slot_key(code);
    if k >= slot_of.len() {
        slot_of.resize(k + 1, NO_SLOT);
    }
    let s = cohorts.len();
    cohorts.push(Cohort::new(code));
    slot_of[k] = s as u32;
    s
}

/// Per-sweep tally of one cohort: the trusted VPs, known on both sides of
/// the step, that reported the same previous value.
#[derive(Debug, Clone)]
struct Cohort {
    /// The previous value the members share.
    code: u16,
    /// How many members the cohort has, and how many of them flipped.
    members: u32,
    movers: u32,
    /// Identity-capped voting weight of the members and of the movers,
    /// each summed in VP index order (under unit vote weights, the
    /// counts).
    total: f64,
    moved: f64,
    /// Whether a member that stayed may be corroborated, so the stayers
    /// need a verdict too.
    flagged: bool,
    /// The movers' heaviest destination, once a verdict has asked.
    best: Option<Option<u16>>,
    /// Scratch: this value's tally as a destination while one cohort's
    /// heaviest destination is computed.
    dest_w: f64,
}

impl Cohort {
    fn new(code: u16) -> Self {
        Cohort {
            code,
            members: 0,
            movers: 0,
            total: 0.0,
            moved: 0.0,
            flagged: false,
            best: None,
            dest_w: 0.0,
        }
    }
}

/// Cross-VP agreement scoring over a sliding window.
///
/// Feed one row of catchment codes per sweep via
/// [`observe`](Self::observe); read back per-step exclusions, quarantine
/// state, and the step's trust-weighted Φ ([`step_phi`](Self::step_phi)).
#[derive(Debug, Clone)]
pub struct TrustModel {
    cfg: TrustConfig,
    /// Identity-capped voting weights (never used for Φ).
    vote_w: Vec<f64>,
    /// Every voting weight is exactly 1.0, so cohort tallies are counts.
    unit_votes: bool,
    /// The largest voting weight, for the per-cohort prefilter.
    max_vote: f64,
    prev: Option<Vec<u16>>,
    /// Each VP's last `window` verdicts, one bit each (1 = disagreed),
    /// newest in bit 0; bits at and above `window` are always clear.
    win: Vec<u64>,
    strikes: Vec<usize>,
    status: Vec<Status>,
    clean_streak: Vec<usize>,
    /// Whether each VP is excluded from the *current* step's Φ.
    excluded: Vec<bool>,
    /// Whether each VP is calm: trusted, unexcluded, with a clear window
    /// and no catch-up flip owed. A calm VP unknown on a side of the step
    /// takes a verdict that changes nothing.
    calm: Vec<bool>,
    /// Whether each VP is calm and its hist ring is saturated with
    /// `hist_last`. A quiet VP's verdict changes nothing unless it flips,
    /// reports a value other than `hist_last`, or its cohort moved. Both
    /// flags change only in a verdict.
    quiet: Vec<bool>,
    quiet_count: usize,
    /// Scratch: cohort slot of each value seen this sweep, by
    /// [`slot_key`]; [`NO_SLOT`] otherwise.
    slot_of: Vec<u32>,
    /// Scratch: this sweep's cohorts, by slot.
    cohorts: Vec<Cohort>,
    /// Scratch: per VP, whether it counts toward its cohort this sweep,
    /// and whether it needs a verdict.
    counted: Vec<bool>,
    need: Vec<bool>,
    /// Scratch: the VPs that need a verdict this sweep, in index order
    /// (the quiet stayers of a moved cohort last); only the first
    /// entries, as many as the tally pass selects, are live.
    cand: Vec<u32>,
    /// Scratch: the trusted VPs known on both sides that flipped this
    /// sweep, in index order.
    movers: Vec<u32>,
    /// `suspicion_threshold * window`, precomputed: the strike test
    /// compares the windowed disagreement *count* against this once per
    /// VP per sweep, avoiding a division on the hot path.
    strike_bar: f64,
    /// Recent values each VP reported while trusted, for the recurrence
    /// rule: one flat `n × window` block of rings — contiguous, so the
    /// per-VP sweep loop streams instead of chasing one heap pointer per
    /// VP (slots past `hist_len` are stale and never read).
    hist: Vec<u16>,
    hist_len: Vec<u32>,
    hist_pos: Vec<u32>,
    /// The value of each VP's most recent hist push, and how many
    /// consecutive pushes held it: once a ring is uniformly one value,
    /// pushing that value again is a no-op, which is every VP on every
    /// stable sweep.
    hist_last: Vec<u16>,
    hist_run: Vec<u32>,
    /// How many trusted VPs the current step excluded for uncorroborated
    /// flips — the contested-step signal.
    fabricated: usize,
    /// How many VPs the current step excluded in total (quarantined or
    /// step-disagreeing) — maintained so per-step callers need not
    /// re-scan the exclusion flags.
    excluded_now: usize,
    /// The value each pending catch-up flip is owed *to* (the modal
    /// destination of the VP's cohort when it failed to move). Only a
    /// late flip to this value is an echo; a corroborated flip anywhere
    /// else is a genuine new transition.
    pending_to: Vec<Option<u16>>,
    /// Sweep index until which an owed catch-up flip is tracked (0 =
    /// none owed).
    pending_until: Vec<usize>,
    sweep: usize,
}

impl TrustModel {
    /// Build a model for the population described by `base` weights.
    ///
    /// `identities`, when given (one per VP), caps each identity's total
    /// *voting* weight at its base share: the voting weight of VP `v`
    /// becomes `base[v] / multiplicity(identity[v])`.
    pub fn new(cfg: TrustConfig, base: &Weights, identities: Option<&[u64]>) -> Result<Self> {
        cfg.validate()?;
        let n = base.len();
        let vote_w: Vec<f64> = match identities {
            Some(ids) => {
                if ids.len() != n {
                    return Err(Error::ShapeMismatch {
                        what: "identities",
                        expected: n,
                        actual: ids.len(),
                    });
                }
                let mut mult: HashMap<u64, f64> = HashMap::new();
                for &id in ids {
                    *mult.entry(id).or_insert(0.0) += 1.0;
                }
                (0..n).map(|v| base.get(v) / mult[&ids[v]]).collect()
            }
            None => base.values().to_vec(),
        };
        Ok(TrustModel {
            cfg,
            unit_votes: vote_w.iter().all(|&w| w == 1.0),
            max_vote: vote_w.iter().copied().fold(0.0, f64::max),
            vote_w,
            prev: None,
            win: vec![0; n],
            strikes: vec![0; n],
            status: vec![Status::Trusted; n],
            clean_streak: vec![0; n],
            excluded: vec![false; n],
            calm: vec![false; n],
            quiet: vec![false; n],
            quiet_count: 0,
            slot_of: Vec::new(),
            cohorts: Vec::new(),
            counted: vec![false; n],
            need: vec![false; n],
            cand: vec![0; n],
            movers: Vec::with_capacity(n),
            excluded_now: 0,
            strike_bar: cfg.suspicion_threshold * cfg.window as f64,
            hist: vec![0; n * cfg.window],
            hist_len: vec![0; n],
            hist_pos: vec![0; n],
            hist_last: vec![0; n],
            hist_run: vec![0; n],
            fabricated: 0,
            pending_to: vec![None; n],
            pending_until: vec![0; n],
            sweep: 0,
        })
    }

    /// Number of vantage points.
    pub fn len(&self) -> usize {
        self.vote_w.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.vote_w.is_empty()
    }

    /// Feed one observation row. `known` says whether a value is a real
    /// observation (unknown values carry no agreement evidence either
    /// way). Updates per-step exclusions, suspicion, and quarantine.
    ///
    /// Two passes. The tally pass visits every VP: it adds each trusted
    /// VP known on both sides to the cohort of its previous value, and
    /// selects the VPs whose state can change this step. The verdict pass
    /// judges only those. Every other VP is calm and unknown on a side of
    /// the step, or quiet, stayed on its settled value and its cohort did
    /// not move (see `calm` and `quiet`): its verdict would change
    /// nothing.
    pub fn observe(&mut self, row: &[u16], known: impl Fn(u16) -> bool) -> Result<()> {
        let n = self.len();
        if row.len() != n {
            return Err(Error::ShapeMismatch {
                what: "observation row",
                expected: n,
                actual: row.len(),
            });
        }
        self.fabricated = 0;
        let Some(mut prev) = self.prev.take() else {
            for (v, &c) in row.iter().enumerate() {
                if known(c) {
                    self.push_hist(v, c);
                }
            }
            self.prev = Some(row.to_vec());
            return Ok(());
        };
        self.sweep += 1;

        if self.quiet_count == n {
            // Steady-state shortcut. Every VP is quiet: trusted and
            // unexcluded, its disagreement window clear (pushing another
            // agreement is a no-op), its hist ring uniformly its settled
            // value `hist_last` (pushing that value again is a no-op),
            // and no catch-up flip owed. If every known cell of this row
            // matches `hist_last` and no VP known on both sides flipped,
            // not one piece of state changes: the whole update is this
            // read-only scan, the overwhelmingly common sweep of a
            // healthy campaign. The flip test matters for a VP whose
            // previous cell was a known value it never pushed (the cell
            // before that was unknown) and that returns to `hist_last`:
            // the passes below charge it a disagreement. Branch-free, so
            // the compiler vectorizes it, as the tally pass is.
            let (prev_n, row_n, last) = (&prev[..n], &row[..n], &self.hist_last[..n]);
            let mut unchanged = true;
            for v in 0..n {
                let (p, c) = (prev_n[v], row_n[v]);
                unchanged &= !known(c) | ((c == last[v]) & ((p == c) | !known(p)));
            }
            if unchanged {
                prev.clear();
                prev.extend_from_slice(row);
                self.prev = Some(prev);
                return Ok(());
            }
        }

        let (selected, population_rate) = self.tally(&prev, row, &known);
        let cand = std::mem::take(&mut self.cand);
        let mut excluded_now = 0usize;
        for &v in &cand[..selected] {
            let v = v as usize;
            self.judge(v, &prev, row, &known, population_rate);
            excluded_now += usize::from(self.excluded[v]);
        }
        self.cand = cand;
        // A VP left out of the verdict pass is quiet, so unexcluded.
        self.excluded_now = excluded_now;
        for g in &self.cohorts {
            self.slot_of[slot_key(g.code)] = NO_SLOT;
        }
        self.cohorts.clear();
        // Reuse the previous-row buffer instead of allocating per sweep.
        prev.clear();
        prev.extend_from_slice(row);
        self.prev = Some(prev);
        Ok(())
    }

    /// The tally pass. Fills the cohorts, the mover list and the first
    /// entries of `cand` with the VPs that need a verdict; returns how
    /// many it selected, and the population-wide movement rate.
    fn tally(&mut self, prev: &[u16], row: &[u16], known: &impl Fn(u16) -> bool) -> (usize, f64) {
        let n = row.len();
        let TrustModel {
            status,
            calm,
            quiet,
            hist_last,
            vote_w,
            slot_of,
            cohorts,
            need,
            counted,
            cand,
            movers,
            unit_votes,
            ..
        } = self;
        let (status, calm, quiet) = (&status[..n], &calm[..n], &quiet[..n]);
        let (hist_last, vote_w) = (&hist_last[..n], &vote_w[..n]);
        let (prev, row, counted) = (&prev[..n], &row[..n], &mut counted[..n]);
        // Which VPs count toward their cohort (trusted, known on both
        // sides), and which need a verdict: branch-free, so the compiler
        // vectorizes it.
        let need = &mut need[..n];
        for v in 0..n {
            let (p, c) = (prev[v], row[v]);
            let both = known(p) & known(c);
            counted[v] = both & (status[v] == Status::Trusted);
            let settled = quiet[v] & (c == p) & (c == hist_last[v]);
            need[v] = !calm[v] | (both & !settled);
        }
        // Every VP visits the cohort of its previous value, counted or
        // not, so the loop does not branch on the unpredictable unknown
        // cells. The sums accumulate in VP index order, so they have the
        // bits of one sum per cohort.
        let mut tallied = 0usize;
        for v in 0..n {
            let s = slot(slot_of, cohorts, prev[v]);
            let g = &mut cohorts[s];
            g.members += u32::from(counted[v]);
            if !*unit_votes {
                g.total += if counted[v] { vote_w[v] } else { 0.0 };
            }
            tallied += usize::from(counted[v]);
        }
        // The VPs that need a verdict, in index order, gathered without a
        // branch per VP.
        let mut selected = 0;
        for (v, &flag) in need.iter().enumerate() {
            cand[selected] = v as u32;
            selected += usize::from(flag);
        }
        // A mover flipped, so it is among them.
        movers.clear();
        for &v in &cand[..selected] {
            let v = v as usize;
            if counted[v] & (row[v] != prev[v]) {
                movers.push(v as u32);
                let g = &mut cohorts[slot_of[slot_key(prev[v])] as usize];
                g.movers += 1;
                g.moved += vote_w[v];
            }
        }
        // Robust population-wide movement rate, for VPs whose cohort is
        // too small to out-vote them (a singleton would otherwise
        // corroborate its own lie). The trimmed mean over per-VP flip
        // indicators discards the tails, so a minority of liars cannot
        // drag the rate across the majority threshold. Indicators are
        // 0/1, so the trimmed mean reduces to counting — no per-step
        // sort (this runs once per sweep on the hot detection path).
        let moved_count = self.movers.len();
        let population_rate =
            trimmed_indicator_mean(tallied - moved_count, moved_count, self.cfg.trim_frac);

        // A stayer `v` is corroborated when `moved > 0.5 * (total -
        // vote_w[v])`, or, with no other weight in its cohort, when the
        // population rate passes 0.5. Both tests only grow easier as
        // `vote_w[v]` grows, so `max_vote` bounds them per cohort; under
        // unit vote weights the bound is each stayer's exact test.
        let mut any_flagged = false;
        for g in &mut self.cohorts {
            if self.unit_votes {
                g.total = f64::from(g.members);
            }
            g.flagged = g.members > g.movers
                && (g.moved > 0.5 * (g.total - self.max_vote)
                    || (population_rate > 0.5 && self.max_vote >= g.total));
            any_flagged |= g.flagged;
        }
        if any_flagged {
            // The quiet stayers of a flagged cohort: exactly its
            // members the flags above did not select.
            for v in 0..n {
                let (p, c) = (prev[v], row[v]);
                if self.quiet[v]
                    && c == p
                    && c == self.hist_last[v]
                    && known(c)
                    && self.cohorts[self.slot_of[slot_key(p)] as usize].flagged
                {
                    self.cand[selected] = v as u32;
                    selected += 1;
                }
            }
        }
        (selected, population_rate)
    }

    /// The heaviest destination among the movers of cohort `s`: their
    /// tallies grow in VP index order, and a destination takes the lead
    /// only with a strictly greater tally, so the winner is
    /// deterministic. Computed once per cohort and sweep.
    fn best_dest(&mut self, s: usize, prev: &[u16], row: &[u16]) -> Option<u16> {
        if let Some(best) = self.cohorts[s].best {
            return best;
        }
        let code = self.cohorts[s].code;
        let mut best: Option<(u16, f64)> = None;
        for i in 0..self.movers.len() {
            let m = self.movers[i] as usize;
            if prev[m] != code {
                continue;
            }
            let d = slot(&mut self.slot_of, &mut self.cohorts, row[m]);
            self.cohorts[d].dest_w += self.vote_w[m];
            let w = self.cohorts[d].dest_w;
            if best.is_none_or(|(_, bw)| w > bw) {
                best = Some((row[m], w));
            }
        }
        for &m in &self.movers {
            let m = m as usize;
            if prev[m] == code {
                let d = self.slot_of[slot_key(row[m])] as usize;
                self.cohorts[d].dest_w = 0.0;
            }
        }
        let best = best.map(|(t, _)| t);
        self.cohorts[s].best = Some(best);
        best
    }

    /// One VP's verdict for the current step.
    fn judge(
        &mut self,
        v: usize,
        prev: &[u16],
        row: &[u16],
        known: &impl Fn(u16) -> bool,
        population_rate: f64,
    ) {
        let quarantined = self.status[v] == Status::Quarantined;
        let was_excluded = self.excluded[v];
        self.excluded[v] = quarantined;
        if !known(prev[v]) || !known(row[v]) {
            // Absent either side: no agreement evidence.
            if !quarantined {
                self.push_disagreement(v, false);
            }
        } else {
            let flipped = row[v] != prev[v];
            let cohort = match self.slot_of.get(slot_key(prev[v])) {
                Some(&s) if s != NO_SLOT => Some(s as usize),
                _ => None,
            };
            // Corroboration excludes the VP's own vote and demands a
            // strict majority of the *rest* of its previous catchment:
            // an exact split never corroborates either side.
            let corroborated = if quarantined {
                // Quarantined VPs are not in the cohort tallies; judge
                // them against the trusted cohort as-is.
                match cohort.map(|s| &self.cohorts[s]) {
                    Some(g) if g.total > 0.0 => g.moved > 0.5 * g.total,
                    _ => population_rate > 0.5,
                }
            } else {
                // Trusted with both sides known: the tally pass counted
                // this VP into its cohort.
                let g = &self.cohorts[cohort.expect("a tallied VP has a cohort")];
                let others_total = g.total - self.vote_w[v];
                let others_moved = if flipped {
                    g.moved - self.vote_w[v]
                } else {
                    g.moved
                };
                if others_total > 0.0 {
                    others_moved > 0.5 * others_total
                } else {
                    population_rate > 0.5
                }
            };
            let pending = self.pending_until[v] > self.sweep;
            let disagree = match (flipped, corroborated) {
                // A flip nobody else in the catchment saw. If it returns
                // the VP to a catchment it recently reported while
                // trusted, it is a recurrence (a minority recovering its
                // old mode — e.g. a restored site's former clients
                // flowing back against a vote-stuffed group) and stays
                // in Φ, though it still costs a disagreement. Otherwise:
                // fabricated, excluded. The previous step must have been
                // trusted, so a lie-then-"return" ping-pong never earns
                // the recurrence discount.
                (true, false) => {
                    if !quarantined && !was_excluded && self.hist_contains(v, row[v]) {
                        self.pending_until[v] = 0;
                    } else {
                        self.excluded[v] = true;
                        if !quarantined {
                            self.fabricated += 1;
                        }
                    }
                    true
                }
                // The catchment moved and this VP claims it did not:
                // stale or constant. It now owes a catch-up flip to
                // wherever its cohort went.
                (false, true) => {
                    self.excluded[v] = true;
                    self.pending_until[v] = self.sweep + self.cfg.window;
                    self.pending_to[v] = cohort.and_then(|s| self.best_dest(s, prev, row));
                    true
                }
                // A flip while a catch-up is owed. Landing on the value
                // the cohort moved to is the owed flip arriving late — an
                // echo of a transition already detected, not a new
                // event. A corroborated flip anywhere *else* is a
                // genuine transition (e.g. a recovery the VP observes on
                // time) and clears the debt.
                (true, true) if pending => {
                    if self.pending_to[v] == Some(row[v]) {
                        self.excluded[v] = true;
                        self.pending_until[v] = 0;
                        true
                    } else {
                        self.pending_until[v] = 0;
                        false
                    }
                }
                _ => false,
            };
            if quarantined {
                // Probation: consistent behaviour earns re-admission.
                if !disagree {
                    self.clean_streak[v] += 1;
                    if self.clean_streak[v] >= self.cfg.probation {
                        self.status[v] = Status::Trusted;
                        self.strikes[v] = 0;
                        self.win[v] = 0;
                        self.hist_len[v] = 0;
                        self.hist_pos[v] = 0;
                        self.hist_run[v] = 0;
                        self.pending_until[v] = 0;
                        self.clean_streak[v] = 0;
                    }
                } else {
                    self.clean_streak[v] = 0;
                }
            } else {
                self.push_disagreement(v, disagree);
            }
            if !self.excluded[v] {
                self.push_hist(v, row[v]);
            }
        }
        let calm = self.status[v] == Status::Trusted
            && !self.excluded[v]
            && self.pending_until[v] <= self.sweep
            && self.win[v] == 0;
        let quiet = calm && self.hist_run[v] as usize >= self.cfg.window;
        self.quiet_count = self.quiet_count + usize::from(quiet) - usize::from(self.quiet[v]);
        self.calm[v] = calm;
        self.quiet[v] = quiet;
    }

    /// Whether VP `v`'s recurrence ring holds `val`.
    fn hist_contains(&self, v: usize, val: u16) -> bool {
        let base = v * self.cfg.window;
        self.hist[base..base + self.hist_len[v] as usize].contains(&val)
    }

    /// Record a trusted value in VP `v`'s recurrence ring (overwriting
    /// the oldest once `cfg.window` entries are held).
    fn push_hist(&mut self, v: usize, val: u16) {
        let w = self.cfg.window;
        if self.hist_run[v] as usize >= w && val == self.hist_last[v] {
            // The ring is already uniformly `val`: another push moves
            // the cursor around identical slots — a no-op. This is every
            // VP on every stable sweep.
            return;
        }
        let pos = self.hist_pos[v] as usize;
        self.hist[v * w + pos] = val;
        self.hist_pos[v] = ((pos + 1) % w) as u32;
        if (self.hist_len[v] as usize) < w {
            self.hist_len[v] += 1;
        }
        if val == self.hist_last[v] {
            self.hist_run[v] += 1;
        } else {
            self.hist_last[v] = val;
            self.hist_run[v] = 1;
        }
    }

    fn push_disagreement(&mut self, v: usize, disagreed: bool) {
        if !disagreed && self.win[v] == 0 {
            // A clear window absorbing another agreement: nothing can
            // change — not the bits, not the strike state (a zero count
            // is below the bar, so strikes would reset, and a clear
            // window implies they already are). The steady-state VP costs
            // one load here and no stores.
            return;
        }
        let mask = u64::MAX >> (64 - self.cfg.window);
        self.win[v] = ((self.win[v] << 1) | u64::from(disagreed)) & mask;
        if f64::from(self.win[v].count_ones()) >= self.strike_bar {
            self.strikes[v] += 1;
            if self.strikes[v] >= self.cfg.quarantine_strikes {
                self.status[v] = Status::Quarantined;
                self.excluded[v] = true;
                self.clean_streak[v] = 0;
                self.pending_until[v] = 0;
            }
        } else {
            self.strikes[v] = 0;
        }
    }

    /// Windowed disagreement rate of VP `v`, normalised by window
    /// *capacity* so early observations cannot dominate.
    pub fn suspicion(&self, v: usize) -> f64 {
        f64::from(self.win[v].count_ones()) / self.cfg.window as f64
    }

    /// Whether VP `v` is currently quarantined.
    pub fn is_quarantined(&self, v: usize) -> bool {
        self.status[v] == Status::Quarantined
    }

    /// Number of currently-quarantined VPs.
    pub fn quarantined_count(&self) -> usize {
        self.status
            .iter()
            .filter(|&&s| s == Status::Quarantined)
            .count()
    }

    /// Which VPs are excluded from the current step's Φ (quarantined or
    /// step-disagreeing).
    pub fn step_excluded(&self) -> &[bool] {
        &self.excluded
    }

    /// How many VPs the current step excluded — `step_excluded` counted,
    /// without the scan.
    pub fn step_excluded_count(&self) -> usize {
        self.excluded_now
    }

    /// How many trusted VPs the current step excluded for uncorroborated
    /// flips. A large value means the group vote rejected a mass
    /// movement — on a healthy population that never happens, so it is
    /// evidence the vote itself was captured (see
    /// [`TrustConfig::contested_frac`]).
    pub fn step_fabricated(&self) -> usize {
        self.fabricated
    }

    /// The current step priced under its verdicts: Φ between the
    /// previous row `a` and this row `b` with every excluded VP weighted
    /// zero, and the fraction of total base weight the step kept.
    ///
    /// Φ is `None` when the step kept no weight. With no VP excluded it is
    /// [`phi`] under `base`. Otherwise unit base weights count the kept
    /// matches and other weights sum them in network order, so Φ has the
    /// bits of [`phi`] under `base` with the excluded weights set to zero.
    pub fn step_phi(
        &self,
        a: &RoutingVector,
        b: &RoutingVector,
        base: &Weights,
        policy: UnknownPolicy,
    ) -> (Option<f64>, f64) {
        if self.excluded_now == 0 {
            return (Some(phi(a, b, base, policy)), 1.0);
        }
        let kept = if base.is_unit() {
            (self.len() - self.excluded_now) as f64
        } else {
            let kept_w = base.values().iter().zip(&self.excluded);
            kept_w
                .filter(|(_, &e)| !e)
                .fold(0.0, |sum, (&w, _)| sum + w)
        };
        let trusted = kept / base.total();
        if kept == 0.0 {
            return (None, trusted);
        }
        let p = phi_excluding(a, b, base, &self.excluded, kept, policy);
        (Some(p), trusted)
    }

    /// Fraction of total base weight not currently quarantined.
    pub fn trusted_fraction(&self, base: &Weights) -> f64 {
        if base.total() == 0.0 {
            return 0.0;
        }
        (0..self.len().min(base.len()))
            .filter(|&v| !self.is_quarantined(v))
            .map(|v| base.get(v))
            .sum::<f64>()
            / base.total()
    }
}

/// Summary of a trust pass over a whole series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustReport {
    /// Final per-VP windowed disagreement rates.
    pub suspicion: Vec<f64>,
    /// Final per-VP quarantine flags.
    pub quarantined: Vec<bool>,
    /// Fraction of base weight still trusted at the end of the run.
    pub trusted_fraction: f64,
    /// Number of steps whose trusted weight fell below the floor.
    pub untrusted_steps: usize,
}

/// A step where the group vote excluded an outsized share of the
/// population for uncorroborated flips. On a healthy population mass
/// movements corroborate each other, so this only happens when a
/// coordinated bloc has captured the vote — a transition may be hiding
/// in the excluded mass, and the verdict at this step must not be
/// trusted silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContestedStep {
    /// Observation index of the later side of the step.
    pub index: usize,
    /// Fraction of the population excluded as uncorroborated flippers.
    pub excluded_fraction: f64,
}

/// Result of trust-weighted, coverage- and trust-gated detection.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustedDetection {
    /// Events plus explicit suppressions.
    pub gated: GatedDetection,
    /// Final trust state of the population.
    pub trust: TrustReport,
    /// The input health series with [`CampaignHealth::distrusted`]
    /// filled in per observation.
    pub health: Vec<CampaignHealth>,
    /// True when so much of the population ended up quarantined that no
    /// verdict is trustworthy; every event is then suppressed with
    /// [`SuppressReason::UntrustedPopulation`] rather than reported.
    pub degraded: bool,
    /// Steps whose group vote threw out at least
    /// [`TrustConfig::contested_frac`] of the population as
    /// uncorroborated flippers — the explicit "a super-minority may have
    /// out-voted a real transition here" degradation signal.
    pub contested: Vec<ContestedStep>,
}

/// Run trust-weighted change detection over a catchment-code series.
///
/// Per step, VPs excluded by the [`TrustModel`] get weight zero in that
/// step's Φ ([`TrustModel::step_phi`]); the resulting step series feeds
/// [`ChangeDetector::detect_from_steps`]. Detections then go through
/// the gate of [`ChangeDetector::detect_gated`], which checks
/// measurement coverage (floor `coverage_floor`) first and the trusted
/// fraction of the population around the step (`cfg.min_trusted_frac`)
/// second. On a clean substrate no VP is ever excluded and the result is
/// identical to ungated detection.
///
/// `identities`, when given, caps sybil voting weight — see
/// [`TrustModel::new`].
pub fn detect_trusted(
    detector: &ChangeDetector,
    series: &VectorSeries,
    base: &Weights,
    health: &[CampaignHealth],
    coverage_floor: f64,
    cfg: TrustConfig,
    identities: Option<&[u64]>,
) -> Result<TrustedDetection> {
    // The trust-weighted pass: the ungated detections, and the result
    // around them with each step's trusted fraction for the gate.
    let pass = || {
        if base.len() != series.networks() {
            return Err(Error::ShapeMismatch {
                what: "weights",
                expected: series.networks(),
                actual: base.len(),
            });
        }
        let known = |c: u16| c != CODE_UNKNOWN && c != CODE_ERR;
        let mut model = TrustModel::new(cfg, base, identities)?;
        let mut health_out = health.to_vec();
        let mut steps: Vec<f64> = Vec::with_capacity(series.len().saturating_sub(1));
        let mut step_trusted: Vec<f64> = Vec::with_capacity(steps.capacity());
        if !series.is_empty() {
            model.observe(series.get(0).codes(), known)?;
        }
        let mut contested: Vec<ContestedStep> = Vec::new();
        for (i, step_health) in health_out.iter_mut().enumerate().skip(1) {
            model.observe(series.get(i).codes(), known)?;
            let fabricated = model.step_fabricated() as f64 / model.len().max(1) as f64;
            if fabricated >= cfg.contested_frac {
                contested.push(ContestedStep {
                    index: i,
                    excluded_fraction: fabricated,
                });
            }
            step_health.distrusted = model.step_excluded_count();
            let (p, trusted) =
                model.step_phi(series.get(i - 1), series.get(i), base, detector.policy);
            // With no trusted weight left, nobody trustworthy observed
            // the step: no similarity evidence at all. Record a full drop
            // so the step surfaces as a detection — which the trust gate
            // then suppresses explicitly instead of silently skipping.
            steps.push(p.unwrap_or(0.0));
            step_trusted.push(trusted);
        }
        let trusted_fraction = model.trusted_fraction(base);
        let trust = TrustReport {
            suspicion: (0..model.len()).map(|v| model.suspicion(v)).collect(),
            quarantined: (0..model.len()).map(|v| model.is_quarantined(v)).collect(),
            trusted_fraction,
            untrusted_steps: step_trusted
                .iter()
                .filter(|&&t| t < cfg.min_trusted_frac)
                .count(),
        };
        let out = TrustedDetection {
            gated: GatedDetection::default(),
            trust,
            health: health_out,
            degraded: trusted_fraction < cfg.min_trusted_frac,
            contested,
        };
        let events = detector.detect_from_steps(&steps, &series.times())?;
        Ok((events, (out, step_trusted)))
    };
    let floor = cfg.min_trusted_frac;
    let (gated, (mut out, _)) = gate(
        series.len(),
        health,
        coverage_floor,
        pass,
        |(out, step_trusted), event| {
            // A degraded run answers for every step with its final
            // trusted fraction.
            let trusted_fraction = if out.degraded {
                out.trust.trusted_fraction
            } else {
                step_trusted[event.index - 1]
            };
            (trusted_fraction < floor).then_some(SuppressReason::UntrustedPopulation {
                trusted_fraction,
                floor,
            })
        },
    )?;
    out.gated = gated;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SiteTable;
    use crate::time::Timestamp;
    use crate::vector::CODE_OTHER;

    fn ts(d: i64) -> Timestamp {
        Timestamp::from_days(d)
    }

    fn series_from(rows: &[Vec<u16>]) -> VectorSeries {
        let sites = SiteTable::from_names(["A", "B", "C", "D"]);
        let mut series = VectorSeries::new(sites, rows[0].len());
        for (d, row) in rows.iter().enumerate() {
            series
                .push(RoutingVector::from_codes(ts(d as i64), row.clone()))
                .unwrap();
        }
        series
    }

    fn full_health(n: usize, targets: usize) -> Vec<CampaignHealth> {
        (0..n)
            .map(|d| {
                let mut h = CampaignHealth::new(ts(d as i64), targets);
                h.responses = targets;
                h
            })
            .collect()
    }

    /// 10 VPs: stable on site 0 for `pre` sweeps, then all move to 1.
    fn shift_rows(pre: usize, post: usize) -> Vec<Vec<u16>> {
        (0..pre + post)
            .map(|d| vec![if d < pre { 0u16 } else { 1 }; 10])
            .collect()
    }

    /// The general trimmed mean, the oracle for `trimmed_indicator_mean`:
    /// up to `trim_frac` of arbitrarily-corrupted values cannot move it past
    /// the clean range. Returns the median when trimming would drop
    /// everything, 0 for empty input.
    fn trimmed_mean(xs: &[f64], trim_frac: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let k = (v.len() as f64 * trim_frac.clamp(0.0, 0.5)).floor() as usize;
        let kept = &v[k..v.len() - k];
        if kept.is_empty() {
            v[v.len() / 2]
        } else {
            kept.iter().sum::<f64>() / kept.len() as f64
        }
    }

    #[test]
    fn trimmed_mean_resists_outliers() {
        let clean = [0.5, 0.5, 0.5, 0.5];
        assert!((trimmed_mean(&clean, 0.25) - 0.5).abs() < 1e-12);
        let poisoned = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 100.0, -100.0];
        assert!((trimmed_mean(&poisoned, 0.25) - 0.5).abs() < 1e-12);
        assert_eq!(trimmed_mean(&[], 0.25), 0.0);
        // Over-trimming falls back to the median.
        assert_eq!(trimmed_mean(&[1.0], 0.49), 1.0);
    }

    #[test]
    fn indicator_trimmed_mean_matches_the_general_form() {
        for zeros in 0..12usize {
            for ones in 0..12usize {
                for trim in [0.0, 0.1, 0.25, 0.33, 0.49] {
                    let mut xs = vec![0.0f64; zeros];
                    xs.resize(zeros + ones, 1.0);
                    let general = trimmed_mean(&xs, trim);
                    let fast = trimmed_indicator_mean(zeros, ones, trim);
                    assert!(
                        (general - fast).abs() < 1e-12,
                        "zeros {zeros} ones {ones} trim {trim}: {general} vs {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn config_validation_rejects_out_of_domain() {
        let mut c = TrustConfig::default();
        assert!(c.validate().is_ok());
        c.window = 64;
        assert!(c.validate().is_ok());
        for window in [0, 65] {
            c.window = window;
            assert!(matches!(
                c.validate(),
                Err(Error::Config { name: "window", .. })
            ));
        }
        c = TrustConfig {
            trim_frac: 0.5,
            ..TrustConfig::default()
        };
        assert!(c.validate().is_err());
        c = TrustConfig {
            suspicion_threshold: 0.0,
            ..TrustConfig::default()
        };
        assert!(c.validate().is_err());
        c = TrustConfig {
            min_trusted_frac: 1.5,
            ..TrustConfig::default()
        };
        assert!(c.validate().is_err());
        c = TrustConfig {
            contested_frac: 0.0,
            ..TrustConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn clean_population_is_never_excluded() {
        let rows = shift_rows(8, 8);
        let base = Weights::uniform(10);
        let mut m: TrustModel = TrustModel::new(TrustConfig::default(), &base, None).unwrap();
        for row in &rows {
            m.observe(row, |c| c != CODE_UNKNOWN).unwrap();
            assert!(m.step_excluded().iter().all(|&e| !e));
        }
        assert_eq!(m.quarantined_count(), 0);
        assert!((m.trusted_fraction(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fabricated_minority_flip_is_excluded() {
        // VPs 0-1 flip to site 2 at sweep 5; the other 8 stay on 0.
        let mut rows = shift_rows(10, 0);
        for row in rows.iter_mut().skip(5) {
            row[0] = 2;
            row[1] = 2;
        }
        let base = Weights::uniform(10);
        let mut m: TrustModel = TrustModel::new(TrustConfig::default(), &base, None).unwrap();
        for (d, row) in rows.iter().enumerate() {
            m.observe(row, |c| c != CODE_UNKNOWN).unwrap();
            if d == 5 {
                assert!(m.step_excluded()[0] && m.step_excluded()[1]);
                assert!(m.step_excluded()[2..].iter().all(|&e| !e));
            }
        }
        // One-shot lie: suspicious but not quarantined.
        assert!(m.suspicion(0) > 0.0);
        assert_eq!(m.quarantined_count(), 0);
    }

    #[test]
    fn non_mover_during_corroborated_move_is_excluded_and_echo_killed() {
        // Everyone moves 0 -> 1 at sweep 5, except VP 9 which lags by two
        // sweeps (a stale replayer).
        let mut rows = shift_rows(5, 7);
        rows[5][9] = 0;
        rows[6][9] = 0;
        let base = Weights::uniform(10);
        let mut m: TrustModel = TrustModel::new(TrustConfig::default(), &base, None).unwrap();
        for (d, row) in rows.iter().enumerate() {
            m.observe(row, |c| c != CODE_UNKNOWN).unwrap();
            match d {
                5 => assert!(m.step_excluded()[9], "non-mover at the transition"),
                7 => assert!(m.step_excluded()[9], "late catch-up flip is an echo"),
                8 => assert!(!m.step_excluded()[9], "back in good standing"),
                _ => {}
            }
        }
    }

    #[test]
    fn recurrence_beats_a_vote_stuffed_group() {
        // VPs 0-5 sit constantly on site 1 (a parked liar bloc); VPs 6-9
        // genuinely move 0 -> 1 at sweep 5 and recover to 0 at sweep 9.
        // At the recovery the bloc out-votes the returning minority, but
        // the flip lands on a catchment each returner recently held
        // while trusted: the recurrence rule keeps them in Φ.
        let rows: Vec<Vec<u16>> = (0..12)
            .map(|d| {
                let mut row = vec![1u16; 10];
                let honest = if (5..9).contains(&d) { 1 } else { 0 };
                for cell in row.iter_mut().skip(6) {
                    *cell = honest;
                }
                row
            })
            .collect();
        let base = Weights::uniform(10);
        let mut m: TrustModel = TrustModel::new(TrustConfig::default(), &base, None).unwrap();
        for (d, row) in rows.iter().enumerate() {
            m.observe(row, |c| c != CODE_UNKNOWN).unwrap();
            if d == 9 {
                assert!(
                    m.step_excluded().iter().all(|&e| !e),
                    "recurring returners must stay in Φ"
                );
                assert_eq!(m.step_fabricated(), 0);
            }
        }
        assert_eq!(m.quarantined_count(), 0);
    }

    #[test]
    fn pending_flip_to_a_new_catchment_is_not_an_echo() {
        // Everyone moves 0 -> 1 at sweep 3; VP 9 misses it and owes a
        // catch-up flip to site 1. At sweep 6 the whole population — VP 9
        // included — moves on to site 2: that flip is corroborated and
        // lands away from the owed value, so it is a genuine transition,
        // not an echo, and VP 9 stays in Φ.
        let rows: Vec<Vec<u16>> = (0..9)
            .map(|d| {
                let mut row = vec![
                    if d < 3 {
                        0u16
                    } else if d < 6 {
                        1
                    } else {
                        2
                    };
                    10
                ];
                if d < 6 {
                    row[9] = 0;
                }
                row
            })
            .collect();
        let base = Weights::uniform(10);
        let mut m: TrustModel = TrustModel::new(TrustConfig::default(), &base, None).unwrap();
        for (d, row) in rows.iter().enumerate() {
            m.observe(row, |c| c != CODE_UNKNOWN).unwrap();
            match d {
                3 => assert!(m.step_excluded()[9], "non-mover at the transition"),
                6 => assert!(
                    !m.step_excluded()[9],
                    "corroborated flip to a third site is not an echo"
                ),
                _ => {}
            }
        }
    }

    #[test]
    fn captured_vote_surfaces_as_a_contested_step() {
        // Three of ten VPs fabricate a flip to a novel site at sweep 5:
        // 30% of the population thrown out as uncorroborated flippers
        // crosses the default contested threshold, and the verdict says
        // so. A fully-corroborated shift never does.
        let mut rows = shift_rows(10, 0);
        for row in rows.iter_mut().skip(5) {
            row[0] = 3;
            row[1] = 3;
            row[2] = 3;
        }
        let detector = ChangeDetector::default();
        let base = Weights::uniform(10);
        let d = detect_trusted(
            &detector,
            &series_from(&rows),
            &base,
            &full_health(rows.len(), 10),
            0.0,
            TrustConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(d.contested.len(), 1, "{:?}", d.contested);
        assert_eq!(d.contested[0].index, 5);
        assert!((d.contested[0].excluded_fraction - 0.3).abs() < 1e-12);

        let clean = detect_trusted(
            &detector,
            &series_from(&shift_rows(5, 5)),
            &base,
            &full_health(10, 10),
            0.0,
            TrustConfig::default(),
            None,
        )
        .unwrap();
        assert!(clean.contested.is_empty());
    }

    #[test]
    fn persistent_liar_is_quarantined_then_readmitted_after_probation() {
        // VP 0 fabricates a lone flip every sweep (ping-ponging 2 <-> 3)
        // for 8 sweeps, then behaves forever after.
        let n_sweeps = 24usize;
        let rows: Vec<Vec<u16>> = (0..n_sweeps)
            .map(|d| {
                let mut row = vec![0u16; 10];
                if d < 8 {
                    row[0] = if d % 2 == 0 { 2 } else { 3 };
                }
                row
            })
            .collect();
        let base = Weights::uniform(10);
        let cfg = TrustConfig::default();
        let mut m: TrustModel = TrustModel::new(cfg, &base, None).unwrap();
        let mut quarantined_at = None;
        let mut readmitted_at = None;
        for (d, row) in rows.iter().enumerate() {
            m.observe(row, |c| c != CODE_UNKNOWN).unwrap();
            if quarantined_at.is_none() && m.is_quarantined(0) {
                quarantined_at = Some(d);
            }
            if quarantined_at.is_some() && readmitted_at.is_none() && !m.is_quarantined(0) {
                readmitted_at = Some(d);
            }
        }
        let q = quarantined_at.expect("persistent liar must be quarantined");
        assert!(q < 8, "quarantined while still lying, got {q}");
        let r = readmitted_at.expect("reformed liar must be re-admitted");
        // Probation starts once it behaves (sweep 8; its first clean
        // comparison is sweep 9's step).
        assert!(r >= 8 + cfg.probation, "readmitted too early at {r}");
        assert_eq!(m.quarantined_count(), 0);
    }

    #[test]
    fn identity_caps_split_sybil_voting_weight() {
        // 6 VPs; 0-3 share one identity. A bloc flip by the 4 clones
        // must not corroborate itself against 2 honest singletons.
        let rows = vec![vec![0u16; 6], vec![2, 2, 2, 2, 0, 0]];
        let base = Weights::uniform(6);
        let ids = [7u64, 7, 7, 7, 1, 2];
        let mut m: TrustModel = TrustModel::new(TrustConfig::default(), &base, Some(&ids)).unwrap();
        for row in &rows {
            m.observe(row, |c| c != CODE_UNKNOWN).unwrap();
        }
        // Capped: clones carry 1/4 weight each (1 total) vs 2 honest.
        for v in 0..4 {
            assert!(m.step_excluded()[v], "sybil clone {v} must be excluded");
        }
        assert!(!m.step_excluded()[4] && !m.step_excluded()[5]);

        // Without caps the bloc out-votes the honest pair.
        let mut naive: TrustModel = TrustModel::new(TrustConfig::default(), &base, None).unwrap();
        for row in &rows {
            naive.observe(row, |c| c != CODE_UNKNOWN).unwrap();
        }
        assert!(
            !naive.step_excluded()[0],
            "uncapped bloc corroborates itself"
        );
    }

    #[test]
    fn step_phi_weighs_the_excluded_vps_zero() {
        let rows = vec![vec![0u16, 0, 0, 1], vec![2, 0, 0, 0]];
        let series = series_from(&rows);
        let (a, b) = (series.get(0), series.get(1));
        for base in [
            Weights::uniform(4),
            Weights::from_values(vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
        ] {
            let mut m: TrustModel = TrustModel::new(TrustConfig::default(), &base, None).unwrap();
            for row in &rows {
                m.observe(row, |c| c != CODE_UNKNOWN).unwrap();
            }
            // VPs 0 and 3 flipped alone: both are out of the step.
            assert_eq!(m.step_excluded(), &[true, false, false, true]);
            let kept = base.get(1) + base.get(2);
            let (p, trusted) = m.step_phi(a, b, &base, UnknownPolicy::Pessimistic);
            assert_eq!(p, Some(1.0));
            assert_eq!(trusted, kept / base.total());
            // Excluded for one step, not quarantined: all weight stays
            // trusted.
            assert_eq!(m.trusted_fraction(&base), 1.0);
        }
    }

    #[test]
    fn a_quiet_vp_returning_from_an_unpushed_value_is_charged() {
        // VP 0's 2 follows an unknown, so it is never pushed while VP 0
        // is quiet; its return to 1 is an uncorroborated flip back to a
        // recurring value: kept in Φ, but a disagreement all the same.
        const U: u16 = CODE_UNKNOWN;
        let rows = [
            [1u16, 1, 1, 1],
            [1, 1, 1, 1],
            [U, 1, 1, 1],
            [2, 1, 1, 1],
            [1, 1, 1, 1],
        ];
        let cfg = TrustConfig {
            window: 1,
            ..TrustConfig::default()
        };
        let mut m: TrustModel = TrustModel::new(cfg, &Weights::uniform(4), None).unwrap();
        for row in &rows {
            m.observe(row, |c| c != CODE_UNKNOWN).unwrap();
        }
        assert!(!m.step_excluded()[0]);
        assert_eq!(m.suspicion(0), 1.0);
    }

    #[test]
    fn detect_trusted_matches_plain_detection_on_clean_data() {
        let rows = shift_rows(10, 10);
        let series = series_from(&rows);
        let base = Weights::uniform(10);
        let det = ChangeDetector::default();
        let plain = det.detect(&series, &base);
        let trusted = detect_trusted(
            &det,
            &series,
            &base,
            &full_health(20, 10),
            0.2,
            TrustConfig::default(),
            None,
        )
        .unwrap();
        assert!(!trusted.degraded);
        assert!(trusted.gated.suppressed.is_empty());
        assert_eq!(trusted.gated.events, plain);
        assert!(trusted.trust.quarantined.iter().all(|&q| !q));
        assert!(trusted.health.iter().all(|h| h.distrusted == 0));
    }

    #[test]
    fn detect_trusted_drops_fabricated_event_and_keeps_real_one() {
        // Real shift at 10; two liars fabricate a lone flip at 5.
        let mut rows = shift_rows(10, 10);
        for row in rows.iter_mut().take(10).skip(5) {
            row[0] = 2;
            row[1] = 2;
        }
        // After the real shift the liars follow everyone to site 1, so
        // their catch-up is co-timed with the transition.
        let series = series_from(&rows);
        let base = Weights::uniform(10);
        let det = ChangeDetector::default();
        let trusted = detect_trusted(
            &det,
            &series,
            &base,
            &full_health(20, 10),
            0.2,
            TrustConfig::default(),
            None,
        )
        .unwrap();
        let indices: Vec<usize> = trusted.gated.events.iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![10], "{:?}", trusted.gated);
        assert!(trusted.health[5].distrusted > 0);
    }

    #[test]
    fn detect_trusted_gates_low_coverage_and_zero_trust_steps() {
        let rows = shift_rows(10, 10);
        let series = series_from(&rows);
        let base = Weights::uniform(10);
        let mut health = full_health(20, 10);
        health[9].responses = 0;
        let det = ChangeDetector::default();
        let trusted = detect_trusted(
            &det,
            &series,
            &base,
            &health,
            0.5,
            TrustConfig::default(),
            None,
        )
        .unwrap();
        assert!(trusted.gated.events.is_empty());
        assert_eq!(trusted.gated.suppressed.len(), 1);
        assert!(matches!(
            trusted.gated.suppressed[0].reason,
            SuppressReason::LowCoverage { .. }
        ));
    }

    #[test]
    fn detect_trusted_rejects_shape_mismatches() {
        let rows = shift_rows(4, 4);
        let series = series_from(&rows);
        let det = ChangeDetector::default();
        let run = |networks: usize, observations: usize, floor: f64| {
            let base = Weights::uniform(networks);
            let health = full_health(observations, 10);
            detect_trusted(
                &det,
                &series,
                &base,
                &health,
                floor,
                TrustConfig::default(),
                None,
            )
            .unwrap_err()
        };
        let what = |e: Error| match e {
            Error::ShapeMismatch { what, .. } => what,
            Error::InvalidParameter { name, .. } => name,
            other => panic!("unexpected {other}"),
        };
        assert_eq!(what(run(10, 7, 0.2)), "health series");
        assert_eq!(what(run(9, 8, 0.2)), "weights");
        assert_eq!(what(run(10, 8, 1.5)), "coverage_floor");
        // The gate checks the floor, then the health length, and only
        // then the trust pass checks the weights.
        assert_eq!(what(run(9, 7, 1.5)), "coverage_floor");
        assert_eq!(what(run(9, 7, 0.2)), "health series");
    }

    #[test]
    fn majority_quarantined_population_degrades_explicitly() {
        // 10 VPs, six liars (0-5) that each bounce between the honest
        // catchment and a fake site on alternating phases, desynchronised
        // so only a scattered minority flips out of the honest group at
        // any sweep (never corroborated). Every liar accumulates
        // disagreements and lands in quarantine; with 6 of 10 VPs out,
        // the run must degrade explicitly rather than report anything.
        let rows: Vec<Vec<u16>> = (0..30)
            .map(|d| {
                let mut row = vec![0u16; 10];
                for (v, cell) in row.iter_mut().enumerate().take(6) {
                    if (d + v) % 2 == 0 {
                        *cell = 2;
                    }
                }
                row
            })
            .collect();
        let series = series_from(&rows);
        let base = Weights::uniform(10);
        let det = ChangeDetector::default();
        let trusted = detect_trusted(
            &det,
            &series,
            &base,
            &full_health(30, 10),
            0.2,
            TrustConfig::default(),
            None,
        )
        .unwrap();
        assert!(
            trusted.trust.quarantined.iter().filter(|&&q| q).count() >= 6,
            "{:?}",
            trusted.trust.quarantined
        );
        assert!(trusted.degraded);
        assert!(
            trusted.gated.events.is_empty(),
            "{:?}",
            trusted.gated.events
        );
    }

    /// The oracle of `trust_model_matches_the_reference`: a plain model
    /// that judges every VP on every sweep.
    mod reference {
        use super::super::*;

        /// Per-sweep movement tally of one previous-value group.
        #[derive(Debug, Clone)]
        struct Group {
            total: f64,
            moved: f64,
            // Destination tallies of the group's movers, and the running
            // heaviest one. Updated in VP index order with a strictly-greater
            // test, so the winner is deterministic.
            dest: Vec<(u16, f64)>,
            best_dest: Option<(u16, f64)>,
        }

        /// Every VP judged on every sweep, cohorts kept as association
        /// lists.
        #[derive(Debug, Clone)]
        pub(super) struct RefModel {
            cfg: TrustConfig,
            /// Identity-capped voting weights (never used for Φ).
            vote_w: Vec<f64>,
            prev: Option<Vec<u16>>,
            /// Each VP's last `window` verdicts, one bit each (1 = disagreed),
            /// newest in bit 0; bits at and above `window` are always clear.
            win: Vec<u64>,
            strikes: Vec<usize>,
            status: Vec<Status>,
            clean_streak: Vec<usize>,
            /// Whether each VP is excluded from the *current* step's Φ.
            excluded: Vec<bool>,
            /// Scratch: each VP's group index in the current sweep's grouping
            /// pass (`u32::MAX` = not grouped), so the per-VP verdict loop never
            /// re-scans the group list.
            gidx: Vec<u32>,
            /// Scratch: the per-sweep group tallies, retained so steady-state
            /// sweeps reuse its allocation.
            groups_scratch: Vec<(u16, Group)>,
            /// `suspicion_threshold * window`, precomputed: the strike test
            /// compares the windowed disagreement *count* against this once per
            /// VP per sweep, avoiding a division on the hot path.
            strike_bar: f64,
            /// Recent values each VP reported while trusted, for the recurrence
            /// rule: one flat `n × window` block of rings — contiguous, so the
            /// per-VP sweep loop streams instead of chasing one heap pointer per
            /// VP (slots past `hist_len` are stale and never read).
            hist: Vec<u16>,
            hist_len: Vec<u32>,
            hist_pos: Vec<u32>,
            /// The value of each VP's most recent hist push, and how many
            /// consecutive pushes held it: once a ring is uniformly one value,
            /// pushing that value again is a no-op, which is every VP on every
            /// stable sweep.
            hist_last: Vec<u16>,
            hist_run: Vec<u32>,
            /// How many trusted VPs the current step excluded for uncorroborated
            /// flips — the contested-step signal.
            fabricated: usize,
            /// How many VPs the current step excluded in total (quarantined or
            /// step-disagreeing) — maintained so per-step callers need not
            /// re-scan the exclusion flags.
            excluded_now: usize,
            /// The value each pending catch-up flip is owed *to* (the modal
            /// destination of the VP's group when it failed to move). Only a
            /// late flip to this value is an echo; a corroborated flip anywhere
            /// else is a genuine new transition.
            pending_to: Vec<Option<u16>>,
            /// Sweep index until which an owed catch-up flip is tracked (0 =
            /// none owed).
            pending_until: Vec<usize>,
            sweep: usize,
            /// True when the previous sweep left every VP trusted, unexcluded,
            /// with clear disagreement windows, saturated single-value hist
            /// rings, and no pending catch-up — the precondition for the
            /// steady-state shortcut in [`observe`](Self::observe).
            steady: bool,
        }

        impl RefModel {
            /// Build a model for the population described by `base` weights.
            ///
            /// `identities`, when given (one per VP), caps each identity's total
            /// *voting* weight at its base share: the voting weight of VP `v`
            /// becomes `base[v] / multiplicity(identity[v])`.
            pub(super) fn new(
                cfg: TrustConfig,
                base: &Weights,
                identities: Option<&[u64]>,
            ) -> Result<Self> {
                cfg.validate()?;
                let n = base.len();
                let vote_w = match identities {
                    Some(ids) => {
                        if ids.len() != n {
                            return Err(Error::ShapeMismatch {
                                what: "identities",
                                expected: n,
                                actual: ids.len(),
                            });
                        }
                        let mut mult: HashMap<u64, f64> = HashMap::new();
                        for &id in ids {
                            *mult.entry(id).or_insert(0.0) += 1.0;
                        }
                        (0..n).map(|v| base.get(v) / mult[&ids[v]]).collect()
                    }
                    None => base.values().to_vec(),
                };
                Ok(RefModel {
                    cfg,
                    vote_w,
                    prev: None,
                    win: vec![0; n],
                    strikes: vec![0; n],
                    status: vec![Status::Trusted; n],
                    clean_streak: vec![0; n],
                    excluded: vec![false; n],
                    gidx: vec![u32::MAX; n],
                    groups_scratch: Vec::new(),
                    excluded_now: 0,
                    strike_bar: cfg.suspicion_threshold * cfg.window as f64,
                    hist: vec![0; n * cfg.window],
                    hist_len: vec![0; n],
                    hist_pos: vec![0; n],
                    hist_last: vec![0; n],
                    hist_run: vec![0; n],
                    fabricated: 0,
                    pending_to: vec![None; n],
                    pending_until: vec![0; n],
                    sweep: 0,
                    steady: false,
                })
            }

            /// Number of vantage points.
            fn len(&self) -> usize {
                self.vote_w.len()
            }

            /// Feed one observation row. `known` says whether a value is a real
            /// observation (unknown values carry no agreement evidence either
            /// way). Updates per-step exclusions, suspicion, and quarantine.
            pub(super) fn observe(
                &mut self,
                row: &[u16],
                known: impl Fn(u16) -> bool,
            ) -> Result<()> {
                let n = self.len();
                if row.len() != n {
                    return Err(Error::ShapeMismatch {
                        what: "observation row",
                        expected: n,
                        actual: row.len(),
                    });
                }
                self.fabricated = 0;
                let Some(mut prev) = self.prev.take() else {
                    for (v, &c) in row.iter().enumerate() {
                        if known(c) {
                            self.push_hist(v, c);
                        }
                    }
                    self.prev = Some(row.to_vec());
                    return Ok(());
                };
                self.sweep += 1;

                if self.steady {
                    // Steady-state shortcut. Every VP is trusted and unexcluded,
                    // its disagreement window is clear (pushing another agreement
                    // is a no-op), its hist ring is uniformly its settled value
                    // `hist_last` (pushing that value again is a no-op), and no
                    // catch-up flip is owed. A VP's previous value may still be
                    // a known value it never pushed (the value before it was
                    // unknown), so if every known cell of this row matches
                    // `hist_last` and no VP known on both sides flipped, no group
                    // vote can exclude anyone, and not one piece of state
                    // changes: the whole update is this read-only scan. This is
                    // the overwhelmingly common sweep of a healthy campaign.
                    let unchanged = (0..n).all(|v| {
                        let (p, c) = (prev[v], row[v]);
                        !known(c) || (c == self.hist_last[v] && (p == c || !known(p)))
                    });
                    if unchanged {
                        prev.clear();
                        prev.extend_from_slice(row);
                        self.prev = Some(prev);
                        return Ok(());
                    }
                }

                // Group the trusted, fully-observed VPs by previous value and
                // accumulate identity-capped moved/total weight per group.
                // Association lists, not hash maps: the value alphabet is tiny
                // (a handful of sites or bands), and this runs per VP per sweep
                // on the hot detection path, where a linear scan over a few
                // entries is several times cheaper than hashing every key. The
                // list itself is a reusable scratch so steady-state sweeps
                // allocate nothing.
                let mut groups: Vec<(u16, Group)> = std::mem::take(&mut self.groups_scratch);
                groups.clear();
                let mut stayed = 0usize;
                let mut moved_count = 0usize;
                for v in 0..n {
                    if self.status[v] != Status::Trusted || !known(prev[v]) || !known(row[v]) {
                        self.gidx[v] = u32::MAX;
                        continue;
                    }
                    if row[v] != prev[v] {
                        moved_count += 1;
                    } else {
                        stayed += 1;
                    }
                    let gi = match groups.iter().position(|(k, _)| *k == prev[v]) {
                        Some(i) => i,
                        None => {
                            groups.push((
                                prev[v],
                                Group {
                                    total: 0.0,
                                    moved: 0.0,
                                    dest: Vec::new(),
                                    best_dest: None,
                                },
                            ));
                            groups.len() - 1
                        }
                    };
                    self.gidx[v] = gi as u32;
                    let g = &mut groups[gi].1;
                    g.total += self.vote_w[v];
                    if row[v] != prev[v] {
                        g.moved += self.vote_w[v];
                        let w = match g.dest.iter_mut().find(|(k, _)| *k == row[v]) {
                            Some((_, w)) => {
                                *w += self.vote_w[v];
                                *w
                            }
                            None => {
                                g.dest.push((row[v], self.vote_w[v]));
                                self.vote_w[v]
                            }
                        };
                        if g.best_dest.is_none_or(|(_, bw)| w > bw) {
                            g.best_dest = Some((row[v], w));
                        }
                    }
                }
                // Robust population-wide movement rate, for VPs whose group is
                // too small to out-vote them (a singleton would otherwise
                // corroborate its own lie). The trimmed mean over per-VP flip
                // indicators discards the tails, so a minority of liars cannot
                // drag the rate across the majority threshold. Indicators are
                // 0/1, so the trimmed mean reduces to counting — no per-step
                // sort (this runs once per sweep on the hot detection path).
                let population_rate =
                    trimmed_indicator_mean(stayed, moved_count, self.cfg.trim_frac);

                for v in 0..n {
                    let quarantined = self.status[v] == Status::Quarantined;
                    let was_excluded = self.excluded[v];
                    self.excluded[v] = quarantined;
                    if !known(prev[v]) || !known(row[v]) {
                        // Absent either side: no agreement evidence.
                        if !quarantined {
                            self.push_disagreement(v, false);
                        }
                        continue;
                    }
                    let flipped = row[v] != prev[v];
                    // Corroboration excludes the VP's own vote and demands a
                    // strict majority of the *rest* of its previous catchment:
                    // an exact split never corroborates either side.
                    let corroborated = if quarantined {
                        // Quarantined VPs are not in the group stats; judge them
                        // against the trusted group as-is.
                        match groups.iter().find(|(k, _)| *k == prev[v]).map(|(_, g)| g) {
                            Some(g) if g.total > 0.0 => g.moved > 0.5 * g.total,
                            _ => population_rate > 0.5,
                        }
                    } else {
                        // Trusted with both sides known: the grouping pass above
                        // indexed this VP, so its group is a direct lookup.
                        let g = &groups[self.gidx[v] as usize].1;
                        let others_total = g.total - self.vote_w[v];
                        let others_moved = if flipped {
                            g.moved - self.vote_w[v]
                        } else {
                            g.moved
                        };
                        if others_total > 0.0 {
                            others_moved > 0.5 * others_total
                        } else {
                            population_rate > 0.5
                        }
                    };
                    let pending = self.pending_until[v] > self.sweep;
                    let disagree = match (flipped, corroborated) {
                        // A flip nobody else in the catchment saw. If it returns
                        // the VP to a catchment it recently reported while
                        // trusted, it is a recurrence (a minority recovering its
                        // old mode — e.g. a restored site's former clients
                        // flowing back against a vote-stuffed group) and stays
                        // in Φ, though it still costs a disagreement. Otherwise:
                        // fabricated, excluded. The previous step must have been
                        // trusted, so a lie-then-"return" ping-pong never earns
                        // the recurrence discount.
                        (true, false) => {
                            if !quarantined && !was_excluded && self.hist_contains(v, row[v]) {
                                self.pending_until[v] = 0;
                            } else {
                                self.excluded[v] = true;
                                if !quarantined {
                                    self.fabricated += 1;
                                }
                            }
                            true
                        }
                        // The catchment moved and this VP claims it did not:
                        // stale or constant. It now owes a catch-up flip to
                        // wherever its group went.
                        (false, true) => {
                            self.excluded[v] = true;
                            self.pending_until[v] = self.sweep + self.cfg.window;
                            self.pending_to[v] = groups
                                .iter()
                                .find(|(k, _)| *k == prev[v])
                                .and_then(|(_, g)| g.best_dest.map(|(t, _)| t));
                            true
                        }
                        // A flip while a catch-up is owed. Landing on the value
                        // the group moved to is the owed flip arriving late — an
                        // echo of a transition already detected, not a new
                        // event. A corroborated flip anywhere *else* is a
                        // genuine transition (e.g. a recovery the VP observes on
                        // time) and clears the debt.
                        (true, true) if pending => {
                            if self.pending_to[v] == Some(row[v]) {
                                self.excluded[v] = true;
                                self.pending_until[v] = 0;
                                true
                            } else {
                                self.pending_until[v] = 0;
                                false
                            }
                        }
                        _ => false,
                    };
                    if quarantined {
                        // Probation: consistent behaviour earns re-admission.
                        if !disagree {
                            self.clean_streak[v] += 1;
                            if self.clean_streak[v] >= self.cfg.probation {
                                self.status[v] = Status::Trusted;
                                self.strikes[v] = 0;
                                self.win[v] = 0;
                                self.hist_len[v] = 0;
                                self.hist_pos[v] = 0;
                                self.hist_run[v] = 0;
                                self.pending_until[v] = 0;
                                self.clean_streak[v] = 0;
                            }
                        } else {
                            self.clean_streak[v] = 0;
                        }
                    } else {
                        self.push_disagreement(v, disagree);
                    }
                    if !self.excluded[v] && known(row[v]) {
                        self.push_hist(v, row[v]);
                    }
                }
                let w = self.cfg.window;
                let mut excluded_now = 0usize;
                let mut steady = true;
                for v in 0..n {
                    excluded_now += usize::from(self.excluded[v]);
                    steady = steady
                        && self.status[v] == Status::Trusted
                        && !self.excluded[v]
                        && self.pending_until[v] <= self.sweep
                        && self.win[v] == 0
                        && self.hist_run[v] as usize >= w;
                }
                self.excluded_now = excluded_now;
                self.steady = steady;
                // Reuse the previous-row buffer instead of allocating per sweep.
                prev.clear();
                prev.extend_from_slice(row);
                self.prev = Some(prev);
                self.groups_scratch = groups;
                Ok(())
            }

            /// Whether VP `v`'s recurrence ring holds `val`.
            fn hist_contains(&self, v: usize, val: u16) -> bool {
                let base = v * self.cfg.window;
                self.hist[base..base + self.hist_len[v] as usize].contains(&val)
            }

            /// Record a trusted value in VP `v`'s recurrence ring (overwriting
            /// the oldest once `cfg.window` entries are held).
            fn push_hist(&mut self, v: usize, val: u16) {
                let w = self.cfg.window;
                if self.hist_run[v] as usize >= w && val == self.hist_last[v] {
                    // The ring is already uniformly `val`: another push moves
                    // the cursor around identical slots — a no-op. This is every
                    // VP on every stable sweep.
                    return;
                }
                let pos = self.hist_pos[v] as usize;
                self.hist[v * w + pos] = val;
                self.hist_pos[v] = ((pos + 1) % w) as u32;
                if (self.hist_len[v] as usize) < w {
                    self.hist_len[v] += 1;
                }
                if val == self.hist_last[v] {
                    self.hist_run[v] += 1;
                } else {
                    self.hist_last[v] = val;
                    self.hist_run[v] = 1;
                }
            }

            fn push_disagreement(&mut self, v: usize, disagreed: bool) {
                if !disagreed && self.win[v] == 0 {
                    // A clear window absorbing another agreement: nothing can
                    // change — not the bits, not the strike state (a zero count
                    // is below the bar, so strikes would reset, and a clear
                    // window implies they already are). The steady-state VP costs
                    // one load here and no stores.
                    return;
                }
                let mask = u64::MAX >> (64 - self.cfg.window);
                self.win[v] = ((self.win[v] << 1) | u64::from(disagreed)) & mask;
                if f64::from(self.win[v].count_ones()) >= self.strike_bar {
                    self.strikes[v] += 1;
                    if self.strikes[v] >= self.cfg.quarantine_strikes {
                        self.status[v] = Status::Quarantined;
                        self.excluded[v] = true;
                        self.clean_streak[v] = 0;
                        self.pending_until[v] = 0;
                    }
                } else {
                    self.strikes[v] = 0;
                }
            }

            /// Windowed disagreement rate of VP `v`, normalised by window
            /// *capacity* so early observations cannot dominate.
            pub(super) fn suspicion(&self, v: usize) -> f64 {
                f64::from(self.win[v].count_ones()) / self.cfg.window as f64
            }

            /// Whether VP `v` is currently quarantined.
            pub(super) fn is_quarantined(&self, v: usize) -> bool {
                self.status[v] == Status::Quarantined
            }

            /// Number of currently-quarantined VPs.
            pub(super) fn quarantined_count(&self) -> usize {
                self.status
                    .iter()
                    .filter(|&&s| s == Status::Quarantined)
                    .count()
            }

            /// Which VPs are excluded from the current step's Φ (quarantined or
            /// step-disagreeing).
            pub(super) fn step_excluded(&self) -> &[bool] {
                &self.excluded
            }

            /// How many VPs the current step excluded — `step_excluded` counted,
            /// without the scan.
            pub(super) fn step_excluded_count(&self) -> usize {
                self.excluded_now
            }

            /// How many trusted VPs the current step excluded for uncorroborated
            /// flips. A large value means the group vote rejected a mass
            /// movement — on a healthy population that never happens, so it is
            /// evidence the vote itself was captured (see
            /// [`TrustConfig::contested_frac`]).
            pub(super) fn step_fabricated(&self) -> usize {
                self.fabricated
            }

            /// The step priced plainly: `base` with the excluded VPs zeroed,
            /// validated into weights, and Φ under them (`None` when no weight
            /// is left), with the fraction of base weight kept.
            pub(super) fn step_price(
                &self,
                a: &RoutingVector,
                b: &RoutingVector,
                base: &Weights,
                policy: UnknownPolicy,
            ) -> (Option<f64>, f64) {
                if self.excluded_now == 0 {
                    return (Some(phi(a, b, base, policy)), 1.0);
                }
                let step_w: Vec<f64> = (0..self.len().min(base.len()))
                    .map(|v| if self.excluded[v] { 0.0 } else { base.get(v) })
                    .collect();
                let trusted = step_w.iter().sum::<f64>() / base.total();
                match Weights::from_values(step_w) {
                    Ok(w) => (Some(phi(a, b, &w, policy)), trusted),
                    Err(Error::ZeroWeight) => (None, trusted),
                    Err(e) => panic!("step weights: {e}"),
                }
            }

            /// Fraction of total base weight not currently quarantined.
            pub(super) fn trusted_fraction(&self, base: &Weights) -> f64 {
                if base.total() == 0.0 {
                    return 0.0;
                }
                (0..self.len().min(base.len()))
                    .filter(|&v| !self.is_quarantined(v))
                    .map(|v| base.get(v))
                    .sum::<f64>()
                    / base.total()
            }
        }
    }

    /// SplitMix64: the seeded draws of [`adversarial_rows`].
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// FNV-1a over little-endian words: the same value on every
    /// toolchain, so the golden literals stay put.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn word(&mut self, x: u64) {
            for b in x.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// `steps` rows over `n` VPs on four sites. Each VP reports the site
    /// of its home group (`v % 4`); now and then a whole group moves, or
    /// a few VPs flap for one sweep. During sweeps 80..220 every twelfth
    /// VP from 0, 1 and 2 lies: at random, constantly, and five sweeps
    /// stale. Unknown and err cells fall anywhere.
    fn adversarial_rows(seed: u64, n: usize, steps: usize) -> Vec<Vec<u16>> {
        let mut rng = Draws(seed);
        let mut site_of = [0u16, 1, 2, 3];
        let mut truth: Vec<Vec<u16>> = Vec::with_capacity(steps);
        let mut rows = Vec::with_capacity(steps);
        for step in 0..steps {
            if rng.below(15) == 0 {
                site_of[rng.below(4) as usize] = rng.below(4) as u16;
            }
            truth.push((0..n).map(|v| site_of[v % 4]).collect());
            let mut row = truth[step].clone();
            let attack = (80..220).contains(&step);
            if rng.below(10) == 0 {
                let to = rng.below(4) as u16;
                for _ in 0..3 {
                    row[rng.below(n as u64) as usize] = to;
                }
            }
            for (v, cell) in row.iter_mut().enumerate() {
                if attack {
                    match v % 12 {
                        0 if rng.below(2) == 0 => *cell = rng.below(4) as u16,
                        1 => *cell = 3,
                        2 => *cell = truth[step.saturating_sub(5)][v],
                        _ => {}
                    }
                }
                match rng.below(60) {
                    0 => *cell = CODE_UNKNOWN,
                    1 => *cell = CODE_ERR,
                    _ => {}
                }
            }
            rows.push(row);
        }
        rows
    }

    #[test]
    fn trust_state_per_step_is_pinned() {
        // Hashes of the model's state after every step and of
        // `detect_trusted`'s result, per config. A change that means to
        // alter trust behaviour regenerates them: run this test, and
        // copy the `got` array from its failure message.
        let (n, steps) = (60usize, 300usize);
        let base = Weights::from_values((0..n).map(|v| 1.0 + (v % 3) as f64).collect()).unwrap();
        // Constant liars share one sybil identity; the rest come in pairs.
        let ids: Vec<u64> = (0..n)
            .map(|v| if v % 12 == 1 { 1_000 } else { v as u64 / 2 })
            .collect();
        // (window, probation, quarantine_strikes, suspicion_threshold,
        // min_trusted_frac, identities); the first is the default.
        let configs = [
            (8, 3, 2, 0.3, 0.5, false),
            (1, 3, 2, 0.3, 0.95, false),
            (4, 2, 2, 0.3, 0.5, true),
            (6, 3, 1, 0.3, 0.9, true),
            (12, 3, 2, 0.25, 0.5, false),
            (64, 3, 2, 0.3, 0.5, true),
        ];
        let known = |c: u16| c != CODE_UNKNOWN && c != CODE_ERR;
        let mut got = Vec::new();
        for (seed, &(window, probation, strikes, threshold, floor, with_ids)) in
            configs.iter().enumerate()
        {
            let cfg = TrustConfig {
                window,
                probation,
                quarantine_strikes: strikes,
                suspicion_threshold: threshold,
                min_trusted_frac: floor,
                ..TrustConfig::default()
            };
            let rows = adversarial_rows(seed as u64, n, steps);
            let ids = with_ids.then_some(&ids[..]);
            let mut m: TrustModel = TrustModel::new(cfg, &base, ids).unwrap();
            let mut h = Fnv::new();
            for row in &rows {
                m.observe(row, known).unwrap();
                for v in 0..n {
                    h.word(u64::from(m.step_excluded()[v]));
                    h.word(m.suspicion(v).to_bits());
                    h.word(u64::from(m.is_quarantined(v)));
                }
                h.word(m.step_fabricated() as u64);
                h.word(m.step_excluded_count() as u64);
                h.word(m.quarantined_count() as u64);
                h.word(m.trusted_fraction(&base).to_bits());
            }

            let mut health = full_health(steps, 100);
            for hl in health.iter_mut().skip(3).step_by(7) {
                hl.responses = 10;
            }
            let r = detect_trusted(
                &ChangeDetector::default(),
                &series_from(&rows),
                &base,
                &health,
                0.2,
                cfg,
                ids,
            )
            .unwrap();
            let mut g = Fnv::new();
            let suppressed = r.gated.suppressed.iter();
            let events = r.gated.events.iter();
            for e in events.chain(suppressed.clone().map(|s| &s.event)) {
                g.word(e.index as u64);
                for x in [e.phi, e.baseline, e.magnitude] {
                    g.word(x.to_bits());
                }
            }
            for s in suppressed {
                let (kind, value, floor) = match s.reason {
                    SuppressReason::LowCoverage { coverage, floor } => (0, coverage, floor),
                    SuppressReason::UntrustedPopulation {
                        trusted_fraction,
                        floor,
                    } => (1, trusted_fraction, floor),
                };
                for x in [kind, value.to_bits(), floor.to_bits()] {
                    g.word(x);
                }
            }
            for v in 0..n {
                g.word(r.trust.suspicion[v].to_bits());
                g.word(u64::from(r.trust.quarantined[v]));
            }
            g.word(r.trust.trusted_fraction.to_bits());
            g.word(r.trust.untrusted_steps as u64);
            for hl in &r.health {
                g.word(hl.distrusted as u64);
            }
            g.word(u64::from(r.degraded));
            for c in &r.contested {
                g.word(c.index as u64);
                g.word(c.excluded_fraction.to_bits());
            }
            got.push((h.0, g.0));
        }
        let expected: [(u64, u64); 6] = [
            (0xe8dd_1747_5f6b_28f5, 0xfda9_182b_91bd_1345),
            (0xa477_13c5_e8fd_200e, 0xaee4_986f_9c84_4d0a),
            (0xc3b1_2862_2fe5_149f, 0x583c_3c92_6eb3_dd55),
            (0xf3f3_129a_c323_9cec, 0x1bb9_de0c_91e9_4f39),
            (0x730b_b2e9_f953_a11d, 0x7666_8577_6a37_7d84),
            (0xc9ce_13e6_c89d_1725, 0xf112_5d6c_28ae_5984),
        ];
        assert_eq!(got, expected, "got {got:#x?}");
    }

    /// Rows for the differential test: `n` VPs over the site values
    /// `0..values`. Each VP has a home value. Now and then most VPs move
    /// to one value (a mass move, which lifts the population rate over
    /// 0.5), one cohort moves, or two cohorts scatter over two values.
    /// One VP in six reports its home a sweep late. The run comes in
    /// phases of 70 sweeps, each with its own noise: none (so the model
    /// settles and the steady-state shortcut runs), a few flaps and
    /// unknown, err or other cells, or liars at work (at random,
    /// constantly, stale).
    fn differential_rows(rng: &mut Draws, n: usize, values: u64, steps: usize) -> Vec<Vec<u16>> {
        let site = |rng: &mut Draws| rng.below(values) as u16;
        let mut home: Vec<u16> = (0..n).map(|_| site(rng)).collect();
        let mut last = home.clone();
        let liar: Vec<u64> = (0..n).map(|_| rng.below(6)).collect();
        let mut rows: Vec<Vec<u16>> = Vec::with_capacity(steps);
        let mut noise = 0;
        for step in 0..steps {
            if step % 70 == 0 {
                noise = rng.below(3);
            }
            let before = home.clone();
            match rng.below(25) {
                0 => {
                    let to = site(rng);
                    for h in home.iter_mut() {
                        if rng.below(6) != 0 {
                            *h = to;
                        }
                    }
                }
                1 => {
                    let (from, to) = (site(rng), site(rng));
                    for h in home.iter_mut().filter(|h| **h == from) {
                        *h = to;
                    }
                }
                2 => {
                    let from = [site(rng), site(rng)];
                    let to = [site(rng), site(rng)];
                    for h in home.iter_mut().filter(|h| from.contains(h)) {
                        match rng.below(6) {
                            0..=2 => *h = to[0],
                            3 | 4 => *h = to[1],
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
            let mut row = home.clone();
            for (v, cell) in row.iter_mut().enumerate() {
                if liar[v] == 3 {
                    *cell = last[v];
                }
                if noise == 2 {
                    match liar[v] {
                        0 if rng.below(2) == 0 => *cell = site(rng),
                        1 => *cell = 0,
                        2 => *cell = rows.get(step.saturating_sub(3)).map_or(*cell, |r| r[v]),
                        _ => {}
                    }
                }
                let odds = [400, 30, 30][noise as usize];
                match rng.below(odds) {
                    0 => *cell = CODE_UNKNOWN,
                    1 => *cell = CODE_ERR,
                    2 => *cell = CODE_OTHER,
                    3 => *cell = site(rng),
                    _ => {}
                }
            }
            rows.push(row);
            last = before;
        }
        rows
    }

    #[test]
    fn trust_model_matches_the_reference() {
        // The tally and verdict passes must leave every piece of
        // observable state, and the step's Φ, bit-identical to the model
        // that judges every VP on every sweep.
        let mut rng = Draws(0x7275_7374);
        let mut steady_sweeps = 0;
        for case in 0..48u64 {
            let window = [1, 8, 64][case as usize % 3];
            let unit = case % 2 == 0;
            let sybils = (case / 2) % 2 == 1;
            let n = 1 + rng.below(40) as usize;
            let values = 2 + rng.below(5);
            let cfg = TrustConfig {
                window,
                trim_frac: [0.0, 0.25, 0.4][rng.below(3) as usize],
                suspicion_threshold: [0.2, 0.3, 0.5][rng.below(3) as usize],
                quarantine_strikes: 1 + rng.below(3) as usize,
                probation: 1 + rng.below(4) as usize,
                ..TrustConfig::default()
            };
            let base = if unit {
                Weights::uniform(n)
            } else {
                let w = (0..n).map(|_| [0.0, 0.5, 1.0, 2.0, 3.0][rng.below(5) as usize]);
                let mut w: Vec<f64> = w.collect();
                w[0] = 1.5;
                Weights::from_values(w).unwrap()
            };
            // Sybil blocs: a few identities shared by many VPs.
            let ids: Vec<u64> = (0..n).map(|v| rng.below(1 + v as u64 / 3)).collect();
            let ids = sybils.then_some(&ids[..]);
            let err_known = case % 5 == 0;
            let known = |c: u16| c != CODE_UNKNOWN && (err_known || c != CODE_ERR);
            let rows = differential_rows(&mut rng, n, values, 300);
            let series = series_from(&rows);
            let mut m = TrustModel::new(cfg, &base, ids).unwrap();
            let mut r = reference::RefModel::new(cfg, &base, ids).unwrap();
            for (i, row) in rows.iter().enumerate() {
                m.observe(row, known).unwrap();
                r.observe(row, known).unwrap();
                let at = format!("case {case} step {i}");
                assert_eq!(m.step_excluded(), r.step_excluded(), "{at}");
                for v in 0..n {
                    assert_eq!(m.suspicion(v).to_bits(), r.suspicion(v).to_bits(), "{at}");
                    assert_eq!(m.is_quarantined(v), r.is_quarantined(v), "{at}");
                }
                assert_eq!(m.quarantined_count(), r.quarantined_count(), "{at}");
                assert_eq!(m.step_fabricated(), r.step_fabricated(), "{at}");
                assert_eq!(m.step_excluded_count(), r.step_excluded_count(), "{at}");
                let (tm, tr) = (m.trusted_fraction(&base), r.trusted_fraction(&base));
                assert_eq!(tm.to_bits(), tr.to_bits(), "{at}");
                if i == 0 {
                    continue;
                }
                steady_sweeps += usize::from(m.quiet_count == n);
                let (a, b) = (series.get(i - 1), series.get(i));
                for policy in [UnknownPolicy::Pessimistic, UnknownPolicy::KnownOnly] {
                    let (pm, km) = m.step_phi(a, b, &base, policy);
                    let (pr, kr) = r.step_price(a, b, &base, policy);
                    assert_eq!(
                        pm.map(f64::to_bits),
                        pr.map(f64::to_bits),
                        "{at} {policy:?}"
                    );
                    assert_eq!(km.to_bits(), kr.to_bits(), "{at} {policy:?}");
                }
            }
        }
        assert!(steady_sweeps > 0, "the steady-state shortcut never ran");
    }
}
