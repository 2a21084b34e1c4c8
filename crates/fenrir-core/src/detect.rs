//! Change detection and ground-truth validation (§3 of the paper).
//!
//! Fenrir "identifies events … by examining transitions in vector matrices"
//! at the measurement cadence. [`ChangeDetector`] flags observation steps
//! whose consecutive similarity Φ(t−1, t) drops markedly below its recent
//! baseline — robust to the coverage-depressed Φ levels of Verfploeter-style
//! data, where even stable routing sits at Φ ≈ 0.5–0.6.
//!
//! [`validate`] reproduces the paper's Table 4 evaluation: detected events
//! are matched against an operator maintenance log in which only *external*
//! events (site drains, traffic engineering) should be visible; *internal*
//! events should not. Detections matching no logged event are counted as
//! suspected **third-party changes** — per the paper, these are not false
//! positives but Fenrir's design goal.

use crate::error::{Error, Result};
use crate::health::CampaignHealth;
use crate::series::VectorSeries;
use crate::similarity::{phi, UnknownPolicy};
use crate::time::Timestamp;
use crate::weight::Weights;

/// A routing change flagged by the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedEvent {
    /// Index of the *later* observation of the changed pair.
    pub index: usize,
    /// Timestamp of that observation.
    pub time: Timestamp,
    /// Φ between the pair of observations bracketing the change.
    pub phi: f64,
    /// Baseline Φ the detector expected from recent history.
    pub baseline: f64,
    /// `baseline − phi`: how far similarity fell.
    pub magnitude: f64,
}

/// Why a detection was withheld by the data-quality gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SuppressReason {
    /// Measurement coverage around the flagged step was below the floor:
    /// the apparent routing change is indistinguishable from a
    /// measurement outage.
    LowCoverage {
        /// The lower of the two coverages bracketing the step.
        coverage: f64,
        /// The configured floor it fell below.
        floor: f64,
    },
    /// Too little of the measurement population around the flagged step
    /// was trustworthy: enough vantage points were quarantined or
    /// excluded by the trust model that the apparent change could be an
    /// artifact of the adversarial population, not of routing.
    UntrustedPopulation {
        /// Fraction of total base weight still trusted at the step.
        trusted_fraction: f64,
        /// The configured floor it fell below.
        floor: f64,
    },
}

/// A detection the gate refused to report as a routing change.
///
/// Suppressed events are *recorded*, not dropped: a blackout must show up
/// as "something happened here, but the data cannot support an alarm",
/// never as silence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuppressedEvent {
    /// The detection as the ungated detector saw it.
    pub event: DetectedEvent,
    /// Why it was withheld.
    pub reason: SuppressReason,
}

/// Result of coverage-gated detection: trusted events plus the detections
/// withheld for data-quality reasons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatedDetection {
    /// Detections at adequately-covered observations.
    pub events: Vec<DetectedEvent>,
    /// Detections withheld because the data could not support them.
    pub suppressed: Vec<SuppressedEvent>,
}

/// Default coverage floor for [`ChangeDetector::detect_gated`]: below
/// one-fifth coverage a Φ drop says more about the measurement than about
/// routing.
pub const DEFAULT_COVERAGE_FLOOR: f64 = 0.2;

/// Sliding-baseline change detector over consecutive-pair similarities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeDetector {
    /// Flag a step when Φ falls at least this far below baseline.
    pub min_drop: f64,
    /// Number of recent steps whose median forms the baseline.
    pub window: usize,
    /// Merge detections within this many observations of each other into
    /// one event (the paper groups log entries within ten minutes; at a
    /// 4-minute cadence that is ~3 observations).
    pub merge_gap: usize,
    /// How unknowns enter Φ.
    pub policy: UnknownPolicy,
}

impl Default for ChangeDetector {
    fn default() -> Self {
        ChangeDetector {
            min_drop: 0.1,
            window: 12,
            merge_gap: 2,
            policy: UnknownPolicy::Pessimistic,
        }
    }
}

impl ChangeDetector {
    /// Consecutive-pair similarities `Φ(t_{i-1}, t_i)` for the whole series
    /// (length `series.len() − 1`).
    pub fn step_similarities(&self, series: &VectorSeries, w: &Weights) -> Vec<f64> {
        (1..series.len())
            .map(|i| phi(series.get(i - 1), series.get(i), w, self.policy))
            .collect()
    }

    /// Run detection over the series.
    ///
    /// The baseline for step `i` is the median of up to `window` *preceding*
    /// step similarities (so a change does not suppress its own detection);
    /// the first step compares against itself and never fires.
    pub fn detect(&self, series: &VectorSeries, w: &Weights) -> Vec<DetectedEvent> {
        let steps = self.step_similarities(series, w);
        self.detect_from_steps(&steps, &series.times())
            .expect("steps and times come from one series")
    }

    /// Run detection over precomputed step similarities.
    ///
    /// `steps[i]` is Φ between observations `i` and `i + 1`; `times` are
    /// the observation timestamps, so unless `steps` is empty
    /// `times.len()` must be `steps.len() + 1` (else
    /// [`Error::ShapeMismatch`]). This is [`detect`](Self::detect) with
    /// the Φ computation factored out, for callers that weight each step
    /// differently — the trust model recomputes per-step weights as
    /// vantage points fall in and out of quarantine.
    pub fn detect_from_steps(
        &self,
        steps: &[f64],
        times: &[Timestamp],
    ) -> Result<Vec<DetectedEvent>> {
        if !steps.is_empty() && times.len() != steps.len() + 1 {
            return Err(Error::ShapeMismatch {
                what: "step timestamps",
                expected: steps.len() + 1,
                actual: times.len(),
            });
        }
        let mut raw: Vec<DetectedEvent> = Vec::new();
        let mut history: Vec<f64> = Vec::new();
        for (i, &p) in steps.iter().enumerate() {
            let baseline = if history.is_empty() {
                p
            } else {
                median(&history)
            };
            let magnitude = baseline - p;
            if magnitude >= self.min_drop {
                raw.push(DetectedEvent {
                    index: i + 1,
                    time: times[i + 1],
                    phi: p,
                    baseline,
                    magnitude,
                });
                // A detected change does not poison the baseline: keep the
                // expected level, not the anomalous one.
            } else {
                history.push(p);
                if history.len() > self.window {
                    history.remove(0);
                }
            }
        }
        Ok(self.merge(raw))
    }

    /// Collapse bursts of detections separated by at most `merge_gap`
    /// observations, keeping the largest-magnitude representative.
    fn merge(&self, raw: Vec<DetectedEvent>) -> Vec<DetectedEvent> {
        let mut out: Vec<DetectedEvent> = Vec::new();
        for e in raw {
            match out.last_mut() {
                // Anchored on the burst's onset so distinct events spaced
                // wider than the gap never chain together.
                Some(last) if e.index - last.index <= self.merge_gap + 1 => {
                    // Keep the onset's index and time; adopt the strongest
                    // magnitude seen in the burst.
                    if e.magnitude > last.magnitude {
                        last.magnitude = e.magnitude;
                        last.phi = e.phi;
                        last.baseline = e.baseline;
                    }
                }
                _ => out.push(e),
            }
        }
        out
    }

    /// Run detection gated by per-observation campaign health.
    ///
    /// A detection at step `i → i+1` is only trustworthy when *both*
    /// bracketing observations were adequately measured: a sweep that
    /// went dark produces an apparent change both entering and leaving
    /// the outage. Any detection where the lower of the two coverages is
    /// below `floor` is moved to [`GatedDetection::suppressed`] instead
    /// of being reported as a routing change.
    ///
    /// `health` must align one-to-one with the series' observations.
    pub fn detect_gated(
        &self,
        series: &VectorSeries,
        w: &Weights,
        health: &[CampaignHealth],
        floor: f64,
    ) -> Result<GatedDetection> {
        let detect = || Ok((self.detect(series, w), ()));
        let (gated, ()) = gate(series.len(), health, floor, detect, |_, _| None)?;
        Ok(gated)
    }
}

/// The data-quality gate of [`ChangeDetector::detect_gated`] and
/// [`detect_trusted`](crate::trust::detect_trusted).
///
/// Checks `floor` and that `health` aligns one-to-one with the series'
/// `observations`, and only then runs `detect`, which returns the
/// detections and whatever else its caller needs. A detection where the
/// lower of its two bracketing coverages is below `floor` is suppressed
/// for [`SuppressReason::LowCoverage`]; otherwise `untrusted` may
/// suppress it with its own reason, and if it does not, it is reported.
pub(crate) fn gate<T>(
    observations: usize,
    health: &[CampaignHealth],
    floor: f64,
    detect: impl FnOnce() -> Result<(Vec<DetectedEvent>, T)>,
    untrusted: impl Fn(&T, &DetectedEvent) -> Option<SuppressReason>,
) -> Result<(GatedDetection, T)> {
    if !(0.0..=1.0).contains(&floor) {
        return Err(Error::InvalidParameter {
            name: "coverage_floor",
            message: format!("must lie in [0, 1], got {floor}"),
        });
    }
    if health.len() != observations {
        return Err(Error::ShapeMismatch {
            what: "health series",
            expected: observations,
            actual: health.len(),
        });
    }
    let (events, extra) = detect()?;
    let mut gated = GatedDetection::default();
    for event in events {
        // Detection never fires at index 0, so `index - 1` is in range.
        let before = health[event.index - 1].coverage();
        let at = health[event.index].coverage();
        let coverage = before.min(at);
        let reason = if coverage < floor {
            Some(SuppressReason::LowCoverage { coverage, floor })
        } else {
            untrusted(&extra, &event)
        };
        match reason {
            Some(reason) => gated.suppressed.push(SuppressedEvent { event, reason }),
            None => gated.events.push(event),
        }
    }
    Ok((gated, extra))
}

fn median(xs: &[f64]) -> f64 {
    debug_assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Kind of a ground-truth maintenance event (Table 4 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Intentional temporary removal of a site from anycast.
    SiteDrain,
    /// Routing adjustment that preserves reachability but shifts catchments.
    TrafficEngineering,
    /// Internal change with no expected external effect.
    Internal,
}

impl EventKind {
    /// Whether an event of this kind should be externally visible.
    pub fn is_external(self) -> bool {
        !matches!(self, EventKind::Internal)
    }
}

/// One entry of an operator maintenance log (before grouping).
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// When the maintenance happened.
    pub time: Timestamp,
    /// Who performed it — the paper groups entries "performed by the same
    /// operator".
    pub operator: String,
    /// What kind of maintenance.
    pub kind: EventKind,
}

/// A group of log entries treated as one ground-truth event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventGroup {
    /// Time of the earliest entry in the group.
    pub time: Timestamp,
    /// Operator shared by all entries.
    pub operator: String,
    /// The group is external if *any* member is external (a drain grouped
    /// with internal steps is still externally visible).
    pub kind: EventKind,
    /// Number of raw entries grouped.
    pub entries: usize,
}

/// Group maintenance entries "occurring within ten minutes and performed by
/// the same operator" (§3). `gap_secs` is the grouping window (600 for the
/// paper's rule). Entries need not be pre-sorted.
pub fn group_log_entries(entries: &[LogEntry], gap_secs: i64) -> Vec<EventGroup> {
    let mut sorted: Vec<&LogEntry> = entries.iter().collect();
    sorted.sort_by_key(|e| (e.time, e.operator.clone()));
    let mut groups: Vec<EventGroup> = Vec::new();
    for e in sorted {
        let joined = groups
            .iter_mut()
            .rev()
            .find(|g| g.operator == e.operator && (e.time - g.time).abs() <= gap_secs);
        match joined {
            Some(g) => {
                g.entries += 1;
                // Externality dominates: prefer drain > TE > internal.
                g.kind = dominant_kind(g.kind, e.kind);
            }
            None => groups.push(EventGroup {
                time: e.time,
                operator: e.operator.clone(),
                kind: e.kind,
                entries: 1,
            }),
        }
    }
    groups
}

fn dominant_kind(a: EventKind, b: EventKind) -> EventKind {
    use EventKind::*;
    match (a, b) {
        (SiteDrain, _) | (_, SiteDrain) => SiteDrain,
        (TrafficEngineering, _) | (_, TrafficEngineering) => TrafficEngineering,
        _ => Internal,
    }
}

/// The Table 4 confusion-matrix report.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// External events detected (true positives).
    pub tp: usize,
    /// External events missed (false negatives).
    pub fn_: usize,
    /// Internal events not detected (true negatives).
    pub tn: usize,
    /// Internal events that nevertheless matched a detection (the paper's
    /// "FP?" cell — possibly coincident third-party changes).
    pub fp: usize,
    /// Detections matching no logged event at all — suspected third-party
    /// routing changes (the paper's starred row of 10).
    pub third_party: usize,
    /// TP broken down by external kind: `(site_drain, traffic_engineering)`.
    pub tp_by_kind: (usize, usize),
}

impl ValidationReport {
    /// `(TP + TN) / all logged events` — the paper reports 0.84–0.86.
    pub fn accuracy(&self) -> f64 {
        let all = self.tp + self.fn_ + self.tn + self.fp;
        if all == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / all as f64
    }

    /// `TP / (TP + FP)` — the paper reports 0.70, noting the FPs are likely
    /// real third-party changes.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// `TP / (TP + FN)` — the paper reports perfect recall of 1.0.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// Render in the shape of the paper's Table 4.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("ground truth                 detected    not detected\n");
        out.push_str(&format!(
            "  external                   {:>4} (TP)   {:>4} (FN)\n",
            self.tp, self.fn_
        ));
        out.push_str(&format!(
            "    site drain               {:>4}\n",
            self.tp_by_kind.0
        ));
        out.push_str(&format!(
            "    traffic engineering      {:>4}\n",
            self.tp_by_kind.1
        ));
        out.push_str(&format!(
            "  internal only              {:>4} (FP?)  {:>4} (TN)\n",
            self.fp, self.tn
        ));
        out.push_str(&format!(
            "external changes? (*)        {:>4}\n",
            self.third_party
        ));
        out.push_str(&format!(
            "accuracy {:.2}  precision {:.2}  recall {:.2}\n",
            self.accuracy(),
            self.precision(),
            self.recall()
        ));
        out
    }
}

/// Match detections against grouped ground truth.
///
/// A ground-truth event and a detection match when they are within
/// `tolerance_secs` of each other; each detection matches at most one event
/// and vice versa (greedy nearest-first matching).
pub fn validate(
    detected: &[DetectedEvent],
    truth: &[EventGroup],
    tolerance_secs: i64,
) -> ValidationReport {
    // Candidate (|Δt|, truth index, detection index) pairs, nearest first.
    let mut cands: Vec<(i64, usize, usize)> = Vec::new();
    for (gi, g) in truth.iter().enumerate() {
        for (di, d) in detected.iter().enumerate() {
            let dt = (d.time - g.time).abs();
            if dt <= tolerance_secs {
                cands.push((dt, gi, di));
            }
        }
    }
    cands.sort();
    let mut truth_matched = vec![false; truth.len()];
    let mut det_matched = vec![false; detected.len()];
    for (_, gi, di) in cands {
        if !truth_matched[gi] && !det_matched[di] {
            truth_matched[gi] = true;
            det_matched[di] = true;
        }
    }

    let mut report = ValidationReport {
        tp: 0,
        fn_: 0,
        tn: 0,
        fp: 0,
        third_party: 0,
        tp_by_kind: (0, 0),
    };
    for (g, &matched) in truth.iter().zip(&truth_matched) {
        match (g.kind.is_external(), matched) {
            (true, true) => {
                report.tp += 1;
                match g.kind {
                    EventKind::SiteDrain => report.tp_by_kind.0 += 1,
                    EventKind::TrafficEngineering => report.tp_by_kind.1 += 1,
                    EventKind::Internal => unreachable!("internal is not external"),
                }
            }
            (true, false) => report.fn_ += 1,
            (false, true) => report.fp += 1,
            (false, false) => report.tn += 1,
        }
    }
    report.third_party = det_matched.iter().filter(|&&m| !m).count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SiteId, SiteTable};
    use crate::vector::{Catchment, RoutingVector};

    fn ts(d: i64) -> Timestamp {
        Timestamp::from_days(d)
    }

    fn s(n: u16) -> Catchment {
        Catchment::Site(SiteId(n))
    }

    /// Series of 20 days over 4 networks: stable on site 0, everyone moves
    /// to site 1 on day 10.
    fn shifting_series() -> (VectorSeries, Weights) {
        let sites = SiteTable::from_names(["A", "B"]);
        let mut series = VectorSeries::new(sites, 4);
        for d in 0..20 {
            let c = if d < 10 { s(0) } else { s(1) };
            series
                .push(RoutingVector::from_catchments(ts(d), vec![c; 4]))
                .unwrap();
        }
        (series, Weights::uniform(4))
    }

    #[test]
    fn detects_a_clean_shift_once() {
        let (series, w) = shifting_series();
        let det = ChangeDetector::default();
        let events = det.detect(&series, &w);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].index, 10);
        assert_eq!(events[0].time, ts(10));
        assert!(events[0].magnitude >= 0.9);
    }

    /// Health series for `n` observations over 4 targets, all fully covered.
    fn full_health(n: usize) -> Vec<CampaignHealth> {
        (0..n)
            .map(|d| {
                let mut h = CampaignHealth::new(ts(d as i64), 4);
                h.responses = 4;
                h
            })
            .collect()
    }

    #[test]
    fn gate_passes_well_covered_detections() {
        let (series, w) = shifting_series();
        let det = ChangeDetector::default();
        let gated = det
            .detect_gated(&series, &w, &full_health(20), DEFAULT_COVERAGE_FLOOR)
            .unwrap();
        assert_eq!(gated.events.len(), 1);
        assert!(gated.suppressed.is_empty());
        assert_eq!(gated.events[0].index, 10);
    }

    #[test]
    fn gate_suppresses_detections_bracketing_low_coverage() {
        let (series, w) = shifting_series();
        let mut health = full_health(20);
        // The sweep *before* the shift went dark: the change cannot be
        // distinguished from the outage's edge.
        health[9].responses = 0;
        let det = ChangeDetector::default();
        let gated = det.detect_gated(&series, &w, &health, 0.5).unwrap();
        assert!(gated.events.is_empty(), "{:?}", gated.events);
        assert_eq!(gated.suppressed.len(), 1);
        assert_eq!(gated.suppressed[0].event.index, 10);
        match gated.suppressed[0].reason {
            SuppressReason::LowCoverage { coverage, floor } => {
                assert_eq!(coverage, 0.0);
                assert_eq!(floor, 0.5);
            }
            other => panic!("expected LowCoverage, got {other:?}"),
        }
    }

    #[test]
    fn gate_rejects_misaligned_health() {
        let (series, w) = shifting_series();
        let err = ChangeDetector::default()
            .detect_gated(&series, &w, &full_health(19), 0.2)
            .unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn gate_rejects_bad_floor() {
        let (series, w) = shifting_series();
        let err = ChangeDetector::default()
            .detect_gated(&series, &w, &full_health(20), 1.5)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn detect_from_steps_refuses_short_times() {
        // The third step drops far enough to fire, at `times[3]`.
        let err = ChangeDetector::default()
            .detect_from_steps(&[0.9, 0.9, 0.1], &[ts(0), ts(1)])
            .unwrap_err();
        let want = "shape mismatch for step timestamps: expected 4 elements, got 2";
        assert_eq!(err.to_string(), want);
    }

    #[test]
    fn stable_series_yields_no_events() {
        let sites = SiteTable::from_names(["A"]);
        let mut series = VectorSeries::new(sites, 2);
        for d in 0..10 {
            series
                .push(RoutingVector::from_catchments(ts(d), vec![s(0); 2]))
                .unwrap();
        }
        let events = ChangeDetector::default().detect(&series, &Weights::uniform(2));
        assert!(events.is_empty());
    }

    #[test]
    fn baseline_survives_depressed_coverage() {
        // Half the networks always unknown: stable Φ is 0.5, and a change
        // moving the known half drops Φ to 0. Detector must fire exactly at
        // the change despite the low baseline.
        let sites = SiteTable::from_names(["A", "B"]);
        let mut series = VectorSeries::new(sites, 4);
        for d in 0..12 {
            let site = if d < 6 { s(0) } else { s(1) };
            series
                .push(RoutingVector::from_catchments(
                    ts(d),
                    vec![site, site, Catchment::Unknown, Catchment::Unknown],
                ))
                .unwrap();
        }
        let events = ChangeDetector::default().detect(&series, &Weights::uniform(4));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].index, 6);
        assert!((events[0].baseline - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_collapses_bursts() {
        // A two-step transition (A -> half-moved -> B) is one operational
        // event.
        let sites = SiteTable::from_names(["A", "B"]);
        let mut series = VectorSeries::new(sites, 4);
        for d in 0..6 {
            series
                .push(RoutingVector::from_catchments(ts(d), vec![s(0); 4]))
                .unwrap();
        }
        series
            .push(RoutingVector::from_catchments(
                ts(6),
                vec![s(0), s(0), s(1), s(1)],
            ))
            .unwrap();
        for d in 7..12 {
            series
                .push(RoutingVector::from_catchments(ts(d), vec![s(1); 4]))
                .unwrap();
        }
        let events = ChangeDetector::default().detect(&series, &Weights::uniform(4));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].index, 6); // onset of the burst
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn grouping_merges_same_operator_within_gap() {
        let entries = vec![
            LogEntry {
                time: Timestamp::from_secs(0),
                operator: "alice".into(),
                kind: EventKind::Internal,
            },
            LogEntry {
                time: Timestamp::from_secs(300),
                operator: "alice".into(),
                kind: EventKind::SiteDrain,
            },
            LogEntry {
                time: Timestamp::from_secs(400),
                operator: "bob".into(),
                kind: EventKind::Internal,
            },
            LogEntry {
                time: Timestamp::from_secs(5_000),
                operator: "alice".into(),
                kind: EventKind::TrafficEngineering,
            },
        ];
        let groups = group_log_entries(&entries, 600);
        assert_eq!(groups.len(), 3);
        // Alice's first group absorbed the drain and became external.
        let g0 = groups
            .iter()
            .find(|g| g.operator == "alice" && g.entries == 2)
            .unwrap();
        assert_eq!(g0.kind, EventKind::SiteDrain);
        assert!(g0.kind.is_external());
    }

    #[test]
    fn grouping_keeps_different_operators_apart() {
        let entries = vec![
            LogEntry {
                time: Timestamp::from_secs(0),
                operator: "a".into(),
                kind: EventKind::Internal,
            },
            LogEntry {
                time: Timestamp::from_secs(1),
                operator: "b".into(),
                kind: EventKind::Internal,
            },
        ];
        assert_eq!(group_log_entries(&entries, 600).len(), 2);
    }

    fn det_at(secs: i64) -> DetectedEvent {
        DetectedEvent {
            index: 0,
            time: Timestamp::from_secs(secs),
            phi: 0.2,
            baseline: 0.9,
            magnitude: 0.7,
        }
    }

    fn truth_at(secs: i64, kind: EventKind) -> EventGroup {
        EventGroup {
            time: Timestamp::from_secs(secs),
            operator: "op".into(),
            kind,
            entries: 1,
        }
    }

    #[test]
    fn validation_reproduces_table4_arithmetic() {
        // 19 external all detected, 29 internal undetected, 8 internal
        // detected, 10 extra detections: the paper's Table 4.
        let mut truth = Vec::new();
        let mut detected = Vec::new();
        let mut clock = 0i64;
        for i in 0..19 {
            let kind = if i < 17 {
                EventKind::SiteDrain
            } else {
                EventKind::TrafficEngineering
            };
            truth.push(truth_at(clock, kind));
            detected.push(det_at(clock));
            clock += 10_000;
        }
        for _ in 0..29 {
            truth.push(truth_at(clock, EventKind::Internal));
            clock += 10_000;
        }
        for _ in 0..8 {
            truth.push(truth_at(clock, EventKind::Internal));
            detected.push(det_at(clock));
            clock += 10_000;
        }
        for _ in 0..10 {
            detected.push(det_at(clock));
            clock += 10_000;
        }
        let report = validate(&detected, &truth, 600);
        assert_eq!(report.tp, 19);
        assert_eq!(report.fn_, 0);
        assert_eq!(report.tn, 29);
        assert_eq!(report.fp, 8);
        assert_eq!(report.third_party, 10);
        assert_eq!(report.tp_by_kind, (17, 2));
        assert!((report.recall() - 1.0).abs() < 1e-12);
        assert!((report.accuracy() - 48.0 / 56.0).abs() < 1e-12);
        assert!((report.precision() - 19.0 / 27.0).abs() < 1e-12);
        let rendered = report.render();
        assert!(rendered.contains("(TP)"));
        assert!(rendered.contains("recall 1.00"));
    }

    #[test]
    fn validation_matching_is_one_to_one() {
        // One truth event, two detections nearby: only one matches; the
        // other counts as third-party.
        let truth = vec![truth_at(0, EventKind::SiteDrain)];
        let detected = vec![det_at(10), det_at(20)];
        let report = validate(&detected, &truth, 600);
        assert_eq!(report.tp, 1);
        assert_eq!(report.third_party, 1);
    }

    #[test]
    fn validation_tolerance_bounds_matching() {
        let truth = vec![truth_at(0, EventKind::SiteDrain)];
        let detected = vec![det_at(1_000)];
        let report = validate(&detected, &truth, 600);
        assert_eq!(report.tp, 0);
        assert_eq!(report.fn_, 1);
        assert_eq!(report.third_party, 1);
        assert_eq!(report.recall(), 0.0);
    }

    #[test]
    fn empty_report_metrics_are_zero() {
        let report = validate(&[], &[], 600);
        assert_eq!(report.accuracy(), 0.0);
        assert_eq!(report.precision(), 0.0);
        assert_eq!(report.recall(), 0.0);
    }
}
