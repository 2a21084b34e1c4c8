//! Runtime divergence guard for incremental recomputation.
//!
//! The incremental paths (`IncrementalRoutes` in fenrir-netsim and
//! [`SimilarityMatrix::extend`](crate::similarity::SimilarityMatrix) here)
//! are required to reproduce their batch counterparts bit-for-bit. A
//! dendrogram has no incremental path to guard: its
//! [`extend`](crate::cluster::Dendrogram::extend) is a batch build. Debug
//! builds cross-check every transition; release builds used to run with
//! no net at all.
//! A [`DivergenceGuard`] closes that gap: it *samples* cross-checks at
//! runtime, and when a sampled check finds a mismatch it records a typed
//! [`Error::IncrementalDivergence`], lets the caller fall back to the batch
//! result, and **quarantines** the incremental state — every subsequent
//! computation takes the batch path until the guard is reset. A campaign
//! therefore survives an incremental bug with correct (batch) results and a
//! visible trail in `CampaignHealth::divergences` instead of aborting or
//! silently skewing the series.
//!
//! Sampling is deterministic (call counters, never RNG draws) so that a
//! resumed campaign checks exactly the same transitions a straight-through
//! run would — divergence guarding must not perturb resume determinism.

use crate::error::Error;

/// How often a guard cross-checks, as "1 in N" sampling rates.
///
/// Transitions that applied at least one event ("eventful") are the likely
/// place for an incremental bug to land, so they are sampled much more
/// densely than quiet transitions, which only catch state that was
/// corrupted out-of-band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingRate {
    /// Check 1 in this many eventful transitions (0 = never).
    pub eventful_every: usize,
    /// Check 1 in this many quiet transitions (0 = never).
    pub quiet_every: usize,
}

impl SamplingRate {
    /// The default runtime rate: every eventful transition in debug
    /// builds (preserving the historical debug cross-check density), every
    /// 4th eventful and every 64th quiet transition in release builds.
    pub fn default_for_build() -> Self {
        if cfg!(debug_assertions) {
            SamplingRate {
                eventful_every: 1,
                quiet_every: 64,
            }
        } else {
            SamplingRate {
                eventful_every: 4,
                quiet_every: 64,
            }
        }
    }

    /// Check every transition — used by tests and by quarantine recovery
    /// audits.
    pub fn always() -> Self {
        SamplingRate {
            eventful_every: 1,
            quiet_every: 1,
        }
    }
}

/// Sampled incremental-vs-batch cross-check state for one incremental
/// structure (or one family of them, e.g. all per-destination route
/// tables of a campaign). Two structures extended in the same step need a
/// guard each: on one shared counter their calls alternate, so with an
/// even rate the first takes every sample and the second none.
#[derive(Debug, Clone)]
pub struct DivergenceGuard {
    rate: SamplingRate,
    eventful_seen: usize,
    quiet_seen: usize,
    /// Force the next `should_check` to return true regardless of the
    /// sampling counters (set by fault injection so chaos tests exercise
    /// the recovery path deterministically).
    armed: bool,
    quarantined: bool,
    events: Vec<Error>,
    /// Divergences recorded since the last `drain_new` call.
    pending: usize,
}

impl Default for DivergenceGuard {
    fn default() -> Self {
        DivergenceGuard::new(SamplingRate::default_for_build())
    }
}

impl DivergenceGuard {
    /// A guard with an explicit sampling rate.
    pub fn new(rate: SamplingRate) -> Self {
        DivergenceGuard {
            rate,
            eventful_seen: 0,
            quiet_seen: 0,
            armed: false,
            quarantined: false,
            events: Vec::new(),
            pending: 0,
        }
    }

    /// Decide whether this transition should be cross-checked against the
    /// batch computation. Counts the transition either way; the first
    /// transition of each kind is always checked (counters start at 0), so
    /// short campaigns are not left entirely unguarded.
    pub fn should_check(&mut self, eventful: bool) -> bool {
        if self.armed {
            self.armed = false;
            return true;
        }
        let (seen, every) = if eventful {
            let s = self.eventful_seen;
            self.eventful_seen += 1;
            (s, self.rate.eventful_every)
        } else {
            let s = self.quiet_seen;
            self.quiet_seen += 1;
            (s, self.rate.quiet_every)
        };
        every != 0 && seen % every == 0
    }

    /// Force the next `should_check` to fire. Fault injection calls this
    /// when it poisons incremental state, so the detection/fallback/
    /// quarantine path runs deterministically instead of waiting for the
    /// sampling counters to come around.
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Record a detected divergence. The caller is expected to have
    /// already substituted the batch result; from here on the guard is
    /// quarantined and `quarantined()` steers every future computation to
    /// the batch path.
    pub fn record(&mut self, what: &'static str, detail: String) {
        self.events
            .push(Error::IncrementalDivergence { what, detail });
        self.pending += 1;
        self.quarantined = true;
    }

    /// True once any divergence has been recorded: incremental state is no
    /// longer trusted and callers must use the batch path.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Every divergence recorded over the guard's lifetime.
    pub fn events(&self) -> &[Error] {
        &self.events
    }

    /// Number of divergences recorded since the previous call — for
    /// folding into the current sweep's `CampaignHealth::divergences`.
    pub fn drain_new(&mut self) -> usize {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_transition_of_each_kind_is_checked() {
        let mut g = DivergenceGuard::new(SamplingRate {
            eventful_every: 4,
            quiet_every: 64,
        });
        assert!(g.should_check(true));
        assert!(g.should_check(false));
        assert!(!g.should_check(true));
        assert!(!g.should_check(false));
    }

    #[test]
    fn sampling_rate_is_one_in_n() {
        let mut g = DivergenceGuard::new(SamplingRate {
            eventful_every: 3,
            quiet_every: 0,
        });
        let checked: Vec<bool> = (0..9).map(|_| g.should_check(true)).collect();
        assert_eq!(
            checked,
            vec![true, false, false, true, false, false, true, false, false]
        );
        // quiet_every == 0 disables quiet checks entirely.
        assert!((0..10).all(|_| !g.should_check(false)));
    }

    #[test]
    fn arming_forces_exactly_one_check() {
        let mut g = DivergenceGuard::new(SamplingRate {
            eventful_every: 0,
            quiet_every: 0,
        });
        assert!(!g.should_check(false));
        g.arm();
        assert!(g.should_check(false));
        assert!(!g.should_check(false));
    }

    #[test]
    fn recording_quarantines_and_drains() {
        let mut g = DivergenceGuard::new(SamplingRate::always());
        assert!(!g.quarantined());
        g.record("routes", "AS 3 mismatch".into());
        assert!(g.quarantined());
        assert_eq!(g.drain_new(), 1);
        assert_eq!(g.drain_new(), 0);
        assert_eq!(g.events().len(), 1);
        assert!(matches!(
            g.events()[0],
            Error::IncrementalDivergence { what: "routes", .. }
        ));
    }
}
