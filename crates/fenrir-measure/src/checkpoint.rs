//! Campaign checkpointing: the sink trait simulators stream durable
//! per-sweep progress into, and the resume state they restart from.
//!
//! A killed campaign loses irreplaceable history unless every completed
//! sweep is durable before the next one starts. Every simulator therefore
//! runs its sweeps through the one campaign loop in [`crate::runner`],
//! which streams them into a [`CampaignSink`]: after a sweep's row is
//! final, the loop hands the sink a [`SweepCheckpoint`] carrying the row,
//! the sweep's health record, the runner's cross-sweep counters, and the
//! word positions of both RNG streams. On restart, the sink's
//! [`CampaignSink::resume`] returns the folded [`ResumeState`]; the
//! simulator replays its deterministic prelude, the loop checks that the
//! state fits the campaign, seeks the RNGs to the recorded positions, and
//! continues from the next sweep — producing a series bit-identical to an
//! uninterrupted run (asserted by the kill/resume equivalence tests).
//!
//! The durable implementations live in `fenrir-data::journal`
//! (layering: fenrir-data depends on fenrir-measure, not vice versa):
//! a flat file-backed sink, and a tiered one whose hot append tail
//! stays on local disk while compacted snapshots are sealed into an
//! object-storage tier (`fenrir-data::storage`) — the checkpoint
//! protocol is identical either way. This module provides the protocol
//! plus in-memory sinks for tests and for callers that do not need
//! durability.

use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;

/// Everything a campaign must persist after one completed sweep.
///
/// `Row` is the simulator's per-sweep observation payload: catchment
/// codes for verfploeter/atlas/EDNS, per-hop code rows for traceroute,
/// optional RTT samples for the latency prober.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint<Row> {
    /// Index of the completed sweep (0-based, dense).
    pub sweep: usize,
    /// The sweep's observation payload.
    pub row: Row,
    /// The sweep's health record, at its *nominal* time (clock-skew
    /// normalisation happens once, in `CampaignRunner::finish`).
    pub health: CampaignHealth,
    /// Runner cross-sweep state: consecutive failures per target.
    pub consecutive_failures: Vec<usize>,
    /// Runner cross-sweep state: quarantine horizon per target.
    pub quarantined_until: Vec<usize>,
    /// Word position of the campaign RNG after this sweep.
    pub campaign_rng_pos: u64,
    /// Word position of the fault-session RNG after this sweep (0 when
    /// the campaign runs without a fault plan).
    pub fault_rng_pos: u64,
}

/// Folded checkpoint state a resumed campaign restarts from.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState<Row> {
    /// First sweep the resumed run must execute (= completed sweeps).
    pub next_sweep: usize,
    /// Rows of every completed sweep, in sweep order.
    pub rows: Vec<Row>,
    /// Health records of every completed sweep (nominal times).
    pub health: Vec<CampaignHealth>,
    /// Runner counters as of the last completed sweep.
    pub consecutive_failures: Vec<usize>,
    /// Runner quarantine horizons as of the last completed sweep.
    pub quarantined_until: Vec<usize>,
    /// Campaign RNG word position as of the last completed sweep.
    pub campaign_rng_pos: u64,
    /// Fault RNG word position as of the last completed sweep.
    pub fault_rng_pos: u64,
}

impl<Row> ResumeState<Row> {
    /// The state of a campaign that has completed nothing yet.
    pub fn fresh(targets: usize) -> Self {
        ResumeState {
            next_sweep: 0,
            rows: Vec::new(),
            health: Vec::new(),
            consecutive_failures: vec![0; targets],
            quarantined_until: vec![0; targets],
            campaign_rng_pos: 0,
            fault_rng_pos: 0,
        }
    }

    /// Fold one durable checkpoint into the state. Checkpoints must
    /// arrive in dense sweep order; a gap or repeat means the journal
    /// that produced them is internally inconsistent.
    pub fn apply(&mut self, ck: SweepCheckpoint<Row>) -> Result<()> {
        if ck.sweep != self.next_sweep {
            return Err(Error::Corrupted {
                what: "sweep checkpoint sequence",
                offset: 0,
                message: format!(
                    "checkpoint for sweep {}, expected {}",
                    ck.sweep, self.next_sweep
                ),
            });
        }
        self.next_sweep += 1;
        self.rows.push(ck.row);
        self.health.push(ck.health);
        self.consecutive_failures = ck.consecutive_failures;
        self.quarantined_until = ck.quarantined_until;
        self.campaign_rng_pos = ck.campaign_rng_pos;
        self.fault_rng_pos = ck.fault_rng_pos;
        Ok(())
    }
}

/// Where a campaign streams durable progress and recovers it from.
///
/// `record` is called exactly once per completed sweep, in order. An
/// error from either method aborts the campaign (the simulator surfaces
/// it unchanged), so a sink that cannot persist stops the run instead of
/// silently dropping durability.
pub trait CampaignSink<Row> {
    /// State recovered from a previous run of this campaign, if any.
    /// Called once, before the first sweep.
    fn resume(&mut self) -> Result<Option<ResumeState<Row>>>;
    /// Persist one completed sweep.
    fn record(&mut self, ck: SweepCheckpoint<Row>) -> Result<()>;
    /// Whether [`CampaignSink::record`] keeps anything. The runner does
    /// not package checkpoints (copies of the row and the cross-sweep
    /// state) for a sink that keeps nothing.
    fn keeps_checkpoints(&self) -> bool {
        true
    }
}

/// A sink that persists nothing — the plain, non-recoverable entry
/// points run through this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl<Row> CampaignSink<Row> for NullSink {
    fn resume(&mut self) -> Result<Option<ResumeState<Row>>> {
        Ok(None)
    }
    fn record(&mut self, _ck: SweepCheckpoint<Row>) -> Result<()> {
        Ok(())
    }
    fn keeps_checkpoints(&self) -> bool {
        false
    }
}

/// In-memory sink for tests: folds checkpoints into a [`ResumeState`]
/// (its "durable storage") and can simulate a crash a fixed number of
/// sweeps after it starts accepting.
///
/// The crash fires *after* the checkpoint is folded — matching a real
/// journal, where the frame is on disk before the process dies — so the
/// killed sweep is durable and a resumed run continues after it.
#[derive(Debug, Clone)]
pub struct MemorySink<Row> {
    state: ResumeState<Row>,
    /// `Some(k)`: return an error from the k-th `record` call of this
    /// run (1-based), after folding it.
    kill_after: Option<usize>,
    recorded_this_run: usize,
}

impl<Row> MemorySink<Row> {
    /// An empty sink for a campaign over `targets` targets.
    pub fn new(targets: usize) -> Self {
        MemorySink {
            state: ResumeState::fresh(targets),
            kill_after: None,
            recorded_this_run: 0,
        }
    }

    /// Simulate a crash after `sweeps` more recorded sweeps.
    pub fn kill_after(mut self, sweeps: usize) -> Self {
        self.kill_after = Some(sweeps);
        self
    }

    /// Re-arm the crash countdown for another run over the same storage.
    pub fn rearm(&mut self, sweeps: Option<usize>) {
        self.kill_after = sweeps;
        self.recorded_this_run = 0;
    }

    /// The folded durable state.
    pub fn state(&self) -> &ResumeState<Row> {
        &self.state
    }
}

impl<Row: Clone> CampaignSink<Row> for MemorySink<Row> {
    fn resume(&mut self) -> Result<Option<ResumeState<Row>>> {
        if self.state.next_sweep == 0 {
            Ok(None)
        } else {
            Ok(Some(self.state.clone()))
        }
    }

    fn record(&mut self, ck: SweepCheckpoint<Row>) -> Result<()> {
        let sweep = ck.sweep;
        self.state.apply(ck)?;
        self.recorded_this_run += 1;
        if self.kill_after == Some(self.recorded_this_run) {
            return Err(Error::CampaignAborted {
                campaign: "memory sink",
                reason: format!("simulated crash after durable sweep {sweep}"),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenrir_core::time::Timestamp;

    fn ck(sweep: usize) -> SweepCheckpoint<Vec<u16>> {
        SweepCheckpoint {
            sweep,
            row: vec![sweep as u16; 3],
            health: CampaignHealth::new(Timestamp::from_days(sweep as i64), 3),
            consecutive_failures: vec![sweep; 3],
            quarantined_until: vec![0; 3],
            campaign_rng_pos: 10 * sweep as u64,
            fault_rng_pos: 0,
        }
    }

    #[test]
    fn resume_state_folds_in_order() {
        let mut rs = ResumeState::fresh(3);
        rs.apply(ck(0)).unwrap();
        rs.apply(ck(1)).unwrap();
        assert_eq!(rs.next_sweep, 2);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.consecutive_failures, vec![1; 3]);
        assert_eq!(rs.campaign_rng_pos, 10);
    }

    #[test]
    fn resume_state_rejects_gaps_and_repeats() {
        let mut rs = ResumeState::fresh(3);
        rs.apply(ck(0)).unwrap();
        assert!(matches!(rs.apply(ck(0)), Err(Error::Corrupted { .. })));
        assert!(matches!(rs.apply(ck(2)), Err(Error::Corrupted { .. })));
    }

    #[test]
    fn memory_sink_kills_after_durable_record() {
        let mut sink = MemorySink::new(3).kill_after(2);
        assert!(CampaignSink::<Vec<u16>>::resume(&mut sink)
            .unwrap()
            .is_none());
        sink.record(ck(0)).unwrap();
        let err = sink.record(ck(1)).unwrap_err();
        assert!(matches!(err, Error::CampaignAborted { .. }));
        // The killed sweep is still durable.
        assert_eq!(sink.state().next_sweep, 2);
        sink.rearm(None);
        let resumed = CampaignSink::<Vec<u16>>::resume(&mut sink)
            .unwrap()
            .unwrap();
        assert_eq!(resumed.next_sweep, 2);
        sink.record(ck(2)).unwrap();
        assert_eq!(sink.state().rows.len(), 3);
    }
}
