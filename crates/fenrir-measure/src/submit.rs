//! Submit-mode campaign driving: turn any simulator's finished result
//! into the ordered `Submit` rows a streaming ingestor consumes.
//!
//! The batch simulators produce a [`VectorSeries`] plus per-observation
//! [`CampaignHealth`]; a streaming deployment instead pushes each
//! observation over the serve path as it completes, one
//! `Request::Submit` frame per timestep with a client-assigned sequence
//! number. [`SubmitRow`] is that frame's payload in transport-neutral
//! form, and the `rows_from_*` extractors adapt a finished campaign's
//! result so it can be replayed live without re-running the
//! simulation.
//!
//! Extraction never re-orders or re-times anything: row `i` carries the
//! codes and health of observation `i` verbatim, with `seq == i`, so a
//! stream fed from these rows is bit-identical to the batch series the
//! simulator recorded.

use fenrir_core::health::CampaignHealth;
use fenrir_core::series::VectorSeries;

use crate::ednscs::EdnsCsResult;
use crate::verfploeter::SweepResult;

/// One observation ready to submit: the payload of a protocol-v5
/// `Submit` frame, minus the wire encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRow {
    /// Client-assigned sequence number (the observation's index).
    pub seq: u64,
    /// Observation time, seconds since the epoch.
    pub time: i64,
    /// Raw catchment codes, one per network.
    pub codes: Vec<u16>,
    /// The sweep's health record, journaled with the observation.
    pub health: CampaignHealth,
}

/// Pair a series with its aligned health records, one row per
/// observation. Health shorter than the series is padded with a fresh
/// record (a sweep that died before accounting), longer is truncated.
pub fn rows_from_series(series: &VectorSeries, health: &[CampaignHealth]) -> Vec<SubmitRow> {
    (0..series.len())
        .map(|i| {
            let v = series.get(i);
            let h = health
                .get(i)
                .cloned()
                .unwrap_or_else(|| CampaignHealth::new(v.time(), v.len()));
            SubmitRow {
                seq: i as u64,
                time: v.time().as_secs(),
                codes: v.codes().to_vec(),
                health: h,
            }
        })
        .collect()
}

/// Submit rows for a Verfploeter sweep campaign.
pub fn rows_from_sweep(result: &SweepResult) -> Vec<SubmitRow> {
    rows_from_series(&result.series, &result.health)
}

/// Submit rows for an EDNS-Client-Subnet campaign.
pub fn rows_from_ednscs(result: &EdnsCsResult) -> Vec<SubmitRow> {
    rows_from_series(&result.series, &result.health)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenrir_core::ids::SiteTable;
    use fenrir_core::time::Timestamp;
    use fenrir_core::vector::RoutingVector;

    fn tiny_series() -> (VectorSeries, Vec<CampaignHealth>) {
        let mut series = VectorSeries::new(SiteTable::from_names(["A", "B"]), 3);
        let mut health = Vec::new();
        for (t, codes) in [(0, vec![0, 0, 1]), (86_400, vec![0, 1, 1])] {
            series
                .push(RoutingVector::from_codes(
                    Timestamp::from_secs(t),
                    codes.clone(),
                ))
                .unwrap();
            let mut h = CampaignHealth::new(Timestamp::from_secs(t), 3);
            h.responses = 3;
            health.push(h);
        }
        (series, health)
    }

    #[test]
    fn rows_mirror_the_series_verbatim() {
        let (series, health) = tiny_series();
        let rows = rows_from_series(&series, &health);
        assert_eq!(rows.len(), 2);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.seq, i as u64);
            assert_eq!(row.time, series.get(i).time().as_secs());
            assert_eq!(row.codes, series.get(i).codes());
            assert_eq!(row.health, health[i]);
        }
    }

    #[test]
    fn missing_health_is_padded_not_dropped() {
        let (series, health) = tiny_series();
        let rows = rows_from_series(&series, &health[..1]);
        assert_eq!(rows.len(), 2, "every observation still gets a row");
        assert_eq!(rows[1].health.targets, 3);
        assert_eq!(rows[1].health.responses, 0, "padded health is empty");
    }
}
