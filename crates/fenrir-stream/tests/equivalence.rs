//! The equivalence bar, prefix by prefix: after any number of accepted
//! submissions the streamed analysis state — Φ matrix, merge tree,
//! adaptive threshold, mode labels — is bit-identical to a batch
//! recomputation over the same observations. Also pins the sequencing
//! contract (Duplicate applies nothing, Gap journals nothing) and that
//! the trust fold never forks the analysis from its trust-free twin.

use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_core::trust::TrustConfig;
use fenrir_core::vector::RoutingVector;
use fenrir_data::journal::RecoverablePipeline;
use fenrir_measure::submit::SubmitRow;
use fenrir_serve::{Reply, StreamHandler, SubmitOutcome};
use fenrir_stream::{ddos_catchment_flip, state_bits, StreamConfig, StreamIngestor};

const NETWORKS: usize = 6;

fn sites() -> SiteTable {
    SiteTable::from_names(["LAX", "MIA", "AMS"])
}

/// A ten-day synthetic feed: one stable routing mode for days 0–4,
/// a catchment flip from day 5 on, and a single flapping vantage point
/// so consecutive days inside a mode are similar but not identical.
fn synthetic_rows() -> Vec<SubmitRow> {
    (0..10)
        .map(|day| {
            let mut codes: Vec<u16> = if day < 5 {
                vec![0, 0, 1, 1, 2, 2]
            } else {
                vec![1, 1, 2, 2, 0, 0]
            };
            codes[5] = (day % 3) as u16;
            let time = Timestamp::from_days(day as i64);
            let mut health = CampaignHealth::new(time, NETWORKS);
            health.responses = NETWORKS;
            SubmitRow {
                seq: day as u64,
                time: time.as_secs(),
                codes,
                health,
            }
        })
        .collect()
}

fn accept(ing: &StreamIngestor, row: &SubmitRow) -> u32 {
    let (reply, _events) = ing.submit(row.seq, row.time, &row.codes, row.health.clone());
    match reply {
        Reply::SubmitAck {
            seq,
            outcome: SubmitOutcome::Accepted { transitions, .. },
        } => {
            assert_eq!(seq, row.seq);
            transitions
        }
        other => panic!("seq {} not accepted: {other:?}", row.seq),
    }
}

/// For each prefix, the streamed state must equal a from-scratch batch
/// recomputation bit for bit.
fn assert_prefixes_match(rows: &[SubmitRow], sites: SiteTable, networks: usize) {
    let cfg = StreamConfig::new(networks);
    let ing = StreamIngestor::in_memory(sites.clone(), networks, cfg.clone()).expect("ingestor");
    for (i, row) in rows.iter().enumerate() {
        accept(&ing, row);
        let mut pipe =
            RecoverablePipeline::in_memory(sites.clone(), networks, cfg.pipeline.clone())
                .expect("batch pipeline");
        for r in &rows[..=i] {
            pipe.observe(
                RoutingVector::from_codes(Timestamp::from_secs(r.time), r.codes.clone()),
                r.health.clone(),
            )
            .expect("batch observe");
        }
        let batch = state_bits(&pipe).expect("batch state");
        let streamed = ing.state_bits().expect("streamed state");
        assert_eq!(
            streamed,
            batch,
            "streamed state diverged from batch after prefix of {}",
            i + 1
        );
    }
}

#[test]
fn every_synthetic_prefix_matches_batch_recomputation() {
    assert_prefixes_match(&synthetic_rows(), sites(), NETWORKS);
}

#[test]
fn every_ddos_scenario_prefix_matches_batch_recomputation() {
    let sc = ddos_catchment_flip(7).expect("scenario");
    assert_prefixes_match(&sc.rows, sc.sites.clone(), sc.networks);
}

#[test]
fn trust_fold_never_forks_the_analysis() {
    let rows = synthetic_rows();
    let plain =
        StreamIngestor::in_memory(sites(), NETWORKS, StreamConfig::new(NETWORKS)).expect("plain");
    let trusted = StreamIngestor::in_memory(
        sites(),
        NETWORKS,
        StreamConfig::new(NETWORKS).with_trust(TrustConfig::default()),
    )
    .expect("trusted");
    for row in &rows {
        accept(&plain, row);
        accept(&trusted, row);
        assert_eq!(
            trusted.state_bits().expect("trusted state"),
            plain.state_bits().expect("plain state"),
            "trust fold must not rewrite codes or Φ weights (seq {})",
            row.seq
        );
    }
}

#[test]
fn duplicates_ack_without_applying_and_gaps_refuse_without_journaling() {
    let rows = synthetic_rows();
    let ing = StreamIngestor::in_memory(sites(), NETWORKS, StreamConfig::new(NETWORKS))
        .expect("ingestor");
    accept(&ing, &rows[0]);
    accept(&ing, &rows[1]);
    let after_two = ing.state_bits().expect("state");

    // A retry of an already-journaled row is acked as Duplicate and
    // changes nothing — at-least-once delivery is idempotent.
    let (reply, events) = ing.submit(0, rows[0].time, &rows[0].codes, rows[0].health.clone());
    assert_eq!(
        reply,
        Reply::SubmitAck {
            seq: 0,
            outcome: SubmitOutcome::Duplicate
        }
    );
    assert!(events.is_empty());
    assert_eq!(ing.state_bits().expect("state"), after_two);

    // A future sequence number is refused with the expected one named;
    // nothing is journaled, so no hole can ever form.
    let (reply, events) = ing.submit(7, rows[2].time, &rows[2].codes, rows[2].health.clone());
    assert_eq!(
        reply,
        Reply::SubmitAck {
            seq: 7,
            outcome: SubmitOutcome::Gap { expected: 2 }
        }
    );
    assert!(events.is_empty());
    assert_eq!(ing.state_bits().expect("state"), after_two);
    assert_eq!(ing.expected_seq(), 2);

    // The metrics ledger saw all of it.
    let m = ing.metrics();
    assert_eq!(m.submits.get(), 4);
    assert_eq!(m.acks.get(), 4);
    assert_eq!(m.duplicates.get(), 1);
    assert_eq!(m.gaps.get(), 1);
    assert_eq!(m.fold_latency.count(), 2, "only accepted folds are timed");
}

#[test]
fn wrong_width_submissions_are_rejected_before_the_journal() {
    let rows = synthetic_rows();
    let ing = StreamIngestor::in_memory(sites(), NETWORKS, StreamConfig::new(NETWORKS))
        .expect("ingestor");
    accept(&ing, &rows[0]);
    let (reply, events) = ing.submit(1, rows[1].time, &[0, 1], rows[1].health.clone());
    assert!(
        matches!(reply, Reply::Error { .. }),
        "short row must be a typed error, got {reply:?}"
    );
    assert!(events.is_empty());
    assert_eq!(ing.observations(), 1, "nothing was journaled");
}

/// Mode boundaries of a labeling: positions where consecutive
/// observations change mode (the quantity transition detection diffs).
fn boundaries(labels: &[usize]) -> Vec<usize> {
    (1..labels.len())
        .filter(|&i| labels[i] != labels[i - 1])
        .collect()
}

#[test]
fn transitions_are_exactly_the_newly_discovered_mode_boundaries() {
    let rows = synthetic_rows();
    let cfg = StreamConfig::new(NETWORKS);
    let ing = StreamIngestor::in_memory(sites(), NETWORKS, cfg.clone()).expect("ingestor");
    let mut prev: Vec<usize> = Vec::new();
    let mut expected_total = 0u64;
    for row in &rows {
        let (reply, events) = ing.submit(row.seq, row.time, &row.codes, row.health.clone());
        let Reply::SubmitAck {
            outcome: SubmitOutcome::Accepted { transitions, .. },
            ..
        } = reply
        else {
            panic!("seq {} not accepted", row.seq);
        };
        // The ack's transition count and the pushed events must both
        // equal the boundary-set diff of the state the submit produced.
        let state = ing.state_bits().expect("state");
        let bounds = boundaries(&state.labels);
        let fresh: Vec<u64> = bounds
            .iter()
            .filter(|b| !prev.contains(b))
            .map(|&b| b as u64)
            .collect();
        assert_eq!(transitions as usize, fresh.len(), "seq {}", row.seq);
        let event_seqs: Vec<u64> = events
            .iter()
            .map(|ev| match ev {
                fenrir_serve::StreamEvent::ModeTransition { seq, .. } => *seq,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(event_seqs, fresh, "seq {}", row.seq);
        prev = bounds;
        expected_total += u64::from(transitions);
    }
    assert!(expected_total > 0, "the scripted flip must be discovered");
    assert_eq!(
        ing.metrics().transitions.get(),
        expected_total,
        "the counter tallies exactly the emitted transitions"
    );
}
