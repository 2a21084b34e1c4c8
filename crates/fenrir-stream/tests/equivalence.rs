//! The equivalence bar, prefix by prefix: after any number of accepted
//! submissions the streamed analysis state — Φ matrix, merge tree,
//! adaptive threshold, mode labels — is bit-identical to a batch
//! recomputation over the same observations. Also pins the sequencing
//! contract (Duplicate applies nothing, Gap journals nothing), that the
//! trust fold never forks the analysis from its trust-free twin, and
//! that a transition carries its own step's trusted Φ.

use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::similarity::{phi, UnknownPolicy};
use fenrir_core::time::Timestamp;
use fenrir_core::trust::{TrustConfig, TrustModel};
use fenrir_core::vector::{RoutingVector, CODE_ERR, CODE_UNKNOWN};
use fenrir_core::weight::Weights;
use fenrir_data::journal::RecoverablePipeline;
use fenrir_measure::submit::SubmitRow;
use fenrir_serve::{Reply, StreamEvent, StreamHandler, SubmitOutcome};
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

/// SplitMix64 draws for the lagged-transition feed.
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

/// `rows` observations of `networks` VPs over four recurring routing
/// regimes on three sites, each held for 8 to 29 observations. A fifth
/// of the cells are unknown, and 1 to 6 VPs report a random site.
fn lying_regime_rows(seed: u64, networks: usize, rows: usize) -> Vec<SubmitRow> {
    let mut rng = Draws(seed);
    let regimes: Vec<Vec<u16>> = (0..4)
        .map(|_| (0..networks).map(|_| rng.below(3) as u16).collect())
        .collect();
    let liars: Vec<usize> = (0..1 + rng.below(6))
        .map(|_| rng.below(networks as u64) as usize)
        .collect();
    let (mut regime, mut left) = (0, 0);
    (0..rows)
        .map(|i| {
            if left == 0 {
                regime = rng.below(4) as usize;
                left = 8 + rng.below(22);
            }
            left -= 1;
            let mut codes = regimes[regime].clone();
            for &v in &liars {
                codes[v] = rng.below(3) as u16;
            }
            for c in codes.iter_mut() {
                if rng.below(5) == 0 {
                    *c = CODE_UNKNOWN;
                }
            }
            let time = Timestamp::from_days(i as i64);
            let mut health = CampaignHealth::new(time, networks);
            health.responses = codes.iter().filter(|&&c| c != CODE_UNKNOWN).count();
            SubmitRow {
                seq: i as u64,
                time: time.as_secs(),
                codes,
                health,
            }
        })
        .collect()
}

#[test]
fn a_transition_carries_its_own_steps_trusted_phi() {
    // A boundary is often found a fold or more after the observation
    // that opened it. Its event must still carry that step's trusted Φ
    // and verdict, not those of the fold that announced it.
    let (networks, rows) = (60, 300);
    let mut lagged = 0;
    for seed in 0..6 {
        let feed = lying_regime_rows(seed, networks, rows);
        let cfg = StreamConfig::new(networks).with_trust(TrustConfig::default());
        let ing = StreamIngestor::in_memory(sites(), networks, cfg).expect("ingestor");

        // The oracle: a trust model folded over the same rows, each step
        // priced with the excluded VPs' weights zeroed (base weights when
        // every VP is excluded).
        let base = Weights::uniform(networks);
        let known = |c: u16| c != CODE_UNKNOWN && c != CODE_ERR;
        let mut model = TrustModel::new(TrustConfig::default(), &base, None).expect("model");
        let vector = |r: &SubmitRow| {
            RoutingVector::from_codes(Timestamp::from_secs(r.time), r.codes.clone())
        };
        let mut expected = vec![(0.0f64, true)];
        for (i, row) in feed.iter().enumerate() {
            model.observe(&row.codes, known).expect("observe");
            if i == 0 {
                continue;
            }
            let (a, b) = (vector(&feed[i - 1]), vector(row));
            let zeroed = (0..networks)
                .map(|v| if model.step_excluded()[v] { 0.0 } else { 1.0 })
                .collect();
            let policy = UnknownPolicy::default();
            let p = match Weights::from_values(zeroed) {
                Ok(w) => phi(&a, &b, &w, policy),
                Err(_) => phi(&a, &b, &base, policy),
            };
            expected.push((p, model.step_excluded_count() == 0));
        }

        for (fold, row) in feed.iter().enumerate() {
            let (_, events) = ing.submit(row.seq, row.time, &row.codes, row.health.clone());
            for event in events {
                let StreamEvent::ModeTransition {
                    seq,
                    step_phi,
                    trusted,
                    ..
                } = event
                else {
                    panic!("unexpected event {event:?}");
                };
                let (p, t) = expected[seq as usize];
                let at = format!("seed {seed}: boundary {seq} announced at fold {fold}");
                assert_eq!(step_phi.to_bits(), p.to_bits(), "{at}: {step_phi} vs {p}");
                assert_eq!(trusted, t, "{at}");
                lagged += usize::from(seq < fold as u64);
            }
        }
    }
    assert!(lagged > 0, "no transition was announced after its own step");
}
