//! Kill/restart at every frame boundary: an ingestor reopened from its
//! journal after any accepted submission must carry state bit-identical
//! to an uninterrupted run's, and continue accepting exactly where the
//! durable prefix ends. The ack only leaves after the fsync, so "kill
//! after the ack" and "kill after the frame" are the same boundary.

use std::fs;
use std::path::PathBuf;

use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_core::trust::TrustConfig;
use fenrir_measure::submit::SubmitRow;
use fenrir_serve::{Reply, StreamHandler, SubmitOutcome};
use fenrir_stream::{StateBits, StreamConfig, StreamIngestor};

const NETWORKS: usize = 6;

fn sites() -> SiteTable {
    SiteTable::from_names(["LAX", "MIA", "AMS"])
}

fn temp_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fenrir-stream-{tag}-{}", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

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

fn accept(ing: &StreamIngestor, row: &SubmitRow) {
    let (reply, _events) = ing.submit(row.seq, row.time, &row.codes, row.health.clone());
    assert!(
        matches!(
            reply,
            Reply::SubmitAck {
                outcome: SubmitOutcome::Accepted { .. },
                ..
            }
        ),
        "seq {} not accepted: {reply:?}",
        row.seq
    );
}

/// The uninterrupted run's state after each prefix, from a single
/// in-memory ingestor that never restarts.
fn uninterrupted_states(rows: &[SubmitRow], cfg: &StreamConfig) -> Vec<StateBits> {
    let ing = StreamIngestor::in_memory(sites(), NETWORKS, cfg.clone()).expect("ingestor");
    rows.iter()
        .map(|row| {
            accept(&ing, row);
            ing.state_bits().expect("state")
        })
        .collect()
}

fn kill_at_every_frame(tag: &str, cfg: StreamConfig) {
    let rows = synthetic_rows();
    let expected = uninterrupted_states(&rows, &cfg);
    let path = temp_journal(tag);

    for (i, row) in rows.iter().enumerate() {
        // "Kill": the previous ingestor was dropped at the end of the
        // last iteration; the journal file is the only surviving state.
        let ing =
            StreamIngestor::open(&path, sites(), NETWORKS, cfg.clone()).expect("reopen journal");
        assert_eq!(ing.expected_seq(), i as u64, "resume point after kill {i}");
        if i > 0 {
            assert_eq!(
                ing.state_bits().expect("rebuilt state"),
                expected[i - 1],
                "state rebuilt from the journal diverged after kill at frame {i}"
            );
            // A retry of the last pre-kill frame (the at-least-once
            // path: ack lost in the crash) is absorbed as Duplicate.
            let prev = &rows[i - 1];
            let (reply, _) = ing.submit(prev.seq, prev.time, &prev.codes, prev.health.clone());
            assert_eq!(
                reply,
                Reply::SubmitAck {
                    seq: prev.seq,
                    outcome: SubmitOutcome::Duplicate
                }
            );
        }
        accept(&ing, row);
        assert_eq!(
            ing.state_bits().expect("state"),
            expected[i],
            "streamed state diverged after frame {i} submitted post-restart"
        );
    }

    // One final restart after the full feed: everything still there.
    let ing = StreamIngestor::open(&path, sites(), NETWORKS, cfg).expect("final reopen");
    assert_eq!(ing.expected_seq(), rows.len() as u64);
    assert_eq!(
        ing.state_bits().expect("state"),
        expected[rows.len() - 1],
        "full feed survives the final restart"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn restart_at_every_frame_is_bit_identical_to_uninterrupted() {
    kill_at_every_frame("resume", StreamConfig::new(NETWORKS));
}

#[test]
fn restart_at_every_frame_with_trust_is_bit_identical() {
    kill_at_every_frame(
        "resume-trust",
        StreamConfig::new(NETWORKS).with_trust(TrustConfig::default()),
    );
}

#[test]
fn compaction_between_restarts_preserves_the_state() {
    let rows = synthetic_rows();
    let cfg = StreamConfig::new(NETWORKS);
    let expected = uninterrupted_states(&rows, &cfg);
    let path = temp_journal("resume-compact");

    let ing = StreamIngestor::open(&path, sites(), NETWORKS, cfg.clone()).expect("open");
    for row in &rows[..6] {
        accept(&ing, row);
    }
    ing.compact().expect("compact");
    drop(ing);

    let ing = StreamIngestor::open(&path, sites(), NETWORKS, cfg).expect("reopen after compact");
    assert_eq!(
        ing.state_bits().expect("state"),
        expected[5],
        "a compaction leaves the restored bits as they were"
    );
    for row in &rows[6..] {
        accept(&ing, row);
    }
    assert_eq!(ing.state_bits().expect("state"), expected[rows.len() - 1]);
    let _ = fs::remove_file(&path);
}
