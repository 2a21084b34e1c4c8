//! Exhaustive corruption properties for the checkpoint journal.
//!
//! For a small but realistic journal, every possible truncation point and
//! every possible single-bit flip is tried — not a random sample. The
//! safety contract under test: a damaged journal either loads a clean
//! prefix of the frames that were durable (reported, never silent) or
//! fails with a typed corruption error. It never panics, and it never
//! yields data that was not written.

use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::latency::LatencyPanel;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::{RoutingVector, CODE_UNKNOWN};
use fenrir_data::journal::{
    CampaignMeta, Journal, JournalSink, PipelineConfig, RecoverablePipeline,
};
use fenrir_measure::checkpoint::{CampaignSink, SweepCheckpoint};

const TARGETS: usize = 3;
const SWEEPS: usize = 5;

fn meta() -> CampaignMeta {
    CampaignMeta {
        campaign: "broot-verfploeter".into(),
        seed: 42,
        targets: TARGETS,
        observations: SWEEPS,
    }
}

fn checkpoint(sweep: usize) -> SweepCheckpoint<Vec<u16>> {
    let mut health = CampaignHealth::new(Timestamp::from_days(sweep as i64), TARGETS);
    health.responses = TARGETS - 1;
    health.attempts = TARGETS + sweep;
    health.retries = sweep;
    SweepCheckpoint {
        sweep,
        row: (0..TARGETS as u16).map(|n| n * 7 + sweep as u16).collect(),
        health,
        consecutive_failures: vec![sweep; TARGETS],
        quarantined_until: vec![0; TARGETS],
        campaign_rng_pos: 100 + 10 * sweep as u64,
        fault_rng_pos: 3 * sweep as u64,
    }
}

/// A fully-written campaign journal and the rows it holds.
fn full_journal() -> (Vec<u8>, Vec<Vec<u16>>) {
    let mut sink = JournalSink::in_memory(meta()).unwrap();
    let mut rows = Vec::new();
    for sweep in 0..SWEEPS {
        let ck = checkpoint(sweep);
        rows.push(ck.row.clone());
        sink.record(ck).unwrap();
    }
    (sink.bytes().to_vec(), rows)
}

#[test]
fn truncation_at_every_byte_offset_loads_a_clean_prefix_or_fails_typed() {
    let (bytes, _) = full_journal();
    let (full_frames, full_report) = Journal::decode(&bytes).unwrap();
    assert!(full_report.is_clean());
    assert_eq!(full_frames.len(), 1 + SWEEPS); // meta + one frame per sweep

    for cut in 0..=bytes.len() {
        match Journal::decode(&bytes[..cut]) {
            Ok((frames, report)) => {
                // Whatever loaded must be an exact prefix of what was
                // written — frame kinds and payloads alike.
                assert!(frames.len() <= full_frames.len(), "cut {cut}");
                for (i, (got, want)) in frames.iter().zip(&full_frames).enumerate() {
                    assert_eq!(got.kind, want.kind, "cut {cut} frame {i}");
                    assert_eq!(got.payload, want.payload, "cut {cut} frame {i}");
                }
                // A shortened journal must say so, not pretend to be whole.
                if cut < bytes.len() {
                    assert!(
                        !report.is_clean() || report.clean_bytes == cut,
                        "cut {cut}: silent data loss"
                    );
                }
            }
            Err(e) => {
                // Only the header region may refuse outright, and only
                // with the typed corruption error.
                assert!(
                    cut < 8,
                    "cut {cut}: body damage must not refuse the journal"
                );
                assert!(
                    matches!(e, fenrir_core::error::Error::Corrupted { .. }),
                    "cut {cut}: {e:?}"
                );
            }
        }
    }
}

#[test]
fn bit_flip_at_every_offset_loads_a_clean_prefix_or_fails_typed() {
    let (bytes, _) = full_journal();
    let (full_frames, _) = Journal::decode(&bytes).unwrap();

    for offset in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[offset] ^= 1 << bit;
            match Journal::decode(&damaged) {
                Ok((frames, report)) => {
                    // The internet checksum detects every single-bit error,
                    // so the flipped frame and everything after it must be
                    // gone; what remains must match the original exactly.
                    assert!(
                        frames.len() < full_frames.len(),
                        "offset {offset} bit {bit}: corrupted frame survived"
                    );
                    for (i, (got, want)) in frames.iter().zip(&full_frames).enumerate() {
                        assert_eq!(got.kind, want.kind, "offset {offset} bit {bit} frame {i}");
                        assert_eq!(
                            got.payload, want.payload,
                            "offset {offset} bit {bit} frame {i}"
                        );
                    }
                    assert!(!report.is_clean(), "offset {offset} bit {bit}: silent loss");
                }
                Err(e) => {
                    assert!(
                        offset < 8,
                        "offset {offset} bit {bit}: body damage must not refuse the journal"
                    );
                    assert!(
                        matches!(e, fenrir_core::error::Error::Corrupted { .. }),
                        "offset {offset} bit {bit}: {e:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn sink_resume_from_any_truncation_never_yields_wrong_sweeps() {
    let (bytes, rows) = full_journal();

    for cut in 0..=bytes.len() {
        match JournalSink::<Vec<u16>>::from_bytes(bytes[..cut].to_vec(), meta()) {
            Ok(sink) => {
                let state = sink.state();
                assert!(state.next_sweep <= SWEEPS, "cut {cut}");
                assert_eq!(state.rows.len(), state.next_sweep, "cut {cut}");
                // Durable sweeps survive exactly; nothing is invented.
                assert_eq!(state.rows, rows[..state.next_sweep], "cut {cut}");
            }
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        fenrir_core::error::Error::Corrupted { .. }
                            | fenrir_core::error::Error::Config { .. }
                    ),
                    "cut {cut}: {e:?}"
                );
            }
        }
    }
}

#[test]
fn sink_resume_from_any_bit_flip_never_yields_wrong_sweeps() {
    let (bytes, rows) = full_journal();

    for offset in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0x10;
        match JournalSink::<Vec<u16>>::from_bytes(damaged, meta()) {
            Ok(sink) => {
                let state = sink.state();
                assert_eq!(state.rows.len(), state.next_sweep, "offset {offset}");
                assert_eq!(state.rows, rows[..state.next_sweep], "offset {offset}");
                assert!(
                    state.next_sweep < SWEEPS,
                    "offset {offset}: corrupted sweep survived"
                );
            }
            Err(e) => {
                // Header damage or a flipped META frame that still decodes
                // to a different campaign identity must both be typed.
                assert!(
                    matches!(
                        e,
                        fenrir_core::error::Error::Corrupted { .. }
                            | fenrir_core::error::Error::Config { .. }
                    ),
                    "offset {offset}: {e:?}"
                );
            }
        }
    }
}

/// A small analysis-pipeline journal: 6 networks, 4 observations.
fn full_pipeline_journal() -> (Vec<u8>, SiteTable, PipelineConfig) {
    let sites = SiteTable::from_names(["LAX", "MIA", "AMS"]);
    let networks = 6;
    let cfg = PipelineConfig::new(networks);
    let mut pipe = RecoverablePipeline::in_memory(sites.clone(), networks, cfg.clone()).unwrap();
    for obs in 0..4i64 {
        let codes: Vec<u16> = (0..networks as u16).map(|n| (n + obs as u16) % 3).collect();
        let v = RoutingVector::from_codes(Timestamp::from_days(obs), codes);
        let health = CampaignHealth::new(Timestamp::from_days(obs), networks);
        pipe.observe(v, health).unwrap();
    }
    (pipe.bytes().to_vec(), sites, cfg)
}

#[test]
fn pipeline_restore_from_any_truncation_never_yields_wrong_observations() {
    let (bytes, sites, cfg) = full_pipeline_journal();
    let full =
        RecoverablePipeline::from_bytes(bytes.clone(), sites.clone(), 6, cfg.clone()).unwrap();
    let full_vectors = full.series().vectors().to_vec();
    assert_eq!(full_vectors.len(), 4);

    for cut in 0..=bytes.len() {
        match RecoverablePipeline::from_bytes(bytes[..cut].to_vec(), sites.clone(), 6, cfg.clone())
        {
            Ok(pipe) => {
                let got = pipe.series().vectors();
                assert!(got.len() <= full_vectors.len(), "cut {cut}");
                assert_eq!(got, &full_vectors[..got.len()], "cut {cut}");
                // Derived state stays consistent with the loaded prefix.
                match pipe.matrix() {
                    Some(m) => assert_eq!(m.len(), got.len(), "cut {cut}"),
                    None => assert!(got.is_empty(), "cut {cut}"),
                }
            }
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        fenrir_core::error::Error::Corrupted { .. }
                            | fenrir_core::error::Error::Config { .. }
                    ),
                    "cut {cut}: {e:?}"
                );
            }
        }
    }
}

#[test]
fn pipeline_restore_from_any_bit_flip_never_yields_wrong_observations() {
    let (bytes, sites, cfg) = full_pipeline_journal();
    let full =
        RecoverablePipeline::from_bytes(bytes.clone(), sites.clone(), 6, cfg.clone()).unwrap();
    let full_vectors = full.series().vectors().to_vec();

    for offset in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0x04;
        match RecoverablePipeline::from_bytes(damaged, sites.clone(), 6, cfg.clone()) {
            Ok(pipe) => {
                let got = pipe.series().vectors();
                assert!(got.len() < full_vectors.len(), "offset {offset}");
                assert_eq!(got, &full_vectors[..got.len()], "offset {offset}");
            }
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        fenrir_core::error::Error::Corrupted { .. }
                            | fenrir_core::error::Error::Config { .. }
                            | fenrir_core::error::Error::ShapeMismatch { .. }
                    ),
                    "offset {offset}: {e:?}"
                );
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The byte layout of a pipeline journal, pinned: a fixed two-observation
/// pipeline (meta, two observation frames, one latency frame) encodes to
/// exactly these bytes, and reopening them yields the same series, Φ bits
/// and panel. An observation frame holds time, codes, the condensed Φ
/// row it adds and health, so a restore decodes Φ instead of recomputing
/// it.
#[test]
fn pipeline_journal_layout_is_pinned() {
    let sites = || SiteTable::from_names(["LAX", "MIA"]);
    let cfg = || PipelineConfig {
        compact_every: None,
        ..PipelineConfig::new(2)
    };
    let mut pipe = RecoverablePipeline::in_memory(sites(), 2, cfg()).unwrap();
    for (day, codes) in [(0i64, [0u16, CODE_UNKNOWN]), (1, [0, 1])] {
        let time = Timestamp::from_days(day);
        let mut health = CampaignHealth::new(time, 2);
        health.responses = 1 + day as usize;
        health.attempts = 3;
        let v = RoutingVector::from_codes(time, codes.to_vec());
        let panel = (day == 1).then(|| LatencyPanel::new(time, vec![Some(12.5), None]));
        pipe.observe_with_latency(v, panel, health).unwrap();
    }
    let bytes = pipe.bytes().to_vec();
    assert_eq!(
        hex(&bytes),
        concat!(
            "464e524a02000000400000002000acc802000000000000000000020000000000",
            "0000000000000000f03f000000000000f03f0200000000000000030000000000",
            "00004c415803000000000000004d4941960000002100bf5f0000000000000000",
            "02000000000000000000ffff0100000000000000000000000000e03f00000000",
            "0000000002000000000000000100000000000000030000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000009e0000002100dc6180510100000000000200",
            "000000000000000001000200000000000000000000000000e03f000000000000",
            "f03f805101000000000002000000000000000200000000000000030000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000022000000230084f501000000",
            "000000008051010000000000020000000000000001000000000000294000",
        )
    );

    let back = RecoverablePipeline::from_bytes(bytes, sites(), 2, cfg()).unwrap();
    assert!(back.recovery_report().is_clean());
    assert_eq!(back.series().vectors(), pipe.series().vectors());
    assert_eq!(back.health(), pipe.health());
    assert_eq!(back.panels(), pipe.panels());
    let bits = |p: &RecoverablePipeline| -> Vec<u64> {
        p.matrix()
            .unwrap()
            .raw()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    // Φ(0, 0) = 1/2 (one known network of two), Φ(1, 0) = 1/2, Φ(1, 1) = 1.
    assert_eq!(bits(&back), [0.5f64, 0.5, 1.0].map(f64::to_bits));
    assert_eq!(bits(&back), bits(&pipe));
}
