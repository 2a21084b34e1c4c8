//! Ablations for the design choices DESIGN.md calls out: linkage
//! criterion, unknown-policy in Φ, interpolation limit, weighting scheme,
//! and the adaptive-threshold rule vs fixed cuts.

use super::ExperimentReport;
use fenrir_core::clean::interpolate_nearest;
use fenrir_core::cluster::{AdaptiveThreshold, Dendrogram, Linkage};
use fenrir_core::modes::ModeAnalysis;
use fenrir_core::similarity::{phi, SimilarityMatrix, UnknownPolicy};
use fenrir_core::weight::Weights;
use fenrir_data::scenarios::{self, Scale};

/// Run all ablations on the G-Root and B-Root scenarios.
pub fn ablation(scale: Scale) -> ExperimentReport {
    let mut body = String::new();
    let broot = scenarios::broot(scale);
    let series = &broot.result.series;
    let w = Weights::uniform(series.networks());

    // ── 1. Unknown policy: the Verfploeter Φ ceiling ────────────────────
    let pess = phi(series.get(0), series.get(1), &w, UnknownPolicy::Pessimistic);
    let known = phi(series.get(0), series.get(1), &w, UnknownPolicy::KnownOnly);
    body.push_str(&format!(
        "unknown policy (stable consecutive days, ~{:.0}% coverage):\n\
         \x20 pessimistic Φ = {pess:.3}   known-only Φ = {known:.3}\n\
         → the paper's 0.5–0.6 ceiling under pessimism; known-only (the\n\
         \x20 paper's ongoing work) restores ≈1.0 for stable routing.\n\n",
        100.0 * series.mean_coverage()
    ));

    // ── 2. Linkage criterion ────────────────────────────────────────────
    let sim = SimilarityMatrix::compute_parallel(series, &w, UnknownPolicy::KnownOnly, 8)
        .expect("similarity");
    body.push_str("linkage criterion (B-Root, adaptive threshold):\n");
    for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
        let ma = ModeAnalysis::discover(&sim, &broot.times, linkage, AdaptiveThreshold::default())
            .expect("modes");
        body.push_str(&format!(
            "  {linkage:?}: {} modes at threshold {:.2}, {} recurring\n",
            ma.len(),
            ma.threshold,
            ma.recurring().len()
        ));
    }
    body.push_str(
        "→ single linkage (the paper's SLINK) chains adjacent modes; complete\n\
         \x20 and average produce compacter, more interpretable mode sets.\n\n",
    );

    // ── 3. Adaptive threshold vs fixed cuts ─────────────────────────────
    let dendro = Dendrogram::build(&sim, Linkage::Average).expect("dendrogram");
    let adaptive = AdaptiveThreshold::default()
        .choose(&dendro)
        .expect("adaptive choice");
    body.push_str("threshold rule (average linkage):\n");
    for t in [0.05, 0.1, 0.2, 0.4] {
        body.push_str(&format!(
            "  fixed {t:.2}: {} clusters\n",
            dendro.cluster_count(t)
        ));
    }
    body.push_str(&format!(
        "  adaptive (paper rule): threshold {:.2} → {} clusters\n\
         → the paper's rule keeps the first cut with fewer than 15 clusters,\n\
         \x20 each of at least 2 observations.\n\n",
        adaptive.threshold, adaptive.clusters
    ));

    // ── 4. Interpolation limit ──────────────────────────────────────────
    body.push_str("interpolation limit (B-Root, unknown cells filled):\n");
    for limit in [0usize, 1, 3, 10, usize::MAX] {
        let mut copy = series.clone();
        let stats = interpolate_nearest(&mut copy, limit);
        let label = if limit == usize::MAX {
            "∞".to_owned()
        } else {
            limit.to_string()
        };
        body.push_str(&format!(
            "  limit {label:>3}: filled {:>7}, coverage {:.1}% → {:.1}%\n",
            stats.filled,
            100.0 * series.mean_coverage(),
            100.0 * copy.mean_coverage()
        ));
    }
    body.push_str(
        "→ the paper caps interpolation at 3 observations: nearly all of the\n\
         \x20 gain with no long-range fabrication.\n\n",
    );

    // ── 5. Weighting scheme ─────────────────────────────────────────────
    // Weight every other block as a /16 (256 /24s) to show the effect.
    let mut prefix_lens = vec![24u8; series.networks()];
    for (i, p) in prefix_lens.iter_mut().enumerate() {
        if i % 7 == 0 {
            *p = 16;
        }
    }
    let wp = Weights::from_prefix_lengths(&prefix_lens).expect("valid prefixes");
    let change_idx = series.len() / 2;
    let uni = phi(
        series.get(0),
        series.get(change_idx),
        &w,
        UnknownPolicy::KnownOnly,
    );
    let pre = phi(
        series.get(0),
        series.get(change_idx),
        &wp,
        UnknownPolicy::KnownOnly,
    );
    body.push_str(&format!(
        "weighting (first vs mid-series vector):\n\
         \x20 uniform Φ = {uni:.3}   prefix-size-weighted Φ = {pre:.3}\n\
         → weighting changes the *magnitude* an operator sees when heavy\n\
         \x20 prefixes move (§2.5 of the paper).\n",
    ));

    ExperimentReport {
        id: "ablation",
        title: "design-choice ablations (linkage, unknowns, interpolation, weights)",
        body,
        artifacts: Vec::new(),
    }
}
