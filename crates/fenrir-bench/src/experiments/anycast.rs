//! Anycast experiments: Figure 1 (G-Root catchment sizes + the §2.2
//! aggregate-vector example), Table 3 (transition matrices across a
//! drain), Figure 3 (B-Root five-year modes), and Figure 4 (per-catchment
//! p90 latency).

use super::ExperimentReport;
use fenrir_core::cluster::{AdaptiveThreshold, Linkage};
use fenrir_core::heatmap::Heatmap;
use fenrir_core::latency::{LatencySeries, LatencySummary};
use fenrir_core::modes::{roman, ModeAnalysis};
use fenrir_core::similarity::{SimilarityMatrix, UnknownPolicy};
use fenrir_core::time::Timestamp;
use fenrir_core::transition::TransitionMatrix;
use fenrir_core::viz::StackSeries;
use fenrir_core::weight::Weights;
use fenrir_data::scenarios::{self, Scale};

/// Figure 1: catchment sizes in G-Root over ten days, with the STR drains
/// and the secondary shift; includes the §2.2 example aggregates.
pub fn fig1(scale: Scale) -> ExperimentReport {
    let study = scenarios::groot(scale);
    let series = &study.result.series;
    let stack = StackSeries::from_series(series);
    let mut body = String::from("catchment sizes (VP counts) by day:\n");
    // One row per day at local midnight.
    for day in 1..10u32 {
        let target = Timestamp::from_ymd(2020, 3, day);
        if let Some(idx) = study.times.iter().position(|&t| t >= target) {
            let counts: Vec<String> = series
                .sites()
                .iter()
                .map(|(_, name)| {
                    format!(
                        "{name} {:>4}",
                        stack.counts[idx][stack.column(name).expect("site")]
                    )
                })
                .collect();
            body.push_str(&format!("  2020-03-0{day}: {}\n", counts.join("  ")));
        }
    }
    // §2.2's A(t) example: aggregate vectors before and during a drain.
    let before = series
        .at(study.times[0])
        .expect("first observation")
        .aggregate(series.sites().len());
    let during_idx = study
        .times
        .iter()
        .position(|&t| t >= Timestamp::from_ymd(2020, 3, 3).plus_secs(3600))
        .expect("in window");
    let during = series.get(during_idx).aggregate(series.sites().len());
    body.push_str(&format!(
        "\nA(2020-03-01) = {:?} (+err {}, other {})\n",
        before.per_site, before.err, before.other
    ));
    body.push_str(&format!(
        "A(during STR drain) = {:?} (+err {}, other {})\n",
        during.per_site, during.err, during.other
    ));
    body.push_str(
        "\npaper shape: STR drains ~midnight 2020-03-03 (reverts 4.5 h later),\n\
         again 03-05, persists from 03-07; a smaller secondary shift runs\n\
         03-06..03-08. All visible in the rows above.\n",
    );
    ExperimentReport {
        id: "fig1",
        title: "catchment sizes in G-Root (counts of Atlas-style VPs)",
        body,
        artifacts: vec![super::Artifact {
            name: "groot_stack.csv".into(),
            contents: stack.to_csv(),
        }],
    }
}

/// Table 3: transition matrices for consecutive observations across the
/// first STR drain — the "who moved where" view.
pub fn table3(scale: Scale) -> ExperimentReport {
    let study = scenarios::groot(scale);
    let series = &study.result.series;
    let drain_start = Timestamp::from_ymd(2020, 3, 3);
    let i = study
        .times
        .iter()
        .position(|&t| t >= drain_start)
        .expect("drain inside window");
    let num_sites = series.sites().len();
    let mut body = String::new();
    let t_a = TransitionMatrix::compute(series.get(i - 1), series.get(i), num_sites)
        .expect("aligned vectors");
    body.push_str(&format!(
        "(a) onset of the drain, {} → {}:\n{}",
        study.times[i - 1],
        study.times[i],
        t_a.render(series.sites())
    ));
    body.push_str("\ntop flows:\n");
    for f in t_a.top_flows(series.sites(), 3) {
        body.push_str(&format!("  {:>5} VPs: {} → {}\n", f.weight, f.from, f.to));
    }
    let t_b = TransitionMatrix::compute(series.get(i), series.get(i + 1), num_sites)
        .expect("aligned vectors");
    body.push_str(&format!(
        "\n(b) next step, {} → {}:\n{}",
        study.times[i],
        study.times[i + 1],
        t_b.render(series.sites())
    ));
    body.push_str(&format!(
        "\nchurn: onset {:.1}%, next step {:.1}% — the paper's Table 3 shows the\n\
         same pattern (large STR→NAP mass at onset, near-diagonal after).\n",
        100.0 * t_a.churn(),
        100.0 * t_b.churn()
    ));
    ExperimentReport {
        id: "table3",
        title: "transition matrices for G-Root across the STR drain",
        body,
        artifacts: vec![
            super::Artifact {
                name: "transition_onset.csv".into(),
                contents: t_a.to_csv(series.sites()),
            },
            super::Artifact {
                name: "transition_next.csv".into(),
                contents: t_b.to_csv(series.sites()),
            },
        ],
    }
}

/// Figure 3: the B-Root five-year heatmap, stack shares, mode summary, and
/// the mode-(v)-recurs-to-(i) comparison.
pub fn fig3(scale: Scale) -> ExperimentReport {
    let study = scenarios::broot(scale);
    let series = &study.result.series;
    let w = Weights::uniform(series.networks());
    let sim = SimilarityMatrix::compute_parallel(series, &w, UnknownPolicy::KnownOnly, 8)
        .expect("similarity");
    let mut body = String::new();
    body.push_str(&format!(
        "{} observations of {} blocks; Verfploeter coverage {:.0}% (pessimistic\n\
         Φ therefore plateaus at ~{:.2}, the paper's 0.5–0.6 ceiling)\n\n",
        series.len(),
        series.networks(),
        100.0 * series.mean_coverage(),
        {
            let p = fenrir_core::similarity::phi(
                series.get(0),
                series.get(1),
                &w,
                UnknownPolicy::Pessimistic,
            );
            p
        }
    ));
    let heat = Heatmap::new(sim.clone(), series.times());
    body.push_str("all-pairs Φ heatmap (known-only policy; dark = similar):\n");
    body.push_str(&heat.render_ascii(44));
    let modes = ModeAnalysis::discover(
        &sim,
        &study.times,
        Linkage::Average,
        AdaptiveThreshold::default(),
    )
    .expect("modes");
    body.push_str(&format!("\n{} modes discovered:\n", modes.len()));
    body.push_str(&modes.summary());
    // Inter-mode Φ for consecutive modes + the recurrence comparison.
    body.push_str("\ninter-mode Φ ranges:\n");
    for k in 1..modes.len() {
        if let Some((lo, hi)) = modes.inter_phi(&sim, k - 1, k) {
            body.push_str(&format!(
                "  Φ(M_{}, M_{}) = [{lo:.2}, {hi:.2}]\n",
                roman(k),
                roman(k + 1)
            ));
        }
    }
    if modes.len() >= 3 {
        let last = modes.len() - 1;
        if let Some((partner, mean)) = modes.most_similar_mode(&sim, last) {
            body.push_str(&format!(
                "\nlatest mode ({}) is most similar to mode ({}) with mean Φ = {mean:.2}\n",
                roman(last + 1),
                roman(partner + 1)
            ));
        }
        // The explicit paper comparison: late-2023 routing vs mode (i).
        let idx_late = series.len() - 1;
        body.push_str(&format!(
            "Φ(first obs, last obs) = {:.2} — the paper's \"~30% of networks fall\n\
             back to previous routing mode\" between 2019 and 2024\n",
            sim.get(0, idx_late)
        ));
    }
    let stack = StackSeries::from_series(series);
    ExperimentReport {
        id: "fig3",
        title: "B-Root catchments 2019-09 … 2024-12 (Verfploeter)",
        body,
        artifacts: vec![
            super::Artifact {
                name: "broot_heatmap.pgm".into(),
                contents: heat.to_pgm(),
            },
            super::Artifact {
                name: "broot_stack.csv".into(),
                contents: stack.to_csv(),
            },
        ],
    }
}

/// Figure 4: p90 latency per catchment over 2022-01 … 2023-12, showing the
/// ARI shutdown and SCL arrival.
pub fn fig4(scale: Scale) -> ExperimentReport {
    let study = scenarios::broot(scale);
    let series = &study.result.series;
    let panels = study.latency_panels();
    let mut lat = LatencySeries::default();
    for panel in &panels {
        if let Ok(v) = series.at(panel.time()) {
            lat.push(
                LatencySummary::compute(
                    v,
                    panel,
                    &Weights::uniform(series.networks()),
                    series.sites().len(),
                )
                .expect("summary"),
            );
        }
    }
    let mut body = String::from("p90 latency (ms) per catchment, quarterly samples:\n");
    // Quarterly rows across the window.
    let quarters = [
        (2022, 1),
        (2022, 4),
        (2022, 7),
        (2022, 10),
        (2023, 1),
        (2023, 4),
        (2023, 12),
    ];
    body.push_str(&format!(
        "  {:<10} {}\n",
        "quarter",
        series
            .sites()
            .iter()
            .map(|(_, n)| format!("{n:>6}"))
            .collect::<String>()
    ));
    for (y, m) in quarters {
        let target = Timestamp::from_ymd(y, m, 1);
        let row: String = series
            .sites()
            .ids()
            .map(|id| {
                let v = lat
                    .summaries
                    .iter()
                    .filter(|s| s.time >= target)
                    .map(|s| s.site(id).p90_ms)
                    .next()
                    .flatten();
                match v {
                    Some(x) => format!("{x:>6.0}"),
                    None => format!("{:>6}", "-"),
                }
            })
            .collect();
        body.push_str(&format!("  {y}-{m:02}    {row}\n"));
    }
    body.push_str(
        "\npaper shape: ARI serves distant clients at high latency until its\n\
         2023-03-06 shutdown (column goes '-'); SCL appears mid-2023 with low\n\
         regional latency.\n",
    );
    ExperimentReport {
        id: "fig4",
        title: "90th-percentile latency of B-Root per catchment",
        body,
        artifacts: vec![super::Artifact {
            name: "broot_latency_p90.csv".into(),
            contents: lat.to_csv(series.sites()),
        }],
    }
}
