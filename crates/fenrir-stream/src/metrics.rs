//! Ingestor-side stream metric families.
//!
//! The instruments live on the [`StreamMetrics`] struct itself — plain
//! lock-free counters and one histogram, recorded into whether or not
//! any registry exists — and [`StreamMetrics::bind`] exports them into
//! a [`Registry`] as closure-backed series (histogram adopted whole),
//! the same pattern the serve fleet uses for store and breaker tallies.
//! Families:
//!
//! | family | meaning |
//! |---|---|
//! | `fenrir_stream_submits_total` | `Submit` frames handled |
//! | `fenrir_stream_acks_total` | `SubmitAck` replies produced |
//! | `fenrir_stream_duplicates_total` | acks with a `Duplicate` outcome |
//! | `fenrir_stream_gaps_total` | acks with a `Gap` outcome |
//! | `fenrir_stream_transitions_total` | mode transitions emitted |
//! | `fenrir_stream_fold_latency_us` | accepted-fold latency histogram |
//!
//! The subscriber-side families (`fenrir_stream_subscribers`,
//! `fenrir_stream_events_pushed_total`,
//! `fenrir_stream_lagged_drops_total`) are registered by every
//! `fenrir-serve` server, stream-enabled or not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fenrir_obs::{Counter, Histogram, Registry, DEFAULT_LATENCY_BOUNDS_US};

/// Always-on instruments for one ingestor.
#[derive(Debug, Clone)]
pub struct StreamMetrics {
    /// `Submit` frames handled (any outcome).
    pub submits: Counter,
    /// `SubmitAck` replies produced.
    pub acks: Counter,
    /// Duplicate outcomes (at-least-once retries absorbed).
    pub duplicates: Counter,
    /// Gap outcomes (out-of-order submissions refused).
    pub gaps: Counter,
    /// Mode transitions emitted.
    pub transitions: Counter,
    /// Latency of accepted folds (journal append + incremental
    /// re-derivation, and a replicated leader's WAL append),
    /// microseconds.
    pub fold_latency: Histogram,
}

impl Default for StreamMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamMetrics {
    /// Fresh zeroed instruments.
    pub fn new() -> Self {
        StreamMetrics {
            submits: Counter::new(),
            acks: Counter::new(),
            duplicates: Counter::new(),
            gaps: Counter::new(),
            transitions: Counter::new(),
            fold_latency: Histogram::new(DEFAULT_LATENCY_BOUNDS_US),
        }
    }

    /// Export every family into `registry`. Safe to call more than
    /// once; later binds replace earlier ones.
    pub fn bind(&self, registry: &Registry) {
        let c = self.submits.clone();
        registry.counter_fn("fenrir_stream_submits_total", &[], move || c.get() as f64);
        let c = self.acks.clone();
        registry.counter_fn("fenrir_stream_acks_total", &[], move || c.get() as f64);
        let c = self.duplicates.clone();
        registry.counter_fn("fenrir_stream_duplicates_total", &[], move || {
            c.get() as f64
        });
        let c = self.gaps.clone();
        registry.counter_fn("fenrir_stream_gaps_total", &[], move || c.get() as f64);
        let c = self.transitions.clone();
        registry.counter_fn("fenrir_stream_transitions_total", &[], move || {
            c.get() as f64
        });
        registry.adopt_histogram(
            "fenrir_stream_fold_latency_us",
            &[],
            self.fold_latency.clone(),
        );
    }
}

/// Leadership and failover instruments for one replicated node.
///
/// | family | meaning |
/// |---|---|
/// | `fenrir_stream_leader` | 1 while this node holds the lease |
/// | `fenrir_stream_fence_epoch` | the fencing epoch last held (sticky across step-down) |
/// | `fenrir_stream_takeovers_total` | standby→leader promotions |
/// | `fenrir_stream_step_downs_total` | leader→standby demotions (deposed or lease lost) |
/// | `fenrir_stream_fenced_rejects_total` | own writes refused by a higher fence |
/// | `fenrir_stream_not_leader_total` | `NotLeader` redirects sent to clients |
#[derive(Debug, Clone, Default)]
pub struct FailoverMetrics {
    /// 1 while leading, 0 as a standby.
    pub is_leader: Arc<AtomicU64>,
    /// The fencing epoch last held; stays at its final value after a
    /// step-down so dashboards can see which election this node lost.
    pub fence_epoch: Arc<AtomicU64>,
    /// Standby→leader promotions.
    pub takeovers: Counter,
    /// Leader→standby demotions.
    pub step_downs: Counter,
    /// Own writes refused by a higher fence.
    pub fenced_rejects: Counter,
    /// `NotLeader` redirects sent.
    pub not_leader: Counter,
}

impl FailoverMetrics {
    /// Fresh zeroed instruments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Export every family into `registry`.
    pub fn bind(&self, registry: &Registry) {
        let g = Arc::clone(&self.is_leader);
        registry.gauge_fn("fenrir_stream_leader", &[], move || {
            g.load(Ordering::Relaxed) as f64
        });
        let g = Arc::clone(&self.fence_epoch);
        registry.gauge_fn("fenrir_stream_fence_epoch", &[], move || {
            g.load(Ordering::Relaxed) as f64
        });
        let c = self.takeovers.clone();
        registry.counter_fn("fenrir_stream_takeovers_total", &[], move || c.get() as f64);
        let c = self.step_downs.clone();
        registry.counter_fn("fenrir_stream_step_downs_total", &[], move || {
            c.get() as f64
        });
        let c = self.fenced_rejects.clone();
        registry.counter_fn("fenrir_stream_fenced_rejects_total", &[], move || {
            c.get() as f64
        });
        let c = self.not_leader.clone();
        registry.counter_fn("fenrir_stream_not_leader_total", &[], move || {
            c.get() as f64
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_exports_all_six_families() {
        let m = StreamMetrics::new();
        m.submits.inc();
        m.fold_latency.observe(42);
        let r = Registry::new();
        m.bind(&r);
        let text = r.render();
        for family in [
            "fenrir_stream_submits_total",
            "fenrir_stream_acks_total",
            "fenrir_stream_duplicates_total",
            "fenrir_stream_gaps_total",
            "fenrir_stream_transitions_total",
            "fenrir_stream_fold_latency_us",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family}")),
                "missing {family}"
            );
        }
        assert!(text.contains("fenrir_stream_submits_total 1\n"));
        assert!(text.contains("fenrir_stream_fold_latency_us_count 1\n"));
    }

    #[test]
    fn failover_bind_exports_all_six_families() {
        let m = FailoverMetrics::new();
        m.is_leader.store(1, Ordering::Relaxed);
        m.fence_epoch.store(7, Ordering::Relaxed);
        m.takeovers.inc();
        let r = Registry::new();
        m.bind(&r);
        let text = r.render();
        for family in [
            "fenrir_stream_leader",
            "fenrir_stream_fence_epoch",
            "fenrir_stream_takeovers_total",
            "fenrir_stream_step_downs_total",
            "fenrir_stream_fenced_rejects_total",
            "fenrir_stream_not_leader_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family}")),
                "missing {family}"
            );
        }
        assert!(text.contains("fenrir_stream_leader 1\n"));
        assert!(text.contains("fenrir_stream_fence_epoch 7\n"));
        assert!(text.contains("fenrir_stream_takeovers_total 1\n"));
    }
}
