//! # fenrir-core
//!
//! Core analysis library reproducing **Fenrir** (Song & Heidemann,
//! *Rediscovering Recurring Routing Results*). Fenrir summarises how Internet
//! routing assigns client *networks* to service *catchments* and answers the
//! operational questions the paper motivates:
//!
//! * *How much did routing change?* — weighted Gower similarity
//!   [`similarity::phi`] between any two routing vectors.
//! * *Is today's routing like a mode I saw before?* — hierarchical
//!   agglomerative clustering ([`cluster`]) with the paper's adaptive
//!   distance-threshold rule, and recurring-mode analysis ([`modes`]).
//! * *Who moved where?* — transition matrices ([`transition`]).
//! * *Did a third party change my routing?* — change detection and
//!   ground-truth validation ([`detect`]).
//! * *What does it look like?* — all-pairs heatmaps ([`heatmap`]), stack
//!   plots and Sankey flows ([`viz`]).
//! * *What does it cost my users?* — per-catchment latency summaries
//!   ([`latency`]).
//!
//! The pipeline mirrors Table 1 of the paper:
//!
//! ```text
//! raw observations --clean--> RoutingVector D(t) --weight--> Φ(t,t')
//!    --cluster--> modes --quantify--> heatmap + transition matrices
//!    --performance--> latency per catchment
//! ```
//!
//! ## Quick example
//!
//! ```
//! use fenrir_core::prelude::*;
//!
//! // Two sites, four networks observed at two times.
//! let mut sites = SiteTable::new();
//! let lax = sites.intern("LAX");
//! let ams = sites.intern("AMS");
//!
//! let d0 = RoutingVector::from_catchments(
//!     Timestamp::from_days(0),
//!     vec![Catchment::Site(lax), Catchment::Site(lax),
//!          Catchment::Site(ams), Catchment::Site(ams)],
//! );
//! let d1 = RoutingVector::from_catchments(
//!     Timestamp::from_days(1),
//!     vec![Catchment::Site(lax), Catchment::Site(ams),
//!          Catchment::Site(ams), Catchment::Site(ams)],
//! );
//!
//! let w = Weights::uniform(4);
//! let phi = fenrir_core::similarity::phi(&d0, &d1, &w, UnknownPolicy::Pessimistic);
//! assert!((phi - 0.75).abs() < 1e-12); // 3 of 4 networks kept their catchment
//! ```

pub mod clean;
pub mod cluster;
pub mod detect;
pub mod error;
pub mod guard;
pub mod health;
pub mod heatmap;
pub mod ids;
pub mod latency;
pub mod modes;
pub mod series;
pub mod similarity;
pub mod time;
pub mod transition;
pub mod trust;
pub mod vector;
pub mod viz;
pub mod weight;

/// Convenient glob-import of the types used by almost every Fenrir program.
pub mod prelude {
    pub use crate::cluster::{AdaptiveThreshold, Dendrogram, Linkage};
    pub use crate::detect::{
        ChangeDetector, DetectedEvent, GatedDetection, SuppressedEvent, ValidationReport,
    };
    pub use crate::error::{Error, Result};
    pub use crate::guard::{DivergenceGuard, SamplingRate};
    pub use crate::health::CampaignHealth;
    pub use crate::heatmap::Heatmap;
    pub use crate::ids::{NetworkId, SiteId, SiteTable};
    pub use crate::latency::{LatencyPanel, LatencySummary};
    pub use crate::modes::{Mode, ModeAnalysis};
    pub use crate::series::VectorSeries;
    pub use crate::similarity::{SimilarityMatrix, UnknownPolicy};
    pub use crate::time::Timestamp;
    pub use crate::transition::TransitionMatrix;
    pub use crate::trust::{
        detect_trusted, TrustConfig, TrustModel, TrustReport, TrustedDetection,
    };
    pub use crate::vector::{Catchment, RoutingVector};
    pub use crate::viz::{SankeyDiagram, StackSeries};
    pub use crate::weight::Weights;
}
