//! One-call streaming deployment: ingestor + query store + TCP server
//! over a single journal file.
//!
//! [`StreamServer`] wires the write path and the read path to the same
//! pipeline: the [`StreamIngestor`] owns the journal and appends to
//! it, while the server's [`ModeStore`] serves the ingestor's pipeline
//! in memory ([`ModeStore::over`]). Each follow tick the store reads
//! the observation count and, when it moved, builds one snapshot from
//! memory under the pipeline's lock — never on the ack path, and
//! without re-reading the journal. A freshly created stream serves
//! `NOT_FOUND` until its first observation. Queries therefore converge
//! on submitted data within one follow tick, and a process kill at any
//! frame boundary loses nothing acked — the journal is the only
//! durable state.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use fenrir_core::error::Result;
use fenrir_core::ids::SiteTable;
use fenrir_serve::{ModeStore, ServeConfig, Server, StreamHandler};

use crate::ingest::{StreamConfig, StreamIngestor};

/// A running streaming deployment: TCP server, query store, ingestor.
pub struct StreamServer {
    ingestor: Arc<StreamIngestor>,
    server: Server,
}

impl std::fmt::Debug for StreamServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamServer")
            .field("addr", &self.server.addr())
            .field("ingestor", &self.ingestor)
            .finish()
    }
}

impl StreamServer {
    /// Open (or create) the journal at `path`, start a protocol-v5
    /// server whose store serves the ingestor's pipeline, and export
    /// the ingestor's metric families into the server's registry.
    /// `serve_cfg.follow` defaults to 25 ms when unset so the query
    /// side actually tracks submissions.
    pub fn start(
        path: &Path,
        sites: SiteTable,
        networks: usize,
        cfg: StreamConfig,
        mut serve_cfg: ServeConfig,
    ) -> Result<StreamServer> {
        let ingestor = Arc::new(StreamIngestor::open(path, sites, networks, cfg)?);
        let store = Arc::new(ModeStore::over(Arc::clone(ingestor.pipeline()))?);
        if serve_cfg.follow.is_none() {
            serve_cfg.follow = Some(Duration::from_millis(25));
        }
        let handler: Arc<dyn StreamHandler> = Arc::clone(&ingestor) as Arc<dyn StreamHandler>;
        let server = Server::start_with_stream(store, handler, serve_cfg)?;
        ingestor.bind_metrics(&server.registry());
        Ok(StreamServer { ingestor, server })
    }

    /// Where the server is listening.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The write path.
    pub fn ingestor(&self) -> &Arc<StreamIngestor> {
        &self.ingestor
    }

    /// The underlying query server.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Stop accepting, drain, close every subscription with a final
    /// `Closed` event, and join every thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}
