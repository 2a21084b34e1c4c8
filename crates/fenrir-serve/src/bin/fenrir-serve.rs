//! Serve a fenrir-data pipeline journal over TCP.
//!
//! ```text
//! fenrir-serve JOURNAL [--addr HOST:PORT] [--workers N] [--follow-ms MS]
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fenrir_serve::{ModeStore, ServeConfig, Server};

fn usage() -> ! {
    eprintln!("usage: fenrir-serve JOURNAL [--addr HOST:PORT] [--workers N] [--follow-ms MS]");
    std::process::exit(2);
}

fn main() {
    let mut journal: Option<PathBuf> = None;
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:4711".into(),
        follow: Some(Duration::from_millis(500)),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = args.next().unwrap_or_else(|| usage()),
            "--workers" => {
                cfg.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--follow-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.follow = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--help" | "-h" => usage(),
            other if journal.is_none() && !other.starts_with('-') => {
                journal = Some(PathBuf::from(other))
            }
            _ => usage(),
        }
    }
    let Some(journal) = journal else { usage() };

    let store = match ModeStore::open(&journal) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("fenrir-serve: cannot load {}: {e}", journal.display());
            std::process::exit(1);
        }
    };
    let server = match Server::start(store, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fenrir-serve: {e}");
            std::process::exit(1);
        }
    };
    println!("fenrir-serve listening on {}", server.addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
