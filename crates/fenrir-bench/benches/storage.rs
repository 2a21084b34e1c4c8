//! Storage-tier bench: tiered compaction (seal) throughput into the
//! object tier and cold-epoch hydration latency, with and without
//! injected per-op latency.
//!
//! Each seal pushes a full snapshot-sized epoch through the tier's
//! three-step protocol (segment put, manifest publish, hot-tail reset);
//! hydration fetches and checksum-verifies a cold epoch end to end.
//! The second hydration phase turns on the object simulation's per-op
//! latency injection, which must show up in the measured p50 — that
//! assertion keeps the chaos plumbing honest, the throughput floor
//! keeps the seal path honest. Emits `BENCH_storage.json` at the
//! workspace root.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fenrir_bench::report::{self, percentile, Obj};
use fenrir_data::storage::{ObjectChaos, ObjectSim, RetryPolicy, Storage, TieredJournal};
use fenrir_netsim::rng::ChaCha8Rng;

const SEED: u64 = 0x570C_4A05;
const FRAMES_PER_EPOCH: usize = 8;
const FRAME_PAYLOAD: usize = 32 * 1024;
const SEALS: usize = 64;
const HYDRATIONS: usize = 200;
const INJECTED_LATENCY: Duration = Duration::from_millis(2);

/// Conservative floors — an order of magnitude below what the
/// in-process tier sustains on any development machine, so only a real
/// regression (an accidental extra copy, fsync, or retry storm on the
/// happy path) trips them.
const MIN_SEAL_MB_S: f64 = 10.0;
const MAX_COLD_P50: Duration = Duration::from_millis(50);

fn retry() -> RetryPolicy {
    RetryPolicy {
        seed: SEED,
        ..RetryPolicy::default()
    }
}

/// One epoch's worth of snapshot frames, seeded so every seal writes
/// incompressible, distinct bytes (filled a `u64` word at a time).
fn epoch_frames(rng: &mut ChaCha8Rng) -> Vec<(u16, Vec<u8>)> {
    (0..FRAMES_PER_EPOCH)
        .map(|_| {
            let payload: Vec<u8> = (0..FRAME_PAYLOAD / 8)
                .flat_map(|_| rng.gen::<u64>().to_le_bytes())
                .collect();
            (0x12u16, payload)
        })
        .collect()
}

/// Hydrate `n` cold epochs (cycling through every sealed generation)
/// and return sorted per-hydration latencies.
fn hydrate_phase(tj: &TieredJournal, n: usize) -> Vec<Duration> {
    let gens: Vec<u64> = tj.manifest().entries.iter().map(|e| e.gen).collect();
    let mut lat = Vec::with_capacity(n);
    for i in 0..n {
        let gen = gens[i % gens.len()];
        let t0 = Instant::now();
        let frames = tj.hydrate_epoch(gen).expect("hydrate cold epoch");
        lat.push(t0.elapsed());
        assert_eq!(frames.len(), FRAMES_PER_EPOCH);
    }
    lat.sort();
    lat
}

fn main() {
    let dir = std::env::temp_dir().join(format!("fenrir-bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let hot = dir.join("hot.fnrj");

    let sim = Arc::new(ObjectSim::new(ObjectChaos::none(SEED)).expect("object sim"));
    let (mut tj, _, _) = TieredJournal::open(
        &hot,
        Arc::clone(&sim) as Arc<dyn Storage>,
        "bench/tier",
        retry(),
    )
    .expect("tiered journal");

    // Phase 1: seal throughput. Every iteration seals a fresh
    // FRAMES_PER_EPOCH × FRAME_PAYLOAD epoch.
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let epochs: Vec<_> = (0..SEALS).map(|_| epoch_frames(&mut rng)).collect();
    let epoch_bytes: usize = epochs[0].iter().map(|(_, p)| p.len()).sum();
    println!(
        "sealing {SEALS} epochs of {FRAMES_PER_EPOCH} x {} KiB…",
        FRAME_PAYLOAD / 1024
    );
    let t0 = Instant::now();
    for frames in &epochs {
        tj.seal(frames).expect("seal");
    }
    let seal_elapsed = t0.elapsed();
    let sealed_mb = (SEALS * epoch_bytes) as f64 / (1024.0 * 1024.0);
    let seal_mb_s = sealed_mb / seal_elapsed.as_secs_f64();
    let seals_per_s = SEALS as f64 / seal_elapsed.as_secs_f64();
    println!("  {seal_mb_s:.1} MB/s ({seals_per_s:.0} seals/s) over {sealed_mb:.1} MB");

    // Phase 2: cold-epoch hydration, clean tier.
    println!("hydrating {HYDRATIONS} cold epochs (no injected latency)…");
    let clean = hydrate_phase(&tj, HYDRATIONS);
    let c50 = percentile(&clean, 0.50);
    let c99 = percentile(&clean, 0.99);
    println!(
        "  p50 {:.1} µs, p99 {:.1} µs",
        c50.as_secs_f64() * 1e6,
        c99.as_secs_f64() * 1e6
    );

    // Phase 3: same hydrations with per-op latency injected. Fewer
    // iterations — each op now really sleeps.
    let slow_n = HYDRATIONS / 10;
    println!(
        "hydrating {slow_n} cold epochs with {} ms injected per-op latency…",
        INJECTED_LATENCY.as_millis()
    );
    sim.set_chaos(ObjectChaos::none(SEED).latency(INJECTED_LATENCY))
        .expect("chaos");
    let slow = hydrate_phase(&tj, slow_n);
    let s50 = percentile(&slow, 0.50);
    let s99 = percentile(&slow, 0.99);
    println!(
        "  p50 {:.2} ms, p99 {:.2} ms",
        s50.as_secs_f64() * 1e3,
        s99.as_secs_f64() * 1e3
    );
    sim.set_chaos(ObjectChaos::none(SEED)).expect("chaos off");

    let _ = std::fs::remove_dir_all(&dir);

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let epoch = Obj::new()
        .int("frames", FRAMES_PER_EPOCH)
        .int("frame_bytes", FRAME_PAYLOAD);
    let seal = Obj::new()
        .int("epochs", SEALS)
        .num("mb_per_s", seal_mb_s, 1)
        .num("seals_per_s", seals_per_s, 1);
    let cold = Obj::new()
        .int("n", HYDRATIONS)
        .num("p50_us", us(c50), 1)
        .num("p99_us", us(c99), 1);
    let injected = Obj::new()
        .int("n", slow_n)
        .int("latency_ms", INJECTED_LATENCY.as_millis())
        .num("p50_us", us(s50), 1)
        .num("p99_us", us(s99), 1);
    let fields = Obj::new()
        .int("seed", SEED)
        .obj("epoch", epoch)
        .obj("seal", seal)
        .obj("hydrate_cold", cold)
        .obj("hydrate_cold_injected", injected);
    report::write("storage", fields);

    assert!(
        seal_mb_s >= MIN_SEAL_MB_S,
        "seal throughput {seal_mb_s:.1} MB/s below the {MIN_SEAL_MB_S} MB/s floor"
    );
    assert!(
        c50 <= MAX_COLD_P50,
        "clean cold-hydration p50 {c50:?} above the {MAX_COLD_P50:?} ceiling"
    );
    // The injection must be visible: one hydration is at least a
    // manifest-entry-verified segment get, i.e. one injected sleep.
    assert!(
        s50 >= INJECTED_LATENCY,
        "injected latency {INJECTED_LATENCY:?} is not visible in hydration p50 {s50:?}"
    );
}
