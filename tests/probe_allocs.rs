//! Heap allocations per probe of the wire campaigns.
//!
//! Every probe is a real wire round trip, and at paper scale a sweep is
//! millions of them, so a probe must not allocate: each campaign encodes
//! into buffers it owns and decodes by borrowing. A counting global
//! allocator counts on the measuring thread only (the harness runs tests
//! on parallel threads), over a whole quiet campaign: its set-up and its
//! per-sweep bookkeeping are spread over the probes.

use fenrir::core::health::CampaignHealth;
use fenrir::core::time::Timestamp;
use fenrir::measure::atlas::AtlasCampaign;
use fenrir::measure::ednscs::{EdnsCsCampaign, FrontendPolicy};
use fenrir::measure::traceroute::TracerouteCampaign;
use fenrir::measure::verfploeter::Verfploeter;
use fenrir::netsim::anycast::AnycastService;
use fenrir::netsim::events::Scenario;
use fenrir::netsim::geo::cities;
use fenrir::netsim::topology::{Tier, Topology, TopologyBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations made on
/// a thread while its `COUNTING` flag is up.
struct Counting;

fn note() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call goes unchanged to the system allocator, which keeps
// `GlobalAlloc`'s contract; counting touches only `const` thread-locals,
// which never allocate, and is skipped once they are torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCATIONS.with(Cell::get), out)
}

/// 60 stubs of 4 blocks each, and a two-site service.
fn setup() -> (Topology, AnycastService) {
    let topo = TopologyBuilder {
        transit: 3,
        regional: 6,
        stubs: 60,
        blocks_per_stub: 4,
        seed: 0xA110C,
        ..Default::default()
    }
    .build();
    let regionals = topo.tier_members(Tier::Regional);
    let mut svc = AnycastService::new("alloc-root");
    svc.add_site("LAX", regionals[0], cities::LAX);
    svc.add_site("AMS", regionals[1], cities::AMS);
    (topo, svc)
}

fn days(n: i64) -> Vec<Timestamp> {
    (0..n).map(Timestamp::from_days).collect()
}

fn probes(health: &[CampaignHealth]) -> usize {
    health.iter().map(|h| h.attempts).sum()
}

/// Asserts that `allocs` over the probes `health` counts is `probes`
/// probes, at most `bound` allocations per probe.
fn assert_per_probe(allocs: u64, health: &[CampaignHealth], probes_made: usize, bound: f64) {
    let n = probes(health);
    assert_eq!(n, probes_made);
    let per_probe = allocs as f64 / n as f64;
    println!("{allocs} allocations over {n} probes: {per_probe:.3} per probe");
    assert!(
        per_probe <= bound,
        "{allocs} allocations over {n} probes: {per_probe:.3} per probe"
    );
}

#[test]
fn a_verfploeter_probe_does_not_allocate() {
    let (topo, svc) = setup();
    let times = days(50);
    let vp = Verfploeter::default();
    let (allocs, r) = allocations(|| vp.run(&topo, &svc, &Scenario::new(), &times));
    assert_per_probe(allocs, &r.health, 12_000, 0.1);
}

#[test]
fn an_atlas_probe_does_not_allocate() {
    let (topo, svc) = setup();
    let times = days(50);
    let atlas = AtlasCampaign {
        vantage_points: 200,
        ..Default::default()
    };
    let (allocs, r) = allocations(|| atlas.run(&topo, &svc, &Scenario::new(), &times));
    assert_per_probe(allocs, &r.health, 10_000, 5.0);
}

/// Runs a quiet EDNS Client-Subnet campaign under `policy` and checks
/// its allocations per probe.
fn ednscs_probes_do_not_allocate(policy: FrontendPolicy) {
    let (topo, svc) = setup();
    let times = days(50);
    let campaign = EdnsCsCampaign {
        hostname: "www.example.org".into(),
        policy,
        loss_prob: 0.0,
        seed: 0xED45,
    };
    let (allocs, r) = allocations(|| campaign.run(&topo, &svc, &Scenario::new(), &times));
    assert_per_probe(allocs, &r.health, 12_000, 0.1);
}

#[test]
fn an_ednscs_geo_probe_does_not_allocate() {
    ednscs_probes_do_not_allocate(FrontendPolicy::Geo {
        sticky_return_frac: 0.3,
    });
}

#[test]
fn an_ednscs_churn_probe_does_not_allocate() {
    ednscs_probes_do_not_allocate(FrontendPolicy::Churn {
        clusters: 50,
        epoch_secs: 7 * 86_400,
        era: 2024,
        sticky_frac: 0.25,
        daily_churn: 0.15,
    });
}

/// A traceroute probe writes and reads its hops' packets in place, reads
/// each hop off the destination's route and collects its answers in a
/// buffer the campaign owns; what it still allocates is the bookkeeping
/// of the per-destination route tables as they advance (6.76 per probe in
/// release, 8.75 in debug, which cross-checks every transition).
#[test]
fn a_traceroute_probe_allocates_only_route_bookkeeping() {
    let (topo, _) = setup();
    let times = days(50);
    let trace = TracerouteCampaign {
        source: topo.tier_members(Tier::Stub)[0],
        ..Default::default()
    };
    let (allocs, r) = allocations(|| trace.run(&topo, &Scenario::new(), &times));
    assert_per_probe(allocs, &r.health, 12_000, 9.0);
}
