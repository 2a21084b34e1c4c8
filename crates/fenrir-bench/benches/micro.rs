//! Micro-benchmarks of the paper's §2.6 stages and their substrate:
//!
//! * `phi_kernel` — one Φ between two observations, under both unknown
//!   policies, at 10³, 10⁴ and 10⁵ networks (half unknown, 8 sites);
//! * `similarity_matrix` — all pairs of 64 and 128 observations × 2 000
//!   networks, sequential and on 4 threads;
//! * `dendrogram_build` — HAC over 128, 512 and 1 024 observations with
//!   six planted modes, under all three linkages; `dendrogram_build_ties`
//!   — single linkage over 400, 800 and 1 600 such observations with Φ
//!   snapped to 16 values, the ties recurring routing produces;
//!   `threshold` — one cut and the adaptive sweep over the
//!   512-observation average-linkage tree;
//! * `pipeline` — the G-Root study (Test scale) stage by stage;
//! * `dns` and `icmp` — writing and reading the measurement probes, each
//!   into one reused buffer and in place;
//! * `topology_build_ns` and `route_table` — at 100, 400 and 1 600 stubs;
//! * `ablation_*` — the cost of each design choice `repro --exp ablation`
//!   scores for quality.
//!
//! Every value is the fastest of a few timed runs, in ns. Cases far
//! below a microsecond time a batch of calls and record ns per call.
//! Emits `BENCH_micro.json` at the workspace root; there are no floors,
//! the file tracks the stage costs from change to change.

use std::fmt::Display;
use std::hint::black_box;

use fenrir_bench::report::{self, Obj};
use fenrir_core::clean::interpolate_nearest;
use fenrir_core::cluster::{AdaptiveThreshold, Dendrogram, Linkage};
use fenrir_core::detect::ChangeDetector;
use fenrir_core::ids::{SiteId, SiteTable};
use fenrir_core::modes::ModeAnalysis;
use fenrir_core::series::VectorSeries;
use fenrir_core::similarity::{phi, SimilarityMatrix, UnknownPolicy};
use fenrir_core::time::Timestamp;
use fenrir_core::transition::TransitionMatrix;
use fenrir_core::vector::{Catchment, RoutingVector};
use fenrir_core::weight::Weights;
use fenrir_data::scenarios::{groot, Scale};
use fenrir_netsim::rng::ChaCha8Rng;
use fenrir_netsim::routing::{RouteTable, RoutingConfig};
use fenrir_netsim::topology::{Tier, TopologyBuilder};
use fenrir_wire::dns::{
    ClientSubnet, Header, MessageReader, MessageWriter, Name, QClass, QType, Rcode,
};
use fenrir_wire::icmp::{IcmpKind, IcmpView};

const REPS: u32 = 10;
const LINKAGES: [(&str, Linkage); 3] = [
    ("single_ns", Linkage::Single),
    ("complete_ns", Linkage::Complete),
    ("average_ns", Linkage::Average),
];
const POLICIES: [(&str, UnknownPolicy); 2] = [
    ("pessimistic_ns", UnknownPolicy::Pessimistic),
    ("known_only_ns", UnknownPolicy::KnownOnly),
];
const STUBS: [usize; 3] = [100, 400, 1600];
/// Calls per timed batch for the codec cases.
const CODEC_BATCH: u32 = 1_000;

trait Time: Sized {
    /// Append `key`: the fastest of [`REPS`] calls of `f`, in ns.
    fn time<R>(self, key: impl Display, f: impl FnMut() -> R) -> Self;
    /// Append `key`: ns per call of `f`, timed in batches of `batch`
    /// calls so that a call far shorter than the clock's resolution
    /// still times cleanly.
    fn per_call<R>(self, key: impl Display, batch: u32, f: impl FnMut() -> R) -> Self;
}

impl Time for Obj {
    fn time<R>(self, key: impl Display, f: impl FnMut() -> R) -> Self {
        self.num(key, report::min_ns(REPS, f), 0)
    }

    fn per_call<R>(self, key: impl Display, batch: u32, mut f: impl FnMut() -> R) -> Self {
        let ns = report::min_ns(REPS, || (0..batch).for_each(|_| drop(black_box(f()))));
        self.num(key, ns / f64::from(batch), 1)
    }
}

/// A seeded series of `t_len` daily observations over `n` networks and
/// `sites` sites. Each network starts unknown with probability `unknown`,
/// else at a random site, and each step 2% of networks redraw the same
/// way: routing drifts while the unknown share holds.
fn synth(t_len: usize, n: usize, sites: u32, unknown: f64) -> VectorSeries {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let draw = |rng: &mut ChaCha8Rng| {
        if rng.gen_bool(unknown) {
            Catchment::Unknown
        } else {
            Catchment::Site(SiteId(rng.gen_range(0..sites) as u16))
        }
    };
    let table = SiteTable::from_names((0..sites).map(|i| format!("S{i}")));
    let mut series = VectorSeries::new(table, n);
    let mut current: Vec<Catchment> = (0..n).map(|_| draw(&mut rng)).collect();
    for t in 0..t_len {
        for c in current.iter_mut() {
            if rng.gen_bool(0.02) {
                *c = draw(&mut rng);
            }
        }
        let v = RoutingVector::from_catchments(Timestamp::from_days(t as i64), current.clone());
        series.push(v).expect("ordered");
    }
    series
}

/// A similarity matrix with `modes` planted blocks plus noise.
fn planted_modes(n: usize, modes: usize) -> SimilarityMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let labels: Vec<usize> = (0..n).map(|i| i * modes / n).collect();
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let base = if labels[i] == labels[j] { 0.9 } else { 0.3 };
            let noise: f64 = rng.gen_range(-0.05..0.05);
            let s = if i == j {
                1.0
            } else {
                (base + noise).clamp(0.0, 1.0)
            };
            v[i * n + j] = s;
            v[j * n + i] = s;
        }
    }
    SimilarityMatrix::from_raw(n, v).expect("square")
}

/// [`planted_modes`] with Φ snapped to a 16-value grid, so that most
/// distances tie.
fn planted_ties(n: usize) -> SimilarityMatrix {
    let sim = planted_modes(n, 6);
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            v[i * n + j] = (sim.get(i, j) * 15.0).round() / 15.0;
        }
    }
    SimilarityMatrix::from_raw(n, v).expect("square")
}

fn phi_kernel() -> Obj {
    [1_000usize, 10_000, 100_000]
        .iter()
        .fold(Obj::new(), |o, &n| {
            let series = synth(2, n, 8, 0.5);
            let (a, b, w) = (series.get(0), series.get(1), Weights::uniform(n));
            let batch = (1_000_000 / n) as u32;
            let row = POLICIES.iter().fold(Obj::new(), |o, &(key, policy)| {
                o.per_call(key, batch, || phi(black_box(a), black_box(b), &w, policy))
            });
            o.obj(n, row)
        })
}

fn similarity_matrix() -> Obj {
    let w = Weights::uniform(2_000);
    let p = UnknownPolicy::Pessimistic;
    [64usize, 128].iter().fold(Obj::new(), |o, &t_len| {
        let series = synth(t_len, 2_000, 8, 0.5);
        let row = Obj::new()
            .time("sequential_ns", || {
                SimilarityMatrix::compute(&series, &w, p)
            })
            .time("parallel4_ns", || {
                SimilarityMatrix::compute_parallel(&series, &w, p, 4)
            });
        o.obj(t_len, row)
    })
}

fn hac_by_linkage(sim: &SimilarityMatrix) -> Obj {
    LINKAGES.iter().fold(Obj::new(), |o, &(key, linkage)| {
        o.time(key, || Dendrogram::build(sim, linkage))
    })
}

fn dendrogram_build() -> Obj {
    [128usize, 512, 1024].iter().fold(Obj::new(), |o, &n| {
        o.obj(n, hac_by_linkage(&planted_modes(n, 6)))
    })
}

fn dendrogram_build_ties() -> Obj {
    [400usize, 800, 1600].iter().fold(Obj::new(), |o, &n| {
        let sim = planted_ties(n);
        let row = Obj::new().time("single_ns", || Dendrogram::build(&sim, Linkage::Single));
        o.obj(n, row)
    })
}

fn threshold() -> Obj {
    let dendro = Dendrogram::build(&planted_modes(512, 6), Linkage::Average).expect("ok");
    Obj::new()
        .per_call("single_cut_ns", 100, || {
            black_box(&dendro).cut(black_box(0.3))
        })
        .time("adaptive_sweep_ns", || {
            AdaptiveThreshold::default().choose(&dendro)
        })
}

fn pipeline() -> Obj {
    let collect_ns = report::min_ns(3, || groot(Scale::Test));
    let study = groot(Scale::Test);
    let series = study.result.series;
    let w = Weights::uniform(series.networks());
    let p = UnknownPolicy::Pessimistic;
    let sim = SimilarityMatrix::compute_parallel(&series, &w, p, 4).expect("ok");
    let (a, b, sites) = (series.get(0), series.get(1), series.sites().len());
    let adaptive = AdaptiveThreshold::default();
    Obj::new()
        .num("collect_ns", collect_ns, 0)
        .time("clean_ns", || interpolate_nearest(&mut series.clone(), 3))
        .time("similarity_ns", || {
            SimilarityMatrix::compute_parallel(&series, &w, p, 4)
        })
        .time("modes_ns", || {
            ModeAnalysis::discover(&sim, &study.times, Linkage::Average, adaptive)
        })
        .per_call("transitions_ns", 100, || {
            TransitionMatrix::compute(black_box(a), black_box(b), sites)
        })
        .time("detect_ns", || {
            ChangeDetector::default().detect(&series, &w)
        })
}

/// Appends `key`: ns per call of `write` into one reused buffer. Returns
/// what it wrote.
fn time_write(o: Obj, key: &str, mut write: impl FnMut(&mut Vec<u8>)) -> (Obj, Vec<u8>) {
    let mut buf = Vec::with_capacity(512);
    let o = o.per_call(key, CODEC_BATCH, || {
        buf.clear();
        write(&mut buf);
        buf.len()
    });
    (o, buf)
}

/// A query for `name` with recursion desired, ahead of `additional`
/// records.
fn query(
    w: &mut MessageWriter,
    out: &mut Vec<u8>,
    name: &Name,
    q: (QType, QClass),
    additional: u16,
) {
    let header = Header {
        id: 7,
        rd: true,
        ..Header::default()
    };
    w.header(out, header, [1, 0, 0, additional]);
    w.question(out, name.labels(), q.0, q.1);
}

fn dns() -> Obj {
    let mut w = MessageWriter::default();
    let [google, bind, cdn] = ["www.google.com", "hostname.bind", "cdn.front.example.net"]
        .map(|n| Name::parse(n).expect("valid"));
    let (mut chaos, mut cdn_query) = (Vec::new(), Vec::new());
    query(&mut w, &mut chaos, &bind, (QType::Txt, QClass::Chaos), 0);
    query(&mut w, &mut cdn_query, &cdn, (QType::A, QClass::In), 0);
    let chaos = MessageReader::new(&chaos).expect("ok");
    let cdn_query = MessageReader::new(&cdn_query).expect("ok");
    let read = |o: Obj, key, b: &[u8]| {
        o.per_call(key, CODEC_BATCH, || {
            MessageReader::new(black_box(b)).expect("ok").header()
        })
    };
    let (o, ecs_bytes) = time_write(Obj::new(), "encode_ecs_query_ns", |out| {
        query(&mut w, out, &google, (QType::A, QClass::In), 1);
        w.record(out, std::iter::empty(), QType::Opt, 4096, 0, |_, out| {
            ClientSubnet::write_ipv4(out, [100, 64, 7, 0], 24);
            Ok(())
        })
        .expect("ok");
    });
    let o = read(o, "decode_ecs_query_ns", &ecs_bytes);
    let (o, resp_bytes) = time_write(o, "encode_chaos_response_ns", |out| {
        w.response_to(out, &chaos, Rcode::NoError, 1);
        w.txt(out, bind.labels(), QClass::Chaos, 0, [&b"b4-lax2"[..]])
            .expect("ok");
    });
    let o = read(o, "decode_chaos_response_ns", &resp_bytes);
    // Name-compression payoff: ten records sharing a suffix.
    let (o, _) = time_write(o, "encode_compressed_10rr_ns", |out| {
        w.response_to(out, &cdn_query, Rcode::NoError, 10);
        for i in 0..10u8 {
            w.record(out, cdn.labels(), QType::A, 1, 60, |_, out| {
                out.extend_from_slice(&[198, 18, 0, i]);
                Ok(())
            })
            .expect("ok");
        }
    });
    o
}

fn icmp() -> Obj {
    let payload = [0u8; 56];
    let echo = |kind, ident, seq| IcmpView {
        kind,
        ident,
        seq,
        payload: &payload,
    };
    let (o, bytes) = time_write(Obj::new(), "encode_echo_ns", |out| {
        black_box(echo(IcmpKind::EchoRequest, 0xBEEF, 42)).encode_into(out)
    });
    let mut reply = Vec::with_capacity(64);
    o.per_call("decode_echo_ns", CODEC_BATCH, || {
        IcmpView::parse(black_box(&bytes)).expect("ok")
    })
    .per_call("round_trip_with_reply_ns", CODEC_BATCH, || {
        let req = IcmpView::parse(&bytes).expect("ok");
        reply.clear();
        echo(IcmpKind::EchoReply, req.ident, req.seq).encode_into(&mut reply);
        IcmpView::parse(&reply).expect("ok").seq
    })
}

fn builder(stubs: usize) -> TopologyBuilder {
    TopologyBuilder {
        transit: 5,
        regional: stubs / 16,
        stubs,
        blocks_per_stub: 2,
        seed: 1,
        ..Default::default()
    }
}

fn topology_build() -> Obj {
    STUBS
        .iter()
        .fold(Obj::new(), |o, &s| o.time(s, || builder(s).build()))
}

fn route_table() -> Obj {
    let cfg = RoutingConfig::default();
    STUBS.iter().fold(Obj::new(), |o, &s| {
        let topo = builder(s).build();
        // Anycast with 4 origins, and unicast toward a stub (the
        // traceroute per-destination cost).
        let regionals = topo.tier_members(Tier::Regional);
        let origins: Vec<_> = (0..4).map(|i| (regionals[i], i as u32)).collect();
        let dest = [(topo.tier_members(Tier::Stub)[0], 0)];
        let row = Obj::new()
            .time("anycast4_ns", || RouteTable::compute(&topo, &origins, &cfg))
            .time("unicast_ns", || RouteTable::compute(&topo, &dest, &cfg));
        o.obj(s, row)
    })
}

fn ablation_unknown_policy() -> Obj {
    let series = synth(96, 2_000, 4, 0.5);
    let w = Weights::uniform(2_000);
    POLICIES.iter().fold(Obj::new(), |o, &(key, policy)| {
        o.time(key, || SimilarityMatrix::compute(&series, &w, policy))
    })
}

fn ablation_linkage() -> Obj {
    let series = synth(256, 500, 4, 0.3);
    let w = Weights::uniform(500);
    hac_by_linkage(&SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).expect("ok"))
}

fn ablation_interpolation_limit() -> Obj {
    let series = synth(128, 2_000, 4, 0.4);
    [1usize, 3, 16].iter().fold(Obj::new(), |o, &limit| {
        o.time(limit, || interpolate_nearest(&mut series.clone(), limit))
    })
}

fn ablation_weighting() -> Obj {
    let series = synth(96, 2_000, 4, 0.5);
    let prefixes: Vec<u8> = (0..2_000)
        .map(|i| if i % 7 == 0 { 16 } else { 24 })
        .collect();
    let weights = [
        ("uniform_ns", Weights::uniform(2_000)),
        (
            "prefix_weighted_ns",
            Weights::from_prefix_lengths(&prefixes).expect("ok"),
        ),
    ];
    let p = UnknownPolicy::Pessimistic;
    weights.iter().fold(Obj::new(), |o, (key, w)| {
        o.time(key, || SimilarityMatrix::compute(&series, w, p))
    })
}

fn main() {
    let fields = Obj::new()
        .obj("phi_kernel", phi_kernel())
        .obj("similarity_matrix", similarity_matrix())
        .obj("dendrogram_build", dendrogram_build())
        .obj("dendrogram_build_ties", dendrogram_build_ties())
        .obj("threshold", threshold())
        .obj("pipeline", pipeline())
        .obj("dns", dns())
        .obj("icmp", icmp())
        .obj("topology_build_ns", topology_build())
        .obj("route_table", route_table())
        .obj("ablation_unknown_policy", ablation_unknown_policy())
        .obj("ablation_linkage", ablation_linkage())
        .obj(
            "ablation_interpolation_limit_ns",
            ablation_interpolation_limit(),
        )
        .obj("ablation_weighting", ablation_weighting());
    let path = report::write("micro", fields);
    print!("{}", std::fs::read_to_string(path).expect("read back"));
}
