//! Hierarchical Agglomerative Clustering (§2.6.2 of the paper).
//!
//! Fenrir discovers routing "modes" by clustering routing vectors on their
//! Gower distance `1 − Φ`. Every linkage follows one canonical rule: each
//! step merges the pair of active clusters with the smallest
//! `(distance, min id, max id)` key, distances ordered by
//! `f64::total_cmp`, so the merge sequence is a pure function of the
//! distance matrix.
//!
//! Single linkage (SLINK, the paper's citation and the default) is built
//! from a minimum spanning tree in `O(|T|²)` time: Prim over the condensed
//! Φ, then one tie level of bitwise-equal distances at a time (see
//! `single_linkage`). Complete and average linkage run greedy
//! global-minimum agglomeration over a dense `|T|²` copy of the
//! distances: each step merges the closest pair, found through a cached
//! nearest neighbour per cluster, and updates distances by
//! Lance-Williams. A step recomputes only the cache entries its merge
//! invalidated, so the engine takes `O(|T|³)` time in the worst case,
//! which tied distances reach — |T| is observation times, a few thousand
//! even for five years of daily data.
//!
//! There is one way to grow a tree: [`Dendrogram::extend`] builds over
//! the grown matrix, under every linkage.
//!
//! The paper's **adaptive distance threshold** rule is implemented by
//! [`AdaptiveThreshold`]: sweep thresholds from 0 to 1 in steps of 0.01 and
//! accept the first flat clustering with fewer than 15 clusters, each backed
//! by at least 2 valid observations.

use crate::error::{Error, Result};
use crate::similarity::SimilarityMatrix;

/// Linkage criterion for merging clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Minimum pairwise distance (SLINK, the paper's citation). Prone to
    /// chaining but faithful to the paper, and the cheapest: built from a
    /// minimum spanning tree in `O(|T|²)` time, ties or not.
    #[default]
    Single,
    /// Maximum pairwise distance; produces compact, similar-diameter modes.
    Complete,
    /// Unweighted average pairwise distance (UPGMA); the middle ground,
    /// benched in the ablation suite.
    Average,
}

/// One agglomeration step: clusters `a` and `b` merge at `distance` into a
/// new cluster of `size` leaves.
///
/// Cluster numbering follows the scipy convention: ids `0..n` are leaves
/// (observation indices); the merge at position `k` of
/// [`Dendrogram::merges`] creates cluster `n + k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happens.
    pub distance: f64,
    /// Number of leaves in the new cluster.
    pub size: usize,
}

/// The full merge tree produced by HAC, with merges in ascending distance
/// order so that cutting at a threshold is a single union-find pass.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n: usize,
    linkage: Linkage,
    merges: Vec<Merge>,
}

/// Working state of the greedy global-minimum agglomeration that
/// [`Dendrogram::build`] runs for complete and average linkage.
///
/// Each *slot* is one leaf index; a merged cluster lives on in the slot of
/// its smaller member and the other slot retires. Every candidate pair is
/// ranked by a total-order key (see [`Engine::key`]) so the merge sequence
/// is a pure function of the distance matrix, independent of discovery
/// order.
struct Engine {
    linkage: Linkage,
    slots: usize,
    /// `slots × slots` working distances, Lance-Williams-updated on merge.
    d: Vec<f64>,
    active: Vec<bool>,
    size: Vec<usize>,
    /// Current dendrogram cluster id (scipy numbering) held by each slot.
    cluster_id: Vec<usize>,
    next_id: usize,
    /// Cached nearest neighbour per slot `(distance, neighbour_slot)`,
    /// cleared whenever a merge could change the answer.
    nn: Vec<Option<(f64, usize)>>,
}

impl Engine {
    fn from_leaves(sim: &SimilarityMatrix, linkage: Linkage) -> Engine {
        debug_assert_ne!(linkage, Linkage::Single, "single linkage has its own path");
        let n = sim.len();
        let mut d = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = sim.distance(i, j);
            }
        }
        Engine {
            linkage,
            slots: n,
            d,
            active: vec![true; n],
            size: vec![1; n],
            cluster_id: (0..n).collect(),
            next_id: n,
            nn: vec![None; n],
        }
    }

    /// Lexicographic merge key: distance first under `f64::total_cmp` (so a
    /// NaN distance sorts after every number instead of panicking the sort,
    /// and ties are never resolved by discovery order), then the cluster-id
    /// pair. Keys are distinct across candidate pairs, making the greedy
    /// choice canonical.
    fn key(&self, dist: f64, i: usize, j: usize) -> (f64, usize, usize) {
        let (ci, cj) = (self.cluster_id[i], self.cluster_id[j]);
        (dist, ci.min(cj), ci.max(cj))
    }

    fn key_lt(a: &(f64, usize, usize), b: &(f64, usize, usize)) -> bool {
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .is_lt()
    }

    /// Nearest active neighbour of slot `i` by merge key.
    fn nearest(&self, i: usize) -> (f64, usize) {
        let mut best: Option<((f64, usize, usize), usize)> = None;
        for j in 0..self.slots {
            if j == i || !self.active[j] {
                continue;
            }
            let k = self.key(self.d[i * self.slots + j], i, j);
            if best.is_none_or(|(bk, _)| Self::key_lt(&k, &bk)) {
                best = Some((k, j));
            }
        }
        let (k, j) = best.expect("at least two active clusters");
        (k.0, j)
    }

    /// Merge the clusters in slots `x < y`, retiring `y`. Returns the
    /// recorded merge step.
    fn merge_slots(&mut self, x: usize, y: usize) -> Merge {
        debug_assert!(x < y && self.active[x] && self.active[y]);
        let n = self.slots;
        let dist = self.d[x * n + y];
        let (sx, sy) = (self.size[x], self.size[y]);
        let merge = Merge {
            a: self.cluster_id[x].min(self.cluster_id[y]),
            b: self.cluster_id[x].max(self.cluster_id[y]),
            distance: dist,
            size: sx + sy,
        };
        for m in 0..n {
            if m == x || m == y || !self.active[m] {
                continue;
            }
            let dxm = self.d[x * n + m];
            let dym = self.d[y * n + m];
            let new = if self.linkage == Linkage::Complete {
                dxm.max(dym)
            } else {
                (sx as f64 * dxm + sy as f64 * dym) / (sx + sy) as f64
            };
            self.d[x * n + m] = new;
            self.d[m * n + x] = new;
            // The cache survives only if it cannot have been affected: its
            // neighbour still exists and the merged cluster is strictly
            // farther (a tie would need the id-based key re-evaluated).
            if let Some((cd, cj)) = self.nn[m] {
                if cj == x || cj == y || new.total_cmp(&cd).is_le() {
                    self.nn[m] = None;
                }
            }
        }
        self.active[y] = false;
        self.nn[y] = None;
        self.nn[x] = None;
        self.size[x] = sx + sy;
        self.cluster_id[x] = self.next_id;
        self.next_id += 1;
        merge
    }

    /// One greedy step: merge the globally closest pair of active clusters.
    fn merge_best(&mut self) -> Merge {
        let mut best: Option<((f64, usize, usize), usize, usize)> = None;
        for i in 0..self.slots {
            if !self.active[i] {
                continue;
            }
            let (dist, j) = match self.nn[i] {
                Some(cached) => cached,
                None => {
                    let fresh = self.nearest(i);
                    self.nn[i] = Some(fresh);
                    fresh
                }
            };
            let k = self.key(dist, i, j);
            if best.is_none_or(|(bk, _, _)| Self::key_lt(&k, &bk)) {
                best = Some((k, i, j));
            }
        }
        let (_, a, b) = best.expect("at least two active clusters");
        self.merge_slots(a.min(b), a.max(b))
    }

    /// Run greedy agglomeration until one cluster remains.
    fn run(mut self) -> Vec<Merge> {
        (1..self.slots).map(|_| self.merge_best()).collect()
    }
}

/// End of a leaf list, and the id of a retired slot.
const NONE: usize = usize::MAX;

/// Exact single linkage through a minimum spanning tree, in `O(n²)` time
/// whatever the ties.
///
/// Single-linkage merge distances are the edge weights of any minimum
/// spanning tree (MST), and the clusters just below a distance `w` are the
/// components of the tree's edges shorter than `w`. So the tree's edges
/// are taken one *tie level* at a time, a level being the edges with
/// bitwise-equal distances, and [`contract_level`] performs each level's
/// merges in the engine's canonical order. The merges come out bit for
/// bit as the greedy engine would produce them: same ids, sizes and
/// distance bits.
fn single_linkage(sim: &SimilarityMatrix) -> Vec<Merge> {
    let mut edges = minimum_spanning_tree(sim);
    edges.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
    let mut forest = Forest::new(sim.len());
    let mut merges = Vec::with_capacity(edges.len());
    for level in edges.chunk_by(|x, y| x.0.to_bits() == y.0.to_bits()) {
        contract_level(sim, level, &mut forest, &mut merges);
    }
    merges
}

/// Edges `(distance, u, v)` of a minimum spanning tree over all pairs of
/// `sim`'s observations: Prim under `f64::total_cmp`, `O(n²)` time and
/// `O(n)` memory beyond the matrix.
fn minimum_spanning_tree(sim: &SimilarityMatrix) -> Vec<(f64, usize, usize)> {
    let n = sim.len();
    // Each vertex outside the tree, its distance to the tree and the tree
    // vertex at that distance. Distances start at the real ones to vertex
    // 0, not at +∞: a NaN distance sorts above +∞ and would be lost.
    let mut outside: Vec<(usize, f64, usize)> =
        (1..n).map(|v| (v, sim.distance(0, v), 0)).collect();
    let mut edges = Vec::with_capacity(outside.len());
    while !outside.is_empty() {
        let closest = (1..outside.len()).fold(0, |best, k| {
            if outside[k].1.total_cmp(&outside[best].1).is_lt() {
                k
            } else {
                best
            }
        });
        let (v, d, u) = outside.swap_remove(closest);
        edges.push((d, u, v));
        for (j, dj, near) in &mut outside {
            let d = sim.distance(v, *j);
            if d.total_cmp(dj).is_lt() {
                *dj = d;
                *near = v;
            }
        }
    }
    edges
}

/// The root of `x` in the union-find forest `parent`.
fn root(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]]; // path halving
        x = parent[x];
    }
    x
}

/// The current clusters of a single-linkage build: a union-find over
/// leaves. Each root heads a linked list of its cluster's leaves and
/// carries the cluster's id and size.
struct Forest {
    parent: Vec<usize>,
    /// The next leaf of the same cluster, or [`NONE`].
    next: Vec<usize>,
    /// The last leaf of the list a root heads.
    last: Vec<usize>,
    /// Cluster id (scipy numbering), valid at roots.
    id: Vec<usize>,
    /// Cluster size in leaves, valid at roots.
    size: Vec<usize>,
}

impl Forest {
    fn new(n: usize) -> Forest {
        Forest {
            parent: (0..n).collect(),
            next: vec![NONE; n],
            last: (0..n).collect(),
            id: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// The leaves of the cluster rooted at `root`.
    fn leaves(&self, root: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(root), |&x| Some(self.next[x]).filter(|&y| y != NONE))
    }

    /// Hang the cluster rooted at `root` under the root `into`.
    fn absorb(&mut self, into: usize, root: usize) {
        self.parent[root] = into;
        self.next[self.last[into]] = root;
        self.last[into] = self.last[root];
    }
}

/// Perform the merges of one tie level: `level` holds the MST edges at one
/// distance `w`, and every smaller distance has been merged.
///
/// The level's edges join the clusters they touch into groups. No leaf
/// pair across two clusters lies below `w`, so within a group two
/// clusters are at single-linkage distance `w` exactly when some leaf
/// pair between them is (they are *adjacent*), and clusters in different
/// groups lie farther apart. Each leaf pair is inspected at most once
/// over a build, since after its level it lies inside one cluster, and a
/// group of two clusters needs no inspection: the level's edge joins them.
///
/// The greedy engine merges the smallest `(w, min id, max id)` key first,
/// and a merged cluster takes the next id, larger than any other. So the
/// level contracts in a queue of ascending ids: the front cluster merges
/// with its adjacent cluster of smallest id, and the new cluster joins
/// the back. A front without neighbours is all that is left of its
/// group.
fn contract_level(
    sim: &SimilarityMatrix,
    level: &[(f64, usize, usize)],
    forest: &mut Forest,
    merges: &mut Vec<Merge>,
) {
    let n = sim.len();
    let (w, bits) = (level[0].0, level[0].0.to_bits());
    let ends: Vec<(usize, usize)> = level
        .iter()
        .map(|&(_, u, v)| (root(&mut forest.parent, u), root(&mut forest.parent, v)))
        .collect();
    // The touched clusters' roots in ascending id order; a cluster is
    // known below by its position here.
    let mut roots: Vec<usize> = ends.iter().flat_map(|&(a, b)| [a, b]).collect();
    roots.sort_unstable_by_key(|&r| forest.id[r]);
    roots.dedup();
    let k = roots.len();
    let at = |r: usize| {
        roots
            .binary_search_by_key(&forest.id[r], |&x| forest.id[x])
            .expect("touched cluster")
    };

    // Groups: a union-find over positions, joined along the level's edges.
    let mut group: Vec<usize> = (0..k).collect();
    for &(a, b) in &ends {
        let (ga, gb) = (root(&mut group, at(a)), root(&mut group, at(b)));
        group[ga.max(gb)] = ga.min(gb);
    }
    let tops: Vec<usize> = (0..k).map(|x| root(&mut group, x)).collect();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_unstable_by_key(|&x| (tops[x], x));
    let mut adjacent: Vec<Vec<usize>> = vec![Vec::new(); k];
    for members in order.chunk_by(|&x, &y| tops[x] == tops[y]) {
        let pair = members.len() == 2;
        // The inner loop takes the clusters before `y` in id order; over
        // singletons it walks along row `y` of the condensed matrix.
        for (i, &y) in members.iter().enumerate() {
            for &x in &members[..i] {
                let touching = pair
                    || forest.leaves(roots[y]).any(|q| {
                        forest
                            .leaves(roots[x])
                            .any(|p| sim.distance(p, q).to_bits() == bits)
                    });
                if touching {
                    adjacent[x].push(y);
                    adjacent[y].push(x);
                }
            }
        }
    }

    // Contract. Every touched cluster starts in its own slot; a merge
    // keeps the slot that holds more of them and retires the other.
    let mut owner: Vec<usize> = (0..k).collect();
    let mut held: Vec<Vec<usize>> = (0..k).map(|x| vec![x]).collect();
    let mut id: Vec<usize> = roots.iter().map(|&r| forest.id[r]).collect();
    let mut size: Vec<usize> = roots.iter().map(|&r| forest.size[r]).collect();
    let mut queue: Vec<(usize, usize)> = (0..k).map(|x| (x, id[x])).collect();
    let mut front = 0;
    while let Some(&(s, sid)) = queue.get(front) {
        front += 1;
        if id[s] != sid {
            continue; // merged since it was queued
        }
        let mut partner: Option<usize> = None;
        for &x in &held[s] {
            for &y in &adjacent[x] {
                let t = owner[y];
                if t != s && partner.is_none_or(|p| id[t] < id[p]) {
                    partner = Some(t);
                }
            }
        }
        let Some(t) = partner else { continue };
        // `sid` is the smallest live id, so it is the pair's `a`.
        let merged = Merge {
            a: sid,
            b: id[t],
            distance: w,
            size: size[s] + size[t],
        };
        let new_id = n + merges.len();
        merges.push(merged);
        let (keep, gone) = if held[s].len() >= held[t].len() {
            (s, t)
        } else {
            (t, s)
        };
        let moved = std::mem::take(&mut held[gone]);
        for &x in &moved {
            owner[x] = keep;
        }
        held[keep].extend(moved);
        id[gone] = NONE;
        (id[keep], size[keep]) = (new_id, merged.size);
        queue.push((keep, new_id));
    }

    // Each group is one cluster now, rooted at its surviving slot's root.
    for x in 0..k {
        let into = roots[owner[x]];
        if roots[x] != into {
            forest.absorb(into, roots[x]);
        } else {
            (forest.id[into], forest.size[into]) = (id[x], size[x]);
        }
    }
}

impl Dendrogram {
    /// Run HAC over the Gower distances of `sim` with the given linkage.
    ///
    /// The merge sequence is canonical: at every step the pair with the
    /// smallest `(distance, min id, max id)` key merges, so the output is a
    /// pure function of the matrix and two builds agree exactly. Single
    /// linkage builds from a minimum spanning tree in `O(n²)` time;
    /// complete and average linkage run the greedy engine, `O(n³)` in the
    /// worst case.
    ///
    /// Errors if the matrix is empty.
    pub fn build(sim: &SimilarityMatrix, linkage: Linkage) -> Result<Self> {
        let n = sim.len();
        if n == 0 {
            return Err(Error::EmptyInput("similarity matrix"));
        }
        let merges = if linkage == Linkage::Single {
            single_linkage(sim)
        } else {
            Engine::from_leaves(sim, linkage).run()
        };
        debug_assert!(
            merges
                .windows(2)
                .all(|w| w[0].distance.total_cmp(&w[1].distance).is_le()),
            "greedy merges must come out in ascending distance order"
        );
        Ok(Dendrogram { n, linkage, merges })
    }

    /// Grow the tree over observations newly appended to `sim` — the
    /// daily-operations path where an operator adds one sweep per day.
    ///
    /// The grown tree is `Dendrogram::build(sim, self.linkage())`: no
    /// merge of the old tree is reused, so none can make it differ from a
    /// batch build. A matrix of the same size leaves the tree as it is;
    /// errors if the matrix shrank.
    pub fn extend(&mut self, sim: &SimilarityMatrix) -> Result<()> {
        if sim.len() < self.n {
            return Err(Error::ShapeMismatch {
                what: "extended similarity matrix",
                expected: self.n,
                actual: sim.len(),
            });
        }
        if sim.len() > self.n {
            *self = Dendrogram::build(sim, self.linkage)?;
        }
        Ok(())
    }

    /// The linkage this tree was built with.
    pub fn linkage(&self) -> Linkage {
        self.linkage
    }

    /// Number of leaves (observation times).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dendrogram has no leaves.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The merge steps, ascending by distance.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Flat clustering: apply every merge with `distance <= threshold` and
    /// return one label per leaf. Labels are compacted to `0..k` in order of
    /// first appearance (so label ordering follows time for time-ordered
    /// inputs).
    pub fn cut(&self, threshold: f64) -> Vec<usize> {
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        // Union leaves through each qualifying merge. Internal-node ids are
        // mapped to a representative leaf lazily via `rep`.
        let mut rep: Vec<Option<usize>> = vec![None; self.n + self.merges.len()];
        for (i, r) in rep.iter_mut().enumerate().take(self.n) {
            *r = Some(i);
        }
        for (k, m) in self.merges.iter().enumerate() {
            let ra = rep[m.a].expect("child created before parent");
            let rb = rep[m.b].expect("child created before parent");
            if m.distance <= threshold {
                let (fa, fb) = (find(&mut parent, ra), find(&mut parent, rb));
                parent[fa.max(fb)] = fa.min(fb);
            }
            rep[self.n + k] = Some(ra);
        }
        // Compact labels in order of first appearance.
        let mut label_of_root: Vec<Option<usize>> = vec![None; self.n];
        let mut labels = Vec::with_capacity(self.n);
        let mut next = 0usize;
        for i in 0..self.n {
            let r = find(&mut parent, i);
            let l = *label_of_root[r].get_or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            labels.push(l);
        }
        labels
    }

    /// Number of clusters produced by [`Dendrogram::cut`] at `threshold`.
    pub fn cluster_count(&self, threshold: f64) -> usize {
        self.cut(threshold)
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m + 1)
    }
}

/// The paper's adaptive distance-threshold selection (§2.6.2):
///
/// > "we loop over a range of distance threshold \[0,1\] with step 0.01 and
/// > construct a new HAC model with the distance threshold. We choose the
/// > first HAC model with less than 15 clusters with at least 2 valid
/// > observations."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveThreshold {
    /// Sweep step (paper: 0.01).
    pub step: f64,
    /// Accept a model only when it has fewer than this many clusters
    /// (paper: 15).
    pub max_clusters: usize,
    /// Every cluster must contain at least this many observations
    /// (paper: 2).
    pub min_cluster_size: usize,
}

impl Default for AdaptiveThreshold {
    fn default() -> Self {
        AdaptiveThreshold {
            step: 0.01,
            max_clusters: 15,
            min_cluster_size: 2,
        }
    }
}

/// Result of an adaptive-threshold sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdChoice {
    /// The accepted threshold.
    pub threshold: f64,
    /// Flat cluster labels at that threshold, one per observation.
    pub labels: Vec<usize>,
    /// Number of clusters at that threshold.
    pub clusters: usize,
}

impl AdaptiveThreshold {
    /// Sweep thresholds ascending and return the first qualifying model.
    ///
    /// If no threshold in `[0, 1]` qualifies (possible only for degenerate
    /// inputs, e.g. a single observation), falls back to the full merge at
    /// threshold 1.0.
    ///
    /// Errors if parameters are out of domain.
    pub fn choose(&self, dendro: &Dendrogram) -> Result<ThresholdChoice> {
        if !(self.step > 0.0 && self.step <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "step",
                message: format!("{} not in (0, 1]", self.step),
            });
        }
        if self.max_clusters == 0 {
            return Err(Error::InvalidParameter {
                name: "max_clusters",
                message: "must be at least 1".into(),
            });
        }
        // Sweep by integer index: `t += step` accumulates binary
        // representation error (0.01 is not exactly representable), so the
        // swept thresholds would drift and 1.0 might be skipped or tested
        // twice depending on a fudge factor. `i as f64 * step` keeps each
        // threshold within one rounding of the ideal value, and the final
        // index is clamped so exactly 1.0 is always the last threshold.
        let steps = (1.0 / self.step).ceil() as usize;
        for i in 0..=steps {
            let t = if i == steps {
                1.0
            } else {
                i as f64 * self.step
            };
            let labels = dendro.cut(t);
            if let Some(choice) = self.qualify(t, labels) {
                return Ok(choice);
            }
        }
        let labels = dendro.cut(1.0);
        let clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
        Ok(ThresholdChoice {
            threshold: 1.0,
            labels,
            clusters,
        })
    }

    fn qualify(&self, threshold: f64, labels: Vec<usize>) -> Option<ThresholdChoice> {
        let clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
        if clusters == 0 || clusters >= self.max_clusters {
            return None;
        }
        let mut sizes = vec![0usize; clusters];
        for &l in &labels {
            sizes[l] += 1;
        }
        if sizes.iter().any(|&s| s < self.min_cluster_size) {
            return None;
        }
        Some(ThresholdChoice {
            threshold,
            labels,
            clusters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Similarity matrix from explicit distances.
    fn sim_from_dist(n: usize, f: impl Fn(usize, usize) -> f64) -> SimilarityMatrix {
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                v[i * n + j] = if i == j { 1.0 } else { 1.0 - f(i, j) };
            }
        }
        SimilarityMatrix::from_raw(n, v).unwrap()
    }

    /// Two tight groups {0,1,2} and {3,4} far apart.
    fn two_blobs() -> SimilarityMatrix {
        sim_from_dist(5, |i, j| {
            let g = |x: usize| usize::from(x >= 3);
            if g(i) == g(j) {
                0.1
            } else {
                0.9
            }
        })
    }

    #[test]
    fn empty_matrix_is_error() {
        let sim = SimilarityMatrix::from_raw(0, vec![]).unwrap();
        assert!(Dendrogram::build(&sim, Linkage::Single).is_err());
    }

    #[test]
    fn single_leaf_has_no_merges() {
        let sim = SimilarityMatrix::from_raw(1, vec![1.0]).unwrap();
        let d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        assert!(d.merges().is_empty());
        assert_eq!(d.cut(0.5), vec![0]);
    }

    #[test]
    fn merges_are_monotone_and_complete() {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = Dendrogram::build(&two_blobs(), linkage).unwrap();
            assert_eq!(d.merges().len(), 4);
            assert!(d
                .merges()
                .windows(2)
                .all(|w| w[0].distance <= w[1].distance));
            assert_eq!(d.merges().last().unwrap().size, 5);
        }
    }

    #[test]
    fn cut_recovers_the_two_blobs() {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = Dendrogram::build(&two_blobs(), linkage).unwrap();
            let labels = d.cut(0.5);
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[1], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_ne!(labels[0], labels[3]);
            assert_eq!(d.cluster_count(0.5), 2);
        }
    }

    #[test]
    fn cut_at_one_merges_everything() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        assert_eq!(d.cluster_count(1.0), 1);
    }

    #[test]
    fn cut_below_min_distance_keeps_singletons() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        assert_eq!(d.cluster_count(0.05), 5);
    }

    #[test]
    fn labels_follow_first_appearance_order() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        let labels = d.cut(0.5);
        assert_eq!(labels[0], 0); // first observation always labelled 0
        assert_eq!(labels[3], 1); // second cluster appears later in time
    }

    #[test]
    fn single_vs_complete_linkage_differ_on_chains() {
        // A chain 0-1-2-3 where consecutive points are 0.2 apart and the
        // ends are 0.6 apart. Single linkage merges the whole chain at 0.2;
        // complete linkage cannot join the ends until much higher.
        let sim = sim_from_dist(4, |i, j| {
            let d = i.abs_diff(j);
            match d {
                1 => 0.2,
                2 => 0.4,
                _ => 0.6,
            }
        });
        let ds = Dendrogram::build(&sim, Linkage::Single).unwrap();
        assert_eq!(ds.cluster_count(0.25), 1, "single linkage chains");
        let dc = Dendrogram::build(&sim, Linkage::Complete).unwrap();
        assert!(
            dc.cluster_count(0.25) > 1,
            "complete linkage resists chains"
        );
    }

    #[test]
    fn average_linkage_is_between_single_and_complete() {
        let sim = sim_from_dist(4, |i, j| {
            let d = i.abs_diff(j);
            match d {
                1 => 0.2,
                2 => 0.4,
                _ => 0.6,
            }
        });
        let height = |l: Linkage| {
            Dendrogram::build(&sim, l)
                .unwrap()
                .merges()
                .last()
                .unwrap()
                .distance
        };
        let (s, a, c) = (
            height(Linkage::Single),
            height(Linkage::Average),
            height(Linkage::Complete),
        );
        assert!(
            s <= a && a <= c,
            "single {s} <= average {a} <= complete {c}"
        );
    }

    #[test]
    fn adaptive_threshold_picks_the_blob_structure() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        let choice = AdaptiveThreshold::default().choose(&d).unwrap();
        assert_eq!(choice.clusters, 2);
        // Accepted at the first sweep step reaching the intra-blob distance
        // (0.1 up to float rounding in both the step accumulation and the
        // 1 − Φ conversion).
        assert!(choice.threshold >= 0.1 - 1e-9 && choice.threshold < 0.2);
        assert_eq!(choice.labels, d.cut(choice.threshold));
    }

    #[test]
    fn adaptive_threshold_rejects_singleton_models() {
        // Distances: {0,1} at 0.1, {2} an outlier at 0.8 from both.
        let sim = sim_from_dist(3, |i, j| {
            if (i, j) == (0, 1) || (i, j) == (1, 0) {
                0.1
            } else {
                0.8
            }
        });
        let d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        let choice = AdaptiveThreshold::default().choose(&d).unwrap();
        // At 0.1 the model is {0,1},{2}: rejected (singleton). The accepted
        // threshold must swallow the outlier.
        assert!(choice.threshold >= 0.8 - 1e-9);
        assert_eq!(choice.clusters, 1);
    }

    #[test]
    fn adaptive_threshold_validates_parameters() {
        let d = Dendrogram::build(&two_blobs(), Linkage::Single).unwrap();
        let bad_step = AdaptiveThreshold {
            step: 0.0,
            ..Default::default()
        };
        assert!(bad_step.choose(&d).is_err());
        let bad_max = AdaptiveThreshold {
            max_clusters: 0,
            ..Default::default()
        };
        assert!(bad_max.choose(&d).is_err());
    }

    #[test]
    fn adaptive_threshold_single_observation_falls_back() {
        let sim = SimilarityMatrix::from_raw(1, vec![1.0]).unwrap();
        let d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        let choice = AdaptiveThreshold::default().choose(&d).unwrap();
        assert_eq!(choice.clusters, 1);
        assert_eq!(choice.labels, vec![0]);
    }

    #[test]
    fn max_clusters_bound_is_exclusive() {
        // 4 equidistant points: any threshold below 0.5 gives 4 singletons;
        // at 0.5 everything merges. With max_clusters = 1 nothing qualifies
        // below full merge... with max 2, the 1-cluster model qualifies.
        let sim = sim_from_dist(4, |_, _| 0.5);
        let d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        let at = AdaptiveThreshold {
            max_clusters: 2,
            ..Default::default()
        };
        let choice = at.choose(&d).unwrap();
        assert_eq!(choice.clusters, 1);
    }

    #[test]
    fn identical_observations_merge_at_zero() {
        let sim = sim_from_dist(3, |_, _| 0.0);
        let d = Dendrogram::build(&sim, Linkage::Complete).unwrap();
        assert_eq!(d.cluster_count(0.0), 1);
    }

    #[test]
    fn nan_distances_do_not_panic() {
        // A NaN distance (e.g. from a degenerate weights edge case smuggled
        // in through from_raw) must not panic the merge ordering; under
        // total_cmp NaN sorts after every number, so NaN-distance merges
        // come last and everything else is unaffected.
        let mut v = vec![f64::NAN; 9];
        for i in 0..3 {
            v[i * 3 + i] = 1.0;
        }
        // Observations 0 and 1 are close; 2 is NaN-distant from both.
        v[1] = 0.9;
        v[3] = 0.9;
        let sim = SimilarityMatrix::from_raw(3, v).unwrap();
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = Dendrogram::build(&sim, linkage).unwrap();
            assert_eq!(d.merges().len(), 2, "{linkage:?}");
            assert!((d.merges()[0].distance - 0.1).abs() < 1e-12);
            assert!(d.merges()[1].distance.is_nan());
        }
    }

    #[test]
    fn build_is_deterministic_under_ties() {
        // Every pair equidistant: the canonical key must resolve ties the
        // same way on every run, so two builds agree exactly.
        let sim = sim_from_dist(6, |_, _| 0.5);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let a = Dendrogram::build(&sim, linkage).unwrap();
            let b = Dendrogram::build(&sim, linkage).unwrap();
            assert_eq!(a.merges(), b.merges());
            // First merge is the smallest-id pair, and ids ascend.
            assert_eq!((a.merges()[0].a, a.merges()[0].b), (0, 1));
        }
    }

    #[test]
    fn extend_matches_batch_build() {
        // Grow 5 -> 8 observations; the extended tree must be bit-for-bit
        // the batch tree over the full matrix.
        let full = sim_from_dist(8, |i, j| {
            let g = |x: usize| if x >= 6 { 2 } else { usize::from(x >= 3) };
            if g(i) == g(j) {
                0.1 + 0.01 * i.abs_diff(j) as f64
            } else {
                0.8 + 0.01 * (i + j) as f64 / 10.0
            }
        });
        let prefix = {
            let n = 5;
            let mut v = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    v[i * n + j] = full.get(i, j);
                }
            }
            SimilarityMatrix::from_raw(n, v).unwrap()
        };
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let mut grown = Dendrogram::build(&prefix, linkage).unwrap();
            grown.extend(&full).unwrap();
            let batch = Dendrogram::build(&full, linkage).unwrap();
            assert_eq!(grown.merges(), batch.merges(), "{linkage:?}");
            assert_eq!(grown.len(), batch.len());
        }
    }

    #[test]
    fn extend_matches_batch_under_ties() {
        // All-equal distances: every merge is decided by the id tie-break.
        let full = sim_from_dist(7, |_, _| 0.5);
        let prefix = sim_from_dist(4, |_, _| 0.5);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let mut grown = Dendrogram::build(&prefix, linkage).unwrap();
            grown.extend(&full).unwrap();
            let batch = Dendrogram::build(&full, linkage).unwrap();
            assert_eq!(grown.merges(), batch.merges(), "{linkage:?}");
        }
    }

    #[test]
    fn extend_noop_and_shrink() {
        let sim = two_blobs();
        let mut d = Dendrogram::build(&sim, Linkage::Single).unwrap();
        let before = d.merges().to_vec();
        d.extend(&sim).unwrap();
        assert_eq!(d.merges(), &before[..]);
        let small = sim_from_dist(2, |_, _| 0.5);
        assert!(d.extend(&small).is_err());
    }

    #[test]
    fn extend_from_single_leaf() {
        let prefix = SimilarityMatrix::from_raw(1, vec![1.0]).unwrap();
        let full = two_blobs();
        let mut grown = Dendrogram::build(&prefix, Linkage::Average).unwrap();
        grown.extend(&full).unwrap();
        let batch = Dendrogram::build(&full, Linkage::Average).unwrap();
        assert_eq!(grown.merges(), batch.merges());
    }

    /// Naive `O(n³)` HAC, the reference every build path must match: each
    /// step scans every pair of active clusters for the smallest
    /// `(distance, min id, max id)` key under `total_cmp`. A new cluster's
    /// distances under single and complete linkage are the min or max over
    /// its leaf pairs; average linkage keeps the engine's Lance–Williams
    /// distances.
    fn naive_hac(sim: &SimilarityMatrix, linkage: Linkage) -> Vec<Merge> {
        let n = sim.len();
        let ids = 2 * n;
        // Distances between clusters by id, filled in as clusters form.
        let mut dist = vec![f64::NAN; ids * ids];
        for i in 0..n {
            for j in 0..n {
                dist[i * ids + j] = sim.distance(i, j);
            }
        }
        // Active clusters: id and leaves.
        let mut active: Vec<(usize, Vec<usize>)> = (0..n).map(|i| (i, vec![i])).collect();
        let mut merges = Vec::new();
        while active.len() > 1 {
            let mut best: Option<((f64, usize, usize), usize, usize)> = None;
            for x in 0..active.len() {
                for y in x + 1..active.len() {
                    let (ix, iy) = (active[x].0, active[y].0);
                    let key = (dist[ix * ids + iy], ix.min(iy), ix.max(iy));
                    let lt = |b: &(f64, usize, usize)| {
                        key.0
                            .total_cmp(&b.0)
                            .then(key.1.cmp(&b.1))
                            .then(key.2.cmp(&b.2))
                            .is_lt()
                    };
                    if best.is_none_or(|(b, _, _)| lt(&b)) {
                        best = Some((key, x, y));
                    }
                }
            }
            let ((distance, a, b), x, y) = best.expect("two active clusters");
            let (iy, ly) = active.remove(y);
            let (ix, lx) = active.remove(x);
            let (sx, sy) = (lx.len(), ly.len());
            let leaves: Vec<usize> = lx.into_iter().chain(ly).collect();
            let id = n + merges.len();
            for (m, lm) in &active {
                let leaf_pairs = leaves
                    .iter()
                    .flat_map(|&p| lm.iter().map(move |&q| sim.distance(p, q)));
                let d = match linkage {
                    Linkage::Single => leaf_pairs.reduce(f64::min).unwrap(),
                    Linkage::Complete => leaf_pairs.reduce(f64::max).unwrap(),
                    Linkage::Average => {
                        let (dxm, dym) = (dist[ix * ids + m], dist[iy * ids + m]);
                        (sx as f64 * dxm + sy as f64 * dym) / (sx + sy) as f64
                    }
                };
                dist[id * ids + m] = d;
                dist[m * ids + id] = d;
            }
            merges.push(Merge {
                a,
                b,
                distance,
                size: leaves.len(),
            });
            active.push((id, leaves));
        }
        merges
    }

    fn assert_same_bits(got: &[Merge], want: &[Merge], what: &str) {
        let bits = |m: &Merge| (m.a, m.b, m.size, m.distance.to_bits());
        assert_eq!(got.len(), want.len(), "{what}: merge count");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(bits(g), bits(w), "{what}: merge {k} is {g:?}, oracle {w:?}");
        }
    }

    /// Φ matrices of `n` observations that stress tie resolution: Φ on a
    /// 3-value and a 16-value grid, distinct values, one value
    /// everywhere, and a 16-value grid with NaN cells (as in
    /// `nan_distances_do_not_panic`).
    fn tie_inputs(
        n: usize,
        next: &mut impl FnMut() -> u64,
    ) -> Vec<(&'static str, SimilarityMatrix)> {
        let mut matrix = |cell: &mut dyn FnMut(u64) -> f64| {
            let mut v = vec![1.0; n * n];
            for i in 0..n {
                for j in 0..i {
                    let phi = cell(next());
                    v[i * n + j] = phi;
                    v[j * n + i] = phi;
                }
            }
            SimilarityMatrix::from_raw(n, v).unwrap()
        };
        let grid = |r: u64, values: u64| (r % values) as f64 / (values - 1) as f64;
        vec![
            ("3-value grid", matrix(&mut |r| grid(r, 3))),
            ("16-value grid", matrix(&mut |r| grid(r, 16))),
            (
                "distinct",
                matrix(&mut |r| (r >> 11) as f64 / (1u64 << 53) as f64),
            ),
            ("all equal", matrix(&mut |_| 0.5)),
            (
                "NaN cells",
                matrix(&mut |r| {
                    if r % 4 == 0 {
                        f64::NAN
                    } else {
                        grid(r >> 2, 16)
                    }
                }),
            ),
        ]
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn every_build_matches_the_naive_oracle_bit_for_bit() {
        for n in 1..=100 {
            let mut next = xorshift(0x9E37_79B9_7F4A_7C15 ^ n as u64);
            for (kind, sim) in tie_inputs(n, &mut next) {
                for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
                    let want = naive_hac(&sim, linkage);
                    let built = Dendrogram::build(&sim, linkage).unwrap();
                    let what = format!("n={n} {kind} {linkage:?} build");
                    assert_same_bits(built.merges(), &want, &what);
                }
            }
        }
    }
}
