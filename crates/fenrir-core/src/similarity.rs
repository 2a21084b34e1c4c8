//! Pairwise comparison of routing vectors (§2.6.1 of the paper).
//!
//! Fenrir adopts a weighted Gower similarity between two routing vectors
//! `D(t)` and `D(t′)`. Element `n` *matches* when both vectors place it in
//! the same catchment and that catchment is known:
//!
//! ```text
//! M(t,t′,n) = 1  if D(t,n) = D(t′,n) ∧ D(t,n) ≠ unknown
//!             0  otherwise
//!
//! Φ(t,t′) = Σ_n M(t,t′,n)·D_w(n) / Σ_n D_w(n)
//! ```
//!
//! `Φ` is the weighted fraction of networks whose catchment is *the same* in
//! both vectors — "is routing 80% like last month?".
//!
//! Two [`UnknownPolicy`]s are provided. [`UnknownPolicy::Pessimistic`] is the
//! paper's default and treats any unknown as a non-match, which caps Φ at the
//! known fraction (the paper observes Verfploeter's ~50% non-response pins
//! stable-routing Φ to 0.5–0.6). [`UnknownPolicy::KnownOnly`] is the paper's
//! stated ongoing work: it drops networks that are unknown in either vector
//! from both numerator and denominator, so Φ measures similarity *of known
//! networks* and stable routing scores near 1.0.
//!
//! The paper's default weighting counts every network as 1, and then the
//! sums above are counts. Under such unit weights [`phi`] counts matching
//! (and, for `KnownOnly`, commonly known) networks into integers and
//! divides once. That is exact, not an approximation: a sequential f64
//! sum of `k` ones is exactly `k` for `k < 2^53`, so the quotient has the
//! same bits as the weighted sum's. Other weights are summed sequentially
//! in network order, because f64 addition is not associative and any
//! other order could change Φ's last bit.

use crate::error::{Error, Result};
use crate::series::VectorSeries;
use crate::vector::{RoutingVector, CODE_UNKNOWN};
use crate::weight::Weights;

/// How unknown observations enter Φ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UnknownPolicy {
    /// Paper default (§2.6.1): an unknown on either side is a non-match and
    /// its weight stays in the denominator. Pessimistic — imperfect coverage
    /// depresses Φ.
    #[default]
    Pessimistic,
    /// Paper's stated ongoing work: networks unknown in either vector are
    /// excluded from numerator *and* denominator, so Φ compares only
    /// commonly-known networks. Returns 0 when nothing is commonly known.
    KnownOnly,
}

/// Weighted Gower similarity `Φ(t,t′) ∈ [0, 1]` between two vectors.
///
/// Under unit weights (every weight exactly 1.0, as from
/// [`Weights::uniform`]) Φ counts matching networks instead of summing
/// their weights, with the same bits, since a sequential f64 sum of `k`
/// ones is exactly `k` (see the [module docs](self)). Any other weights
/// are summed sequentially in network order.
///
/// # Panics
///
/// Debug-asserts that both vectors and the weights have equal length; use
/// [`phi_checked`] for a fallible variant.
pub fn phi(a: &RoutingVector, b: &RoutingVector, w: &Weights, policy: UnknownPolicy) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "vector lengths differ");
    debug_assert_eq!(a.len(), w.len(), "weights length differs");
    if w.is_unit() {
        return phi_unit(a.codes(), b.codes(), w, policy);
    }
    let wa = w.values();
    match policy {
        UnknownPolicy::Pessimistic => {
            let mut num = 0.0;
            for ((&ca, &cb), &wn) in a.codes().iter().zip(b.codes()).zip(wa) {
                if ca == cb && ca != CODE_UNKNOWN {
                    num += wn;
                }
            }
            if w.total() == 0.0 {
                0.0
            } else {
                num / w.total()
            }
        }
        UnknownPolicy::KnownOnly => {
            let mut num = 0.0;
            let mut den = 0.0;
            for ((&ca, &cb), &wn) in a.codes().iter().zip(b.codes()).zip(wa) {
                if ca == CODE_UNKNOWN || cb == CODE_UNKNOWN {
                    continue;
                }
                den += wn;
                if ca == cb {
                    num += wn;
                }
            }
            if den == 0.0 {
                0.0
            } else {
                num / den
            }
        }
    }
}

/// [`phi`] under unit weights: match counts over the networks the weighted
/// zip would visit.
fn phi_unit(a: &[u16], b: &[u16], w: &Weights, policy: UnknownPolicy) -> f64 {
    let n = a.len().min(b.len()).min(w.len());
    let (a, b) = (&a[..n], &b[..n]);
    // A known catchment on one side that equals the other side's is known
    // on both, so this is also KnownOnly's numerator.
    let same = count_pairs(a, b, |ca, cb| (ca == cb) & (ca != CODE_UNKNOWN));
    match policy {
        UnknownPolicy::Pessimistic => {
            if w.total() == 0.0 {
                0.0
            } else {
                same as f64 / w.total()
            }
        }
        UnknownPolicy::KnownOnly => {
            let known = count_pairs(a, b, |ca, cb| (ca != CODE_UNKNOWN) & (cb != CODE_UNKNOWN));
            if known == 0 {
                0.0
            } else {
                same as f64 / known as f64
            }
        }
    }
}

/// Number of positions of two equal-length code slices where `hit` holds.
///
/// Each chunk is counted into a `u16`, which a chunk of at most
/// `u16::MAX` elements cannot overflow, so the compiler vectorizes the
/// per-element loop with 16-bit lanes; the non-short-circuit `&` in the
/// predicates keeps it free of branches.
fn count_pairs(a: &[u16], b: &[u16], hit: impl Fn(u16, u16) -> bool) -> usize {
    const CHUNK: usize = u16::MAX as usize;
    a.chunks(CHUNK)
        .zip(b.chunks(CHUNK))
        .map(|(ca, cb)| {
            let hits: u16 = ca.iter().zip(cb).map(|(&x, &y)| u16::from(hit(x, y))).sum();
            usize::from(hits)
        })
        .sum()
}

/// [`phi`] with the networks `excluded` marks weighted zero, given `kept`
/// (positive): the other networks' weights summed in network order. Unit
/// weights count the kept matches and other weights sum them in network
/// order, so the result has the bits of [`phi`] under `w` with the
/// excluded weights set to zero.
pub(crate) fn phi_excluding(
    a: &RoutingVector,
    b: &RoutingVector,
    w: &Weights,
    excluded: &[bool],
    kept: f64,
    policy: UnknownPolicy,
) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "vector lengths differ");
    debug_assert_eq!(a.len(), w.len(), "weights length differs");
    debug_assert_eq!(a.len(), excluded.len(), "mask length differs");
    let (a, b) = (a.codes(), b.codes());
    if w.is_unit() {
        let same = count_kept(a, b, excluded, |ca, cb| (ca == cb) & (ca != CODE_UNKNOWN));
        return match policy {
            UnknownPolicy::Pessimistic => same as f64 / kept,
            UnknownPolicy::KnownOnly => {
                let known = count_kept(a, b, excluded, |ca, cb| {
                    (ca != CODE_UNKNOWN) & (cb != CODE_UNKNOWN)
                });
                if known == 0 {
                    0.0
                } else {
                    same as f64 / known as f64
                }
            }
        };
    }
    let mut num = 0.0;
    let mut den = 0.0;
    let cells = a.iter().zip(b).zip(w.values()).zip(excluded);
    for (((&ca, &cb), &wn), &ex) in cells {
        if ex || ca == CODE_UNKNOWN || cb == CODE_UNKNOWN {
            continue;
        }
        den += wn;
        if ca == cb {
            num += wn;
        }
    }
    match policy {
        UnknownPolicy::Pessimistic => num / kept,
        UnknownPolicy::KnownOnly => {
            if den == 0.0 {
                0.0
            } else {
                num / den
            }
        }
    }
}

/// [`count_pairs`] over only the positions `excluded` leaves unmarked.
fn count_kept(a: &[u16], b: &[u16], excluded: &[bool], hit: impl Fn(u16, u16) -> bool) -> usize {
    const CHUNK: usize = u16::MAX as usize;
    let chunks = a
        .chunks(CHUNK)
        .zip(b.chunks(CHUNK))
        .zip(excluded.chunks(CHUNK));
    chunks
        .map(|((ca, cb), ce)| {
            let cells = ca.iter().zip(cb).zip(ce);
            let hits: u16 = cells.map(|((&x, &y), &e)| u16::from(hit(x, y) & !e)).sum();
            usize::from(hits)
        })
        .sum()
}

/// Fallible wrapper around [`phi`] validating shapes (for callers handling
/// untrusted data).
pub fn phi_checked(
    a: &RoutingVector,
    b: &RoutingVector,
    w: &Weights,
    policy: UnknownPolicy,
) -> Result<f64> {
    if a.len() != b.len() {
        return Err(Error::ShapeMismatch {
            what: "routing vector pair",
            expected: a.len(),
            actual: b.len(),
        });
    }
    if w.len() != a.len() {
        return Err(Error::ShapeMismatch {
            what: "weights",
            expected: a.len(),
            actual: w.len(),
        });
    }
    Ok(phi(a, b, w, policy))
}

/// Number of stored cells for an `n × n` symmetric matrix kept as its lower
/// triangle (diagonal included).
#[inline]
fn tri_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Symmetric all-pairs similarity matrix over a series — the backing data of
/// the paper's heatmaps (Figures 2b, 3b, 5, 6b) and the input to clustering.
///
/// Φ is symmetric, so only the lower triangle (diagonal included) is stored:
/// `n·(n+1)/2` cells instead of `n²`, halving resident memory and serialized
/// size for the multi-year matrices the daily-operations workflow keeps
/// around. The triangle is row-major — row `i` holds `Φ(i, 0..=i)` — so
/// appending an observation appends one contiguous row and
/// [`SimilarityMatrix::extend`] never re-embeds history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimilarityMatrix {
    n: usize,
    /// Lower triangle with diagonal, row-major: `values[i·(i+1)/2 + j]` is
    /// `Φ(i, j)` for `j ≤ i`.
    values: Vec<f64>,
}

impl SimilarityMatrix {
    /// Position of `(i, j)` in the condensed buffer (order-insensitive).
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n && j < self.n, "({i}, {j}) out of {}", self.n);
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        hi * (hi + 1) / 2 + lo
    }

    /// Compute Φ for all pairs of vectors in `series`, sequentially: the
    /// [`SimilarityMatrix::extend`] of an empty matrix.
    ///
    /// Errors if the series is empty or weights mismatch the population.
    pub fn compute(series: &VectorSeries, w: &Weights, policy: UnknownPolicy) -> Result<Self> {
        let mut m = SimilarityMatrix::default();
        m.extend(series, w, policy)?;
        Ok(m)
    }

    /// Like [`SimilarityMatrix::compute`] but splits rows across `threads`
    /// scoped OS threads. All-pairs Φ is `O(|T|²·N)` and is the dominant
    /// cost on multi-year datasets.
    ///
    /// A worker panic surfaces as [`Error::Internal`] instead of aborting
    /// the process, so campaign runners can quarantine the analysis and
    /// continue with the rest of the batch.
    pub fn compute_parallel(
        series: &VectorSeries,
        w: &Weights,
        policy: UnknownPolicy,
        threads: usize,
    ) -> Result<Self> {
        Self::validate(series, w)?;
        let n = series.len();
        let threads = threads.max(1).min(n);
        let mut values = vec![0.0; tri_len(n)];
        {
            // Hand each worker a disjoint set of triangle rows, strided so
            // the growing rows (row i holds i+1 cells) balance out.
            let mut per_thread: Vec<Vec<(usize, &mut [f64])>> =
                (0..threads).map(|_| Vec::new()).collect();
            let mut rest: &mut [f64] = &mut values;
            for i in 0..n {
                let (row, tail) = rest.split_at_mut(i + 1);
                per_thread[i % threads].push((i, row));
                rest = tail;
            }
            let panicked = std::thread::scope(|scope| {
                let workers: Vec<_> = per_thread
                    .into_iter()
                    .map(|rows| {
                        scope.spawn(move || {
                            for (i, row) in rows {
                                let a = series.get(i);
                                for (j, cell) in row.iter_mut().enumerate() {
                                    *cell = phi(a, series.get(j), w, policy);
                                }
                            }
                        })
                    })
                    .collect();
                // Join every worker here: the scope would re-raise the
                // panic of any worker left unjoined.
                workers
                    .into_iter()
                    .map(|w| w.join())
                    .filter(|joined| joined.is_err())
                    .count()
            });
            if panicked > 0 {
                return Err(Error::Internal {
                    what: "similarity worker",
                    message: "a worker thread panicked while computing Φ rows".into(),
                });
            }
        }
        Ok(SimilarityMatrix { n, values })
    }

    fn validate(series: &VectorSeries, w: &Weights) -> Result<()> {
        if series.is_empty() {
            return Err(Error::EmptyInput("vector series"));
        }
        if w.len() != series.networks() {
            return Err(Error::ShapeMismatch {
                what: "weights",
                expected: series.networks(),
                actual: w.len(),
            });
        }
        Ok(())
    }

    /// Extend an existing matrix with rows/columns for observations newly
    /// appended to `series` — the daily-operations path: an operator adds
    /// one observation per sweep and must not recompute `O(|T|²·N)` history.
    ///
    /// The first `self.len()` observations of `series` must be the ones
    /// this matrix was computed from; once a row is stored, a corner cell
    /// is recomputed as a cheap spot check and a mismatch is rejected.
    /// Only the `series.len() − self.len()` new rows are computed, each
    /// `O(|T|·N)`; an empty matrix computes every row.
    ///
    /// Errors if the series is empty or shorter than the matrix, weights
    /// mismatch, or the spot check fails.
    pub fn extend(
        &mut self,
        series: &VectorSeries,
        w: &Weights,
        policy: UnknownPolicy,
    ) -> Result<()> {
        Self::validate(series, w)?;
        let old_n = self.n;
        let new_n = series.len();
        if new_n < old_n {
            return Err(Error::ShapeMismatch {
                what: "extended series",
                expected: old_n,
                actual: new_n,
            });
        }
        if new_n == old_n {
            return Ok(());
        }
        // Spot check: the most distant stored pair must still reproduce.
        if let Some(last) = old_n.checked_sub(1) {
            let check = phi(series.get(0), series.get(last), w, policy);
            if (check - self.get(0, last)).abs() > 1e-12 {
                return Err(Error::InvalidParameter {
                    name: "series",
                    message: format!(
                        "prefix changed since the matrix was computed: Φ(0, {last}) is {check}, \
                         matrix has {}",
                        self.get(0, last)
                    ),
                });
            }
        }
        // The condensed triangle grows by appending one contiguous row per
        // new observation — stored history is never touched or re-embedded.
        self.values.reserve(tri_len(new_n) - tri_len(old_n));
        for i in old_n..new_n {
            let a = series.get(i);
            for j in 0..=i {
                self.values.push(phi(a, series.get(j), w, policy));
            }
        }
        self.n = new_n;
        Ok(())
    }

    /// Rebuild a matrix from its condensed lower-triangle buffer (the
    /// exact bytes [`SimilarityMatrix::raw`] exposes) — the journal
    /// restore path. Validates the cell count and that every Φ is finite
    /// and within `[0, 1]`.
    pub fn from_condensed(n: usize, values: Vec<f64>) -> Result<Self> {
        if values.len() != tri_len(n) {
            return Err(Error::ShapeMismatch {
                what: "condensed similarity buffer",
                expected: tri_len(n),
                actual: values.len(),
            });
        }
        for (k, &v) in values.iter().enumerate() {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(Error::InvalidParameter {
                    name: "values",
                    message: format!(
                        "Φ at condensed cell {k} is {v}, not a finite value in [0, 1]"
                    ),
                });
            }
        }
        Ok(SimilarityMatrix { n, values })
    }

    /// The condensed cells appended for observation `i`: `Φ(i, 0..=i)`,
    /// `i + 1` values. This is the per-observation delta a journal frame
    /// persists — history rows never change, so replaying these slices in
    /// order reproduces [`SimilarityMatrix::raw`] bit-for-bit.
    pub fn condensed_row(&self, i: usize) -> &[f64] {
        &self.values[tri_len(i)..tri_len(i + 1)]
    }

    /// Build from a precomputed row-major `n × n` dense buffer (used by
    /// tests and ingestion paths). The buffer must be exactly symmetric;
    /// only its lower triangle is kept.
    pub fn from_raw(n: usize, values: Vec<f64>) -> Result<Self> {
        if values.len() != n * n {
            return Err(Error::ShapeMismatch {
                what: "similarity matrix buffer",
                expected: n * n,
                actual: values.len(),
            });
        }
        let mut condensed = Vec::with_capacity(tri_len(n));
        for i in 0..n {
            for j in 0..=i {
                let lower = values[i * n + j];
                let upper = values[j * n + i];
                if lower.to_bits() != upper.to_bits() {
                    return Err(Error::InvalidParameter {
                        name: "values",
                        message: format!(
                            "matrix is not symmetric at ({i}, {j}): {lower} vs {upper}"
                        ),
                    });
                }
                condensed.push(lower);
            }
        }
        Ok(SimilarityMatrix {
            n,
            values: condensed,
        })
    }

    /// Matrix dimension (number of observation times).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is 0×0.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `Φ` between observations `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[self.idx(i, j)]
    }

    /// Gower distance `1 − Φ` between observations `i` and `j`.
    #[inline]
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        1.0 - self.get(i, j)
    }

    /// `Φ` between observations `i` and `j` with bounds checking — the
    /// single-pair lookup for callers holding untrusted indices (a query
    /// server resolving client-supplied times). [`SimilarityMatrix::get`]
    /// stays the hot unchecked path for internal iteration.
    pub fn get_checked(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.n || j >= self.n {
            return Err(Error::InvalidParameter {
                name: "similarity index",
                message: format!("pair ({i}, {j}) out of range for {} observations", self.n),
            });
        }
        Ok(self.get(i, j))
    }

    /// Full row `i` (all `n` columns, symmetry expanded).
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.n).map(|j| self.get(i, j)).collect()
    }

    /// Raw condensed buffer: the lower triangle with diagonal, row-major
    /// (`n·(n+1)/2` cells). Two matrices over the same observations are
    /// equal iff their raw buffers are equal.
    pub fn raw(&self) -> &[f64] {
        &self.values
    }

    /// `[min, max]` of Φ over a set of index pairs — the paper reports mode
    /// similarity as ranges like `Φ in [0.31, 0.65]`.
    pub fn range_over<I: IntoIterator<Item = (usize, usize)>>(
        &self,
        pairs: I,
    ) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut any = false;
        for (i, j) in pairs {
            let v = self.get(i, j);
            lo = lo.min(v);
            hi = hi.max(v);
            any = true;
        }
        any.then_some((lo, hi))
    }

    /// Φ range over all distinct pairs within one group of indices —
    /// intra-mode similarity. Returns `None` for groups with <2 members.
    pub fn intra_range(&self, group: &[usize]) -> Option<(f64, f64)> {
        let pairs = group.iter().enumerate();
        self.range_over(pairs.flat_map(|(k, &i)| group[k + 1..].iter().map(move |&j| (i, j))))
    }

    /// Φ range over the cross product of two groups — inter-mode similarity
    /// like the paper's `Φ(M_i, M_ii) = [0.11, 0.48]`.
    pub fn inter_range(&self, a: &[usize], b: &[usize]) -> Option<(f64, f64)> {
        self.range_over(a.iter().flat_map(|&i| b.iter().map(move |&j| (i, j))))
    }

    /// Mean Φ over the cross product of two groups.
    pub fn inter_mean(&self, a: &[usize], b: &[usize]) -> Option<f64> {
        if a.is_empty() || b.is_empty() {
            return None;
        }
        let mut sum = 0.0;
        for &i in a {
            for &j in b {
                sum += self.get(i, j);
            }
        }
        Some(sum / (a.len() * b.len()) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SiteId, SiteTable};
    use crate::time::Timestamp;
    use crate::vector::Catchment;

    fn ts(d: i64) -> Timestamp {
        Timestamp::from_days(d)
    }

    fn v(d: i64, cs: &[Catchment]) -> RoutingVector {
        RoutingVector::from_catchments(ts(d), cs.to_vec())
    }

    fn s(n: u16) -> Catchment {
        Catchment::Site(SiteId(n))
    }

    #[test]
    fn identical_known_vectors_have_phi_one() {
        let a = v(0, &[s(0), s(1), Catchment::Err]);
        let b = v(1, &[s(0), s(1), Catchment::Err]);
        let w = Weights::uniform(3);
        assert_eq!(phi(&a, &b, &w, UnknownPolicy::Pessimistic), 1.0);
        assert_eq!(phi(&a, &b, &w, UnknownPolicy::KnownOnly), 1.0);
    }

    #[test]
    fn get_checked_rejects_out_of_range_pairs() {
        let a = v(0, &[s(0), s(1)]);
        let b = v(1, &[s(0), s(0)]);
        let series =
            VectorSeries::from_vectors(SiteTable::from_names(["A", "B"]), 2, vec![a, b]).unwrap();
        let m =
            SimilarityMatrix::compute(&series, &Weights::uniform(2), UnknownPolicy::Pessimistic)
                .unwrap();
        assert_eq!(
            m.get_checked(0, 1).unwrap().to_bits(),
            m.get(0, 1).to_bits()
        );
        assert!(matches!(
            m.get_checked(0, 2),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(m.get_checked(5, 0).is_err());
    }

    #[test]
    fn fully_disjoint_vectors_have_phi_zero() {
        let a = v(0, &[s(0), s(0)]);
        let b = v(1, &[s(1), s(1)]);
        let w = Weights::uniform(2);
        assert_eq!(phi(&a, &b, &w, UnknownPolicy::Pessimistic), 0.0);
    }

    #[test]
    fn pessimistic_counts_unknown_as_changed() {
        // Both unknown at slot 1 — still a non-match under the paper rule.
        let a = v(0, &[s(0), Catchment::Unknown]);
        let b = v(1, &[s(0), Catchment::Unknown]);
        let w = Weights::uniform(2);
        assert_eq!(phi(&a, &b, &w, UnknownPolicy::Pessimistic), 0.5);
    }

    #[test]
    fn known_only_drops_unknowns_from_denominator() {
        let a = v(0, &[s(0), Catchment::Unknown, s(1)]);
        let b = v(1, &[s(0), s(2), Catchment::Unknown]);
        let w = Weights::uniform(3);
        // Only slot 0 is known on both sides, and it matches.
        assert_eq!(phi(&a, &b, &w, UnknownPolicy::KnownOnly), 1.0);
    }

    #[test]
    fn known_only_with_nothing_known_is_zero() {
        let a = v(0, &[Catchment::Unknown]);
        let b = v(1, &[Catchment::Unknown]);
        let w = Weights::uniform(1);
        assert_eq!(phi(&a, &b, &w, UnknownPolicy::KnownOnly), 0.0);
    }

    #[test]
    fn verfploeter_ceiling_effect() {
        // Paper: with ~half the networks unknown, a stable catchment shows
        // Φ between 0.5 and 0.6 under the pessimistic policy.
        let n = 1000;
        let cs: Vec<Catchment> = (0..n)
            .map(|i| if i % 2 == 0 { s(0) } else { Catchment::Unknown })
            .collect();
        let a = RoutingVector::from_catchments(ts(0), cs.clone());
        let b = RoutingVector::from_catchments(ts(1), cs);
        let w = Weights::uniform(n);
        let p = phi(&a, &b, &w, UnknownPolicy::Pessimistic);
        assert!((p - 0.5).abs() < 1e-12);
        // Known-only lifts the ceiling back to 1.0.
        assert_eq!(phi(&a, &b, &w, UnknownPolicy::KnownOnly), 1.0);
    }

    #[test]
    fn weights_shift_phi() {
        let a = v(0, &[s(0), s(1)]);
        let b = v(1, &[s(0), s(2)]);
        // Slot 0 matches; weight it 3x as heavy as slot 1.
        let w = Weights::from_values(vec![3.0, 1.0]).unwrap();
        assert!((phi(&a, &b, &w, UnknownPolicy::Pessimistic) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn phi_is_symmetric() {
        let a = v(0, &[s(0), Catchment::Unknown, s(2), Catchment::Err]);
        let b = v(1, &[s(1), s(1), s(2), Catchment::Unknown]);
        let w = Weights::from_values(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        for p in [UnknownPolicy::Pessimistic, UnknownPolicy::KnownOnly] {
            assert_eq!(phi(&a, &b, &w, p), phi(&b, &a, &w, p));
        }
    }

    #[test]
    fn err_and_other_are_matchable_states() {
        // The err state is a real observation; two vectors that both put a
        // network in err agree (the paper's transition matrices treat err as
        // a state).
        let a = v(0, &[Catchment::Err, Catchment::Other]);
        let b = v(1, &[Catchment::Err, Catchment::Other]);
        let w = Weights::uniform(2);
        assert_eq!(phi(&a, &b, &w, UnknownPolicy::Pessimistic), 1.0);
    }

    #[test]
    fn checked_rejects_mismatched_shapes() {
        let a = v(0, &[s(0)]);
        let b = v(1, &[s(0), s(1)]);
        let w = Weights::uniform(1);
        assert!(phi_checked(&a, &b, &w, UnknownPolicy::Pessimistic).is_err());
        let b1 = v(1, &[s(0)]);
        let w2 = Weights::uniform(2);
        assert!(phi_checked(&a, &b1, &w2, UnknownPolicy::Pessimistic).is_err());
        assert!(phi_checked(&a, &b1, &w, UnknownPolicy::Pessimistic).is_ok());
    }

    #[test]
    fn distance_is_one_minus_phi() {
        let sites = SiteTable::from_names(["A", "B", "C"]);
        let series =
            VectorSeries::from_vectors(sites, 2, vec![v(0, &[s(0), s(1)]), v(1, &[s(0), s(2)])])
                .unwrap();
        let w = Weights::uniform(2);
        let m = SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).unwrap();
        assert_eq!(m.distance(0, 0), 0.0);
        assert!((m.distance(0, 1) - 0.5).abs() < 1e-12);
        assert_eq!(m.distance(1, 0), m.distance(0, 1));
    }

    fn small_series() -> (VectorSeries, Weights) {
        let sites = SiteTable::from_names(["A", "B", "C"]);
        let vs = vec![
            v(0, &[s(0), s(0), s(1), s(2)]),
            v(1, &[s(0), s(0), s(1), s(2)]),
            v(2, &[s(1), s(1), s(1), s(2)]),
            v(3, &[s(1), s(1), s(2), s(2)]),
        ];
        let series = VectorSeries::from_vectors(sites, 4, vs).unwrap();
        let w = Weights::uniform(4);
        (series, w)
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let (series, w) = small_series();
        let m = SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).unwrap();
        for i in 0..4 {
            assert_eq!(m.get(i, i), 1.0);
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        assert_eq!(m.get(0, 1), 1.0);
        assert!((m.get(0, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (series, w) = small_series();
        let a = SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).unwrap();
        for threads in [1, 2, 3, 8] {
            let b = SimilarityMatrix::compute_parallel(
                &series,
                &w,
                UnknownPolicy::Pessimistic,
                threads,
            )
            .unwrap();
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn extend_matches_full_recompute() {
        let (series, w) = small_series();
        // Compute over the 2-observation prefix, then extend to 4.
        let prefix = series.slice_time(series.get(0).time(), series.get(1).time());
        for policy in [UnknownPolicy::Pessimistic, UnknownPolicy::KnownOnly] {
            let mut m = SimilarityMatrix::compute(&prefix, &w, policy).unwrap();
            m.extend(&series, &w, policy).unwrap();
            let full = SimilarityMatrix::compute(&series, &w, policy).unwrap();
            assert_eq!(m, full, "{policy:?}");
        }
    }

    #[test]
    fn extend_is_a_noop_for_same_length() {
        let (series, w) = small_series();
        let mut m = SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).unwrap();
        let before = m.clone();
        m.extend(&series, &w, UnknownPolicy::Pessimistic).unwrap();
        assert_eq!(m, before);
    }

    #[test]
    fn extend_rejects_changed_prefix() {
        let (series, w) = small_series();
        let prefix = series.slice_time(series.get(0).time(), series.get(1).time());
        let mut m = SimilarityMatrix::compute(&prefix, &w, UnknownPolicy::Pessimistic).unwrap();
        // Mutate the prefix region before extending.
        let mut altered = series.clone();
        for c in altered.get_mut(1).codes_mut() {
            *c = 2;
        }
        match m.extend(&altered, &w, UnknownPolicy::Pessimistic) {
            Err(Error::InvalidParameter { name, message }) => {
                assert_eq!(name, "series");
                assert_eq!(
                    message,
                    "prefix changed since the matrix was computed: Φ(0, 1) is 0.25, \
                     matrix has 1"
                );
            }
            other => panic!("changed prefix must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn extend_rejects_shrunken_series() {
        let (series, w) = small_series();
        let mut m = SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).unwrap();
        let prefix = series.slice_time(series.get(0).time(), series.get(1).time());
        assert!(m.extend(&prefix, &w, UnknownPolicy::Pessimistic).is_err());
    }

    #[test]
    fn matrix_rejects_empty_series() {
        let sites = SiteTable::from_names(["A"]);
        let series = VectorSeries::new(sites, 1);
        let w = Weights::uniform(1);
        assert!(matches!(
            SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic),
            Err(Error::EmptyInput(_))
        ));
    }

    #[test]
    fn matrix_rejects_weight_mismatch() {
        let (series, _) = small_series();
        let w = Weights::uniform(3);
        assert!(SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).is_err());
    }

    #[test]
    fn from_condensed_round_trips_raw() {
        let (series, w) = small_series();
        let m = SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).unwrap();
        let back = SimilarityMatrix::from_condensed(m.len(), m.raw().to_vec()).unwrap();
        assert_eq!(m, back);
        // Condensed rows concatenate back into the raw buffer.
        let rebuilt: Vec<f64> = (0..m.len())
            .flat_map(|i| m.condensed_row(i).to_vec())
            .collect();
        assert_eq!(rebuilt, m.raw());
    }

    #[test]
    fn from_condensed_rejects_bad_cells() {
        assert!(SimilarityMatrix::from_condensed(2, vec![1.0; 2]).is_err());
        assert!(SimilarityMatrix::from_condensed(2, vec![1.0, f64::NAN, 1.0]).is_err());
        assert!(SimilarityMatrix::from_condensed(2, vec![1.0, 1.5, 1.0]).is_err());
        assert!(SimilarityMatrix::from_condensed(2, vec![1.0, 0.5, 1.0]).is_ok());
    }

    /// An empty matrix, built as `from_raw(0, [])` builds it, extends to
    /// the whole series; `compute` is that extend, so the threaded
    /// per-cell loop of `compute_parallel` is the independent check.
    #[test]
    fn extend_from_empty_equals_compute_bit_for_bit() {
        let (series, _) = small_series();
        let bits =
            |m: &SimilarityMatrix| -> Vec<u64> { m.raw().iter().map(|v| v.to_bits()).collect() };
        let weights = [
            Weights::uniform(4),
            Weights::from_values(vec![0.5, 3.0, 1.25, 7.0]).unwrap(),
        ];
        for w in &weights {
            for policy in [UnknownPolicy::Pessimistic, UnknownPolicy::KnownOnly] {
                let mut m = SimilarityMatrix::from_raw(0, Vec::new()).unwrap();
                m.extend(&series, w, policy).unwrap();
                let full = SimilarityMatrix::compute(&series, w, policy).unwrap();
                let threaded = SimilarityMatrix::compute_parallel(&series, w, policy, 2).unwrap();
                assert_eq!(m.len(), 4);
                assert_eq!(bits(&m), bits(&full), "{policy:?}");
                assert_eq!(bits(&m), bits(&threaded), "{policy:?}");
            }
        }
    }

    #[test]
    fn from_raw_validates_size() {
        assert!(SimilarityMatrix::from_raw(2, vec![0.0; 3]).is_err());
        assert!(SimilarityMatrix::from_raw(2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_raw_rejects_asymmetry() {
        let m = SimilarityMatrix::from_raw(2, vec![1.0, 0.3, 0.4, 1.0]);
        assert!(matches!(m, Err(Error::InvalidParameter { .. })));
    }

    #[test]
    fn from_raw_round_trips_through_get() {
        let dense = vec![1.0, 0.25, 0.25, 1.0];
        let m = SimilarityMatrix::from_raw(2, dense).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.25);
        assert_eq!(m.get(1, 0), 0.25);
    }

    #[test]
    fn ranges() {
        let (series, w) = small_series();
        let m = SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).unwrap();
        let (lo, hi) = m.intra_range(&[0, 1]).unwrap();
        assert_eq!((lo, hi), (1.0, 1.0));
        assert!(m.intra_range(&[0]).is_none());
        let (lo, hi) = m.inter_range(&[0, 1], &[2, 3]).unwrap();
        assert!(lo <= hi);
        assert!(hi <= 1.0 && lo >= 0.0);
        assert!(m.inter_mean(&[0], &[]).is_none());
        assert!((m.inter_mean(&[0, 1], &[0, 1]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn row_slices() {
        let (series, w) = small_series();
        let m = SimilarityMatrix::compute(&series, &w, UnknownPolicy::Pessimistic).unwrap();
        assert_eq!(m.row(0).len(), 4);
        assert_eq!(m.row(0)[1], m.get(0, 1));
        assert_eq!(m.row(2), (0..4).map(|j| m.get(2, j)).collect::<Vec<_>>());
        // Condensed storage: lower triangle with diagonal, not n².
        assert_eq!(m.raw().len(), 10);
    }

    /// The paper's Φ (§2.6.1) as written: `Σ_n M(t,t′,n)·D_w(n)` over the
    /// summed weights of the networks in the denominator (all of them, or
    /// under [`UnknownPolicy::KnownOnly`] those known on both sides), each
    /// a sequential f64 sum in network order.
    fn naive_phi(a: &[u16], b: &[u16], w: &[f64], policy: UnknownPolicy) -> f64 {
        let (mut num, mut den) = (0.0, 0.0);
        for ((&d, &d_prime), &d_w) in a.iter().zip(b).zip(w) {
            let m = if d == d_prime && d != CODE_UNKNOWN {
                1.0
            } else {
                0.0
            };
            num += m * d_w;
            if policy == UnknownPolicy::Pessimistic
                || (d != CODE_UNKNOWN && d_prime != CODE_UNKNOWN)
            {
                den += d_w;
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Φ of every pair of `series` under `w`, through [`phi`] and every way
    /// of building a matrix, must have the bits of [`naive_phi`].
    fn assert_matches_oracle(series: &VectorSeries, w: &Weights, what: &str) {
        let t = series.len();
        let prefix = series.slice_time(series.get(0).time(), series.get(0).time());
        for policy in [UnknownPolicy::Pessimistic, UnknownPolicy::KnownOnly] {
            let oracle = |i: usize, j: usize| {
                let (a, b) = (series.get(i).codes(), series.get(j).codes());
                naive_phi(a, b, w.values(), policy).to_bits()
            };
            let mut extended = SimilarityMatrix::compute(&prefix, w, policy).unwrap();
            extended.extend(series, w, policy).unwrap();
            let mut matrices = vec![
                (
                    "compute".to_string(),
                    SimilarityMatrix::compute(series, w, policy).unwrap(),
                ),
                ("extend".to_string(), extended),
            ];
            for threads in 1..=3 {
                let m = SimilarityMatrix::compute_parallel(series, w, policy, threads).unwrap();
                matrices.push((format!("compute_parallel({threads})"), m));
            }
            for i in 0..t {
                for j in 0..t {
                    let want = oracle(i, j);
                    let got = phi(series.get(i), series.get(j), w, policy).to_bits();
                    assert_eq!(got, want, "phi ({i}, {j}) {what} {policy:?}");
                    if j > i {
                        continue;
                    }
                    for (path, m) in &matrices {
                        let got = m.get(i, j).to_bits();
                        assert_eq!(got, want, "{path} ({i}, {j}) {what} {policy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_phi_path_matches_the_naive_oracle_bit_for_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // 70 000 networks span two of the unit kernel's counting chunks.
        for n in (0..=70).chain([1000, 70_000]) {
            for unknown_pct in [0, 50, 100] {
                let draw = |next: &mut dyn FnMut() -> u64| {
                    let r = next();
                    if r % 100 < unknown_pct {
                        CODE_UNKNOWN
                    } else {
                        ((r >> 32) % 4) as u16
                    }
                };
                // Three observations: the first drawn at random, each later
                // one redrawing about a quarter of its predecessor's codes,
                // so pairs range from near-identical to unrelated.
                let mut codes: Vec<u16> = (0..n).map(|_| draw(&mut next)).collect();
                let mut vectors = Vec::new();
                for t in 0..3 {
                    vectors.push(RoutingVector::from_codes(ts(t), codes.clone()));
                    for c in &mut codes {
                        if next() % 4 == 0 {
                            *c = draw(&mut next);
                        }
                    }
                }
                let sites = SiteTable::from_names(["A", "B", "C", "D"]);
                let series = VectorSeries::from_vectors(sites, n, vectors).unwrap();

                let mask: Vec<f64> = (0..n).map(|_| (next() % 2) as f64).collect();
                let random: Vec<f64> = (0..n)
                    .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0)
                    .collect();
                // Without a positive weight (n = 0, an all-zero mask) only
                // the uniform kinds construct.
                let weights = [
                    ("uniform", Ok(Weights::uniform(n))),
                    ("from_values(ones)", Weights::from_values(vec![1.0; n])),
                    ("scaled(1.0)", Weights::uniform(n).scaled(1.0)),
                    ("scaled(0.5)", Weights::uniform(n).scaled(0.5)),
                    ("0/1 mask", Weights::from_values(mask)),
                    ("random", Weights::from_values(random)),
                ];
                for (kind, w) in &weights {
                    if let Ok(w) = w {
                        let what = format!("n={n} unknown={unknown_pct}% {kind}");
                        assert_matches_oracle(&series, w, &what);
                    }
                }
            }
        }
    }
}
