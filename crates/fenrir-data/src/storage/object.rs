//! An in-process object store with S3-like semantics and injected
//! faults.
//!
//! [`ObjectSim`] behaves like a small S3 bucket: atomic per-key puts,
//! idempotent deletes — plus the failure
//! modes real object tiers exhibit and local files do not:
//!
//! * **Throttling.** A fraction of puts fail with a retryable
//!   `SlowDown`-style error, the way S3 sheds write bursts.
//! * **Transient failures.** Any operation can fail retryably (a 500,
//!   a connection reset).
//! * **Latency.** Every operation can carry an injected delay, so
//!   benches can measure cold-path hydration under realistic RTTs.
//! * **Bounded eventual visibility.** A put may stay invisible to
//!   `get` for up to [`ObjectChaos::visibility_lag`] subsequent
//!   operations, during which readers see the *previous* object (or
//!   nothing, for a fresh key). The window is bounded, never infinite —
//!   the property tiered recovery is written against.
//!
//! Every fault is drawn from a ChaCha8 stream keyed by the chaos seed
//! and the operation ordinal — the same discipline as the measurement
//! layer's `FaultPlan` and the serving layer's `chaos::FaultyListener` —
//! so fault placement depends only on the seed and the order operations
//! arrive, and a failing test replays exactly.

use super::{storage_err, validate_key, CasOutcome, Storage};
use fenrir_core::error::{Error, Result};
use fenrir_netsim::rng::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Fault plan for an [`ObjectSim`]; all rates default to zero, so
/// [`ObjectChaos::none`] is a perfectly-behaved, instantly-consistent
/// store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectChaos {
    /// Seed for every fault draw.
    pub seed: u64,
    /// Probability a put is rejected with a retryable `SlowDown`.
    pub throttle_prob: f64,
    /// Probability any operation fails with a retryable transient error.
    pub fail_prob: f64,
    /// Injected latency per operation.
    pub latency: Duration,
    /// How many subsequent operations a put may stay invisible for.
    pub visibility_lag: u64,
}

impl ObjectChaos {
    /// No faults, no latency, immediate visibility.
    pub fn none(seed: u64) -> Self {
        ObjectChaos {
            seed,
            throttle_prob: 0.0,
            fail_prob: 0.0,
            latency: Duration::ZERO,
            visibility_lag: 0,
        }
    }

    /// Throttle this fraction of puts.
    pub fn throttle(mut self, prob: f64) -> Self {
        self.throttle_prob = prob;
        self
    }

    /// Fail this fraction of operations transiently.
    pub fn fail(mut self, prob: f64) -> Self {
        self.fail_prob = prob;
        self
    }

    /// Delay every operation by `latency`.
    pub fn latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Keep each put invisible for up to `ops` subsequent operations.
    pub fn visibility(mut self, ops: u64) -> Self {
        self.visibility_lag = ops;
        self
    }

    /// Reject probabilities outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("throttle_prob", self.throttle_prob),
            ("fail_prob", self.fail_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(Error::Config {
                    name,
                    message: format!("probability {p} outside [0, 1]"),
                });
            }
        }
        Ok(())
    }

    /// The fault rng for the `n`-th operation: derived from the seed
    /// and the op ordinal only (splitmix-style stride keeps per-op
    /// streams disjoint).
    fn op_rng(&self, n: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// One stored object: the current bytes plus, while the latest put is
/// still propagating, the previously-visible bytes readers get instead.
#[derive(Debug, Clone)]
struct StoredObject {
    current: Vec<u8>,
    prior: Option<Vec<u8>>,
    visible_at: u64,
}

#[derive(Debug)]
struct SimState {
    chaos: ObjectChaos,
    offline: bool,
    ops: u64,
    objects: BTreeMap<String, StoredObject>,
}

/// The in-process S3-like store; see the module docs.
#[derive(Debug)]
pub struct ObjectSim {
    state: Mutex<SimState>,
}

impl ObjectSim {
    /// An empty store under the given fault plan.
    pub fn new(chaos: ObjectChaos) -> Result<Self> {
        chaos.validate()?;
        Ok(ObjectSim {
            state: Mutex::new(SimState {
                chaos,
                offline: false,
                ops: 0,
                objects: BTreeMap::new(),
            }),
        })
    }

    /// Take the whole tier offline (`true`): every operation fails with
    /// a retryable "unreachable" error until switched back.
    pub fn set_offline(&self, offline: bool) {
        self.state.lock().unwrap().offline = offline;
    }

    /// Swap the fault plan (e.g. quiesce chaos before verifying state).
    pub fn set_chaos(&self, chaos: ObjectChaos) -> Result<()> {
        chaos.validate()?;
        self.state.lock().unwrap().chaos = chaos;
        Ok(())
    }

    /// Operations attempted so far (failed ones included).
    pub fn op_count(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Draw this operation's faults; returns the op ordinal on success.
    fn admit(&self, op: &'static str, key: &str, is_put: bool) -> Result<u64> {
        let (ordinal, chaos, offline) = {
            let mut s = self.state.lock().unwrap();
            let ordinal = s.ops;
            s.ops += 1;
            (ordinal, s.chaos, s.offline)
        };
        if !chaos.latency.is_zero() {
            std::thread::sleep(chaos.latency);
        }
        if offline {
            return Err(storage_err(
                op,
                key,
                true,
                "object tier unreachable (offline)",
            ));
        }
        let mut rng = chaos.op_rng(ordinal);
        if rng.gen::<f64>() < chaos.fail_prob {
            return Err(storage_err(
                op,
                key,
                true,
                "transient backend failure (injected)",
            ));
        }
        if is_put && rng.gen::<f64>() < chaos.throttle_prob {
            return Err(storage_err(
                op,
                key,
                true,
                "SlowDown: request rate exceeded (injected throttle)",
            ));
        }
        Ok(ordinal)
    }
}

impl Storage for ObjectSim {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        validate_key("put", key)?;
        let ordinal = self.admit("put", key, true)?;
        let mut s = self.state.lock().unwrap();
        let visible_at = ordinal + s.chaos.visibility_lag;
        let prior = s.objects.get(key).map(|o| {
            if ordinal >= o.visible_at {
                Some(o.current.clone())
            } else {
                o.prior.clone()
            }
        });
        s.objects.insert(
            key.to_owned(),
            StoredObject {
                current: bytes.to_vec(),
                prior: prior.flatten(),
                visible_at,
            },
        );
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        validate_key("get", key)?;
        let ordinal = self.admit("get", key, false)?;
        let s = self.state.lock().unwrap();
        Ok(s.objects.get(key).and_then(|o| {
            if ordinal >= o.visible_at {
                Some(o.current.clone())
            } else {
                o.prior.clone()
            }
        }))
    }

    fn delete(&self, key: &str) -> Result<()> {
        validate_key("delete", key)?;
        self.admit("delete", key, false)?;
        // Deletes are modelled strongly consistent: the recovery
        // protocol only deletes orphans nothing references.
        self.state.lock().unwrap().objects.remove(key);
        Ok(())
    }

    fn put_if(&self, key: &str, expected: Option<&[u8]>, bytes: &[u8]) -> Result<CasOutcome> {
        validate_key("put_if", key)?;
        let ordinal = self.admit("put_if", key, true)?;
        let mut s = self.state.lock().unwrap();
        // Conditional writes are strongly consistent both ways: the
        // compare sees the true current object (never a propagating
        // prior), and a committed object is immediately visible.
        let actual = s.objects.get(key).map(|o| o.current.clone());
        if actual.as_deref() != expected {
            return Ok(CasOutcome::Conflict { actual });
        }
        s.objects.insert(
            key.to_owned(),
            StoredObject {
                current: bytes.to_vec(),
                prior: None,
                visible_at: ordinal,
            },
        );
        Ok(CasOutcome::Committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_bucket_without_chaos() {
        let sim = ObjectSim::new(ObjectChaos::none(1)).unwrap();
        sim.put("a/1", b"x").unwrap();
        sim.put("a/2", b"y").unwrap();
        sim.put("b/1", b"z").unwrap();
        assert_eq!(sim.get("a/1").unwrap().unwrap(), b"x");
        assert_eq!(sim.get("nope").unwrap(), None);
        sim.delete("a/1").unwrap();
        sim.delete("a/1").unwrap();
        assert_eq!(sim.get("a/1").unwrap(), None);
        assert_eq!(sim.get("a/2").unwrap().unwrap(), b"y");
    }

    #[test]
    fn visibility_lag_is_bounded_and_serves_the_prior_version() {
        let sim = ObjectSim::new(ObjectChaos::none(2).visibility(3)).unwrap();
        sim.put("k", b"old").unwrap();
        // Burn ops until "old" is surely visible.
        for _ in 0..4 {
            let _ = sim.get("k");
        }
        assert_eq!(sim.get("k").unwrap().unwrap(), b"old");
        sim.put("k", b"new").unwrap();
        // Within the lag window, readers get the prior version.
        assert_eq!(sim.get("k").unwrap().unwrap(), b"old");
        // The window is bounded: after `lag` further ops, "new" shows.
        for _ in 0..3 {
            let _ = sim.get("k");
        }
        assert_eq!(sim.get("k").unwrap().unwrap(), b"new");
        // A fresh key is invisible (None) during its window.
        sim.put("fresh", b"f").unwrap();
        assert_eq!(sim.get("fresh").unwrap(), None);
        for _ in 0..3 {
            let _ = sim.get("fresh");
        }
        assert_eq!(sim.get("fresh").unwrap().unwrap(), b"f");
    }

    #[test]
    fn faults_are_deterministic_per_op_ordinal() {
        let run = || {
            let sim = ObjectSim::new(ObjectChaos::none(7).throttle(0.5).fail(0.2)).unwrap();
            (0..32)
                .map(|i| sim.put(&format!("k{i}"), b"v").is_ok())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !ok));
    }

    #[test]
    fn put_if_is_strongly_consistent_under_visibility_lag() {
        let sim = ObjectSim::new(ObjectChaos::none(11).visibility(5)).unwrap();
        assert_eq!(
            sim.put_if("k", None, b"one").unwrap(),
            CasOutcome::Committed
        );
        // Plain get sees the committed object immediately — no window.
        assert_eq!(sim.get("k").unwrap().unwrap(), b"one");
        // A lagging plain put does not fool the compare: put_if reads
        // the true current bytes, not the still-visible prior.
        sim.put("k", b"two").unwrap();
        assert_eq!(
            sim.put_if("k", Some(b"one"), b"three").unwrap(),
            CasOutcome::Conflict {
                actual: Some(b"two".to_vec())
            }
        );
        assert_eq!(
            sim.put_if("k", Some(b"two"), b"three").unwrap(),
            CasOutcome::Committed
        );
        assert_eq!(sim.get("k").unwrap().unwrap(), b"three");
        assert_eq!(
            sim.put_if("ghost", Some(b"x"), b"y").unwrap(),
            CasOutcome::Conflict { actual: None }
        );
    }

    #[test]
    fn offline_tier_fails_every_op_retryably() {
        let sim = ObjectSim::new(ObjectChaos::none(3)).unwrap();
        sim.put("k", b"v").unwrap();
        sim.set_offline(true);
        for result in [
            sim.put("k", b"w").err(),
            sim.get("k").err(),
            sim.delete("k").err(),
            sim.put_if("k", None, b"w").err(),
        ] {
            assert!(matches!(
                result,
                Some(Error::Storage {
                    retryable: true,
                    ..
                })
            ));
        }
        sim.set_offline(false);
        assert_eq!(sim.get("k").unwrap().unwrap(), b"v");
    }
}
