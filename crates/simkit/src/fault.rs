//! Deterministic fault injection for the simulated DMSs.
//!
//! A [`FaultPlan`] is a seeded, scriptable schedule of injected store
//! failures and latency spikes: each rule names a store (by the mediator's
//! system name — `"relational"`, `"key-value"`, `"document"`, `"text"`,
//! `"parallel"`), optionally one operation kind (`"mget"`, `"query"`, …),
//! an inclusive 1-based window over that counter, a probability, and the
//! injection ([`Injection::Error`] or [`Injection::Latency`]).
//!
//! The plan is **fully reproducible**: probabilistic rules decide by
//! hashing `(seed, rule, store, op, op-index)` — not by a shared RNG
//! stream — so the decision for the *n*-th operation of a store is a pure
//! function of the plan, independent of interleaving with other stores.
//! Scripted windows ("fail the 3rd–5th kv MGETs", "relational down for 10
//! operations, then recovered") use probability 1.0 and are exactly
//! reproducible by construction.
//!
//! A [`FaultHook`] is one store's cursor over the shared plan. The stores
//! themselves know nothing about it: the mediator keeps one hook per store
//! and consults it at a single gate on the delegated-request path, **before**
//! the simulated request runs. An injected error aborts the operation
//! without any partial result (a `PartialResponse` fault models a store that
//! *detected* a truncated response and reported it — the caller never sees a
//! silently short row set), and a latency injection spin-waits like the
//! regular [`crate::LatencyModel`] charge. Admin paths (materialization,
//! DML maintenance, dumps, statistics) call the stores directly and never
//! pass the gate, which is what keeps them fault-free by construction.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreErrorKind {
    /// The store (or the network path to it) is down.
    Unavailable,
    /// The operation did not complete within the store's time budget.
    Timeout,
    /// The store detected an incomplete/truncated response and aborted
    /// rather than returning a short result.
    PartialResponse,
    /// The mediator's circuit breaker rejected the call without issuing
    /// it (fail-fast while the backend's circuit is open).
    CircuitOpen,
    /// A native store-side failure (bad query, unknown table, …).
    Internal(String),
}

impl StoreErrorKind {
    /// Short display tag.
    pub fn tag(&self) -> &str {
        match self {
            StoreErrorKind::Unavailable => "unavailable",
            StoreErrorKind::Timeout => "timeout",
            StoreErrorKind::PartialResponse => "partial-response",
            StoreErrorKind::CircuitOpen => "circuit-open",
            StoreErrorKind::Internal(_) => "internal",
        }
    }
}

/// A failed store operation: which store, which operation, the operation's
/// 1-based sequence number on that store, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// Store system name (`"relational"`, `"key-value"`, …).
    pub store: String,
    /// Operation kind (`"query"`, `"get"`, `"mget"`, `"scan"`, …).
    pub op: String,
    /// 1-based index of the operation on this store (0 when synthesized
    /// outside a store, e.g. by the circuit breaker).
    pub op_index: u64,
    /// Failure cause.
    pub kind: StoreErrorKind,
}

impl StoreError {
    /// A native (non-injected) store failure.
    pub fn internal(store: &str, op: &str, message: impl Into<String>) -> StoreError {
        StoreError {
            store: store.to_string(),
            op: op.to_string(),
            op_index: 0,
            kind: StoreErrorKind::Internal(message.into()),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            StoreErrorKind::Internal(m) => {
                write!(f, "{} store {} failed: {m}", self.store, self.op)
            }
            k => write!(
                f,
                "{} store {} #{} failed: {}",
                self.store,
                self.op,
                self.op_index,
                k.tag()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// The kinds of fault a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Store unreachable.
    Unavailable,
    /// Operation times out.
    Timeout,
    /// Truncated response detected by the store.
    PartialResponse,
}

impl FaultKind {
    /// The error kind this fault surfaces as.
    pub fn to_error_kind(self) -> StoreErrorKind {
        match self {
            FaultKind::Unavailable => StoreErrorKind::Unavailable,
            FaultKind::Timeout => StoreErrorKind::Timeout,
            FaultKind::PartialResponse => StoreErrorKind::PartialResponse,
        }
    }
}

/// What a matching rule injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// Fail the operation with the given fault.
    Error(FaultKind),
    /// Let the operation proceed after an extra latency spike.
    Latency(Duration),
}

/// One schedule entry of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Store system name this rule applies to (`None` = every store).
    pub store: Option<String>,
    /// Operation kind this rule applies to (`None` = every operation).
    /// When set, the rule's window counts only operations of this kind.
    pub op: Option<String>,
    /// Inclusive 1-based start of the window over the matching counter.
    pub from: u64,
    /// Inclusive end of the window (`u64::MAX` = forever).
    pub to: u64,
    /// Probability of injecting within the window (1.0 = deterministic).
    pub probability: f64,
    /// What to inject.
    pub inject: Injection,
}

/// A seeded, scriptable, reproducible schedule of store faults.
///
/// Rules are evaluated in insertion order; the first matching
/// [`Injection::Error`] fails the operation, while every matching
/// [`Injection::Latency`] before it is charged.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Hash seed of probabilistic rules.
    pub seed: u64,
    /// The schedule.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    fn rule(
        mut self,
        store: &str,
        op: Option<&str>,
        (from, to): (u64, u64),
        probability: f64,
        inject: Injection,
    ) -> Self {
        self.rules.push(FaultRule {
            store: Some(store.to_string()),
            op: op.map(str::to_string),
            from,
            to,
            probability,
            inject,
        });
        self
    }

    /// Script: fail operations `from..=to` (1-based, counted per `op` kind)
    /// of `store` with `kind` — "fail the 3rd–5th kv MGETs".
    pub fn fail_ops(self, store: &str, op: &str, from: u64, to: u64, kind: FaultKind) -> Self {
        self.rule(store, Some(op), (from, to), 1.0, Injection::Error(kind))
    }

    /// Script: `store` is down for `ops` consecutive operations starting at
    /// the `from`-th (any kind), then recovers — "relational down for 10
    /// ops, then recovers".
    pub fn outage(self, store: &str, from: u64, ops: u64, kind: FaultKind) -> Self {
        let to = from.saturating_add(ops.saturating_sub(1));
        self.rule(store, None, (from, to), 1.0, Injection::Error(kind))
    }

    /// Script: `store` is down from its `from`-th operation onwards.
    pub fn down_from(self, store: &str, from: u64, kind: FaultKind) -> Self {
        self.rule(store, None, (from, u64::MAX), 1.0, Injection::Error(kind))
    }

    /// Script: every operation of `store` fails with `kind`.
    pub fn down(self, store: &str, kind: FaultKind) -> Self {
        self.down_from(store, 1, kind)
    }

    /// Probabilistic: each operation of `store` fails with `probability`
    /// (decided by hashing the seed with the operation index — fully
    /// reproducible, independent of cross-store interleaving).
    pub fn random_errors(self, store: &str, probability: f64, kind: FaultKind) -> Self {
        let inject = Injection::Error(kind);
        self.rule(store, None, (1, u64::MAX), probability, inject)
    }

    /// Script: operations `from..=to` of `store` (counted per `op` kind
    /// when given) pay an extra latency `spike` before proceeding.
    pub fn latency_spike(
        self,
        store: &str,
        op: Option<&str>,
        from: u64,
        to: u64,
        spike: Duration,
    ) -> Self {
        self.rule(store, op, (from, to), 1.0, Injection::Latency(spike))
    }

    /// `true` when the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Deterministic per-operation decision for probabilistic rules.
    fn decide(&self, rule_idx: usize, store: &str, op: &str, idx: u64, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        let mut h = self.seed ^ splitmix64(rule_idx as u64 + 1);
        h ^= splitmix64(hash_str(store));
        h ^= splitmix64(hash_str(op).wrapping_add(idx));
        let h = splitmix64(h);
        // Map the hash onto [0, 1) and compare.
        (h >> 11) as f64 / (1u64 << 53) as f64 > (1.0 - p)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hash_str(s: &str) -> u64 {
    // FNV-1a, stable across runs and platforms.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Busy-wait for `d` (monotonic spin; no-op for a zero duration).
pub fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = std::time::Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// One store's cursor over a shared [`FaultPlan`]: counts the store's
/// operations (globally and per operation kind) and answers "does this
/// operation fault?". Owned by the mediator, one per store, and consulted
/// at its delegated-request gate only.
#[derive(Debug)]
pub struct FaultHook {
    plan: Arc<FaultPlan>,
    store: String,
    /// Indices into `plan.rules` that can match this store, precomputed so
    /// the per-operation check touches nothing else.
    relevant: Vec<usize>,
    /// Whether any relevant rule keys its window on a per-op-kind counter
    /// (only then does `check` pay for the counter map).
    needs_per_op: bool,
    total: AtomicU64,
    injected: AtomicU64,
    spikes: AtomicU64,
    per_op: Mutex<BTreeMap<String, u64>>,
}

impl FaultHook {
    /// A cursor of `store` over `plan`.
    pub fn new(plan: Arc<FaultPlan>, store: &str) -> FaultHook {
        let relevant: Vec<usize> = plan
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.store.as_deref().is_none_or(|s| s == store))
            .map(|(i, _)| i)
            .collect();
        let needs_per_op = relevant.iter().any(|&i| plan.rules[i].op.is_some());
        FaultHook {
            plan,
            store: store.to_string(),
            relevant,
            needs_per_op,
            total: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
            per_op: Mutex::new(BTreeMap::new()),
        }
    }

    /// Operations checked so far.
    pub fn ops(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Latency spikes charged so far.
    pub fn spikes(&self) -> u64 {
        self.spikes.load(Ordering::Relaxed)
    }

    /// Consult the plan for the next `op` operation: charges any matching
    /// latency spikes, and fails with the first matching error rule.
    pub fn check(&self, op: &str) -> Result<(), StoreError> {
        let total = self.total.fetch_add(1, Ordering::Relaxed) + 1;
        if self.relevant.is_empty() {
            return Ok(());
        }
        let op_idx = if self.needs_per_op {
            // A thread that panicked while holding the counts left them
            // consistent (one entry bumped or inserted), so a poisoned lock
            // is taken over rather than failing the gated read path.
            let mut guard = self.per_op.lock().unwrap_or_else(PoisonError::into_inner);
            match guard.get_mut(op) {
                Some(e) => {
                    *e += 1;
                    *e
                }
                None => {
                    guard.insert(op.to_string(), 1);
                    1
                }
            }
        } else {
            0
        };
        for &i in &self.relevant {
            let rule = &self.plan.rules[i];
            let idx = match &rule.op {
                Some(o) => {
                    if o != op {
                        continue;
                    }
                    op_idx
                }
                None => total,
            };
            if idx < rule.from || idx > rule.to {
                continue;
            }
            if !self.plan.decide(i, &self.store, op, idx, rule.probability) {
                continue;
            }
            match rule.inject {
                Injection::Latency(d) => {
                    self.spikes.fetch_add(1, Ordering::Relaxed);
                    spin_for(d);
                }
                Injection::Error(kind) => {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    return Err(StoreError {
                        store: self.store.clone(),
                        op: op.to_string(),
                        op_index: total,
                        kind: kind.to_error_kind(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hook(plan: FaultPlan, store: &str) -> FaultHook {
        FaultHook::new(Arc::new(plan), store)
    }

    #[test]
    fn empty_plan_never_faults() {
        let h = hook(FaultPlan::new(7), "key-value");
        for _ in 0..100 {
            assert!(h.check("get").is_ok());
        }
        assert_eq!(h.ops(), 100);
        assert_eq!(h.injected(), 0);
    }

    #[test]
    fn scripted_window_counts_per_op_kind() {
        // "Fail the 3rd–5th kv MGETs" — interleaved gets don't count.
        let h = hook(
            FaultPlan::new(0).fail_ops("key-value", "mget", 3, 5, FaultKind::Unavailable),
            "key-value",
        );
        let mut failures = Vec::new();
        for i in 0..8 {
            let _ = h.check("get"); // never faults
            if let Err(e) = h.check("mget") {
                failures.push((i + 1, e.kind.clone()));
            }
        }
        assert_eq!(
            failures,
            vec![
                (3, StoreErrorKind::Unavailable),
                (4, StoreErrorKind::Unavailable),
                (5, StoreErrorKind::Unavailable),
            ]
        );
        assert_eq!(h.injected(), 3);
    }

    #[test]
    fn a_poisoned_counter_lock_keeps_counting() {
        let h = hook(
            FaultPlan::new(0).fail_ops("key-value", "mget", 2, 2, FaultKind::Unavailable),
            "key-value",
        );
        assert!(h.check("mget").is_ok());
        // A thread panics while it holds the per-op counts.
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = h.per_op.lock();
                panic!("poison the per-op counts");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(h.per_op.is_poisoned());
        assert!(h.check("mget").is_err(), "the 2nd mget is still the 2nd");
        assert!(h.check("mget").is_ok());
    }

    #[test]
    fn outage_window_then_recovery() {
        let h = hook(
            FaultPlan::new(0).outage("relational", 2, 3, FaultKind::Timeout),
            "relational",
        );
        let outcomes: Vec<bool> = (0..7).map(|_| h.check("query").is_ok()).collect();
        assert_eq!(outcomes, vec![true, false, false, false, true, true, true]);
    }

    #[test]
    fn rules_do_not_cross_stores() {
        let plan = Arc::new(FaultPlan::new(0).down("document", FaultKind::Unavailable));
        let doc = FaultHook::new(plan.clone(), "document");
        let kv = FaultHook::new(plan, "key-value");
        assert!(doc.check("find").is_err());
        assert!(kv.check("get").is_ok());
    }

    #[test]
    fn probabilistic_rules_are_reproducible_and_seed_sensitive() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let h = hook(
                FaultPlan::new(seed).random_errors("text", 0.5, FaultKind::Unavailable),
                "text",
            );
            (0..64).map(|_| h.check("term_lookup").is_ok()).collect()
        };
        let a = outcomes(1);
        assert_eq!(a, outcomes(1), "same seed must replay identically");
        assert_ne!(a, outcomes(2), "different seeds must differ");
        let fails = a.iter().filter(|ok| !**ok).count();
        assert!((10..=54).contains(&fails), "p=0.5 fails ~half: {fails}");
    }

    #[test]
    fn probability_extremes() {
        let always = hook(
            FaultPlan::new(3).random_errors("text", 1.0, FaultKind::Timeout),
            "text",
        );
        let never = hook(
            FaultPlan::new(3).random_errors("text", 0.0, FaultKind::Timeout),
            "text",
        );
        for _ in 0..10 {
            assert!(always.check("search").is_err());
            assert!(never.check("search").is_ok());
        }
    }

    #[test]
    fn latency_spike_delays_but_succeeds() {
        let h = hook(
            FaultPlan::new(0).latency_spike(
                "parallel",
                Some("scan"),
                1,
                1,
                Duration::from_micros(200),
            ),
            "parallel",
        );
        let t = std::time::Instant::now();
        assert!(h.check("scan").is_ok());
        assert!(t.elapsed() >= Duration::from_micros(200));
        assert_eq!(h.spikes(), 1);
        // Second scan is outside the window: no spike is charged (counted,
        // not timed — a descheduled thread can take 200 µs for nothing).
        assert!(h.check("scan").is_ok());
        assert_eq!(h.spikes(), 1);
        assert_eq!(h.injected(), 0);
    }

    #[test]
    fn error_display_names_store_op_and_index() {
        let h = hook(
            FaultPlan::new(0).down("relational", FaultKind::Unavailable),
            "relational",
        );
        let e = h.check("query").unwrap_err();
        let s = format!("{e}");
        assert!(s.contains("relational"), "{s}");
        assert!(s.contains("query"), "{s}");
        assert!(s.contains("unavailable"), "{s}");
        assert_eq!(e.op_index, 1);
    }
}
