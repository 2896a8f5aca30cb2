//! Fault tolerance of the query path: retry with capped exponential
//! backoff, per-backend circuit breakers, and the bookkeeping behind
//! rewriting-based plan failover.
//!
//! # The failover contract
//!
//! Every delegated unit and every BindJoin probe of an executing plan runs
//! through a per-query [`QueryResilience`] context:
//!
//! 1. **Admission.** The per-backend circuit breaker is consulted first.
//!    A backend whose breaker is [`BreakerState::Open`] fails fast with a
//!    synthesized [`StoreErrorKind::CircuitOpen`] error — no simulated
//!    request is issued and no retry budget is spent. After enough
//!    rejections the breaker admits a single half-open probe.
//! 2. **Retry.** A store failure is retried up to
//!    [`RetryPolicy::max_attempts`] times with capped exponential backoff
//!    plus deterministic jitter, bounded by the per-query deadline. A
//!    native error ([`StoreErrorKind::Internal`] — the store answered, and
//!    would answer the same again) is neither retried nor held against the
//!    backend's breaker; it goes straight to step 3.
//! 3. **Failover.** When a unit exhausts its retries the whole plan
//!    attempt fails; the evaluator then re-ranks the *remaining*
//!    equivalent rewritings of the already-computed rewrite outcome —
//!    penalizing backends with open breakers and backends that already
//!    failed in this query — and executes the next candidate. Candidates
//!    fall through until one succeeds; if none does, the query returns
//!    [`crate::Error::AllPlansFailed`] naming every attempted plan.
//!
//! The chain of plan attempts, retry counts, observed store errors and
//! breaker transitions is surfaced in [`crate::Report`] as a
//! [`ResilienceReport`]. On a fault-free run no event fires and the report
//! field stays `None`, keeping the clean path bit-identical to an engine
//! without fault handling.

use crate::system::SystemId;
use estocada_engine::{Batch, BindSource, Fetched, Leaves, Runner, StoreError, StoreErrorKind};
use estocada_pivot::ConstId;
use estocada_simkit::SimClock;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry discipline of one query: how often a failed store call is
/// re-issued and how long to back off between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per store call (first try included). `1` disables
    /// retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Apply deterministic jitter (50%–100% of the computed backoff) so
    /// repeated retries do not synchronize.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every store failure surfaces immediately.
    pub fn fail_fast() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry number `retry` (1-based), capped and
    /// jittered per the policy.
    fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_backoff);
        if !self.jitter {
            return exp;
        }
        // Deterministic jitter in [0.5, 1.0): splitmix-style hash of the
        // retry ordinal, so runs are reproducible.
        let mut h = (retry as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let frac = 0.5 + 0.5 * ((h >> 40) as f64 / (1u64 << 24) as f64);
        exp.mul_f64(frac)
    }
}

/// Circuit-breaker thresholds shared by every backend slot of a
/// [`HealthTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker.
    pub trip_after: u32,
    /// Fail-fast rejections an open breaker issues before admitting one
    /// half-open probe (count-based so behavior is deterministic).
    pub probe_after: u32,
    /// Wall-clock open window: once an open breaker has been open this
    /// long, the next admission is a half-open probe even if no rejection
    /// traffic ever arrived — an idle backend can recover without being
    /// hammered. `None` keeps recovery purely rejection-counted.
    /// Deterministic in tests via [`HealthTracker::with_clock`] and a
    /// manual [`SimClock`].
    pub open_cooldown: Option<Duration>,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            probe_after: 4,
            open_cooldown: None,
        }
    }
}

/// The state of one backend's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every call is admitted.
    Closed,
    /// Tripped: calls fail fast without touching the backend.
    Open,
    /// One probe is in flight; its outcome decides Closed vs Open.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        write!(f, "{s}")
    }
}

/// One breaker state change, recorded for the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The backend whose breaker moved.
    pub system: SystemId,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

impl std::fmt::Display for BreakerTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}→{}", self.system, self.from, self.to)
    }
}

/// Health counters of one backend, as reported by
/// [`HealthTracker::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendHealth {
    /// Current breaker state.
    pub state: BreakerState,
    /// Consecutive failures since the last success.
    pub consecutive_failures: u32,
    /// Total calls the backend answered (a native error is an answer).
    pub successes: u64,
    /// Total calls lost to an outage (fail-fast rejections and native
    /// errors not included).
    pub failures: u64,
    /// Times the breaker tripped Closed→Open.
    pub trips: u64,
}

/// What the breaker decided for one admission request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Execute,
    /// Breaker half-open: proceed, this call is the probe.
    Probe,
    /// Breaker open: fail fast, do not touch the backend.
    FailFast,
}

const STATE_CLOSED: u8 = 0;
const STATE_OPEN: u8 = 1;
const STATE_HALF_OPEN: u8 = 2;

fn decode_state(v: u8) -> BreakerState {
    match v {
        STATE_OPEN => BreakerState::Open,
        STATE_HALF_OPEN => BreakerState::HalfOpen,
        _ => BreakerState::Closed,
    }
}

#[derive(Default)]
struct BackendSlot {
    state: AtomicU8,
    consecutive: AtomicU32,
    rejections: AtomicU32,
    successes: AtomicU64,
    failures: AtomicU64,
    trips: AtomicU64,
    /// Clock reading (nanos) of the last Closed/HalfOpen→Open transition;
    /// drives the [`BreakerConfig::open_cooldown`] window.
    opened_at: AtomicU64,
}

/// Per-backend consecutive-failure circuit breakers, shared by every query
/// of one engine. All counters are relaxed atomics so the `&self` query
/// path stays `Sync`; under concurrent queries the counts are best-effort,
/// which only ever shifts *when* a breaker trips, never correctness.
#[derive(Default)]
pub struct HealthTracker {
    cfg: BreakerConfig,
    slots: [BackendSlot; 5],
    clock: SimClock,
}

/// Map a [`StoreError::store`] name back to the backend it names.
pub fn system_for_store(name: &str) -> Option<SystemId> {
    SystemId::ALL.into_iter().find(|s| s.to_string() == name)
}

impl HealthTracker {
    /// A tracker with the given breaker thresholds, all breakers closed.
    pub fn new(cfg: BreakerConfig) -> HealthTracker {
        Self::with_clock(cfg, SimClock::wall())
    }

    /// A tracker reading open-window elapsed time off `clock` — a manual
    /// [`SimClock`] makes [`BreakerConfig::open_cooldown`] recovery fully
    /// deterministic in tests.
    pub fn with_clock(cfg: BreakerConfig, clock: SimClock) -> HealthTracker {
        HealthTracker {
            cfg,
            slots: Default::default(),
            clock,
        }
    }

    fn slot(&self, sys: SystemId) -> &BackendSlot {
        &self.slots[sys as usize]
    }

    /// Current breaker state of one backend.
    pub fn state(&self, sys: SystemId) -> BreakerState {
        decode_state(self.slot(sys).state.load(Ordering::Relaxed))
    }

    /// `true` when the backend should be avoided by plan choice (breaker
    /// not closed).
    pub fn avoid(&self, sys: SystemId) -> bool {
        self.state(sys) != BreakerState::Closed
    }

    /// Ask to issue one call against `sys`.
    pub fn admit(&self, sys: SystemId) -> Admission {
        let slot = self.slot(sys);
        match decode_state(slot.state.load(Ordering::Relaxed)) {
            BreakerState::Closed => Admission::Execute,
            BreakerState::HalfOpen => Admission::FailFast,
            BreakerState::Open => {
                // Time-based recovery first: an open window that has fully
                // elapsed admits a probe immediately, so a backend that saw
                // no traffic while open (nothing to count rejections
                // against) still gets to recover. Otherwise the call counts
                // as a rejection, and the one past `probe_after` probes.
                let cooled = self.cfg.open_cooldown.is_some_and(|cooldown| {
                    let opened = Duration::from_nanos(slot.opened_at.load(Ordering::Relaxed));
                    self.clock.now().saturating_sub(opened) >= cooldown
                });
                let count_rejection = || slot.rejections.fetch_add(1, Ordering::Relaxed) + 1;
                if !cooled && count_rejection() <= self.cfg.probe_after {
                    return Admission::FailFast;
                }
                slot.rejections.store(0, Ordering::Relaxed);
                slot.state.store(STATE_HALF_OPEN, Ordering::Relaxed);
                Admission::Probe
            }
        }
    }

    /// Record a successful call; returns the breaker transition, if any.
    pub fn on_success(&self, sys: SystemId) -> Option<BreakerTransition> {
        let slot = self.slot(sys);
        slot.successes.fetch_add(1, Ordering::Relaxed);
        slot.consecutive.store(0, Ordering::Relaxed);
        let prev = decode_state(slot.state.swap(STATE_CLOSED, Ordering::Relaxed));
        (prev != BreakerState::Closed).then_some(BreakerTransition {
            system: sys,
            from: prev,
            to: BreakerState::Closed,
        })
    }

    /// Record a failed call; returns the breaker transition, if any.
    pub fn on_failure(&self, sys: SystemId) -> Option<BreakerTransition> {
        let slot = self.slot(sys);
        slot.failures.fetch_add(1, Ordering::Relaxed);
        let consec = slot.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        let from = decode_state(slot.state.load(Ordering::Relaxed));
        let trip = from == BreakerState::Closed && consec >= self.cfg.trip_after;
        if !trip && from != BreakerState::HalfOpen {
            return None;
        }
        // A trip, or a failed probe: open, with a fresh open window.
        slot.rejections.store(0, Ordering::Relaxed);
        let now = self.clock.now().as_nanos() as u64;
        slot.opened_at.store(now, Ordering::Relaxed);
        slot.state.store(STATE_OPEN, Ordering::Relaxed);
        slot.trips.fetch_add(u64::from(trip), Ordering::Relaxed);
        Some(BreakerTransition {
            system: sys,
            from,
            to: BreakerState::Open,
        })
    }

    /// Health counters of every backend, one entry per backend.
    pub fn snapshot(&self) -> [(SystemId, BackendHealth); 5] {
        SystemId::ALL.map(|sys| {
            let s = self.slot(sys);
            (
                sys,
                BackendHealth {
                    state: decode_state(s.state.load(Ordering::Relaxed)),
                    consecutive_failures: s.consecutive.load(Ordering::Relaxed),
                    successes: s.successes.load(Ordering::Relaxed),
                    failures: s.failures.load(Ordering::Relaxed),
                    trips: s.trips.load(Ordering::Relaxed),
                },
            )
        })
    }

    /// Close every breaker and zero every counter.
    pub fn reset(&self) {
        for s in &self.slots {
            s.state.store(STATE_CLOSED, Ordering::Relaxed);
            s.consecutive.store(0, Ordering::Relaxed);
            s.rejections.store(0, Ordering::Relaxed);
            s.successes.store(0, Ordering::Relaxed);
            s.failures.store(0, Ordering::Relaxed);
            s.trips.store(0, Ordering::Relaxed);
            s.opened_at.store(0, Ordering::Relaxed);
        }
    }
}

/// One plan attempt of a query's failover chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanAttempt {
    /// Index into [`crate::Report::alternatives`].
    pub alternative: usize,
    /// The rewriting as text.
    pub rewriting: String,
    /// Backends the plan touches.
    pub systems: Vec<SystemId>,
    /// Why the attempt failed; `None` for the succeeding attempt.
    pub error: Option<String>,
}

/// Everything fault handling did for one query, surfaced in
/// [`crate::Report::resilience`]. Present only when at least one event
/// fired (an error, a retry, a breaker transition, or a failover); a
/// fault-free query reports `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Plan attempts in order; the last one succeeded.
    pub attempts: Vec<PlanAttempt>,
    /// Store-call retries beyond each call's first attempt.
    pub retries: u64,
    /// Every store error observed (injected faults, circuit rejections),
    /// in order.
    pub store_errors: Vec<String>,
    /// Breaker state changes, in order.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Rewriting→plan translation runs this query performed: one per
    /// rewriting when it planned, none when its prepared plan was cached —
    /// and no more however many plan attempts the failover chain needed
    /// (failover runs the plans planning already holds).
    pub translations: u64,
}

impl ResilienceReport {
    /// `true` when the query needed more than one plan attempt.
    pub fn failed_over(&self) -> bool {
        self.attempts.len() > 1
    }
}

/// The per-query fault-handling context: retry policy, deadline budget,
/// the engine's shared [`HealthTracker`], and the event log feeding
/// [`ResilienceReport`]. Created once per query, on the stack, and passed
/// to each plan attempt at run time ([`QueryResilience::leaves`]): the
/// plans themselves belong to no query.
pub struct QueryResilience {
    policy: RetryPolicy,
    deadline: Option<Instant>,
    health: Arc<HealthTracker>,
    retries: AtomicU64,
    errors: Mutex<Vec<String>>,
    transitions: Mutex<Vec<BreakerTransition>>,
}

impl QueryResilience {
    /// A fresh context. `deadline` is the total wall-clock budget of the
    /// query, measured from now.
    pub fn new(
        policy: RetryPolicy,
        deadline: Option<Duration>,
        health: Arc<HealthTracker>,
    ) -> QueryResilience {
        QueryResilience {
            policy,
            deadline: deadline.map(|d| Instant::now() + d),
            health,
            retries: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
            transitions: Mutex::new(Vec::new()),
        }
    }

    /// `true` once the query's deadline budget is exhausted.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Retries issued so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Store errors observed so far (rendered).
    pub fn store_errors(&self) -> Vec<String> {
        self.errors.lock().clone()
    }

    /// Breaker transitions observed so far.
    pub fn transitions(&self) -> Vec<BreakerTransition> {
        self.transitions.lock().clone()
    }

    /// `true` when any event fired (the report should be populated).
    pub fn eventful(&self) -> bool {
        self.retries() > 0 || !self.errors.lock().is_empty() || !self.transitions.lock().is_empty()
    }

    fn record_error(&self, e: &StoreError) {
        self.errors.lock().push(e.to_string());
    }

    fn record_transition(&self, t: Option<BreakerTransition>) {
        if let Some(t) = t {
            self.transitions.lock().push(t);
        }
    }

    /// Wait out the backoff before retry `retry`, truncated to whatever
    /// deadline budget remains.
    fn back_off(&self, retry: u32) {
        let mut d = self.policy.backoff(retry);
        if let Some(dl) = self.deadline {
            let left = dl.saturating_duration_since(Instant::now());
            d = d.min(left);
        }
        if !d.is_zero() {
            estocada_simkit::spin_for(d);
        }
    }

    /// Run one store call under admission control, **without** the retry
    /// loop — callers that own their own retry discipline (the split-batch
    /// fetch path) build on this primitive. Breaker-open rejections
    /// synthesize a [`StoreErrorKind::CircuitOpen`] error without touching
    /// the backend; every error that comes back is logged for the report.
    fn call_once<T>(
        &self,
        system: SystemId,
        op: &str,
        f: impl FnOnce() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        if self.health.admit(system) == Admission::FailFast {
            let e = StoreError {
                store: system.to_string(),
                op: op.to_string(),
                op_index: 0,
                kind: StoreErrorKind::CircuitOpen,
            };
            self.record_error(&e);
            return Err(e);
        }
        let out = f();
        // A native error is an answer: the backend is up (and a half-open
        // probe that got one has proven it).
        let answered = match &out {
            Ok(_) => true,
            Err(e) => matches!(e.kind, StoreErrorKind::Internal(_)),
        };
        self.record_transition(if answered {
            self.health.on_success(system)
        } else {
            self.health.on_failure(system)
        });
        if let Err(e) = &out {
            self.record_error(e);
        }
        out
    }

    /// `true` when the call that failed with `e` may be issued again: the
    /// failure was an outage (not a breaker rejection, not a native error
    /// the store would repeat), `attempts_left` allows it and the deadline
    /// has not passed.
    fn may_retry(&self, e: &StoreError, attempts_left: u32) -> bool {
        let transient = !matches!(
            e.kind,
            StoreErrorKind::CircuitOpen | StoreErrorKind::Internal(_)
        );
        transient && attempts_left > 0 && !self.deadline_exceeded()
    }

    /// Count one retry and wait out its backoff — the bookkeeping half of
    /// the retry loop, shared with the split-batch fetch path.
    fn note_retry_and_back_off(&self, attempt: u32) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.back_off(attempt);
    }

    /// Run one store call under admission control and the retry loop.
    ///
    /// Breaker-open rejections synthesize a
    /// [`StoreErrorKind::CircuitOpen`] error without touching the backend
    /// and without burning retries; native errors are final too.
    pub fn call<T>(
        &self,
        system: SystemId,
        op: &str,
        f: impl Fn() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.call_once(system, op, &f) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if !self.may_retry(&e, self.policy.max_attempts.saturating_sub(attempt)) {
                        return Err(e);
                    }
                    self.note_retry_and_back_off(attempt);
                }
            }
        }
    }

    /// Probe `source` (serving backend `system`) with the interned `keys`
    /// under the split-batch retry: a failed batch is **not** re-issued
    /// whole. The batch is split in half and each half fetched
    /// independently, recursively, so only the keys in a still-failing half
    /// are ever re-requested — keys delivered by a succeeding half are done.
    /// The halves' answers are joined in key order: the right half's rows
    /// follow the left's, its key ends shifted by them
    /// ([`Fetched::append`]). Each key is allowed
    /// [`RetryPolicy::max_attempts`] attempts; a fault-free batch is exactly
    /// one store call, identical to the unsplit path.
    pub fn fetch(
        &self,
        system: SystemId,
        source: &dyn BindSource,
        keys: &[ConstId],
    ) -> Result<Fetched, StoreError> {
        self.fetch_split(system, source, keys, self.policy.max_attempts.max(1), 1)
    }

    fn fetch_split(
        &self,
        system: SystemId,
        source: &dyn BindSource,
        keys: &[ConstId],
        budget: u32,
        attempt: u32,
    ) -> Result<Fetched, StoreError> {
        match self.call_once(system, "fetch_batch", || source.fetch_batch(keys)) {
            Ok(v) => Ok(v),
            Err(e) if !self.may_retry(&e, budget.saturating_sub(1)) => Err(e),
            Err(_) => {
                self.note_retry_and_back_off(attempt);
                let again = |keys| self.fetch_split(system, source, keys, budget - 1, attempt + 1);
                if keys.len() > 1 {
                    let (l, r) = keys.split_at(keys.len() / 2);
                    let mut left = again(l)?;
                    left.append(again(r)?);
                    Ok(left)
                } else {
                    again(keys)
                }
            }
        }
    }

    /// The delegated leaves of a plan whose units are served by `systems`,
    /// in execution order, each running through this query's retry/breaker
    /// loop: what a plan attempt hands [`estocada_engine::run`].
    pub fn leaves<'a>(&'a self, systems: &'a [SystemId]) -> impl Leaves + 'a {
        Guarded { ctx: self, systems }
    }
}

/// The delegated leaves of one plan attempt under its query's fault
/// handling ([`QueryResilience::leaves`]). A leaf beyond `systems` calls its
/// store directly.
struct Guarded<'a> {
    ctx: &'a QueryResilience,
    systems: &'a [SystemId],
}

impl Leaves for Guarded<'_> {
    fn run(&self, unit: usize, runner: &Runner) -> Result<Batch, StoreError> {
        match self.systems.get(unit) {
            Some(system) => self.ctx.call(*system, "delegated", runner),
            None => runner(),
        }
    }

    fn fetch(
        &self,
        unit: usize,
        source: &dyn BindSource,
        keys: &[ConstId],
    ) -> Result<Fetched, StoreError> {
        match self.systems.get(unit) {
            Some(system) => self.ctx.fetch(*system, source, keys),
            None => source.fetch_batch(keys),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_engine::Columns;
    use estocada_pivot::{ConstReader, Value};
    use std::sync::atomic::AtomicUsize;

    fn unavailable(n: u64) -> StoreError {
        StoreError {
            store: "key-value".into(),
            op: "get".into(),
            op_index: n,
            kind: StoreErrorKind::Unavailable,
        }
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let ctx = QueryResilience::new(
            RetryPolicy {
                jitter: false,
                base_backoff: Duration::from_micros(1),
                max_backoff: Duration::from_micros(1),
                ..RetryPolicy::default()
            },
            None,
            Arc::new(HealthTracker::default()),
        );
        let calls = AtomicUsize::new(0);
        let out = ctx.call(SystemId::KeyValue, "get", || {
            let n = calls.fetch_add(1, Ordering::Relaxed);
            if n < 2 {
                Err(unavailable(n as u64))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(ctx.retries(), 2);
        assert_eq!(ctx.store_errors().len(), 2);
    }

    #[test]
    fn retries_exhaust_into_the_last_error() {
        let ctx = QueryResilience::new(
            RetryPolicy {
                max_attempts: 2,
                jitter: false,
                base_backoff: Duration::from_micros(1),
                max_backoff: Duration::from_micros(1),
            },
            None,
            Arc::new(HealthTracker::default()),
        );
        let out: Result<(), _> = ctx.call(SystemId::KeyValue, "get", || Err(unavailable(0)));
        assert_eq!(out.unwrap_err().kind, StoreErrorKind::Unavailable);
        assert_eq!(ctx.retries(), 1);
    }

    #[test]
    fn breaker_trips_then_fails_fast_then_probes() {
        let health = Arc::new(HealthTracker::new(BreakerConfig {
            trip_after: 2,
            probe_after: 2,
            ..Default::default()
        }));
        // Two failures trip the breaker.
        assert!(health.on_failure(SystemId::Text).is_none());
        let t = health.on_failure(SystemId::Text).unwrap();
        assert_eq!((t.from, t.to), (BreakerState::Closed, BreakerState::Open));
        // Open: the first probe_after admissions fail fast...
        assert_eq!(health.admit(SystemId::Text), Admission::FailFast);
        assert_eq!(health.admit(SystemId::Text), Admission::FailFast);
        // ...then one half-open probe is admitted.
        assert_eq!(health.admit(SystemId::Text), Admission::Probe);
        assert_eq!(health.state(SystemId::Text), BreakerState::HalfOpen);
        // A successful probe closes the breaker.
        let t = health.on_success(SystemId::Text).unwrap();
        assert_eq!(
            (t.from, t.to),
            (BreakerState::HalfOpen, BreakerState::Closed)
        );
        assert_eq!(health.admit(SystemId::Text), Admission::Execute);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let health = HealthTracker::new(BreakerConfig {
            trip_after: 1,
            probe_after: 1,
            ..Default::default()
        });
        health.on_failure(SystemId::Parallel).unwrap();
        assert_eq!(health.admit(SystemId::Parallel), Admission::FailFast);
        assert_eq!(health.admit(SystemId::Parallel), Admission::Probe);
        let t = health.on_failure(SystemId::Parallel).unwrap();
        assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Open));
    }

    #[test]
    fn open_breaker_synthesizes_circuit_open_without_calling() {
        let health = Arc::new(HealthTracker::new(BreakerConfig {
            trip_after: 1,
            probe_after: 100,
            ..Default::default()
        }));
        health.on_failure(SystemId::Document);
        let ctx = QueryResilience::new(RetryPolicy::default(), None, health);
        let calls = AtomicUsize::new(0);
        let out: Result<(), _> = ctx.call(SystemId::Document, "find", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(out.unwrap_err().kind, StoreErrorKind::CircuitOpen);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn native_error_is_final_and_counts_as_an_answer() {
        let health = Arc::new(HealthTracker::new(BreakerConfig {
            trip_after: 1,
            probe_after: 0,
            ..Default::default()
        }));
        let ctx = QueryResilience::new(RetryPolicy::default(), None, health.clone());
        let calls = AtomicUsize::new(0);
        let bad_query = || -> Result<(), StoreError> {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(StoreError::internal("relational", "query", "unknown table"))
        };
        let out = ctx.call(SystemId::Relational, "query", bad_query);
        assert!(matches!(out.unwrap_err().kind, StoreErrorKind::Internal(_)));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "asked once");
        assert_eq!(ctx.retries(), 0);
        assert_eq!(ctx.store_errors().len(), 1, "still reported");
        assert_eq!(health.state(SystemId::Relational), BreakerState::Closed);
        // As the half-open probe of a tripped breaker, the answer proves
        // the backend is back.
        health.on_failure(SystemId::Relational).unwrap();
        assert!(ctx.call(SystemId::Relational, "query", bad_query).is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 2, "the probe was issued");
        assert_eq!(health.state(SystemId::Relational), BreakerState::Closed);
    }

    #[test]
    fn deadline_stops_retrying() {
        let ctx = QueryResilience::new(
            RetryPolicy {
                max_attempts: 1_000,
                jitter: false,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_micros(50),
            },
            Some(Duration::from_micros(1)),
            Arc::new(HealthTracker::default()),
        );
        estocada_simkit::spin_for(Duration::from_micros(5));
        let calls = AtomicUsize::new(0);
        let out: Result<(), _> = ctx.call(SystemId::KeyValue, "get", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(unavailable(0))
        });
        assert!(out.is_err());
        // Expired deadline ⇒ the first failure is final.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn backoff_is_capped_and_grows() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(350),
            jitter: false,
        };
        assert_eq!(p.backoff(1), Duration::from_micros(100));
        assert_eq!(p.backoff(2), Duration::from_micros(200));
        assert_eq!(p.backoff(3), Duration::from_micros(350));
        assert_eq!(p.backoff(9), Duration::from_micros(350));
        let j = RetryPolicy { jitter: true, ..p };
        let b = j.backoff(2);
        assert!(b >= Duration::from_micros(100) && b <= Duration::from_micros(200));
        // Deterministic: same ordinal, same jitter.
        assert_eq!(b, j.backoff(2));
    }

    #[test]
    fn store_names_round_trip_to_systems() {
        for sys in SystemId::ALL {
            assert_eq!(system_for_store(&sys.to_string()), Some(sys));
        }
        assert_eq!(system_for_store("mystery"), None);
    }

    #[test]
    fn clean_context_reports_no_events() {
        let ctx = QueryResilience::new(
            RetryPolicy::default(),
            None,
            Arc::new(HealthTracker::default()),
        );
        let out = ctx.call(SystemId::Relational, "query", || Ok(7));
        assert_eq!(out, Ok(7));
        assert!(!ctx.eventful());
    }

    #[test]
    fn cooldown_admits_a_probe_without_rejection_traffic() {
        let clock = SimClock::manual();
        let health = HealthTracker::with_clock(
            BreakerConfig {
                trip_after: 1,
                probe_after: 100,
                open_cooldown: Some(Duration::from_secs(5)),
            },
            clock.clone(),
        );
        health.on_failure(SystemId::KeyValue).unwrap();
        // Inside the window the breaker still fails fast.
        assert_eq!(health.admit(SystemId::KeyValue), Admission::FailFast);
        clock.advance(Duration::from_secs(5)).unwrap();
        // The window elapsed: the very next admission is a probe, far
        // before probe_after=100 rejections ever accumulated.
        assert_eq!(health.admit(SystemId::KeyValue), Admission::Probe);
        let t = health.on_success(SystemId::KeyValue).unwrap();
        assert_eq!(
            (t.from, t.to),
            (BreakerState::HalfOpen, BreakerState::Closed)
        );
    }

    #[test]
    fn failed_probe_restarts_the_cooldown_window() {
        let clock = SimClock::manual();
        let health = HealthTracker::with_clock(
            BreakerConfig {
                trip_after: 1,
                probe_after: 100,
                open_cooldown: Some(Duration::from_secs(5)),
            },
            clock.clone(),
        );
        health.on_failure(SystemId::Document).unwrap();
        clock.advance(Duration::from_secs(5)).unwrap();
        assert_eq!(health.admit(SystemId::Document), Admission::Probe);
        // The probe fails: re-open stamps a fresh window.
        health.on_failure(SystemId::Document).unwrap();
        clock.advance(Duration::from_secs(4)).unwrap();
        assert_eq!(health.admit(SystemId::Document), Admission::FailFast);
        clock.advance(Duration::from_secs(1)).unwrap();
        assert_eq!(health.admit(SystemId::Document), Admission::Probe);
    }

    /// Serves 0, 1 or 2 rows per key (`rows_of`) but fails the first
    /// `faults` batch calls that include the poisoned key, recording every
    /// requested key set.
    struct FlakyBatch {
        poisoned: Value,
        faults: AtomicUsize,
        calls: Mutex<Vec<Vec<Value>>>,
    }

    /// The rows stored under `key`: `a` and `d` have one, `b` and `e` two,
    /// `c` none, each naming its key.
    fn rows_of(key: &Value) -> Vec<Vec<Value>> {
        let key = key.as_str().unwrap_or_default();
        let n = key.bytes().next().map_or(0, |b| (b - b'a' + 1) % 3);
        (0..n)
            .map(|i| vec![Value::str(format!("{key}{i}"))])
            .collect()
    }

    fn k_column() -> Columns {
        vec!["k".to_string()].into()
    }

    impl BindSource for FlakyBatch {
        fn out_columns(&self) -> Columns {
            k_column()
        }
        fn fetch_batch(&self, keys: &[ConstId]) -> Result<Fetched, StoreError> {
            let keys: Vec<Value> = keys.iter().map(|k| (*k.value()).clone()).collect();
            self.calls.lock().push(keys.clone());
            if keys.contains(&self.poisoned)
                && self
                    .faults
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    != Err(0)
            {
                return Err(unavailable(0));
            }
            let mut fetched = Fetched::new(k_column());
            for key in &keys {
                fetched.rows.push_values(&rows_of(key));
                fetched.end_key();
            }
            Ok(fetched)
        }
    }

    fn interned(keys: &[&str]) -> Vec<ConstId> {
        keys.iter().map(|k| ConstId::of(*k)).collect()
    }

    /// Every key of `keys` holds exactly its own rows in `fetched`.
    fn assert_own_rows(keys: &[&str], fetched: &Fetched) {
        assert_eq!(fetched.ends.len(), keys.len(), "one end per key");
        let reader = ConstReader::new();
        let column = &fetched.rows.cols[0];
        for (i, key) in keys.iter().enumerate() {
            let got: Vec<Vec<Value>> = (fetched.key_rows(i))
                .map(|r| vec![reader.get(column[r]).clone()])
                .collect();
            assert_eq!(got, rows_of(&Value::str(*key)), "the rows of key {key}");
        }
    }

    fn fast_retry(max_attempts: u32) -> QueryResilience {
        let policy = RetryPolicy {
            max_attempts,
            jitter: false,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(1),
        };
        QueryResilience::new(policy, None, Arc::new(HealthTracker::default()))
    }

    fn flaky(poisoned: &str, faults: usize) -> FlakyBatch {
        FlakyBatch {
            poisoned: Value::str(poisoned),
            faults: AtomicUsize::new(faults),
            calls: Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn split_batch_retry_never_refetches_delivered_keys() {
        let source = flaky("d", 2);
        let ctx = fast_retry(3);
        let keys = ["a", "b", "c", "d"];
        let out = ctx
            .fetch(SystemId::KeyValue, &source, &interned(&keys))
            .unwrap();
        // Every key was delivered its own rows, in the original batch order.
        assert_own_rows(&keys, &out);
        // [a,b,c,d] fails → split: [a,b] succeeds, [c,d] fails → split:
        // [c] succeeds, [d] succeeds. Keys a and b were requested exactly
        // once after their delivering call — never re-fetched.
        let calls = source.calls.lock().clone();
        let strs = |ks: &[&str]| ks.iter().map(|k| Value::str(*k)).collect::<Vec<_>>();
        let want = [&keys[..], &["a", "b"], &["c", "d"], &["c"], &["d"]];
        assert_eq!(calls, want.map(strs));
        assert_eq!(ctx.retries(), 2);
    }

    #[test]
    fn split_halves_keep_each_keys_rows() {
        // Five keys answering 2, 0, 1, 1 and 2 rows. The poisoned `a` fails
        // the first `faults` calls holding it, so the batch is split down
        // to `a` alone and the answer joined back from ever smaller halves.
        let keys = ["b", "c", "a", "d", "e"];
        for faults in 0..4 {
            let source = flaky("a", faults);
            let ctx = fast_retry(4);
            let out = ctx
                .fetch(SystemId::KeyValue, &source, &interned(&keys))
                .unwrap();
            assert_own_rows(&keys, &out);
            assert_eq!(ctx.retries() as usize, faults);
        }
    }

    #[test]
    fn split_batch_exhaustion_surfaces_the_error() {
        let source = flaky("d", usize::MAX);
        let ctx = fast_retry(2);
        let out = ctx.fetch(SystemId::KeyValue, &source, &interned(&["c", "d"]));
        assert_eq!(out.unwrap_err().kind, StoreErrorKind::Unavailable);
        // Budget 2: the full batch, then one split round ([c] delivered,
        // [d] out of budget) — no runaway recursion.
        assert_eq!(source.calls.lock().len(), 3);
    }

    #[test]
    fn fault_free_batch_is_one_store_call() {
        let source = flaky("zzz", 0);
        let ctx = QueryResilience::new(
            RetryPolicy::default(),
            None,
            Arc::new(HealthTracker::default()),
        );
        let keys = ["a", "b", "c"];
        let out = ctx
            .fetch(SystemId::KeyValue, &source, &interned(&keys))
            .unwrap();
        assert_own_rows(&keys, &out);
        assert_eq!(source.calls.lock().len(), 1);
        assert!(!ctx.eventful());
    }
}
