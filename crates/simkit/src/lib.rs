//! # estocada-simkit
//!
//! Shared simulation utilities for the DMS stand-ins: a configurable
//! per-operation / per-byte latency model (replacing the network round-trips
//! and protocol overheads of the real external systems the paper deploys)
//! and per-store operation metrics (backing the demo's "performance
//! statistics split across the underlying DMS and ESTOCADA's runtime").
//!
//! Latency is simulated with a monotonic spin-wait so that wall-clock
//! benchmarks reflect it; setting a cost to zero disables it entirely (the
//! default for unit tests). The constants used by the benchmark harness are
//! documented in `EXPERIMENTS.md`.
//!
//! The [`fault`] module adds deterministic fault injection on top: a seeded
//! [`FaultPlan`] scripts per-store/per-operation error schedules and latency
//! spikes, and a per-store [`FaultHook`] cursor answers whether the store's
//! next delegated request faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;

pub use fault::{
    spin_for, FaultHook, FaultKind, FaultPlan, FaultRule, Injection, StoreError, StoreErrorKind,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A simulation clock: a monotonically increasing [`Duration`] since the
/// clock's origin. The default [`SimClock::wall`] flavor reads the host's
/// monotonic clock; [`SimClock::manual`] starts at zero and only moves
/// when [`SimClock::advance`]d, making time-based behavior (breaker open
/// windows, fault schedules) fully deterministic in tests. Cloning shares
/// the underlying clock.
#[derive(Clone)]
pub struct SimClock(Arc<ClockInner>);

enum ClockInner {
    Wall(Instant),
    Manual(AtomicU64),
}

impl Default for SimClock {
    fn default() -> SimClock {
        SimClock::wall()
    }
}

impl std::fmt::Debug for SimClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.0 {
            ClockInner::Wall(_) => write!(f, "SimClock::wall({:?})", self.now()),
            ClockInner::Manual(_) => write!(f, "SimClock::manual({:?})", self.now()),
        }
    }
}

impl SimClock {
    /// A clock backed by the host's monotonic clock, originated now.
    pub fn wall() -> SimClock {
        SimClock(Arc::new(ClockInner::Wall(Instant::now())))
    }

    /// A manually driven clock starting at zero; time passes only through
    /// [`SimClock::advance`].
    pub fn manual() -> SimClock {
        SimClock(Arc::new(ClockInner::Manual(AtomicU64::new(0))))
    }

    /// Elapsed time since the clock's origin.
    pub fn now(&self) -> Duration {
        match &*self.0 {
            ClockInner::Wall(origin) => origin.elapsed(),
            ClockInner::Manual(nanos) => Duration::from_nanos(nanos.load(Ordering::Relaxed)),
        }
    }

    /// Advance a manual clock by `d`. Panics on a wall clock — advancing
    /// real time is a test-harness bug, not a runtime feature.
    pub fn advance(&self, d: Duration) {
        match &*self.0 {
            ClockInner::Wall(_) => panic!("cannot advance a wall SimClock"),
            ClockInner::Manual(nanos) => {
                nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Latency model of one simulated DMS.
///
/// Each store operation is charged a fixed per-request cost (round-trip +
/// parsing), a per-result-tuple cost, and a per-byte transfer cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyModel {
    /// Fixed cost charged once per request, in nanoseconds.
    pub per_request_ns: u64,
    /// Cost per result tuple/document, in nanoseconds.
    pub per_tuple_ns: u64,
    /// Cost per transferred byte, in nanoseconds.
    pub per_byte_ns: u64,
    /// Cost per tuple scanned internally (models the gap between indexed
    /// access and full scans inside the store).
    pub per_scan_ns: u64,
}

impl LatencyModel {
    /// The zero model: no simulated latency (default in unit tests).
    pub const ZERO: LatencyModel = LatencyModel {
        per_request_ns: 0,
        per_tuple_ns: 0,
        per_byte_ns: 0,
        per_scan_ns: 0,
    };

    /// Total simulated cost of a request returning `tuples` tuples and
    /// `bytes` bytes after scanning `scanned` tuples internally.
    pub fn request_cost(&self, tuples: u64, bytes: u64, scanned: u64) -> Duration {
        Duration::from_nanos(
            self.per_request_ns
                + self.per_tuple_ns * tuples
                + self.per_byte_ns * bytes
                + self.per_scan_ns * scanned,
        )
    }

    /// Busy-wait for the simulated cost of a request (no-op for the zero
    /// model). Spinning (rather than sleeping) keeps microsecond-scale
    /// charges accurate under benchmark harnesses.
    pub fn charge(&self, tuples: u64, bytes: u64, scanned: u64) {
        spin_for(self.request_cost(tuples, bytes, scanned));
    }
}

/// Operation counters of one simulated DMS. All counters are atomic: stores
/// are shared behind `Arc` and the parallel store updates from worker
/// threads.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    /// Requests served (queries, lookups, searches).
    pub requests: AtomicU64,
    /// Tuples/documents returned.
    pub tuples_out: AtomicU64,
    /// Tuples/documents/rows scanned internally.
    pub tuples_scanned: AtomicU64,
    /// Bytes returned (approximate, see `Value::approx_size`).
    pub bytes_out: AtomicU64,
    /// Total busy time in nanoseconds (incl. simulated latency).
    pub busy_ns: AtomicU64,
}

impl StoreMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> StoreMetrics {
        StoreMetrics::default()
    }

    /// Record one served request.
    pub fn record_request(&self, tuples_out: u64, bytes_out: u64, scanned: u64, busy: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.tuples_out.fetch_add(tuples_out, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        self.tuples_scanned.fetch_add(scanned, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            tuples_out: self.tuples_out.load(Ordering::Relaxed),
            tuples_scanned: self.tuples_scanned.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.tuples_out.store(0, Ordering::Relaxed);
        self.tuples_scanned.store(0, Ordering::Relaxed);
        self.bytes_out.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`StoreMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Requests served.
    pub requests: u64,
    /// Tuples returned.
    pub tuples_out: u64,
    /// Tuples scanned.
    pub tuples_scanned: u64,
    /// Bytes returned.
    pub bytes_out: u64,
    /// Busy time.
    pub busy: Duration,
}

impl MetricsSnapshot {
    /// Difference since an earlier snapshot (for per-query reporting).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests - earlier.requests,
            tuples_out: self.tuples_out - earlier.tuples_out,
            tuples_scanned: self.tuples_scanned - earlier.tuples_scanned,
            bytes_out: self.bytes_out - earlier.bytes_out,
            busy: self.busy.saturating_sub(earlier.busy),
        }
    }
}

/// A scope timer that records a request into [`StoreMetrics`] on drop,
/// charging the latency model first.
pub struct RequestTimer<'a> {
    metrics: &'a StoreMetrics,
    latency: LatencyModel,
    start: Instant,
    tuples_out: u64,
    bytes_out: u64,
    scanned: u64,
}

impl<'a> RequestTimer<'a> {
    /// Start timing a request.
    pub fn start(metrics: &'a StoreMetrics, latency: LatencyModel) -> RequestTimer<'a> {
        RequestTimer {
            metrics,
            latency,
            start: Instant::now(),
            tuples_out: 0,
            bytes_out: 0,
            scanned: 0,
        }
    }

    /// Set the result sizes before finishing.
    pub fn set_output(&mut self, tuples: u64, bytes: u64) {
        self.tuples_out = tuples;
        self.bytes_out = bytes;
    }

    /// Add to the scanned-tuple counter.
    pub fn add_scanned(&mut self, n: u64) {
        self.scanned += n;
    }
}

impl Drop for RequestTimer<'_> {
    fn drop(&mut self) {
        self.latency
            .charge(self.tuples_out, self.bytes_out, self.scanned);
        self.metrics.record_request(
            self.tuples_out,
            self.bytes_out,
            self.scanned,
            self.start.elapsed(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_when_told() {
        let c = SimClock::manual();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(7));
        assert_eq!(c.now(), Duration::from_millis(7));
        let shared = c.clone();
        shared.advance(Duration::from_millis(3));
        // Clones share the underlying clock.
        assert_eq!(c.now(), Duration::from_millis(10));
    }

    #[test]
    fn wall_clock_moves_on_its_own() {
        let c = SimClock::wall();
        let a = c.now();
        spin_for(Duration::from_micros(10));
        assert!(c.now() > a);
    }

    #[test]
    fn zero_model_has_zero_cost() {
        assert_eq!(
            LatencyModel::ZERO.request_cost(1000, 1000, 1000),
            Duration::ZERO
        );
        LatencyModel::ZERO.charge(1000, 1000, 1000); // must not spin
    }

    #[test]
    fn request_cost_is_linear() {
        let m = LatencyModel {
            per_request_ns: 100,
            per_tuple_ns: 10,
            per_byte_ns: 1,
            per_scan_ns: 2,
        };
        assert_eq!(
            m.request_cost(5, 20, 30),
            Duration::from_nanos(100 + 50 + 20 + 60)
        );
    }

    #[test]
    fn charge_spins_for_at_least_the_cost() {
        let m = LatencyModel {
            per_request_ns: 200_000, // 0.2 ms
            per_tuple_ns: 0,
            per_byte_ns: 0,
            per_scan_ns: 0,
        };
        let t = Instant::now();
        m.charge(0, 0, 0);
        assert!(t.elapsed() >= Duration::from_nanos(200_000));
    }

    #[test]
    fn metrics_accumulate_and_snapshot() {
        let m = StoreMetrics::new();
        m.record_request(3, 100, 50, Duration::from_micros(5));
        m.record_request(2, 30, 10, Duration::from_micros(2));
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.tuples_out, 5);
        assert_eq!(s.bytes_out, 130);
        assert_eq!(s.tuples_scanned, 60);
        assert_eq!(s.busy, Duration::from_micros(7));
    }

    #[test]
    fn snapshot_difference() {
        let m = StoreMetrics::new();
        m.record_request(1, 10, 5, Duration::from_micros(1));
        let a = m.snapshot();
        m.record_request(2, 20, 6, Duration::from_micros(2));
        let d = m.snapshot().since(&a);
        assert_eq!(d.requests, 1);
        assert_eq!(d.tuples_out, 2);
    }

    #[test]
    fn timer_records_on_drop() {
        let m = StoreMetrics::new();
        {
            let mut t = RequestTimer::start(&m, LatencyModel::ZERO);
            t.add_scanned(7);
            t.set_output(2, 40);
        }
        let s = m.snapshot();
        assert_eq!(s.requests, 1);
        assert_eq!(s.tuples_out, 2);
        assert_eq!(s.tuples_scanned, 7);
    }

    #[test]
    fn reset_zeroes_counters() {
        let m = StoreMetrics::new();
        m.record_request(1, 1, 1, Duration::from_nanos(1));
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }
}
