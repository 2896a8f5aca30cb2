//! One snapshot of engine state ([`crate::Estocada::metrics`]): what the
//! mediator's storage descriptor manager knows right now — both epochs, the
//! index generation prepared plans are priced at, the two epoch caches,
//! every backend's breaker, store counters and fault-gate count, and every
//! fragment's catalog entry with its statistics, high-water mark and use
//! count.
//!
//! A snapshot is read from what the engine already keeps: relaxed atomic
//! loads into fixed arrays and a borrow of the catalog, so taking one
//! allocates nothing. Counters read under concurrent queries are each
//! current, not a consistent cut across them.
//!
//! # Exposition
//!
//! [`Metrics`]' `Display` is the text exposition: one `name{labels} value`
//! line per value, every value an integer, no name and label set twice.
//!
//! ```text
//! estocada_catalog_epoch 4
//! estocada_plan_cache_hits_total 12
//! estocada_plans_repriced_total 3
//! estocada_index_generation 9
//! estocada_breaker_state{system="key-value",state="open"} 1
//! estocada_store_requests_total{system="key-value"} 31
//! estocada_fragment_high_water{fragment="F2"} 3
//! estocada_fragment_distinct{fragment="F2",relation="UsersKV",column="0"} 2000
//! ```
//!
//! A breaker's state is a state set: one line per state, `1` for the
//! current one and `0` for the others.

use crate::catalog::FragmentMeta;
use crate::plancache::PlanCacheStats;
use crate::resilience::{BackendHealth, BreakerState};
use crate::system::SystemId;
use estocada_simkit::MetricsSnapshot;
use std::fmt;

/// One snapshot of engine state, borrowed from the engine
/// ([`crate::Estocada::metrics`]).
#[derive(Debug, Clone, Copy)]
pub struct Metrics<'e> {
    /// The catalog epoch: bumped by every DDL operation.
    pub catalog_epoch: u64,
    /// The data epoch: bumped by every DML batch. A write invalidates no
    /// cached rewriting, so it moves apart from the catalog epoch.
    pub data_epoch: u64,
    /// Rewrite-plan cache counters and size.
    pub plan_cache: PlanCacheStats,
    /// Prepared plans priced again because a write moved a relation they
    /// priced past the drift bound, or an index build or a keying moved
    /// the [`Metrics::index_generation`]; a read that keeps its plan across
    /// a write adds nothing.
    pub plans_repriced: u64,
    /// The index generation a prepared plan must have been priced at to be
    /// served ([`crate::Stores::index_generation`]): it moves with every
    /// relational index built and every parallel dataset keyed — on demand
    /// after a query paid a full scan, or at a fill — and with every table
    /// or dataset created or dropped.
    pub index_generation: u64,
    /// Lint-cache counters and size. The lint cache keys on the catalog
    /// epoch alone, so writes never force lint recomputation.
    pub lint_cache: PlanCacheStats,
    /// One row per backend, indexed by `SystemId as usize`.
    pub backends: [BackendMetrics; 5],
    /// Every registered fragment: its statistics, its high-water mark and
    /// how many rewritings used it.
    pub fragments: &'e [FragmentMeta],
}

/// One backend's row of a [`Metrics`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendMetrics {
    /// The backend.
    pub system: SystemId,
    /// Its breaker state and health counters.
    pub health: BackendHealth,
    /// Its store's counters since the store was made.
    pub store: MetricsSnapshot,
    /// Delegated requests that reached its fault gate since the current
    /// fault plan was installed (0 while none is).
    pub gated_ops: u64,
}

const BREAKER_STATES: [BreakerState; 3] = [
    BreakerState::Closed,
    BreakerState::Open,
    BreakerState::HalfOpen,
];

impl fmt::Display for Metrics<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "estocada_catalog_epoch {}", self.catalog_epoch)?;
        writeln!(f, "estocada_data_epoch {}", self.data_epoch)?;
        for (cache, s) in [("plan", self.plan_cache), ("lint", self.lint_cache)] {
            writeln!(f, "estocada_{cache}_cache_hits_total {}", s.hits)?;
            writeln!(f, "estocada_{cache}_cache_misses_total {}", s.misses)?;
            writeln!(f, "estocada_{cache}_cache_entries {}", s.entries)?;
        }
        writeln!(f, "estocada_plans_repriced_total {}", self.plans_repriced)?;
        writeln!(f, "estocada_index_generation {}", self.index_generation)?;
        for b in &self.backends {
            let (h, s) = (&b.health, &b.store);
            let sys = format_args!("system=\"{}\"", b.system);
            for state in BREAKER_STATES {
                let on = u8::from(h.state == state);
                writeln!(f, "estocada_breaker_state{{{sys},state=\"{state}\"}} {on}")?;
            }
            let counters: [(&str, u128); 10] = [
                (
                    "breaker_consecutive_failures",
                    h.consecutive_failures.into(),
                ),
                ("breaker_trips_total", h.trips.into()),
                ("backend_successes_total", h.successes.into()),
                ("backend_failures_total", h.failures.into()),
                ("backend_gated_ops_total", b.gated_ops.into()),
                ("store_requests_total", s.requests.into()),
                ("store_tuples_out_total", s.tuples_out.into()),
                ("store_tuples_scanned_total", s.tuples_scanned.into()),
                ("store_bytes_out_total", s.bytes_out.into()),
                ("store_busy_ns_total", s.busy.as_nanos()),
            ];
            for (name, value) in counters {
                writeln!(f, "estocada_{name}{{{sys}}} {value}")?;
            }
        }
        for frag in self.fragments {
            let id = format_args!("fragment=\"{}\"", frag.id);
            writeln!(
                f,
                "estocada_fragment_high_water{{{id}}} {}",
                frag.high_water
            )?;
            writeln!(
                f,
                "estocada_fragment_uses_total{{{id}}} {}",
                frag.use_count.get()
            )?;
            for (r, s) in frag.relations.iter().zip(&frag.stats) {
                let rel = format_args!("{id},relation=\"{}\"", r.name);
                writeln!(f, "estocada_fragment_rows{{{rel}}} {}", s.rows)?;
                writeln!(f, "estocada_fragment_bytes{{{rel}}} {}", s.bytes)?;
                for (column, distinct) in s.distinct.iter().enumerate() {
                    writeln!(
                        f,
                        "estocada_fragment_distinct{{{rel},column=\"{column}\"}} {distinct}"
                    )?;
                }
            }
        }
        Ok(())
    }
}
