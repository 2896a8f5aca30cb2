//! The mediator's cost model: "textbook formulas" over gathered fragment
//! statistics, with per-system request/tuple cost constants mirroring the
//! latency calibration.
//!
//! What a delegated request scans inside its store is priced in one place,
//! [`estimate`], from the [`Access`] it makes to each container it reads.

use crate::catalog::FragmentStats;
use crate::system::{Latencies, SystemId};

/// How a delegated request reaches one container it reads, decided from
/// the indexes the container has when the request is translated: for a
/// relational table or a parallel dataset, those its store holds — the
/// fill's and those built on demand after a query paid a full scan for an
/// `=` constant (`layout::index`: a table's index, a dataset's key); for a
/// collection, the placement's `indexed` list, which its first fill built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// A key-value get (or pipelined mget), or a text term lookup.
    KeyGet,
    /// A probe of the index on head column `column`.
    IndexProbe {
        /// The probed column.
        column: usize,
    },
    /// Every stored row — for native documents, every document.
    FullScan,
}

/// The one estimate of scan cost: the tuples a request scans inside its
/// store, given its access to each container and that container's
/// statistics. A key get or an index probe reads only what it returns; a
/// full scan reads every row.
pub fn estimate(accesses: &[(Access, FragmentStats)]) -> f64 {
    let scanned = |(access, stats): &(Access, FragmentStats)| match access {
        Access::KeyGet | Access::IndexProbe { .. } => 0.0,
        Access::FullScan => stats.rows as f64,
    };
    accesses.iter().map(scanned).sum()
}

/// Cost constants of one system (abstract cost units ≈ microseconds).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Fixed cost per delegated request.
    pub per_request: f64,
    /// Cost per returned tuple.
    pub per_tuple: f64,
    /// Cost per tuple scanned inside the store.
    pub per_scan: f64,
}

/// The full cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Relational store costs.
    pub relational: CostParams,
    /// Key-value store costs.
    pub key_value: CostParams,
    /// Document store costs.
    pub document: CostParams,
    /// Text store costs.
    pub text: CostParams,
    /// Parallel store costs.
    pub parallel: CostParams,
    /// Mediator runtime cost per tuple flowing through an operator.
    pub runtime_per_tuple: f64,
    /// Additive penalty per plan backend whose circuit breaker is open
    /// (or that already failed in the current query) — large enough to
    /// make any healthy plan cheaper than any plan through a tripped
    /// store. When every breaker is closed no penalty applies, so the
    /// fault-free plan choice is identical to a model without it.
    pub open_circuit_penalty: f64,
}

impl CostModel {
    /// Derive cost constants from a latency calibration (ns → µs units).
    pub fn from_latencies(l: &Latencies) -> CostModel {
        let conv = |m: estocada_simkit::LatencyModel| CostParams {
            per_request: m.per_request_ns as f64 / 1_000.0 + 1.0,
            per_tuple: m.per_tuple_ns as f64 / 1_000.0 + 0.1,
            per_scan: m.per_scan_ns as f64 / 1_000.0 + 0.01,
        };
        CostModel {
            relational: conv(l.relational),
            key_value: conv(l.key_value),
            document: conv(l.document),
            text: conv(l.text),
            parallel: conv(l.parallel),
            runtime_per_tuple: 0.05,
            open_circuit_penalty: 1.0e12,
        }
    }

    /// `base` cost plus the unhealthy-backend penalty for `avoided`
    /// backends the plan touches. With `avoided == 0` this is exactly
    /// `base`.
    pub fn penalize(&self, base: f64, avoided: usize) -> f64 {
        base + self.open_circuit_penalty * avoided as f64
    }

    /// Parameters of one system.
    pub fn of(&self, id: SystemId) -> CostParams {
        match id {
            SystemId::Relational => self.relational,
            SystemId::KeyValue => self.key_value,
            SystemId::Document => self.document,
            SystemId::Text => self.text,
            SystemId::Parallel => self.parallel,
        }
    }

    /// Cost of one delegated request returning `rows` tuples after
    /// scanning `scanned` tuples inside the store.
    pub fn request_cost(&self, id: SystemId, rows: f64, scanned: f64) -> f64 {
        let p = self.of(id);
        p.per_request + p.per_tuple * rows.max(0.0) + p.per_scan * scanned.max(0.0)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::from_latencies(&Latencies::datacenter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_requests_are_cheapest() {
        let m = CostModel::default();
        assert!(
            m.request_cost(SystemId::KeyValue, 1.0, 0.0)
                < m.request_cost(SystemId::Document, 1.0, 0.0)
        );
        assert!(
            m.request_cost(SystemId::Document, 1.0, 0.0)
                < m.request_cost(SystemId::Parallel, 1.0, 0.0)
        );
    }

    #[test]
    fn penalty_is_identity_when_all_breakers_closed() {
        let m = CostModel::default();
        assert_eq!(m.penalize(123.5, 0), 123.5);
        // One tripped backend dwarfs any realistic plan cost.
        assert!(m.penalize(0.0, 1) > m.request_cost(SystemId::Parallel, 1e9, 1e9));
    }

    #[test]
    fn only_a_full_scan_is_priced_by_the_rows_it_reads() {
        let stats = |rows| FragmentStats {
            rows,
            ..FragmentStats::default()
        };
        let probe = Access::IndexProbe { column: 1 };
        let accesses = [
            (Access::KeyGet, stats(7)),
            (probe, stats(11)),
            (Access::FullScan, stats(13)),
            (Access::FullScan, stats(17)),
        ];
        assert_eq!(estimate(&accesses), 30.0);
        assert_eq!(estimate(&[]), 0.0);
    }

    #[test]
    fn cost_grows_with_rows_and_scans() {
        let m = CostModel::default();
        assert!(
            m.request_cost(SystemId::Relational, 1000.0, 0.0)
                > m.request_cost(SystemId::Relational, 10.0, 0.0)
        );
        assert!(
            m.request_cost(SystemId::Parallel, 10.0, 100_000.0)
                > m.request_cost(SystemId::Parallel, 10.0, 0.0)
        );
    }
}
