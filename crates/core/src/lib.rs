//! # estocada
//!
//! A reproduction of **ESTOCADA** (Bugiotti et al., ICDE 2016): a flexible
//! hybrid-store mediator that stores one application dataset as a set of
//! possibly overlapping fragments across heterogeneous DMSs — relational,
//! key-value, document, full-text, parallel nested-relational — while the
//! application keeps querying in the native language of each dataset.
//!
//! Internally every fragment is a materialized view described in a
//! relational pivot model with constraints; query answering is view-based
//! rewriting with the provenance-aware Chase & Backchase (`estocada-chase`),
//! translated back into native subqueries per store plus a residual plan
//! executed by the nested-relational runtime (`estocada-engine`).
//!
//! Entry point: [`Estocada`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod analyze;
pub mod catalog;
pub mod connector;
pub mod cost;
pub mod dataset;
pub mod dml;
pub mod error;
pub mod evaluator;
pub mod frontends;
mod layout;
pub mod materialize;
pub mod plancache;
mod planner;
pub mod report;
pub mod resilience;
pub mod system;
pub mod translate;

pub use advisor::{recommend, recommend_under_budget, Action, Recommendation, WorkloadQuery};
pub use analyze::{Code, Diagnostic, Severity, ValidationMode};
pub use catalog::{Catalog, FragmentMeta, FragmentSpec};
pub use connector::Residual;
pub use cost::CostModel;
pub use dataset::{Dataset, DatasetContent, DocData, TableData};
pub use dml::{DmlReport, DmlSteps, FragmentDelta, MaintenanceState};
pub use error::{Error, PlanFailure, Result};
pub use evaluator::{Estocada, QueryOptions, QueryRequest};
pub use plancache::PlanCacheStats;
pub use report::{PlanCacheActivity, QueryResult, Report};
pub use resilience::{
    BackendHealth, BreakerConfig, BreakerState, BreakerTransition, HealthTracker, PlanAttempt,
    QueryResilience, ResilienceReport, RetryPolicy,
};
pub use system::{Latencies, Stores, SystemId};

pub use estocada_simkit::{
    FaultKind, FaultPlan, FaultRule, Injection, SimClock, StoreError, StoreErrorKind,
};
