//! # estocada-workloads
//!
//! Deterministic dataset and workload generators for the ESTOCADA
//! reproduction: the paper's marketplace scenario (Section II) and the
//! AMPLab Big Data Benchmark used by the demonstration (Section IV). Both
//! replace the proprietary Datalyse e-commerce data with synthetic
//! equivalents of the same schema and distribution shape (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod bigdata;
pub mod marketplace;
pub mod readwrite;
pub mod scenarios;
pub mod zipf;

pub use analytics::{
    analytics_sql, analytics_workload, run_analytics_query, AnalyticsConfig, AnalyticsQuery,
};
pub use bigdata::{generate as generate_bigdata, BigDataConfig};
pub use marketplace::{
    generate as generate_marketplace, w1_workload, Marketplace, MarketplaceConfig, W1Query,
};
pub use readwrite::{run_rw_workload, rw_workload, stale_fragments, RwConfig, RwOp, RwSummary};
pub use scenarios::{
    cart_kv_view, cart_pattern, deploy_baseline, deploy_kv_migrated, deploy_materialized_join,
    personalized_sql, pref_sql, run_w1_exec_time, run_w1_query, user_orders_sql,
};
pub use zipf::Zipf;
