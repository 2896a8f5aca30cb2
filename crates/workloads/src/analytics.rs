//! Analytics workload: Zipf-skewed GROUP BY / HAVING aggregates over the
//! marketplace deployments — the "reporting" counterpart to the W1
//! lookup workload, exercising the aggregation frontend and whole-query
//! delegation over rewritten hybrid plans.
//!
//! Skew matters here the same way it does for W1: dashboards re-run the
//! same per-user / per-category rollups for hot users and hot categories,
//! so the generator samples both through [`Zipf`].
//!
//! A note on semantics: conjunctive cores are evaluated under set
//! semantics, so aggregates range over *distinct* core tuples (see
//! `estocada::frontends::sql`) — wherever the grouping runs: every
//! template here is one SQL block or one parallel scan, so the store
//! groups beside the data and ships the groups. Every query below
//! aggregates a key column (`COUNT(o.oid)`, `COUNT(l.lid)`) alongside the
//! measures, which makes the core tuples unique per underlying row and the
//! sums/averages exact; a query that does not draws the analyzer's `W007`
//! warning, and the tests pin that none of these does.

use crate::marketplace::CATEGORIES;
use crate::zipf::Zipf;
use estocada::{Estocada, QueryResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Analytics workload shape.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticsConfig {
    /// Number of queries to generate.
    pub queries: usize,
    /// User-id domain (match the marketplace's `users`).
    pub users: usize,
    /// Zipf skew of user/category sampling (0 = uniform).
    pub skew: f64,
    /// HAVING threshold of the big-spender rollup.
    pub min_total: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnalyticsConfig {
    fn default() -> Self {
        AnalyticsConfig {
            queries: 40,
            users: 1_000,
            skew: 0.9,
            min_total: 200,
            seed: 77,
        }
    }
}

/// One analytics query template with its sampled parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyticsQuery {
    /// Per-category order volume, revenue, and price extrema (all five
    /// aggregate functions over one GROUP BY).
    CategoryVolume,
    /// Users whose total spend clears a threshold (GROUP BY + HAVING on an
    /// aggregate).
    BigSpenders {
        /// Minimum total spend.
        min_total: i64,
    },
    /// Order counts per (user tier × product category) — a grouped
    /// cross-fragment join.
    TierCategoryMatrix,
    /// Per-product view counts and dwell time within one (hot) category of
    /// the web logs.
    CategoryEngagement {
        /// Sampled product category.
        category: String,
    },
    /// One (hot) user's spend per category.
    UserSpendByCategory {
        /// Sampled user id.
        uid: i64,
    },
}

/// Render a query to mini-SQL.
pub fn analytics_sql(q: &AnalyticsQuery) -> String {
    match q {
        AnalyticsQuery::CategoryVolume => "SELECT o.category, COUNT(o.oid) AS orders, \
             SUM(o.amount) AS revenue, MIN(o.amount) AS cheapest, MAX(o.amount) AS priciest \
             FROM Orders o GROUP BY o.category"
            .to_string(),
        AnalyticsQuery::BigSpenders { min_total } => format!(
            "SELECT o.uid, COUNT(o.oid) AS orders, SUM(o.amount) AS total \
             FROM Orders o GROUP BY o.uid HAVING SUM(o.amount) >= {min_total}"
        ),
        AnalyticsQuery::TierCategoryMatrix => "SELECT u.tier, o.category, COUNT(o.oid) AS orders \
             FROM Users u, Orders o WHERE u.uid = o.uid GROUP BY u.tier, o.category"
            .to_string(),
        AnalyticsQuery::CategoryEngagement { category } => format!(
            "SELECT l.pid, COUNT(l.lid) AS views, AVG(l.dwell_ms) AS avg_dwell \
             FROM WebLog l WHERE l.category = '{category}' GROUP BY l.pid"
        ),
        AnalyticsQuery::UserSpendByCategory { uid } => format!(
            "SELECT o.category, COUNT(o.oid) AS orders, SUM(o.amount) AS spend \
             FROM Orders o WHERE o.uid = {uid} GROUP BY o.category"
        ),
    }
}

/// Generate a deterministic, Zipf-skewed analytics workload.
pub fn analytics_workload(cfg: &AnalyticsConfig) -> Vec<AnalyticsQuery> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let user_zipf = Zipf::new(cfg.users.max(1), cfg.skew);
    let cat_zipf = Zipf::new(CATEGORIES.len(), cfg.skew);
    (0..cfg.queries)
        .map(|_| match rng.random_range(0..5) {
            0 => AnalyticsQuery::CategoryVolume,
            1 => AnalyticsQuery::BigSpenders {
                min_total: cfg.min_total,
            },
            2 => AnalyticsQuery::TierCategoryMatrix,
            3 => AnalyticsQuery::CategoryEngagement {
                category: CATEGORIES[cat_zipf.sample(&mut rng)].to_string(),
            },
            _ => AnalyticsQuery::UserSpendByCategory {
                uid: user_zipf.sample(&mut rng) as i64,
            },
        })
        .collect()
}

/// Run one analytics query against a deployment.
pub fn run_analytics_query(est: &Estocada, q: &AnalyticsQuery) -> estocada::Result<QueryResult> {
    est.query_sql(&analytics_sql(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marketplace::{generate, MarketplaceConfig};
    use crate::scenarios::{deploy_baseline, deploy_kv_migrated, deploy_materialized_join};
    use estocada::Latencies;

    fn small() -> crate::marketplace::Marketplace {
        generate(MarketplaceConfig {
            users: 50,
            products: 24,
            orders: 160,
            log_entries: 300,
            skew: 0.8,
            seed: 9,
        })
    }

    fn family() -> Vec<AnalyticsQuery> {
        vec![
            AnalyticsQuery::CategoryVolume,
            AnalyticsQuery::BigSpenders { min_total: 50 },
            AnalyticsQuery::TierCategoryMatrix,
            AnalyticsQuery::CategoryEngagement {
                category: "laptop".into(),
            },
            AnalyticsQuery::UserSpendByCategory { uid: 1 },
        ]
    }

    #[test]
    fn workload_is_deterministic_and_skewed() {
        let cfg = AnalyticsConfig {
            queries: 200,
            users: 100,
            ..AnalyticsConfig::default()
        };
        let a = analytics_workload(&cfg);
        let b = analytics_workload(&cfg);
        assert_eq!(a, b, "same seed must give the same workload");
        // Skewed user sampling: the hottest user dominates the tail.
        let hot = a
            .iter()
            .filter(|q| matches!(q, AnalyticsQuery::UserSpendByCategory { uid: 0 }))
            .count();
        let cold = a
            .iter()
            .filter(|q| matches!(q, AnalyticsQuery::UserSpendByCategory { uid } if *uid >= 50))
            .count();
        assert!(hot >= cold, "Zipf sampling should favor user 0");
    }

    /// The whole query family runs over all three builtin deployments
    /// (DDL under `ValidationMode::Strict`); every deployment — whatever
    /// fragments its plan reads — returns the same rows, at a one-row
    /// batch as at the default batch size.
    #[test]
    fn family_runs_on_all_deployments_and_agrees() {
        let m = small();
        let deployments = [
            deploy_baseline(&m, Latencies::zero()),
            deploy_kv_migrated(&m, Latencies::zero()),
            deploy_materialized_join(&m, Latencies::zero()),
        ];
        for q in family() {
            let sql = analytics_sql(&q);
            let mut runs = Vec::new();
            for est in &deployments {
                for batch_size in [1024, 1] {
                    let r = est
                        .query(&sql)
                        .with_batch_size(batch_size)
                        .run()
                        .unwrap_or_else(|e| panic!("{q:?} failed: {e}"));
                    // Every template aggregates a key column: no W007.
                    assert_eq!(r.report.diagnostics, Vec::new(), "{q:?}");
                    let mut rows = r.rows;
                    rows.sort();
                    runs.push((r.columns, rows));
                }
            }
            assert!(
                !runs[0].1.is_empty(),
                "{q:?} should produce rows on the test data"
            );
            for run in &runs[1..] {
                assert_eq!(run, &runs[0], "{q:?} differs across deployments");
            }
        }
    }

    #[test]
    fn having_filters_groups() {
        let m = small();
        let est = deploy_baseline(&m, Latencies::zero());
        let all = run_analytics_query(&est, &AnalyticsQuery::BigSpenders { min_total: 0 })
            .unwrap()
            .rows;
        let some = run_analytics_query(&est, &AnalyticsQuery::BigSpenders { min_total: 200 })
            .unwrap()
            .rows;
        assert!(
            some.len() < all.len(),
            "HAVING threshold should drop groups ({} vs {})",
            some.len(),
            all.len()
        );
        assert!(!some.is_empty(), "some users should clear the threshold");
    }
}
