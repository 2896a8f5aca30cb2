//! The classical Chase & Backchase baseline: enumerate subqueries of the
//! universal plan and chase each one.
//!
//! This is the algorithm the paper calls "a classical powerful tool long
//! considered too inefficient to be of practical relevance": for every
//! subset of universal-plan atoms (ascending by size, pruning supersets of
//! accepted rewritings) it runs a full chase-based containment check. Its
//! cost is exponential in the universal-plan size — the PACB comparison in
//! benchmark `e3_pacb_vs_naive` regenerates the paper's 1–2
//! orders-of-magnitude claim against it.

use crate::pacb::{
    build_candidate, RewriteConfig, RewriteError, RewriteOutcome, RewriteProblem, RewriteStats,
    Verdict,
};
use estocada_pivot::Cq;
use std::collections::BTreeSet;

/// Extra knobs of the naive enumeration.
#[derive(Debug, Clone, Copy)]
pub struct NaiveConfig {
    /// Shared rewriting knobs (chase budgets).
    pub rewrite: RewriteConfig,
    /// Upper bound on candidate subset size (defaults to the universal-plan
    /// size).
    pub max_subset: Option<usize>,
    /// Upper bound on the number of candidate checks.
    pub max_checks: usize,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        NaiveConfig {
            rewrite: RewriteConfig::default(),
            max_subset: None,
            max_checks: 5_000_000,
        }
    }
}

/// Rewrite by exhaustive backchase over subsets of the universal plan.
pub fn naive_rewrite(
    problem: &RewriteProblem,
    cfg: &NaiveConfig,
) -> Result<RewriteOutcome, RewriteError> {
    let rewriter = problem.rewriter();
    let up = rewriter.universal_plan(&problem.query, &cfg.rewrite.chase)?;
    let mut stats = RewriteStats {
        forward: up.stats,
        universal_plan_atoms: up.atoms.len(),
        ..RewriteStats::default()
    };
    let universal_plan_cq = Cq::new(
        format!("{}_up", problem.query.name).as_str(),
        up.head.clone(),
        up.atoms.clone(),
    );
    let n = up.atoms.len();
    let max_size = cfg.max_subset.unwrap_or(n).min(n);

    let mut accepted: Vec<BTreeSet<usize>> = Vec::new();
    let mut rewritings: Vec<Cq> = Vec::new();
    let mut complete = true;
    let mut checks = 0usize;

    'outer: for size in 1..=max_size {
        let mut indices: Vec<usize> = (0..size).collect();
        loop {
            let subset: BTreeSet<usize> = indices.iter().copied().collect();
            // Minimality pruning: skip supersets of accepted rewritings.
            if !accepted.iter().any(|a| a.is_subset(&subset)) {
                checks += 1;
                if checks > cfg.max_checks {
                    complete = false;
                    break 'outer;
                }
                stats.candidates += 1;
                let candidate = build_candidate(
                    &problem.query,
                    &up.head,
                    &up.atoms,
                    &subset,
                    rewritings.len(),
                );
                let (verdict, cs) =
                    rewriter.check_candidate(&candidate, &problem.query, &cfg.rewrite);
                stats.absorb(cs);
                complete &= verdict != Verdict::Undecided;
                if verdict == Verdict::Accepted {
                    stats.accepted += 1;
                    accepted.push(subset);
                    rewritings.push(candidate);
                }
            }
            // Next combination of `size` out of `n`.
            let mut i = size;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if indices[i] != i + n - size {
                    indices[i] += 1;
                    for j in i + 1..size {
                        indices[j] = indices[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    // Exhausted all combinations of this size.
                    indices.clear();
                    break;
                }
            }
            if indices.is_empty() {
                break;
            }
        }
    }

    rewritings.sort_by_key(|r| r.body.len());
    Ok(RewriteOutcome {
        rewritings,
        universal_plan: universal_plan_cq,
        complete,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacb::pacb_rewrite;
    use estocada_pivot::{CqBuilder, ViewDef};

    fn check_agreement(problem: &RewriteProblem) {
        let naive = naive_rewrite(problem, &NaiveConfig::default()).unwrap();
        let pacb = pacb_rewrite(problem, &RewriteConfig::default()).unwrap();
        let canon = |rs: &[Cq]| {
            let mut v: Vec<String> = rs.iter().map(|r| format!("{}", r.canonicalize())).collect();
            v.sort();
            v
        };
        assert_eq!(
            canon(&naive.rewritings),
            canon(&pacb.rewritings),
            "naive and PACB disagree"
        );
    }

    #[test]
    fn agrees_with_pacb_on_single_view() {
        let v = ViewDef::new(
            CqBuilder::new("V")
                .head_vars(["x", "z"])
                .atom("R", |a| a.v("x").v("y"))
                .atom("S", |a| a.v("y").v("z"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["x", "z"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("S", |a| a.v("y").v("z"))
            .build();
        check_agreement(&RewriteProblem::new(q, vec![v]));
    }

    #[test]
    fn agrees_with_pacb_on_join_of_views() {
        let v1 = ViewDef::new(
            CqBuilder::new("V1")
                .head_vars(["x", "y"])
                .atom("R", |a| a.v("x").v("y"))
                .build(),
        );
        let v2 = ViewDef::new(
            CqBuilder::new("V2")
                .head_vars(["y", "z"])
                .atom("S", |a| a.v("y").v("z"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["x", "z"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("S", |a| a.v("y").v("z"))
            .build();
        check_agreement(&RewriteProblem::new(q, vec![v1, v2]));
    }

    #[test]
    fn agrees_with_pacb_with_redundant_views() {
        let views = vec![
            ViewDef::new(
                CqBuilder::new("Va")
                    .head_vars(["x", "y"])
                    .atom("R", |a| a.v("x").v("y"))
                    .build(),
            ),
            ViewDef::new(
                CqBuilder::new("Vb")
                    .head_vars(["x", "y"])
                    .atom("R", |a| a.v("x").v("y"))
                    .build(),
            ),
            ViewDef::new(
                CqBuilder::new("Vc")
                    .head_vars(["x"])
                    .atom("R", |a| a.v("x").v("y"))
                    .build(),
            ),
        ];
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        check_agreement(&RewriteProblem::new(q, views));
    }

    #[test]
    fn subset_size_cap_limits_search() {
        let v1 = ViewDef::new(
            CqBuilder::new("V1")
                .head_vars(["x", "y"])
                .atom("R", |a| a.v("x").v("y"))
                .build(),
        );
        let v2 = ViewDef::new(
            CqBuilder::new("V2")
                .head_vars(["y", "z"])
                .atom("S", |a| a.v("y").v("z"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["x", "z"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("S", |a| a.v("y").v("z"))
            .build();
        let cfg = NaiveConfig {
            max_subset: Some(1),
            ..NaiveConfig::default()
        };
        let out = naive_rewrite(&RewriteProblem::new(q, vec![v1, v2]), &cfg).unwrap();
        // The only rewriting needs both views — size cap 1 finds nothing.
        assert!(out.rewritings.is_empty());
    }
}
