//! Chase termination analysis: a **certificate lattice** over constraint
//! sets, from plain weak acyclicity up through EGD-aware contraction,
//! super-weak acyclicity, and stratification.
//!
//! The *position graph* has a node per (relation, position) a TGD
//! mentions. For every TGD and every frontier variable `x` — a premise
//! variable the conclusion copies — at premise position `p`:
//!
//! - a **regular** edge `p → q` for every conclusion position `q` where `x`
//!   occurs, and
//! - a **special** edge `p ⇒ q` for every conclusion position `q` holding an
//!   existential variable.
//!
//! A premise variable the conclusion does not copy draws no edge (Fagin et
//! al., Definition 3.7): its value never reaches the facts a firing adds,
//! so it cannot carry a null around a cycle. The TGD set is weakly acyclic
//! iff no cycle passes through a special edge; the chase then terminates on
//! every instance (and, by Fagin et al.'s data-exchange theorem, stays
//! terminating when arbitrary EGDs join the set).
//!
//! Positions are dense ids — `0..n` in (relation name, position) order —
//! so the analysis is index arithmetic over adjacency lists. One
//! [`PositionGraph`] is the plain graph, its EGD contraction (a quotient
//! of the same type) and the evidence a certificate carries; one SCC
//! routine finds the cycles of the position graph, of the super-weak
//! rung's null-creation graph and of stratification's precedence graph.
//! [`certify`] climbs a lattice of increasingly precise checks and reports
//! the strongest verdict it can prove, with evidence:
//!
//! - [`TerminationCertificate::WeaklyAcyclic`] — the position graph is free
//!   of special-edge cycles. When EGDs coexist with special edges, their
//!   merges are modelled conservatively as **position contractions** (the
//!   premise positions of the two equated variables are unioned into one
//!   node); key EGDs equate values at the *same* position, so the
//!   contraction is a no-op and keyed deployments certify here instead of
//!   degrading to `Unknown`. A contraction-free graph is acyclic only if
//!   the plain graph is, so this rung is strictly more conservative than
//!   the Fagin et al. criterion — hence sound.
//! - [`TerminationCertificate::SuperWeaklyAcyclic`] — a null-flow
//!   refinement for EGD-free sets the plain graph rejects: per existential
//!   variable, a *null class* tracks the positions its nulls can ever
//!   occupy (`occ`), and a TGD can re-fire on a class only if **every**
//!   premise position of some variable lies inside `occ`. If the induced
//!   null-creation graph is acyclic, only finitely many nulls exist in any
//!   chase sequence, so the chase terminates even though a special-edge
//!   cycle exists. The discharged plain-graph cycle edges are carried as
//!   evidence.
//! - [`TerminationCertificate::Stratified`] — the constraint set splits
//!   into strata along the firing/precedence graph (`c₁ → c₂` iff firing
//!   `c₁` can touch a relation `c₂` reads; an EGD's footprint is the set
//!   of relations where a null it can actually merge may occur, computed
//!   from the same null-flow analysis). Each stratum certifies on its own
//!   via a non-stratified rung and later strata can never re-enable
//!   earlier ones, so the chase terminates under any firing order. The
//!   strata are the proof's evidence, not a schedule: the driver
//!   ([`mod@crate::chase`]) fires the whole set round-robin and reaches
//!   the same fixpoint.
//! - [`TerminationCertificate::NonTerminating`] carries a concrete witness
//!   cycle through a special edge — a value can flow around the cycle and
//!   force a fresh null at each lap, so the restricted chase can run
//!   forever on some instance.
//! - [`TerminationCertificate::Unknown`] — every rung failed. The reason
//!   is **structured** ([`UnknownReason`]) and names the exact blocking
//!   constraint pair ([`TerminationCertificate::blocking_pair`]): the EGD
//!   whose merge closes the contracted cycle and the TGD owning the
//!   special edge the cycle runs through. The budget guard stays on.
//!
//! [`ChaseConfig::with_certificate`] lifts the round/fact budgets for every
//! rung that proves termination (`WeaklyAcyclic`, `SuperWeaklyAcyclic`,
//! `Stratified`) and leaves them in place otherwise.

use crate::chase::ChaseConfig;
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::{Atom, Constraint, Symbol, Term, Var};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// A position: (relation, argument position).
pub type Pos = (Symbol, usize);

/// Render a position as `Rel.i`.
fn pos_str(p: &Pos) -> String {
    format!("{}.{}", p.0.as_str(), p.1)
}

/// The position dependency graph of a TGD set on dense position ids:
/// position `i` is `nodes[i]`, and ids follow (relation name, position)
/// order, so edge lists sorted by id are sorted by name too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionGraph {
    /// Every (relation, position) a TGD mentions, in id order.
    pub nodes: Vec<Pos>,
    /// Regular edges `(from, to)` as ids into `nodes`: a frontier variable
    /// is copied from → to. Sorted, without duplicates.
    pub regular: Vec<(usize, usize)>,
    /// Special edges `(from, to)` as ids into `nodes`: firing reads a
    /// frontier value at `from` and invents a fresh null at `to`. Sorted,
    /// without duplicates.
    pub special: Vec<(usize, usize)>,
}

/// One stratum of a [`TerminationCertificate::Stratified`] proof: a subset
/// of the constraint set that certifies on its own. Later strata never
/// write into relations earlier strata read, so no firing of a later
/// stratum re-enables an earlier one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratum {
    /// Indices into the certified constraint slice, ascending.
    pub members: Vec<usize>,
    /// Constraint names, parallel to `members` (for diagnostics).
    pub names: Vec<Symbol>,
    /// The stratum's own certificate — always a non-stratified rung that
    /// guarantees termination (a stratified verdict is only issued when
    /// every stratum certifies).
    pub certificate: TerminationCertificate,
}

/// Structured explanation of an [`TerminationCertificate::Unknown`]
/// verdict, stable enough for tests to pin and precise enough to name the
/// first blocking constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnknownReason {
    /// EGD-induced position merges close a special-edge cycle that the
    /// plain position graph does not have, and stratification could not
    /// separate the participants.
    EgdContractionCycle {
        /// First schema-order EGD whose merge lies on the witness cycle.
        egd: Symbol,
        /// The TGD owning the special edge the witness cycle enters
        /// through.
        tgd: Symbol,
        /// Witness cycle in the *contracted* position graph (first ==
        /// last; first edge is special). Merged position classes are
        /// rendered by their smallest member.
        cycle: Vec<Pos>,
    },
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::EgdContractionCycle { egd, tgd, cycle } => write!(
                f,
                "EGD {egd} merges positions into a special-edge cycle through TGD {tgd} \
                 ({}); budget guard retained",
                walk_str(cycle)
            ),
        }
    }
}

/// Verdict of the static termination analysis over a constraint set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TerminationCertificate {
    /// The (possibly EGD-contracted) position graph has no special-edge
    /// cycle: the chase reaches a fixpoint on every instance, so the
    /// budget guard is provably unnecessary.
    WeaklyAcyclic {
        /// The position graph the proof is over (contracted when EGDs
        /// coexist with special edges).
        graph: PositionGraph,
    },
    /// The plain position graph has special-edge cycles, but the null-flow
    /// refinement proves no null class can feed its own creation: only
    /// finitely many nulls arise in any chase sequence, so the chase
    /// terminates. Only issued for EGD-free sets.
    SuperWeaklyAcyclic {
        /// The plain position graph.
        graph: PositionGraph,
        /// The special edges on a cycle that the refinement discharged,
        /// as ids into `graph.nodes` (sorted).
        discharged: Vec<(usize, usize)>,
    },
    /// The constraint set splits into ≥ 2 strata along the precedence
    /// graph, each certifying termination on its own, so the chase of the
    /// whole set terminates.
    Stratified {
        /// The strata in topological order of the precedence graph.
        strata: Vec<Stratum>,
    },
    /// A cycle through a special edge exists and no refinement discharges
    /// it: the chase may generate fresh nulls forever. `cycle` is a
    /// concrete witness walk in the position graph, `cycle[0] ==
    /// cycle[last]`, whose first step is the offending special edge.
    NonTerminating {
        /// Witness cycle (first == last; first edge is special).
        cycle: Vec<Pos>,
    },
    /// No guarantee either way: every rung of the lattice failed, but the
    /// failure is not a non-termination witness (the contraction
    /// over-approximates EGD behaviour). The budget guard stays on.
    Unknown {
        /// Why no verdict was possible, naming the blocking constraints.
        reason: UnknownReason,
    },
}

impl TerminationCertificate {
    /// `true` iff the chase is statically proven to terminate — only then
    /// may the budget guard be dropped.
    pub fn guarantees_termination(&self) -> bool {
        matches!(
            self,
            TerminationCertificate::WeaklyAcyclic { .. }
                | TerminationCertificate::SuperWeaklyAcyclic { .. }
                | TerminationCertificate::Stratified { .. }
        )
    }

    /// The witness cycle of a `NonTerminating` verdict, if any.
    pub fn cycle(&self) -> Option<&[Pos]> {
        match self {
            TerminationCertificate::NonTerminating { cycle } => Some(cycle),
            _ => None,
        }
    }

    /// For an `Unknown` verdict, the exact (EGD, TGD) pair that blocks
    /// certification — the actionable "why is my deployment Unknown"
    /// answer.
    pub fn blocking_pair(&self) -> Option<(Symbol, Symbol)> {
        match self {
            TerminationCertificate::Unknown {
                reason: UnknownReason::EgdContractionCycle { egd, tgd, .. },
            } => Some((*egd, *tgd)),
            _ => None,
        }
    }

    /// Short lattice-rung name, stable for snapshots.
    pub fn rung(&self) -> &'static str {
        match self {
            TerminationCertificate::WeaklyAcyclic { .. } => "weakly acyclic",
            TerminationCertificate::SuperWeaklyAcyclic { .. } => "super-weakly acyclic",
            TerminationCertificate::Stratified { .. } => "stratified",
            TerminationCertificate::NonTerminating { .. } => "non-terminating",
            TerminationCertificate::Unknown { .. } => "unknown",
        }
    }
}

/// Render a walk as `Rel.i → Rel.j → …`.
fn walk_str(walk: &[Pos]) -> String {
    walk.iter().map(pos_str).collect::<Vec<_>>().join(" → ")
}

impl fmt::Display for TerminationCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerminationCertificate::WeaklyAcyclic { graph } => write!(
                f,
                "weakly acyclic ({} positions, {} regular / {} special edges)",
                graph.nodes.len(),
                graph.regular.len(),
                graph.special.len(),
            ),
            TerminationCertificate::SuperWeaklyAcyclic { graph, discharged } => {
                let first = discharged
                    .first()
                    .map(|&(a, b)| {
                        format!(
                            "{} ⇒ {}",
                            pos_str(&graph.nodes[a]),
                            pos_str(&graph.nodes[b])
                        )
                    })
                    .unwrap_or_default();
                write!(
                    f,
                    "super-weakly acyclic ({} positions, {} regular / {} special edges; \
                     {} plain cycle edge(s) discharged, first {first})",
                    graph.nodes.len(),
                    graph.regular.len(),
                    graph.special.len(),
                    discharged.len(),
                )
            }
            TerminationCertificate::Stratified { strata } => {
                write!(f, "stratified ({} strata:", strata.len())?;
                for (i, s) in strata.iter().enumerate() {
                    let names: Vec<String> = s.names.iter().map(|n| n.to_string()).collect();
                    let sep = if i == 0 { " " } else { "; " };
                    write!(f, "{sep}{{{}}}: {}", names.join(", "), s.certificate.rung())?;
                }
                write!(f, ")")
            }
            TerminationCertificate::NonTerminating { cycle } => {
                write!(f, "non-terminating: special-edge cycle {}", walk_str(cycle))
            }
            TerminationCertificate::Unknown { reason } => write!(f, "unknown: {reason}"),
        }
    }
}

/// The positions of `atoms`, one per argument.
fn positions(atoms: &[Atom]) -> impl Iterator<Item = Pos> + '_ {
    atoms
        .iter()
        .flat_map(|a| (0..a.args.len()).map(move |i| (a.pred, i)))
}

/// Position ids of each variable of one constraint side.
type VarPositions = FastMap<Var, Vec<usize>>;

/// Dense ids for every position a constraint set mentions: the TGDs'
/// positions first, as `0..nodes.len()` in (relation name, position) order
/// — the position graph's nodes —, then the positions only EGD premises
/// mention, in constraint order. A union of EGD positions can link two
/// graph positions through one of those, so the contraction needs them.
struct Positions {
    ids: FastMap<Pos, usize>,
    nodes: Vec<Pos>,
}

impl Positions {
    fn new(constraints: &[Constraint]) -> Positions {
        let mut nodes: Vec<Pos> = constraints
            .iter()
            .filter_map(|c| match c {
                Constraint::Tgd(t) => Some(positions(&t.premise).chain(positions(&t.conclusion))),
                Constraint::Egd(_) => None,
            })
            .flatten()
            .collect();
        // By name: symbol interning order is session-dependent.
        nodes.sort_by_cached_key(|&(rel, i)| (rel.as_str(), i));
        nodes.dedup();
        let mut ids: FastMap<Pos, usize> = nodes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        for c in constraints {
            if let Constraint::Egd(e) = c {
                for p in positions(&e.premise) {
                    let next = ids.len();
                    ids.entry(p).or_insert(next);
                }
            }
        }
        Positions { ids, nodes }
    }

    /// Position ids of each variable across `atoms` (first-occurrence
    /// order, deduplicated).
    fn of_vars(&self, atoms: &[Atom]) -> VarPositions {
        let mut m = VarPositions::default();
        for a in atoms {
            for (i, t) in a.args.iter().enumerate() {
                let (Term::Var(v), Some(&id)) = (t, self.ids.get(&(a.pred, i))) else {
                    continue;
                };
                let e = m.entry(*v).or_default();
                if !e.contains(&id) {
                    e.push(id);
                }
            }
        }
        m
    }
}

impl PositionGraph {
    /// The plain position graph of the TGDs in `constraints`, and the
    /// owner of each special edge: the index of the first TGD drawing it.
    fn build(constraints: &[Constraint], ps: &Positions) -> (PositionGraph, Vec<usize>) {
        let mut regular = Vec::new();
        let mut special = Vec::new();
        for (ci, c) in constraints.iter().enumerate() {
            let Constraint::Tgd(t) = c else { continue };
            let premise = ps.of_vars(&t.premise);
            let conclusion = ps.of_vars(&t.conclusion);
            let invented: Vec<usize> = t
                .existentials()
                .iter()
                .filter_map(|v| conclusion.get(v))
                .flatten()
                .copied()
                .collect();
            for (v, froms) in &premise {
                let Some(copies) = conclusion.get(v) else {
                    continue;
                };
                for &p in froms {
                    regular.extend(copies.iter().map(|&q| (p, q)));
                    special.extend(invented.iter().map(|&q| (p, q, ci)));
                }
            }
        }
        PositionGraph::from_edges(ps.nodes.clone(), regular, special)
    }

    /// Sort and deduplicate the edges; a special edge `(from, to, owner)`
    /// keeps its smallest owner.
    fn from_edges(
        nodes: Vec<Pos>,
        mut regular: Vec<(usize, usize)>,
        mut special: Vec<(usize, usize, usize)>,
    ) -> (PositionGraph, Vec<usize>) {
        regular.sort_unstable();
        regular.dedup();
        special.sort_unstable();
        special.dedup_by_key(|&mut (from, to, _)| (from, to));
        let owners = special.iter().map(|&(_, _, owner)| owner).collect();
        let special = special
            .into_iter()
            .map(|(from, to, _)| (from, to))
            .collect();
        (
            PositionGraph {
                nodes,
                regular,
                special,
            },
            owners,
        )
    }

    /// The quotient graph: every node is replaced by its class
    /// representative `class[i]` — the smallest id of its class, so
    /// `class[i] <= i` —, representatives are renumbered in id order, and
    /// the special-edge owners come along.
    fn quotient(&self, owners: &[usize], class: &[usize]) -> (PositionGraph, Vec<usize>) {
        let mut image = vec![0; self.nodes.len()];
        let mut nodes = Vec::new();
        for (i, &rep) in class.iter().enumerate() {
            if rep == i {
                image[i] = nodes.len();
                nodes.push(self.nodes[i]);
            } else {
                image[i] = image[rep];
            }
        }
        let regular = self.regular.iter().map(|&(a, b)| (image[a], image[b]));
        let special = self.special.iter().zip(owners);
        PositionGraph::from_edges(
            nodes,
            regular.collect(),
            special
                .map(|(&(a, b), &owner)| (image[a], image[b], owner))
                .collect(),
        )
    }

    /// The special edges on a cycle, as indices into `special`
    /// (ascending), and a witness cycle through the first of them; `None`
    /// when the graph is weakly acyclic.
    fn special_cycle(&self) -> Option<(Vec<usize>, Vec<Pos>)> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for &(a, b) in self.regular.iter().chain(&self.special) {
            adj[a].push(b);
        }
        for out in &mut adj {
            out.sort_unstable();
            out.dedup();
        }
        let (comp, _) = scc(&adj);
        let offending: Vec<usize> = (0..self.special.len())
            .filter(|&i| {
                let (a, b) = self.special[i];
                comp[a] == comp[b]
            })
            .collect();
        let first = self.special[*offending.first()?];
        let cycle = witness_cycle(first, &adj, &comp);
        Some((
            offending,
            cycle.into_iter().map(|i| self.nodes[i]).collect(),
        ))
    }
}

/// Statically analyse `constraints` for chase termination, climbing the
/// certificate lattice described in the module docs.
pub fn certify(constraints: &[Constraint]) -> TerminationCertificate {
    certify_with(constraints, true)
}

/// `allow_stratified` is the recursion guard: per-stratum certification
/// must come from a non-stratified rung.
fn certify_with(constraints: &[Constraint], allow_stratified: bool) -> TerminationCertificate {
    let ps = Positions::new(constraints);
    let (graph, owners) = PositionGraph::build(constraints, &ps);
    let has_egds = constraints.iter().any(|c| matches!(c, Constraint::Egd(_)));
    let stratified = || {
        if !allow_stratified {
            return None;
        }
        let strata = certified_strata(constraints, &ps)?;
        Some(TerminationCertificate::Stratified { strata })
    };

    if let Some((offending, cycle)) = graph.special_cycle() {
        // Plain weak acyclicity fails. Try the refinement rungs before
        // declaring non-termination.
        if !has_egds && super_weakly_acyclic(&null_flow(constraints, &ps)) {
            let discharged = offending.iter().map(|&i| graph.special[i]).collect();
            return TerminationCertificate::SuperWeaklyAcyclic { graph, discharged };
        }
        return stratified().unwrap_or(TerminationCertificate::NonTerminating { cycle });
    }
    if !has_egds || graph.special.is_empty() {
        return TerminationCertificate::WeaklyAcyclic { graph };
    }
    match contract(constraints, &ps, graph, &owners) {
        Ok(graph) => TerminationCertificate::WeaklyAcyclic { graph },
        Err(reason) => stratified().unwrap_or(TerminationCertificate::Unknown { reason }),
    }
}

// ---------------------------------------------------------------------------
// EGD contraction
// ---------------------------------------------------------------------------

/// The root of `p`'s class, halving the path on the way up.
fn find(parent: &mut [usize], mut p: usize) -> usize {
    while parent[p] != p {
        parent[p] = parent[parent[p]];
        p = parent[p];
    }
    p
}

/// Union two classes under the smaller root, so a class's root is its
/// smallest id; `true` iff they were distinct.
fn union(parent: &mut [usize], a: usize, b: usize) -> bool {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra == rb {
        return false;
    }
    parent[ra.max(rb)] = ra.min(rb);
    true
}

/// Model EGD merges as position contractions: for each EGD equating two
/// variables, union every premise position either variable can occupy (the
/// merged value may afterwards sit at any of them). Key EGDs equate values
/// at the same position, so they contract nothing. Returns the contracted
/// graph when it stays free of special-edge cycles, else the structured
/// reason naming the blocking (EGD, TGD) pair.
fn contract(
    constraints: &[Constraint],
    ps: &Positions,
    graph: PositionGraph,
    owners: &[usize],
) -> Result<PositionGraph, UnknownReason> {
    let mut parent: Vec<usize> = (0..ps.ids.len()).collect();
    // (EGD name, merged position): schema-order record of every
    // non-trivial union, for blame assignment.
    let mut merges: Vec<(Symbol, usize)> = Vec::new();
    for c in constraints {
        let Constraint::Egd(e) = c else { continue };
        let (Term::Var(a), Term::Var(b)) = &e.equal else {
            continue;
        };
        let vars = ps.of_vars(&e.premise);
        let (Some(pa), Some(pb)) = (vars.get(a), vars.get(b)) else {
            continue;
        };
        let all: Vec<usize> = pa.iter().chain(pb).copied().collect();
        for w in all.windows(2) {
            if union(&mut parent, w[0], w[1]) {
                merges.push((e.name, w[0]));
            }
        }
    }
    let Some(&(first_egd, _)) = merges.first() else {
        // Every EGD is key-shaped: the contracted graph IS the plain graph.
        return Ok(graph);
    };

    // A graph position's root is the smallest graph position of its class
    // (graph ids precede the EGD-only ones), which renders the class.
    let class: Vec<usize> = (0..graph.nodes.len())
        .map(|p| find(&mut parent, p))
        .collect();
    let (contracted, owners) = graph.quotient(owners, &class);
    let Some((offending, cycle)) = contracted.special_cycle() else {
        return Ok(contracted);
    };
    // Blame the first schema-order EGD whose merge lies on the witness
    // cycle; fall back to the first merging EGD.
    let egd = merges
        .iter()
        .find(|&&(_, p)| {
            let root = find(&mut parent, p);
            root < graph.nodes.len() && cycle.contains(&graph.nodes[root])
        })
        .map_or(first_egd, |&(name, _)| name);
    let tgd = constraints[owners[offending[0]]].name();
    Err(UnknownReason::EgdContractionCycle { egd, tgd, cycle })
}

// ---------------------------------------------------------------------------
// Null-flow analysis (super-weak acyclicity + EGD footprints)
// ---------------------------------------------------------------------------

/// One *null class* per (TGD, existential variable): `occ` over-approximates
/// the set of positions where nulls of the class can ever occur, across any
/// chase sequence — seeded with the existential's conclusion positions,
/// closed under frontier copying (a class-N null can bind premise variable
/// `v` only when **every** premise position of `v` lies inside `occ(N)`)
/// and under EGD merges (two mergeable nulls can each end up wherever the
/// other occurs).
struct NullFlow {
    /// The constraint index of the TGD inventing each class's nulls.
    owner: Vec<usize>,
    /// `occ[k][p]`: can a class-`k` null occur at graph position `p`?
    occ: Vec<Vec<bool>>,
    /// (constraint index, premise and conclusion position ids per
    /// variable) of every TGD.
    tgds: Vec<(usize, VarPositions, VarPositions)>,
}

impl NullFlow {
    /// Can a class-`k` null be the binding of a variable whose premise
    /// position set is `pv`? Requires a non-empty position set: a variable
    /// absent from the premise is never bound by matching. A position no
    /// TGD mentions holds no null.
    fn binds(&self, k: usize, pv: &[usize]) -> bool {
        !pv.is_empty() && pv.iter().all(|&p| self.occ[k].get(p) == Some(&true))
    }

    /// The classes that can bind a variable with premise positions `pv`.
    fn binders(&self, pv: &[usize]) -> Vec<usize> {
        (0..self.occ.len()).filter(|&k| self.binds(k, pv)).collect()
    }
}

fn null_flow(constraints: &[Constraint], ps: &Positions) -> NullFlow {
    let n = ps.nodes.len();
    let mut flow = NullFlow {
        owner: Vec::new(),
        occ: Vec::new(),
        tgds: Vec::new(),
    };
    // Premise positions of the two variables each EGD equates.
    let mut egds: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (ci, c) in constraints.iter().enumerate() {
        match c {
            Constraint::Tgd(t) => {
                let conclusion = ps.of_vars(&t.conclusion);
                for v in t.existentials() {
                    let mut seed = vec![false; n];
                    for &q in conclusion.get(&v).into_iter().flatten() {
                        seed[q] = true;
                    }
                    flow.owner.push(ci);
                    flow.occ.push(seed);
                }
                flow.tgds.push((ci, ps.of_vars(&t.premise), conclusion));
            }
            Constraint::Egd(e) => {
                let (Term::Var(a), Term::Var(b)) = &e.equal else {
                    continue;
                };
                if a != b {
                    let vars = ps.of_vars(&e.premise);
                    let side = |v| vars.get(v).cloned().unwrap_or_default();
                    egds.push((side(a), side(b)));
                }
            }
        }
    }

    loop {
        let mut changed = false;
        for k in 0..flow.occ.len() {
            for (_, premise, conclusion) in &flow.tgds {
                for (v, pv) in premise {
                    if !flow.binds(k, pv) {
                        continue;
                    }
                    for &q in conclusion.get(v).into_iter().flatten() {
                        if !flow.occ[k][q] {
                            flow.occ[k][q] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        // EGD closure: when class k1 can bind one side of an equality and
        // class k2 the other, a merge can leave either null standing at any
        // position of the other.
        for (left, right) in &egds {
            for k1 in flow.binders(left) {
                for k2 in flow.binders(right) {
                    for p in 0..n {
                        if flow.occ[k1][p] != flow.occ[k2][p] {
                            flow.occ[k1][p] = true;
                            flow.occ[k2][p] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    flow
}

/// Super-weak acyclicity for EGD-free sets: build the null-creation graph
/// (class N → class N' iff N can bind some premise variable of N''s TGD)
/// and certify iff no edge of it lies on a cycle — then any chase sequence
/// creates only finitely many nulls, so it terminates.
fn super_weakly_acyclic(flow: &NullFlow) -> bool {
    if flow.owner.is_empty() {
        return false;
    }
    let adj: Vec<Vec<usize>> = (0..flow.owner.len())
        .map(|k| {
            let fed: Vec<usize> = flow
                .tgds
                .iter()
                .filter(|(_, premise, _)| premise.values().any(|pv| flow.binds(k, pv)))
                .map(|&(ci, _, _)| ci)
                .collect();
            (0..flow.owner.len())
                .filter(|&k2| fed.contains(&flow.owner[k2]))
                .collect()
        })
        .collect();
    let (comp, _) = scc(&adj);
    adj.iter()
        .enumerate()
        .all(|(k, out)| out.iter().all(|&k2| comp[k] != comp[k2]))
}

// ---------------------------------------------------------------------------
// Stratification
// ---------------------------------------------------------------------------

/// Predicates mentioned by `atoms`.
fn atom_preds(atoms: &[Atom]) -> FastSet<Symbol> {
    atoms.iter().map(|a| a.pred).collect()
}

/// Partition `constraints` into strata along the firing/precedence graph:
/// `c₁ → c₂` iff a relation `c₁` can write or rewrite intersects the
/// relations `c₂` reads. A TGD's footprint is its conclusion predicates; an
/// EGD's footprint is the set of relations where a null it can actually
/// merge may occur (from the null-flow analysis — EGDs whose equality
/// positions no null can reach are inert). Returns the SCC condensation in
/// topological (execution) order; member indices ascending. A single
/// stratum means stratification makes no progress.
fn stratify(constraints: &[Constraint], ps: &Positions) -> Vec<Vec<usize>> {
    let n = constraints.len();
    let flow = null_flow(constraints, ps);
    let mut reads: Vec<FastSet<Symbol>> = Vec::with_capacity(n);
    let mut affects: Vec<FastSet<Symbol>> = Vec::with_capacity(n);
    for c in constraints {
        match c {
            Constraint::Tgd(t) => {
                reads.push(atom_preds(&t.premise));
                affects.push(atom_preds(&t.conclusion));
            }
            Constraint::Egd(e) => {
                reads.push(atom_preds(&e.premise));
                let vars = ps.of_vars(&e.premise);
                let mut footprint: FastSet<Symbol> = FastSet::default();
                for term in [&e.equal.0, &e.equal.1] {
                    let Term::Var(v) = term else { continue };
                    for k in flow.binders(vars.get(v).map_or(&[], Vec::as_slice)) {
                        let occupied = flow.occ[k].iter().zip(&ps.nodes).filter(|(o, _)| **o);
                        footprint.extend(occupied.map(|(_, p)| p.0));
                    }
                }
                affects.push(footprint);
            }
        }
    }
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| i != j && !affects[i].is_disjoint(&reads[j]))
                .collect()
        })
        .collect();
    let (comp, comp_count) = scc(&adj);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); comp_count];
    for (i, &cid) in comp.iter().enumerate() {
        members[cid].push(i);
    }
    // Kahn topological sort of the condensation, breaking ties by the
    // smallest constraint index in each component: independent strata are
    // listed in certified-constraint order, so the evidence is stable.
    let mut indegree = vec![0usize; comp_count];
    let mut cadj: Vec<FastSet<usize>> = vec![FastSet::default(); comp_count];
    for (i, out) in adj.iter().enumerate() {
        for &j in out {
            if comp[i] != comp[j] && cadj[comp[i]].insert(comp[j]) {
                indegree[comp[j]] += 1;
            }
        }
    }
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = (0..comp_count)
        .filter(|&c| indegree[c] == 0)
        .map(|c| Reverse((members[c][0], c)))
        .collect();
    let mut strata: Vec<Vec<usize>> = Vec::with_capacity(comp_count);
    while let Some(Reverse((_, c))) = heap.pop() {
        for &d in &cadj[c] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                heap.push(Reverse((members[d][0], d)));
            }
        }
        strata.push(std::mem::take(&mut members[c]));
    }
    strata
}

/// Stratify and certify each stratum via a non-stratified rung. `None`
/// when stratification makes no progress or some stratum fails.
fn certified_strata(constraints: &[Constraint], ps: &Positions) -> Option<Vec<Stratum>> {
    let parts = stratify(constraints, ps);
    if parts.len() < 2 {
        return None;
    }
    parts
        .into_iter()
        .map(|members| {
            let subset: Vec<Constraint> = members.iter().map(|&i| constraints[i].clone()).collect();
            let certificate = certify_with(&subset, false);
            let names = members.iter().map(|&i| constraints[i].name()).collect();
            certificate.guarantees_termination().then_some(Stratum {
                members,
                names,
                certificate,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Graph search
// ---------------------------------------------------------------------------

/// Strongly connected components of the graph with successor lists `adj`
/// (iterative Tarjan): the component of each node and the number of
/// components. Components are numbered in the order they close, which is
/// reverse topological. The position graph, its contraction, the
/// null-creation graph and the precedence graph all run through this one
/// routine.
fn scc(adj: &[Vec<usize>]) -> (Vec<usize>, usize) {
    const UNSET: usize = usize::MAX;
    let n = adj.len();
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![UNSET; n];
    let mut next = 0usize;
    let mut comp_count = 0usize;
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(top) = call.last_mut() {
            let v = top.0;
            if let Some(&w) = adj[v].get(top.1) {
                top.1 += 1;
                if index[w] == UNSET {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            call.pop();
            if low[v] == index[v] {
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    comp[w] = comp_count;
                    if w == v {
                        break;
                    }
                }
                comp_count += 1;
            }
            if let Some(&(p, _)) = call.last() {
                low[p] = low[p].min(low[v]);
            }
        }
    }
    (comp, comp_count)
}

/// Close the special edge `from ⇒ to` into a concrete cycle: a
/// breadth-first walk from `to` back to `from` inside their shared
/// component, expanding successors in id order. Returns `[from, to, …,
/// from]`; for a self-loop, `[from, from]`.
fn witness_cycle((from, to): (usize, usize), adj: &[Vec<usize>], comp: &[usize]) -> Vec<usize> {
    const UNSEEN: usize = usize::MAX;
    let mut parent = vec![UNSEEN; adj.len()];
    parent[to] = to;
    let mut queue = VecDeque::from([to]);
    while let Some(v) = queue.pop_front() {
        if v == from {
            break;
        }
        for &w in &adj[v] {
            if comp[w] == comp[from] && parent[w] == UNSEEN {
                parent[w] = v;
                queue.push_back(w);
            }
        }
    }
    // `from` and `to` share a component, so the walk back reaches `to`.
    let mut walk = vec![from];
    let mut cur = from;
    while cur != to && parent[cur] != UNSEEN {
        cur = parent[cur];
        walk.push(cur);
    }
    walk.push(from);
    // walk = [from, …, to, from]; reversed it starts with the special edge.
    walk.reverse();
    walk
}

impl ChaseConfig {
    /// Apply a termination certificate to this configuration: any verdict
    /// that proves termination ([`TerminationCertificate::WeaklyAcyclic`],
    /// [`TerminationCertificate::SuperWeaklyAcyclic`],
    /// [`TerminationCertificate::Stratified`]) lifts the round/fact budgets
    /// (the fixpoint is statically guaranteed, so the guard only costs
    /// comparisons); any other verdict leaves the budget guard untouched.
    pub fn with_certificate(self, cert: &TerminationCertificate) -> ChaseConfig {
        if cert.guarantees_termination() {
            ChaseConfig {
                max_rounds: usize::MAX,
                max_facts: usize::MAX,
                ..self
            }
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::{Atom, Egd, Tgd};

    fn tgd(name: &str, premise: Vec<Atom>, conclusion: Vec<Atom>) -> Constraint {
        Tgd::new(name, premise, conclusion).into()
    }

    fn key_egd() -> Constraint {
        // T(k, v) ∧ T(k, v') → v = v'
        Egd::new(
            "t_key",
            vec![
                Atom::new("T", vec![Term::var(0), Term::var(1)]),
                Atom::new("T", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        )
        .into()
    }

    /// A(x) → ∃y B(x, y)
    fn feeder() -> Constraint {
        tgd(
            "t",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
        )
    }

    /// R(x) → ∃y S(x, y); S(x, y) → R(y): the null at S.1 flows back into
    /// R.0 and feeds the next firing.
    fn divergent_pair() -> Vec<Constraint> {
        vec![
            tgd(
                "t1",
                vec![Atom::new("R", vec![Term::var(0)])],
                vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            ),
            tgd(
                "t2",
                vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
                vec![Atom::new("R", vec![Term::var(1)])],
            ),
        ]
    }

    /// Child(x, y) → Desc(x, y)
    fn full_tgd() -> Constraint {
        tgd(
            "t",
            vec![Atom::new("Child", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Desc", vec![Term::var(0), Term::var(1)])],
        )
    }

    /// B(x, y) → A(x)
    fn back_to_a() -> Constraint {
        tgd(
            "t2",
            vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("A", vec![Term::var(0)])],
        )
    }

    /// B(x, y) ∧ A(x) → y = x
    fn pin() -> Constraint {
        Egd::new(
            "e",
            vec![
                Atom::new("B", vec![Term::var(0), Term::var(1)]),
                Atom::new("A", vec![Term::var(0)]),
            ],
            (Term::var(1), Term::var(0)),
        )
        .into()
    }

    fn is_weakly_acyclic(cs: &[Constraint]) -> bool {
        matches!(certify(cs), TerminationCertificate::WeaklyAcyclic { .. })
    }

    fn is_non_terminating(cs: &[Constraint]) -> bool {
        matches!(certify(cs), TerminationCertificate::NonTerminating { .. })
    }

    #[test]
    fn full_tgds_are_weakly_acyclic() {
        assert!(is_weakly_acyclic(&[full_tgd()]));
    }

    #[test]
    fn classic_infinite_pair_is_rejected() {
        assert!(is_non_terminating(&divergent_pair()));
    }

    #[test]
    fn acyclic_existentials_are_fine() {
        // Person(x) → ∃y HasParent(x, y) with nothing flowing back.
        let t = tgd(
            "t",
            vec![Atom::new("Person", vec![Term::var(0)])],
            vec![Atom::new("HasParent", vec![Term::var(0), Term::var(1)])],
        );
        assert!(is_weakly_acyclic(&[t]));
    }

    #[test]
    fn self_loop_with_existential_rejected() {
        // S(x,y) → ∃z S(y,z): the null flows into S.1 and re-binds y, so
        // neither SWA nor stratification (single constraint) discharges it.
        let t = tgd(
            "t",
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("S", vec![Term::var(1), Term::var(2)])],
        );
        assert!(is_non_terminating(&[t]));
    }

    #[test]
    fn view_constraint_pairs_are_weakly_acyclic() {
        use estocada_pivot::{CqBuilder, ViewDef};
        let v = ViewDef::new(
            CqBuilder::new("V")
                .head_vars(["x", "z"])
                .atom("R", |a| a.v("x").v("y"))
                .atom("S", |a| a.v("y").v("z"))
                .build(),
        );
        let cs: Vec<Constraint> = v.constraints().into();
        assert!(is_weakly_acyclic(&cs));
    }

    #[test]
    fn certificate_carries_witness_cycle() {
        let cert = certify(&divergent_pair());
        let cycle = cert.cycle().expect("non-terminating");
        assert!(cycle.len() >= 2);
        assert_eq!(cycle.first(), cycle.last());
        // First step is the offending special edge: R.0 ⇒ S.1.
        assert_eq!(pos_str(&cycle[0]), "R.0");
        assert_eq!(pos_str(&cycle[1]), "S.1");
        assert!(!cert.guarantees_termination());
    }

    #[test]
    fn certify_is_deterministic() {
        let build = || {
            let mut cs = divergent_pair();
            cs.push(tgd(
                "t3",
                vec![Atom::new("R", vec![Term::var(0)])],
                vec![Atom::new("U", vec![Term::var(0), Term::var(1)])],
            ));
            cs
        };
        assert_eq!(certify(&build()), certify(&build()));
        assert_eq!(
            format!("{}", certify(&build())),
            format!("{}", certify(&build()))
        );
    }

    // Satellite: key EGDs equate values at the same position, so the
    // contraction is a no-op and the EGD-mixed set certifies WeaklyAcyclic
    // instead of degrading to Unknown — the budget guard is lifted.
    #[test]
    fn key_egds_no_longer_degrade_existential_tgds() {
        let t = tgd(
            "t",
            vec![Atom::new("Person", vec![Term::var(0)])],
            vec![Atom::new("HasParent", vec![Term::var(0), Term::var(1)])],
        );
        let cert = certify(&[t.clone(), key_egd()]);
        assert!(
            matches!(cert, TerminationCertificate::WeaklyAcyclic { .. }),
            "got {cert}"
        );
        assert!(cert.guarantees_termination());
        let cfg = ChaseConfig::default().with_certificate(&cert);
        assert_eq!(cfg.max_rounds, usize::MAX);
        assert_eq!(cfg.max_facts, usize::MAX);
    }

    #[test]
    fn swa_certifies_what_plain_wa_rejects() {
        // R(x,x) → ∃y R(x,y): the plain graph has a special-edge cycle
        // (R.1 ⇒ R.1), but the invented null only ever occupies R.1 while
        // re-firing needs it at R.0 and R.1 simultaneously.
        let t = tgd(
            "t",
            vec![Atom::new("R", vec![Term::var(0), Term::var(0)])],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        let cert = certify(std::slice::from_ref(&t));
        match &cert {
            TerminationCertificate::SuperWeaklyAcyclic { discharged, .. } => {
                assert!(!discharged.is_empty());
            }
            other => panic!("expected SuperWeaklyAcyclic, got {other}"),
        }
        assert!(cert.guarantees_termination());
        let cfg = ChaseConfig::default().with_certificate(&cert);
        assert_eq!(cfg.max_rounds, usize::MAX);
        assert!(format!("{cert}").contains("super-weakly acyclic"));
    }

    #[test]
    fn stratified_certifies_egd_feedback_across_strata() {
        // t: A(x) → ∃y B(x,y); e: B(x,y) ∧ A(x) → y = x. Contraction
        // merges {A.0, B.0, B.1} into a special self-loop, but the EGD
        // only rewrites B while t only reads A — the strata [t], [e] each
        // certify on their own.
        let cs = vec![feeder(), pin()];
        let cert = certify(&cs);
        match &cert {
            TerminationCertificate::Stratified { strata } => {
                assert_eq!(strata.len(), 2);
                assert_eq!(strata[0].members, vec![0]);
                assert_eq!(strata[1].members, vec![1]);
                assert!(strata
                    .iter()
                    .all(|s| s.certificate.guarantees_termination()));
            }
            other => panic!("expected Stratified, got {other}"),
        }
        assert!(cert.guarantees_termination());
        let cfg = ChaseConfig::default().with_certificate(&cert);
        assert_eq!(cfg.max_rounds, usize::MAX);
        assert!(format!("{cert}").contains("stratified (2 strata"));
    }

    #[test]
    fn unmergeable_cycle_names_blocking_pair() {
        // t1: A(x) → ∃y B(x,y); t2: B(x,y) → A(x); e: B(x,y) → x = y.
        // The contraction merges B.0 ~ B.1, closing A.0 ⇒ B.0 → A.0, and
        // the EGD rewrites B which both TGDs touch — one stratum, Unknown.
        let build = || {
            let e = Egd::new(
                "e",
                vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
                (Term::var(0), Term::var(1)),
            );
            vec![feeder(), back_to_a(), e.into()]
        };
        let cert = certify(&build());
        assert!(
            matches!(cert, TerminationCertificate::Unknown { .. }),
            "got {cert}"
        );
        let (egd, tgd_name) = cert.blocking_pair().expect("blocking pair");
        assert_eq!(egd.to_string(), "e");
        assert_eq!(tgd_name.to_string(), "t");
        let shown = format!("{cert}");
        assert!(shown.contains("EGD e"), "{shown}");
        assert!(shown.contains("TGD t"), "{shown}");
        // The budget guard survives.
        assert!(!cert.guarantees_termination());
        let cfg = ChaseConfig::default().with_certificate(&cert);
        assert_eq!(cfg.max_rounds, ChaseConfig::default().max_rounds);
        assert_eq!(cfg.max_facts, ChaseConfig::default().max_facts);
        // Determinism across rebuilds, value and rendering both.
        let rebuilt = certify(&build());
        assert_eq!(cert, rebuilt);
        assert_eq!(shown, format!("{rebuilt}"));
    }

    #[test]
    fn egd_with_full_tgds_is_weakly_acyclic() {
        // No existentials anywhere: EGD merges can only shrink the active
        // domain, so the verdict stays WeaklyAcyclic.
        let cert = certify(&[full_tgd(), key_egd()]);
        assert!(cert.guarantees_termination());
    }

    #[test]
    fn egds_do_not_mask_a_divergent_tgd_cycle() {
        // Key EGDs are everywhere in real schemas; a genuinely divergent
        // TGD pair must still produce its witness (the EGD lands in its
        // own stratum, but the divergent stratum fails certification).
        let mut cs = divergent_pair();
        cs.push(key_egd());
        let cert = certify(&cs);
        assert!(cert.cycle().is_some());
    }

    #[test]
    fn stratify_orders_strata_topologically() {
        let cs = vec![pin(), feeder()]; // EGD declared first
        let parts = stratify(&cs, &Positions::new(&cs));
        // The TGD stratum still precedes the EGD stratum.
        assert_eq!(parts, vec![vec![1], vec![0]]);
    }

    #[test]
    fn certificate_lifts_budget_only_when_terminating() {
        let cert = certify(&[full_tgd()]);
        let cfg = ChaseConfig::default().with_certificate(&cert);
        assert_eq!(cfg.max_rounds, usize::MAX);
        assert_eq!(cfg.max_facts, usize::MAX);

        let cert = certify(&divergent_pair());
        let cfg = ChaseConfig::default().with_certificate(&cert);
        assert_eq!(cfg.max_rounds, ChaseConfig::default().max_rounds);
        assert_eq!(cfg.max_facts, ChaseConfig::default().max_facts);
    }

    #[test]
    fn premise_variables_the_conclusion_drops_draw_no_special_edge() {
        // A(x, y) → ∃z A(x, z): only x is copied, so the one special edge
        // is A.0 ⇒ A.1 and nothing leaves A.1. Special edges from every
        // premise variable put A.1 ⇒ A.1 on a self-loop and called this
        // non-terminating, yet a firing's conclusion is already satisfied
        // by the fact that triggered it.
        use crate::instance::{Elem, Instance};
        let t = tgd(
            "t",
            vec![Atom::new("A", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("A", vec![Term::var(0), Term::var(2)])],
        );
        let cert = certify(std::slice::from_ref(&t));
        let TerminationCertificate::WeaklyAcyclic { graph } = &cert else {
            panic!("expected weakly acyclic, got {cert}");
        };
        assert_eq!(
            graph.nodes.iter().map(pos_str).collect::<Vec<_>>(),
            ["A.0", "A.1"]
        );
        assert_eq!(graph.regular, [(0, 0)]);
        assert_eq!(graph.special, [(0, 1)]);

        let mut inst = Instance::new();
        inst.insert(Symbol::intern("A"), vec![Elem::of(1i64), Elem::of(2i64)]);
        let cfg = ChaseConfig::default().with_certificate(&cert);
        crate::chase::chase(&mut inst, &[t], &cfg).expect("budget-free chase");
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn egd_only_positions_link_contraction_classes() {
        // t: A(x) → ∃y B(x, y); t2: B(x, y) → A(x). e1 merges B.1 with
        // C.0 and e2 merges B.0 with C.0 — C is in no TGD, yet through it
        // B.0 ~ B.1, closing A.0 ⇒ B.0 → A.0 in the contracted graph.
        let merge = |name: &str, side: u32| -> Constraint {
            Egd::new(
                name,
                vec![
                    Atom::new("B", vec![Term::var(0), Term::var(1)]),
                    Atom::new("C", vec![Term::var(2)]),
                ],
                (Term::var(side), Term::var(2)),
            )
            .into()
        };
        let contracted = |cs: &[Constraint]| {
            let ps = Positions::new(cs);
            let (graph, owners) = PositionGraph::build(cs, &ps);
            contract(cs, &ps, graph, &owners)
        };
        let one = [feeder(), back_to_a(), merge("e1", 1)];
        assert!(contracted(&one).is_ok());
        let both = [feeder(), back_to_a(), merge("e1", 1), merge("e2", 0)];
        match contracted(&both) {
            Err(UnknownReason::EgdContractionCycle { egd, tgd, cycle }) => {
                assert_eq!(egd.to_string(), "e1");
                assert_eq!(tgd.to_string(), "t");
                assert_eq!(walk_str(&cycle), "A.0 → B.0 → A.0");
            }
            other => panic!("expected a contraction cycle, got {other:?}"),
        }
    }

    #[test]
    fn scc_matches_mutual_reachability() {
        // Random graphs of up to 8 nodes against a transitive closure:
        // same component iff each reaches the other, and an edge between
        // components goes from a later-numbered one to an earlier one.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n) as usize
        };
        for _ in 0..2000 {
            let n = 1 + next(8);
            let adj: Vec<Vec<usize>> = (0..n)
                .map(|_| (0..next(4)).map(|_| next(n as u64)).collect())
                .collect();
            let mut reach = vec![vec![false; n]; n];
            for (a, out) in adj.iter().enumerate() {
                reach[a][a] = true;
                for &b in out {
                    reach[a][b] = true;
                }
            }
            for k in 0..n {
                for a in 0..n {
                    for b in 0..n {
                        reach[a][b] |= reach[a][k] && reach[k][b];
                    }
                }
            }
            let (comp, count) = scc(&adj);
            assert!(comp.iter().all(|&c| c < count));
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(comp[a] == comp[b], reach[a][b] && reach[b][a], "{adj:?}");
                }
                for &b in &adj[a] {
                    assert!(comp[a] >= comp[b], "{adj:?}");
                }
            }
        }
    }
}
