//! Chase termination analysis: a **certificate lattice** over constraint
//! sets, from plain weak acyclicity up through EGD-aware contraction,
//! super-weak acyclicity, and stratification.
//!
//! The *position graph* has a node per (relation, position). For every TGD
//! and every frontier variable `x` at premise position `p`:
//!
//! - a **regular** edge `p → q` for every conclusion position `q` where `x`
//!   occurs, and
//! - a **special** edge `p ⇒ q` for every conclusion position `q` holding an
//!   existential variable.
//!
//! The TGD set is weakly acyclic iff no cycle passes through a special edge;
//! the chase then terminates on every instance (and, by Fagin et al.'s
//! data-exchange theorem, stays terminating when arbitrary EGDs join the
//! set). [`certify`] climbs a lattice of increasingly precise checks and
//! reports the strongest verdict it can prove, with evidence:
//!
//! - [`TerminationCertificate::WeaklyAcyclic`] — the position graph is free
//!   of special-edge cycles. When EGDs coexist with existential TGDs, their
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
use estocada_pivot::{Atom, Constraint, Symbol, Term, Var};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A position-graph node: (relation, argument position).
pub type Pos = (Symbol, usize);

/// Deterministic ordering key for a position (symbol interning order is
/// session-dependent; the printed name is not).
fn pos_key(p: &Pos) -> (std::sync::Arc<str>, usize) {
    (p.0.as_str(), p.1)
}

/// Render a position as `Rel.i`.
fn pos_str(p: &Pos) -> String {
    format!("{}.{}", p.0.as_str(), p.1)
}

/// The position dependency graph of a TGD set, with edges sorted
/// deterministically (by relation name, then position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionGraph {
    /// All (relation, position) nodes mentioned by any TGD.
    pub nodes: Vec<Pos>,
    /// Regular edges: a frontier variable is copied from → to.
    pub regular: Vec<(Pos, Pos)>,
    /// Special edges: firing invents a fresh null at `to` while reading
    /// a value at `from`.
    pub special: Vec<(Pos, Pos)>,
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
            UnknownReason::EgdContractionCycle { egd, tgd, cycle } => {
                let walk: Vec<String> = cycle.iter().map(pos_str).collect();
                write!(
                    f,
                    "EGD {egd} merges positions into a special-edge cycle through TGD {tgd} \
                     ({}); budget guard retained",
                    walk.join(" → ")
                )
            }
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
        /// coexist with existential TGDs).
        graph: PositionGraph,
    },
    /// The plain position graph has special-edge cycles, but the null-flow
    /// refinement proves no null class can feed its own creation: only
    /// finitely many nulls arise in any chase sequence, so the chase
    /// terminates. Only issued for EGD-free sets.
    SuperWeaklyAcyclic {
        /// The plain position graph.
        graph: PositionGraph,
        /// The special-edge cycle edges the refinement discharged
        /// (deterministically sorted).
        discharged: Vec<(Pos, Pos)>,
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
                    .map(|(a, b)| format!("{} ⇒ {}", pos_str(a), pos_str(b)))
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
                let walk: Vec<String> = cycle.iter().map(pos_str).collect();
                write!(
                    f,
                    "non-terminating: special-edge cycle {}",
                    walk.join(" → ")
                )
            }
            TerminationCertificate::Unknown { reason } => write!(f, "unknown: {reason}"),
        }
    }
}

/// Per-variable position sets of one constraint side.
type VarPositions = HashMap<Var, Vec<Pos>>;

/// Positions of each variable across `atoms` (first-occurrence order,
/// deduplicated).
fn var_positions(atoms: &[Atom]) -> VarPositions {
    let mut m: HashMap<Var, Vec<Pos>> = HashMap::new();
    for a in atoms {
        for (i, t) in a.args.iter().enumerate() {
            if let Term::Var(v) = t {
                let e = m.entry(*v).or_default();
                if !e.contains(&(a.pred, i)) {
                    e.push((a.pred, i));
                }
            }
        }
    }
    m
}

/// Predicates mentioned by `atoms`.
fn atom_preds(atoms: &[Atom]) -> HashSet<Symbol> {
    atoms.iter().map(|a| a.pred).collect()
}

/// The plain position graph plus the bookkeeping the refinement rungs need.
struct Graph {
    nodes: HashSet<Pos>,
    regular: HashMap<Pos, HashSet<Pos>>,
    special: HashMap<Pos, HashSet<Pos>>,
    /// First schema-order TGD owning each special edge.
    special_owner: HashMap<(Pos, Pos), (usize, Symbol)>,
    has_egds: bool,
    has_existential_tgds: bool,
}

fn build_graph(constraints: &[Constraint]) -> Graph {
    let mut g = Graph {
        nodes: HashSet::new(),
        regular: HashMap::new(),
        special: HashMap::new(),
        special_owner: HashMap::new(),
        has_egds: false,
        has_existential_tgds: false,
    };
    for (ci, c) in constraints.iter().enumerate() {
        let tgd = match c {
            Constraint::Tgd(t) => t,
            Constraint::Egd(_) => {
                g.has_egds = true;
                continue;
            }
        };
        let existentials = tgd.existentials();
        if !existentials.is_empty() {
            g.has_existential_tgds = true;
        }
        // Conclusion positions per variable.
        let mut conc_positions: HashMap<Var, Vec<Pos>> = HashMap::new();
        let mut exist_positions: Vec<Pos> = Vec::new();
        for a in &tgd.conclusion {
            for (i, t) in a.args.iter().enumerate() {
                g.nodes.insert((a.pred, i));
                if let Term::Var(v) = t {
                    if existentials.contains(v) {
                        exist_positions.push((a.pred, i));
                    } else {
                        conc_positions.entry(*v).or_default().push((a.pred, i));
                    }
                }
            }
        }
        for a in &tgd.premise {
            for (i, t) in a.args.iter().enumerate() {
                g.nodes.insert((a.pred, i));
                if let Term::Var(v) = t {
                    let from = (a.pred, i);
                    if let Some(tos) = conc_positions.get(v) {
                        for q in tos {
                            g.regular.entry(from).or_default().insert(*q);
                        }
                    }
                    // Special edges originate from every premise position of
                    // every variable: firing copies a value from `from` while
                    // inventing a null at each existential position.
                    for q in &exist_positions {
                        g.special.entry(from).or_default().insert(*q);
                        g.special_owner.entry((from, *q)).or_insert((ci, tgd.name));
                    }
                }
            }
        }
    }
    g
}

/// Special edges whose endpoints share an SCC, deterministically sorted.
fn offending_edges(
    scc: &HashMap<Pos, usize>,
    special: &HashMap<Pos, HashSet<Pos>>,
) -> Vec<(Pos, Pos)> {
    let mut offending: Vec<(Pos, Pos)> = Vec::new();
    for (from, tos) in special {
        for to in tos {
            if scc.get(from) == scc.get(to) && scc.contains_key(from) {
                offending.push((*from, *to));
            }
        }
    }
    offending.sort_by_key(|(a, b)| (pos_key(a), pos_key(b)));
    offending
}

/// Flatten edge maps into the public, deterministically sorted graph form.
fn to_position_graph(
    nodes: &HashSet<Pos>,
    regular: &HashMap<Pos, HashSet<Pos>>,
    special: &HashMap<Pos, HashSet<Pos>>,
) -> PositionGraph {
    let mut node_vec: Vec<Pos> = nodes.iter().copied().collect();
    node_vec.sort_by_key(pos_key);
    let flatten = |m: &HashMap<Pos, HashSet<Pos>>| {
        let mut edges: Vec<(Pos, Pos)> = m
            .iter()
            .flat_map(|(f, tos)| tos.iter().map(move |t| (*f, *t)))
            .collect();
        edges.sort_by_key(|(a, b)| (pos_key(a), pos_key(b)));
        edges
    };
    PositionGraph {
        nodes: node_vec,
        regular: flatten(regular),
        special: flatten(special),
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
    let g = build_graph(constraints);
    let scc = tarjan_scc(&g.nodes, &g.regular, &g.special);
    let offending = offending_edges(&scc, &g.special);

    if let Some(&(from, to)) = offending.first() {
        // Plain weak acyclicity fails. Try the refinement rungs before
        // declaring non-termination.
        if !g.has_egds && super_weakly_acyclic(constraints) {
            return TerminationCertificate::SuperWeaklyAcyclic {
                graph: to_position_graph(&g.nodes, &g.regular, &g.special),
                discharged: offending,
            };
        }
        if allow_stratified {
            if let Some(strata) = certified_strata(constraints) {
                return TerminationCertificate::Stratified { strata };
            }
        }
        let cycle = witness_cycle(from, to, &scc, &g.regular, &g.special);
        return TerminationCertificate::NonTerminating { cycle };
    }

    if g.has_egds && g.has_existential_tgds {
        match contract(constraints, &g) {
            Ok(graph) => return TerminationCertificate::WeaklyAcyclic { graph },
            Err(reason) => {
                if allow_stratified {
                    if let Some(strata) = certified_strata(constraints) {
                        return TerminationCertificate::Stratified { strata };
                    }
                }
                return TerminationCertificate::Unknown { reason };
            }
        }
    }

    TerminationCertificate::WeaklyAcyclic {
        graph: to_position_graph(&g.nodes, &g.regular, &g.special),
    }
}

// ---------------------------------------------------------------------------
// EGD contraction
// ---------------------------------------------------------------------------

fn uf_find(parent: &mut HashMap<Pos, Pos>, p: Pos) -> Pos {
    let mut root = p;
    while let Some(&next) = parent.get(&root) {
        if next == root {
            break;
        }
        root = next;
    }
    // Path compression.
    let mut cur = p;
    while cur != root {
        let next = parent[&cur];
        parent.insert(cur, root);
        cur = next;
    }
    root
}

/// Union two positions; `true` iff they were previously distinct.
fn uf_union(parent: &mut HashMap<Pos, Pos>, a: Pos, b: Pos) -> bool {
    let ra = uf_find(parent, a);
    let rb = uf_find(parent, b);
    if ra == rb {
        return false;
    }
    // Deterministic representative: the smaller position key.
    let (keep, fold) = if pos_key(&ra) <= pos_key(&rb) {
        (ra, rb)
    } else {
        (rb, ra)
    };
    parent.insert(fold, keep);
    parent.entry(keep).or_insert(keep);
    true
}

/// Model EGD merges as position contractions: for each EGD equating two
/// variables, union every premise position either variable can occupy (the
/// merged value may afterwards sit at any of them). Key EGDs equate values
/// at the same position, so they contract nothing. Returns the contracted
/// graph when it stays free of special-edge cycles, else the structured
/// reason naming the blocking (EGD, TGD) pair.
fn contract(constraints: &[Constraint], g: &Graph) -> Result<PositionGraph, UnknownReason> {
    let mut parent: HashMap<Pos, Pos> = HashMap::new();
    // (constraint idx, egd name, merged position): schema-order record of
    // every non-trivial union, for blame assignment.
    let mut merges: Vec<(usize, Symbol, Pos)> = Vec::new();
    for (ci, c) in constraints.iter().enumerate() {
        let Constraint::Egd(e) = c else { continue };
        let (Term::Var(a), Term::Var(b)) = (&e.equal.0, &e.equal.1) else {
            continue;
        };
        let pvp = var_positions(&e.premise);
        let (Some(pa), Some(pb)) = (pvp.get(a), pvp.get(b)) else {
            continue;
        };
        let all: Vec<Pos> = pa.iter().chain(pb.iter()).copied().collect();
        for w in all.windows(2) {
            if uf_union(&mut parent, w[0], w[1]) {
                merges.push((ci, e.name, w[0]));
            }
        }
    }
    if merges.is_empty() {
        // Every EGD is key-shaped: the contracted graph IS the plain graph.
        return Ok(to_position_graph(&g.nodes, &g.regular, &g.special));
    }

    // Display representative per class: smallest member among graph nodes.
    let mut rep_of: HashMap<Pos, Pos> = HashMap::new();
    for n in &g.nodes {
        let root = uf_find(&mut parent, *n);
        match rep_of.get(&root) {
            Some(r) if pos_key(r) <= pos_key(n) => {}
            _ => {
                rep_of.insert(root, *n);
            }
        }
    }
    let mut rep = |p: Pos| -> Pos {
        let root = uf_find(&mut parent, p);
        *rep_of.get(&root).unwrap_or(&p)
    };

    let mut cnodes: HashSet<Pos> = HashSet::new();
    let mut cregular: HashMap<Pos, HashSet<Pos>> = HashMap::new();
    let mut cspecial: HashMap<Pos, HashSet<Pos>> = HashMap::new();
    let mut cowner: HashMap<(Pos, Pos), (usize, Symbol)> = HashMap::new();
    for n in &g.nodes {
        cnodes.insert(rep(*n));
    }
    for (f, tos) in &g.regular {
        for t in tos {
            cregular.entry(rep(*f)).or_default().insert(rep(*t));
        }
    }
    for (f, tos) in &g.special {
        for t in tos {
            let edge = (rep(*f), rep(*t));
            cspecial.entry(edge.0).or_default().insert(edge.1);
            let own = g.special_owner[&(*f, *t)];
            match cowner.get(&edge) {
                Some(prev) if prev.0 <= own.0 => {}
                _ => {
                    cowner.insert(edge, own);
                }
            }
        }
    }

    let scc = tarjan_scc(&cnodes, &cregular, &cspecial);
    let offending = offending_edges(&scc, &cspecial);
    let Some(&(from, to)) = offending.first() else {
        return Ok(to_position_graph(&cnodes, &cregular, &cspecial));
    };
    let cycle = witness_cycle(from, to, &scc, &cregular, &cspecial);
    let on_cycle: HashSet<Pos> = cycle.iter().copied().collect();
    // Blame the first schema-order EGD whose merge lies on the witness
    // cycle; fall back to the first merging EGD.
    let egd = merges
        .iter()
        .find(|(_, _, p)| on_cycle.contains(&rep(*p)))
        .map(|(_, name, _)| *name)
        .unwrap_or(merges[0].1);
    let tgd = cowner[&(from, to)].1;
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
    /// (constraint index of the owning TGD, existential variable).
    classes: Vec<(usize, Var)>,
    occ: Vec<HashSet<Pos>>,
}

impl NullFlow {
    /// Can a class-`k` null be the binding of a variable whose premise
    /// position set is `pv`? Requires a non-empty position set: a variable
    /// absent from the premise is never bound by matching.
    fn binds(&self, k: usize, pv: &[Pos]) -> bool {
        !pv.is_empty() && pv.iter().all(|p| self.occ[k].contains(p))
    }
}

fn null_flow(constraints: &[Constraint]) -> NullFlow {
    let mut flow = NullFlow {
        classes: Vec::new(),
        occ: Vec::new(),
    };
    // Pre-extracted shapes: (premise var positions, conclusion var positions)
    // per TGD; (premise var positions, equated vars) per EGD.
    let mut tgd_shapes: Vec<(VarPositions, VarPositions)> = Vec::new();
    let mut egd_shapes: Vec<(VarPositions, Vec<Var>)> = Vec::new();
    for (ci, c) in constraints.iter().enumerate() {
        match c {
            Constraint::Tgd(t) => {
                let cvp = var_positions(&t.conclusion);
                for e in t.existentials() {
                    let seed: HashSet<Pos> = cvp
                        .get(&e)
                        .map(|ps| ps.iter().copied().collect())
                        .unwrap_or_default();
                    flow.classes.push((ci, e));
                    flow.occ.push(seed);
                }
                tgd_shapes.push((var_positions(&t.premise), cvp));
            }
            Constraint::Egd(e) => {
                let mut eq = Vec::new();
                if let Term::Var(v) = &e.equal.0 {
                    eq.push(*v);
                }
                if let Term::Var(v) = &e.equal.1 {
                    eq.push(*v);
                }
                egd_shapes.push((var_positions(&e.premise), eq));
            }
        }
    }

    loop {
        let mut changed = false;
        for k in 0..flow.classes.len() {
            for (pvp, cvp) in &tgd_shapes {
                for (v, pv) in pvp {
                    if flow.binds(k, pv) {
                        if let Some(cs) = cvp.get(v) {
                            for q in cs {
                                changed |= flow.occ[k].insert(*q);
                            }
                        }
                    }
                }
            }
        }
        // EGD closure: when class k1 can bind one side of an equality and
        // class k2 the other, a merge can leave either null standing at any
        // position of the other.
        for (pvp, eq) in &egd_shapes {
            if eq.len() != 2 || eq[0] == eq[1] {
                continue;
            }
            let side = |v: &Var, flow: &NullFlow| -> Vec<usize> {
                let pv = pvp.get(v).cloned().unwrap_or_default();
                (0..flow.classes.len())
                    .filter(|&k| flow.binds(k, &pv))
                    .collect()
            };
            let left = side(&eq[0], &flow);
            let right = side(&eq[1], &flow);
            for &k1 in &left {
                for &k2 in &right {
                    if k1 == k2 {
                        continue;
                    }
                    let union: Vec<Pos> = flow.occ[k1].union(&flow.occ[k2]).copied().collect();
                    for p in union {
                        changed |= flow.occ[k1].insert(p);
                        changed |= flow.occ[k2].insert(p);
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
/// and certify iff it is acyclic — then any chase sequence creates only
/// finitely many nulls, so it terminates.
fn super_weakly_acyclic(constraints: &[Constraint]) -> bool {
    let flow = null_flow(constraints);
    if flow.classes.is_empty() {
        return false;
    }
    // (constraint idx, premise var positions) per existential TGD.
    let creators: Vec<(usize, HashMap<Var, Vec<Pos>>)> = constraints
        .iter()
        .enumerate()
        .filter_map(|(ci, c)| match c {
            Constraint::Tgd(t) if !t.is_full() => Some((ci, var_positions(&t.premise))),
            _ => None,
        })
        .collect();
    let n = flow.classes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, out) in adj.iter_mut().enumerate() {
        for (ci, pvp) in &creators {
            if pvp.values().any(|pv| flow.binds(k, pv)) {
                for (k2, (ci2, _)) in flow.classes.iter().enumerate() {
                    if ci2 == ci {
                        out.push(k2);
                    }
                }
            }
        }
    }
    acyclic(&adj)
}

/// Three-colour DFS cycle check over an index adjacency list.
fn acyclic(adj: &[Vec<usize>]) -> bool {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; adj.len()];
    for s in 0..adj.len() {
        if color[s] != WHITE {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(s, 0)];
        color[s] = GRAY;
        while let Some(top) = stack.last_mut() {
            let v = top.0;
            if top.1 < adj[v].len() {
                let w = adj[v][top.1];
                top.1 += 1;
                match color[w] {
                    WHITE => {
                        color[w] = GRAY;
                        stack.push((w, 0));
                    }
                    GRAY => return false,
                    _ => {}
                }
            } else {
                color[v] = BLACK;
                stack.pop();
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Stratification
// ---------------------------------------------------------------------------

/// Partition `constraints` into strata along the firing/precedence graph:
/// `c₁ → c₂` iff a relation `c₁` can write or rewrite intersects the
/// relations `c₂` reads. A TGD's footprint is its conclusion predicates; an
/// EGD's footprint is the set of relations where a null it can actually
/// merge may occur (from the null-flow analysis — EGDs whose equality
/// positions no null can reach are inert). Returns the SCC condensation in
/// topological (execution) order; member indices ascending. A single
/// stratum means stratification makes no progress.
pub fn stratify(constraints: &[Constraint]) -> Vec<Vec<usize>> {
    let n = constraints.len();
    if n == 0 {
        return Vec::new();
    }
    let flow = null_flow(constraints);
    let mut reads: Vec<HashSet<Symbol>> = Vec::with_capacity(n);
    let mut affects: Vec<HashSet<Symbol>> = Vec::with_capacity(n);
    for c in constraints {
        match c {
            Constraint::Tgd(t) => {
                reads.push(atom_preds(&t.premise));
                affects.push(atom_preds(&t.conclusion));
            }
            Constraint::Egd(e) => {
                reads.push(atom_preds(&e.premise));
                let pvp = var_positions(&e.premise);
                let mut footprint: HashSet<Symbol> = HashSet::new();
                for term in [&e.equal.0, &e.equal.1] {
                    let Term::Var(v) = term else { continue };
                    let pv = pvp.get(v).cloned().unwrap_or_default();
                    for k in 0..flow.classes.len() {
                        if flow.binds(k, &pv) {
                            footprint.extend(flow.occ[k].iter().map(|p| p.0));
                        }
                    }
                }
                affects.push(footprint);
            }
        }
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for (j, r) in reads.iter().enumerate() {
            if i != j && affects[i].intersection(r).next().is_some() {
                adj[i].push(j);
            }
        }
    }
    let (comp, comp_count) = tarjan_scc_indices(&adj);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); comp_count];
    for (i, &cid) in comp.iter().enumerate() {
        members[cid].push(i);
    }
    // Kahn topological sort of the condensation, breaking ties by the
    // smallest constraint index in each component: independent strata run
    // in certified-constraint order, so the stratified chase reproduces
    // the whole-set chase's insertion order (pinned bit-identical by the
    // differential suite), not merely its fact set.
    let mut indegree = vec![0usize; comp_count];
    let mut cadj: Vec<HashSet<usize>> = vec![HashSet::new(); comp_count];
    for (i, out) in adj.iter().enumerate() {
        for &j in out {
            if comp[i] != comp[j] && cadj[comp[i]].insert(comp[j]) {
                indegree[comp[j]] += 1;
            }
        }
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, usize)>> = (0..comp_count)
        .filter(|&c| indegree[c] == 0)
        .map(|c| std::cmp::Reverse((members[c][0], c)))
        .collect();
    let mut strata: Vec<Vec<usize>> = Vec::with_capacity(comp_count);
    while let Some(std::cmp::Reverse((_, c))) = heap.pop() {
        for &d in &cadj[c] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                heap.push(std::cmp::Reverse((members[d][0], d)));
            }
        }
        strata.push(std::mem::take(&mut members[c]));
    }
    strata
}

/// Stratify and certify each stratum via a non-stratified rung. `None`
/// when stratification makes no progress or some stratum fails.
fn certified_strata(constraints: &[Constraint]) -> Option<Vec<Stratum>> {
    let parts = stratify(constraints);
    if parts.len() < 2 {
        return None;
    }
    let mut strata = Vec::with_capacity(parts.len());
    for members in parts {
        let subset: Vec<Constraint> = members.iter().map(|&i| constraints[i].clone()).collect();
        let certificate = certify_with(&subset, false);
        if !certificate.guarantees_termination() {
            return None;
        }
        let names = members.iter().map(|&i| constraints[i].name()).collect();
        strata.push(Stratum {
            members,
            names,
            certificate,
        });
    }
    Some(strata)
}

/// Iterative Tarjan over an index adjacency list; returns (component id
/// per node, component count). Components are numbered in emission order,
/// which is reverse topological.
fn tarjan_scc_indices(adj: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let n = adj.len();
    const UNSET: usize = usize::MAX;
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
            if top.1 < adj[v].len() {
                let w = adj[v][top.1];
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
            } else {
                call.pop();
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
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
    }
    (comp, comp_count)
}

/// Close the offending special edge `from ⇒ to` into a concrete cycle:
/// BFS (with deterministically ordered neighbour expansion) from `to` back
/// to `from`, restricted to their shared SCC. Returns
/// `[from, to, …, from]`; for a self-loop, `[from, from]`.
fn witness_cycle(
    from: Pos,
    to: Pos,
    scc: &HashMap<Pos, usize>,
    regular: &HashMap<Pos, HashSet<Pos>>,
    special: &HashMap<Pos, HashSet<Pos>>,
) -> Vec<Pos> {
    if from == to {
        return vec![from, to];
    }
    let comp = scc[&from];
    let neighbors = |v: &Pos| -> Vec<Pos> {
        let mut out: Vec<Pos> = Vec::new();
        for m in [regular, special] {
            if let Some(e) = m.get(v) {
                out.extend(e.iter().copied());
            }
        }
        out.retain(|w| scc.get(w) == Some(&comp));
        out.sort_by_key(pos_key);
        out.dedup();
        out
    };
    let mut parent: HashMap<Pos, Pos> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(to);
    'bfs: while let Some(v) = queue.pop_front() {
        for w in neighbors(&v) {
            if w == to || parent.contains_key(&w) {
                continue;
            }
            parent.insert(w, v);
            if w == from {
                break 'bfs;
            }
            queue.push_back(w);
        }
    }
    // `from` and `to` share an SCC, so a to→from path must exist.
    let mut back = vec![from];
    let mut cur = from;
    while cur != to {
        cur = parent[&cur];
        back.push(cur);
    }
    back.push(from);
    // back = [from, …path reversed…, to, from]; reorder to start at `from`
    // with the special edge first: [from, to, …, from].
    back.reverse();
    // now back = [from, to, …, from] — reversed path is exactly the walk.
    back
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

/// Tarjan SCC over the union of regular and special edges; returns the
/// component index per node.
fn tarjan_scc(
    nodes: &HashSet<Pos>,
    regular: &HashMap<Pos, HashSet<Pos>>,
    special: &HashMap<Pos, HashSet<Pos>>,
) -> HashMap<Pos, usize> {
    struct State<'a> {
        index: usize,
        indices: HashMap<Pos, usize>,
        lowlink: HashMap<Pos, usize>,
        on_stack: HashSet<Pos>,
        stack: Vec<Pos>,
        comp: HashMap<Pos, usize>,
        comp_count: usize,
        regular: &'a HashMap<Pos, HashSet<Pos>>,
        special: &'a HashMap<Pos, HashSet<Pos>>,
    }

    fn neighbors(s: &State<'_>, v: &Pos) -> Vec<Pos> {
        let mut out = Vec::new();
        if let Some(e) = s.regular.get(v) {
            out.extend(e.iter().copied());
        }
        if let Some(e) = s.special.get(v) {
            out.extend(e.iter().copied());
        }
        out
    }

    // Iterative Tarjan (explicit stack) to avoid recursion limits.
    fn strongconnect(s: &mut State<'_>, root: Pos) {
        let mut call_stack: Vec<(Pos, Vec<Pos>, usize)> = Vec::new();
        call_stack.push((root, neighbors(s, &root), 0));
        s.indices.insert(root, s.index);
        s.lowlink.insert(root, s.index);
        s.index += 1;
        s.stack.push(root);
        s.on_stack.insert(root);

        while let Some((v, neigh, mut i)) = call_stack.pop() {
            let mut descended = false;
            while i < neigh.len() {
                let w = neigh[i];
                i += 1;
                if !s.indices.contains_key(&w) {
                    // Descend into w.
                    call_stack.push((v, neigh.clone(), i));
                    s.indices.insert(w, s.index);
                    s.lowlink.insert(w, s.index);
                    s.index += 1;
                    s.stack.push(w);
                    s.on_stack.insert(w);
                    call_stack.push((w, neighbors(s, &w), 0));
                    descended = true;
                    break;
                } else if s.on_stack.contains(&w) {
                    let lw = s.indices[&w];
                    let lv = s.lowlink[&v];
                    s.lowlink.insert(v, lv.min(lw));
                }
            }
            if descended {
                continue;
            }
            // v finished: pop SCC if root.
            if s.lowlink[&v] == s.indices[&v] {
                loop {
                    let w = s.stack.pop().unwrap();
                    s.on_stack.remove(&w);
                    s.comp.insert(w, s.comp_count);
                    if w == v {
                        break;
                    }
                }
                s.comp_count += 1;
            }
            // Propagate lowlink to parent.
            if let Some((p, _, _)) = call_stack.last() {
                let lv = s.lowlink[&v];
                let lp = s.lowlink[p];
                let p = *p;
                s.lowlink.insert(p, lp.min(lv));
            }
        }
    }

    let mut s = State {
        index: 0,
        indices: HashMap::new(),
        lowlink: HashMap::new(),
        on_stack: HashSet::new(),
        stack: Vec::new(),
        comp: HashMap::new(),
        comp_count: 0,
        regular,
        special,
    };
    for n in nodes {
        if !s.indices.contains_key(n) {
            strongconnect(&mut s, *n);
        }
    }
    s.comp
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

    fn is_weakly_acyclic(cs: &[Constraint]) -> bool {
        matches!(certify(cs), TerminationCertificate::WeaklyAcyclic { .. })
    }

    fn is_non_terminating(cs: &[Constraint]) -> bool {
        matches!(certify(cs), TerminationCertificate::NonTerminating { .. })
    }

    #[test]
    fn full_tgds_are_weakly_acyclic() {
        let t = tgd(
            "t",
            vec![Atom::new("Child", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Desc", vec![Term::var(0), Term::var(1)])],
        );
        assert!(is_weakly_acyclic(&[t]));
    }

    #[test]
    fn classic_infinite_pair_is_rejected() {
        // R(x) → ∃y S(x,y); S(x,y) → R(y)
        let t1 = tgd(
            "t1",
            vec![Atom::new("R", vec![Term::var(0)])],
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
        );
        let t2 = tgd(
            "t2",
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("R", vec![Term::var(1)])],
        );
        assert!(is_non_terminating(&[t1, t2]));
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
        let t1 = tgd(
            "t1",
            vec![Atom::new("R", vec![Term::var(0)])],
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
        );
        let t2 = tgd(
            "t2",
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("R", vec![Term::var(1)])],
        );
        let cert = certify(&[t1, t2]);
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
                tgd(
                    "t3",
                    vec![Atom::new("R", vec![Term::var(0)])],
                    vec![Atom::new("U", vec![Term::var(0), Term::var(1)])],
                ),
            ]
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
        let e: Constraint = Egd::new(
            "e",
            vec![
                Atom::new("B", vec![Term::var(0), Term::var(1)]),
                Atom::new("A", vec![Term::var(0)]),
            ],
            (Term::var(1), Term::var(0)),
        )
        .into();
        let cs = vec![feeder(), e];
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
        let t2 = tgd(
            "t2",
            vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("A", vec![Term::var(0)])],
        );
        let e: Constraint = Egd::new(
            "e",
            vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
            (Term::var(0), Term::var(1)),
        )
        .into();
        let cs = vec![feeder(), t2, e];
        let cert = certify(&cs);
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
        let rebuilt = certify(&[
            feeder(),
            tgd(
                "t2",
                vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
                vec![Atom::new("A", vec![Term::var(0)])],
            ),
            Egd::new(
                "e",
                vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
                (Term::var(0), Term::var(1)),
            )
            .into(),
        ]);
        assert_eq!(cert, rebuilt);
        assert_eq!(shown, format!("{rebuilt}"));
    }

    #[test]
    fn egd_with_full_tgds_is_weakly_acyclic() {
        // No existentials anywhere: EGD merges can only shrink the active
        // domain, so the verdict stays WeaklyAcyclic.
        let t = tgd(
            "t",
            vec![Atom::new("Child", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Desc", vec![Term::var(0), Term::var(1)])],
        );
        let cert = certify(&[t, key_egd()]);
        assert!(cert.guarantees_termination());
    }

    #[test]
    fn egds_do_not_mask_a_divergent_tgd_cycle() {
        // Key EGDs are everywhere in real schemas; a genuinely divergent
        // TGD pair must still produce its witness (the EGD lands in its
        // own stratum, but the divergent stratum fails certification).
        let t1 = tgd(
            "t1",
            vec![Atom::new("R", vec![Term::var(0)])],
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
        );
        let t2 = tgd(
            "t2",
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("R", vec![Term::var(1)])],
        );
        let cert = certify(&[t1, t2, key_egd()]);
        assert!(cert.cycle().is_some());
    }

    #[test]
    fn stratify_orders_strata_topologically() {
        let e: Constraint = Egd::new(
            "e",
            vec![
                Atom::new("B", vec![Term::var(0), Term::var(1)]),
                Atom::new("A", vec![Term::var(0)]),
            ],
            (Term::var(1), Term::var(0)),
        )
        .into();
        let cs = vec![e, feeder()]; // EGD declared first
        let parts = stratify(&cs);
        // The TGD stratum still precedes the EGD stratum.
        assert_eq!(parts, vec![vec![1], vec![0]]);
    }

    #[test]
    fn certificate_lifts_budget_only_when_terminating() {
        let full = tgd(
            "t",
            vec![Atom::new("Child", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Desc", vec![Term::var(0), Term::var(1)])],
        );
        let cert = certify(std::slice::from_ref(&full));
        let cfg = ChaseConfig::default().with_certificate(&cert);
        assert_eq!(cfg.max_rounds, usize::MAX);
        assert_eq!(cfg.max_facts, usize::MAX);

        let t1 = tgd(
            "t1",
            vec![Atom::new("R", vec![Term::var(0)])],
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
        );
        let t2 = tgd(
            "t2",
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("R", vec![Term::var(1)])],
        );
        let cert = certify(&[t1, t2]);
        let cfg = ChaseConfig::default().with_certificate(&cert);
        assert_eq!(cfg.max_rounds, ChaseConfig::default().max_rounds);
        assert_eq!(cfg.max_facts, ChaseConfig::default().max_facts);
    }
}
