//! Deployment static analysis: termination certificates, constraint and
//! fragment lints, and schema hygiene — run *before* queries, so a bad
//! deployment is rejected at DDL time instead of timing out a user's query.
//!
//! The analyzer produces structured [`Diagnostic`] values with stable
//! codes:
//!
//! | code | name | severity | meaning |
//! |------|------|----------|---------|
//! | `E001` | `NonTerminatingTgdCycle` | error | the combined constraint set (schema constraints + fragment view constraints) has a special-edge cycle in its position graph; the chase can run forever ([`estocada_chase::certify`] supplies the witness cycle) |
//! | `E002` | `DanglingSymbol` | error | a view or query body references a relation declared by no registered dataset |
//! | `E003` | `UnboundHeadVariable` | error | a view or query head variable does not occur in its body (unsafe CQ), or an EGD equates a variable its premise does not bind (the chase has no image for it: rejected at `add_constraint` in every mode, and left out of every chase the analyzer runs) |
//! | `E004` | `ArityMismatch` | error | a body atom's arity differs from the relation's declaration |
//! | `E005` | `UnsatisfiableConstraintBody` | error | a constraint's premise is certainly unsatisfiable — chasing its frozen body under the schema constraints derives a contradiction, so the constraint can never fire on a consistent instance ([`estocada_chase::premise_unsatisfiable`]) |
//! | `W001` | `SubsumedFragment` | warning | a fragment's defining CQ is equivalent (under the schema constraints) to an earlier fragment — same-store pairs are pure redundancy; cross-store pairs are consolidation candidates fed to the advisor |
//! | `W002` | `RedundantConstraint` | warning | a schema constraint (TGD *or* EGD) is implied by the remaining constraints ([`estocada_chase::implies`] — the chase-based check covers implications that need EGD merge reasoning) |
//! | `W003` | `CartesianProductBody` | warning | a view or query body splits into join-disconnected components (a cross product) |
//! | `W004` | `UnusedFragment` | warning | a fragment has served no query while others have (only fires once at least one fragment has been used) |
//! | `W006` | `CertificateDowngrade` | warning | the termination certificate degraded to `Unknown`; the diagnostic names the exact EGD/TGD pair that blocks certification (the [`estocada_chase::UnknownReason`]), and the chase keeps its runtime budget guard |
//! | `W007` | `DistinctCoreAggregate` | warning | a `COUNT`/`SUM`/`AVG` query whose core head (group columns + aggregate arguments) determines no key of some body atom: aggregates range over the *distinct* core tuples, so rows agreeing on every grouped and aggregated column count once where SQL's bag semantics would count each |
//!
//! Codes are never renumbered: `W005` (a lint about the intermediate states
//! of the stratum-by-stratum chase schedule) went with that schedule and
//! its number stays retired.
//!
//! The termination certificate itself is a **lattice**
//! ([`estocada_chase::certify`]): `WeaklyAcyclic` (EGD merges modelled as
//! position contractions, so key constraints don't degrade the verdict),
//! `SuperWeaklyAcyclic` (null-flow refinement discharging plain-WA cycles
//! no null can actually traverse), `Stratified` (each stratum of the
//! firing graph certifies on its own — a termination proof that lifts the
//! budget guard, not an execution order),
//! `NonTerminating` (E001 with a witness cycle) and `Unknown` (W006 with
//! a structured blame pair).
//!
//! Severity is a function of the code; error-severity findings reject DDL
//! under [`ValidationMode::Strict`] via
//! [`crate::Error::Invalid`]. [`ValidationMode::Warn`] (the default)
//! analyses but never rejects — findings stay queryable through
//! [`crate::Estocada::analyze`] — and [`ValidationMode::Off`] skips
//! analysis entirely, leaving only the chase's runtime budget guard.
//!
//! Every pass is deterministic: fragments are visited in catalog order,
//! constraints in schema order, and the result is sorted (errors first,
//! then by code, target and message), so the same catalog always yields
//! byte-identical diagnostics.

use crate::catalog::{Catalog, FragmentSpec};
use crate::frontends::AggregateSpec;
use estocada_chase::{
    certify, equivalent, implies, premise_unsatisfiable, ChaseConfig, TerminationCertificate,
};
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::{AggFun, Atom, Constraint, Cq, RelationDecl, Schema, Term, Var, ViewDef};
use std::collections::BTreeSet;
use std::fmt;

/// How serious a finding is. Errors reject DDL under
/// [`ValidationMode::Strict`]; warnings never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The deployment is broken (non-terminating, dangling, malformed).
    Error,
    /// The deployment works but carries redundancy or a likely mistake.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// Stable diagnostic codes (see the module table). The numeric id and the
/// name are both part of the public contract: tools may match on either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `E001`: the constraint set has a special-edge cycle — the chase may
    /// never terminate.
    NonTerminatingTgdCycle,
    /// `E002`: a body atom references an undeclared relation.
    DanglingSymbol,
    /// `E003`: a head variable does not occur in the body, or an EGD
    /// equality variable does not occur in the EGD's premise.
    UnboundHeadVariable,
    /// `E004`: a body atom's arity contradicts the relation declaration.
    ArityMismatch,
    /// `E005`: a constraint premise is certainly unsatisfiable under the
    /// schema constraints — it can never fire on a consistent instance.
    UnsatisfiableConstraintBody,
    /// `W001`: a fragment is equivalent to an earlier fragment (same store
    /// = redundancy; cross store = consolidation candidate).
    SubsumedFragment,
    /// `W002`: a schema constraint (TGD or EGD) is implied by the rest of
    /// the constraint set.
    RedundantConstraint,
    /// `W003`: a CQ body is a cross product of disconnected components.
    CartesianProductBody,
    /// `W004`: a fragment has never served a query while others have.
    UnusedFragment,
    /// `W006`: the termination certificate degraded to `Unknown`; the
    /// message names the blocking EGD/TGD pair.
    CertificateDowngrade,
    /// `W007`: a `COUNT`/`SUM`/`AVG` ranges over distinct core tuples that
    /// do not determine a key of every body atom — the answer can differ
    /// from SQL's bag semantics.
    DistinctCoreAggregate,
}

impl Code {
    /// The stable `Exxx`/`Wxxx` identifier.
    pub fn id(&self) -> &'static str {
        match self {
            Code::NonTerminatingTgdCycle => "E001",
            Code::DanglingSymbol => "E002",
            Code::UnboundHeadVariable => "E003",
            Code::ArityMismatch => "E004",
            Code::UnsatisfiableConstraintBody => "E005",
            Code::SubsumedFragment => "W001",
            Code::RedundantConstraint => "W002",
            Code::CartesianProductBody => "W003",
            Code::UnusedFragment => "W004",
            Code::CertificateDowngrade => "W006",
            Code::DistinctCoreAggregate => "W007",
        }
    }

    /// The CamelCase name matching the enum variant.
    pub fn name(&self) -> &'static str {
        match self {
            Code::NonTerminatingTgdCycle => "NonTerminatingTgdCycle",
            Code::DanglingSymbol => "DanglingSymbol",
            Code::UnboundHeadVariable => "UnboundHeadVariable",
            Code::ArityMismatch => "ArityMismatch",
            Code::UnsatisfiableConstraintBody => "UnsatisfiableConstraintBody",
            Code::SubsumedFragment => "SubsumedFragment",
            Code::RedundantConstraint => "RedundantConstraint",
            Code::CartesianProductBody => "CartesianProductBody",
            Code::UnusedFragment => "UnusedFragment",
            Code::CertificateDowngrade => "CertificateDowngrade",
            Code::DistinctCoreAggregate => "DistinctCoreAggregate",
        }
    }

    /// Severity is a function of the code.
    pub fn severity(&self) -> Severity {
        match self {
            Code::NonTerminatingTgdCycle
            | Code::DanglingSymbol
            | Code::UnboundHeadVariable
            | Code::ArityMismatch
            | Code::UnsatisfiableConstraintBody => Severity::Error,
            Code::SubsumedFragment
            | Code::RedundantConstraint
            | Code::CartesianProductBody
            | Code::UnusedFragment
            | Code::CertificateDowngrade
            | Code::DistinctCoreAggregate => Severity::Warning,
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Diagnostic {
    /// Severity (sorted first so errors lead).
    pub severity: Severity,
    /// Stable code.
    pub code: Code,
    /// What the finding is about: a fragment id, a constraint name, a
    /// query name, or `constraints` for set-level findings.
    pub target: String,
    /// Human-readable explanation.
    pub message: String,
    /// Machine-checkable evidence when the pass has one: the witness cycle
    /// for `E001`, the subsuming fragment for `W001`, the disconnected
    /// component split for `W003`.
    pub witness: Option<String>,
}

impl Diagnostic {
    fn new(code: Code, target: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: code.severity(),
            code,
            target: target.into(),
            message: message.into(),
            witness: None,
        }
    }

    fn with_witness(mut self, witness: impl Into<String>) -> Diagnostic {
        self.witness = Some(witness.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}) at {}: {}",
            self.code.id(),
            self.code.name(),
            self.severity,
            self.target,
            self.message
        )?;
        if let Some(w) = &self.witness {
            write!(f, " [witness: {w}]")?;
        }
        Ok(())
    }
}

/// What DDL does with analyzer findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// Skip analysis entirely (the chase budget guard is the only net).
    Off,
    /// Analyse; accept DDL regardless. Findings remain queryable through
    /// [`crate::Estocada::analyze`]. The default, for compatibility.
    #[default]
    Warn,
    /// Analyse; reject DDL carrying error-severity findings with
    /// [`crate::Error::Invalid`]. Warnings never reject.
    Strict,
}

/// The chase budget the analyzer's containment checks run under. Tight on
/// purpose: canonical instances are tiny, and a check that exhausts this
/// budget is treated as "not proven", never as a finding.
fn lint_chase_cfg(base: &ChaseConfig) -> ChaseConfig {
    ChaseConfig {
        max_rounds: base.max_rounds.min(200),
        max_facts: base.max_facts.min(20_000),
        ..*base
    }
}

/// The full constraint set the rewriting chase runs over: schema
/// constraints plus both directions of every fragment view, plus an
/// optional candidate view not yet in the catalog. Public so snapshot
/// tooling and benches can chase exactly the set the certificate
/// ([`termination_certificate`]) speaks about.
pub fn combined_constraints(
    schema: &Schema,
    catalog: &Catalog,
    candidate: Option<&ViewDef>,
) -> Vec<Constraint> {
    let mut cs = schema.constraints.clone();
    for v in catalog.view_defs() {
        cs.extend(v.constraints());
    }
    if let Some(v) = candidate {
        cs.extend(v.constraints());
    }
    cs
}

/// The termination certificate of the deployment's combined constraint
/// set — what [`crate::Estocada`] feeds into the planner's
/// [`ChaseConfig::with_certificate`].
pub fn termination_certificate(schema: &Schema, catalog: &Catalog) -> TerminationCertificate {
    certify(&combined_constraints(schema, catalog, None))
}

fn render_cycle(cycle: &[(estocada_pivot::Symbol, usize)]) -> String {
    cycle
        .iter()
        .map(|(s, i)| format!("{}.{}", s.as_str(), i))
        .collect::<Vec<_>>()
        .join(" → ")
}

/// `E001` from a non-terminating certificate; `W006` from an `Unknown`
/// one — the downgrade explanation names the exact EGD/TGD pair that
/// blocks certification, so "why is my deployment budget-guarded" has an
/// actionable answer.
fn termination_pass(cert: &TerminationCertificate, out: &mut Vec<Diagnostic>) {
    if let Some(cycle) = cert.cycle() {
        out.push(
            Diagnostic::new(
                Code::NonTerminatingTgdCycle,
                "constraints",
                "the combined constraint set has a cycle through a special (existential) \
                 position-graph edge; the chase may generate fresh nulls forever",
            )
            .with_witness(render_cycle(cycle)),
        );
    }
    if let TerminationCertificate::Unknown { reason } = cert {
        let mut d = Diagnostic::new(
            Code::CertificateDowngrade,
            "constraints",
            format!("termination certificate downgraded to unknown: {reason}"),
        );
        if let Some((egd, tgd)) = cert.blocking_pair() {
            d = d.with_witness(format!(
                "blocking pair: EGD {} / TGD {}",
                egd.as_str(),
                tgd.as_str()
            ));
        }
        out.push(d);
    }
}

/// Hygiene lints of one CQ against the declared schema: `E002`, `E003`,
/// `E004`, `W003`.
fn cq_hygiene(cq: &Cq, target: &str, schema: &Schema, out: &mut Vec<Diagnostic>) {
    // E003: unsafe head.
    let body_vars = cq.body_vars();
    for t in &cq.head {
        if let Term::Var(v) = t {
            if !body_vars.contains(v) {
                out.push(Diagnostic::new(
                    Code::UnboundHeadVariable,
                    target,
                    format!(
                        "head variable {} does not occur in the body",
                        cq.var_name(*v)
                    ),
                ));
            }
        }
    }
    // E002 / E004: body atoms vs declarations.
    for a in &cq.body {
        match schema.relation(a.pred) {
            None => out.push(Diagnostic::new(
                Code::DanglingSymbol,
                target,
                format!(
                    "body references relation {} declared by no registered dataset",
                    a.pred.as_str()
                ),
            )),
            Some(decl) if decl.arity() != a.args.len() => out.push(Diagnostic::new(
                Code::ArityMismatch,
                target,
                format!(
                    "atom {}/{} contradicts the declared arity {}",
                    a.pred.as_str(),
                    a.args.len(),
                    decl.arity()
                ),
            )),
            Some(_) => {}
        }
    }
    // W003: join-disconnected body. Atoms connect through shared variables
    // or shared constants (a constant equality is a legitimate join in the
    // frontends' parameterized queries).
    if cq.body.len() > 1 {
        let mut comp: Vec<usize> = (0..cq.body.len()).collect();
        fn find(comp: &mut [usize], i: usize) -> usize {
            let mut r = i;
            while comp[r] != r {
                r = comp[r];
            }
            comp[i] = r;
            r
        }
        let mut token_owner: FastMap<String, usize> = FastMap::default();
        for (i, a) in cq.body.iter().enumerate() {
            for t in &a.args {
                let token = match t {
                    Term::Var(v) => format!("v{v}"),
                    Term::Const(c) => format!("c{c}"),
                };
                match token_owner.get(&token) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut comp, i), find(&mut comp, j));
                        comp[ri] = rj;
                    }
                    None => {
                        token_owner.insert(token, i);
                    }
                }
            }
        }
        let roots: Vec<usize> = (0..cq.body.len())
            .map(|i| find(&mut comp, i))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        if roots.len() > 1 {
            let split: Vec<String> = roots
                .iter()
                .map(|r| {
                    cq.body
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| find(&mut comp, *i) == *r)
                        .map(|(_, a)| a.pred.as_str().to_string())
                        .collect::<Vec<_>>()
                        .join("×")
                })
                .collect();
            out.push(
                Diagnostic::new(
                    Code::CartesianProductBody,
                    target,
                    format!(
                        "body splits into {} join-disconnected components (cross product)",
                        roots.len()
                    ),
                )
                .with_witness(split.join(" | ")),
            );
        }
    }
}

/// `E003` for an EGD: one diagnostic per equality variable its premise
/// does not bind, naming the EGD and the variable. Such an EGD has no image
/// to merge, so nothing may chase it; empty for every other constraint.
pub(crate) fn unbound_egd_variables(c: &Constraint) -> Vec<Diagnostic> {
    let Constraint::Egd(egd) = c else {
        return Vec::new();
    };
    let bound: FastSet<Var> = egd.premise.iter().flat_map(Atom::vars).collect();
    let equal = [&egd.equal.0, &egd.equal.1]
        .into_iter()
        .filter_map(Term::as_var);
    let unbound: BTreeSet<Var> = equal.filter(|v| !bound.contains(v)).collect();
    (unbound.into_iter())
        .map(|v| {
            Diagnostic::new(
                Code::UnboundHeadVariable,
                egd.name.as_str().to_string(),
                format!("EGD equality variable {v} does not occur in its premise"),
            )
        })
        .collect()
}

/// `W002`: schema constraints implied by the remaining constraints,
/// decided by [`estocada_chase::implies`] — the frozen premise is chased
/// under `Σ∖σ`, so the check covers TGDs *and* EGDs, including
/// implications that only hold after EGD merges identify premise
/// variables. Budget exhaustion abstains — "not proven redundant" is
/// never a finding.
fn redundant_constraint_pass(schema: &Schema, cfg: &ChaseConfig, out: &mut Vec<Diagnostic>) {
    for (idx, c) in schema.constraints.iter().enumerate() {
        let rest: Vec<Constraint> = schema
            .constraints
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != idx)
            .map(|(_, c)| c.clone())
            .collect();
        if matches!(implies(c, &rest, cfg), Ok(true)) {
            out.push(Diagnostic::new(
                Code::RedundantConstraint,
                c.name().as_str().to_string(),
                "constraint is implied by the remaining constraint set",
            ));
        }
    }
}

/// `E005`: constraints whose premise is certainly unsatisfiable — the
/// frozen body, chased under the full schema constraint set, derives a
/// contradiction (an EGD forced to merge distinct constants). Such a
/// constraint never fires on any consistent instance; it is a deployment
/// bug, not a harmless redundancy, so the severity is error. Budget
/// exhaustion abstains.
fn unsatisfiable_body_pass(schema: &Schema, cfg: &ChaseConfig, out: &mut Vec<Diagnostic>) {
    for c in &schema.constraints {
        if matches!(premise_unsatisfiable(c, &schema.constraints, cfg), Ok(true)) {
            out.push(Diagnostic::new(
                Code::UnsatisfiableConstraintBody,
                c.name().as_str().to_string(),
                "constraint body is certainly unsatisfiable under the schema constraints; \
                 the constraint can never fire on a consistent instance",
            ));
        }
    }
}

/// `W001` + `W004`: fragment-level lints, shared with the advisor.
///
/// `W001` compares the defining CQs of *all* fragment pairs. A same-store
/// pair is pure redundancy; a **cross-store** pair is deliberate in the
/// paper's hybrid-store story (mirroring buys rewriting alternatives) but
/// is exactly what the advisor's consolidation reasoning wants surfaced —
/// the message distinguishes the two so consumers can tell them apart.
/// Equivalence (containment both ways, cross-checked by
/// `tests/analyzer_properties.rs` against brute-force
/// [`estocada_chase::contained_in`]) is decided under the schema
/// constraints; the later fragment is flagged. `W004` flags never-used
/// fragments, but only once at least one fragment *has* served a query —
/// a freshly deployed catalog, where every count is zero, stays clean.
pub fn fragment_lints(schema: &Schema, catalog: &Catalog, cfg: &ChaseConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let cfg = lint_chase_cfg(cfg);
    let skip_containment = matches!(
        termination_certificate(schema, catalog),
        TerminationCertificate::NonTerminating { .. }
    );
    let frags: Vec<(usize, &crate::catalog::FragmentMeta, &Cq)> = catalog
        .fragments()
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.spec.view().map(|v| (i, f, v)))
        .collect();
    if !skip_containment {
        for (a, (_, fa, va)) in frags.iter().enumerate() {
            for (_, fb, vb) in frags.iter().take(a) {
                if matches!(equivalent(va, vb, &schema.constraints, &cfg), Ok(true)) {
                    let msg = if fa.system == fb.system {
                        format!(
                            "defining view is equivalent to fragment {} on the same store",
                            fb.id
                        )
                    } else {
                        format!(
                            "defining view is equivalent to fragment {} on another store \
                             (cross-store mirror; consolidation candidate)",
                            fb.id
                        )
                    };
                    out.push(
                        Diagnostic::new(Code::SubsumedFragment, fa.id.clone(), msg)
                            .with_witness(format!("equivalent to {}", fb.id)),
                    );
                    break; // one subsumption witness per fragment
                }
            }
        }
    }
    if catalog.fragments().iter().any(|f| f.use_count.get() > 0) {
        for f in catalog.fragments() {
            if f.use_count.get() == 0 {
                out.push(Diagnostic::new(
                    Code::UnusedFragment,
                    f.id.clone(),
                    "fragment has served no query while other fragments have",
                ));
            }
        }
    }
    out
}

/// Pre-materialization lint of a fragment spec: schema hygiene of the
/// defining view (this is where `E003` is reachable — materialization
/// itself asserts view safety) and the termination certificate of the
/// deployment *with the candidate's view constraints included* (`E001`).
pub fn analyze_fragment_spec(
    spec: &FragmentSpec,
    schema: &Schema,
    catalog: &Catalog,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let candidate = match spec.view() {
        Some(view) => {
            cq_hygiene(view, "fragment (pending)", schema, &mut out);
            // Only a safe view can be lifted to constraints; an unsafe one
            // already carries E003 above.
            view.is_safe().then(|| ViewDef::new(view.clone()))
        }
        None => None,
    };
    let cert = certify(&combined_constraints(schema, catalog, candidate.as_ref()));
    termination_pass(&cert, &mut out);
    finish(&mut out);
    out
}

/// Query-level lints (`E002`/`E003`/`E004`/`W003` on the query's CQ, and
/// `W007` when `aggregate` counts or sums over it): cheap, chase-free, and
/// cached per catalog epoch alongside the plan cache.
pub fn analyze_query(
    cq: &Cq,
    aggregate: Option<&AggregateSpec>,
    schema: &Schema,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let target = format!("query {}", cq.name.as_str());
    cq_hygiene(cq, &target, schema, &mut out);
    if aggregate.is_some_and(counts_rows) {
        distinct_core_pass(cq, &target, schema, &mut out);
    }
    finish(&mut out);
    out
}

/// Whether duplicates among the aggregated rows change the answer
/// (`MIN`/`MAX` and a bare `GROUP BY` do not see them).
pub(crate) fn counts_rows(spec: &AggregateSpec) -> bool {
    let sees = |f: AggFun| matches!(f, AggFun::Count | AggFun::Sum | AggFun::Avg);
    spec.aggs.iter().any(|a| sees(a.fun))
}

/// `W007`: the aggregates of a query range over its **distinct** core
/// tuples — the head of `cq`: group columns, then aggregate arguments. That
/// equals SQL's bag semantics exactly when the head determines one key of
/// every body atom (directly, through a constant, or through another atom's
/// key — `o.oid` determines `o.uid`, hence `Users`' key in `Users ⋈
/// Orders`): then no two joined rows agree on the whole head. Otherwise
/// such rows count once here and twice in SQL; a relation declaring no key
/// can always hold them.
fn distinct_core_pass(cq: &Cq, target: &str, schema: &Schema, out: &mut Vec<Diagnostic>) {
    let atoms: Vec<(&Atom, &RelationDecl)> = (cq.body.iter())
        .filter_map(|a| schema.relation(a.pred).map(|decl| (a, decl)))
        .collect();
    let keyed = |a: &Atom, decl: &RelationDecl, fixed: &FastSet<Var>| {
        let is_fixed = |t: &Term| t.as_var().is_none_or(|v| fixed.contains(&v));
        let held = |key: &Vec<usize>| key.iter().all(|p| a.args.get(*p).is_some_and(is_fixed));
        decl.keys.iter().any(held)
    };
    // The variables the head determines, closed under the declared keys: a
    // determined key determines its whole row.
    let mut fixed: FastSet<Var> = cq.head.iter().filter_map(Term::as_var).collect();
    loop {
        let rows = atoms.iter().filter(|(a, decl)| keyed(a, decl, &fixed));
        let vars = rows.flat_map(|(a, _)| a.vars());
        let found: Vec<Var> = vars.filter(|v| !fixed.contains(v)).collect();
        if found.is_empty() {
            break;
        }
        fixed.extend(found);
    }
    for (atom, decl) in atoms.iter().filter(|(a, decl)| !keyed(a, decl, &fixed)) {
        let why = match decl.keys.first() {
            None => "declares no key".to_string(),
            Some(k) => {
                let cols: Vec<&str> = k.iter().map(|p| decl.columns[*p].as_str()).collect();
                format!(
                    "key ({}) is not determined by the core head",
                    cols.join(", ")
                )
            }
        };
        out.push(
            Diagnostic::new(
                Code::DistinctCoreAggregate,
                target,
                format!(
                    "COUNT/SUM/AVG range over the distinct (group key, argument) tuples, \
                     which do not identify the rows of {}: rows that agree on every grouped \
                     and aggregated column count once, where SQL counts each — aggregate a \
                     key column of it too (e.g. COUNT(key)) or add one to GROUP BY",
                    atom.pred.as_str()
                ),
            )
            .with_witness(format!("{}: {why}", atom.pred.as_str())),
        );
    }
}

/// The full deployment analysis: termination certificate, schema hygiene
/// of every fragment's defining view and every EGD, constraint redundancy,
/// and fragment lints. An EGD that draws `E003` is left out of every other
/// pass (they all chase the schema's constraints). Pure: the same schema +
/// catalog yields byte-identical diagnostics.
pub fn analyze_deployment(
    schema: &Schema,
    catalog: &Catalog,
    chase_cfg: &ChaseConfig,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = (schema.constraints.iter())
        .flat_map(unbound_egd_variables)
        .collect();
    let chaseable;
    let schema = if out.is_empty() {
        schema
    } else {
        let mut s = schema.clone();
        s.constraints
            .retain(|c| unbound_egd_variables(c).is_empty());
        chaseable = s;
        &chaseable
    };
    let combined = combined_constraints(schema, catalog, None);
    let cert = certify(&combined);
    termination_pass(&cert, &mut out);
    for f in catalog.fragments() {
        if let Some(view) = f.spec.view() {
            cq_hygiene(view, &f.id, schema, &mut out);
        }
    }
    // Containment-based passes are pointless (and budget-bound noisy) on a
    // provably divergent set; E001 already says everything.
    if !matches!(cert, TerminationCertificate::NonTerminating { .. }) {
        redundant_constraint_pass(schema, &lint_chase_cfg(chase_cfg), &mut out);
        unsatisfiable_body_pass(schema, &lint_chase_cfg(chase_cfg), &mut out);
    }
    out.extend(fragment_lints(schema, catalog, chase_cfg));
    finish(&mut out);
    out
}

/// Normalize: errors first, then by code, target, message; exact
/// duplicates collapsed.
fn finish(out: &mut Vec<Diagnostic>) {
    out.sort();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::{CqBuilder, Tgd};

    fn schema_with(tables: &[(&str, usize)]) -> Schema {
        let mut s = Schema::new();
        for (name, arity) in tables {
            let cols: Vec<String> = (0..*arity).map(|i| format!("c{i}")).collect();
            let cols: Vec<&str> = cols.iter().map(|c| c.as_str()).collect();
            s.add_relation(estocada_pivot::RelationDecl::new(*name, &cols));
        }
        s
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(Code::NonTerminatingTgdCycle.id(), "E001");
        assert_eq!(Code::DanglingSymbol.id(), "E002");
        assert_eq!(Code::UnboundHeadVariable.id(), "E003");
        assert_eq!(Code::ArityMismatch.id(), "E004");
        assert_eq!(Code::UnsatisfiableConstraintBody.id(), "E005");
        assert_eq!(Code::SubsumedFragment.id(), "W001");
        assert_eq!(Code::RedundantConstraint.id(), "W002");
        assert_eq!(Code::CartesianProductBody.id(), "W003");
        assert_eq!(Code::UnusedFragment.id(), "W004");
        assert_eq!(Code::CertificateDowngrade.id(), "W006");
        assert_eq!(Code::DistinctCoreAggregate.id(), "W007");
        assert_eq!(Code::NonTerminatingTgdCycle.severity(), Severity::Error);
        assert_eq!(
            Code::UnsatisfiableConstraintBody.severity(),
            Severity::Error
        );
        assert_eq!(Code::UnusedFragment.severity(), Severity::Warning);
        assert_eq!(Code::CertificateDowngrade.severity(), Severity::Warning);
    }

    #[test]
    fn hygiene_flags_dangling_arity_and_unsafe_head() {
        let schema = schema_with(&[("R", 2)]);
        // Dangling symbol + arity mismatch + unbound head variable.
        let cq = Cq::new(
            "q",
            vec![Term::var(0), Term::var(9)],
            vec![
                Atom::new("R", vec![Term::var(0)]),
                Atom::new("Nope", vec![Term::var(0)]),
            ],
        );
        let diags = analyze_query(&cq, None, &schema);
        let codes: Vec<&str> = diags.iter().map(|d| d.code.id()).collect();
        assert!(codes.contains(&"E002"), "{diags:?}");
        assert!(codes.contains(&"E003"), "{diags:?}");
        assert!(codes.contains(&"E004"), "{diags:?}");
    }

    #[test]
    fn cartesian_body_flagged_constants_connect() {
        let schema = schema_with(&[("R", 2), ("S", 2)]);
        // Disconnected: R(x,y) × S(z,w).
        let cross = CqBuilder::new("q")
            .head_vars(["x", "z"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("S", |a| a.v("z").v("w"))
            .build();
        let diags = analyze_query(&cross, None, &schema);
        assert!(diags.iter().any(|d| d.code == Code::CartesianProductBody));
        // Connected through a shared constant (parameterized join).
        let shared = Cq::new(
            "q2",
            vec![Term::var(0)],
            vec![
                Atom::new("R", vec![Term::var(0), Term::constant(7)]),
                Atom::new("S", vec![Term::constant(7), Term::var(1)]),
            ],
        );
        let diags = analyze_query(&shared, None, &schema);
        assert!(
            !diags.iter().any(|d| d.code == Code::CartesianProductBody),
            "{diags:?}"
        );
    }

    #[test]
    fn redundant_tgd_flagged() {
        let mut schema = schema_with(&[("R", 2), ("S", 2)]);
        schema.constraints.push(
            Tgd::new(
                "copy",
                vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
                vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            )
            .into(),
        );
        // Duplicate of `copy` under another name — implied by it.
        schema.constraints.push(
            Tgd::new(
                "copy_again",
                vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
                vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            )
            .into(),
        );
        let diags = analyze_deployment(&schema, &Catalog::new(), &ChaseConfig::default());
        let redundant: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == Code::RedundantConstraint)
            .collect();
        // Each is implied by the other; both are flagged.
        assert_eq!(redundant.len(), 2, "{diags:?}");
    }

    #[test]
    fn non_terminating_set_yields_e001_with_witness() {
        let mut schema = schema_with(&[("R", 1), ("S", 2)]);
        schema.constraints.push(
            Tgd::new(
                "grow",
                vec![Atom::new("R", vec![Term::var(0)])],
                vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            )
            .into(),
        );
        schema.constraints.push(
            Tgd::new(
                "back",
                vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
                vec![Atom::new("R", vec![Term::var(1)])],
            )
            .into(),
        );
        let diags = analyze_deployment(&schema, &Catalog::new(), &ChaseConfig::default());
        let e001 = diags
            .iter()
            .find(|d| d.code == Code::NonTerminatingTgdCycle)
            .expect("E001");
        assert_eq!(e001.severity, Severity::Error);
        let witness = e001.witness.as_ref().expect("witness cycle");
        assert!(witness.contains("S.1"), "{witness}");
    }

    #[test]
    fn redundant_egd_flagged_via_egd_reasoning() {
        use estocada_pivot::Egd;
        let mut schema = schema_with(&[("R", 3), ("S", 1)]);
        // key: R(k,v,w) ∧ R(k,v',w') → v = v'. The guarded variant adding
        // an S(k) atom is implied by it (the chase merges v ~ v' on the
        // frozen premise regardless of S) — provable only with EGD merge
        // reasoning, not a containment mapping. The converse fails: the
        // frozen two-atom premise has no S fact, so the guarded key never
        // fires.
        schema.constraints.push(
            Egd::new(
                "key",
                vec![
                    Atom::new("R", vec![Term::var(0), Term::var(1), Term::var(2)]),
                    Atom::new("R", vec![Term::var(0), Term::var(3), Term::var(4)]),
                ],
                (Term::var(1), Term::var(3)),
            )
            .into(),
        );
        schema.constraints.push(
            Egd::new(
                "key_guarded",
                vec![
                    Atom::new("R", vec![Term::var(0), Term::var(1), Term::var(2)]),
                    Atom::new("R", vec![Term::var(0), Term::var(3), Term::var(4)]),
                    Atom::new("S", vec![Term::var(0)]),
                ],
                (Term::var(1), Term::var(3)),
            )
            .into(),
        );
        let diags = analyze_deployment(&schema, &Catalog::new(), &ChaseConfig::default());
        let w002: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == Code::RedundantConstraint)
            .collect();
        assert_eq!(w002.len(), 1, "{diags:?}");
        assert_eq!(w002[0].target, "key_guarded");
    }

    #[test]
    fn unknown_certificate_yields_w006_naming_the_blocking_pair() {
        use estocada_pivot::Egd;
        let mut schema = schema_with(&[("A", 1), ("B", 2)]);
        // t: A(x) → ∃y B(x,y); t2: B(x,y) → A(x); e: B(x,y) → x = y.
        // The contraction closes a special-edge cycle and the precedence
        // graph is one big SCC — certificate falls to Unknown, and W006
        // must blame the (e, t) pair.
        schema.constraints.push(
            Tgd::new(
                "t",
                vec![Atom::new("A", vec![Term::var(0)])],
                vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
            )
            .into(),
        );
        schema.constraints.push(
            Tgd::new(
                "t2",
                vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
                vec![Atom::new("A", vec![Term::var(0)])],
            )
            .into(),
        );
        schema.constraints.push(
            Egd::new(
                "e",
                vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
                (Term::var(0), Term::var(1)),
            )
            .into(),
        );
        let diags = analyze_deployment(&schema, &Catalog::new(), &ChaseConfig::default());
        let w006 = diags
            .iter()
            .find(|d| d.code == Code::CertificateDowngrade)
            .expect("W006");
        assert_eq!(w006.severity, Severity::Warning);
        let witness = w006.witness.as_ref().expect("blocking pair witness");
        assert!(witness.contains("EGD e"), "{witness}");
        assert!(witness.contains("TGD t"), "{witness}");
        // No E001: the set is not *provably* divergent.
        assert!(
            !diags.iter().any(|d| d.code == Code::NonTerminatingTgdCycle),
            "{diags:?}"
        );
    }

    #[test]
    fn unsatisfiable_body_yields_e005() {
        use estocada_pivot::{Egd, Value};
        let mut schema = schema_with(&[("Flag", 1), ("Two", 1), ("Out", 1)]);
        schema.constraints.push(
            Egd::new(
                "to_one",
                vec![Atom::new("Flag", vec![Term::var(0)])],
                (Term::var(0), Term::Const(Value::Int(1))),
            )
            .into(),
        );
        schema.constraints.push(
            Egd::new(
                "to_two",
                vec![Atom::new("Two", vec![Term::var(0)])],
                (Term::var(0), Term::Const(Value::Int(2))),
            )
            .into(),
        );
        // Premise requires an element that is both Flag and Two — chases
        // to 1 = 2, a contradiction: the constraint can never fire.
        schema.constraints.push(
            Tgd::new(
                "dead",
                vec![
                    Atom::new("Flag", vec![Term::var(0)]),
                    Atom::new("Two", vec![Term::var(0)]),
                ],
                vec![Atom::new("Out", vec![Term::var(0)])],
            )
            .into(),
        );
        let diags = analyze_deployment(&schema, &Catalog::new(), &ChaseConfig::default());
        let e005 = diags
            .iter()
            .find(|d| d.code == Code::UnsatisfiableConstraintBody)
            .expect("E005");
        assert_eq!(e005.severity, Severity::Error);
        assert_eq!(e005.target, "dead");
    }

    #[test]
    fn analyzer_is_pure() {
        let mut schema = schema_with(&[("R", 2)]);
        schema.constraints.push(
            Tgd::new(
                "t",
                vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
                vec![Atom::new("R", vec![Term::var(1), Term::var(0)])],
            )
            .into(),
        );
        let a = analyze_deployment(&schema, &Catalog::new(), &ChaseConfig::default());
        let b = analyze_deployment(&schema, &Catalog::new(), &ChaseConfig::default());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn w007_fires_unless_the_core_head_determines_a_key_of_every_atom() {
        use estocada_engine::AggSpec;
        let mut schema = Schema::new();
        schema.add_relation(
            RelationDecl::new("Users", &["uid", "tier"])
                .with_key(&["uid"])
                .unwrap(),
        );
        schema.add_relation(
            RelationDecl::new("Orders", &["oid", "uid", "amount"])
                .with_key(&["oid"])
                .unwrap(),
        );
        schema.add_relation(RelationDecl::new("Log", &["uid", "ms"]));
        let spec = |fun| AggregateSpec {
            group_cols: 1,
            aggs: vec![AggSpec {
                fun,
                col: 1,
                name: "agg".into(),
            }],
            having: vec![],
            select: vec![],
        };
        let w007 = |cq: &Cq, fun| {
            let diags = analyze_query(cq, Some(&spec(fun)), &schema);
            let hits = diags
                .iter()
                .filter(|d| d.code == Code::DistinctCoreAggregate);
            hits.map(|d| d.witness.clone().unwrap()).collect::<Vec<_>>()
        };
        // SUM(amount) per tier: neither key is in the head.
        let loose = CqBuilder::new("Q")
            .head_vars(["tier", "amount"])
            .atom("Users", |a| a.v("uid").v("tier"))
            .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
            .build();
        assert_eq!(
            w007(&loose, AggFun::Sum),
            vec![
                "Orders: key (oid) is not determined by the core head",
                "Users: key (uid) is not determined by the core head"
            ]
        );
        // MIN/MAX do not see duplicates, and the plain core is not linted.
        assert!(w007(&loose, AggFun::Max).is_empty());
        assert!(analyze_query(&loose, None, &schema).is_empty());
        // COUNT(oid) per tier: `oid` determines `uid`, hence Users' key.
        let tight = CqBuilder::new("Q")
            .head_vars(["tier", "oid"])
            .atom("Users", |a| a.v("uid").v("tier"))
            .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
            .build();
        assert!(w007(&tight, AggFun::Count).is_empty());
        // A keyless relation can always hold rows that collapse.
        let keyless = CqBuilder::new("Q")
            .head_vars(["uid", "ms"])
            .atom("Log", |a| a.v("uid").v("ms"))
            .build();
        assert_eq!(w007(&keyless, AggFun::Avg), vec!["Log: declares no key"]);
        assert_eq!(Code::DistinctCoreAggregate.severity(), Severity::Warning);
    }
}
