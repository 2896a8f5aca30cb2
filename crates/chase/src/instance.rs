//! Instances with labelled nulls: the structures the chase runs over.
//!
//! An [`Instance`] stores facts whose arguments are either interned
//! constants or labelled nulls. EGD steps merge elements through a
//! union-find; the instance is kept *normalized* (every stored argument is
//! a representative) so that homomorphism matching is plain equality.
//!
//! # Interned `Copy` elements
//!
//! [`Elem`] is an 8-byte `Copy + Eq + Hash + Ord` type: constants are
//! interned into the process-wide [`ConstId`] table
//! ([`estocada_pivot::intern`], the same pattern as `Symbol`), so bindings,
//! posting-map keys, dedup keys and [`Instance::resolve`] all move plain
//! integers — no `Value` clone or structural comparison anywhere on the
//! chase hot path. `Elem` equality agrees with `Value` equality by
//! construction (interning is injective); `Elem`'s `Ord` is allocation
//! order, which is stable within a process but *not* the `Value` order.
//!
//! # Union-find with pointer halving
//!
//! Null equivalence is a union-find over a parent array. Resolution
//! ([`Instance::resolve`]) pointer-halves as it walks, so repeated probes
//! after deep `Null`/`Null` merge chains are amortized O(α) instead of
//! O(chain depth). The parent cells are relaxed atomics: halving is a
//! benign optimization (any intermediate pointer still leads to the same
//! root), so read-side compression works through `&Instance` and the type
//! stays `Sync` for future read-only parallel trigger searches. Constant
//! bindings live at the root (`bound`); a bound root resolves to its
//! constant.
//!
//! # Index layout and the hot-path contract
//!
//! Homomorphism search ([`crate::hom`]) is the hottest path of the whole
//! rewriting stack, so the index layout is built around *borrowing* probes:
//!
//! - `by_pred` maps a predicate to its fact-id posting list, and `by_pos`
//!   maps `(predicate, position)` to a per-element posting map. Probing
//!   ([`Instance::probe`]) returns a borrowed `&[u32]` slice (no `Vec`
//!   allocation per probe); [`Instance::count_with`] exposes the count-only
//!   variant used for join-order selection.
//! - Both index families contain **only alive facts** and every posting
//!   list is kept sorted ascending by fact id — exactly the order a full
//!   index rebuild would produce — so incremental maintenance is
//!   observationally identical to rebuilding. A `debug_assert` guards the
//!   alive invariant.
//!
//! # Incremental EGD normalization
//!
//! [`Instance::merge`] is **incremental**: a `null → fact ids` occurrence
//! index (`null_occ`) records, for every representative null, the facts
//! whose stored arguments mention it. A merge retires exactly one null
//! (the child, or the null being bound to a constant), consumes its
//! occurrence list, and rewrites / re-indexes / re-dedups only those facts
//! — O(touched posting lists), not O(instance). Deduplication keeps the
//! smallest fact id and joins provenance in ascending id order, the same
//! keeper choice and join order as a full rebuild, so the two strategies
//! produce bit-identical instances (the differential suite in
//! `tests/incremental_merge_properties.rs` pins this against
//! [`crate::testkit::merge_full_rebuild`], the retained full-rebuild
//! baseline).
//! Occurrence lists may contain dead facts (a fact killed by dedup stays
//! in the lists of its other nulls); they are lazily skipped when the list
//! is consumed.
//!
//! # Epochs (semi-naive delta support)
//!
//! Every fact records the [`Instance::epoch`] at which it last *changed*:
//! creation, argument rewriting during normalization, absorption of a
//! duplicate's provenance, or provenance growth on re-derivation. The chase
//! advances the epoch once per round and asks for
//! [`Instance::delta_index`]`(threshold)` — the per-predicate lists of facts
//! touched at-or-after `threshold` — which the semi-naive trigger search in
//! [`crate::hom::find_homs_delta`] uses to only enumerate homomorphisms
//! involving at least one recently-changed fact. Incremental merges stamp
//! exactly the facts a full rebuild would stamp (argument rewrites and
//! provenance absorptions), so the delta contract is unchanged.
//!
//! Every stamp after epoch 0 is also logged, one list for the current epoch
//! and one for the epoch before it. Those are the two thresholds anyone asks
//! for (a chase round reads the previous round's changes, a test the facts
//! it just stamped), so a delta index costs what changed, not the instance.
//! Epoch 0 is the load (its delta is every fact), so loading logs nothing;
//! it and any older threshold take one pass over every fact. Both ways give
//! the same lists. The chase only ever adds facts and merges them: a fact
//! dies only as a merge's duplicate.

use crate::prov::Dnf;
use estocada_pivot::hash::FastMap;
use estocada_pivot::{ConstId, Symbol, Value};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// An instance element: an interned constant or a labelled null.
///
/// 8 bytes, `Copy`; equality/hashing are integer operations. Use
/// [`Elem::of`] / [`Elem::constant`] to intern a [`Value`] and
/// [`Elem::as_value`] to resolve one back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Elem {
    /// An interned constant value.
    Const(ConstId),
    /// A labelled null, identified by id.
    Null(u32),
}

impl Elem {
    /// Intern a borrowed value as a constant element.
    pub fn constant(v: &Value) -> Elem {
        Elem::Const(ConstId::intern(v))
    }

    /// Intern an owned (or convertible) value as a constant element.
    pub fn of(v: impl Into<Value>) -> Elem {
        Elem::Const(ConstId::intern(&v.into()))
    }

    /// The null id, if this is a null.
    pub fn as_null(&self) -> Option<u32> {
        match self {
            Elem::Null(n) => Some(*n),
            Elem::Const(_) => None,
        }
    }

    /// The interned value, if this is a constant.
    pub fn as_value(&self) -> Option<Value> {
        match self {
            Elem::Const(c) => Some((*c.value()).clone()),
            Elem::Null(_) => None,
        }
    }
}

impl fmt::Display for Elem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Elem::Const(c) => write!(f, "{c}"),
            Elem::Null(n) => write!(f, "_N{n}"),
        }
    }
}

/// A stored fact.
#[derive(Debug, Clone)]
pub struct StoredFact {
    /// Relation name.
    pub pred: Symbol,
    /// Arguments (always representatives — see normalization invariant).
    pub args: Vec<Elem>,
    /// `false` once merged away by deduplication.
    pub alive: bool,
    /// Provenance (used by the provenance chase; `⊤` elsewhere).
    pub prov: Dnf,
}

/// Error raised when two distinct constants are forced equal.
///
/// When the clash was provoked by an EGD firing, [`Inconsistent::egd`] and
/// [`Inconsistent::trigger_facts`] carry the constraint name and the
/// rendered premise facts of the firing trigger, so chase failures name
/// their culprit instead of just the two values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconsistent {
    /// The clashing constants.
    pub left: Value,
    /// The clashing constants.
    pub right: Value,
    /// Name of the EGD whose firing forced the merge, when known.
    pub egd: Option<Symbol>,
    /// Rendered premise facts of the firing trigger, when known.
    pub trigger_facts: Vec<String>,
}

impl Inconsistent {
    /// A bare clash (direct [`Instance::merge`] call, no EGD context).
    pub fn new(left: Value, right: Value) -> Inconsistent {
        Inconsistent {
            left,
            right,
            egd: None,
            trigger_facts: Vec::new(),
        }
    }

    /// Attach the firing EGD's name and its rendered trigger facts.
    pub fn with_trigger(mut self, egd: Symbol, trigger_facts: Vec<String>) -> Inconsistent {
        self.egd = Some(egd);
        self.trigger_facts = trigger_facts;
        self
    }
}

impl fmt::Display for Inconsistent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.egd {
            Some(name) => write!(
                f,
                "EGD [{name}] forces distinct constants equal: {} = {}",
                self.left, self.right
            )?,
            None => write!(
                f,
                "EGD forces distinct constants equal: {} = {}",
                self.left, self.right
            )?,
        }
        if !self.trigger_facts.is_empty() {
            write!(f, " (trigger: {})", self.trigger_facts.join(" ∧ "))?;
        }
        Ok(())
    }
}

impl std::error::Error for Inconsistent {}

/// Per-predicate posting lists of facts changed at-or-after an epoch
/// threshold, each ascending; built once per chase round by
/// [`Instance::delta_index`].
#[derive(Debug, Clone, Default)]
pub struct DeltaIndex {
    /// The epoch threshold the lists were computed for.
    pub threshold: u64,
    /// Alive facts with `fact_epoch >= threshold`, grouped by predicate.
    pub by_pred: FastMap<Symbol, Vec<u32>>,
}

impl DeltaIndex {
    /// Delta facts of one predicate (empty when none changed).
    pub fn facts_of(&self, pred: Symbol) -> &[u32] {
        self.by_pred.get(&pred).map(Vec::as_slice).unwrap_or(&[])
    }
}

static EMPTY_IDS: [u32; 0] = [];

/// Insert `id` into a sorted posting list, keeping it sorted and deduped.
fn insert_sorted(ids: &mut Vec<u32>, id: u32) {
    match ids.binary_search(&id) {
        Ok(_) => {}
        Err(pos) => ids.insert(pos, id),
    }
}

/// Remove `id` from a sorted posting list (no-op when absent).
fn remove_sorted(ids: &mut Vec<u32>, id: u32) {
    if let Ok(pos) = ids.binary_search(&id) {
        ids.remove(pos);
    }
}

/// An instance with labelled nulls, per-predicate and per-position indexes,
/// incremental EGD merging, and change epochs for semi-naive evaluation.
#[derive(Debug, Default)]
pub struct Instance {
    facts: Vec<StoredFact>,
    /// Epoch at which the same-index fact last changed (parallel to `facts`).
    fact_epoch: Vec<u64>,
    /// Union-find parent per null; `parent[i] == i` means root. Relaxed
    /// atomics so read-side resolution can pointer-halve through `&self`.
    parent: Vec<AtomicU32>,
    /// Constant binding of a root null (only meaningful at roots).
    bound: Vec<Option<ConstId>>,
    /// Count of alive facts (kept in sync with `facts[..].alive`).
    alive: usize,
    /// Current change epoch; advanced once per chase round.
    epoch: u64,
    /// Ids stamped at `epoch - 1` and at `epoch`, in stamp order (an id may
    /// repeat, or name a fact that has died since): the deltas of the two
    /// thresholds a semi-naive round asks for.
    stamped: [Vec<u32>; 2],
    /// predicate → alive fact ids (sorted ascending).
    by_pred: FastMap<Symbol, Vec<u32>>,
    /// (pred, position) → element → alive fact ids (sorted ascending). The
    /// two-level layout lets probes borrow the element key.
    by_pos: FastMap<(Symbol, u32), FastMap<Elem, Vec<u32>>>,
    /// predicate → argument vector → fact id (fast duplicate detection;
    /// lookup borrows the candidate arguments as a slice).
    dedup: FastMap<Symbol, FastMap<Vec<Elem>, u32>>,
    /// representative null → fact ids whose stored args mention it (sorted
    /// ascending; may contain dead facts, lazily skipped on consumption).
    null_occ: FastMap<u32, Vec<u32>>,
}

impl Clone for Instance {
    fn clone(&self) -> Instance {
        Instance {
            facts: self.facts.clone(),
            fact_epoch: self.fact_epoch.clone(),
            parent: self
                .parent
                .iter()
                .map(|p| AtomicU32::new(p.load(Ordering::Relaxed)))
                .collect(),
            bound: self.bound.clone(),
            alive: self.alive,
            epoch: self.epoch,
            stamped: self.stamped.clone(),
            by_pred: self.by_pred.clone(),
            by_pos: self.by_pos.clone(),
            dedup: self.dedup.clone(),
            null_occ: self.null_occ.clone(),
        }
    }
}

impl Instance {
    /// Empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Allocate a fresh labelled null.
    pub fn fresh_null(&mut self) -> Elem {
        let id = self.parent.len() as u32;
        self.parent.push(AtomicU32::new(id));
        self.bound.push(None);
        Elem::Null(id)
    }

    /// Ensure nulls `0..n` exist (used to freeze query variables so that
    /// variable id = null id).
    pub fn reserve_nulls(&mut self, n: u32) {
        while (self.parent.len() as u32) < n {
            let id = self.parent.len() as u32;
            self.parent.push(AtomicU32::new(id));
            self.bound.push(None);
        }
    }

    /// Root of null `n`, pointer-halving along the way (relaxed stores: any
    /// intermediate pointer still reaches the same root, so concurrent
    /// readers can only help each other).
    fn find(&self, mut n: u32) -> u32 {
        loop {
            let p = self.parent[n as usize].load(Ordering::Relaxed);
            if p == n {
                return n;
            }
            let gp = self.parent[p as usize].load(Ordering::Relaxed);
            if gp != p {
                self.parent[n as usize].store(gp, Ordering::Relaxed);
            }
            n = gp;
        }
    }

    /// Resolve an element to its representative.
    pub fn resolve(&self, e: &Elem) -> Elem {
        match e {
            Elem::Const(_) => *e,
            Elem::Null(n) => self.resolve_null(*n),
        }
    }

    fn resolve_null(&self, n: u32) -> Elem {
        let root = self.find(n);
        match self.bound[root as usize] {
            Some(c) => Elem::Const(c),
            None => Elem::Null(root),
        }
    }

    // -- epochs -------------------------------------------------------------

    /// The current change epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance to a fresh epoch (one chase round) and return it. Facts
    /// inserted or changed from now on are stamped with the new epoch.
    pub fn advance_epoch(&mut self) -> u64 {
        self.epoch += 1;
        let [older, newer] = &mut self.stamped;
        std::mem::swap(older, newer);
        newer.clear();
        self.epoch
    }

    /// Epoch at which `id` last changed.
    pub fn fact_epoch(&self, id: u32) -> u64 {
        self.fact_epoch[id as usize]
    }

    /// Fact `id` changed: stamp it with the current epoch and log it.
    fn stamp(&mut self, id: u32) {
        self.fact_epoch[id as usize] = self.epoch;
        self.log(id);
    }

    /// Log a stamp of fact `id`. Epoch 0 is the load, whose delta is every
    /// fact, which a scan lists: the facts an instance starts from are not
    /// logged.
    fn log(&mut self, id: u32) {
        if self.epoch > 0 {
            self.stamped[1].push(id);
        }
    }

    /// The per-predicate lists of alive facts changed at-or-after
    /// `threshold`, each ascending. A semi-naive round asks for the current
    /// epoch or the one before, whose stamps are logged: that costs what
    /// changed since, not the instance. Threshold 0 (every fact) and an
    /// older threshold take one pass over every fact.
    pub fn delta_index(&self, threshold: u64) -> DeltaIndex {
        let logged = match self.epoch.checked_sub(threshold) {
            _ if threshold == 0 => return self.scan_delta(threshold),
            None => &[][..],
            Some(0) => &self.stamped[1..],
            Some(1) => &self.stamped[..],
            Some(_) => return self.scan_delta(threshold),
        };
        let mut by_pred: FastMap<Symbol, Vec<u32>> = FastMap::default();
        for &id in logged.iter().flatten() {
            let f = &self.facts[id as usize];
            if f.alive {
                by_pred.entry(f.pred).or_default().push(id);
            }
        }
        for ids in by_pred.values_mut() {
            ids.sort_unstable();
            ids.dedup();
        }
        DeltaIndex { threshold, by_pred }
    }

    /// [`Instance::delta_index`] by one pass over every fact.
    fn scan_delta(&self, threshold: u64) -> DeltaIndex {
        let mut by_pred: FastMap<Symbol, Vec<u32>> = FastMap::default();
        for (i, f) in self.facts.iter().enumerate() {
            if f.alive && self.fact_epoch[i] >= threshold {
                by_pred.entry(f.pred).or_default().push(i as u32);
            }
        }
        DeltaIndex { threshold, by_pred }
    }

    // -- insertion ----------------------------------------------------------

    /// Insert a fact with provenance `⊤`. Returns the fact id and whether
    /// the fact is new.
    pub fn insert(&mut self, pred: Symbol, args: Vec<Elem>) -> (u32, bool) {
        self.insert_with_prov(pred, args, Dnf::tru())
    }

    /// Insert a fact carrying a provenance formula. If the fact already
    /// exists its provenance is extended by disjunction. Returns `(fact id,
    /// changed)` where `changed` covers both new facts and provenance
    /// growth.
    pub fn insert_with_prov(&mut self, pred: Symbol, args: Vec<Elem>, prov: Dnf) -> (u32, bool) {
        let args: Vec<Elem> = args.iter().map(|e| self.resolve(e)).collect();
        // Duplicate lookup borrows `args` as a slice — no key clone unless
        // the fact is genuinely new.
        if let Some(&id) = self.dedup.get(&pred).and_then(|m| m.get(args.as_slice())) {
            let changed = self.facts[id as usize].prov.or_assign(&prov);
            if changed {
                // Provenance growth must re-trigger constraints whose
                // premise matched this fact (the provenance chase reaches
                // its fixpoint through exactly these re-firings).
                self.stamp(id);
            }
            return (id, changed);
        }
        let id = self.facts.len() as u32;
        self.index_fact(pred, &args, id);
        self.dedup.entry(pred).or_default().insert(args.clone(), id);
        self.facts.push(StoredFact {
            pred,
            args,
            alive: true,
            prov,
        });
        self.fact_epoch.push(self.epoch);
        self.log(id);
        self.alive += 1;
        (id, true)
    }

    /// Add `id` to the predicate, positional and occurrence indexes.
    /// `id` is a fresh maximal fact id, so plain pushes keep the predicate
    /// and positional lists sorted.
    fn index_fact(&mut self, pred: Symbol, args: &[Elem], id: u32) {
        for (i, a) in args.iter().enumerate() {
            let bucket = self.by_pos.entry((pred, i as u32)).or_default();
            match bucket.get_mut(a) {
                Some(ids) => ids.push(id),
                None => {
                    bucket.insert(*a, vec![id]);
                }
            }
            if let Elem::Null(n) = a {
                insert_sorted(self.null_occ.entry(*n).or_default(), id);
            }
        }
        self.by_pred.entry(pred).or_default().push(id);
    }

    // -- lookups ------------------------------------------------------------

    /// All alive fact ids.
    pub fn fact_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.facts.len() as u32).filter(|id| self.facts[*id as usize].alive)
    }

    /// Access a fact by id (caller must respect `alive`).
    pub fn fact(&self, id: u32) -> &StoredFact {
        &self.facts[id as usize]
    }

    /// Render fact `id` as `pred(arg, …)` (diagnostics).
    pub fn format_fact(&self, id: u32) -> String {
        let f = &self.facts[id as usize];
        let args: Vec<String> = f.args.iter().map(|a| a.to_string()).collect();
        format!("{}({})", f.pred, args.join(", "))
    }

    /// Whether the fact is still alive (not merged away).
    pub fn is_alive(&self, id: u32) -> bool {
        self.facts[id as usize].alive
    }

    /// Alive fact count (O(1)).
    pub fn len(&self) -> usize {
        self.alive
    }

    /// `true` when no alive facts exist.
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// Alive facts of a predicate, as a borrowed posting list (ascending by
    /// fact id). The indexes contain only alive facts, so no filtering pass
    /// is needed.
    pub fn pred_facts(&self, pred: Symbol) -> &[u32] {
        let ids = self
            .by_pred
            .get(&pred)
            .map(Vec::as_slice)
            .unwrap_or(&EMPTY_IDS);
        debug_assert!(ids.iter().all(|id| self.facts[*id as usize].alive));
        ids
    }

    /// Number of alive facts of a predicate (O(1)).
    pub fn pred_count(&self, pred: Symbol) -> usize {
        self.by_pred.get(&pred).map(Vec::len).unwrap_or(0)
    }

    /// Alive facts of `pred` whose `position` equals `elem`, as a borrowed
    /// posting list (ascending by fact id). `elem` must be a
    /// representative. No allocation, no key clone.
    pub fn probe(&self, pred: Symbol, position: u32, elem: &Elem) -> &[u32] {
        let ids = self
            .by_pos
            .get(&(pred, position))
            .and_then(|bucket| bucket.get(elem))
            .map(Vec::as_slice)
            .unwrap_or(&EMPTY_IDS);
        debug_assert!(ids.iter().all(|id| self.facts[*id as usize].alive));
        ids
    }

    /// Number of alive facts of `pred` whose `position` equals `elem`
    /// (count-only probe for selectivity estimation; O(1)).
    pub fn count_with(&self, pred: Symbol, position: u32, elem: &Elem) -> usize {
        self.probe(pred, position, elem).len()
    }

    // -- EGD merging --------------------------------------------------------

    /// Merge two elements (EGD step). Returns `Ok(true)` if the instance
    /// changed; `Err` when two distinct constants clash.
    ///
    /// Incremental: only the facts whose stored arguments mention the
    /// retired null are rewritten, re-indexed and re-dedupped (see module
    /// docs). Observationally identical to
    /// [`crate::testkit::merge_full_rebuild`].
    pub fn merge(&mut self, a: &Elem, b: &Elem) -> Result<bool, Inconsistent> {
        Ok(self.merge_retired(a, b)?.is_some())
    }

    /// [`Instance::merge`] additionally reporting *which* null the merge
    /// retired: `Ok(Some(n))` when the instance changed by retiring null
    /// `n` (the younger of two null roots, or the null that was bound to a
    /// constant), `Ok(None)` when both sides already resolved equal.
    ///
    /// A merge can only disturb state keyed on *representatives* by
    /// retiring one — every surviving element still resolves to itself —
    /// so caches keyed on resolved elements (the chase-level applicability
    /// memo in [`mod@crate::chase`]) use the returned id to invalidate exactly
    /// the entries this merge can affect, mirroring the `null → fact ids`
    /// occurrence index the instance itself uses for incremental
    /// normalization.
    pub fn merge_retired(&mut self, a: &Elem, b: &Elem) -> Result<Option<u32>, Inconsistent> {
        match self.merge_union(a, b)? {
            None => Ok(None),
            Some(retired) => {
                self.rewrite_occurrences(retired);
                Ok(Some(retired))
            }
        }
    }

    /// Union-find part of a merge: resolve both sides, link or bind, and
    /// return the retired null (`None` when already equal).
    pub(crate) fn merge_union(&mut self, a: &Elem, b: &Elem) -> Result<Option<u32>, Inconsistent> {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        if ra == rb {
            return Ok(None);
        }
        match (ra, rb) {
            (Elem::Const(x), Elem::Const(y)) => Err(Inconsistent::new(
                (*x.value()).clone(),
                (*y.value()).clone(),
            )),
            (Elem::Null(n), Elem::Const(c)) | (Elem::Const(c), Elem::Null(n)) => {
                self.bound[n as usize] = Some(c);
                Ok(Some(n))
            }
            (Elem::Null(n1), Elem::Null(n2)) => {
                // Merge the younger null into the older one so that frozen
                // query variables (low ids) stay representatives.
                let (child, parent) = if n1 > n2 { (n1, n2) } else { (n2, n1) };
                self.parent[child as usize].store(parent, Ordering::Relaxed);
                Ok(Some(child))
            }
        }
    }

    /// Re-canonicalize exactly the facts whose stored arguments mention the
    /// retired null `child`: rewrite their arguments to representatives,
    /// re-dedup (smallest id survives, provenance joins in ascending id
    /// order — the full-rebuild keeper choice), and patch the posting lists
    /// of the touched elements. Facts whose arguments changed — and facts
    /// that absorbed a duplicate's provenance — are stamped with the
    /// current epoch so the semi-naive search revisits them.
    fn rewrite_occurrences(&mut self, child: u32) {
        let Some(touched) = self.null_occ.remove(&child) else {
            return;
        };
        // `touched` is sorted ascending; processing in id order replicates
        // the keeper choice and provenance-join order of a full rebuild.
        for id in touched {
            if !self.facts[id as usize].alive {
                continue; // stale entry: the fact died in an earlier merge
            }
            self.renormalize_fact(id);
        }
    }

    /// Rewrite one touched fact's arguments to representatives and restore
    /// the index/dedup invariants around it.
    fn renormalize_fact(&mut self, id: u32) {
        let pred = self.facts[id as usize].pred;
        let old_args = self.facts[id as usize].args.clone();
        let new_args: Vec<Elem> = old_args.iter().map(|e| self.resolve(e)).collect();
        if new_args == old_args {
            return;
        }
        // Drop the stale dedup key and positional entries.
        if let Some(m) = self.dedup.get_mut(&pred) {
            m.remove(old_args.as_slice());
        }
        self.unindex_positions(pred, &old_args, id);

        match self
            .dedup
            .get(&pred)
            .and_then(|m| m.get(new_args.as_slice()))
            .copied()
        {
            Some(keep) if keep < id => {
                // Collapsed into an earlier fact: join provenance there.
                let prov = std::mem::replace(&mut self.facts[id as usize].prov, Dnf::fals());
                let grew = self.facts[keep as usize].prov.or_assign(&prov);
                self.facts[id as usize].alive = false;
                self.alive -= 1;
                if let Some(ids) = self.by_pred.get_mut(&pred) {
                    remove_sorted(ids, id);
                }
                if grew {
                    self.stamp(keep);
                }
            }
            Some(keep) => {
                // A later fact holds these arguments: the smaller id wins
                // (as in a full rebuild, where it would be visited first).
                // `id` takes over the dedup slot and the later fact's
                // provenance; the later fact dies.
                debug_assert!(keep > id);
                let prov = std::mem::replace(&mut self.facts[keep as usize].prov, Dnf::fals());
                self.facts[keep as usize].alive = false;
                self.alive -= 1;
                if let Some(ids) = self.by_pred.get_mut(&pred) {
                    remove_sorted(ids, keep);
                }
                self.unindex_positions(pred, &new_args, keep);
                self.install_args(pred, new_args, id);
                self.facts[id as usize].prov.or_assign(&prov);
                self.stamp(id);
            }
            None => {
                self.install_args(pred, new_args, id);
                self.stamp(id);
            }
        }
    }

    /// Remove `id` from the positional buckets of `args` (dropping emptied
    /// buckets so retired elements don't linger as keys).
    fn unindex_positions(&mut self, pred: Symbol, args: &[Elem], id: u32) {
        for (i, a) in args.iter().enumerate() {
            if let Some(bucket) = self.by_pos.get_mut(&(pred, i as u32)) {
                if let Some(ids) = bucket.get_mut(a) {
                    remove_sorted(ids, id);
                    if ids.is_empty() {
                        bucket.remove(a);
                    }
                }
            }
        }
    }

    /// Store `args` on fact `id` and (re-)index it: positional buckets,
    /// dedup slot, and occurrence lists of the argument nulls.
    fn install_args(&mut self, pred: Symbol, args: Vec<Elem>, id: u32) {
        for (i, a) in args.iter().enumerate() {
            let bucket = self.by_pos.entry((pred, i as u32)).or_default();
            insert_sorted(bucket.entry(*a).or_default(), id);
            if let Elem::Null(n) = a {
                insert_sorted(self.null_occ.entry(*n).or_default(), id);
            }
        }
        self.dedup.entry(pred).or_default().insert(args.clone(), id);
        self.facts[id as usize].args = args;
    }

    // -- full-rebuild baseline ---------------------------------------------

    /// Re-canonicalize every fact from scratch: rewrite arguments to
    /// representatives, de-duplicate facts that became equal (joining their
    /// provenance), and rebuild all indexes — the rebuild half of
    /// [`crate::testkit::merge_full_rebuild`].
    pub(crate) fn normalize_full_rebuild(&mut self) {
        self.dedup.clear();
        self.by_pos.clear();
        self.by_pred.clear();
        self.null_occ.clear();
        self.alive = 0;
        let n = self.facts.len();
        for id in 0..n {
            if !self.facts[id].alive {
                continue;
            }
            let pred = self.facts[id].pred;
            let args: Vec<Elem> = self.facts[id]
                .args
                .iter()
                .map(|e| self.resolve(e))
                .collect();
            if let Some(&keep) = self.dedup.get(&pred).and_then(|m| m.get(args.as_slice())) {
                // Collapsed into an earlier fact: join provenance there.
                let prov = std::mem::replace(&mut self.facts[id].prov, Dnf::fals());
                let grew = self.facts[keep as usize].prov.or_assign(&prov);
                self.facts[id].alive = false;
                if grew {
                    self.stamp(keep);
                }
                continue;
            }
            if self.facts[id].args != args {
                self.facts[id].args = args.clone();
                self.stamp(id as u32);
            }
            self.index_fact(pred, &args, id as u32);
            self.dedup.entry(pred).or_default().insert(args, id as u32);
            self.alive += 1;
        }
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for id in self.fact_ids() {
            if !first {
                writeln!(f)?;
            }
            first = false;
            let fact = self.fact(id);
            write!(f, "{}(", fact.pred)?;
            for (i, a) in fact.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::merge_full_rebuild;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    impl Instance {
        /// Parent-chain length of null `n` (no compression) — test probe
        /// for the pointer-halving regression.
        fn chain_depth(&self, mut n: u32) -> usize {
            let mut depth = 0;
            loop {
                let p = self.parent[n as usize].load(Ordering::Relaxed);
                if p == n {
                    return depth;
                }
                depth += 1;
                n = p;
            }
        }
    }

    #[test]
    fn elem_is_copy_eq_ord_hash_and_8_bytes() {
        fn assert_props<T: Copy + Clone + Eq + Ord + std::hash::Hash + Send + Sync>() {}
        assert_props::<Elem>();
        assert_eq!(std::mem::size_of::<Elem>(), 8);
        // Interned equality agrees with Value equality.
        assert_eq!(Elem::of(3i64), Elem::constant(&Value::Int(3)));
        assert_ne!(Elem::of(3i64), Elem::of(3.0f64));
        assert_eq!(Elem::of(3i64).as_value(), Some(Value::Int(3)));
    }

    #[test]
    fn instance_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Instance>();
    }

    #[test]
    fn insert_dedups_identical_facts() {
        let mut i = Instance::new();
        let n = i.fresh_null();
        let (id1, new1) = i.insert(sym("R"), vec![n, Elem::of(1i64)]);
        let (id2, new2) = i.insert(sym("R"), vec![n, Elem::of(1i64)]);
        assert!(new1);
        assert!(!new2);
        assert_eq!(id1, id2);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn logged_deltas_list_what_a_scan_of_the_facts_lists() {
        // Inserts (new and duplicate), null merges (rewrites, collapses —
        // whose dead facts must leave the logged delta) and epoch advances
        // in a seeded mix; after every step, every threshold up to one past
        // the epoch.
        let mut i = Instance::new();
        let nulls: Vec<Elem> = (0..6).map(|_| i.fresh_null()).collect();
        let mut x = 11u64;
        let mut next = |n: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize % n
        };
        for step in 0..600 {
            match next(6) {
                0..=2 => {
                    let args = vec![nulls[next(6)], Elem::of(next(3) as i64)];
                    i.insert(sym(["R", "S"][next(2)]), args);
                }
                3 => {
                    let (a, b) = (nulls[next(6)], nulls[next(6)]);
                    i.merge(&a, &b).expect("nulls never clash");
                }
                _ => {
                    i.advance_epoch();
                }
            }
            for t in 0..=i.epoch() + 1 {
                let (logged, scanned) = (i.delta_index(t), i.scan_delta(t));
                assert_eq!(
                    logged.by_pred, scanned.by_pred,
                    "step {step}, threshold {t}"
                );
            }
        }
    }

    #[test]
    fn merge_null_with_constant_rewrites_facts() {
        let mut i = Instance::new();
        let n = i.fresh_null();
        i.insert(sym("R"), vec![n]);
        i.merge(&n, &Elem::of(9i64)).unwrap();
        let id = i.fact_ids().next().unwrap();
        assert_eq!(i.fact(id).args[0], Elem::of(9i64));
        assert_eq!(i.resolve(&n), Elem::of(9i64));
    }

    #[test]
    fn merge_two_nulls_dedups_facts_and_joins_prov() {
        let mut i = Instance::new();
        let a = i.fresh_null();
        let b = i.fresh_null();
        i.insert_with_prov(sym("R"), vec![a], Dnf::var(1));
        i.insert_with_prov(sym("R"), vec![b], Dnf::var(2));
        assert_eq!(i.len(), 2);
        i.merge(&a, &b).unwrap();
        assert_eq!(i.len(), 1);
        let id = i.fact_ids().next().unwrap();
        assert_eq!(i.fact(id).prov.len(), 2); // p1 ∨ p2
    }

    #[test]
    fn constant_clash_is_inconsistent() {
        let mut i = Instance::new();
        let a = Elem::of(1i64);
        let b = Elem::of(2i64);
        let err = i.merge(&a, &b).unwrap_err();
        assert_eq!(err.left, Value::Int(1));
        assert_eq!(err.right, Value::Int(2));
        assert!(err.egd.is_none());
    }

    #[test]
    fn inconsistent_display_names_the_egd_and_trigger() {
        let err = Inconsistent::new(Value::Int(8), Value::Int(9))
            .with_trigger(sym("fd"), vec!["R(1, 8)".into(), "R(1, 9)".into()]);
        let msg = err.to_string();
        assert!(msg.contains("[fd]"), "missing EGD name: {msg}");
        assert!(msg.contains("R(1, 8) ∧ R(1, 9)"), "missing trigger: {msg}");
        assert!(msg.contains("8 = 9"), "missing values: {msg}");
    }

    #[test]
    fn lower_null_id_stays_representative() {
        let mut i = Instance::new();
        let a = i.fresh_null(); // N0 — e.g. a frozen head variable
        let b = i.fresh_null(); // N1 — e.g. a chase-invented null
        i.merge(&b, &a).unwrap();
        assert_eq!(i.resolve(&b), a);
    }

    #[test]
    fn merge_retired_names_the_retired_null() {
        let mut i = Instance::new();
        let a = i.fresh_null(); // N0
        let b = i.fresh_null(); // N1
                                // Null/null: the younger root retires.
        assert_eq!(i.merge_retired(&b, &a).unwrap(), Some(1));
        // Already equal: nothing retires.
        assert_eq!(i.merge_retired(&a, &b).unwrap(), None);
        // Null/constant: the null retires.
        assert_eq!(i.merge_retired(&a, &Elem::of(5i64)).unwrap(), Some(0));
        assert_eq!(i.merge_retired(&b, &Elem::of(5i64)).unwrap(), None);
    }

    #[test]
    fn position_index_finds_facts() {
        let mut i = Instance::new();
        let n = i.fresh_null();
        i.insert(sym("R"), vec![n, Elem::of(1i64)]);
        i.insert(sym("R"), vec![n, Elem::of(2i64)]);
        assert_eq!(i.probe(sym("R"), 1, &Elem::of(2i64)).len(), 1);
        assert_eq!(i.probe(sym("R"), 0, &n).len(), 2);
        assert_eq!(i.count_with(sym("R"), 0, &n), 2);
        assert_eq!(i.pred_count(sym("R")), 2);
    }

    #[test]
    fn transitive_null_chains_resolve() {
        let mut i = Instance::new();
        let a = i.fresh_null();
        let b = i.fresh_null();
        let c = i.fresh_null();
        i.merge(&b, &c).unwrap(); // c -> b
        i.merge(&a, &b).unwrap(); // b -> a
        assert_eq!(i.resolve(&c), a);
        i.merge(&c, &Elem::of(5i64)).unwrap();
        assert_eq!(i.resolve(&a), Elem::of(5i64));
        assert_eq!(i.resolve(&b), Elem::of(5i64));
    }

    #[test]
    fn deep_merge_chain_resolution_is_compressed() {
        // Regression for the uncompressed Child-link walk: a 10k-deep
        // merge chain must collapse to near-constant probes after the
        // first resolutions (pointer halving, amortized O(α)).
        let n = 10_000u32;
        let mut i = Instance::new();
        i.reserve_nulls(n);
        for k in (0..n - 1).rev() {
            i.merge(&Elem::Null(k), &Elem::Null(k + 1)).unwrap();
        }
        let deepest = n - 1;
        assert_eq!(i.chain_depth(deepest) as u32, n - 1);
        assert_eq!(i.resolve(&Elem::Null(deepest)), Elem::Null(0));
        // One resolution roughly halves the path…
        assert!(i.chain_depth(deepest) as u32 <= n / 2 + 1);
        // …and a handful more flatten it completely (log₂ 10k < 14).
        for _ in 0..16 {
            i.resolve(&Elem::Null(deepest));
        }
        assert!(i.chain_depth(deepest) <= 1);
        // The compressed pointers still agree with the semantics.
        i.merge(&Elem::Null(0), &Elem::of(5i64)).unwrap();
        assert_eq!(i.resolve(&Elem::Null(deepest)), Elem::of(5i64));
        assert_eq!(i.resolve(&Elem::Null(n / 2)), Elem::of(5i64));
    }

    #[test]
    fn indexes_contain_only_alive_facts_after_merge() {
        let mut i = Instance::new();
        let a = i.fresh_null();
        let b = i.fresh_null();
        i.insert(sym("R"), vec![a, Elem::of(1i64)]);
        i.insert(sym("R"), vec![b, Elem::of(1i64)]);
        i.merge(&a, &b).unwrap();
        // Two facts collapsed into one; the indexes must reflect that
        // without any dead-entry filtering.
        assert_eq!(i.pred_facts(sym("R")).len(), 1);
        assert_eq!(i.probe(sym("R"), 1, &Elem::of(1i64)).len(), 1);
        assert_eq!(i.len(), 1);
        // The retired null's posting bucket is gone, not empty.
        assert!(i.probe(sym("R"), 0, &b).is_empty());
    }

    #[test]
    fn incremental_merge_matches_full_rebuild() {
        // Same op sequence on two instances, one merging incrementally and
        // one with the O(instance) rebuild baseline: identical facts,
        // provenance, epochs and indexes.
        let build = |incremental: bool| {
            let mut i = Instance::new();
            let nulls: Vec<Elem> = (0..6).map(|_| i.fresh_null()).collect();
            for k in 0..6usize {
                i.insert_with_prov(
                    sym("R"),
                    vec![nulls[k], Elem::of((k % 3) as i64)],
                    Dnf::var(k as u32),
                );
                i.insert_with_prov(sym("S"), vec![nulls[k], nulls[(k + 1) % 6]], Dnf::var(10));
            }
            i.advance_epoch();
            let pairs = [(0usize, 3usize), (1, 4), (3, 1)];
            for (a, b) in pairs {
                if incremental {
                    i.merge(&nulls[a], &nulls[b]).unwrap();
                } else {
                    merge_full_rebuild(&mut i, &nulls[a], &nulls[b]).unwrap();
                }
            }
            i.advance_epoch();
            if incremental {
                i.merge(&nulls[5], &Elem::of(7i64)).unwrap();
            } else {
                merge_full_rebuild(&mut i, &nulls[5], &Elem::of(7i64)).unwrap();
            }
            i
        };
        let inc = build(true);
        let full = build(false);
        assert_eq!(inc.len(), full.len());
        let dump = |i: &Instance| -> Vec<(u32, String, String, u64)> {
            i.fact_ids()
                .map(|id| {
                    (
                        id,
                        i.format_fact(id),
                        format!("{:?}", i.fact(id).prov),
                        i.fact_epoch(id),
                    )
                })
                .collect()
        };
        assert_eq!(dump(&inc), dump(&full));
        for p in [sym("R"), sym("S")] {
            assert_eq!(inc.pred_facts(p), full.pred_facts(p));
        }
    }

    #[test]
    fn merge_collision_with_later_fact_keeps_smaller_id() {
        // Fact 0 is rewritten into the same args as fact 1: the smaller id
        // must survive (the full-rebuild keeper choice) and absorb fact 1's
        // provenance.
        let mut i = Instance::new();
        let a = i.fresh_null();
        let (id0, _) = i.insert_with_prov(sym("R"), vec![a, Elem::of(1i64)], Dnf::var(0));
        let (id1, _) =
            i.insert_with_prov(sym("R"), vec![Elem::of(9i64), Elem::of(1i64)], Dnf::var(1));
        assert!(id0 < id1);
        i.merge(&a, &Elem::of(9i64)).unwrap();
        assert_eq!(i.len(), 1);
        assert!(i.is_alive(id0));
        assert!(!i.is_alive(id1));
        assert_eq!(i.fact(id0).prov.len(), 2); // p0 ∨ p1
        assert_eq!(i.pred_facts(sym("R")), &[id0]);
        assert_eq!(i.probe(sym("R"), 0, &Elem::of(9i64)), &[id0]);
    }

    #[test]
    fn epochs_track_insertions_and_rewrites() {
        let mut i = Instance::new();
        let n = i.fresh_null();
        i.insert(sym("R"), vec![n]); // epoch 0
        let e1 = i.advance_epoch();
        let (id2, _) = i.insert(sym("S"), vec![Elem::of(3i64)]);
        assert_eq!(i.fact_epoch(0), 0);
        assert_eq!(i.fact_epoch(id2), e1);
        // Delta at threshold e1 sees only the new fact.
        let d = i.delta_index(e1);
        assert_eq!(d.facts_of(sym("S")), &[id2]);
        assert!(d.facts_of(sym("R")).is_empty());
        // A merge rewriting fact 0's argument bumps its epoch.
        let e2 = i.advance_epoch();
        i.merge(&n, &Elem::of(7i64)).unwrap();
        assert_eq!(i.fact_epoch(0), e2);
        assert_eq!(i.delta_index(e2).facts_of(sym("R")), &[0]);
    }

    #[test]
    fn provenance_growth_bumps_epoch() {
        let mut i = Instance::new();
        i.insert_with_prov(sym("R"), vec![Elem::of(1i64)], Dnf::var(0));
        let e = i.advance_epoch();
        let (id, changed) = i.insert_with_prov(sym("R"), vec![Elem::of(1i64)], Dnf::var(1));
        assert!(changed);
        assert_eq!(i.fact_epoch(id), e);
        // Re-inserting identical provenance changes nothing.
        i.advance_epoch();
        let (_, changed) = i.insert_with_prov(sym("R"), vec![Elem::of(1i64)], Dnf::var(1));
        assert!(!changed);
        assert_eq!(i.fact_epoch(id), e);
    }
}
