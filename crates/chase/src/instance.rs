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
//! O(chain depth). The parent cells are `Cell`s: halving is a benign
//! optimization (any intermediate pointer still leads to the same root),
//! so read-side compression works through `&Instance`. An instance is
//! `Send` but not `Sync`: every search over it runs on the thread that
//! owns it. Constant
//! bindings live at the root (`bound`); a bound root resolves to its
//! constant.
//!
//! # Index layout and the hot-path contract
//!
//! Homomorphism search ([`crate::hom`]) is the hottest path of the whole
//! rewriting stack, so the layout is flat and built around *borrowing*
//! probes:
//!
//! - Every fact's arguments live in one `Elem` arena, at an offset kept
//!   per fact; predicate, alive flag, epoch and provenance are parallel
//!   per-fact vectors. [`Instance::args`] and [`Instance::fact`] borrow
//!   from them.
//! - Each predicate has an ascending list of its alive fact ids, and each
//!   `(predicate, position)` a column: an [`estocada_pivot::Postings`]
//!   from element to the ascending alive fact ids holding it there, a key's
//!   lone fact kept inline. Probing ([`Instance::probe`]) returns a borrowed
//!   `&[u32]` slice (no `Vec` allocation per probe);
//!   [`Instance::count_with`] exposes the count-only variant used for
//!   join-order selection.
//! - Both index families contain **only alive facts** and every posting
//!   list is kept sorted ascending by fact id — exactly the order a full
//!   index rebuild would produce — so incremental maintenance is
//!   observationally identical to rebuilding. A `debug_assert` guards the
//!   alive invariant.
//! - Deduplication is an open-addressing table of fact ids
//!   ([`estocada_pivot::kernel::IdTable`], the table `Distinct` finds its
//!   rows through) found by the hash of predicate and arguments, compared
//!   against the arena: no key is stored per fact. The hasher is the
//!   instance's type parameter, so a test can send every fact to one slot.
//! - The null-occurrence index is one list arena: per null, the facts
//!   mentioning it, linked newest first; a merge sorts the one list it
//!   consumes.
//! - Provenance `⊤` is a flag, not an allocation ([`Dnf::tru`]).
//!
//! [`Instance::new`] starts from empty buffers. The chases of one call — a
//! [`crate::pacb::Rewriter::rewrite`]'s forward chase, backchase and
//! candidate verifications, or a containment check's — build their
//! instances from the call's workspace instead: an instance the call is
//! done with gives its emptied buffers back to it, and the next one starts
//! from them, inserting into capacity the first of them grew. The
//! workspace, and every buffer in it, goes when the call returns.
//!
//! # Incremental EGD normalization
//!
//! [`Instance::merge`] is **incremental**: a `null → fact ids` occurrence
//! index (`occ`) records, for every representative null, the facts
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
use estocada_pivot::hash::{FastBuild, FastMap};
use estocada_pivot::kernel::IdTable;
use estocada_pivot::{ConstId, Postings, Symbol, Value};
use std::cell::Cell;
use std::fmt;
use std::hash::BuildHasher;

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

/// A stored fact, borrowed from its instance.
#[derive(Debug, Clone, Copy)]
pub struct StoredFact<'a> {
    /// Relation name.
    pub pred: Symbol,
    /// Arguments (always representatives — see normalization invariant).
    pub args: &'a [Elem],
    /// `false` once merged away by deduplication.
    pub alive: bool,
    /// Provenance (used by the provenance chase; `⊤` elsewhere).
    pub prov: &'a Dnf,
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
/// [`Instance::delta_index`] (the chase refills its workspace's one).
#[derive(Debug, Clone, Default)]
pub struct DeltaIndex {
    /// The epoch threshold the lists were computed for.
    pub threshold: u64,
    /// Predicate → its span of `ids`.
    spans: FastMap<Symbol, (u32, u32)>,
    /// Every predicate's list, one after the other.
    ids: Vec<u32>,
    /// `(predicate, fact)` pairs being grouped: the fill's scratch.
    pairs: Vec<(Symbol, u32)>,
}

impl DeltaIndex {
    /// Delta facts of one predicate (empty when none changed).
    pub fn facts_of(&self, pred: Symbol) -> &[u32] {
        (self.spans.get(&pred)).map_or(&[], |&(s, e)| &self.ids[s as usize..e as usize])
    }

    /// The predicates with delta facts, in no particular order.
    pub fn preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.spans.keys().copied()
    }

    /// Group the staged `pairs` into ascending per-predicate lists.
    fn group(&mut self) {
        self.pairs.sort_unstable();
        self.pairs.dedup();
        self.spans.clear();
        self.ids.clear();
        for run in self.pairs.chunk_by(|a, b| a.0 == b.0) {
            let start = self.ids.len() as u32;
            self.ids.extend(run.iter().map(|&(_, id)| id));
            self.spans.insert(run[0].0, (start, self.ids.len() as u32));
        }
    }
}

/// The marker of an empty slot, list end or absent head.
const NONE: u32 = u32::MAX;

/// Buffers handed out by index and kept across [`Slab::reset`]: a reset
/// empties the ones in use without dropping them, and [`Slab::push`] hands
/// out an emptied one before it makes a new one.
#[derive(Debug, Clone, Default)]
struct Slab<T> {
    items: Vec<T>,
    len: usize,
}

impl<T: Default> Slab<T> {
    /// The index of a fresh, empty buffer.
    fn push(&mut self) -> usize {
        if self.len == self.items.len() {
            self.items.push(T::default());
        }
        self.len += 1;
        self.len - 1
    }

    /// Empty every buffer in use by `empty`, keeping them in place.
    fn empty_all(&mut self, empty: fn(&mut T)) {
        self.items[..self.len].iter_mut().for_each(empty);
    }

    /// Empty every buffer by `empty` and hand them out again from the
    /// first.
    fn reset(&mut self, empty: fn(&mut T)) {
        self.empty_all(empty);
        self.len = 0;
    }
}

impl<T> std::ops::Index<usize> for Slab<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.items[i]
    }
}

impl<T> std::ops::IndexMut<usize> for Slab<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.items[i]
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
/// `S` hashes a fact's predicate and arguments for deduplication.
#[derive(Debug, Clone)]
pub struct Instance<S = FastBuild> {
    store: Store,
    hasher: S,
}

/// Everything an instance holds but its hasher — the part a workspace
/// keeps for the next instance it builds (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Store {
    /// Predicate per fact.
    preds: Vec<Symbol>,
    /// `(offset in args, arity)` per fact.
    spans: Vec<(u32, u32)>,
    /// Every fact's arguments, one fact after the other.
    args: Vec<Elem>,
    /// `false` once merged away by deduplication, per fact.
    alive: Vec<bool>,
    /// Epoch at which the fact last changed, per fact.
    fact_epoch: Vec<u64>,
    /// Provenance per fact.
    prov: Slab<Dnf>,
    /// Union-find parent per null; `parent[i] == i` means root. A `Cell`,
    /// so read-side resolution can pointer-halve through `&self`.
    parent: Vec<Cell<u32>>,
    /// Constant binding of a root null (only meaningful at roots).
    bound: Vec<Option<ConstId>>,
    /// Count of alive facts (kept in sync with `alive`).
    alive_count: usize,
    /// Current change epoch; advanced once per chase round.
    epoch: u64,
    /// Ids stamped at `epoch - 1` and at `epoch`, in stamp order (an id may
    /// repeat, or name a fact that has died since): the deltas of the two
    /// thresholds a semi-naive round asks for.
    stamped: [Vec<u32>; 2],
    /// Predicate → its list in `by_pred`.
    pred_ix: FastMap<Symbol, u32>,
    /// Alive fact ids per predicate, ascending.
    by_pred: Slab<Vec<u32>>,
    /// `(predicate, position)` → its column in `cols`.
    col_ix: FastMap<(Symbol, u32), u32>,
    /// Element → alive fact ids holding it, per `(predicate, position)`.
    cols: Slab<Postings<Elem, u32>>,
    /// Alive facts found by predicate and arguments.
    dedup: IdTable,
    /// Representative null → its first node in `occ` ([`NONE`]: none).
    occ_head: Vec<u32>,
    /// `(fact id, next node)`: per null, a list of the facts whose stored
    /// arguments mention it, newest first (may repeat, or name dead facts).
    occ: Vec<(u32, u32)>,
    /// The occurrence list being consumed, sorted: a merge's scratch.
    touched: Vec<u32>,
    /// Arguments being resolved: an insert's or a rewrite's scratch.
    resolved: Vec<Elem>,
}

impl Store {
    /// Empty every buffer, keeping its capacity.
    fn reset(&mut self) {
        self.preds.clear();
        self.spans.clear();
        self.args.clear();
        self.alive.clear();
        self.fact_epoch.clear();
        self.prov.reset(Dnf::clear);
        self.parent.clear();
        self.bound.clear();
        self.alive_count = 0;
        self.epoch = 0;
        self.stamped.iter_mut().for_each(Vec::clear);
        self.pred_ix.clear();
        self.by_pred.reset(Vec::clear);
        self.col_ix.clear();
        self.cols.reset(Postings::clear);
        self.dedup.clear();
        self.occ_head.clear();
        self.occ.clear();
    }

    /// Arguments of fact `id`.
    fn args_of(&self, id: u32) -> &[Elem] {
        let (start, arity) = self.spans[id as usize];
        &self.args[start as usize..(start + arity) as usize]
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

    /// The list of `pred` in `by_pred`, made on first use.
    fn pred_list(&mut self, pred: Symbol) -> usize {
        match self.pred_ix.get(&pred) {
            Some(&list) => list as usize,
            None => {
                let list = self.by_pred.push();
                self.pred_ix.insert(pred, list as u32);
                list
            }
        }
    }

    /// The column of `(pred, position)` in `cols`, made on first use.
    fn column(&mut self, pred: Symbol, position: u32) -> usize {
        match self.col_ix.get(&(pred, position)) {
            Some(&col) => col as usize,
            None => {
                let col = self.cols.push();
                self.col_ix.insert((pred, position), col as u32);
                col
            }
        }
    }

    /// Record that fact `id` mentions null `n`.
    fn note_occurrence(&mut self, n: u32, id: u32) {
        let n = n as usize;
        if self.occ_head.len() <= n {
            self.occ_head.resize(self.parent.len().max(n + 1), NONE);
        }
        self.occ.push((id, self.occ_head[n]));
        self.occ_head[n] = (self.occ.len() - 1) as u32;
    }

    /// Post fact `id`'s current arguments in the positional columns and
    /// the occurrence lists.
    fn index_args(&mut self, id: u32) {
        let pred = self.preds[id as usize];
        let (start, arity) = self.spans[id as usize];
        for i in 0..arity {
            let a = self.args[(start + i) as usize];
            let col = self.column(pred, i);
            self.cols[col].insert(a, id);
            if let Elem::Null(n) = a {
                self.note_occurrence(n, id);
            }
        }
    }

    /// Unpost fact `id`'s current arguments from the positional columns
    /// (a key left without facts leaves its column).
    fn unindex_args(&mut self, id: u32) {
        let pred = self.preds[id as usize];
        let (start, arity) = self.spans[id as usize];
        for i in 0..arity {
            if let Some(&col) = self.col_ix.get(&(pred, i)) {
                let a = &self.args[(start + i) as usize];
                self.cols.items[col as usize].relocate(a, id, None);
            }
        }
    }

    /// Fact `id` dies as the duplicate of another: out of the predicate's
    /// list, its provenance (now joined elsewhere) cleared.
    fn kill(&mut self, id: u32) {
        self.alive[id as usize] = false;
        self.alive_count -= 1;
        self.prov[id as usize].clear();
        if let Some(&list) = self.pred_ix.get(&self.preds[id as usize]) {
            remove_sorted(&mut self.by_pred[list as usize], id);
        }
    }

    /// Join fact `from`'s provenance into fact `into`'s; whether it grew.
    fn join_prov(&mut self, from: u32, into: u32) -> bool {
        let prov = std::mem::take(&mut self.prov[from as usize]);
        let grew = self.prov[into as usize].or_assign(&prov);
        self.prov[from as usize] = prov;
        grew
    }
}

impl Instance {
    /// Empty instance.
    pub fn new() -> Instance {
        Instance::with_hasher(FastBuild::default())
    }

    /// An empty instance on `store`'s emptied buffers.
    pub(crate) fn on(store: Store) -> Instance {
        let hasher = FastBuild::default();
        Instance { store, hasher }
    }

    /// This instance's buffers, emptied for the next instance.
    pub(crate) fn into_store(self) -> Store {
        let mut store = self.store;
        store.reset();
        store
    }
}

impl Default for Instance {
    fn default() -> Instance {
        Instance::new()
    }
}

impl<S: BuildHasher> Instance<S> {
    /// Empty instance deduplicating facts by `hasher`'s hash of their
    /// predicate and arguments.
    pub fn with_hasher(hasher: S) -> Instance<S> {
        Instance {
            store: Store::default(),
            hasher,
        }
    }

    /// Allocate a fresh labelled null.
    pub fn fresh_null(&mut self) -> Elem {
        let id = self.store.parent.len() as u32;
        self.store.parent.push(Cell::new(id));
        self.store.bound.push(None);
        Elem::Null(id)
    }

    /// Ensure nulls `0..n` exist (used to freeze query variables so that
    /// variable id = null id).
    pub fn reserve_nulls(&mut self, n: u32) {
        while (self.store.parent.len() as u32) < n {
            self.fresh_null();
        }
    }

    /// Root of null `n`, pointer-halving along the way (any intermediate
    /// pointer still reaches the same root).
    fn find(&self, mut n: u32) -> u32 {
        let parent = &self.store.parent;
        loop {
            let p = parent[n as usize].get();
            if p == n {
                return n;
            }
            let gp = parent[p as usize].get();
            if gp != p {
                parent[n as usize].set(gp);
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
        match self.store.bound[root as usize] {
            Some(c) => Elem::Const(c),
            None => Elem::Null(root),
        }
    }

    /// The dedup hash of a fact.
    fn hash_of(&self, pred: Symbol, args: &[Elem]) -> u32 {
        self.hasher.hash_one((pred, args)) as u32
    }

    /// The alive fact of `pred` holding `args`, whose hash is `hash`.
    fn find_fact(&self, hash: u32, pred: Symbol, args: &[Elem]) -> Option<u32> {
        let st = &self.store;
        st.dedup.find(hash, |id| {
            st.preds[id as usize] == pred && st.args_of(id) == args
        })
    }

    /// Resolve `args` into the store's scratch, which the caller takes.
    fn take_resolved(&mut self, args: &[Elem]) -> Vec<Elem> {
        let mut resolved = std::mem::take(&mut self.store.resolved);
        resolved.clear();
        resolved.extend(args.iter().map(|e| self.resolve(e)));
        resolved
    }

    // -- epochs -------------------------------------------------------------

    /// The current change epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch
    }

    /// Advance to a fresh epoch (one chase round) and return it. Facts
    /// inserted or changed from now on are stamped with the new epoch.
    pub fn advance_epoch(&mut self) -> u64 {
        let st = &mut self.store;
        st.epoch += 1;
        let [older, newer] = &mut st.stamped;
        std::mem::swap(older, newer);
        newer.clear();
        st.epoch
    }

    /// Epoch at which `id` last changed.
    pub fn fact_epoch(&self, id: u32) -> u64 {
        self.store.fact_epoch[id as usize]
    }

    /// The per-predicate lists of alive facts changed at-or-after
    /// `threshold`, each ascending. A semi-naive round asks for the current
    /// epoch or the one before, whose stamps are logged: that costs what
    /// changed since, not the instance. Threshold 0 (every fact) and an
    /// older threshold take one pass over every fact.
    pub fn delta_index(&self, threshold: u64) -> DeltaIndex {
        let mut delta = DeltaIndex::default();
        self.fill_delta(threshold, &mut delta);
        delta
    }

    /// [`Instance::delta_index`] refilling `delta`, whose buffers it
    /// reuses.
    pub(crate) fn fill_delta(&self, threshold: u64, delta: &mut DeltaIndex) {
        let st = &self.store;
        let logged = match st.epoch.checked_sub(threshold) {
            _ if threshold == 0 => return self.scan_into(threshold, delta),
            None => &[][..],
            Some(0) => &st.stamped[1..],
            Some(1) => &st.stamped[..],
            Some(_) => return self.scan_into(threshold, delta),
        };
        delta.threshold = threshold;
        delta.pairs.clear();
        for &id in logged.iter().flatten() {
            if st.alive[id as usize] {
                delta.pairs.push((st.preds[id as usize], id));
            }
        }
        delta.group();
    }

    /// [`Instance::delta_index`] by one pass over every fact.
    fn scan_into(&self, threshold: u64, delta: &mut DeltaIndex) {
        let st = &self.store;
        delta.threshold = threshold;
        delta.pairs.clear();
        for id in 0..st.preds.len() {
            if st.alive[id] && st.fact_epoch[id] >= threshold {
                delta.pairs.push((st.preds[id], id as u32));
            }
        }
        delta.group();
    }

    // -- insertion ----------------------------------------------------------

    /// Insert a fact with provenance `⊤`. Returns the fact id and whether
    /// the fact is new.
    pub fn insert(&mut self, pred: Symbol, args: Vec<Elem>) -> (u32, bool) {
        self.insert_ref(pred, &args, &Dnf::tru())
    }

    /// Insert a fact carrying a provenance formula. If the fact already
    /// exists its provenance is extended by disjunction. Returns `(fact id,
    /// changed)` where `changed` covers both new facts and provenance
    /// growth.
    pub fn insert_with_prov(&mut self, pred: Symbol, args: Vec<Elem>, prov: Dnf) -> (u32, bool) {
        self.insert_ref(pred, &args, &prov)
    }

    /// [`Instance::insert_with_prov`] of borrowed arguments and provenance:
    /// what the chase fires through. Neither is copied unless the fact is
    /// new, and then into the instance's own buffers.
    pub(crate) fn insert_ref(&mut self, pred: Symbol, args: &[Elem], prov: &Dnf) -> (u32, bool) {
        let resolved = self.take_resolved(args);
        let hash = self.hash_of(pred, &resolved);
        let st = &mut self.store;
        // One probe finds the fact or the slot a new one takes.
        let mut dedup = std::mem::take(&mut st.dedup);
        let found = dedup.entry(hash, |id| {
            st.preds[id as usize] == pred && st.args_of(id) == resolved.as_slice()
        });
        let outcome = match found {
            Ok(id) => {
                let changed = st.prov[id as usize].or_assign(prov);
                if changed {
                    // Provenance growth must re-trigger constraints whose
                    // premise matched this fact (the provenance chase
                    // reaches its fixpoint through exactly these
                    // re-firings).
                    st.stamp(id);
                }
                (id, changed)
            }
            Err(vacant) => {
                let id = st.preds.len() as u32;
                st.preds.push(pred);
                st.spans.push((st.args.len() as u32, resolved.len() as u32));
                st.args.extend_from_slice(&resolved);
                st.alive.push(true);
                st.fact_epoch.push(st.epoch);
                let slot = st.prov.push();
                st.prov[slot].assign(prov);
                st.index_args(id);
                let list = st.pred_list(pred);
                // A fresh maximal id: a push keeps the list sorted.
                st.by_pred[list].push(id);
                dedup.occupy(vacant, hash, id);
                st.log(id);
                st.alive_count += 1;
                (id, true)
            }
        };
        (st.dedup, st.resolved) = (dedup, resolved);
        outcome
    }

    // -- lookups ------------------------------------------------------------

    /// All alive fact ids.
    pub fn fact_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let alive = &self.store.alive;
        (0..alive.len() as u32).filter(|id| alive[*id as usize])
    }

    /// Access a fact by id (caller must respect `alive`).
    pub fn fact(&self, id: u32) -> StoredFact<'_> {
        let st = &self.store;
        StoredFact {
            pred: st.preds[id as usize],
            args: st.args_of(id),
            alive: st.alive[id as usize],
            prov: &st.prov[id as usize],
        }
    }

    /// Arguments of fact `id` (caller must respect `alive`).
    pub fn args(&self, id: u32) -> &[Elem] {
        self.store.args_of(id)
    }

    /// Provenance of fact `id`.
    pub fn prov(&self, id: u32) -> &Dnf {
        &self.store.prov[id as usize]
    }

    /// Render fact `id` as `pred(arg, …)` (diagnostics).
    pub fn format_fact(&self, id: u32) -> String {
        let args: Vec<String> = self.args(id).iter().map(|a| a.to_string()).collect();
        format!("{}({})", self.store.preds[id as usize], args.join(", "))
    }

    /// Whether the fact is still alive (not merged away).
    pub fn is_alive(&self, id: u32) -> bool {
        self.store.alive[id as usize]
    }

    /// Alive fact count (O(1)).
    pub fn len(&self) -> usize {
        self.store.alive_count
    }

    /// `true` when no alive facts exist.
    pub fn is_empty(&self) -> bool {
        self.store.alive_count == 0
    }

    /// Alive facts of a predicate, as a borrowed posting list (ascending by
    /// fact id). The indexes contain only alive facts, so no filtering pass
    /// is needed.
    pub fn pred_facts(&self, pred: Symbol) -> &[u32] {
        let st = &self.store;
        let ids =
            (st.pred_ix.get(&pred)).map_or(&[][..], |&list| st.by_pred[list as usize].as_slice());
        debug_assert!(ids.iter().all(|id| st.alive[*id as usize]));
        ids
    }

    /// Number of alive facts of a predicate (O(1)).
    pub fn pred_count(&self, pred: Symbol) -> usize {
        self.pred_facts(pred).len()
    }

    /// Alive facts of `pred` whose `position` equals `elem`, as a borrowed
    /// posting list (ascending by fact id). `elem` must be a
    /// representative. No allocation, no key clone.
    pub fn probe(&self, pred: Symbol, position: u32, elem: &Elem) -> &[u32] {
        let st = &self.store;
        let ids = (st.col_ix.get(&(pred, position)))
            .map_or(&[][..], |&col| st.cols[col as usize].get(elem));
        debug_assert!(ids.iter().all(|id| st.alive[*id as usize]));
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
                self.store.bound[n as usize] = Some(c);
                Ok(Some(n))
            }
            (Elem::Null(n1), Elem::Null(n2)) => {
                // Merge the younger null into the older one so that frozen
                // query variables (low ids) stay representatives.
                let (child, parent) = if n1 > n2 { (n1, n2) } else { (n2, n1) };
                self.store.parent[child as usize].set(parent);
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
        let st = &mut self.store;
        let Some(head) = st.occ_head.get_mut(child as usize) else {
            return;
        };
        let mut node = std::mem::replace(head, NONE);
        let mut touched = std::mem::take(&mut st.touched);
        touched.clear();
        while node != NONE {
            let (id, next) = st.occ[node as usize];
            touched.push(id);
            node = next;
        }
        // Processing in ascending id order replicates the keeper choice and
        // provenance-join order of a full rebuild.
        touched.sort_unstable();
        touched.dedup();
        for &id in &touched {
            if self.store.alive[id as usize] {
                self.renormalize_fact(id);
            }
            // else: a stale entry — the fact died in an earlier merge
        }
        self.store.touched = touched;
    }

    /// Rewrite one touched fact's arguments to representatives and restore
    /// the index/dedup invariants around it.
    fn renormalize_fact(&mut self, id: u32) {
        let pred = self.store.preds[id as usize];
        let mut resolved = std::mem::take(&mut self.store.resolved);
        resolved.clear();
        resolved.extend(self.store.args_of(id).iter().map(|e| self.resolve(e)));
        if resolved == self.store.args_of(id) {
            self.store.resolved = resolved;
            return;
        }
        // Drop the stale dedup entry and positional postings.
        let old_hash = self.hash_of(pred, self.store.args_of(id));
        let new_hash = self.hash_of(pred, &resolved);
        let found = self.find_fact(new_hash, pred, &resolved);
        let st = &mut self.store;
        st.dedup.remove(old_hash, id);
        st.unindex_args(id);
        match found {
            Some(keep) if keep < id => {
                // Collapsed into an earlier fact: join provenance there.
                let grew = st.join_prov(id, keep);
                st.kill(id);
                if grew {
                    st.stamp(keep);
                }
            }
            Some(keep) => {
                // A later fact holds these arguments: the smaller id wins
                // (as in a full rebuild, where it would be visited first).
                // `id` takes over the dedup slot and the later fact's
                // provenance; the later fact dies.
                debug_assert!(keep > id);
                st.unindex_args(keep);
                st.dedup.replace(new_hash, keep, id);
                st.write_args(id, &resolved);
                st.join_prov(keep, id);
                st.kill(keep);
                st.stamp(id);
            }
            None => {
                st.write_args(id, &resolved);
                st.dedup.insert(new_hash, id);
                st.stamp(id);
            }
        }
        st.resolved = resolved;
    }

    // -- full-rebuild baseline ---------------------------------------------

    /// Re-canonicalize every fact from scratch: rewrite arguments to
    /// representatives, de-duplicate facts that became equal (joining their
    /// provenance), and rebuild all indexes — the rebuild half of
    /// [`crate::testkit::merge_full_rebuild`].
    pub(crate) fn normalize_full_rebuild(&mut self) {
        let st = &mut self.store;
        st.dedup.clear();
        st.cols.empty_all(Postings::clear);
        st.by_pred.empty_all(Vec::clear);
        st.occ_head.clear();
        st.occ.clear();
        st.alive_count = 0;
        for id in 0..self.store.preds.len() as u32 {
            if !self.store.alive[id as usize] {
                continue;
            }
            let pred = self.store.preds[id as usize];
            let resolved: Vec<Elem> = self.args(id).iter().map(|e| self.resolve(e)).collect();
            let hash = self.hash_of(pred, &resolved);
            let found = self.find_fact(hash, pred, &resolved);
            let st = &mut self.store;
            if let Some(keep) = found {
                // Collapsed into an earlier fact: join provenance there.
                let grew = st.join_prov(id, keep);
                st.alive[id as usize] = false;
                st.prov[id as usize].clear();
                if grew {
                    st.stamp(keep);
                }
                continue;
            }
            if st.args_of(id) != resolved.as_slice() {
                let (start, _) = st.spans[id as usize];
                st.args[start as usize..][..resolved.len()].copy_from_slice(&resolved);
                st.stamp(id);
            }
            st.index_args(id);
            let list = st.pred_list(pred);
            st.by_pred[list].push(id);
            st.dedup.insert(hash, id);
            st.alive_count += 1;
        }
    }
}

impl Store {
    /// Overwrite fact `id`'s arguments with `args` (same arity) and post
    /// them.
    fn write_args(&mut self, id: u32, args: &[Elem]) {
        let (start, _) = self.spans[id as usize];
        self.args[start as usize..][..args.len()].copy_from_slice(args);
        self.index_args(id);
    }
}

impl<S> fmt::Display for Instance<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = &self.store;
        let mut first = true;
        for id in (0..st.preds.len() as u32).filter(|id| st.alive[*id as usize]) {
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(f, "{}(", st.preds[id as usize])?;
            for (i, a) in st.args_of(id).iter().enumerate() {
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

    impl<S: BuildHasher> Instance<S> {
        /// [`Instance::delta_index`] by one pass over every fact.
        fn scan_delta(&self, threshold: u64) -> DeltaIndex {
            let mut delta = DeltaIndex::default();
            self.scan_into(threshold, &mut delta);
            delta
        }

        /// Parent-chain length of null `n` (no compression) — test probe
        /// for the pointer-halving regression.
        fn chain_depth(&self, mut n: u32) -> usize {
            let mut depth = 0;
            loop {
                let p = self.store.parent[n as usize].get();
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
    fn instance_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Instance>();
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
                for p in [sym("R"), sym("S")] {
                    let (l, s) = (logged.facts_of(p), scanned.facts_of(p));
                    assert_eq!(l, s, "step {step}, threshold {t}");
                }
            }
        }
    }

    /// A hasher that sends every fact to one slot, so every dedup probe
    /// walks one run and compares contents.
    #[derive(Clone, Default)]
    struct Colliding;

    struct Zero;

    impl std::hash::Hasher for Zero {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, _: &[u8]) {}
    }

    impl BuildHasher for Colliding {
        type Hasher = Zero;
        fn build_hasher(&self) -> Zero {
            Zero
        }
    }

    /// One fact of the naive model.
    #[derive(Debug, Clone, PartialEq)]
    struct ModelFact {
        pred: Symbol,
        args: Vec<Elem>,
        prov: Dnf,
        alive: bool,
        epoch: u64,
    }

    /// The naive model of an instance: a `Vec` of facts, the representative
    /// of every null, and a scan for every question. A merge renormalizes
    /// every fact in id order (the smallest id keeps a duplicate and takes
    /// its provenance).
    #[derive(Default)]
    struct Model {
        facts: Vec<ModelFact>,
        rep: Vec<Elem>,
        epoch: u64,
    }

    impl Model {
        fn resolve(&self, e: Elem) -> Elem {
            match e {
                Elem::Null(n) => self.rep[n as usize],
                c => c,
            }
        }

        fn holder(&self, pred: Symbol, args: &[Elem], below: usize) -> Option<usize> {
            (0..below).find(|&k| {
                let f = &self.facts[k];
                f.alive && f.pred == pred && f.args == args
            })
        }

        fn insert(&mut self, pred: Symbol, args: &[Elem], prov: &Dnf) -> (u32, bool) {
            let args: Vec<Elem> = args.iter().map(|e| self.resolve(*e)).collect();
            if let Some(id) = self.holder(pred, &args, self.facts.len()) {
                let changed = self.facts[id].prov.or_assign(prov);
                if changed {
                    self.facts[id].epoch = self.epoch;
                }
                return (id as u32, changed);
            }
            let (prov, epoch) = (prov.clone(), self.epoch);
            let alive = true;
            self.facts.push(ModelFact {
                pred,
                args,
                prov,
                alive,
                epoch,
            });
            ((self.facts.len() - 1) as u32, true)
        }

        fn merge(&mut self, a: Elem, b: Elem) -> Result<Option<u32>, ()> {
            let (ra, rb) = (self.resolve(a), self.resolve(b));
            let (retired, to) = match (ra, rb) {
                _ if ra == rb => return Ok(None),
                (Elem::Const(_), Elem::Const(_)) => return Err(()),
                (Elem::Null(n), c) | (c, Elem::Null(n)) if matches!(c, Elem::Const(_)) => (n, c),
                (Elem::Null(x), Elem::Null(y)) => (x.max(y), Elem::Null(x.min(y))),
                _ => return Err(()),
            };
            for r in &mut self.rep {
                if *r == Elem::Null(retired) {
                    *r = to;
                }
            }
            for id in 0..self.facts.len() {
                if !self.facts[id].alive {
                    continue;
                }
                let f = &self.facts[id];
                let args: Vec<Elem> = f.args.iter().map(|e| self.resolve(*e)).collect();
                if let Some(keep) = self.holder(f.pred, &args, id) {
                    let prov = std::mem::take(&mut self.facts[id].prov);
                    self.facts[id].alive = false;
                    if self.facts[keep].prov.or_assign(&prov) {
                        self.facts[keep].epoch = self.epoch;
                    }
                } else if args != self.facts[id].args {
                    self.facts[id].args = args;
                    self.facts[id].epoch = self.epoch;
                }
            }
            Ok(Some(retired))
        }

        /// Alive facts of `pred` passing `keep`, ascending.
        fn scan(&self, pred: Symbol, keep: impl Fn(&ModelFact) -> bool) -> Vec<u32> {
            let hit = |(_, f): &(usize, &ModelFact)| f.alive && f.pred == pred && keep(f);
            self.facts
                .iter()
                .enumerate()
                .filter(hit)
                .map(|(i, _)| i as u32)
                .collect()
        }
    }

    /// Random inserts, merges and epoch advances against [`Model`], every
    /// answer of the instance checked after every step.
    fn follows_the_model<S: BuildHasher + Default>(seed: u64) {
        const NULLS: u32 = 6;
        let preds = [sym("R"), sym("S"), sym("U")];
        let mut inst: Instance<S> = Instance::with_hasher(S::default());
        inst.reserve_nulls(NULLS);
        let mut model = Model {
            rep: (0..NULLS).map(Elem::Null).collect(),
            ..Model::default()
        };
        let mut x = seed;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % n) as u32
        };
        let universe: Vec<Elem> = (0..3i64)
            .map(Elem::of)
            .chain((0..NULLS).map(Elem::Null))
            .collect();
        for step in 0..300 {
            let at = format!("seed {seed}, step {step}");
            match next(8) {
                0..=3 => {
                    let p = next(3) as usize;
                    let arity = if p == 2 { 1 } else { 2 };
                    let args: Vec<Elem> = (0..arity)
                        .map(|_| universe[next(universe.len() as u64) as usize])
                        .collect();
                    let prov = match next(3) {
                        0 => Dnf::tru(),
                        v => Dnf::var(v + next(3)),
                    };
                    let got = if prov.is_true() && next(2) == 0 {
                        inst.insert(preds[p], args.clone())
                    } else {
                        inst.insert_with_prov(preds[p], args.clone(), prov.clone())
                    };
                    assert_eq!(got, model.insert(preds[p], &args, &prov), "{at}");
                }
                4 | 5 => {
                    let a = universe[next(universe.len() as u64) as usize];
                    let b = universe[next(NULLS as u64) as usize + 3];
                    let got = inst.merge_retired(&a, &b).map_err(|_| ());
                    assert_eq!(got, model.merge(a, b), "{at}");
                }
                _ => {
                    inst.advance_epoch();
                    model.epoch += 1;
                }
            }
            for (id, f) in model.facts.iter().enumerate() {
                let id = id as u32;
                assert_eq!(inst.is_alive(id), f.alive, "{at}: fact {id}");
                if f.alive {
                    assert_eq!(inst.args(id), f.args.as_slice(), "{at}: fact {id}");
                    assert_eq!(inst.prov(id), &f.prov, "{at}: fact {id}");
                    assert_eq!(inst.fact_epoch(id), f.epoch, "{at}: fact {id}");
                }
            }
            assert_eq!(inst.len(), model.facts.iter().filter(|f| f.alive).count());
            let thresholds = [model.epoch, model.epoch.saturating_sub(1)];
            let deltas = thresholds.map(|t| (t, inst.delta_index(t), inst.scan_delta(t)));
            for p in preds {
                assert_eq!(inst.pred_facts(p), model.scan(p, |_| true), "{at}");
                for (t, logged, scanned) in &deltas {
                    let expect = model.scan(p, |f| f.epoch >= *t);
                    assert_eq!(logged.facts_of(p), expect, "{at}: delta {t}");
                    assert_eq!(scanned.facts_of(p), expect, "{at}: scan {t}");
                }
                for pos in 0..2u32 {
                    for e in &universe {
                        let e = model.resolve(*e);
                        let at_pos = |f: &ModelFact| f.args.get(pos as usize) == Some(&e);
                        let expect = model.scan(p, at_pos);
                        assert_eq!(inst.probe(p, pos, &e), expect, "{at}: {p}[{pos}] = {e}");
                        assert_eq!(inst.count_with(p, pos, &e), expect.len(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn flat_instance_follows_a_naive_model() {
        for seed in 0..40 {
            follows_the_model::<FastBuild>(seed);
            follows_the_model::<Colliding>(seed);
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
