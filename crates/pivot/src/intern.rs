//! Process-wide interning of ground constant [`Value`]s.
//!
//! The chase engine stores constants in bindings, posting-map keys and
//! dedup keys, and compares them constantly during homomorphism search.
//! Structural [`Value`]s make every such key a clone and every comparison a
//! tree walk; interning them to a `u32`-sized [`ConstId`] (the same pattern
//! as [`crate::Symbol`] for names) turns all of that into `Copy` moves and
//! O(1) integer equality. The table is global and append-only: ground
//! constants live for the process lifetime, which matches how a mediator
//! uses them (schema constants, query constants, and the finite active
//! domain of the instances being chased).
//!
//! Equality and hashing of `ConstId` agree with `Value` equality by
//! construction (interning is injective on `Value` equivalence classes:
//! `Value`'s own `Eq`/`Hash` drive the lookup table). `ConstId`'s `Ord` is
//! the *allocation order*, not the `Value` order — stable within a process,
//! suitable for dense keys, but not for semantically ordering constants
//! (resolve the [`ConstId::value`] for that).
//!
//! Small integers (`Value::Int` in ±32 K) bypass the table's lock and hash
//! entirely: their ids are computed arithmetically from a pre-seeded dense
//! range, which makes the columnar executor's hottest path — interning
//! scan and arithmetic-result columns — lock-free.

use crate::hash::FastMap;
use crate::value::{Number, Value};
use parking_lot::{RwLock, RwLockReadGuard};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An interned ground constant. Copyable, `O(1)` equality and hashing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(u32);

struct ConstTable {
    values: Vec<Arc<Value>>,
    /// Each value's number, if it is one, dense beside `values`: a fold or
    /// an order comparison over numbers reads no `Value` behind its `Arc`.
    numbers: Vec<Option<Number>>,
    lookup: FastMap<Arc<Value>, u32>,
}

/// Small integers get dense, arithmetically computed ids at the front of
/// the table — no lock, no hash. The table pre-seeds their `values` slots
/// at init so id → value resolution stays a plain index; the `lookup` map
/// never contains them (every lookup path checks [`small_id`] first,
/// keeping interning injective).
const SMALL_MIN: i64 = -32_768;
const SMALL_MAX: i64 = 32_767;

fn small_id(value: &Value) -> Option<ConstId> {
    match value {
        Value::Int(i) if (SMALL_MIN..=SMALL_MAX).contains(i) => {
            Some(ConstId((i - SMALL_MIN) as u32))
        }
        _ => None,
    }
}

fn table() -> &'static RwLock<ConstTable> {
    static TABLE: OnceLock<RwLock<ConstTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let values = (SMALL_MIN..=SMALL_MAX)
            .map(|i| Arc::new(Value::Int(i)))
            .collect();
        RwLock::new(ConstTable {
            values,
            numbers: (SMALL_MIN..=SMALL_MAX)
                .map(|i| Some(Number::Int(i)))
                .collect(),
            lookup: FastMap::default(),
        })
    })
}

impl ConstId {
    /// Intern `value`, returning its unique id. The value is cloned only
    /// the first time it is seen.
    pub fn intern(value: &Value) -> ConstId {
        if let Some(id) = small_id(value) {
            return id;
        }
        {
            let guard = table().read();
            if let Some(&id) = guard.lookup.get(value) {
                return ConstId(id);
            }
        }
        let mut guard = table().write();
        if let Some(&id) = guard.lookup.get(value) {
            return ConstId(id);
        }
        let id = guard.values.len() as u32;
        let arc = Arc::new(value.clone());
        guard.numbers.push(value.number());
        guard.values.push(arc.clone());
        guard.lookup.insert(arc, id);
        ConstId(id)
    }

    /// Intern an owned (or convertible) value.
    pub fn of(value: impl Into<Value>) -> ConstId {
        ConstId::intern(&value.into())
    }

    /// The interned value (cheap: an `Arc` clone).
    pub fn value(&self) -> Arc<Value> {
        table().read().values[self.0 as usize].clone()
    }

    /// Raw id; stable for the process lifetime.
    pub fn id(&self) -> u32 {
        self.0
    }

    /// Intern a batch of values with one shared read pass.
    ///
    /// The common case in a columnar scan is that every value is already in
    /// the table; this resolves the whole slice under a single read guard
    /// and only takes the write lock for values never seen before (after
    /// the read guard is dropped, so it cannot deadlock).
    pub fn intern_all<'a, I>(values: I) -> Vec<ConstId>
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let values = values.into_iter();
        let mut out = Vec::with_capacity(values.size_hint().0);
        let mut misses: Vec<(usize, &Value)> = Vec::new();
        {
            let guard = table().read();
            for (i, v) in values.enumerate() {
                if let Some(id) = small_id(v) {
                    out.push(id);
                } else {
                    match guard.lookup.get(v) {
                        Some(&id) => out.push(ConstId(id)),
                        None => {
                            out.push(ConstId(0));
                            misses.push((i, v));
                        }
                    }
                }
            }
        }
        for (i, v) in misses {
            out[i] = ConstId::intern(v);
        }
        out
    }

    /// Append `rows` — each one value per column of `cols` — to `cols`,
    /// interned like [`ConstId::intern_all`]: the whole call resolves under
    /// one read guard, and only values never seen before take the write
    /// lock, after it. Returns the number of rows appended.
    ///
    /// The guard is held while `rows` is iterated, so producing a row must
    /// not intern (see [`ConstReader`]).
    pub fn intern_rows<'a, R>(cols: &mut [Vec<ConstId>], rows: impl IntoIterator<Item = R>) -> usize
    where
        R: IntoIterator<Item = &'a Value>,
    {
        let mut appended = 0;
        let mut misses: Vec<(usize, usize, &Value)> = Vec::new();
        {
            let guard = table().read();
            for row in rows {
                let mut width = 0;
                for (c, (col, v)) in cols.iter_mut().zip(row).enumerate() {
                    let id = small_id(v).or_else(|| guard.lookup.get(v).map(|&id| ConstId(id)));
                    if id.is_none() {
                        misses.push((c, col.len(), v));
                    }
                    col.push(id.unwrap_or(ConstId(0)));
                    width += 1;
                }
                debug_assert_eq!(width, cols.len(), "a row of another width");
                appended += 1;
            }
        }
        for (c, r, v) in misses {
            cols[c][r] = ConstId::intern(v);
        }
        appended
    }
}

/// A held read guard over the intern table for amortized id → value
/// resolution.
///
/// [`ConstId::value`] takes the table's read lock and clones an `Arc` on
/// every call — fine for one-off lookups, wasteful inside a columnar
/// operator that resolves thousands of ids per batch. A `ConstReader`
/// acquires the read lock once and hands out `&Value` borrows for the
/// lifetime of the guard.
///
/// **Never intern while holding a `ConstReader`**: interning a new value
/// takes the table's write lock, and `std`-backed read guards are not
/// reentrant — the write would deadlock against the held read guard.
/// Intern first (e.g. via [`ConstId::intern_all`]), then open the reader.
pub struct ConstReader {
    guard: RwLockReadGuard<'static, ConstTable>,
}

impl ConstReader {
    /// Open a reader (acquires the table's read lock until dropped).
    pub fn new() -> ConstReader {
        ConstReader {
            guard: table().read(),
        }
    }

    /// Resolve an id without cloning.
    pub fn get(&self, id: ConstId) -> &Value {
        &self.guard.values[id.0 as usize]
    }

    /// The number `id` is, if it is one (`Int` or `Double`), read from a
    /// dense array beside the values: no `Value` is read or built.
    pub fn numeric(&self, id: ConstId) -> Option<Number> {
        self.guard.numbers[id.0 as usize]
    }

    /// Look up the id of an already-interned value, if any.
    pub fn lookup(&self, value: &Value) -> Option<ConstId> {
        small_id(value).or_else(|| self.guard.lookup.get(value).map(|&id| ConstId(id)))
    }
}

impl Default for ConstReader {
    fn default() -> Self {
        ConstReader::new()
    }
}

impl fmt::Display for ConstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
    }
}

impl fmt::Debug for ConstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.value())
    }
}

impl From<&Value> for ConstId {
    fn from(v: &Value) -> Self {
        ConstId::intern(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = ConstId::intern(&Value::Int(42));
        let b = ConstId::of(42i64);
        assert_eq!(a, b);
        assert_eq!(*a.value(), Value::Int(42));
    }

    #[test]
    fn distinct_values_get_distinct_ids() {
        assert_ne!(ConstId::of(1i64), ConstId::of(2i64));
        // Value's Eq keeps Int(1) and Double(1.0) apart; so must the table.
        assert_ne!(ConstId::of(1i64), ConstId::of(1.0f64));
    }

    #[test]
    fn composite_values_intern_structurally() {
        let a = ConstId::intern(&Value::array([Value::Int(1), Value::str("x")]));
        let b = ConstId::intern(&Value::array([Value::Int(1), Value::str("x")]));
        let c = ConstId::intern(&Value::array([Value::Int(2)]));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn const_id_is_copy_and_4_bytes() {
        fn assert_copy<T: Copy + Eq + Ord + std::hash::Hash>() {}
        assert_copy::<ConstId>();
        assert_eq!(std::mem::size_of::<ConstId>(), 4);
    }

    #[test]
    fn bulk_intern_matches_one_by_one() {
        let vals: Vec<Value> = (0..64)
            .map(|i| {
                if i % 3 == 0 {
                    Value::Int(i)
                } else {
                    Value::str(format!("bulk-{i}"))
                }
            })
            .collect();
        let bulk = ConstId::intern_all(&vals);
        let single: Vec<ConstId> = vals.iter().map(ConstId::intern).collect();
        assert_eq!(bulk, single);
    }

    #[test]
    fn row_intern_matches_one_by_one() {
        let rows: Vec<[Value; 2]> = (0..16)
            .map(|i| [Value::Int(i), Value::str(format!("rows-{}", i % 5))])
            .collect();
        let mut cols = vec![vec![ConstId::of("rows-before")], Vec::new()];
        cols[1].push(ConstId::of(0i64));
        let appended = ConstId::intern_rows(&mut cols, rows.iter().map(|r| r.iter()));
        assert_eq!(appended, 16);
        for (c, col) in cols.iter().enumerate() {
            let single = rows.iter().map(|r| ConstId::intern(&r[c]));
            assert!(col[1..].iter().copied().eq(single), "column {c}");
        }
        // Rows of no column are still counted.
        let none = (0..3).map(|_| std::iter::empty::<&Value>());
        assert_eq!(ConstId::intern_rows(&mut [], none), 3);
    }

    #[test]
    fn reader_resolves_without_cloning() {
        let id = ConstId::of("reader-test");
        let ids = ConstId::intern_all(&[Value::Int(7), Value::str("reader-test")]);
        let reader = ConstReader::new();
        assert_eq!(reader.get(id), &Value::str("reader-test"));
        assert_eq!(reader.get(ids[0]), &Value::Int(7));
        assert_eq!(reader.lookup(&Value::str("reader-test")), Some(id));
        assert_eq!(reader.lookup(&Value::str("reader-test-missing-xyz")), None);
        assert_eq!(reader.numeric(ids[0]), Some(Number::Int(7)));
        assert_eq!(reader.numeric(id), None);
    }

    #[test]
    fn table_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| std::thread::spawn(move || (i % 3, ConstId::of((i % 3) as i64))))
            .collect();
        for h in handles {
            let (k, id) = h.join().unwrap();
            assert_eq!(id, ConstId::of(k as i64));
        }
    }
}
