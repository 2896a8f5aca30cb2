//! The dynamic value type shared by every component of the system.
//!
//! ESTOCADA moves data between stores with different data models, so a single
//! value representation must cover relational scalars, key-value payloads and
//! nested documents. [`Value`] is an ordered, hashable tree: scalars plus
//! arrays and string-keyed objects (both behind [`Arc`] so cloning a tuple is
//! cheap).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically typed value: the atomic data currency of the whole system.
///
/// `Value` implements total ordering ([`Ord`]) and hashing even for doubles
/// (IEEE-754 total order via bit tricks) so it can be used directly as an
/// index or hash-join key.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent / SQL NULL / JSON null.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float, ordered by total order.
    Double(f64),
    /// Interned UTF-8 string.
    Str(Arc<str>),
    /// Opaque identifier (node ids, tuple ids). Kept distinct from `Int` so
    /// document-model node identity never collides with application data.
    Id(u64),
    /// Ordered collection (JSON array / nested relation column).
    Array(Arc<Vec<Value>>),
    /// String-keyed object (JSON object / document).
    Object(Arc<BTreeMap<Arc<str>, Value>>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for arrays.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Self {
        Value::Array(Arc::new(items.into_iter().collect()))
    }

    /// Convenience constructor for objects from `(key, value)` pairs.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Self {
        Value::Object(Arc::new(
            fields.into_iter().map(|(k, v)| (Arc::from(k), v)).collect(),
        ))
    }

    /// Build an object from owned string keys.
    pub fn object_owned(fields: impl IntoIterator<Item = (String, Value)>) -> Self {
        Value::Object(Arc::new(
            fields
                .into_iter()
                .map(|(k, v)| (Arc::from(k.as_str()), v))
                .collect(),
        ))
    }

    /// Numeric discriminant used for cross-variant ordering.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 3,
            Value::Str(_) => 4,
            Value::Id(_) => 5,
            Value::Array(_) => 6,
            Value::Object(_) => 7,
        }
    }

    /// Returns the value as an integer if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the value as a float, widening integers.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the object map if the value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<Arc<str>, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the array items if the value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Field lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Follow a dotted path (`"user.address.city"`) through nested objects.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }

    /// `true` for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate in-memory footprint in bytes; used by the cost model and
    /// the latency simulator to charge per-byte transfer costs.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) | Value::Id(_) => 8,
            Value::Str(s) => s.len() + 8,
            Value::Array(a) => 8 + a.iter().map(Value::approx_size).sum::<usize>(),
            Value::Object(m) => {
                8 + m
                    .iter()
                    .map(|(k, v)| k.len() + v.approx_size())
                    .sum::<usize>()
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            // Mixed numerics compare by numeric value, falling back to the
            // variant rank when equal so that Int(1) != Double(1.0) as keys.
            (Int(a), Double(b)) => (*a as f64)
                .total_cmp(b)
                .then(self.rank().cmp(&other.rank())),
            (Double(a), Int(b)) => a
                .total_cmp(&(*b as f64))
                .then(self.rank().cmp(&other.rank())),
            (Str(a), Str(b)) => a.cmp(b),
            (Id(a), Id(b)) => a.cmp(b),
            (Array(a), Array(b)) => a.cmp(b),
            (Object(a), Object(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Double(d) => {
                3u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Id(i) => {
                5u8.hash(state);
                i.hash(state);
            }
            Value::Array(a) => {
                6u8.hash(state);
                for v in a.iter() {
                    v.hash(state);
                }
            }
            Value::Object(m) => {
                7u8.hash(state);
                for (k, v) in m.iter() {
                    k.hash(state);
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Id(i) => write!(f, "#{i}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Object(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// Comparison operators over the total [`Value`] order — the one
/// definition the mediator's expressions, the relational store's
/// predicates and a delegated `HAVING` all evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison on two values (total value order: mixed
    /// numerics compare by value, then `Double` ranks above `Int`).
    pub fn eval(&self, l: &Value, r: &Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ordering_is_total_across_variants() {
        let vs = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(3),
            Value::Double(2.5),
            Value::str("a"),
            Value::Id(7),
            Value::array([Value::Int(1)]),
            Value::object([("k", Value::Int(1))]),
        ];
        for a in &vs {
            for b in &vs {
                // antisymmetry sanity
                assert_eq!(a.cmp(b), b.cmp(a).reverse());
            }
        }
    }

    #[test]
    fn mixed_numeric_ordering_is_consistent() {
        assert!(Value::Int(1) < Value::Double(1.5));
        assert!(Value::Double(0.5) < Value::Int(1));
        // Equal numeric value: still a consistent total order, not equality.
        assert_ne!(Value::Int(1), Value::Double(1.0));
        assert_eq!(
            Value::Int(1).cmp(&Value::Double(1.0)),
            Value::Double(1.0).cmp(&Value::Int(1)).reverse()
        );
    }

    #[test]
    fn hash_agrees_with_eq() {
        let mut set = HashSet::new();
        set.insert(Value::str("x"));
        assert!(set.contains(&Value::str("x")));
        set.insert(Value::Double(1.0));
        assert!(set.contains(&Value::Double(1.0)));
        assert!(!set.contains(&Value::Double(-1.0)));
    }

    #[test]
    fn path_lookup_traverses_nested_objects() {
        let v = Value::object([(
            "user",
            Value::object([("address", Value::object([("city", Value::str("Paris"))]))]),
        )]);
        assert_eq!(v.get_path("user.address.city"), Some(&Value::str("Paris")));
        assert_eq!(v.get_path("user.missing"), None);
    }

    #[test]
    fn approx_size_counts_nested_content() {
        let v = Value::object([("a", Value::array([Value::str("xyz"), Value::Int(1)]))]);
        assert!(v.approx_size() > 11);
    }

    #[test]
    fn display_is_json_like() {
        let v = Value::object([("a", Value::array([Value::Int(1), Value::str("s")]))]);
        assert_eq!(format!("{v}"), "{a: [1, \"s\"]}");
    }
}
