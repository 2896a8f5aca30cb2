//! Process-wide string interning.
//!
//! Predicate names, relation names and variable names are interned to a
//! `u32`-sized [`Symbol`] so that the chase engine compares and hashes them
//! in O(1). The interner is global (names live for the process lifetime,
//! which is fine for a mediator whose schema vocabulary is small).

use crate::hash::FastMap;
use parking_lot::RwLock;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An interned string. Copyable, `O(1)` equality and hashing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<Arc<str>>,
    lookup: FastMap<Arc<str>, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            lookup: FastMap::default(),
        })
    })
}

impl Symbol {
    /// Intern `name`, returning its unique symbol.
    pub fn intern(name: &str) -> Symbol {
        {
            let guard = interner().read();
            if let Some(&id) = guard.lookup.get(name) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write();
        if let Some(&id) = guard.lookup.get(name) {
            return Symbol(id);
        }
        let id = guard.names.len() as u32;
        let arc: Arc<str> = Arc::from(name);
        guard.names.push(arc.clone());
        guard.lookup.insert(arc, id);
        Symbol(id)
    }

    /// The interned string.
    pub fn as_str(&self) -> Arc<str> {
        interner().read().names[self.0 as usize].clone()
    }

    /// Raw id; stable for the process lifetime.
    pub fn id(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("Child");
        let b = Symbol::intern("Child");
        assert_eq!(a, b);
        assert_eq!(&*a.as_str(), "Child");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        assert_ne!(Symbol::intern("Node"), Symbol::intern("Descendant"));
    }

    #[test]
    fn interner_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let s = Symbol::intern(&format!("pred{}", i % 3));
                    (i % 3, s)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, s) in &results {
            assert_eq!(*s, Symbol::intern(&format!("pred{i}")));
        }
    }
}
