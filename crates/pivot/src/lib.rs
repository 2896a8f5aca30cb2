//! # estocada-pivot
//!
//! The internal **pivot model** of the ESTOCADA hybrid-store mediator:
//! relational conjunctive queries endowed with integrity constraints (TGDs
//! and EGDs), in which every application/storage data model — relational,
//! document, key-value, full-text — is faithfully encoded.
//!
//! This crate is purely logical: it defines values, terms, atoms,
//! conjunctive queries, constraints, view definitions, access patterns and
//! the relational and document encodings ([`encoding`]; key-value and
//! full-text relations are plain relations with access patterns), the one
//! hasher every in-process hash table uses ([`hash`]) and the one kernel
//! that joins, de-duplicates and groups interned rows ([`kernel`]) for the
//! stores and the mediator alike, with the one select-project-join over
//! interned tables ([`spj`]) that fills views and answers the relational
//! store's queries. The chase-based
//! reasoning over these objects lives in `estocada-chase`; the stores and
//! the mediator live further up the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod atom;
pub mod binding;
pub mod constraint;
pub mod cq;
pub mod encoding;
pub mod fact;
pub mod hash;
pub mod intern;
pub mod kernel;
pub mod multiset;
pub mod schema;
pub mod spj;
pub mod symbol;
pub mod term;
pub mod value;

pub use agg::{AggFun, GroupBy};
pub use atom::Atom;
pub use binding::{AccessMap, AccessPattern, Adornment};
pub use constraint::{Constraint, Egd, Tgd, ViewDef};
pub use cq::{Cq, CqBuilder};
pub use fact::{Fact, IdGen};
pub use intern::{ConstId, ConstReader};
pub use kernel::IdRows;
pub use multiset::{swap_remove, Bag, Postings, SwapRows, Wanted};
pub use schema::{RelationDecl, Schema, SchemaError};
pub use symbol::Symbol;
pub use term::{Term, Var};
pub use value::{CmpOp, Number, Value};
