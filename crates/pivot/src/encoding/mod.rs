//! Encodings of application/storage data models into the pivot model.
//!
//! "To correctly account for the characteristics of each application data
//! model and storage data model, we describe their specific features in the
//! same pivot model, by means of powerful constraints." Each submodule
//! covers one application data model:
//!
//! - [`relational`] — identity encoding, keys as EGDs;
//! - [`document`] — JSON trees as `Node`/`Child`/`Desc`/`Val` relations with
//!   functional-dependency and transitivity constraints.
//!
//! The storage models need no module of their own here: a key-value
//! fragment is its view relation with an `i o…o` access pattern (the
//! mediator's `layout::access_of`), and a full-text index is the
//! term→document relation `Dataset::terms_relation` declares, read with an
//! `io` access pattern.

pub mod document;
pub mod relational;
