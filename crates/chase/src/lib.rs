//! # estocada-chase
//!
//! Chase-based reasoning for the ESTOCADA mediator: instances with labelled
//! nulls, homomorphism search, the standard (restricted) chase with TGDs and
//! EGDs, weak-acyclicity termination analysis, chase-based containment /
//! equivalence / minimization, and two view-based rewriting algorithms —
//! the **provenance-aware Chase & Backchase (PACB)** of Ileana et al.
//! (SIGMOD 2014), which the paper relies on, and the classical exhaustive
//! backchase used as the performance baseline.
//!
//! Performance notes: instance elements are 8-byte `Copy` values
//! (constants intern into the global `ConstId` table — see
//! [`instance::Elem`]), EGD merges re-normalize incrementally through a
//! pointer-halving union-find and a null-occurrence index (O(touched
//! posting lists) per merge — see [`instance`]), homomorphism search runs
//! on dense compact-id scratch bindings over borrowing positional indexes
//! (see [`hom`]). The standard chase and the provenance chase are one
//! driver under two firing policies and one firing schedule — a
//! [`TerminationCertificate`] lifts the budget guard, it never reorders
//! the run (see [`mod@chase`] and [`pchase`]): it
//! chases constraint sets compiled once per prepared set — a
//! [`pacb::Rewriter`] prepares PACB's three once for every query over the
//! same views —, searches only premises that can have a trigger (every
//! predicate populated, one of them changed),
//! evaluates semi-naively — after the first round only triggers touching
//! the previous round's delta facts are searched
//! ([`instance::Instance::delta_index`]) — and splits every round into a
//! read-only trigger-search phase against the round-start snapshot and an
//! apply phase, both on the calling thread; the restricted policy memoizes
//! applicability probes per (constraint, frontier image) with precise
//! merge-driven invalidation. Every chase operation has one entry point;
//! the matcher's scratch buffers are its own business — one set per
//! thread, reused by every search on it (see [`hom`]). The one place a
//! rewrite uses more than one thread is PACB's per-candidate verification:
//! from 8 candidates up the independent checks fan out over scoped worker
//! threads with a deterministic fan-in ([`pacb::RewriteConfig::parallelism`]; the outcome
//! is identical at any worker count — see the [`pacb`] module docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chase;
pub mod containment;
pub mod hom;
pub mod instance;
pub mod naive;
pub mod pacb;
pub mod pchase;
pub mod prov;
#[doc(hidden)]
pub mod testkit;
pub mod wa;

pub use chase::{chase, ChaseConfig, ChaseError, ChaseStats};
pub use containment::{
    canonical_instance, contained_in, equivalent, implies, minimize, premise_unsatisfiable,
};
pub use hom::{find_homs, find_homs_delta, find_one_hom, Hom, HomConfig};
pub use instance::{DeltaIndex, Elem, Inconsistent, Instance, StoredFact};
pub use naive::{naive_rewrite, NaiveConfig};
pub use pacb::{
    pacb_rewrite, CandidateStats, RewriteConfig, RewriteError, RewriteOutcome, RewriteProblem,
    RewriteStats, Rewriter,
};
pub use pchase::{prov_chase, ProvChaseStats};
pub use prov::Dnf;
pub use wa::{
    certify, stratify, Pos, PositionGraph, Stratum, TerminationCertificate, UnknownReason,
};
