//! Root integration package for the ESTOCADA reproduction; see crates/.

#![forbid(unsafe_code)]
