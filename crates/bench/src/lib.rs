//! Benchmark helper crate; see benches/.

#![forbid(unsafe_code)]
