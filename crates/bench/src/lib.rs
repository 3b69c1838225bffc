//! Benchmarks live in benches/; the experiments binary in src/bin.

#![forbid(unsafe_code)]
