//! Portable row backend: safe Rust, the `Auto` floor on hosts without a
//! SIMD backend.
//!
//! It takes every [`RowOps`] default: the fused stages run the safe
//! portable evaluator ([`super::fuse::eval_lanes_portable`]), whose `Fma`
//! keeps `f64::mul_add` — the correctly-rounded fused operation the
//! interpreter uses — so the backend stays bit-identical to the oracle
//! even where that costs a libm call on targets without a hardware FMA
//! unit.

use super::RowOps;

/// The portable backend. Always available.
pub(crate) struct PortableOps;

impl RowOps for PortableOps {}
