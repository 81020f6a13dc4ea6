//! # gpu-sim
//!
//! Trace-driven GPU simulator standing in for the paper's three machines
//! (no GPU hardware is available to this reproduction; see DESIGN.md §2).
//!
//! A kernel's address trace — replayed by `brick-vm` from the actual
//! generated code — flows through per-SM sectored L1 caches and a shared
//! L2 into HBM counters ([`hierarchy`]); a compiler model per programming
//! model derives registers, spills and instruction counts ([`compiler`],
//! [`progmodel`]); and a hierarchical-Roofline timing model with occupancy
//! derating turns bytes + FLOPs + instructions into kernel time
//! ([`timing`]). [`sim::simulate`] produces everything the paper measures
//! per configuration: GFLOP/s, arithmetic intensity, and L1/L2/HBM data
//! movement.
//!
//! ```
//! use brick_codegen::{generate, CodegenOptions, LayoutKind};
//! use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
//! use brick_dsl::{shape::StencilShape, StencilAnalysis};
//! use brick_vm::{KernelSpec, TraceGeometry};
//! use gpu_sim::{simulate, GpuArch, ProgModel};
//! use std::sync::Arc;
//!
//! // 13-point star as a bricks-codegen kernel on the simulated A100
//! let shape = StencilShape::star(2);
//! let stencil = shape.stencil();
//! let kernel = generate(
//!     &stencil,
//!     &stencil.default_bindings(),
//!     LayoutKind::Brick,
//!     32,
//!     CodegenOptions::default(),
//! )
//! .unwrap();
//!
//! let decomp = Arc::new(BrickDecomp::new(
//!     (64, 64, 64),
//!     BrickDims::for_simd_width(32),
//!     2,
//!     BrickOrdering::Lexicographic,
//! ));
//! let geom = TraceGeometry::brick(Arc::new(BrickNav::new(decomp)));
//! let analysis = StencilAnalysis::of_shape(&shape);
//!
//! let result = simulate(
//!     &KernelSpec::Vector(kernel),
//!     &geom,
//!     &GpuArch::a100(),
//!     ProgModel::Cuda,
//!     analysis.flops_per_point,
//! )
//! .unwrap();
//! assert!(result.gflops > 0.0);
//! assert!(result.mem.dram_bytes >= geom.compulsory_bytes());
//! ```

pub mod arch;
pub mod cache;
#[cfg(test)]
mod cache_oracle;
pub mod compiler;
pub mod dram;
pub mod hierarchy;
pub mod introspect;
pub mod progmodel;
pub mod reuse;
pub mod sim;
pub mod timing;

pub use arch::{GpuArch, GpuKind};

// Compile-time proof that everything a parallel sweep cell touches is
// shareable across worker threads: the scheduler in `brick-sweep` fans
// independent (stencil, config, GPU, model) cells out over `std::thread`
// workers, so a non-`Send` field sneaking into any of these types must be
// a build error, not a latent runtime hazard.
const _: () = {
    const fn cell_state_is_shareable<T: Send + Sync>() {}
    cell_state_is_shareable::<arch::GpuArch>();
    cell_state_is_shareable::<progmodel::CompilerModel>();
    cell_state_is_shareable::<compiler::CompiledKernel>();
    cell_state_is_shareable::<timing::MemCounters>();
    cell_state_is_shareable::<timing::Occupancy>();
    cell_state_is_shareable::<sim::SimResult>();
    cell_state_is_shareable::<hierarchy::MemoryReport>();
    cell_state_is_shareable::<hierarchy::SimFidelity>();
    cell_state_is_shareable::<hierarchy::SimOptions>();
    cell_state_is_shareable::<brick_vm::KernelSpec>();
    cell_state_is_shareable::<brick_vm::TraceGeometry>();
    cell_state_is_shareable::<brick_vm::BlockClasses>();
};
pub use cache::{Cache, CacheConfig, CacheStats, WritePolicy};
pub use compiler::{compile, CompiledKernel};
pub use dram::{bandwidth_efficiency, DramModel, PageStats};
pub use hierarchy::{
    simulate_memory, simulate_memory_introspect, simulate_memory_opts, MemoryReport, SimFidelity,
    SimOptions,
};
pub use introspect::{ClassTraffic, SimIntrospection, SmGroupTraffic, TrafficBucket, WaveSample};
pub use progmodel::{CompilerModel, ProgModel};
pub use reuse::{ReuseAnalyzer, ReuseProfile};
pub use sim::{assemble, compile_only, simulate, simulate_opts, SimResult};
pub use timing::{kernel_time, occupancy, MemCounters, Occupancy, TimeBreakdown};
