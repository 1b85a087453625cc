#![warn(missing_docs)]

//! `gcd-sim` — a software stand-in for an AMD MI250X Graphics Compute Die.
//!
//! The XBFS-on-Frontier paper is evaluated on hardware we cannot ship: one
//! GCD of an MI250X under HIP, profiled with rocprofiler. This crate
//! substitutes that substrate (DESIGN.md §2) with an execution model that
//! is *functionally real* — kernels written against it compute actual BFS
//! results — while charging costs from the same quantities the paper
//! reasons about:
//!
//! * lockstep **wavefronts** (64 lanes AMD / 32 NVIDIA) with the wave
//!   intrinsics the kernels issue — `ballot`, `wave_prefix_sum`,
//!   `wave_reduce_add` ([`wave`]),
//! * a **memory hierarchy** — per-wave coalescer ([`coalescer`]) in front
//!   of a set-associative L2 ([`l2`]) and an HBM bandwidth model — that
//!   yields rocprofiler's `FetchSize` / `L2CacheHit` / `MemUnitBusy`
//!   counters ([`kernel::KernelReport`]),
//! * **atomics** with per-line contention serialization,
//! * **kernel-launch and device-sync costs** with per-stream timelines
//!   (AMD sync ≫ NVIDIA sync, the effect behind §IV-B stream
//!   consolidation), and
//! * a **compiler/register model** (clang vs hipcc vs no `-O3`, §IV-A)
//!   feeding an occupancy-based issue model.
//!
//! Two fidelity levels ([`device::ExecMode`]), one wave loop: a launch runs
//! its waves in order on the calling thread, and `Device::launch_split`
//! may hand independent waves to one worker per core. `Functional` stops
//! at the per-wave coalescer, for end-to-end GTEPS experiments; `Timing`
//! also classifies every coalescer miss through the shared L2, in wave
//! order, to regenerate the paper's profiler tables. Contiguous accesses are traced
//! per cache line rather than per lane (`WaveCtx::vload32_range` and
//! friends), with the same counters either way (DESIGN.md §8).

pub mod arch;
pub mod buffer;
pub mod coalescer;
pub mod device;
pub mod group;
pub mod kernel;
pub mod l2;
pub mod pool;
pub mod wave;

pub use arch::{ArchProfile, Compiler, CompilerModel};
pub use buffer::{BufU32, BufU64};
pub use device::{cores, for_each_job, on_workers, Device, ExecMode, PoolGauges};
pub use group::{GroupCfg, GroupCtx};
pub use kernel::{KernelReport, LaunchCfg, WaveStats};
pub use pool::{fnv1a, fnv1a_mix, splitmix64, PoolError};
pub use wave::WaveCtx;
