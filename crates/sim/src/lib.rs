#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ascetic-sim — the simulated GPU substrate
//!
//! The paper's prototype runs on a real NVIDIA P100 over PCIe. This crate is
//! the stand-in substrate (see `DESIGN.md` §1): a *functional* device — real
//! bytes move into a real device-memory arena through a real allocator — with
//! a *virtual* clock that charges each operation a cost from a calibrated
//! model:
//!
//! * [`time`] — nanosecond-resolution simulated time.
//! * [`device`] — the device descriptor: memory capacity, PCIe link, kernel
//!   and CPU-gather cost models (P100-class defaults).
//! * [`memory`] — the device-memory arena, a bump allocator (memory is laid
//!   out once and nothing is freed); all "GPU" data lives here, word (u32)
//!   addressed.
//! * [`timeline`] — the engine timeline: one COPY engine, one COMPUTE
//!   engine and the host CPU, with CUDA-stream-like dependency scheduling.
//!   Overlap (paper Figure 5) falls out of scheduling compute and copy
//!   spans with independent ready-times.
//! * [`gpu`] — ties the above together: H2D transfers that copy real
//!   words and charge the link, kernels that charge the compute model —
//!   each counted once, in the device's metric registry. (Nothing copies
//!   device→host: results are read out of the arena directly.)
//! * [`interconnect`] — the N-device fabric: per-device PCIe links behind
//!   a shared root complex, plus optional NVLink-class peer links, for the
//!   fleet execution layer.
//! * [`uvm`] — Unified Virtual Memory emulation: demand paging over host
//!   data, LRU residency, fault/migration accounting (the UVM baseline).
//! * [`trace`] — chunk-access tracer used to regenerate Figure 2.
//! * [`metrics`] — the transfer/kernel counter views every report exposes.
//!
//! Determinism: nothing in this crate reads wall-clock time or RNGs; given
//! the same sequence of operations the clock advances identically on every
//! run and platform.

pub mod device;
pub mod gpu;
pub mod interconnect;
pub mod memory;
pub mod metrics;
pub mod time;
pub mod timeline;
pub mod trace;
pub mod uvm;

pub use device::{DecompressModel, DeviceConfig, GatherModel, KernelModel, PcieModel, UvmModel};
pub use gpu::{Gpu, Xfer};
pub use interconnect::{Interconnect, InterconnectConfig, InterconnectStats, LinkModel};
pub use memory::{ArenaOccupancy, DevPtr, DeviceMemory, OutOfDeviceMemory};
pub use metrics::{KernelStats, XferStats};
pub use time::SimTime;
pub use timeline::{
    copy_stream_track_name, CopyStream, Engine, Span, Timeline, COPY_STREAM_TRACK_PREFIX,
};
pub use trace::AccessTracer;
pub use uvm::{Uvm, UvmStats};
