#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ascetic-baselines — comparison systems
//!
//! The three systems the paper evaluates Ascetic against (§4.1):
//!
//! * [`pt`] — a **partition-based** system in the style of GraphReduce
//!   (the paper's "PT"): static vertex-range partitions sized to GPU
//!   memory, every partition containing an active vertex streamed through
//!   the device each iteration. Simple, but moves 10–200× the dataset
//!   (Table 5).
//! * [`subway`] — a faithful re-implementation of **Subway**'s three-phase
//!   loop: GPU subgraph identification → multi-threaded CPU gather of
//!   exactly the active edges → transfer → compute, with the phases
//!   strictly serialized (the paper measures 68 % GPU idle for BFS on
//!   friendster-konect as a consequence).
//! * [`uvm`] — a **Unified Virtual Memory** system: edges stay in host
//!   memory and fault in page-by-page with LRU residency (the paper's
//!   §4.4 comparison).
//!
//! All three implement [`ascetic_core::OutOfCoreSystem`] and produce the
//! same [`ascetic_core::RunReport`] as Ascetic, so every table and figure
//! compares like-for-like — and all three run the driver loop Ascetic runs
//! ([`ascetic_algos::ops::Drive`]) inside one shared run frame (the
//! private `frame` module), so they differ from each other, and from
//! Ascetic, in data movement only.

mod frame;
pub mod pt;
pub mod subway;
pub mod uvm;

pub use pt::PtSystem;
pub use subway::SubwaySystem;
pub use uvm::UvmSystem;

use ascetic_algos::VertexProgram;
use ascetic_core::system::PrepareError;
use ascetic_core::{AsceticSystem, OutOfCoreSystem, RunReport};
use ascetic_graph::Csr;

/// Any of the four evaluated systems behind one concrete type.
///
/// [`OutOfCoreSystem::run`] is generic over the program, so the trait is
/// not object-safe; this enum is the dispatch point the CLI and the bench
/// harness share instead of duplicating per-system match arms.
pub enum AnySystem {
    /// The Ascetic framework.
    Ascetic(AsceticSystem),
    /// The Subway baseline.
    Subway(SubwaySystem),
    /// The partition-based baseline.
    Pt(PtSystem),
    /// The UVM baseline.
    Uvm(UvmSystem),
}

impl OutOfCoreSystem for AnySystem {
    fn name(&self) -> &'static str {
        match self {
            AnySystem::Ascetic(s) => s.name(),
            AnySystem::Subway(s) => s.name(),
            AnySystem::Pt(s) => s.name(),
            AnySystem::Uvm(s) => s.name(),
        }
    }

    fn prepare(&self, g: &Csr) -> Result<(), PrepareError> {
        match self {
            AnySystem::Ascetic(s) => s.prepare(g),
            AnySystem::Subway(s) => s.prepare(g),
            AnySystem::Pt(s) => s.prepare(g),
            AnySystem::Uvm(s) => s.prepare(g),
        }
    }

    fn run<P: VertexProgram>(&self, g: &Csr, prog: &P) -> RunReport {
        match self {
            AnySystem::Ascetic(s) => s.run(g, prog),
            AnySystem::Subway(s) => s.run(g, prog),
            AnySystem::Pt(s) => s.run(g, prog),
            AnySystem::Uvm(s) => s.run(g, prog),
        }
    }
}

impl From<AsceticSystem> for AnySystem {
    fn from(s: AsceticSystem) -> Self {
        AnySystem::Ascetic(s)
    }
}

impl From<SubwaySystem> for AnySystem {
    fn from(s: SubwaySystem) -> Self {
        AnySystem::Subway(s)
    }
}

impl From<PtSystem> for AnySystem {
    fn from(s: PtSystem) -> Self {
        AnySystem::Pt(s)
    }
}

impl From<UvmSystem> for AnySystem {
    fn from(s: UvmSystem) -> Self {
        AnySystem::Uvm(s)
    }
}

#[cfg(test)]
mod any_tests {
    use super::*;
    use ascetic_algos::traits::DEVICE_BYTES_PER_VERTEX;
    use ascetic_algos::Bfs;
    use ascetic_core::AsceticConfig;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_sim::DeviceConfig;

    #[test]
    fn any_system_delegates_byte_identically() {
        let g = uniform_graph(1_500, 12_000, false, 11);
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
        let direct = SubwaySystem::new(dev).run(&g, &Bfs::new(0));
        let any: AnySystem = SubwaySystem::new(dev).into();
        assert!(any.prepare(&g).is_ok());
        let via = any.run(&g, &Bfs::new(0));
        assert_eq!(any.name(), "Subway");
        assert_eq!(direct.output, via.output);
        assert_eq!(direct.xfer, via.xfer);
        assert_eq!(direct.sim_time_ns, via.sim_time_ns);

        let any = AnySystem::from(AsceticSystem::new(
            AsceticConfig::new(dev).with_chunk_bytes(1024),
        ));
        assert_eq!(any.name(), "Ascetic");
        assert!(any.prepare(&g).is_ok());
        assert!(any.run(&g, &Bfs::new(0)).prestore_bytes > 0);
    }

    #[test]
    fn prepare_rejects_oversized_vertex_sets() {
        let g = uniform_graph(100_000, 10, false, 1);
        let tiny = DeviceConfig::p100(1 << 10);
        for sys in [
            AnySystem::from(SubwaySystem::new(tiny)),
            AnySystem::from(PtSystem::new(tiny)),
            AnySystem::from(UvmSystem::new(tiny)),
        ] {
            assert!(
                matches!(sys.prepare(&g), Err(PrepareError::VerticesDontFit { .. })),
                "{} must refuse",
                sys.name()
            );
        }
        // vertex arrays that fill the device exactly leave no edge buffer:
        // the streaming baselines refuse instead of panicking in `run`
        let g = uniform_graph(1_000, 8_000, false, 3);
        let full = DeviceConfig::p100(g.num_vertices() as u64 * DEVICE_BYTES_PER_VERTEX);
        for sys in [
            AnySystem::from(SubwaySystem::new(full)),
            AnySystem::from(PtSystem::new(full)),
        ] {
            let err = sys.prepare(&g).expect_err(sys.name());
            assert_eq!(err.to_string(), "edge budget 0 B below one 4-byte edge");
        }
    }
}
