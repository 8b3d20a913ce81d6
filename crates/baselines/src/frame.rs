//! The run frame the three baselines share.
//!
//! PT, Subway and UVM differ in which bytes move when — and in nothing
//! else: each runs on a fresh device with the vertex arrays reserved,
//! opens every iteration on a barrier (`gpu.sync()`) and closes it on
//! another ([`Frame::close`]), logs one [`IterReport`] per iteration in
//! the ledger the Ascetic session keeps too ([`RunLedger`]) and assembles
//! the same [`RunReport`] from it. That frame lives here, once, and the
//! frontier loop around it is [`ascetic_algos::ops::Drive`]; the system
//! modules keep only their data movement.

use ascetic_algos::VertexProgram;
use ascetic_core::engine::RunLedger;
use ascetic_core::report::{IterReport, RunReport};
use ascetic_core::system::{
    check_edge_budget, edge_budget_bytes, reserve_vertex_arrays, PrepareError,
};
use ascetic_graph::Csr;
use ascetic_sim::{DevPtr, DeviceConfig, Gpu, SimTime};

/// What PT's and Subway's `prepare` check: the vertex arrays fit and leave
/// room for one edge entry — the least [`Frame::edge_buffer`] accepts.
pub(crate) fn check_edge_room(g: &Csr, device: &DeviceConfig) -> Result<(), PrepareError> {
    let budget = check_edge_budget(g, device.mem_bytes)?;
    let edge = g.bytes_per_edge() as u64;
    if budget < edge {
        return Err(PrepareError::EdgeBudgetBelowOneEdge { budget, edge });
    }
    Ok(())
}

/// One baseline run's device and report state.
pub(crate) struct Frame {
    /// The device: vertex arrays reserved, tracer armed as the system
    /// asked.
    pub gpu: Gpu,
    /// The run's ledger: a fresh device per run, so its base is the
    /// default (nothing came before); the system charges its breakdown
    /// as it goes.
    pub ledger: RunLedger,
}

impl Frame {
    /// A fresh device for one run over `g`.
    pub fn new(device: DeviceConfig, tracing: bool, g: &Csr) -> Frame {
        let mut gpu = Gpu::armed(device, tracing);
        reserve_vertex_arrays(&mut gpu, g);
        Frame {
            gpu,
            ledger: RunLedger::default(),
        }
    }

    /// Everything the vertex arrays left, as one edge buffer.
    pub fn edge_buffer(&mut self, g: &Csr) -> DevPtr {
        assert!(
            edge_budget_bytes(&self.gpu) >= g.bytes_per_edge() as u64,
            "no room for edge data"
        );
        let words = self.gpu.mem.available();
        self.gpu.alloc(words).expect("edge buffer")
    }

    /// Close the iteration opened at `start`: barrier, and the
    /// iteration's report row.
    pub fn close(
        &mut self,
        start: SimTime,
        active_vertices: u64,
        active_edges: u64,
        payload_bytes: u64,
    ) {
        let end = self.gpu.sync();
        let row = IterReport {
            active_vertices,
            active_edges,
            payload_bytes,
            time_ns: 0,
            static_edges: 0,
            pull: false,
        };
        self.ledger.close(start, end, row);
    }

    /// Assemble the run's report from the final device state.
    pub fn finish<P: VertexProgram>(
        mut self,
        system: &'static str,
        prog: &P,
        state: &P::State,
    ) -> RunReport {
        let output = prog.output(state);
        self.ledger
            .into_report(system, prog.name(), &mut self.gpu, output)
    }
}
