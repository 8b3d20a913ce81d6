//! Transfer and kernel counters, as a run reports them.
//!
//! Tables 4/5 and Figures 7–9 are built from exactly these numbers: bytes
//! moved, number of DMA operations, kernel launches and the work they
//! performed. Both structs are plain `Copy` views: the numbers are counted
//! once, in the device's metric registry ([`crate::Gpu::ship_at`] and the
//! kernel charge are the only writers), and a report's view is read off a
//! snapshot of it.

/// PCIe transfer counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XferStats {
    /// Host→device payload bytes (decoded / logical size).
    pub h2d_bytes: u64,
    /// Host→device bytes actually on the link — equal to `h2d_bytes` for
    /// raw transfers, the encoded size for compressed ones.
    pub h2d_wire_bytes: u64,
    /// Of `h2d_bytes`, the portion shipped speculatively by the prefetch
    /// stream (on-demand / reactive bytes are `h2d_bytes` minus this).
    pub h2d_prefetch_bytes: u64,
    /// Device→host payload bytes. Always 0: no system in the tree copies
    /// results back over the link. The column stays because the summary
    /// CSV header and `benchmark/` read it.
    pub d2h_bytes: u64,
    /// Number of H2D DMA operations.
    pub h2d_ops: u64,
    /// Number of D2H DMA operations (always 0, as `d2h_bytes`).
    pub d2h_ops: u64,
}

impl XferStats {
    /// Total payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }

    /// Total bytes on the link in both directions (D2H is never encoded).
    pub fn total_wire_bytes(&self) -> u64 {
        self.h2d_wire_bytes + self.d2h_bytes
    }

    /// The reactive share of the H2D payload: everything the device pulled
    /// on demand rather than receiving from the prefetch stream.
    pub fn h2d_ondemand_bytes(&self) -> u64 {
        self.h2d_bytes - self.h2d_prefetch_bytes
    }
}

/// Kernel-launch counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of kernel launches.
    pub launches: u64,
    /// Total edges traversed across launches.
    pub edges: u64,
    /// Total vertices processed across launches.
    pub vertices: u64,
    /// Total simulated kernel time, ns.
    pub time_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xfer_totals() {
        let a = XferStats {
            h2d_bytes: 15,
            h2d_wire_bytes: 9,
            h2d_prefetch_bytes: 4,
            d2h_bytes: 2,
            h2d_ops: 3,
            d2h_ops: 1,
        };
        assert_eq!(a.h2d_ondemand_bytes(), 11);
        assert_eq!(a.total_bytes(), 17);
        assert_eq!(a.total_wire_bytes(), 11);
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(XferStats::default().total_bytes(), 0);
        assert_eq!(KernelStats::default().launches, 0);
    }
}
