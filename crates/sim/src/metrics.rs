//! Transfer and kernel counters.
//!
//! Tables 4/5 and Figures 7–9 are built from exactly these numbers: bytes
//! moved per direction, number of DMA operations, kernel launches and the
//! work they performed. Counters are plain (non-atomic) because all systems
//! drive the simulated device from a single orchestration thread.

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
    /// Device→host payload bytes.
    pub d2h_bytes: u64,
    /// Number of H2D DMA operations.
    pub h2d_ops: u64,
    /// Number of D2H DMA operations.
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

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &XferStats) {
        self.h2d_bytes += other.h2d_bytes;
        self.h2d_wire_bytes += other.h2d_wire_bytes;
        self.h2d_prefetch_bytes += other.h2d_prefetch_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.h2d_ops += other.h2d_ops;
        self.d2h_ops += other.d2h_ops;
    }

    /// The counters accumulated since `base` was copied off this set —
    /// one run's share of a device that serves many.
    pub fn since(&self, base: &XferStats) -> XferStats {
        XferStats {
            h2d_bytes: self.h2d_bytes - base.h2d_bytes,
            h2d_wire_bytes: self.h2d_wire_bytes - base.h2d_wire_bytes,
            h2d_prefetch_bytes: self.h2d_prefetch_bytes - base.h2d_prefetch_bytes,
            d2h_bytes: self.d2h_bytes - base.d2h_bytes,
            h2d_ops: self.h2d_ops - base.h2d_ops,
            d2h_ops: self.d2h_ops - base.d2h_ops,
        }
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

impl KernelStats {
    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.launches += other.launches;
        self.edges += other.edges;
        self.vertices += other.vertices;
        self.time_ns += other.time_ns;
    }

    /// The counters accumulated since `base` was copied off this set.
    pub fn since(&self, base: &KernelStats) -> KernelStats {
        KernelStats {
            launches: self.launches - base.launches,
            edges: self.edges - base.edges,
            vertices: self.vertices - base.vertices,
            time_ns: self.time_ns - base.time_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xfer_totals_and_merge() {
        let mut a = XferStats {
            h2d_bytes: 10,
            h2d_wire_bytes: 4,
            h2d_prefetch_bytes: 3,
            d2h_bytes: 2,
            h2d_ops: 1,
            d2h_ops: 1,
        };
        let b = XferStats {
            h2d_bytes: 5,
            h2d_wire_bytes: 5,
            h2d_prefetch_bytes: 1,
            d2h_bytes: 0,
            h2d_ops: 2,
            d2h_ops: 0,
        };
        a.merge(&b);
        assert_eq!(a.h2d_bytes, 15);
        assert_eq!(a.h2d_wire_bytes, 9);
        assert_eq!(a.h2d_prefetch_bytes, 4);
        assert_eq!(a.h2d_ondemand_bytes(), 11);
        assert_eq!(a.h2d_ops, 3);
        assert_eq!(a.total_bytes(), 17);
        assert_eq!(a.total_wire_bytes(), 11);
    }

    #[test]
    fn kernel_merge() {
        let mut a = KernelStats {
            launches: 1,
            edges: 100,
            vertices: 10,
            time_ns: 500,
        };
        a.merge(&KernelStats {
            launches: 2,
            edges: 50,
            vertices: 5,
            time_ns: 100,
        });
        assert_eq!(a.launches, 3);
        assert_eq!(a.edges, 150);
        assert_eq!(a.vertices, 15);
        assert_eq!(a.time_ns, 600);
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(XferStats::default().total_bytes(), 0);
        assert_eq!(KernelStats::default().launches, 0);
    }
}
