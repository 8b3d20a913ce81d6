//! Multi-device interconnect model.
//!
//! One [`crate::Gpu`] models a single device behind a single PCIe link.
//! A fleet of N devices shares a richer fabric: every device keeps its own
//! PCIe link to the host, but all those links converge on one **root
//! complex** whose aggregate bandwidth is finite — and devices may
//! additionally be joined by **NVLink-class peer links** that bypass the
//! host entirely. The [`Interconnect`] arbitrates device-to-device
//! transfers on the same virtual clock the per-device timelines use:
//! every call is pure integer arithmetic over link frontiers, so a given
//! sequence of transfers produces identical times on every run and host.
//!
//! Two paths exist for a `src → dst` transfer:
//!
//! * **peer** — when a peer link is configured, the payload moves directly
//!   over the `(src, dst)` link; transfers between *different* pairs
//!   proceed in parallel (each ordered pair has its own frontier), while
//!   transfers on the *same* pair serialize.
//! * **staged** — without peer links the payload bounces through host
//!   memory: a D2H hop on `src`'s PCIe link followed by an H2D hop on
//!   `dst`'s. Both hops also serialize on the shared root complex at its
//!   aggregate bandwidth, which is what makes N simultaneous exchanges
//!   slower than N independent PCIe links would suggest.

use crate::time::ns_for_bytes;

/// A point-to-point link: fixed per-transfer latency plus
/// bandwidth-limited payload time. The same shape as
/// [`crate::PcieModel`], kept separate so peer links read as what they
/// are in fleet configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkModel {
    /// Sustained bandwidth, bytes per second.
    pub bandwidth_bps: u64,
    /// Fixed cost per transfer (setup + doorbell), ns.
    pub latency_ns: u64,
}

impl LinkModel {
    /// Time to move `bytes` in one transfer over this link.
    #[inline]
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.latency_ns + ns_for_bytes(bytes, self.bandwidth_bps)
    }
}

/// Fabric description for an N-device fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterconnectConfig {
    /// Optional NVLink-class peer links (one per ordered device pair).
    /// `None` means all device-to-device traffic stages through the host.
    pub peer: Option<LinkModel>,
    /// Each device's PCIe link to the host (used by staged transfers).
    pub host: LinkModel,
    /// Aggregate bandwidth of the shared host root complex, bytes per
    /// second. Staged hops from *all* devices serialize their payload
    /// time on this budget.
    pub host_root_bps: u64,
}

impl InterconnectConfig {
    /// PCIe-only fabric: no peer links, P100-class 12 GB/s per-device
    /// links, a 3.0 x16-era root complex that sustains roughly two
    /// links' worth of aggregate traffic.
    pub fn pcie() -> Self {
        InterconnectConfig {
            peer: None,
            host: LinkModel {
                bandwidth_bps: 12_000_000_000,
                latency_ns: 10_000,
            },
            host_root_bps: 24_000_000_000,
        }
    }

    /// NVLink-class fabric: the PCIe host links of [`Self::pcie`] plus
    /// direct peer links (P100 NVLink 1.0: 4 bricks x 20 GB/s per
    /// direction, microsecond-class latency).
    pub fn nvlink() -> Self {
        InterconnectConfig {
            peer: Some(LinkModel {
                bandwidth_bps: 80_000_000_000,
                latency_ns: 1_500,
            }),
            ..Self::pcie()
        }
    }
}

/// Byte/transfer counters the fleet reports read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InterconnectStats {
    /// Bytes moved over peer links.
    pub peer_bytes: u64,
    /// Bytes moved via host staging (counted once, not per hop).
    pub staged_bytes: u64,
    /// Peer-link transfers completed.
    pub peer_transfers: u64,
    /// Staged transfers completed.
    pub staged_transfers: u64,
}

impl InterconnectStats {
    /// Total device-to-device payload bytes, either path.
    pub fn total_bytes(&self) -> u64 {
        self.peer_bytes + self.staged_bytes
    }
}

/// Link-frontier arbiter for an N-device fabric.
///
/// Holds one busy-until frontier per ordered peer pair, one per device
/// host link, and one for the shared root complex. [`Self::transfer`]
/// places a payload on the earliest slot every involved resource allows
/// and advances those frontiers — the multi-device analogue of
/// [`crate::Timeline::schedule`].
#[derive(Clone, Debug)]
pub struct Interconnect {
    cfg: InterconnectConfig,
    devices: usize,
    /// Busy-until per ordered `(src, dst)` peer pair, `src * n + dst`.
    peer_free: Vec<u64>,
    /// Busy-until per device host link.
    host_free: Vec<u64>,
    /// Busy-until of the shared root complex (staged payload time).
    root_free: u64,
    stats: InterconnectStats,
}

impl Interconnect {
    /// A fabric joining `devices` devices.
    pub fn new(cfg: InterconnectConfig, devices: usize) -> Self {
        assert!(devices > 0, "a fabric needs at least one device");
        Interconnect {
            cfg,
            devices,
            peer_free: vec![0; devices * devices],
            host_free: vec![0; devices],
            root_free: 0,
            stats: InterconnectStats::default(),
        }
    }

    /// Number of devices on the fabric.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// The fabric description.
    pub fn config(&self) -> &InterconnectConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> InterconnectStats {
        self.stats
    }

    /// Move `bytes` from device `src` to device `dst`, no earlier than
    /// `ready_ns`. Returns the `(start, end)` window on the virtual
    /// clock. Zero-byte transfers are free and occupy nothing.
    pub fn transfer(&mut self, src: usize, dst: usize, bytes: u64, ready_ns: u64) -> (u64, u64) {
        assert!(src < self.devices && dst < self.devices && src != dst);
        if bytes == 0 {
            return (ready_ns, ready_ns);
        }
        if let Some(peer) = self.cfg.peer {
            let pair = src * self.devices + dst;
            let start = ready_ns.max(self.peer_free[pair]);
            let end = start + peer.transfer_ns(bytes);
            self.peer_free[pair] = end;
            self.stats.peer_bytes += bytes;
            self.stats.peer_transfers += 1;
            return (start, end);
        }
        // Staged: D2H on src's link, then H2D on dst's. Each hop's payload
        // also serializes on the root complex at its aggregate bandwidth;
        // the hop itself still runs at the (slower) per-device link rate,
        // so the root only bites when several devices stage at once.
        let root_ns = ns_for_bytes(bytes, self.cfg.host_root_bps);
        let up_start = ready_ns.max(self.host_free[src]).max(self.root_free);
        let up_end = up_start + self.cfg.host.transfer_ns(bytes);
        self.host_free[src] = up_end;
        self.root_free = up_start + root_ns;
        let down_start = up_end.max(self.host_free[dst]).max(self.root_free);
        let down_end = down_start + self.cfg.host.transfer_ns(bytes);
        self.host_free[dst] = down_end;
        self.root_free = down_start + root_ns;
        self.stats.staged_bytes += bytes;
        self.stats.staged_transfers += 1;
        (up_start, down_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_pairs_run_in_parallel_but_serialize_per_pair() {
        let mut ic = Interconnect::new(InterconnectConfig::nvlink(), 4);
        let (s0, e0) = ic.transfer(0, 1, 1 << 20, 0);
        let (s1, e1) = ic.transfer(2, 3, 1 << 20, 0);
        assert_eq!(s0, 0);
        assert_eq!(s1, 0, "distinct pairs do not contend");
        assert_eq!(e0, e1);
        // the same ordered pair serializes
        let (s2, e2) = ic.transfer(0, 1, 1 << 20, 0);
        assert_eq!(s2, e0);
        assert_eq!(e2 - s2, e0 - s0);
        assert_eq!(ic.stats().peer_transfers, 3);
        assert_eq!(ic.stats().peer_bytes, 3 << 20);
        assert_eq!(ic.stats().staged_transfers, 0);
    }

    #[test]
    fn peer_beats_staged_for_the_same_payload() {
        let bytes = 16u64 << 20;
        let mut peer = Interconnect::new(InterconnectConfig::nvlink(), 2);
        let mut staged = Interconnect::new(InterconnectConfig::pcie(), 2);
        let (_, pe) = peer.transfer(0, 1, bytes, 0);
        let (_, se) = staged.transfer(0, 1, bytes, 0);
        assert!(
            pe * 2 < se,
            "NVLink path ({pe} ns) should be far ahead of staging ({se} ns)"
        );
        assert_eq!(staged.stats().staged_bytes, bytes);
    }

    #[test]
    fn staged_hops_contend_on_the_root_complex() {
        // Two simultaneous staged transfers between disjoint device pairs:
        // their per-device links are independent, but the shared root
        // complex (2x one link's bandwidth here) must stretch the second
        // transfer's window beyond what one transfer alone takes.
        let cfg = InterconnectConfig {
            host_root_bps: 12_000_000_000, // == one link: full serialization
            ..InterconnectConfig::pcie()
        };
        let bytes = 64u64 << 20;
        let solo_end = {
            let mut ic = Interconnect::new(cfg, 4);
            ic.transfer(0, 1, bytes, 0).1
        };
        let mut ic = Interconnect::new(cfg, 4);
        ic.transfer(0, 1, bytes, 0);
        let (_, contended_end) = ic.transfer(2, 3, bytes, 0);
        assert!(
            contended_end > solo_end + solo_end / 4,
            "root contention must delay the second staged transfer \
             ({contended_end} vs {solo_end} ns solo)"
        );
    }

    #[test]
    fn zero_bytes_are_free_and_ready_is_respected() {
        let mut ic = Interconnect::new(InterconnectConfig::nvlink(), 2);
        assert_eq!(ic.transfer(0, 1, 0, 500), (500, 500));
        assert_eq!(ic.stats(), InterconnectStats::default());
        let (s, _) = ic.transfer(1, 0, 4096, 9_000);
        assert_eq!(s, 9_000, "transfers never start before ready");
    }
}
