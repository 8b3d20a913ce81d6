//! Pluggable scheduling policies.

/// How the scheduler picks the next job among those that have arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Strict arrival order (`submit_ns`, then id).
    Fifo,
    /// Shortest job first: rank by a per-algorithm running-mean cost
    /// estimate (seeded from the graph's edge volume, refined by the
    /// costs of observed runs), shortest first.
    Sjf,
    /// Residency affinity: prefer the job whose chunk demand best overlaps
    /// what the live session already holds on-device, carrying the warmed
    /// static region and prefetch history across jobs instead of tearing the
    /// session down.
    ResidencyAffinity,
}

/// Every policy, in the order benches and CI sweep them.
pub const ALL_POLICIES: [Policy; 3] = [Policy::Fifo, Policy::Sjf, Policy::ResidencyAffinity];

impl Policy {
    /// Display name (matches the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Sjf => "sjf",
            Policy::ResidencyAffinity => "residency",
        }
    }
}

ascetic_core::spelled!(Policy, name, Fifo, Sjf, ResidencyAffinity);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for p in ALL_POLICIES {
            assert_eq!(p.name().parse(), Ok(p));
            assert_eq!(p.to_string(), p.name());
        }
        let err = "lifo".parse::<Policy>().unwrap_err();
        assert_eq!(err, "'lifo' is not one of fifo|sjf|residency");
    }
}
