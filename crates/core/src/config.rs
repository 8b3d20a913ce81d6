//! Ascetic configuration.

use ascetic_algos::{AlgoError, Capabilities};
use ascetic_graph::chunks::DEFAULT_CHUNK_BYTES;
use ascetic_sim::DeviceConfig;

use crate::prefetch::PrefetchMode;

/// Smallest allowed edge-chunk size: the simulated device's page
/// granularity. Chunks below this would make chunk bookkeeping dominate
/// the data they manage (the CLI clamps auto-scaled chunks to this floor).
pub const MIN_CHUNK_BYTES: usize = 64;

/// Why a configuration failed [`AsceticConfig::build`] or
/// [`AsceticConfig::validate_algo`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `od_buffers == 0`: the on-demand region needs at least one buffer.
    ZeroOdBuffers,
    /// A static-ratio override outside `[0, 1]`.
    StaticRatioOutOfRange(f64),
    /// K (the Eq (2) active-edge fraction) outside `[0, 1)`.
    KOutOfRange(f64),
    /// Chunk size below the device's page granularity.
    ChunkBelowPageGranularity {
        /// The rejected chunk size.
        chunk: usize,
        /// The [`MIN_CHUNK_BYTES`] floor.
        min: usize,
    },
    /// The configuration asks for something the program's
    /// [`Capabilities`] rule out (forced pull on a push-only program,
    /// graph-weighting mismatch). Raised by
    /// [`AsceticConfig::validate_algo`] at build/admission time — engines
    /// never check this mid-run.
    Algo(AlgoError),
}

impl From<AlgoError> for ConfigError {
    fn from(e: AlgoError) -> Self {
        ConfigError::Algo(e)
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroOdBuffers => {
                write!(
                    f,
                    "od_buffers must be >= 1 (the on-demand region needs at least one buffer)"
                )
            }
            ConfigError::StaticRatioOutOfRange(r) => {
                write!(f, "static ratio {r} is outside [0, 1]")
            }
            ConfigError::KOutOfRange(k) => write!(f, "K = {k} is outside [0, 1)"),
            ConfigError::ChunkBelowPageGranularity { chunk, min } => {
                write!(
                    f,
                    "chunk size {chunk} B is below the {min} B page granularity"
                )
            }
            ConfigError::Algo(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Give a mode enum both text directions from its one spelling method:
/// `Display` writes `self.$name()`, `FromStr` accepts exactly the spellings
/// of the listed variants and otherwise says which those are.
#[macro_export]
macro_rules! spelled {
    ($t:ident, $name:ident, $($v:expr),+) => {
        impl std::fmt::Display for $t {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.$name())
            }
        }
        impl std::str::FromStr for $t {
            type Err = String;
            fn from_str(s: &str) -> Result<Self, String> {
                use $t::*;
                let all = [$($v),+];
                all.into_iter().find(|m| m.$name() == s).ok_or_else(|| {
                    let choices: Vec<_> = all.iter().map(|m| m.$name()).collect();
                    format!("'{s}' is not one of {}", choices.join("|"))
                })
            }
        }
    };
}

/// How the static region is filled before iteration 0 (paper §5 studies
/// front / rear / random and finds < 5 % spread). After the prestore only
/// Eq (3) and next-frontier prefetch change the region (`DESIGN.md` §19).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillPolicy {
    /// Chunks from the front of the edge array (default).
    Front,
    /// Chunks from the rear of the edge array.
    Rear,
    /// Uniformly random chunks (deterministic given `seed`).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

impl FillPolicy {
    /// The CLI name of the policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            FillPolicy::Front => "front",
            FillPolicy::Rear => "rear",
            FillPolicy::Random { .. } => "random",
        }
    }
}

// `random` parses to the seed the CLI has always used
spelled!(FillPolicy, as_str, Front, Rear, Random { seed: 7 });

/// Whether H2D edge payloads are delta–varint encoded before crossing the
/// link (on-demand batches and the prestore fill; prefetches always ship
/// raw).
/// Weighted payloads always ship raw — weights would ride along
/// uncompressed and dilute the ratio below usefulness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompressionMode {
    /// Ship raw 4-byte targets (the paper's systems all do).
    #[default]
    Off,
    /// Per-transfer decision: a payload ships encoded iff
    /// [`crate::codec::encoded_wins`] finds the decoded payload usable
    /// before the raw one, pricing it first at the per-chunk ratios cached
    /// in [`crate::codec::WireSizes`].
    Adaptive,
}

impl CompressionMode {
    /// The CLI name of the mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            CompressionMode::Off => "off",
            CompressionMode::Adaptive => "adaptive",
        }
    }
}

spelled!(CompressionMode, as_str, Off, Adaptive);

/// Which direction the session traverses edges in each iteration.
///
/// Push scatters over the frontier's out-edges (CSR rows, the paper's
/// model); pull gathers over candidate targets' in-edges (CSC rows of the
/// transposed mirror). `Adaptive` compares the two directions' estimated
/// on-demand wire bytes every iteration and picks the cheaper one, with
/// hysteresis so the choice does not flap on near-ties.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirectionMode {
    /// Always push (the paper's systems all do).
    #[default]
    Push,
    /// Force pull every iteration. Rejected for programs without a pull
    /// implementation.
    Pull,
    /// Per-iteration Beamer-style density switch between push and pull.
    /// Programs without a pull implementation silently run push.
    Adaptive,
}

impl DirectionMode {
    /// The CLI name of the mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            DirectionMode::Push => "push",
            DirectionMode::Pull => "pull",
            DirectionMode::Adaptive => "adaptive",
        }
    }
}

spelled!(DirectionMode, as_str, Push, Pull, Adaptive);

/// Full Ascetic configuration.
#[derive(Clone, Copy, Debug)]
pub struct AsceticConfig {
    /// Simulated device (capacity + cost models).
    pub device: DeviceConfig,
    /// Expected per-iteration active-edge fraction K (Eq (2) input).
    /// Paper default: 0.10.
    pub k: f64,
    /// Override the Eq (2) static share with a fixed ratio in `[0, 1]`
    /// (used by the Figure 10 sweep).
    pub static_ratio_override: Option<f64>,
    /// Overlap static-region compute with on-demand gather/transfer
    /// (Figure 5). Disabled for the Figure 8 ablation.
    pub overlap: bool,
    /// Initial fill policy.
    pub fill: FillPolicy,
    /// Enable the Eq (3) adaptive re-partition check (judged on the
    /// evidence accumulated since the region last changed size, see
    /// [`crate::ratio::RegionEvidence`]).
    pub adaptive: bool,
    /// Edge-chunk size in bytes (paper: 16 KiB).
    pub chunk_bytes: usize,
    /// Record every engine span and session phase on the report's
    /// `span_trace` (export with [`ascetic_obs::Trace::to_perfetto_json`]).
    pub tracing: bool,
    /// Number of buffers the on-demand region is split into (≥ 1). With
    /// more than one, batch `i+1`'s H2D transfer can run while batch `i`
    /// computes — classic double buffering. The paper's design has a
    /// single region (its overlap is static-compute vs gather/transfer),
    /// so 1 is the default; higher values are an extension studied in
    /// `ablation_double_buffer`.
    pub od_buffers: usize,
    /// Compressed transfer path mode (default [`CompressionMode::Off`]).
    pub compression: CompressionMode,
    /// Cross-iteration prefetch policy (default [`PrefetchMode::Off`]).
    pub prefetch: PrefetchMode,
    /// Traversal direction policy (default [`DirectionMode::Push`]).
    pub direction: DirectionMode,
}

impl AsceticConfig {
    /// Paper-default configuration on the given device.
    pub fn new(device: DeviceConfig) -> Self {
        AsceticConfig {
            device,
            k: 0.10,
            static_ratio_override: None,
            overlap: true,
            fill: FillPolicy::Front,
            adaptive: true,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            tracing: false,
            od_buffers: 1,
            compression: CompressionMode::Off,
            prefetch: PrefetchMode::Off,
            direction: DirectionMode::Push,
        }
    }

    /// Builder: set K. Validated by [`AsceticConfig::build`].
    pub fn with_k(mut self, k: f64) -> Self {
        self.k = k;
        self
    }

    /// Builder: force a fixed static share. Validated by
    /// [`AsceticConfig::build`].
    pub fn with_static_ratio(mut self, r: f64) -> Self {
        self.static_ratio_override = Some(r);
        self
    }

    /// Builder: toggle overlap.
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Builder: set the fill policy.
    pub fn with_fill(mut self, fill: FillPolicy) -> Self {
        self.fill = fill;
        self
    }

    /// Builder: toggle Eq (3) adaptivity.
    pub fn with_adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Builder: toggle span tracing.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Builder: split the on-demand region into `n` buffers (double
    /// buffering and beyond). Validated by [`AsceticConfig::build`].
    pub fn with_od_buffers(mut self, n: usize) -> Self {
        self.od_buffers = n;
        self
    }

    /// Builder: set the compressed transfer path mode.
    pub fn with_compression(mut self, mode: CompressionMode) -> Self {
        self.compression = mode;
        self
    }

    /// Builder: set the cross-iteration prefetch policy.
    pub fn with_prefetch(mut self, mode: PrefetchMode) -> Self {
        self.prefetch = mode;
        self
    }

    /// Builder: set the traversal direction policy.
    pub fn with_direction(mut self, mode: DirectionMode) -> Self {
        self.direction = mode;
        self
    }

    /// Builder: override the chunk size (tests and heavily-scaled runs use
    /// chunks smaller than the paper's 16 KiB so that chunk counts stay
    /// proportionate). Validated by [`AsceticConfig::build`].
    pub fn with_chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Validate the knobs, returning the config for chaining. The `with_*`
    /// setters store values verbatim; call this (or let
    /// `OutOfCoreSystem::prepare` call it) before running to reject invalid
    /// combinations with a [`ConfigError`] instead of a panic deep in the
    /// session. No rule depends on the graph.
    pub fn build(self) -> Result<AsceticConfig, ConfigError> {
        if self.od_buffers == 0 {
            return Err(ConfigError::ZeroOdBuffers);
        }
        if !(0.0..1.0).contains(&self.k) {
            return Err(ConfigError::KOutOfRange(self.k));
        }
        if let Some(r) = self.static_ratio_override {
            if !(0.0..=1.0).contains(&r) {
                return Err(ConfigError::StaticRatioOutOfRange(r));
            }
        }
        if self.chunk_bytes < MIN_CHUNK_BYTES {
            return Err(ConfigError::ChunkBelowPageGranularity {
                chunk: self.chunk_bytes,
                min: MIN_CHUNK_BYTES,
            });
        }
        Ok(self)
    }

    /// Check this configuration against a program's capability
    /// descriptor: forcing `--direction pull` onto a push-only program is
    /// rejected *here*, at build/admission time, with a typed
    /// [`AlgoError`] — not by a panic mid-run. (`Adaptive` is a
    /// preference, not a demand: push-only programs simply stay push.)
    /// `name` is the program's display name, used in the error message.
    pub fn validate_algo(&self, caps: Capabilities, name: &'static str) -> Result<(), ConfigError> {
        if self.direction == DirectionMode::Pull && !caps.pull {
            return Err(AlgoError::PullUnsupported { algo: name }.into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AsceticConfig::new(DeviceConfig::p100(1 << 30));
        assert_eq!(c.k, 0.10);
        assert!(c.overlap);
        assert_eq!(c.chunk_bytes, 16 * 1024);
        assert_eq!(c.fill, FillPolicy::Front);
        assert!(c.static_ratio_override.is_none());
        assert_eq!(c.od_buffers, 1);
        assert_eq!(c.compression, CompressionMode::Off);
    }

    #[test]
    fn compression_builder_and_parse() {
        let c = AsceticConfig::new(DeviceConfig::p100(1 << 20))
            .with_compression(CompressionMode::Adaptive);
        assert_eq!(c.compression, CompressionMode::Adaptive);
        for m in [CompressionMode::Off, CompressionMode::Adaptive] {
            assert_eq!(m.as_str().parse(), Ok(m));
        }
        let err = "zstd".parse::<CompressionMode>().unwrap_err();
        assert_eq!(err, "'zstd' is not one of off|adaptive");
        // forcing every payload encoded is not a mode: the wire-form rule decides
        let err = "always".parse::<CompressionMode>().unwrap_err();
        assert_eq!(err, "'always' is not one of off|adaptive");
    }

    #[test]
    fn od_buffer_builder() {
        let c = AsceticConfig::new(DeviceConfig::p100(1 << 20)).with_od_buffers(2);
        assert_eq!(c.od_buffers, 2);
    }

    #[test]
    fn rejects_zero_buffers() {
        let err = AsceticConfig::new(DeviceConfig::p100(1 << 20))
            .with_od_buffers(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroOdBuffers);
        assert!(err.to_string().contains("at least one"));
    }

    #[test]
    fn builders_compose() {
        let c = AsceticConfig::new(DeviceConfig::p100(1 << 20))
            .with_k(0.25)
            .with_static_ratio(0.5)
            .with_overlap(false)
            .with_fill(FillPolicy::Random { seed: 9 })
            .with_adaptive(false);
        assert_eq!(c.k, 0.25);
        assert_eq!(c.static_ratio_override, Some(0.5));
        assert!(!c.overlap);
        assert_eq!(c.fill, FillPolicy::Random { seed: 9 });
        assert!(!c.adaptive);
    }

    #[test]
    fn rejects_ratio_above_one() {
        let err = AsceticConfig::new(DeviceConfig::p100(1 << 20))
            .with_static_ratio(1.5)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::StaticRatioOutOfRange(1.5));
        assert!(err.to_string().contains("outside [0, 1]"));
    }

    #[test]
    fn rejects_k_out_of_range_and_tiny_chunks() {
        let base = AsceticConfig::new(DeviceConfig::p100(1 << 20));
        assert_eq!(
            base.with_k(1.0).build().unwrap_err(),
            ConfigError::KOutOfRange(1.0)
        );
        assert_eq!(
            base.with_chunk_bytes(8).build().unwrap_err(),
            ConfigError::ChunkBelowPageGranularity {
                chunk: 8,
                min: MIN_CHUNK_BYTES
            }
        );
        // the floor itself is fine
        assert!(base.with_chunk_bytes(MIN_CHUNK_BYTES).build().is_ok());
    }

    #[test]
    fn build_accepts_defaults_and_every_compression_mode() {
        let base = AsceticConfig::new(DeviceConfig::p100(1 << 20));
        assert!(base.build().is_ok());
        // Adaptive ships weighted payloads raw rather than refusing them
        assert!(base
            .with_compression(CompressionMode::Adaptive)
            .build()
            .is_ok());
    }

    #[test]
    fn direction_builder_and_parse() {
        let c = AsceticConfig::new(DeviceConfig::p100(1 << 20));
        assert_eq!(c.direction, DirectionMode::Push, "push is the default");
        let c = c.with_direction(DirectionMode::Adaptive);
        assert_eq!(c.direction, DirectionMode::Adaptive);
        for m in [
            DirectionMode::Push,
            DirectionMode::Pull,
            DirectionMode::Adaptive,
        ] {
            assert_eq!(m.as_str().parse(), Ok(m));
            assert_eq!(m.to_string(), m.as_str());
        }
        assert!("sideways".parse::<DirectionMode>().is_err());
    }

    #[test]
    fn prefetch_builder() {
        let c = AsceticConfig::new(DeviceConfig::p100(1 << 20))
            .with_prefetch(PrefetchMode::NextFrontier);
        assert_eq!(c.prefetch, PrefetchMode::NextFrontier);
        let d = AsceticConfig::new(DeviceConfig::p100(1 << 20));
        assert_eq!(d.prefetch, PrefetchMode::Off, "prefetch is opt-in");
    }
}
