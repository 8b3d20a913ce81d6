//! GPU-memory partition-ratio math (paper §3.3, Equations (1)–(3)).
//!
//! Let `K` be the fraction of edges active per iteration, `M` the edge
//! budget of GPU memory, `D` the dataset size, `M_static` the static-region
//! size. To avoid fragmenting the on-demand data, Eq (1) requires
//!
//! ```text
//! (D − M_static) · K + M_static ≤ M                                   (1)
//! ```
//!
//! which, maximized for the static share `R = M_static / M`, gives
//!
//! ```text
//! R = (1 − K·D/M) / (1 − K)                                           (2)
//! ```
//!
//! At runtime, after the data map is generated, if the on-demand volume
//! `V_ondemand` overflows the on-demand region while the static region is
//! under-used (`V_static/M_static < 0.5 · V/D`), the static region shrinks
//! by `M_static · V/D` (Eq (3)) and the maps are regenerated. Under-use is
//! judged on the whole runs completed since the region last changed size,
//! not on one iteration ([`RegionEvidence`]).

/// Static-region share per Eq (2), clamped to `[0, 1]`.
///
/// * `k` — expected active-edge fraction (paper default 0.10),
/// * `dataset_bytes` — `D`,
/// * `mem_bytes` — `M` (edge budget after vertex arrays).
///
/// When the dataset fits entirely (`D ≤ M`) the share is capped so that
/// `M_static = D` (pinning more than the dataset is pointless).
pub fn static_share(k: f64, dataset_bytes: u64, mem_bytes: u64) -> f64 {
    assert!((0.0..1.0).contains(&k), "K must be in [0, 1)");
    assert!(mem_bytes > 0, "empty memory budget");
    let d = dataset_bytes as f64;
    let m = mem_bytes as f64;
    if d <= m {
        return (d / m).min(1.0);
    }
    let r = (1.0 - k * d / m) / (1.0 - k);
    r.clamp(0.0, 1.0)
}

/// Eq (1) feasibility check: does a static region of `m_static` bytes leave
/// enough on-demand room for `k · (D − M_static)` without fragmenting?
pub fn satisfies_eq1(k: f64, dataset_bytes: u64, mem_bytes: u64, m_static: u64) -> bool {
    let spill = (dataset_bytes.saturating_sub(m_static)) as f64 * k;
    spill + m_static as f64 <= mem_bytes as f64 + 0.5
}

/// Decision of the Eq (3) adaptive re-partitioning check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repartition {
    /// Keep the current split.
    Keep,
    /// Keep the current split although this iteration, judged alone as the
    /// paper does, would have shrunk the region: the whole runs completed
    /// since the region last changed size do not show it under-used.
    Declined,
    /// Shrink the static region (grow on-demand).
    Shrink(Shrink),
}

/// An Eq (3) shrink and the evidence that fired it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shrink {
    /// Bytes to take from the static region: `M_static · V/D`.
    pub bytes: u64,
    /// Share of all accessed bytes the static region served over the runs
    /// completed since it last changed size (`Σv_static/ΣV`), parts per
    /// million.
    pub static_share_ppm: u32,
    /// Share of the dataset the static region holds (`M_static/D`), parts
    /// per million; the rule fires below half of it.
    pub region_share_ppm: u32,
    /// Bytes by which this iteration's on-demand volume overflowed the
    /// on-demand region.
    pub overflow_bytes: u64,
}

/// Eq (3) judged on accumulated evidence (`DESIGN.md` §19).
///
/// The paper evaluates the rule on one iteration's data map. Its shrink is
/// irreversible, and a session outlives any one frontier: a single sparse
/// iteration that happens to miss the region would give away memory that
/// served every iteration before it and would serve every run after. So
/// the overflow test and the shrink amount stay per-iteration, but "the
/// static region is under-used" is judged on the volumes of the *whole
/// runs* completed since the region last changed size (session start or
/// the previous shrink): `Σv_static/ΣV < 0.5 · M_static/D` — the paper's
/// `V_static/M_static < 0.5 · V/D` rearranged, over sums.
///
/// Whole runs, because a traversal's frontier sweeps the graph: any prefix
/// of a run is a biased sample of what the region serves (an MS-SSSP's
/// first dense iterations read 25 % from a region that serves 77 % of the
/// run), and a shrink judged on one re-arms the same misjudgment on the
/// next iteration. And the runs must have moved at least the region's own
/// size, or nothing has been learnt about it. A one-shot run therefore
/// never re-partitions — the paper reports none at its defaults either.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionEvidence {
    // completed runs since the region last changed size
    v_static: u64,
    v_total: u64,
    // the run in progress
    run_static: u64,
    run_total: u64,
}

impl RegionEvidence {
    /// Note one iteration's volumes and evaluate Eq (3) for it. A shrink
    /// verdict resets the evidence: the smaller region is judged on what
    /// *it* serves.
    ///
    /// * `v_ondemand` — bytes the on-demand region must receive this iteration,
    /// * `v_static` — bytes of static-region data accessed this iteration,
    /// * `v_total` — all bytes accessed this iteration (`V`),
    /// * `m_static` / `m_ondemand` — current region sizes,
    /// * `dataset_bytes` — `D`.
    pub fn check(
        &mut self,
        v_ondemand: u64,
        v_static: u64,
        v_total: u64,
        m_static: u64,
        m_ondemand: u64,
        dataset_bytes: u64,
    ) -> Repartition {
        self.run_static += v_static;
        self.run_total += v_total;
        if m_static == 0 || dataset_bytes == 0 || v_ondemand <= m_ondemand {
            return Repartition::Keep;
        }
        // "Vstatic/Mstatic < 0.5 × V/D" — static region significantly
        // under-utilized relative to the overall touch rate.
        let region_share = m_static as f64 / dataset_bytes as f64;
        let share = |v_static: u64, v_total: u64| v_static as f64 / v_total.max(1) as f64;
        let seen_share = share(self.v_static, self.v_total);
        if self.v_total < m_static || seen_share >= 0.5 * region_share {
            return if share(v_static, v_total) < 0.5 * region_share {
                Repartition::Declined
            } else {
                Repartition::Keep
            };
        }
        // Shrink by Mstatic × V/D (Eq (3)), at least one byte, at most all.
        let touch_rate = v_total as f64 / dataset_bytes as f64;
        let shrink = Shrink {
            bytes: ((m_static as f64 * touch_rate) as u64).clamp(1, m_static),
            static_share_ppm: (seen_share * 1e6) as u32,
            region_share_ppm: (region_share * 1e6) as u32,
            overflow_bytes: v_ondemand - m_ondemand,
        };
        *self = RegionEvidence::default();
        Repartition::Shrink(shrink)
    }

    /// The frontier drained: the run's volumes become evidence.
    pub fn end_run(&mut self) {
        self.v_static += std::mem::take(&mut self.run_static);
        self.v_total += std::mem::take(&mut self.run_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_configuration() {
        // K=10%, D twice the memory: R = (1 - 0.1*2) / 0.9 = 0.888...
        let r = static_share(0.10, 2_000, 1_000);
        assert!((r - 0.888_888).abs() < 1e-3, "r={r}");
        // the chosen split satisfies Eq (1)
        let m_static = (r * 1_000.0) as u64;
        assert!(satisfies_eq1(0.10, 2_000, 1_000, m_static));
        // but a slightly bigger static region violates it
        assert!(!satisfies_eq1(0.10, 2_000, 1_000, m_static + 30));
    }

    #[test]
    fn dataset_fits_entirely() {
        // D=800, M=1000: pin exactly the dataset (share 0.8).
        let r = static_share(0.10, 800, 1_000);
        assert!((r - 0.8).abs() < 1e-9);
    }

    #[test]
    fn huge_dataset_forces_zero_static() {
        // K·D/M >= 1 → no static region can satisfy Eq (1).
        let r = static_share(0.10, 20_000, 1_000);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn k_zero_pins_everything() {
        let r = static_share(0.0, 5_000, 1_000);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn share_monotone_decreasing_in_k() {
        let d = 3_000;
        let m = 1_000;
        let mut last = f64::INFINITY;
        for k in [0.01, 0.05, 0.1, 0.2, 0.3] {
            let r = static_share(k, d, m);
            assert!(r <= last, "share must shrink as K grows");
            last = r;
        }
    }

    /// Evidence of one completed run that moved `v_total` bytes, `v_static`
    /// of them from the static region, without ever overflowing.
    fn after_a_run(v_static: u64, v_total: u64) -> RegionEvidence {
        let mut ev = RegionEvidence::default();
        assert_eq!(
            ev.check(0, v_static, v_total, 800, 500, 10_000),
            Repartition::Keep
        );
        ev.end_run();
        ev
    }

    fn shrink_bytes(r: Repartition) -> u64 {
        match r {
            Repartition::Shrink(s) => s.bytes,
            other => panic!("expected a shrink, got {other:?}"),
        }
    }

    #[test]
    fn repartition_triggers_only_on_overflow_and_underuse() {
        // a run served 1 % from a region holding 8 %: the next overflow
        // shrinks by 800 * 0.1
        let r = after_a_run(10, 1_000).check(600, 10, 1_000, 800, 500, 10_000);
        assert_eq!(
            r,
            Repartition::Shrink(Shrink {
                bytes: 80,
                static_share_ppm: 10_000,
                region_share_ppm: 80_000,
                overflow_bytes: 100,
            })
        );
        // overflow but static well-used -> keep
        let r = after_a_run(700, 1_000).check(600, 700, 1_000, 800, 500, 10_000);
        assert_eq!(r, Repartition::Keep);
        // no overflow -> keep
        let r = after_a_run(10, 1_000).check(100, 10, 1_000, 800, 500, 10_000);
        assert_eq!(r, Repartition::Keep);
    }

    #[test]
    fn repartition_shrink_is_bounded() {
        // touch rate ~ 1.0: shrink everything but never more than m_static
        let s = shrink_bytes(after_a_run(0, 1_000).check(600, 0, 10_000, 800, 500, 10_000));
        assert!((1..=800).contains(&s));
    }

    #[test]
    fn repartition_degenerate_inputs() {
        let mut ev = after_a_run(0, 1_000);
        assert_eq!(ev.check(1, 0, 1, 0, 0, 100), Repartition::Keep);
        assert_eq!(ev.check(1, 0, 1, 10, 0, 0), Repartition::Keep);
    }

    #[test]
    fn a_run_in_progress_is_not_evidence() {
        // a traversal's first iterations miss the region entirely and
        // overflow: the paper's one-iteration rule would shrink on each,
        // but a prefix of a run says nothing about what the region serves
        let mut ev = RegionEvidence::default();
        for _ in 0..10 {
            assert_eq!(
                ev.check(600, 0, 1_000, 800, 500, 10_000),
                Repartition::Declined
            );
        }
        // the rest of the run reads mostly from the region
        for _ in 0..90 {
            assert_eq!(
                ev.check(300, 700, 1_000, 800, 500, 10_000),
                Repartition::Keep
            );
        }
        ev.end_run();
        // the next run opens the same way, against a 63 % history
        assert_eq!(
            ev.check(600, 0, 1_000, 800, 500, 10_000),
            Repartition::Declined
        );
    }

    #[test]
    fn runs_smaller_than_the_region_are_not_evidence() {
        // 500 bytes moved, none from an 800-byte region: nothing learnt
        let mut ev = after_a_run(0, 500);
        assert_eq!(
            ev.check(600, 0, 200, 800, 500, 10_000),
            Repartition::Declined
        );
        ev.end_run();
        // 700 by now; one more small run crosses the region's size
        assert_eq!(
            ev.check(600, 0, 200, 800, 500, 10_000),
            Repartition::Declined
        );
        ev.end_run();
        assert_eq!(shrink_bytes(ev.check(600, 0, 1_000, 800, 500, 10_000)), 80);
    }

    #[test]
    fn persistent_underuse_shrinks_once_per_run() {
        // 3 % served from a region holding 8 % of the data, run after run
        let mut ev = after_a_run(300, 10_000);
        assert_eq!(shrink_bytes(ev.check(600, 30, 1_000, 800, 500, 10_000)), 80);
        // the evidence resets with the size: the smaller region is judged
        // on what it serves, which takes a whole run to learn
        assert_eq!(ev, RegionEvidence::default());
        assert_eq!(
            ev.check(600, 30, 1_000, 720, 580, 10_000),
            Repartition::Declined
        );
        ev.end_run();
        assert_eq!(shrink_bytes(ev.check(600, 30, 1_000, 720, 580, 10_000)), 72);
    }

    #[test]
    #[should_panic(expected = "K must be")]
    fn rejects_k_one() {
        static_share(1.0, 100, 100);
    }
}
