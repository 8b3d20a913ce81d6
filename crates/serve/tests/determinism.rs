//! Serve determinism: the same trace + policy + config must produce a
//! byte-identical serve report, across repeated runs and across host
//! thread counts. The virtual clock, the integer cost models and the
//! exact batched lanes make this possible; the serve JSON (schedule,
//! per-job times, output fingerprints, metrics) is the witness.

use ascetic_core::AsceticConfig;
use ascetic_graph::datasets::{Dataset, DatasetId};
use ascetic_graph::Csr;
use ascetic_par::set_num_threads;
use ascetic_serve::{serve, synthetic_mixed, Job, Policy, ServeConfig, ALL_POLICIES};
use ascetic_sim::DeviceConfig;

const SCALE: u64 = 30_000;

fn workload() -> (Csr, Csr, Vec<Job>) {
    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let g = ds.graph.clone();
    let w = ds.weighted();
    // bursty mixed arrivals so batching, deferral and variant switching
    // all actually happen on the schedule under test
    let jobs = synthetic_mixed(24, g.num_vertices(), 11, 400_000, 3);
    (g, w, jobs)
}

fn cfg_for(g: &Csr) -> AsceticConfig {
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    AsceticConfig::new(dev).with_chunk_bytes(1024)
}

fn serve_json(policy: Policy, g: &Csr, w: &Csr, jobs: &[Job]) -> String {
    serve(&ServeConfig::new(cfg_for(g), policy), g, Some(w), jobs)
        .expect("serve")
        .to_json()
}

#[test]
fn repeated_serves_are_byte_identical() {
    let (g, w, jobs) = workload();
    for policy in ALL_POLICIES {
        let a = serve_json(policy, &g, &w, &jobs);
        let b = serve_json(policy, &g, &w, &jobs);
        assert_eq!(a, b, "{} serve report not reproducible", policy.name());
    }
}

#[test]
fn thread_count_does_not_change_any_policy_schedule() {
    let (g, w, jobs) = workload();
    for policy in ALL_POLICIES {
        set_num_threads(1);
        let serial = serve_json(policy, &g, &w, &jobs);
        set_num_threads(8);
        let parallel = serve_json(policy, &g, &w, &jobs);
        set_num_threads(0);
        assert_eq!(
            serial,
            parallel,
            "{} serve report depends on host thread count",
            policy.name()
        );
    }
}

#[test]
fn policies_agree_on_answers_but_not_necessarily_on_schedules() {
    let (g, w, jobs) = workload();
    let reports: Vec<_> = ALL_POLICIES
        .iter()
        .map(|&p| serve(&ServeConfig::new(cfg_for(&g), p), &g, Some(&w), &jobs).expect("serve"))
        .collect();
    for r in &reports[1..] {
        assert_eq!(r.jobs.len(), reports[0].jobs.len());
        for (a, b) in reports[0].jobs.iter().zip(&r.jobs) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.output.fingerprint(),
                b.output.fingerprint(),
                "policy {} changed job {}'s answer",
                r.policy,
                a.id
            );
        }
    }
}
