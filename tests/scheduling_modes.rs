//! Integration tests: scheduling-policy and execution-mode ablations (the
//! Fig. 7 / Fig. 8 axes) must never change query answers, only performance.

use quokka::{results_match, EngineConfig, QuokkaSession, SchedulePolicy};

fn session() -> QuokkaSession {
    QuokkaSession::tpch(0.002, 3).expect("generate TPC-H data")
}

#[test]
fn dynamic_and_static_batching_agree() {
    let session = session();
    for &q in &[3usize, 5, 12] {
        let plan = quokka::tpch::query(q).unwrap();
        let reference = session.run_reference(&plan).unwrap();
        for policy in [
            SchedulePolicy::dynamic(),
            SchedulePolicy::StaticBatch { batch: 2 },
            SchedulePolicy::StaticBatch { batch: 8 },
        ] {
            let config = EngineConfig::quokka(3).with_schedule(policy);
            let outcome = session.run_with(&plan, &config).unwrap();
            assert!(
                results_match(&reference, &outcome.batch),
                "Q{q} diverged under policy {policy:?}"
            );
        }
    }
}

#[test]
fn static_batching_still_processes_every_partition() {
    let session = session();
    let plan = quokka::tpch::query(6).unwrap();
    let reference = session.run_reference(&plan).unwrap();
    let config = EngineConfig::quokka(2).with_schedule(SchedulePolicy::StaticBatch { batch: 128 });
    let outcome = session.run_with(&plan, &config).unwrap();
    assert!(results_match(&reference, &outcome.batch));
}

#[test]
fn more_channels_than_workers_is_supported() {
    let session = session();
    let plan = quokka::tpch::query(4).unwrap();
    let reference = session.run_reference(&plan).unwrap();
    let config = EngineConfig::quokka(2).with_channels_per_stage(5);
    let outcome = session.run_with(&plan, &config).unwrap();
    assert!(results_match(&reference, &outcome.batch));
}

#[test]
fn single_worker_cluster_works() {
    let session = session();
    let plan = quokka::tpch::query(1).unwrap();
    let reference = session.run_reference(&plan).unwrap();
    let outcome = session.run_with(&plan, &EngineConfig::quokka(1)).unwrap();
    assert!(results_match(&reference, &outcome.batch));
}
