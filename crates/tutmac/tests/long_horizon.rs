//! Long-horizon regression pins for the TUTMAC case study.
//!
//! Under the default load the MAC is saturated: `frag`'s length-prefixed
//! backlog grows with simulated time, so a 200 ms run exercises the
//! action-language interpreter on buffers hundreds of kilobytes long.
//! These tests pin what such a run produces — record and step counts,
//! the ARQ counters, the injected-fault tally and a fingerprint of the
//! whole log-file text — so any change to evaluation (copy-free reads,
//! in-place buffer updates) must leave the simulated behaviour
//! byte-identical.

use tut_faults::{FaultConfig, FaultPlan};
use tut_query::Fp;
use tut_sim::{SimConfig, SimReport, Simulation};
use tut_trace::NoopSink;
use tutmac::{build_tutmac_system, TutmacConfig};

const HORIZON_NS: u64 = 200_000_000;

/// The exact-count summary of one run.
#[derive(PartialEq, Eq, Debug)]
struct Pin {
    records: usize,
    steps: u64,
    end_time_ns: u64,
    arq_tx: i64,
    arq_acked: i64,
    arq_retries: i64,
    arq_gave_up: i64,
    corrupted: u64,
    log_fp: u64,
}

fn pin(report: &SimReport) -> Pin {
    Pin {
        records: report.log.len(),
        steps: report.total_steps,
        end_time_ns: report.end_time_ns,
        arq_tx: report.counter_total("arq.tx"),
        arq_acked: report.counter_total("arq.acked"),
        arq_retries: report.counter_total("arq.retries"),
        arq_gave_up: report.counter_total("arq.gave_up"),
        corrupted: report.faults.corrupted,
        log_fp: Fp::of_str(&report.log.to_text()).0,
    }
}

fn run(fault_config: FaultConfig) -> SimReport {
    let system = build_tutmac_system(&TutmacConfig::default()).expect("tutmac builds");
    let mut plan = FaultPlan::new(fault_config);
    Simulation::from_system(&system, SimConfig::with_horizon_ns(HORIZON_NS))
        .expect("sim builds")
        .run_with_faults(&mut plan, &mut NoopSink)
        .expect("sim runs")
}

#[test]
fn fault_free_200ms_run_is_pinned() {
    let got = pin(&run(FaultConfig::default()));
    assert_eq!(
        got,
        Pin {
            records: 13_546,
            steps: 6_141,
            end_time_ns: HORIZON_NS,
            arq_tx: 829,
            arq_acked: 828,
            arq_retries: 118,
            arq_gave_up: 0,
            corrupted: 0,
            log_fp: 0xa1d3a990274b0db9,
        }
    );
}

#[test]
fn ber_1e4_200ms_run_is_pinned() {
    let got = pin(&run(FaultConfig::with_ber(0x5EED_0013, 1e-4)));
    assert_eq!(
        got,
        Pin {
            records: 6_780,
            steps: 3_062,
            end_time_ns: HORIZON_NS,
            arq_tx: 201,
            arq_acked: 158,
            arq_retries: 191,
            arq_gave_up: 42,
            corrupted: 292,
            log_fp: 0xa5729f11b951827a,
        }
    );
}
