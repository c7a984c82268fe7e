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
use tut_sim::{RecordRef, SimConfig, SimReport, Simulation};
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

/// Records that share their timestamp with the record before them, and
/// the subset that are run-to-completion steps following an earlier step
/// at the same instant. The engine runs one step per popped event, so
/// every record of the second kind is an event whose place among
/// same-time events came from the `(time, seq)` tie-break.
fn same_instant(report: &SimReport) -> (usize, usize) {
    let mut records = 0;
    let mut steps = 0;
    let mut prev_time = None;
    let mut last_step_time = None;
    for record in report.log.iter() {
        let time = record.time_ns();
        if prev_time == Some(time) {
            records += 1;
        }
        if matches!(record, RecordRef::Exec { .. }) {
            if last_step_time == Some(time) {
                steps += 1;
            }
            last_step_time = Some(time);
        }
        prev_time = Some(time);
    }
    (records, steps)
}

/// The log-fingerprint pin of the fault-free run only guards the event
/// order if the run actually has same-instant events to order.
#[test]
fn fault_free_200ms_log_has_same_instant_ties() {
    let report = run(FaultConfig::default());
    assert_eq!(same_instant(&report), (3_554, 135));
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
