//! The simulation performance baseline (experiment P1): event throughput
//! of a TUTMAC run and serial-vs-parallel wall-clock of the
//! fault-injection sweep, written to `BENCH_sim.json` so the repository
//! carries a recorded perf trajectory.
//!
//! The `repro bench` item runs this; `--quick` shortens the horizon and
//! enforces a generous events/sec floor so CI catches a gross (>5x)
//! throughput regression without being sensitive to machine noise.
//!
//! The sweep measurement clamps its worker count to the host's logical
//! CPUs: timing more workers than cores measures scheduler thrash, not
//! the algorithm (an earlier recording did exactly that —
//! `host.logical_cpus: 1` with `sweep.threads: 2` — and reported an
//! oversubscription artefact as a "speedup" of 0.877).

use std::time::Instant;

use tut_sim::{SimConfig, Simulation};
use tut_trace::{perf, Progress};

use crate::faultsweep;

/// Throughput of one timed TUTMAC simulation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EventRate {
    /// Simulated horizon of the run (ns).
    pub horizon_ns: u64,
    /// Log records the run produced.
    pub records: u64,
    /// Run-to-completion steps executed.
    pub steps: u64,
    /// Best wall-clock time over the measurement repeats (seconds).
    pub wall_s: f64,
}

impl EventRate {
    /// Log records produced per wall-clock second (the headline
    /// events/sec figure of experiment P1).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.records as f64 / self.wall_s
        }
    }
}

/// Wall-clock comparison of the serial and parallel fault sweep.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SweepTiming {
    /// Simulated horizon of each sweep point (ns).
    pub horizon_ns: u64,
    /// BER points per sweep.
    pub points: usize,
    /// Serial sweep wall-clock (seconds).
    pub serial_s: f64,
    /// Parallel sweep wall-clock (seconds).
    pub parallel_s: f64,
    /// Worker threads the parallel sweep actually used (clamped to the
    /// host's logical CPUs).
    pub threads: usize,
    /// Worker threads the caller asked for before clamping.
    pub requested_threads: usize,
    /// `Some("serial")` when the request oversubscribed the host and
    /// the sweep was served by the serial path instead.
    pub fallback: Option<&'static str>,
}

impl SweepTiming {
    /// Serial / parallel wall-clock ratio (>1 means the parallel sweep
    /// was faster).
    pub fn speedup(&self) -> f64 {
        if self.parallel_s <= 0.0 {
            0.0
        } else {
            self.serial_s / self.parallel_s
        }
    }

    /// True when the request exceeded the host and was clamped — the
    /// recorded figure then measures the host's real parallelism, not
    /// the (meaningless) oversubscribed timing.
    pub fn oversubscribed(&self) -> bool {
        self.requested_threads > self.threads
    }
}

/// The host the measurement ran on, recorded so `BENCH_sim.json` figures
/// can be compared across machines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HostInfo {
    /// Logical CPUs (`std::thread::available_parallelism`; 0 when the
    /// host cannot report it).
    pub logical_cpus: usize,
    /// Worker threads the parallel sweep was given.
    pub threads: usize,
}

impl HostInfo {
    /// Probes the current host; `threads` is the resolved worker count.
    pub fn probe(threads: usize) -> HostInfo {
        HostInfo {
            logical_cpus: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(0),
            threads,
        }
    }
}

/// The full P1 measurement.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BenchReport {
    /// TUTMAC event-throughput measurement.
    pub rate: EventRate,
    /// Fault-sweep wall-clock measurement (skipped in `--quick` mode).
    pub sweep: Option<SweepTiming>,
    /// The machine the figures were measured on.
    pub host: HostInfo,
}

/// Generous events/sec floor for `--quick` mode: an order of magnitude
/// below the measured release-build throughput on a single container
/// core, so only a >5x regression (the CI criterion) can trip it while
/// machine noise cannot.
pub const QUICK_FLOOR_EVENTS_PER_SEC: f64 = 50_000.0;

/// Times one TUTMAC simulation (build + run) and returns the best of
/// `repeats` wall-clock measurements.
///
/// # Panics
///
/// Panics if the simulation fails (covered by the tutmac tests).
pub fn measure_event_rate(horizon_ns: u64, repeats: usize) -> EventRate {
    measure_event_rate_observed(horizon_ns, repeats, &Progress::disabled())
}

/// [`measure_event_rate`] plus host observability: every repeat becomes a
/// `bench.repeat` self-profiler frame and ticks `progress`. The span
/// opens *outside* the timed region, so the reported wall-clock is
/// unaffected by profiling bookkeeping.
pub fn measure_event_rate_observed(
    horizon_ns: u64,
    repeats: usize,
    progress: &Progress,
) -> EventRate {
    let system = crate::paper_system();
    let mut best: Option<EventRate> = None;
    for _ in 0..repeats.max(1) {
        let _repeat_span = perf::enter_named("bench.repeat");
        let config = SimConfig::with_horizon_ns(horizon_ns);
        let started = Instant::now();
        let report = Simulation::from_system(&system, config)
            .expect("sim builds")
            .run()
            .expect("sim runs");
        let wall_s = started.elapsed().as_secs_f64();
        progress.tick();
        let rate = EventRate {
            horizon_ns,
            records: report.log.len() as u64,
            steps: report.total_steps,
            wall_s,
        };
        best = Some(match best {
            Some(b) if b.wall_s <= rate.wall_s => b,
            _ => rate,
        });
    }
    best.expect("at least one repeat ran")
}

/// Times the fault sweep serial and on `threads` workers
/// (`requested_threads` records the pre-clamp ask).
pub fn measure_sweep(horizon_ns: u64, threads: usize, requested_threads: usize) -> SweepTiming {
    measure_sweep_observed(
        horizon_ns,
        threads,
        requested_threads,
        &Progress::disabled(),
    )
}

/// [`measure_sweep`] with a progress heartbeat: the serial and parallel
/// passes each tick `progress` once per BER point.
pub fn measure_sweep_observed(
    horizon_ns: u64,
    threads: usize,
    requested_threads: usize,
    progress: &Progress,
) -> SweepTiming {
    let config = SimConfig::with_horizon_ns(horizon_ns);
    let started = Instant::now();
    let serial = faultsweep::run_sweep_observed(&config, 1, progress).expect("serial sweep");
    let serial_s = started.elapsed().as_secs_f64();
    // The parallel pass gets the raw request: an oversubscribed ask is
    // served by the sweep's own serial fallback, and that is what gets
    // timed and recorded.
    let fallback = faultsweep::sweep_falls_back_to_serial(requested_threads).then_some("serial");
    let started = Instant::now();
    let parallel = faultsweep::run_sweep_observed(&config, requested_threads, progress)
        .expect("parallel sweep");
    let parallel_s = started.elapsed().as_secs_f64();
    assert_eq!(parallel, serial, "parallel sweep must match serial");
    SweepTiming {
        horizon_ns,
        points: faultsweep::SWEEP_BERS.len(),
        serial_s,
        parallel_s,
        threads: if fallback.is_some() { 1 } else { threads },
        requested_threads,
        fallback,
    }
}

/// Work units [`run_bench`] ticks on a progress meter: throughput
/// repeats plus (full mode) both sweep passes' BER points.
pub fn bench_progress_total(quick: bool) -> u64 {
    if quick {
        3
    } else {
        5 + 2 * faultsweep::SWEEP_BERS.len() as u64
    }
}

/// Resolves the worker-thread budget for the sweep measurement:
/// `threads` as asked (0 = all cores, <=1 defaults to 2 so the parallel
/// sweep is exercised), clamped to the host's logical CPU count. The
/// second value is the pre-clamp request.
pub fn bench_workers(threads: usize) -> (usize, usize) {
    let logical = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let requested = tut_explore::parallel::resolve_threads(if threads <= 1 { 2 } else { threads });
    (requested.min(logical).max(1), requested)
}

/// Runs the P1 measurement. Quick mode uses a short horizon and skips
/// the sweep timing.
pub fn run_bench(quick: bool, threads: usize) -> BenchReport {
    run_bench_observed(quick, threads, &Progress::disabled())
}

/// [`run_bench`] plus host observability: repeats and sweep points tick
/// `progress` (size it with [`bench_progress_total`]), and each stage is
/// a self-profiler frame.
pub fn run_bench_observed(quick: bool, threads: usize, progress: &Progress) -> BenchReport {
    let (workers, requested) = bench_workers(threads);
    let host = HostInfo::probe(workers);
    if quick {
        BenchReport {
            rate: measure_event_rate_observed(5_000_000, 3, progress),
            sweep: None,
            host,
        }
    } else {
        BenchReport {
            rate: measure_event_rate_observed(20_000_000, 5, progress),
            sweep: Some(measure_sweep_observed(
                5_000_000, workers, requested, progress,
            )),
            host,
        }
    }
}

/// Renders the measurement as the `repro bench` console block.
pub fn render(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "host: {} logical cpus, {} worker threads\n",
        report.host.logical_cpus, report.host.threads,
    ));
    let r = &report.rate;
    out.push_str(&format!(
        "TUTMAC run: {} records / {} steps over {} ms simulated in {:.1} ms wall -> {:.0} events/sec\n",
        r.records,
        r.steps,
        r.horizon_ns / 1_000_000,
        r.wall_s * 1e3,
        r.events_per_sec(),
    ));
    if let Some(s) = &report.sweep {
        let clamp_note = if s.fallback.is_some() {
            format!(" (requested {}, serial fallback)", s.requested_threads)
        } else if s.oversubscribed() {
            format!(" (requested {}, clamped to host)", s.requested_threads)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "fault-sweep ({} points, {} ms horizon): serial {:.1} ms, {} threads{} {:.1} ms -> {:.2}x\n",
            s.points,
            s.horizon_ns / 1_000_000,
            s.serial_s * 1e3,
            s.threads,
            clamp_note,
            s.parallel_s * 1e3,
            s.speedup(),
        ));
    }
    out
}

/// Serialises the measurement as the `BENCH_sim.json` artefact
/// (hand-rolled JSON; the workspace has no serde).
pub fn to_json(report: &BenchReport) -> String {
    let r = &report.rate;
    let mut out = String::from("{\n  \"schema\": \"tut-bench/sim/v5\",\n");
    out.push_str(&format!(
        "  \"host\": {{\n    \"logical_cpus\": {},\n    \"threads\": {}\n  }},\n",
        report.host.logical_cpus, report.host.threads,
    ));
    out.push_str(&format!(
        "  \"tutmac\": {{\n    \"horizon_ns\": {},\n    \"records\": {},\n    \"steps\": {},\n    \"wall_s\": {:.6},\n    \"events_per_sec\": {:.1}\n  }}",
        r.horizon_ns,
        r.records,
        r.steps,
        r.wall_s,
        r.events_per_sec(),
    ));
    if let Some(s) = &report.sweep {
        let fallback = match s.fallback {
            Some(reason) => format!("\"{reason}\""),
            None => String::from("null"),
        };
        out.push_str(&format!(
            ",\n  \"sweep\": {{\n    \"horizon_ns\": {},\n    \"points\": {},\n    \"serial_s\": {:.6},\n    \"parallel_s\": {:.6},\n    \"threads\": {},\n    \"requested_threads\": {},\n    \"oversubscribed\": {},\n    \"fallback\": {},\n    \"speedup\": {:.3}\n  }}",
            s.horizon_ns,
            s.points,
            s.serial_s,
            s.parallel_s,
            s.threads,
            s.requested_threads,
            s.oversubscribed(),
            fallback,
            s.speedup(),
        ));
    }
    out.push_str(&format!(
        ",\n  \"quick_floor_events_per_sec\": {QUICK_FLOOR_EVENTS_PER_SEC:.1}\n}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            rate: EventRate {
                horizon_ns: 1_000_000,
                records: 10,
                steps: 5,
                wall_s: 0.001,
            },
            sweep: Some(SweepTiming {
                horizon_ns: 1_000_000,
                points: 5,
                serial_s: 0.5,
                parallel_s: 0.3,
                threads: 2,
                requested_threads: 4,
                fallback: None,
            }),
            host: HostInfo {
                logical_cpus: 8,
                threads: 2,
            },
        }
    }

    #[test]
    fn event_rate_arithmetic() {
        let r = EventRate {
            horizon_ns: 1_000_000,
            records: 500,
            steps: 100,
            wall_s: 0.25,
        };
        assert!((r.events_per_sec() - 2000.0).abs() < 1e-9);
        let zero = EventRate { wall_s: 0.0, ..r };
        assert_eq!(zero.events_per_sec(), 0.0);
    }

    #[test]
    fn sweep_speedup_and_clamp_flag() {
        let s = SweepTiming {
            horizon_ns: 1_000_000,
            points: 5,
            serial_s: 2.0,
            parallel_s: 1.0,
            threads: 2,
            requested_threads: 2,
            fallback: None,
        };
        assert!((s.speedup() - 2.0).abs() < 1e-12);
        assert!(!s.oversubscribed());
        let clamped = SweepTiming {
            threads: 1,
            requested_threads: 2,
            ..s
        };
        assert!(clamped.oversubscribed());
    }

    #[test]
    fn bench_workers_never_exceed_host_cpus() {
        let logical = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        for asked in [0, 1, 2, 64] {
            let (workers, requested) = bench_workers(asked);
            assert!(workers <= logical, "{workers} workers on {logical} cpus");
            assert!(workers >= 1);
            assert!(requested >= workers);
        }
        // The old bug: asking for 1 thread silently benchmarked 2 even
        // on a single-CPU host.
        let (workers, requested) = bench_workers(1);
        assert_eq!(requested, 2, "<=1 still requests 2 to exercise the path");
        assert!(workers <= logical);
    }

    #[test]
    fn json_shape_is_parseable() {
        let report = sample_report();
        let text = to_json(&report);
        let json = tut_trace::json::parse(&text).expect("valid JSON");
        assert_eq!(
            json.get("schema").and_then(tut_trace::json::Json::as_str),
            Some("tut-bench/sim/v5"),
        );
        assert!(json
            .get("tutmac")
            .and_then(|t| t.get("events_per_sec"))
            .and_then(tut_trace::json::Json::as_f64)
            .is_some());
        let sweep = json.get("sweep").expect("sweep block");
        assert_eq!(
            sweep.get("oversubscribed"),
            Some(&tut_trace::json::Json::Bool(true)),
        );
        assert_eq!(sweep.get("fallback"), Some(&tut_trace::json::Json::Null));
        assert_eq!(
            sweep
                .get("requested_threads")
                .and_then(tut_trace::json::Json::as_f64),
            Some(4.0),
        );
        assert_eq!(
            json.get("host")
                .and_then(|h| h.get("logical_cpus"))
                .and_then(tut_trace::json::Json::as_f64),
            Some(8.0),
        );
    }

    #[test]
    fn host_probe_reports_this_machine() {
        let host = HostInfo::probe(3);
        assert!(host.logical_cpus >= 1, "containers report >= 1 cpu");
        assert_eq!(host.threads, 3);
    }
}
