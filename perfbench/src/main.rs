//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figure2|fault-sweep|edit-check --seed N --seconds S --trace 0|1
//! ```
//!
//! One client issues one op at a time on one thread (a closed loop); the
//! workload's op sequence is replayed in rounds and each op's latency is
//! its fastest run (see `workloads`).
//! With `--trace 0` the last stdout line reports the end-to-end metrics
//! of an untraced run; with `--trace 1` it reports the per-layer metrics
//! of a traced run, whose spans are written to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`. The lines before it
//! give the run's provenance and the workload's exact-count digest.

mod edits;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::{Off, Spans};
use stats::{median, quantile};
use workloads::{Kind, Replay, Session, Workload};

/// Interleaved groups of session set-ups behind `setup_s`.
const SETUP_GROUPS: usize = 5;
/// Fewest rounds of one measured run.
const MIN_ROUNDS: u32 = 6;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let kind = kind.ok_or("--workload is required (figure2, fault-sweep, edit-check)")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Ordered `"name": value` JSON members.
#[derive(Default)]
struct Members(String);

impl Members {
    fn raw(&mut self, name: &str, value: impl std::fmt::Display) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{name}\":{value}");
        self
    }

    fn text(&mut self, name: &str, value: &str) -> &mut Self {
        self.raw(name, format_args!("\"{value}\""))
    }

    fn metric(&mut self, name: &str, value: f64, unit: &str) -> &mut Self {
        self.raw(
            name,
            format_args!("{{\"value\":{value},\"unit\":\"{unit}\"}}"),
        )
    }

    fn object(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let started = Instant::now();
    let session = workloads::session()?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];

    let provenance = Members::default()
        .text("revision", &stats::revision())
        .raw("nproc", stats::nproc())
        .raw("threads", 1)
        .text("workload", args.kind.name())
        .raw("seed", args.seed)
        .raw("seconds", args.seconds)
        .raw("trace", u8::from(args.trace))
        .raw("horizon_ns", args.kind.horizon_ns())
        .raw("round_ops", args.kind.round_ops())
        .text(
            "model_fp",
            &format!("{:016x}", tut_query::Fp::of_str(&session.xml).0),
        )
        .raw("model_bytes", session.xml.len())
        .object();
    println!("{{\"provenance\":{provenance}}}");

    let (digest_ops, counts, digest_failed) = workloads::digest(args.kind, &session, args.seed)?;
    let mut digest = Members::default();
    for (name, value) in &counts {
        digest.raw(name, value);
    }
    println!(
        "{{\"digest\":{{\"workload\":\"{}\",\"seed\":{},\"ops\":{digest_ops},\"counts\":{}}}}}",
        args.kind.name(),
        args.seed,
        digest.object()
    );

    let measured = match args.kind {
        Kind::Figure2 => {
            let w = workloads::Figure2::new(&session, args.seed);
            measure(w, &args, &session, &provenance, &mut setup_s)
        }
        Kind::FaultSweep => {
            let w = workloads::FaultSweep::new(args.seed);
            measure(w, &args, &session, &provenance, &mut setup_s)
        }
        Kind::EditCheck => {
            let w = workloads::EditCheck::new(&session.xml, args.seed)?;
            measure(w, &args, &session, &provenance, &mut setup_s)
        }
    }?;

    let attempted = digest_ops + measured.attempted;
    let failed = digest_failed + measured.failed;
    let mut metrics = Members::default();
    if !args.trace {
        metrics.metric("setup_s", setup_seconds(&setup_s), "s");
    }
    for (name, value, unit) in measured.metrics {
        metrics.metric(&name, value, unit);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics.object()
    );
    Ok(())
}

/// The median over [`SETUP_GROUPS`] interleaved groups of set-ups of each
/// group's fastest: set-ups run between rounds, so every group spans the
/// whole run.
fn setup_seconds(samples: &[f64]) -> f64 {
    let mut best: Vec<f64> = (0..SETUP_GROUPS.min(samples.len()))
        .map(|g| {
            samples
                .iter()
                .skip(g)
                .step_by(SETUP_GROUPS)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    median(&mut best)
}

struct Measured {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Replays the workload for `--seconds`: untraced for the end-to-end
/// metrics, with a session set-up timed after every round into
/// `setup_s`; or traced for the per-layer metrics, plus census ops of
/// the other workloads from `session`, writing the spans after a
/// `provenance` header line.
fn measure<W: Workload>(
    mut w: W,
    args: &Args,
    session: &Session,
    provenance: &str,
    setup_s: &mut Vec<f64>,
) -> Result<Measured, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let ops = args.kind.round_ops();
    let mut replay = Replay::new(ops);
    let started = Instant::now();
    let more = |replay: &Replay<W>| replay.rounds() < MIN_ROUNDS || started.elapsed() < budget;
    if !args.trace {
        let mut rounds = Vec::new();
        while more(&replay) {
            rounds.push(replay.round(&mut w, &mut Off)?);
            let started = Instant::now();
            workloads::session()?;
            setup_s.push(started.elapsed().as_secs_f64());
        }
        let peak = stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        let mut best = workloads::best_ms(&rounds);
        let total_s: f64 = best.iter().sum::<f64>() / 1e3;
        return Ok(Measured {
            attempted: replay.attempted,
            failed: replay.failed,
            metrics: vec![
                ("ops_per_s".into(), best.len() as f64 / total_s, "1/s"),
                ("op_ms_p50".into(), median(&mut best), "ms"),
                ("op_ms_p90".into(), quantile(&mut best, 0.9), "ms"),
                ("peak_rss_mb".into(), peak, "MB"),
            ],
        });
    }

    // Traced and untraced rounds alternate, so both see the same host.
    let mut t = Spans::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while more(&replay) {
        untraced.push(replay.round(&mut w, &mut Off)?);
        traced.push(replay.round(&mut w, &mut t)?);
    }
    let (census_attempted, census_failed) =
        workloads::census(args.kind, session, args.seed, &mut t)?;

    let layers = t.layer_stats();
    let mut metrics = Vec::new();
    for span in LAYER_SPANS {
        let value = layers
            .self_ms
            .get(span)
            .ok_or(format!("no span `{span}` was recorded"))?;
        metrics.push((format!("{span}.ms"), *value, "ms"));
    }
    for (name, unit) in LAYER_COUNTS {
        let value = layers
            .counts
            .get(name)
            .ok_or(format!("no count `{name}` was recorded"))?;
        metrics.push((name.to_string(), *value, unit));
    }
    let ns_per_record = t
        .ns_per("sim.run", "sim.records")
        .ok_or("no simulation run was traced")?;
    metrics.push(("sim.run.ns_per_record".into(), ns_per_record, "ns"));
    let untraced_p50 = median(&mut workloads::best_ms(&untraced));
    let traced_p50 = median(&mut workloads::best_ms(&traced));
    metrics.push(("trace.untraced_op_ms_p50".into(), untraced_p50, "ms"));
    metrics.push(("trace.traced_op_ms_p50".into(), traced_p50, "ms"));
    metrics.push((
        "trace.overhead_pct".into(),
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "%",
    ));

    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.jsonl", args.kind.name(), args.seed));
    std::fs::write(&path, t.to_jsonl(provenance))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("[perfbench] spans written to {}", path.display());

    Ok(Measured {
        attempted: replay.attempted + census_attempted,
        failed: replay.failed + census_failed,
        metrics,
    })
}

/// Spans whose per-op self time is a per-layer metric (`<span>.ms`).
const LAYER_SPANS: [&str; 13] = [
    "tutmac.build",
    "tutprofile.from_xml",
    "tutprofile.to_xml",
    "profiling.parse_model_xml",
    "check.check_source",
    "incremental.check",
    "codegen.generate_project",
    "sim.from_system",
    "sim.run",
    "profiling.analyze_log",
    "profiling.render_table4",
    "explore.partition",
    "explore.optimise_mapping",
];

/// Per-layer counts (median per op): (name, unit).
const LAYER_COUNTS: [(&str, &str); 12] = [
    ("tutprofile.xml_bytes", "B"),
    ("codegen.c_lines", "count"),
    ("sim.records", "count"),
    ("sim.steps", "count"),
    ("faults.corrupted", "count"),
    ("tutmac.arq_retries", "count"),
    ("profiling.group1_cycles", "count"),
    ("explore.cut_weight", "count"),
    ("query.hits", "count"),
    ("query.misses", "count"),
    ("query.recomputes", "count"),
    ("query.memo_len", "count"),
];
