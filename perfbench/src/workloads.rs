//! The session set-up and the three workloads.
//!
//! Each workload is a fixed op sequence derived from the workload seed,
//! replayed in rounds from the same starting state. An op calls the
//! layers' public functions in order. Outside the timed region, the
//! first round's outputs are checked by the workload's oracle and every
//! later round's must equal the first's; a wrong output counts as a
//! failed op. An op's latency is its fastest run over the rounds: the
//! shared host alternates between quiet stretches and stretches where
//! every op runs about 1.5x slower, and the fastest of runs spread over
//! the whole measurement is what stays put from one run to the next.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

use tut_bench::check::check_source;
use tut_bench::faultsweep::{self, SweepPoint, SWEEP_BERS};
use tut_bench::incremental::{CheckOutcome, Checker};
use tut_codegen::generate_project;
use tut_explore::mapping::problem_from_system;
use tut_explore::{optimise_mapping, partition, CommGraph, GroupingOptions, MappingOptions};
use tut_faults::{FaultConfig, FaultPlan};
use tut_profile::platform::ComponentKind;
use tut_profile::SystemModel;
use tut_profiling::groups::parse_model_xml;
use tut_profiling::{analyze::analyze_log, render_table4, ProfilingReport};
use tut_sim::{SimConfig, Simulation};
use tut_trace::{NoopSink, SplitMix64};
use tutmac::TutmacConfig;

use crate::edits::EditStream;
use crate::spans::{Spans, Tracer};

/// Source name the documents are checked under.
pub const DOC: &str = "paper-system.xml";
/// The paper's Table 4 horizon (Figure 2 loop).
pub const FIGURE2_HORIZON_NS: u64 = 20_000_000;
/// Horizon of one fault-sweep point.
pub const SWEEP_HORIZON_NS: u64 = 200_000_000;
/// Generations the warm checker keeps, as `repro watch` does.
pub const KEEP_GENERATIONS: u64 = 16;

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Figure2,
    FaultSweep,
    EditCheck,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Figure2, Kind::FaultSweep, Kind::EditCheck];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Figure2 => "figure2",
            Kind::FaultSweep => "fault-sweep",
            Kind::EditCheck => "edit-check",
        }
    }

    pub fn horizon_ns(self) -> u64 {
        match self {
            Kind::Figure2 => FIGURE2_HORIZON_NS,
            Kind::FaultSweep => SWEEP_HORIZON_NS,
            Kind::EditCheck => 0,
        }
    }

    /// Ops in one round: about a quarter to half a second of work, so a
    /// run holds dozens of rounds.
    pub fn round_ops(self) -> u64 {
        match self {
            Kind::Figure2 => 20,
            Kind::FaultSweep => 5 * SWEEP_BERS.len() as u64,
            Kind::EditCheck => 500,
        }
    }

    /// Ops whose exact counts form the digest: one full cycle of the
    /// workload's inputs.
    fn digest_ops(self) -> u64 {
        match self {
            Kind::Figure2 => 1,
            Kind::FaultSweep => SWEEP_BERS.len() as u64,
            Kind::EditCheck => 32,
        }
    }

    /// Ops a traced run of another workload spends on this one, to
    /// measure layers that workload never calls.
    fn census_ops(self) -> u64 {
        match self {
            Kind::Figure2 => 5,
            Kind::FaultSweep => SWEEP_BERS.len() as u64,
            Kind::EditCheck => 64,
        }
    }
}

/// What a designer has once a session is set up.
pub struct Session {
    pub xml: String,
    pub reference: ProfilingReport,
}

/// Sets up a session, paying what a designer pays before the first
/// result: build the model, serialise it, prime a warm checker with the
/// first full check, and run the reference profile that feeds
/// exploration.
pub fn session() -> Result<Session, String> {
    let system =
        tutmac::build_tutmac_system(&TutmacConfig::default()).map_err(|e| e.to_string())?;
    let xml = system.to_xml();
    primed_checker(&xml)?;
    let reference =
        tut_profiling::profile_system(&system, SimConfig::with_horizon_ns(FIGURE2_HORIZON_NS))
            .map_err(|e| e.to_string())?;
    Ok(Session { xml, reference })
}

fn primed_checker(xml: &str) -> Result<Checker, String> {
    let mut checker = Checker::new();
    let first = checker.check(DOC, xml);
    if first.has_errors {
        return Err(format!(
            "the case-study model does not check clean:\n{}",
            first.text
        ));
    }
    Ok(checker)
}

/// One workload: an op sequence plus its oracle.
pub trait Workload {
    type Out: PartialEq + Debug;
    /// Returns to the state before op 0, outside the timed region.
    fn reset(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Makes op `op`'s input, outside the timed region.
    fn prepare(&mut self, _op: u64) {}
    /// The timed op.
    fn op<T: Tracer>(&mut self, op: u64, t: &mut T) -> Result<Self::Out, String>;
    /// Checks a first-round output outside the timed region; returns how
    /// many ops were found wrong (a workload may check in batches).
    fn check(&mut self, op: u64, out: &Self::Out) -> u64;
    /// Checks what is still pending; returns the ops found wrong.
    fn finish(&mut self) -> u64 {
        0
    }
}

/// Replays a workload's op sequence, one round per call, checking every
/// output: the first round's through the workload's oracle, later ones
/// against the first round's.
pub struct Replay<W: Workload> {
    ops: u64,
    first: Vec<Option<W::Out>>,
    rounds: u32,
    pub attempted: u64,
    pub failed: u64,
}

impl<W: Workload> Replay<W> {
    pub fn new(ops: u64) -> Replay<W> {
        Replay {
            ops,
            first: Vec::with_capacity(ops as usize),
            rounds: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Runs one round from the starting state; returns each op's latency
    /// in milliseconds.
    pub fn round<T: Tracer>(&mut self, w: &mut W, t: &mut T) -> Result<Vec<f64>, String> {
        let round = self.rounds;
        self.rounds += 1;
        w.reset()?;
        let mut lat_ms = Vec::with_capacity(self.ops as usize);
        for op in 0..self.ops {
            w.prepare(op);
            t.set_op(round, op);
            let t0 = Instant::now();
            let out = t.span("op", |t| w.op(op, t));
            lat_ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
            self.attempted += 1;
            let out = out.map_err(|e| eprintln!("[perfbench] round {round} op {op} failed: {e}"));
            let wrong = if round == 0 {
                let wrong = out.as_ref().map_or(1, |out| w.check(op, out));
                self.first.push(out.ok());
                wrong
            } else {
                let expected = self.first[op as usize].as_ref();
                if out.as_ref().ok() != expected {
                    eprintln!("[perfbench] round {round} op {op}: {out:?} differs from round 0: {expected:?}");
                }
                u64::from(out.as_ref().ok() != expected)
            };
            self.failed += wrong;
        }
        self.failed += w.finish();
        Ok(lat_ms)
    }
}

/// Each op's fastest run over `rounds` (`rounds[round][op]`).
pub fn best_ms(rounds: &[Vec<f64>]) -> Vec<f64> {
    let mut best = rounds[0].clone();
    for round in &rounds[1..] {
        for (b, &l) in best.iter_mut().zip(round) {
            *b = b.min(l);
        }
    }
    best
}

/// Profiles `system`: through `profile_system` (or its fault-injecting
/// twin) when untraced, and through its constituents, in the order
/// `profile_system_prof` calls them, when traced.
fn profile<T: Tracer>(
    system: &SystemModel,
    config: SimConfig,
    faults: Option<&mut FaultPlan>,
    t: &mut T,
) -> Result<ProfilingReport, String> {
    if !t.on() {
        return match faults {
            None => tut_profiling::profile_system(system, config),
            Some(plan) => {
                tut_profiling::profile_system_with_faults(system, config, plan, &mut NoopSink)
            }
        }
        .map_err(|e| e.to_string());
    }
    t.span("profiling.profile_system", |t| {
        let xml = t.span("tutprofile.to_xml", |_| system.to_xml());
        t.count("tutprofile.xml_bytes", xml.len() as u64);
        let groups = t
            .span("profiling.parse_model_xml", |_| parse_model_xml(&xml))
            .map_err(|e| e.to_string())?;
        let sim = t
            .span("sim.from_system", |_| {
                Simulation::from_system(system, config)
            })
            .map_err(|e| e.to_string())?;
        let report = t
            .span("sim.run", |_| match faults {
                None => sim.run(),
                Some(plan) => sim.run_with_faults(plan, &mut NoopSink),
            })
            .map_err(|e| e.to_string())?;
        t.count("sim.records", report.log.len() as u64);
        t.count("sim.steps", report.total_steps);
        Ok(t.span("profiling.analyze_log", |_| {
            analyze_log(&groups, &report.log)
        }))
    })
}

fn group_cycles(report: &ProfilingReport, group: &str) -> u64 {
    report.group(group).map_or(0, |g| g.cycles)
}

/// `figure2`: one designer iteration of Figure 2 and §4.5 — model XML →
/// model → cold check → code generation → profiling → Table 4 →
/// grouping → mapping.
pub struct Figure2 {
    xml: String,
    group1_cycles: u64,
    grouping_seed: u64,
    first: Option<(u64, Vec<usize>)>,
}

#[derive(PartialEq, Debug)]
pub struct Figure2Out {
    check_errors: bool,
    files: usize,
    proportions: [f64; 5],
    group1_cycles: u64,
    table_rows: usize,
    cut_weight: u64,
    assignment: Vec<usize>,
}

impl Figure2 {
    pub fn new(session: &Session, seed: u64) -> Figure2 {
        Figure2 {
            xml: session.xml.clone(),
            group1_cycles: group_cycles(&session.reference, "group1"),
            grouping_seed: SplitMix64::new(seed).next_u64(),
            first: None,
        }
    }
}

impl Workload for Figure2 {
    type Out = Figure2Out;

    fn op<T: Tracer>(&mut self, _op: u64, t: &mut T) -> Result<Figure2Out, String> {
        let model = t
            .span("tutprofile.from_xml", |_| SystemModel::from_xml(&self.xml))
            .map_err(|e| e.to_string())?;
        let check = t.span("check.check_source", |_| check_source(DOC, &self.xml));
        let files = t
            .span("codegen.generate_project", |_| generate_project(&model))
            .map_err(|e| e.to_string())?;
        if t.on() {
            let c_lines = files
                .iter()
                .filter(|f| f.name.ends_with(".c"))
                .map(|f| f.contents.lines().count() as u64)
                .sum();
            t.count("codegen.c_lines", c_lines);
        }
        let config = SimConfig::with_horizon_ns(FIGURE2_HORIZON_NS);
        let report = profile(&model, config, None, t)?;
        let table = t.span("profiling.render_table4", |_| render_table4(&report));

        let grouping = t.span("explore.partition", |_| {
            let graph = CommGraph::from_report(&report);
            // Pin the environment-facing processes as `repro explore` does.
            let pinned = graph
                .nodes()
                .iter()
                .enumerate()
                .filter(|(_, n)| n.as_str() == "user" || n.as_str() == "channel")
                .map(|(i, _)| (i, 4))
                .collect();
            let options = GroupingOptions {
                groups: 5,
                balance_weight: 0.0,
                pinned,
                seed: self.grouping_seed,
                threads: 1,
                ..Default::default()
            };
            partition(&graph, &options)
        });
        let mapping = t.span("explore.optimise_mapping", |_| {
            let (problem, _, _) = problem_from_system(&model, &report)?;
            let group4 = problem.group_names.iter().position(|g| g == "group4");
            let accelerator = problem
                .pes
                .iter()
                .position(|p| p.kind == ComponentKind::HwAccelerator);
            let (Some(group4), Some(accelerator)) = (group4, accelerator) else {
                return Err("no group4 or no accelerator to pin it to".to_owned());
            };
            let options = MappingOptions {
                pinned: vec![(group4, accelerator)],
                threads: 1,
                ..Default::default()
            };
            Ok(optimise_mapping(&problem, &options))
        })?;

        let group1_cycles = group_cycles(&report, "group1");
        t.count("profiling.group1_cycles", group1_cycles);
        t.count("explore.cut_weight", grouping.cut_weight);
        let proportion = |g: &str| report.group(g).map_or(-1.0, |g| g.proportion);
        Ok(Figure2Out {
            check_errors: check.has_errors(),
            files: files.len(),
            proportions: [
                proportion("group1"),
                proportion("group2"),
                proportion("group3"),
                proportion("group4"),
                proportion("Environment"),
            ],
            group1_cycles,
            table_rows: table.lines().count(),
            cut_weight: grouping.cut_weight,
            assignment: mapping.assignment,
        })
    }

    fn check(&mut self, op: u64, out: &Figure2Out) -> u64 {
        let [g1, g2, g3, g4, env] = out.proportions;
        // The bands `crates/tutmac/tests/table4.rs` holds the paper to.
        let table4 = g1 > 0.80 && g2 > g3 && g3 > g4 && (0.0..0.04).contains(&g4) && env == 0.0;
        let first = self
            .first
            .get_or_insert_with(|| (out.cut_weight, out.assignment.clone()));
        let constant = out.cut_weight == first.0 && out.assignment == first.1;
        let ok = !out.check_errors
            && out.files > 0
            && out.table_rows > 5
            && table4
            && out.group1_cycles == self.group1_cycles
            && constant;
        if !ok {
            eprintln!(
                "[perfbench] figure2 op {op}: check errors {}, {} files, Table 4 {:?}, group1 {} cycles (reference {}), cut {} / {:?}",
                out.check_errors,
                out.files,
                out.proportions,
                out.group1_cycles,
                self.group1_cycles,
                out.cut_weight,
                out.assignment
            );
        }
        u64::from(!ok)
    }
}

/// `fault-sweep`: one BER point of the reliability campaign — build the
/// case study, then profile it under a seeded fault plan at a 200 ms
/// horizon on the serial engine.
pub struct FaultSweep {
    seed: u64,
    fragment_bytes: i64,
    sampled: Vec<(u64, SweepPoint)>,
}

impl FaultSweep {
    pub fn new(seed: u64) -> FaultSweep {
        FaultSweep {
            seed,
            fragment_bytes: TutmacConfig::default().fragment_bytes,
            sampled: Vec::new(),
        }
    }

    /// BER cycles over the campaign's points; every op has its own
    /// fault seed.
    fn point(&self, op: u64) -> (f64, u64) {
        let ber = SWEEP_BERS[(op % SWEEP_BERS.len() as u64) as usize];
        let seed = SplitMix64::new(self.seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64();
        (ber, seed)
    }

    fn config() -> SimConfig {
        SimConfig::with_horizon_ns(SWEEP_HORIZON_NS)
    }
}

impl Workload for FaultSweep {
    type Out = SweepPoint;

    fn op<T: Tracer>(&mut self, op: u64, t: &mut T) -> Result<SweepPoint, String> {
        let (ber, seed) = self.point(op);
        let system = t
            .span("tutmac.build", |_| {
                tutmac::build_tutmac_system(&TutmacConfig::default())
            })
            .map_err(|e| e.to_string())?;
        let mut plan = FaultPlan::new(FaultConfig::with_ber(seed, ber));
        let report = profile(&system, Self::config(), Some(&mut plan), t)?;
        let acked = report.counter_total("arq.acked");
        let point = SweepPoint {
            ber,
            tx: report.counter_total("arq.tx"),
            acked,
            retries: report.counter_total("arq.retries"),
            gave_up: report.counter_total("arq.gave_up"),
            corrupted: report.faults.corrupted,
            horizon_ns: report.horizon_ns,
            goodput_bytes: (acked.max(0) as u64) * (self.fragment_bytes.max(0) as u64),
        };
        t.count("faults.corrupted", point.corrupted);
        t.count("tutmac.arq_retries", point.retries.max(0) as u64);
        Ok(point)
    }

    fn check(&mut self, op: u64, p: &SweepPoint) -> u64 {
        let ok = p.tx > 0
            && (0..=p.tx).contains(&p.acked)
            && p.retries >= 0
            && p.gave_up >= 0
            && (p.ber > 0.0 || p.corrupted == 0)
            && p.horizon_ns >= SWEEP_HORIZON_NS;
        if !ok {
            eprintln!("[perfbench] fault-sweep op {op}: implausible point {p:?}");
        } else if op < SWEEP_BERS.len() as u64 {
            self.sampled.push((op, *p));
        }
        u64::from(!ok)
    }

    /// Re-runs the first cycle of points through `faultsweep::run_point`:
    /// the same `(ber, seed)` must give an identical point.
    fn finish(&mut self) -> u64 {
        let mut failed = 0;
        for (op, point) in std::mem::take(&mut self.sampled) {
            let (ber, seed) = self.point(op);
            match faultsweep::run_point(ber, seed, Self::config()) {
                Ok(again) if again == point => {}
                other => {
                    eprintln!("[perfbench] fault-sweep op {op}: re-run gave {other:?}, timed run {point:?}");
                    failed += 1;
                }
            }
        }
        failed
    }
}

/// `edit-check`: one warm re-check of a seeded single-constant edit,
/// with the checker trimmed afterwards as `repro watch` does. Each round
/// replays the edit stream on a freshly primed checker.
pub struct EditCheck {
    xml: String,
    seed: u64,
    checker: Checker,
    stream: EditStream,
    text: String,
    pending: Vec<(String, CheckOutcome)>,
}

/// Warm outcomes verified against the cold pipeline in one batch.
const VERIFY_BATCH: usize = 32;

impl EditCheck {
    pub fn new(xml: &str, seed: u64) -> Result<EditCheck, String> {
        let stream =
            EditStream::new(xml, seed).ok_or("the model has no <compute> literal to edit")?;
        Ok(EditCheck {
            xml: xml.to_owned(),
            seed,
            checker: Checker::new(),
            stream,
            text: String::new(),
            pending: Vec::with_capacity(VERIFY_BATCH),
        })
    }

    /// Every warm outcome must be byte-identical, text and JSON, to the
    /// cold pipeline on the same text.
    fn verify(&mut self) -> u64 {
        let mut failed = 0;
        for (text, warm) in self.pending.drain(..) {
            let cold = check_source(DOC, &text);
            if warm.has_errors || warm.text != cold.render_text() || warm.json != cold.render_json()
            {
                eprintln!(
                    "[perfbench] edit-check: warm outcome differs from the cold check\n{}",
                    warm.text
                );
                failed += 1;
            }
        }
        failed
    }
}

impl Workload for EditCheck {
    type Out = CheckOutcome;

    fn reset(&mut self) -> Result<(), String> {
        self.checker = primed_checker(&self.xml)?;
        self.stream = EditStream::new(&self.xml, self.seed).ok_or("no edit site")?;
        Ok(())
    }

    fn prepare(&mut self, _op: u64) {
        self.text = self.stream.next_text().to_owned();
    }

    fn op<T: Tracer>(&mut self, _op: u64, t: &mut T) -> Result<CheckOutcome, String> {
        let before = t.on().then(|| self.checker.stats());
        let out = t.span("incremental.check", |_| self.checker.check(DOC, &self.text));
        self.checker.trim(KEEP_GENERATIONS);
        if let Some(before) = before {
            let delta = self.checker.stats().since(&before);
            t.count("query.hits", delta.total_hits());
            t.count("query.misses", delta.total_misses());
            t.count("query.recomputes", delta.total_recomputes());
            t.count("query.memo_len", self.checker.memo_len() as u64);
        }
        Ok(out)
    }

    fn check(&mut self, _op: u64, out: &CheckOutcome) -> u64 {
        self.pending
            .push((std::mem::take(&mut self.text), out.clone()));
        if self.pending.len() < VERIFY_BATCH {
            return 0;
        }
        self.verify()
    }

    fn finish(&mut self) -> u64 {
        self.verify()
    }
}

/// Exact counts over the first cycle of a workload's ops, run traced on
/// fresh state; they must not move unless the simulated behaviour does.
/// Returns (ops, counts, failed ops).
pub fn digest(
    kind: Kind,
    session: &Session,
    seed: u64,
) -> Result<(u64, BTreeMap<&'static str, u64>, u64), String> {
    let mut t = Spans::new();
    let (attempted, failed) = replay(kind, session, seed, &mut t, kind.digest_ops(), 1)?;
    Ok((attempted, t.count_sums(), failed))
}

/// `rounds` rounds of ops `0..ops` of `kind` on fresh state, traced into
/// `t`. Returns (attempted, failed).
fn replay(
    kind: Kind,
    session: &Session,
    seed: u64,
    t: &mut Spans,
    ops: u64,
    rounds: u32,
) -> Result<(u64, u64), String> {
    fn run<W: Workload>(
        mut w: W,
        t: &mut Spans,
        ops: u64,
        rounds: u32,
    ) -> Result<(u64, u64), String> {
        let mut replay = Replay::new(ops);
        for _ in 0..rounds {
            replay.round(&mut w, t)?;
        }
        Ok((replay.attempted, replay.failed))
    }
    match kind {
        Kind::Figure2 => run(Figure2::new(session, seed), t, ops, rounds),
        Kind::FaultSweep => run(FaultSweep::new(seed), t, ops, rounds),
        Kind::EditCheck => run(EditCheck::new(&session.xml, seed)?, t, ops, rounds),
    }
}

/// Rounds of census ops per other workload.
const CENSUS_ROUNDS: u32 = 3;

/// Census ops of every workload but `kind`, for the layers `kind` never
/// calls, each in a segment of its own. Returns (attempted, failed).
pub fn census(
    kind: Kind,
    session: &Session,
    seed: u64,
    t: &mut Spans,
) -> Result<(u64, u64), String> {
    let (mut attempted, mut failed) = (0, 0);
    for other in Kind::ALL.into_iter().filter(|&k| k != kind) {
        t.begin_census();
        let (a, f) = replay(other, session, seed, t, other.census_ops(), CENSUS_ROUNDS)?;
        attempted += a;
        failed += f;
    }
    Ok((attempted, failed))
}
