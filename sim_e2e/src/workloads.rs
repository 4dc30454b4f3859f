//! The three workloads, scripted through `vcluster::Cluster`'s public API.
//!
//! Inputs (arrival schedules, guest placements, fault plans) are generated
//! from the benchmark seed before anything is timed; the program receives
//! only those. One [`run`] builds the workload's cluster(s), drives them,
//! audits and snapshots them, and returns an [`Outcome`]: the set-up and
//! run-phase wall times, the simulated outputs, and a hash over them.

use std::collections::BTreeMap;
use std::time::Instant;

use vcluster::{Cluster, ClusterConfig, Command};
use vcore::{ExecTarget, MigrationConfig};
use vkernel::{LogicalHostId, Priority};
use vnet::LossModel;
use vsim::{DetRng, FaultPlan, Samples, SamplingSpec, SimDuration, SimTime, Subsystem};
use vworkload::{profiles, ProgramProfile, UserModelParams};

use crate::measure::{ns_since, Canary, Fnv, Tracer, WallClock};

/// `harvest`: workstations in the pool (plus the file server).
const HARVEST_STATIONS: usize = 256;
/// `harvest`: `@*` requests per workstation per simulated hour.
const HARVEST_RATE_PER_STATION_HOUR: f64 = 5.0;
/// `harvest`: simulated seconds of open-loop arrivals.
const HARVEST_SPAN_S: u64 = 3600;
/// `harvest`: the programs requests draw from (Table 4-1 rows).
const HARVEST_PROGRAMS: [&str; 4] = ["make", "cc68", "parser", "tex"];

/// `migrate`: workstations.
const MIGRATE_STATIONS: usize = 8;
/// `migrate`: simulated seconds of closed-loop migration.
const MIGRATE_SPAN_S: u64 = 3000;
/// `migrate`: the guests, one closed-loop client each.
const MIGRATE_GUESTS: [&str; 5] = ["make", "cc68", "parser", "tex", "simulate"];
/// `migrate`: CPU a guest asks for; far beyond the run, so it never ends.
const NEVER_S: u64 = 1_000_000;
/// `migrate`: how often the closed loop looks for landed reports.
const MIGRATE_SLICE_MS: u64 = 10;
/// `migrate`: a `migrateprog` with no report after this long is re-issued.
const MIGRATE_REPORT_TIMEOUT_S: u64 = 120;

/// `chaos`: workstations per plan.
const CHAOS_STATIONS: usize = 16;
/// `chaos`: fault plans (one cluster each) per run.
const CHAOS_PLANS: usize = 8;
/// `chaos`: `@*` guests per plan.
const CHAOS_GUESTS: usize = 8;
/// `chaos`: simulated seconds of scripted load.
const CHAOS_LOAD_S: u64 = 45;
/// `chaos`: how long a plan may drain toward quiescence after the load.
const CHAOS_DRAIN_LIMIT_S: u64 = 75;

/// After the load, runs drain in steps this long until every transaction
/// table is empty or [`SETTLE_LIMIT_S`] passes.
const SETTLE_STEP_MS: u64 = 10;
const SETTLE_LIMIT_S: u64 = 60;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Harvest,
    Migrate,
    Chaos,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Harvest, Workload::Migrate, Workload::Chaos];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Harvest => "harvest",
            Workload::Migrate => "migrate",
            Workload::Chaos => "chaos",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One `@*` request of the `harvest` open loop.
pub struct Arrival {
    at: SimTime,
    ws: usize,
    program: &'static str,
}

/// One fault plan of `chaos` with the scripted migrations run against it.
pub struct ChaosPlan {
    cluster_seed: u64,
    plan: FaultPlan,
    migrations: Vec<(SimTime, usize)>,
}

/// Everything a workload's cluster receives, generated from the seed.
pub enum Inputs {
    Harvest {
        cluster_seed: u64,
        arrivals: Vec<Arrival>,
    },
    Migrate {
        cluster_seed: u64,
        /// Per guest: when it is launched and from which workstation.
        starts: Vec<(SimTime, usize)>,
    },
    Chaos {
        plans: Vec<ChaosPlan>,
    },
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        let mut rng = DetRng::seed(seed);
        let cluster_seed = rng.range_u64(1, u64::MAX);
        match w {
            Workload::Harvest => {
                // A Poisson process conditioned on its expected count: the
                // arrival instants are sorted uniform draws over the span.
                // Fixing the count keeps the offered load equal across seeds.
                let n = (HARVEST_RATE_PER_STATION_HOUR
                    * HARVEST_STATIONS as f64
                    * HARVEST_SPAN_S as f64
                    / 3600.0) as usize;
                let mut times: Vec<u64> = (0..n)
                    .map(|_| rng.range_u64(0, HARVEST_SPAN_S * 1_000_000))
                    .collect();
                times.sort_unstable();
                let arrivals = times
                    .into_iter()
                    .map(|us| Arrival {
                        at: SimTime::from_micros(us),
                        ws: 1 + rng.index(HARVEST_STATIONS),
                        program: HARVEST_PROGRAMS[rng.index(HARVEST_PROGRAMS.len())],
                    })
                    .collect();
                Inputs::Harvest {
                    cluster_seed,
                    arrivals,
                }
            }
            Workload::Migrate => {
                let mut origins: Vec<usize> = (1..=MIGRATE_STATIONS).collect();
                rng.shuffle(&mut origins);
                let starts = origins
                    .into_iter()
                    .take(MIGRATE_GUESTS.len())
                    .map(|ws| (SimTime::from_micros(rng.range_u64(0, 1_000_000)), ws))
                    .collect();
                Inputs::Migrate {
                    cluster_seed,
                    starts,
                }
            }
            Workload::Chaos => {
                let plans = (0..CHAOS_PLANS)
                    .map(|_| {
                        let plan = FaultPlan::random(
                            &mut rng,
                            CHAOS_STATIONS as u16 + 1,
                            SimDuration::from_secs(30),
                        );
                        let migrations = (1..=CHAOS_GUESTS)
                            .map(|ws| {
                                let at = rng.range_u64(5_000_000, 20_000_000);
                                (SimTime::from_micros(at), ws)
                            })
                            .collect();
                        ChaosPlan {
                            cluster_seed: rng.range_u64(1, u64::MAX),
                            plan,
                            migrations,
                        }
                    })
                    .collect();
                Inputs::Chaos { plans }
            }
        }
    }
}

/// Operations attempted, and failed ones by cause.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    pub attempted: u64,
    pub failures: BTreeMap<String, u64>,
}

impl Ops {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, cause: impl Into<String>) {
        self.attempted += 1;
        *self.failures.entry(cause.into()).or_default() += 1;
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

/// Simulated outputs accumulated over a run's cluster(s). Every field is a
/// pure function of the inputs.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// `ExecReport::total_time` of successful `@*` requests, ms.
    pub exec_ms: Samples,
    /// `ExecReport::selection_time` of successful requests, ms.
    pub selection_ms: Samples,
    /// `MigrationReport::freeze_time` of successful migrations, ms.
    pub freeze_ms: Samples,
    /// `MigrationReport::total_time` of successful migrations, ms.
    pub migration_ms: Samples,
    /// `Cluster::reclaim_times`, ms.
    pub reclaim_ms: Samples,
    /// Residual (frozen-copy) KB of successful migrations.
    pub residual_kb: Samples,
    /// Pre-copy rounds of successful migrations.
    pub precopy_rounds: Samples,
    /// Registry counters and report sums by name (see `collect`).
    pub counts: BTreeMap<&'static str, f64>,
    /// Largest binding cache on any station at the end of a run.
    pub binding_entries_max: f64,
}

impl Tally {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Wall time and events per quarter of a cluster's simulated run span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quarter {
    pub events: u64,
    pub ns: u64,
}

/// The result of one run of a workload.
pub struct Outcome {
    /// Wall ns in `Cluster::new`, profile building and scripting.
    pub setup_ns: u64,
    /// Wall ns of the run phase (sliced `run_until` plus closed-loop calls).
    pub run_ns: u64,
    /// Simulated seconds the run phase advanced, summed over clusters.
    pub sim_s: f64,
    /// Hash of every simulated output (see `collect`).
    pub hash: u64,
    pub ops: Ops,
    pub tally: Tally,
    /// Run-phase quarters (wall ns only when traced).
    pub quarters: [Quarter; 4],
    /// Benchmark-side spans (traced runs only).
    pub spans: BTreeMap<&'static str, u64>,
    /// Dispatch profiler slots by event kind: (dispatches, wall ns).
    pub slots: BTreeMap<&'static str, (u64, u64)>,
    /// Reports that contradict themselves (see `collect`).
    pub problems: Vec<String>,
}

impl Outcome {
    /// Simulated seconds per wall second of the run phase, not normalized.
    pub fn raw_rate(&self) -> f64 {
        self.sim_s / (self.run_ns as f64 / 1e9)
    }
}

/// Per-run state shared by the workload functions.
struct Run<'a> {
    tr: Tracer,
    /// Takes a canary pass, when one is due, before each run phase.
    canary: Option<&'a mut Canary>,
    setup_ns: u64,
    run_ns: u64,
    sim_s: f64,
    hash: Fnv,
    ops: Ops,
    tally: Tally,
    quarters: [Quarter; 4],
    slots: BTreeMap<&'static str, (u64, u64)>,
    problems: Vec<String>,
}

/// Runs one workload once. `traced` adds the wall-clock dispatch profiler
/// and benchmark-side spans; the simulated outputs must not change. With a
/// `canary`, a pass is taken between a cluster's set-up and its run phase
/// when one is due; it is in neither stopwatch.
pub fn run(inputs: &Inputs, traced: bool, canary: Option<&mut Canary>) -> Outcome {
    let mut r = Run::new(traced);
    r.canary = canary;
    match inputs {
        Inputs::Harvest {
            cluster_seed,
            arrivals,
        } => harvest(&mut r, *cluster_seed, arrivals),
        Inputs::Migrate {
            cluster_seed,
            starts,
        } => migrate(&mut r, *cluster_seed, starts),
        Inputs::Chaos { plans } => {
            for p in plans {
                chaos(&mut r, p);
            }
        }
    }
    Outcome {
        setup_ns: r.setup_ns,
        run_ns: r.run_ns,
        sim_s: r.sim_s,
        hash: r.hash.finish(),
        ops: r.ops,
        tally: r.tally,
        quarters: r.quarters,
        spans: r.tr.into_spans(),
        slots: r.slots,
        problems: r.problems,
    }
}

/// Only the set-up of one run: wall ns to build and script the workload's
/// cluster(s), which are then dropped untimed.
pub fn setup_only(inputs: &Inputs) -> u64 {
    let mut r = Run::new(false);
    match inputs {
        Inputs::Harvest {
            cluster_seed,
            arrivals,
        } => drop(harvest_setup(&mut r, *cluster_seed, arrivals)),
        Inputs::Migrate {
            cluster_seed,
            starts,
        } => drop(migrate_setup(&mut r, *cluster_seed, starts)),
        Inputs::Chaos { plans } => {
            for p in plans {
                drop(chaos_setup(&mut r, p));
            }
        }
    }
    r.setup_ns
}

impl Run<'_> {
    fn new(traced: bool) -> Self {
        Run {
            tr: Tracer::new(traced),
            canary: None,
            setup_ns: 0,
            run_ns: 0,
            sim_s: 0.0,
            hash: Fnv::new(),
            ops: Ops::default(),
            tally: Tally::default(),
            quarters: [Quarter::default(); 4],
            slots: BTreeMap::new(),
            problems: Vec::new(),
        }
    }
}

/// Steps a cluster through its run phase in caller-chosen slices, charging
/// each slice's events (and, traced, its wall time) to the quarter of the
/// planned simulated span it starts in.
struct Phase {
    start: SimTime,
    span: SimDuration,
}

impl Phase {
    fn new(c: &Cluster, span: SimDuration) -> Self {
        Phase {
            start: c.now(),
            span,
        }
    }

    fn step(&self, r: &mut Run, c: &mut Cluster, limit: SimTime) {
        let into = c.now().saturating_since(self.start).as_micros();
        let q = usize::try_from(into * 4 / self.span.as_micros().max(1))
            .unwrap_or(3)
            .min(3);
        let e0 = c.events_delivered();
        if r.tr.is_on() {
            let t0 = Instant::now();
            c.run_until(limit);
            r.quarters[q].ns += ns_since(t0);
        } else {
            c.run_until(limit);
        }
        r.quarters[q].events += c.events_delivered() - e0;
    }

    /// Steps until every up station's transaction tables and migrator are
    /// idle, so the final audit's quiescence checks apply. Returns false if
    /// that does not happen within [`SETTLE_LIMIT_S`].
    fn settle(&self, r: &mut Run, c: &mut Cluster) -> bool {
        let deadline = c.now() + SimDuration::from_secs(SETTLE_LIMIT_S);
        let mut t = c.now();
        while !settled(c) {
            if t >= deadline {
                return false;
            }
            t += SimDuration::from_millis(SETTLE_STEP_MS);
            self.step(r, c, t);
        }
        true
    }
}

fn settled(c: &Cluster) -> bool {
    c.stations.iter().filter(|w| !w.down).all(|w| {
        w.kernel.outstanding_sends().is_empty()
            && w.kernel.active_transfers() == 0
            && w.migrator.active_jobs().is_empty()
    })
}

fn secs(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

fn build_cluster(r: &mut Run, cfg: ClusterConfig) -> Cluster {
    r.tr.span("vcluster.new", || Cluster::new(cfg))
}

/// Starts the run-phase stopwatch, after a canary pass if one is due;
/// traced runs also switch the dispatch profiler to the wall clock here,
/// after set-up.
fn begin_run(r: &mut Run, c: &mut Cluster) -> Instant {
    if let Some(canary) = r.canary.as_deref_mut() {
        canary.pass_if_due();
    }
    if r.tr.is_on() {
        c.set_host_clock(Box::new(WallClock::new()));
    }
    Instant::now()
}

fn end_run(r: &mut Run, c: &Cluster, phase: &Phase, t0: Instant) {
    r.run_ns += ns_since(t0);
    r.sim_s += c.now().saturating_since(phase.start).as_secs_f64();
}

fn harvest(r: &mut Run, cluster_seed: u64, arrivals: &[Arrival]) {
    let mut c = harvest_setup(r, cluster_seed, arrivals);
    let t0 = begin_run(r, &mut c);
    let phase = Phase::new(&c, SimDuration::from_secs(HARVEST_SPAN_S));
    for k in 1..=HARVEST_SPAN_S / 60 {
        phase.step(r, &mut c, secs(60 * k));
    }
    let settled = phase.settle(r, &mut c);
    end_run(r, &c, &phase, t0);
    settle_op(r, settled);
    collect(r, &mut c, arrivals.len());
}

fn harvest_setup(r: &mut Run, cluster_seed: u64, arrivals: &[Arrival]) -> Cluster {
    let t0 = Instant::now();
    let mut c = build_cluster(
        r,
        ClusterConfig {
            workstations: HARVEST_STATIONS,
            seed: cluster_seed,
            loss: LossModel::Bernoulli(1e-4),
            users: Some(UserModelParams::peak_hours()),
            evict_on_owner_return: true,
            ..ClusterConfig::default()
        },
    );
    for a in arrivals {
        let row = profiles::row(a.program).expect("harvest programs are Table 4-1 rows");
        let profile =
            r.tr.span("vworkload.profile_build", || profiles::steady_profile(row));
        r.tr.span("script", || {
            c.at(
                a.at,
                Command::Exec {
                    ws: a.ws,
                    profile,
                    target: ExecTarget::AnyIdle,
                    priority: Priority::GUEST,
                },
            );
        });
    }
    r.setup_ns += ns_since(t0);
    c
}

/// A `migrate` guest and its one outstanding `migrateprog`.
struct Guest {
    origin: usize,
    image: String,
    lh: Option<LogicalHostId>,
    issued_at: Option<SimTime>,
}

fn migrate_setup(
    r: &mut Run,
    cluster_seed: u64,
    starts: &[(SimTime, usize)],
) -> (Cluster, Vec<Guest>) {
    let t0 = Instant::now();
    let mut c = build_cluster(
        r,
        ClusterConfig {
            workstations: MIGRATE_STATIONS,
            seed: cluster_seed,
            loss: LossModel::Bernoulli(1e-4),
            ..ClusterConfig::default()
        },
    );
    let mut guests = Vec::new();
    for (&name, &(at, origin)) in MIGRATE_GUESTS.iter().zip(starts) {
        let profile = r.tr.span("vworkload.profile_build", || never_ending(name));
        guests.push(Guest {
            origin,
            image: profile.name.clone(),
            lh: None,
            issued_at: None,
        });
        r.tr.span("script", || {
            c.at(
                at,
                Command::Exec {
                    ws: origin,
                    profile,
                    target: ExecTarget::AnyIdle,
                    priority: Priority::GUEST,
                },
            );
        });
    }
    r.setup_ns += ns_since(t0);
    (c, guests)
}

fn migrate(r: &mut Run, cluster_seed: u64, starts: &[(SimTime, usize)]) {
    let (mut c, mut guests) = migrate_setup(r, cluster_seed, starts);
    let t0 = begin_run(r, &mut c);
    let phase = Phase::new(&c, SimDuration::from_secs(MIGRATE_SPAN_S));
    let slice = SimDuration::from_millis(MIGRATE_SLICE_MS);
    let timeout = SimDuration::from_secs(MIGRATE_REPORT_TIMEOUT_S);
    let end = secs(MIGRATE_SPAN_S);
    let drain_end = end + SimDuration::from_secs(SETTLE_LIMIT_S);
    let (mut seen_execs, mut seen_migs) = (0, 0);
    let mut t = c.now();
    // Closed loop: each guest's next migration is issued in the first
    // slice after its previous report lands. After `end` no new ones are
    // issued and the outstanding ones drain.
    while t < end || (guests.iter().any(|g| g.issued_at.is_some()) && t < drain_end) {
        t += slice;
        phase.step(r, &mut c, t);
        for rep in &c.exec_reports[seen_execs..] {
            if let Some(g) = guests.iter_mut().find(|g| g.image == rep.image) {
                g.lh = rep.lh.filter(|_| rep.success);
            }
        }
        seen_execs = c.exec_reports.len();
        for rep in &c.migration_reports[seen_migs..] {
            if let Some(g) = guests.iter_mut().find(|g| g.lh == Some(rep.lh)) {
                g.issued_at = None;
            }
        }
        seen_migs = c.migration_reports.len();
        for g in &mut guests {
            let Some(lh) = g.lh else { continue };
            if let Some(at) = g.issued_at {
                if t.saturating_since(at) < timeout {
                    continue;
                }
                r.ops.fail("migration not reported");
                g.issued_at = None;
            }
            if t >= end {
                continue;
            }
            g.issued_at = Some(t);
            r.tr.span("vcore.migrateprog", || c.migrateprog(g.origin, lh, false));
        }
    }
    for _ in guests.iter().filter(|g| g.issued_at.is_some()) {
        r.ops.fail("migration not reported");
    }
    let settled = phase.settle(r, &mut c);
    end_run(r, &c, &phase, t0);
    settle_op(r, settled);
    collect(r, &mut c, guests.len());
}

/// A `migrate` guest: the named program's profile with CPU it never uses up.
fn never_ending(name: &str) -> ProgramProfile {
    let cpu = SimDuration::from_secs(NEVER_S);
    match profiles::row(name) {
        Some(row) => ProgramProfile::steady(name, profiles::layout_for(name), row.fit(), cpu),
        None => profiles::simulation_profile(cpu),
    }
}

fn chaos_setup(r: &mut Run, p: &ChaosPlan) -> Cluster {
    let t0 = Instant::now();
    let mut c = build_cluster(
        r,
        ClusterConfig {
            workstations: CHAOS_STATIONS,
            seed: p.cluster_seed,
            faults: p.plan.clone(),
            audit_every: Some(SimDuration::from_secs(1)),
            sampling: Some(SamplingSpec::default()),
            migration: MigrationConfig {
                retry_limit: 3,
                ..MigrationConfig::default()
            },
            ..ClusterConfig::default()
        },
    );
    for ws in 1..=CHAOS_GUESTS {
        let profile = r.tr.span("vworkload.profile_build", || {
            profiles::simulation_profile(SimDuration::from_secs(8))
        });
        r.tr.span("script", || {
            c.exec(ws, profile, ExecTarget::AnyIdle, Priority::GUEST);
        });
    }
    for &(at, ws) in &p.migrations {
        r.tr.span("script", || {
            c.at(
                at,
                Command::Migrate {
                    ws,
                    lh: None,
                    destroy_if_stuck: false,
                },
            );
        });
    }
    r.setup_ns += ns_since(t0);
    c
}

fn chaos(r: &mut Run, p: &ChaosPlan) {
    let mut c = chaos_setup(r, p);
    let t0 = begin_run(r, &mut c);
    let limit = CHAOS_LOAD_S + CHAOS_DRAIN_LIMIT_S;
    let phase = Phase::new(&c, SimDuration::from_secs(limit));
    for s in 1..=CHAOS_LOAD_S {
        phase.step(r, &mut c, secs(s));
    }
    // Drain toward quiescence (an empty event queue), bounded.
    let mut s = CHAOS_LOAD_S;
    while c.pending() > 0 && s < limit {
        s += 1;
        phase.step(r, &mut c, secs(s));
    }
    end_run(r, &c, &phase, t0);
    if c.pending() == 0 {
        r.ops.ok();
    } else {
        r.ops.fail("plan not quiesced");
    }
    collect(r, &mut c, CHAOS_GUESTS);
}

fn settle_op(r: &mut Run, settled: bool) {
    if settled {
        r.ops.ok();
    } else {
        r.ops.fail("transactions not drained");
    }
}

/// Ends one cluster: the final audit, then every report, folded into the
/// run's operations, tally and hash.
fn collect(r: &mut Run, c: &mut Cluster, execs_issued: usize) {
    let audit = r.tr.span("vcluster.audit", || c.audit(true));
    let metrics = r.tr.span("report.metrics", || c.metrics_report());
    let series = r.tr.span("report.series", || c.series_report());
    let profile = c.profile_report();
    let (ops, t, h, bad) = (&mut r.ops, &mut r.tally, &mut r.hash, &mut r.problems);

    // Operations: every exec request, every migration, the audit.
    for e in &c.exec_reports {
        if e.success {
            if e.lh.is_none() || e.chosen_host.is_none() || e.total_time < e.selection_time {
                bad.push(format!("inconsistent exec report {e:?}"));
            }
            ops.ok();
            t.exec_ms.add(e.total_time.as_secs_f64() * 1e3);
            t.selection_ms.add(e.selection_time.as_secs_f64() * 1e3);
        } else {
            ops.fail("exec not honored");
        }
        h.str(&e.image);
        h.u64(e.chosen_host.map_or(u64::MAX, |a| u64::from(a.0)));
        h.u64(e.lh.map_or(u64::MAX, |l| u64::from(l.0)));
        h.u64(e.selection_time.as_micros());
        h.u64(e.total_time.as_micros());
        h.u64(u64::from(e.success));
    }
    for _ in c.exec_reports.len()..execs_issued {
        ops.fail("exec not reported");
    }
    for m in &c.migration_reports {
        match m.failure {
            None if m.success => {
                if m.to_host.is_none() || m.freeze_time > m.total_time {
                    bad.push(format!("inconsistent migration report {m:?}"));
                }
                ops.ok();
                t.freeze_ms.add(m.freeze_time.as_secs_f64() * 1e3);
                t.migration_ms.add(m.total_time.as_secs_f64() * 1e3);
                t.residual_kb.add(m.residual_bytes as f64 / 1024.0);
                t.precopy_rounds.add(m.iterations.len() as f64);
            }
            f => ops.fail(format!("migration {f:?}")),
        }
        t.add("vcore.migrations", 1.0);
        t.add("vcore.migrations_ok", f64::from(u8::from(m.success)));
        t.add("vcore.precopied_bytes", m.precopied_bytes() as f64);
        t.add("vcore.network_bytes", m.network_bytes as f64);
        t.add("vcore.double_copied_bytes", m.double_copied_bytes as f64);
        h.u64(u64::from(m.lh.0));
        h.str(&m.image);
        h.u64(u64::from(m.from_host.0));
        h.u64(m.to_host.map_or(u64::MAX, |a| u64::from(a.0)));
        for i in &m.iterations {
            h.u64(i.bytes);
            h.u64(i.duration.as_micros());
        }
        h.u64(m.residual_bytes);
        h.u64(m.freeze_time.as_micros());
        h.u64(m.total_time.as_micros());
        h.u64(m.network_bytes);
        h.str(&format!("{:?}", m.failure));
    }
    if audit.violations.is_empty() {
        ops.ok();
    }
    for v in &audit.violations {
        ops.fail(format!("audit {}", v.kind()));
        h.str(&format!("{v:?}"));
    }
    for d in &c.reclaim_times {
        t.reclaim_ms.add(d.as_secs_f64() * 1e3);
        h.u64(d.as_micros());
    }

    // Registry counts, summed over scopes.
    let ctr = |s: Subsystem, n: &str| metrics.counter_total(s, n) as f64;
    t.add("vsim.events", ctr(Subsystem::Engine, "events_delivered"));
    t.add(
        "vsim.events_cancelled",
        ctr(Subsystem::Engine, "events_cancelled"),
    );
    t.add("vnet.frames", ctr(Subsystem::Net, "frames_sent"));
    t.add("vnet.payload_bytes", ctr(Subsystem::Net, "payload_bytes"));
    t.add("vnet.wire_busy_us", ctr(Subsystem::Net, "wire_busy_us"));
    for n in [
        "frames_dropped_loss",
        "frames_dropped_down",
        "frames_dropped_partition",
        "frames_sender_down",
    ] {
        t.add("vnet.frames_dropped", ctr(Subsystem::Net, n));
    }
    t.add("sim_us", c.now().since(SimTime::ZERO).as_micros() as f64);
    t.add("vkernel.sends", ctr(Subsystem::Kernel, "sends"));
    t.add(
        "vkernel.retransmissions",
        ctr(Subsystem::Kernel, "retransmissions"),
    );
    t.add(
        "vkernel.binding_hits",
        ctr(Subsystem::Kernel, "binding_cache_hits"),
    );
    t.add(
        "vkernel.binding_misses",
        ctr(Subsystem::Kernel, "binding_cache_misses"),
    );
    t.add(
        "vkernel.orphaned_transactions",
        ctr(Subsystem::Kernel, "orphaned_transactions"),
    );
    t.add(
        "vcore.registry_succeeded",
        ctr(Subsystem::Migration, "succeeded"),
    );
    t.add("vcluster.quanta", ctr(Subsystem::Cluster, "quanta_local"));
    t.add("vcluster.quanta", ctr(Subsystem::Cluster, "quanta_guest"));
    t.add(
        "vcluster.audit_violations",
        ctr(Subsystem::Cluster, "audit_violations"),
    );
    t.add("vcluster.faults_injected", c.stats.faults_injected as f64);
    t.add("vservices.leases_rebound", c.stats.leases_rebound as f64);
    t.add(
        "vservices.orphans_exterminated",
        c.stats.orphans_exterminated as f64,
    );
    t.add("vservices.re_execs", c.stats.re_execs as f64);
    let transitions: u64 = c
        .stations
        .iter()
        .filter_map(|w| w.user.as_ref())
        .map(|u| u.transitions())
        .sum();
    t.add("vworkload.user_transitions", transitions as f64);
    let points: usize = series.series.iter().map(|s| s.points.len()).sum();
    t.add("vsim.series_points", points as f64);
    for w in &c.stations {
        t.binding_entries_max = t
            .binding_entries_max
            .max(w.kernel.binding_cache().len() as f64);
    }

    // The hash: registries, series, dispatch counts, cluster stats.
    h.u64(c.now().as_micros());
    h.u64(c.events_delivered());
    for s in &metrics.scopes {
        h.str(&s.scope);
        for x in &s.counters {
            h.str(x.subsystem.label());
            h.str(x.name);
            h.u64(x.value);
        }
        for x in &s.gauges {
            h.str(x.name);
            h.f64(x.value);
        }
        for x in &s.histograms {
            h.str(x.name);
            h.u64(x.count as u64);
            h.f64(x.mean);
            h.f64(x.max.unwrap_or(f64::NAN));
        }
    }
    h.u64(series.sweeps);
    for s in &series.series {
        h.str(s.name);
        h.u64(s.seen);
        for &(at, v) in &s.points {
            h.u64(at);
            h.f64(v);
        }
    }
    h.str(&format!("{:?}", c.stats));
    // The report orders slots by wall time; hash them in kind order.
    let mut slots: Vec<_> = profile.slots.iter().collect();
    slots.sort_by_key(|s| s.kind);
    for s in slots {
        h.str(s.kind);
        h.u64(s.dispatches);
        let e = r.slots.entry(s.kind).or_default();
        e.0 += s.dispatches;
        e.1 += s.wall_ns;
    }
}
