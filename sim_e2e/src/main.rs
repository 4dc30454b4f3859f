//! `sim_e2e`: the whole-cluster benchmark.
//!
//! Scripts `harvest`, `migrate` and `chaos` clusters through
//! `vcluster::Cluster`'s public API from one single-threaded process and
//! times them from outside. See `README.md` in this directory for the
//! metrics, the workloads and how to read the output.
//!
//! ```text
//! sim_e2e --workload <harvest|migrate|chaos|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! For one workload the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. `all` runs
//! every workload untraced and traced, plus once on a second seed, and
//! prints every table.

mod measure;
mod workloads;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use measure::{median, peak_rss_mb, reset_peak_rss, Canary};
use vsim::Samples;
use workloads::{Inputs, Outcome, Workload};

const USAGE: &str =
    "usage: sim_e2e --workload <harvest|migrate|chaos|all> [--seed N] [--seconds S] [--trace 0|1]";

/// Runs per measurement, at least: medians need three untraced runs; a
/// traced measurement alternates untraced and traced runs, at least two
/// pairs.
const MIN_RUNS: usize = 3;
const MIN_TRACED_PAIRS: usize = 2;

/// Percentiles are reported only over at least this many samples.
const P99_MIN_SAMPLES: usize = 1000;

/// Host time is normalized to a host on which one canary pass
/// ([`measure::canary_ns`]) takes this long. It is the canary's typical
/// time on the 2-vCPU Xeon VM where the baseline was taken.
const CANARY_NOMINAL_NS: f64 = 100e6;

/// Untraced measurements add set-up-only passes, while they fit in this
/// many wall seconds, so cheap set-ups still give a steady median.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 200;

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if val == "all" => a.workload = None,
            "--workload" => {
                a.workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                a.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {val}"))?
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// The runs of one workload on one seed, and what the checks found.
struct Measurement {
    workload: Workload,
    plain: Vec<Outcome>,
    traced: Vec<Outcome>,
    /// Host slowdown during each untraced run: the mean of the canary
    /// passes around and inside it, over [`CANARY_NOMINAL_NS`].
    slowdown: Vec<f64>,
    /// Set-up wall seconds and the host slowdown they were taken at: every
    /// run's, plus the set-up-only passes.
    setups: Vec<(f64, f64)>,
    /// Every canary pass, in ms.
    canary_ms: Vec<f64>,
    peak_rss_mb: f64,
    problems: Vec<String>,
}

/// Repeats the workload until `seconds` have passed (and the minimum run
/// count is met); traced measurements alternate untraced and traced runs.
fn measure(w: Workload, seed: u64, seconds: f64, trace: bool) -> Measurement {
    let inputs = Inputs::generate(w, seed);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // The high-water mark is read after the first run: later runs reuse a
    // heap that earlier ones fragmented, and would raise it.
    let mut rss = None;
    // A canary pass follows each untraced run, and passes are taken inside
    // all but the first (whose high-water mark must hold no canary memory).
    // A run's slowdown averages the passes from the one before it to the
    // one after it.
    let mut canary = Canary::new();
    let mut slowdown = Vec::new();
    loop {
        let from = canary.len().saturating_sub(1);
        let inside = if plain.is_empty() {
            None
        } else {
            Some(&mut canary)
        };
        plain.push(workloads::run(&inputs, false, inside));
        rss = rss.or_else(peak_rss_mb);
        canary.pass();
        slowdown.push(canary.mean_since(from) / CANARY_NOMINAL_NS);
        if trace {
            traced.push(workloads::run(&inputs, true, None));
        }
        let enough = if trace {
            traced.len() >= MIN_TRACED_PAIRS
        } else {
            plain.len() >= MIN_RUNS
        };
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut setups: Vec<(f64, f64)> = plain
        .iter()
        .zip(&slowdown)
        .map(|(o, &f)| (o.setup_ns as f64 / 1e9, f))
        .collect();
    let mut extra = Vec::new();
    let t0 = Instant::now();
    while !trace
        && setups.len() + extra.len() < MAX_SETUPS
        && t0.elapsed().as_secs_f64() + median(setups.iter().map(|s| s.0)) <= SETUP_BUDGET_S
    {
        extra.push(workloads::setup_only(&inputs) as f64 / 1e9);
    }
    if !extra.is_empty() {
        let from = canary.len() - 1;
        canary.pass();
        let f = canary.mean_since(from) / CANARY_NOMINAL_NS;
        setups.extend(extra.into_iter().map(|s| (s, f)));
    }
    let mut m = Measurement {
        workload: w,
        plain,
        traced,
        slowdown,
        setups,
        canary_ms: canary.passes_ms(),
        peak_rss_mb: rss.unwrap_or(f64::NAN),
        problems: Vec::new(),
    };
    m.problems = check(&m);
    m
}

/// The benchmark's correctness checks: simulated outputs identical across
/// every run (traced or not), and the reports consistent with themselves
/// and with the program's own metric registry.
fn check(m: &Measurement) -> Vec<String> {
    let mut p = Vec::new();
    let first = &m.plain[0];
    for (i, o) in m.plain.iter().chain(&m.traced).enumerate() {
        if o.hash != first.hash {
            p.push(format!(
                "run {i}: simulated-output hash {:016x} differs from {:016x}",
                o.hash, first.hash
            ));
        }
    }
    if !m.peak_rss_mb.is_finite() {
        p.push("VmHWM not readable".into());
    }
    let t = &first.tally;
    if t.count("vsim.events") < 1.0 || first.sim_s <= 0.0 {
        p.push("the run delivered no events".into());
    }
    if t.exec_ms.is_empty() {
        p.push("no @* request succeeded".into());
    }
    if t.freeze_ms.is_empty() {
        p.push("no migration succeeded".into());
    }
    if t.count("vcore.migrations_ok") != t.count("vcore.registry_succeeded") {
        p.push(format!(
            "{} successful migration reports, but the registry counts {}",
            t.count("vcore.migrations_ok"),
            t.count("vcore.registry_succeeded")
        ));
    }
    if m.workload == Workload::Harvest && t.reclaim_ms.is_empty() {
        p.push("no owner reclaim was measured".into());
    }
    p.extend(first.problems.iter().cloned());
    p
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// True when higher is better. Counts of work are lower-is-better:
    /// the same inputs done with less work.
    higher_better: bool,
    /// How many samples a percentile is over.
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, hb: bool) -> Metric {
    Metric {
        name,
        value,
        unit,
        higher_better: hb,
        samples: None,
    }
}

/// The end-to-end metrics. Host time comes from the untraced runs: each
/// run's figure is scaled by the host slowdown the canary measured around
/// it, then the median is taken. Modelled time is simulated and identical
/// in every run. Returns (gated in `BENCHMARK.json`, printed only: raw
/// host time and modelled time).
fn end_to_end(m: &Measurement) -> (Vec<Metric>, Vec<Metric>) {
    let lower = false;
    let gated = vec![
        metric(
            "sim_s_per_wall_s",
            median(
                m.plain
                    .iter()
                    .zip(&m.slowdown)
                    .map(|(o, f)| o.raw_rate() * f),
            ),
            "s/s",
            true,
        ),
        metric(
            "setup_s",
            median(m.setups.iter().map(|(s, f)| s / f)),
            "s",
            lower,
        ),
        metric("peak_rss_mb", m.peak_rss_mb, "MB", lower),
    ];
    let mut shown = vec![
        metric(
            "raw sim_s_per_wall_s",
            median(m.plain.iter().map(Outcome::raw_rate)),
            "s/s",
            true,
        ),
        metric(
            "raw setup_s",
            median(m.setups.iter().map(|s| s.0)),
            "s",
            lower,
        ),
        metric(
            "canary_ms",
            median(m.canary_ms.iter().copied()),
            "ms",
            lower,
        ),
    ];
    let t = &m.plain[0].tally;
    let mut pct = |name, samples: &Samples, p: f64, min: usize| {
        if samples.count() >= min {
            if let Some(v) = samples.percentile(p) {
                shown.push(Metric {
                    samples: Some(samples.count()),
                    ..metric(name, v, "ms", lower)
                });
            }
        }
    };
    pct("exec_ms_p50", &t.exec_ms, 50.0, 1);
    pct("exec_ms_p99", &t.exec_ms, 99.0, P99_MIN_SAMPLES);
    pct("freeze_ms_p50", &t.freeze_ms, 50.0, 1);
    pct("freeze_ms_p99", &t.freeze_ms, 99.0, P99_MIN_SAMPLES);
    pct("migration_ms_p50", &t.migration_ms, 50.0, 1);
    // Owner returns to a station with no guests record a zero-length
    // reclaim; only reclaims that evicted something are timed.
    let mut evicting = Samples::new();
    for &v in t.reclaim_ms.values().iter().filter(|&&v| v > 0.0) {
        evicting.add(v);
    }
    pct("reclaim_ms_p90", &evicting, 90.0, 1);
    pct("exec_selection_ms_p50", &t.selection_ms, 50.0, 1);
    (gated, shown)
}

/// Median over traced runs of a per-run wall-time figure.
fn traced_median(m: &Measurement, f: impl Fn(&Outcome) -> f64) -> f64 {
    median(m.traced.iter().map(f))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics: counts from the untraced runs' registries and
/// reports, times from the traced runs (dispatch profiler slots and
/// benchmark-side spans).
fn per_layer(m: &Measurement) -> Vec<Metric> {
    let o = &m.plain[0];
    let t = &o.tally;
    let c = |n: &str| t.count(n);
    let dispatches = |kind: &str| o.slots.get(kind).map_or(0.0, |s| s.0 as f64);
    let slot_ms = |kind: &'static str| {
        traced_median(m, |x| x.slots.get(kind).map_or(0.0, |s| s.1 as f64 / 1e6))
    };
    let span_ms = |name: &'static str| {
        traced_median(m, |x| x.spans.get(name).map_or(0.0, |&ns| ns as f64 / 1e6))
    };
    let quarter_ns = |q: usize| {
        traced_median(m, |x| {
            ratio(x.quarters[q].ns as f64, x.quarters[q].events as f64)
        })
    };
    let cnt = "count";
    let (up, down) = (true, false);
    vec![
        metric("vsim.events", c("vsim.events"), cnt, down),
        metric(
            "vsim.events_cancelled",
            c("vsim.events_cancelled"),
            cnt,
            down,
        ),
        metric(
            "vsim.ns_per_event",
            traced_median(m, |x| ratio(x.run_ns as f64, x.tally.count("vsim.events"))),
            "ns",
            down,
        ),
        metric("vsim.ns_per_event_q1", quarter_ns(0), "ns", down),
        metric("vsim.ns_per_event_q4", quarter_ns(3), "ns", down),
        metric("vsim.sample_ticks", dispatches("SampleTick"), cnt, down),
        metric(
            "vsim.sample_ms",
            slot_ms("SampleTick") + span_ms("report.series"),
            "ms",
            down,
        ),
        metric("vsim.series_points", c("vsim.series_points"), cnt, down),
        metric("vnet.frames", c("vnet.frames"), cnt, down),
        metric("vnet.payload_mb", c("vnet.payload_bytes") / 1e6, "MB", down),
        metric(
            "vnet.wire_util",
            ratio(c("vnet.wire_busy_us"), c("sim_us")),
            "ratio",
            down,
        ),
        metric("vnet.frames_dropped", c("vnet.frames_dropped"), cnt, down),
        metric("vnet.frame_ms", slot_ms("Frame"), "ms", down),
        metric(
            "vnet.frame_ns",
            traced_median(m, |x| {
                x.slots
                    .get("Frame")
                    .map_or(0.0, |s| ratio(s.1 as f64, s.0 as f64))
            }),
            "ns",
            down,
        ),
        metric("vkernel.sends", c("vkernel.sends"), cnt, down),
        metric(
            "vkernel.retransmissions",
            c("vkernel.retransmissions"),
            cnt,
            down,
        ),
        metric(
            "vkernel.binding_hit_ratio",
            ratio(
                c("vkernel.binding_hits"),
                c("vkernel.binding_hits") + c("vkernel.binding_misses"),
            ),
            "ratio",
            up,
        ),
        metric(
            "vkernel.binding_entries_max",
            t.binding_entries_max,
            cnt,
            down,
        ),
        metric("vkernel.timer_ms", slot_ms("KernelTimer"), "ms", down),
        metric(
            "vkernel.orphaned_transactions",
            c("vkernel.orphaned_transactions"),
            cnt,
            down,
        ),
        metric("vservices.svc_timer_ms", slot_ms("SvcTimer"), "ms", down),
        metric(
            "vservices.leases_rebound",
            c("vservices.leases_rebound"),
            cnt,
            down,
        ),
        metric(
            "vservices.orphans_exterminated",
            c("vservices.orphans_exterminated"),
            cnt,
            down,
        ),
        metric("vservices.re_execs", c("vservices.re_execs"), cnt, down),
        metric(
            "vworkload.profile_build_ms",
            span_ms("vworkload.profile_build"),
            "ms",
            down,
        ),
        metric(
            "vworkload.user_transitions",
            c("vworkload.user_transitions"),
            cnt,
            down,
        ),
        metric("vcore.migrations", c("vcore.migrations"), cnt, up),
        metric(
            "vcore.migration_success_ratio",
            ratio(c("vcore.migrations_ok"), c("vcore.migrations")),
            "ratio",
            up,
        ),
        metric(
            "vcore.precopy_rounds_mean",
            t.precopy_rounds.mean(),
            cnt,
            down,
        ),
        metric(
            "vcore.precopied_mb",
            c("vcore.precopied_bytes") / 1e6,
            "MB",
            down,
        ),
        metric(
            "vcore.residual_kb_p50",
            t.residual_kb.median().unwrap_or(0.0),
            "KB",
            down,
        ),
        metric(
            "vcore.double_copied_ratio",
            ratio(c("vcore.double_copied_bytes"), c("vcore.network_bytes")),
            "ratio",
            down,
        ),
        // Share of successful `@*` time spent selecting a host. The
        // selection time itself (`exec_selection_ms_p50`) is printed with
        // the modelled metrics: a simulated time repeats exactly on a seed.
        metric(
            "vcore.exec_selection_share",
            ratio(
                t.selection_ms.values().iter().sum(),
                t.exec_ms.values().iter().sum(),
            ),
            "ratio",
            down,
        ),
        metric("vcluster.new_ms", span_ms("vcluster.new"), "ms", down),
        metric("vcluster.quanta", c("vcluster.quanta"), cnt, down),
        metric("vcluster.quantum_ms", slot_ms("QuantumEnd"), "ms", down),
        metric("vcluster.audit_ticks", dispatches("AuditTick"), cnt, down),
        metric(
            "vcluster.audit_ms",
            slot_ms("AuditTick") + span_ms("vcluster.audit"),
            "ms",
            down,
        ),
        metric(
            "vcluster.audit_violations",
            c("vcluster.audit_violations"),
            cnt,
            down,
        ),
        metric(
            "vcluster.faults_injected",
            c("vcluster.faults_injected"),
            cnt,
            up,
        ),
        metric(
            "vcluster.report_ms",
            span_ms("report.metrics") + span_ms("report.series"),
            "ms",
            down,
        ),
        metric(
            "trace.overhead_pct",
            (traced_median(m, |x| x.run_ns as f64)
                / median(m.plain.iter().map(|x| x.run_ns as f64))
                - 1.0)
                * 100.0,
            "%",
            down,
        ),
    ]
}

fn print_table(title: &str, rows: &[Metric]) {
    println!("\n{title}");
    println!("  {:<32} {:>16}  {:<6} better", "metric", "value", "unit");
    for r in rows {
        let dir = if r.higher_better { "higher" } else { "lower" };
        let n = r.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<32} {:>16.4}  {:<6} {dir}{n}", r.name, r.value, r.unit);
    }
}

fn print_ops(m: &Measurement) {
    let o = &m.plain[0];
    println!(
        "\n[{}] operations: {} attempted, {} failed; simulated-output hash {:016x} \
         (identical in {} untraced + {} traced runs: {})",
        m.workload.name(),
        o.ops.attempted,
        o.ops.failed(),
        o.hash,
        m.plain.len(),
        m.traced.len(),
        if m.problems.iter().any(|p| p.contains("hash")) {
            "no"
        } else {
            "yes"
        }
    );
    for (cause, n) in &o.ops.failures {
        let why = if cause == "plan not quiesced" {
            "\n      cause: in Cluster::dispatch (crates/cluster/src/runtime.rs) the \
             AuditTick and SampleTick arms each re-arm while pending() > 0, and each \
             counts the other as pending, so with audit and sampling both on the \
             queue never empties"
        } else {
            ""
        };
        println!("  failed: {n:>6} x {cause}{why}");
    }
    for p in &m.problems {
        println!("  CHECK FAILED: {p}");
    }
    let per_run: Vec<String> = m
        .plain
        .iter()
        .zip(&m.slowdown)
        .map(|(o, f)| format!("{:.1}x{f:.3}", o.raw_rate()))
        .collect();
    println!(
        "  raw sim_s_per_wall_s x host slowdown, by untraced run: {}",
        per_run.join(" ")
    );
}

/// Prints the operations and the end-to-end tables; returns the gated
/// metrics.
fn print_end_to_end(m: &Measurement) -> Vec<Metric> {
    let name = m.workload.name();
    print_ops(m);
    let (gated, shown) = end_to_end(m);
    print_table(&format!("[{name}] end to end (gated)"), &gated);
    print_table(
        &format!("[{name}] raw host time and modelled (simulated) time"),
        &shown,
    );
    gated
}

/// The result line: one JSON object.
fn result_json(m: &Measurement, rows: &[Metric]) -> String {
    let o = &m.plain[0];
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.problems.is_empty(),
        o.ops.attempted,
        o.ops.failed()
    );
    for (i, r) in rows.iter().enumerate() {
        let v = if r.value.is_finite() { r.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            r.name, r.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("sim_e2e: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let Some(w) = args.workload else {
        run_all(args.seed, args.seconds);
        return;
    };
    let m = measure(w, args.seed, args.seconds, args.trace);
    let gated = print_end_to_end(&m);
    let rows = if args.trace {
        let layers = per_layer(&m);
        print_table(&format!("[{}] per layer", w.name()), &layers);
        layers
    } else {
        gated
    };
    println!("{}", result_json(&m, &rows));
}

/// Every workload, untraced then traced, then once on a second seed to see
/// whether a new kind of failure appears.
fn run_all(seed: u64, seconds: f64) {
    let second_seed = seed ^ 0x5eed;
    let mut summary = Vec::new();
    for w in Workload::ALL {
        if !reset_peak_rss() {
            println!("[{}] note: VmHWM could not be reset", w.name());
        }
        let m = measure(w, seed, seconds, false);
        let t = measure(w, seed, seconds, true);
        print_end_to_end(&m);
        print_table(&format!("[{}] per layer", w.name()), &per_layer(&t));
        if t.plain[0].hash != m.plain[0].hash {
            println!("  CHECK FAILED: traced measurement hash differs");
        }
        let other = workloads::run(&Inputs::generate(w, second_seed), false, None);
        let kinds = |o: &Outcome| o.ops.failures.keys().cloned().collect::<BTreeSet<_>>();
        let new: Vec<_> = kinds(&other)
            .difference(&kinds(&m.plain[0]))
            .cloned()
            .collect();
        println!(
            "[{}] seed {second_seed}: {} attempted, {} failed; new failure kinds: {}",
            w.name(),
            other.ops.attempted,
            other.ops.failed(),
            if new.is_empty() {
                "none".to_string()
            } else {
                new.join(", ")
            }
        );
        summary.push((
            w,
            m.problems.is_empty() && t.problems.is_empty(),
            m.plain[0].ops.clone(),
        ));
    }
    println!();
    for (w, ok, ops) in summary {
        println!(
            "{:<8} correct={ok} attempted={} failed={}",
            w.name(),
            ops.attempted,
            ops.failed()
        );
    }
}
