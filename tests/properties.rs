//! Property-based tests on the core data structures and invariants,
//! spanning crates (run from the workspace root package).
//!
//! Each property is exercised over many deterministic, seeded random
//! cases (no external property-testing framework: inputs come from
//! [`DetRng`], so failures reproduce exactly).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use v_system::prelude::*;
use vkernel::split_units;
use vmem::{AddressSpace, BitSet, SpaceId, SpaceLayout, WwsParams, WwsSampler};
use vsim::{DetRng, Engine};

/// The event engine delivers in time order with FIFO tie-break,
/// regardless of insertion order.
#[test]
fn engine_delivers_in_order() {
    let mut rng = DetRng::seed(0xE1);
    for _case in 0..50 {
        let n = rng.index(200) + 1;
        let delays: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 10_000)).collect();
        let mut e: Engine<usize> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            e.schedule_after(SimDuration::from_micros(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = vec![false; delays.len()];
        while let Some((t, i)) = e.step() {
            assert!(t >= last, "time went backwards");
            assert_eq!(t.as_micros(), delays[i]);
            assert!(!seen[i], "duplicate delivery");
            seen[i] = true;
            last = t;
        }
        assert!(seen.iter().all(|&s| s), "lost event");
    }
}

/// Cancellation removes exactly the cancelled events.
#[test]
fn engine_cancellation_is_exact() {
    let mut rng = DetRng::seed(0xE2);
    for _case in 0..50 {
        let n = rng.index(100) + 1;
        let delays: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000)).collect();
        let cancel_mask: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let mut e: Engine<usize> = Engine::new();
        let ids: Vec<_> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| e.schedule_after(SimDuration::from_micros(d), i))
            .collect();
        let mut expected = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                e.cancel(*id);
            } else {
                expected.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, i)) = e.step() {
            got.push(i);
        }
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}

/// An event payload that counts its own drops, so the property below can
/// check that the engine drops every event exactly once.
#[derive(Debug)]
struct Counted {
    id: usize,
    drops: Rc<RefCell<Vec<u32>>>,
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.borrow_mut()[self.id] += 1;
    }
}

/// The timing-wheel queue is observationally identical to the binary
/// heap, and both match a `BTreeMap<(at, seq), id>` reference model:
/// identical schedule/cancel/step sequences produce identical
/// `(time, event)` pop orders — including FIFO same-instant tie-break —
/// across 48 seeds, with delays that land on every wheel level and
/// beyond the wheel horizon into the overflow map. Cancels hit live,
/// delivered and already-cancelled ids alike, so engine slots are
/// recycled while stale ids still point at them. `pending()` and the
/// queue gauges must be exact after every operation, and every event
/// must be dropped exactly once: when delivered, when cancelled, or when
/// the engine drops. Seeds 0..32 drain both engines to the end and
/// compare the tails; seeds 32..48 stop after the operations, so their
/// still-queued events are dropped with the engines.
#[test]
fn queue_backends_are_observationally_identical() {
    // The queues order keys, not events: a key must stay this small.
    assert!(std::mem::size_of::<vsim::EventKey>() <= 24);
    for seed in 0..48u64 {
        let mut rng = DetRng::seed(0x3E0 + seed);
        let heap_drops = Rc::new(RefCell::new(Vec::new()));
        let wheel_drops = Rc::new(RefCell::new(Vec::new()));
        let mut heap: Engine<Counted> = Engine::with_backend(QueueBackend::Heap);
        let mut wheel: Engine<Counted> = Engine::with_backend(QueueBackend::TimingWheel);
        let mut model: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
        // Keys of cancelled events the engines have not popped yet.
        let mut tombstones: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut ids: Vec<(EventId, EventId, (SimTime, u64))> = Vec::new();
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        // How often each event should have been dropped by now.
        let mut dropped: Vec<u32> = Vec::new();
        let mut next_seq = 0u64;
        for _ in 0..400 {
            match rng.index(10) {
                // Mostly schedules, spanning instants (FIFO ties), each
                // wheel level, and the far-future overflow region.
                0..=5 => {
                    let d = match rng.index(5) {
                        0 => 0,
                        1 => rng.range_u64(1, 64),
                        2 => rng.range_u64(64, 1 << 18),
                        3 => rng.range_u64(1 << 18, 1 << 30),
                        // Past the ~19-simulated-hour wheel horizon.
                        _ => rng.range_u64(1 << 36, 1 << 40),
                    };
                    let d = SimDuration::from_micros(d);
                    let id = ids.len();
                    heap_drops.borrow_mut().push(0);
                    wheel_drops.borrow_mut().push(0);
                    let key = (heap.now() + d, next_seq);
                    next_seq += 1;
                    let a = heap.schedule_after(
                        d,
                        Counted {
                            id,
                            drops: Rc::clone(&heap_drops),
                        },
                    );
                    let b = wheel.schedule_after(
                        d,
                        Counted {
                            id,
                            drops: Rc::clone(&wheel_drops),
                        },
                    );
                    assert_eq!(a, b, "seed {seed}: id streams diverged");
                    model.insert(key, id);
                    dropped.push(0);
                    ids.push((a, b, key));
                }
                6..=7 => {
                    if !ids.is_empty() {
                        let (a, b, key) = ids[rng.index(ids.len())];
                        heap.cancel(a);
                        wheel.cancel(b);
                        if let Some(id) = model.remove(&key) {
                            tombstones.insert(key);
                            dropped[id] = 1;
                        }
                    }
                }
                _ => {
                    let h = heap.step();
                    let w = wheel.step();
                    assert_eq!(h, w, "seed {seed}: pop order diverged");
                    let expected = model.pop_first();
                    assert_eq!(
                        h.as_ref().map(|(t, c)| (*t, c.id)),
                        expected.map(|((t, _), id)| (t, id)),
                        "seed {seed}: engines diverged from the model"
                    );
                    // Popping a key pops every tombstone ordered before it.
                    match expected {
                        Some((key, _)) => tombstones = tombstones.split_off(&key),
                        None => tombstones.clear(),
                    }
                    if let Some((t, c)) = h {
                        dropped[c.id] = 1;
                        popped.push((t, c.id));
                    }
                }
            }
            assert_eq!(heap.now(), wheel.now(), "seed {seed}: clocks diverged");
            assert_eq!(heap.pending(), model.len(), "seed {seed}: heap pending()");
            assert_eq!(wheel.pending(), model.len(), "seed {seed}: wheel pending()");
            // The registry gauges are exact on both backends: depth
            // mirrors the live events, tombstones the cancelled keys
            // still queued.
            for (name, e) in [("heap", &heap), ("wheel", &wheel)] {
                let g = e.metrics().snapshot(name);
                assert_eq!(
                    g.gauge(Subsystem::Engine, "queue_depth"),
                    Some(model.len() as f64),
                    "seed {seed}: {name} depth gauge"
                );
                assert_eq!(
                    g.gauge(Subsystem::Engine, "tombstones"),
                    Some(tombstones.len() as f64),
                    "seed {seed}: {name} tombstone gauge"
                );
            }
            // Delivered and cancelled events are dropped exactly once;
            // pending ones not at all.
            assert_eq!(*heap_drops.borrow(), dropped, "seed {seed}: heap drops");
            assert_eq!(*wheel_drops.borrow(), dropped, "seed {seed}: wheel drops");
        }
        if seed < 32 {
            // Drain both to the end; the tails must agree too.
            while let Some(h) = heap.step() {
                assert_eq!(
                    Some(&h),
                    wheel.step().as_ref(),
                    "seed {seed}: drain diverged"
                );
                let ((t, _), id) = model.pop_first().expect("model has the event");
                assert_eq!((t, id), (h.0, h.1.id), "seed {seed}: drain left the model");
                popped.push((h.0, h.1.id));
            }
            assert!(
                wheel.step().is_none(),
                "seed {seed}: wheel had extra events"
            );
            assert!(model.is_empty(), "seed {seed}: engines lost events");
            // A drained queue reads depth 0 and no tombstones.
            for (name, e) in [("heap", &heap), ("wheel", &wheel)] {
                let g = e.metrics().snapshot(name);
                assert_eq!(g.gauge(Subsystem::Engine, "queue_depth"), Some(0.0));
                assert_eq!(g.gauge(Subsystem::Engine, "tombstones"), Some(0.0));
            }
        }
        // Dropping the engines drops whatever is still queued; an
        // undrained seed must leave some events behind to test that.
        assert!(
            seed < 32 || !model.is_empty(),
            "seed {seed}: nothing left queued at engine drop"
        );
        drop(heap);
        drop(wheel);
        for drops in [&heap_drops, &wheel_drops] {
            assert!(
                drops.borrow().iter().all(|&n| n == 1),
                "seed {seed}: an event was not dropped exactly once"
            );
        }
        assert!(
            popped.windows(2).all(|w| w[0].0 <= w[1].0),
            "seed {seed}: time went backwards"
        );
    }
}

/// BitSet agrees with a reference HashSet model under arbitrary
/// set/clear sequences.
#[test]
fn bitset_matches_model() {
    let mut rng = DetRng::seed(0xB1);
    for _case in 0..50 {
        let n_ops = rng.index(300) + 1;
        let mut b = BitSet::new(256);
        let mut model = std::collections::HashSet::new();
        for _ in 0..n_ops {
            let i = rng.index(256);
            if rng.chance(0.5) {
                b.set(i);
                model.insert(i);
            } else {
                b.clear(i);
                model.remove(&i);
            }
        }
        assert_eq!(b.count(), model.len());
        let mut got: Vec<usize> = b.iter().collect();
        let mut want: Vec<usize> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

/// split_units partitions the page list exactly: every page appears
/// once, in order, and no unit exceeds the unit size.
#[test]
fn split_units_partitions() {
    let mut rng = DetRng::seed(0x51);
    for _case in 0..60 {
        let n_pages = rng.range_u64(0, 2000) as u32;
        let unit_kb = rng.range_u64(2, 128);
        let pages: Vec<u32> = (0..n_pages).collect();
        let units = split_units(&pages, unit_kb * 1024);
        let flat: Vec<u32> = units.iter().flat_map(|u| u.pages.iter().copied()).collect();
        assert_eq!(flat, pages);
        for u in &units {
            assert!(u.bytes <= unit_kb * 1024);
            assert_eq!(u.bytes, u.pages.len() as u64 * 2048);
        }
    }
}

/// The WWS fit never panics on positive monotone-ish inputs and its
/// predictions are non-negative and monotone in the window length.
#[test]
fn wws_fit_is_sane() {
    let mut rng = DetRng::seed(0x77);
    for _case in 0..100 {
        let y1 = rng.range_f64(0.1, 100.0);
        let dy2 = rng.range_f64(0.0, 100.0);
        let dy3 = rng.range_f64(0.0, 100.0);
        let points = [(0.2, y1), (1.0, y1 + dy2), (3.0, y1 + dy2 + dy3)];
        let fit = WwsParams::fit_quantized(&points, 2.0);
        let mut prev = 0.0;
        for t in [0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 10.0] {
            let v = fit.expected_dirty_kb_quantized(t, 2.0);
            assert!(v >= prev - 1e-9, "non-monotone at {t}: {v} < {prev}");
            prev = v;
        }
    }
}

/// The sampler never dirties more pages than are writable and never
/// touches read-only segments.
#[test]
fn sampler_respects_protection() {
    let mut rng = DetRng::seed(0x5A);
    for _case in 0..40 {
        let hot = rng.range_f64(0.0, 500.0);
        let w = rng.range_f64(0.0, 2000.0);
        let r = rng.range_f64(0.0, 200.0);
        let seed = rng.range_u64(0, u64::MAX - 1);
        let layout = SpaceLayout {
            code_bytes: 64 * 1024,
            init_data_bytes: 16 * 1024,
            heap_bytes: 128 * 1024,
            stack_bytes: 8 * 1024,
        };
        let mut space = AddressSpace::new(SpaceId(0), layout);
        let mut case_rng = DetRng::seed(seed);
        let params = WwsParams {
            hot_kb: hot,
            hot_write_kb_per_sec: w,
            cold_kb_per_sec: r,
        };
        let mut s = WwsSampler::new(params, &space, &mut case_rng);
        // write_page panics on read-only pages, so surviving is the test.
        s.advance(SimDuration::from_secs(5), &mut space, &mut case_rng);
        assert!(space.dirty_pages() <= space.writable_page_count());
    }
}

/// Duration formatting/parsing invariants used by reports.
#[test]
fn duration_arithmetic_consistent() {
    let mut rng = DetRng::seed(0xD1);
    for _case in 0..200 {
        let a = rng.range_u64(0, 1 << 40);
        let b = rng.range_u64(0, 1 << 40);
        let (da, db) = (SimDuration::from_micros(a), SimDuration::from_micros(b));
        assert_eq!((da + db).as_micros(), a + b);
        let t = SimTime::ZERO + da;
        assert_eq!(t.since(SimTime::ZERO), da);
        assert_eq!((t + db) - t, db);
    }
}

/// Whole-cluster invariant: for any (small) mix of programs started
/// via @*, every execution either succeeds and eventually finishes,
/// or fails cleanly — and every logical host is on at most one
/// workstation at the end.
#[test]
fn cluster_executions_settle() {
    let mut rng = DetRng::seed(0xC1);
    for _case in 0..12 {
        let n_jobs = rng.index(3) + 1;
        let seed = rng.range_u64(0, 1000);
        let mut c = Cluster::new(ClusterConfig {
            workstations: 4,
            seed,
            loss: LossModel::None,
            ..ClusterConfig::default()
        });
        for j in 0..n_jobs {
            let name = ["make", "cc68", "preprocessor"][j % 3];
            let row = profiles::row(name).expect("row");
            c.exec(
                1 + j % 4,
                profiles::steady_profile(row),
                ExecTarget::AnyIdle,
                Priority::GUEST,
            );
        }
        c.run_for(SimDuration::from_secs(120));
        assert_eq!(c.exec_reports.len(), n_jobs);
        let ok = c.exec_reports.iter().filter(|r| r.success).count();
        assert_eq!(c.stats.programs_finished as usize, ok);
        // No logical host is resident twice.
        for r in &c.exec_reports {
            if let Some(lh) = r.lh {
                let residents = c
                    .stations
                    .iter()
                    .filter(|w| w.kernel.is_resident(lh))
                    .count();
                assert!(residents <= 1, "{lh} resident {residents} times");
            }
        }
    }
}

/// Dominance: for any dirty behaviour, pre-copy's freeze time is no
/// worse than freeze-and-copy's (and strictly better for any program
/// with a reasonable working set).
#[test]
fn precopy_never_freezes_longer_than_naive() {
    use vcore::{MigrationConfig, StopPolicy, Strategy};
    use vmem::{SpaceLayout, WwsParams};

    let mut rng = DetRng::seed(0xF1);
    for _case in 0..8 {
        let hot_kb = rng.range_f64(1.0, 120.0);
        let write_rate = rng.range_f64(1.0, 600.0);
        let cold = rng.range_f64(0.0, 30.0);
        let seed = rng.range_u64(0, 500);

        let freeze_of = |strategy: Strategy| {
            let mut c = Cluster::new(ClusterConfig {
                workstations: 3,
                seed,
                loss: LossModel::None,
                migration: MigrationConfig {
                    strategy,
                    ..MigrationConfig::default()
                },
                ..ClusterConfig::default()
            });
            let profile = ProgramProfile::steady(
                "subject",
                SpaceLayout {
                    code_bytes: 96 * 1024,
                    init_data_bytes: 16 * 1024,
                    heap_bytes: 512 * 1024,
                    stack_bytes: 16 * 1024,
                },
                WwsParams {
                    hot_kb,
                    hot_write_kb_per_sec: write_rate,
                    cold_kb_per_sec: cold,
                },
                SimDuration::from_secs(3600),
            );
            c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
            c.run_for(SimDuration::from_secs(15));
            let lh = c.exec_reports[0].lh.expect("created");
            c.migrateprog(2, lh, false);
            c.run_for(SimDuration::from_secs(120));
            let r = c.migration_reports[0].clone();
            assert!(r.success, "{r:?}");
            r.freeze_time
        };

        let pre = freeze_of(Strategy::PreCopy(StopPolicy::default()));
        let naive = freeze_of(Strategy::FreezeAndCopy);
        assert!(
            pre <= naive,
            "pre-copy froze {pre} vs naive {naive} (hot={hot_kb:.0}KB w={write_rate:.0}KB/s r={cold:.0}KB/s)"
        );
    }
}
