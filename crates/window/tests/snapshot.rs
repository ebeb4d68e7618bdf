//! Determinism proof for engine checkpoint/restore.
//!
//! The contract: *run N slots → snapshot → restore into a fresh engine →
//! run M slots* is bit-identical — same metrics bit patterns, same channel
//! accounting, same trace-event stream — to the uninterrupted N+M run.
//! Proven here under faults, churn, and all three `WindowController`s,
//! with snapshots taken at mid-run decision boundaries (while collision
//! clusters, orphans, and down stations are in flight).
//!
//! The restore target is deliberately built with a *different* seed: every
//! RNG stream position must come from the snapshot, not the constructor.

use tcw_mac::{ChannelConfig, ChurnPlan, FaultPlan, MergedSource, PoissonArrivals, TraceArrivals};
use tcw_sim::time::{Dur, Time};
use tcw_window::engine::poisson_engine;
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::{NoopObserver, TraceRecorder};
use tcw_window::{AimdConfig, ControllerConfig, Engine, EngineConfig, EstimatorConfig};

const HORIZON: u64 = 80_000;

fn channel() -> ChannelConfig {
    ChannelConfig {
        ticks_per_tau: 4,
        message_slots: 5,
        guard: false,
    }
}

fn measure() -> MeasureConfig {
    MeasureConfig {
        start: Time::from_ticks(1_000),
        end: Time::from_ticks(60_000),
        deadline: Dur::from_ticks(300),
    }
}

fn policy() -> ControlPolicy {
    ControlPolicy::controlled(Dur::from_ticks(300), Dur::from_ticks(12))
}

fn controllers() -> [ControllerConfig; 3] {
    [
        ControllerConfig::Static,
        ControllerConfig::Aimd(AimdConfig::around(12)),
        ControllerConfig::Estimator(EstimatorConfig::around(12)),
    ]
}

fn build(
    seed: u64,
    plan: &FaultPlan,
    churn: &ChurnPlan,
    ctl: &ControllerConfig,
) -> Engine<PoissonArrivals> {
    let mut eng = poisson_engine(channel(), policy(), measure(), 0.6, 20, seed);
    eng.set_fault_plan(*plan);
    eng.set_churn_plan(*churn, 20);
    eng.set_controller(ctl.build());
    eng
}

/// Joins two recorder texts; `TraceRecorder::text` has no trailing
/// newline, so a bare `+` would glue the halves' boundary events together.
fn cat(a: String, b: String) -> String {
    if a.is_empty() || b.is_empty() {
        a + &b
    } else {
        a + "\n" + &b
    }
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Renders every observable output of a finished engine plus the hash of
/// the trace text accumulated across its (possibly split) run.
fn fingerprint(eng: &Engine<PoissonArrivals>, trace: &str) -> String {
    let m = &eng.metrics;
    let c = &eng.channel_stats;
    format!(
        "offered={} sender={} receiver={} loss={:016x} now={} succ={} coll={} idle={} erased={} \
         paper_mean={:016x} true_mean={:016x} sched={:016x} slots={:016x} util={:016x} \
         corrupted={} resyncs={} abandoned={} reopened={} fault_losses={} \
         churn_blocked={} churn_losses={} churn_reopened={} \
         ctl_w={} ctl_shrinks={} ctl_grows={} churn_slot={} crashes={} restarts={} \
         true_p95={:?} true_p99={:?} trace={:016x}",
        m.offered(),
        m.sender_lost(),
        m.receiver_lost(),
        m.loss_fraction().to_bits(),
        eng.now().ticks(),
        c.successes,
        c.collision_slots,
        c.idle_slots,
        c.erased_slots,
        m.paper_delay().mean().to_bits(),
        m.true_delay().mean().to_bits(),
        m.sched_time().mean().to_bits(),
        m.sched_slots().mean().to_bits(),
        c.utilization().to_bits(),
        m.corrupted_slots(),
        m.resyncs(),
        m.rounds_abandoned(),
        m.reopened(),
        m.fault_losses(),
        m.churn_blocked(),
        m.churn_losses(),
        m.churn_reopened(),
        eng.controller().window_ticks(),
        eng.controller().shrinks(),
        eng.controller().grows(),
        eng.churn().slot(),
        eng.churn().crashes(),
        eng.churn().restarts(),
        m.true_delay_p95(),
        m.true_delay_p99(),
        fnv1a(trace),
    )
}

/// The uninterrupted reference: one engine, straight to the horizon + drain.
fn uninterrupted(seed: u64, plan: &FaultPlan, churn: &ChurnPlan, ctl: &ControllerConfig) -> String {
    let mut eng = build(seed, plan, churn, ctl);
    let mut rec = TraceRecorder::new(1_000_000);
    eng.run_until(Time::from_ticks(HORIZON), &mut rec);
    eng.drain(&mut rec);
    fingerprint(&eng, &rec.text())
}

/// The interrupted run: run to `split`, snapshot, restore into a fresh
/// engine built with a different seed, finish there.
fn interrupted(
    seed: u64,
    plan: &FaultPlan,
    churn: &ChurnPlan,
    ctl: &ControllerConfig,
    split: u64,
) -> String {
    let mut first = build(seed, plan, churn, ctl);
    let mut rec_a = TraceRecorder::new(1_000_000);
    first.run_until(Time::from_ticks(split), &mut rec_a);
    assert!(
        first.pending_count() > 0 || first.now().ticks() > 0,
        "split point produced an empty run"
    );
    let words = first.snapshot().expect("snapshot");
    drop(first);

    let mut second = build(seed ^ 0xdead_beef, plan, churn, ctl);
    second.restore(&words).expect("restore");
    let mut rec_b = TraceRecorder::new(1_000_000);
    second.run_until(Time::from_ticks(HORIZON), &mut rec_b);
    second.drain(&mut rec_b);
    fingerprint(&second, &cat(rec_a.text(), rec_b.text()))
}

fn regimes() -> [(FaultPlan, ChurnPlan); 3] {
    [
        (FaultPlan::none(), ChurnPlan::none()),
        (FaultPlan::uniform(0.05), ChurnPlan::none()),
        (
            FaultPlan::uniform(0.05),
            ChurnPlan::crash_restart(0.002, 40, 100),
        ),
    ]
}

#[test]
fn snapshot_restore_is_bit_identical_across_regimes_and_controllers() {
    // Split points land mid-measurement, while collision resolution,
    // orphan reopening, and churn outages are in progress.
    let splits = [9_973, 41_250];
    for (plan, churn) in regimes() {
        for ctl in controllers() {
            for seed in [11, 47] {
                let full = uninterrupted(seed, &plan, &churn, &ctl);
                for split in splits {
                    let cut = interrupted(seed, &plan, &churn, &ctl, split);
                    assert_eq!(
                        cut, full,
                        "snapshot at {split} diverged (seed {seed}, ctl {ctl:?}, \
                         plan {plan:?}, churn {churn:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn snapshot_between_single_steps_is_bit_identical() {
    // Step-granular splits: snapshot after every k-th decision cycle of a
    // congested faulty run, which lands between the windowing rounds of
    // unresolved collision backlogs.
    let plan = FaultPlan::uniform(0.05);
    let churn = ChurnPlan::crash_restart(0.002, 40, 100);
    let ctl = ControllerConfig::Aimd(AimdConfig::around(12));
    let full = uninterrupted(23, &plan, &churn, &ctl);
    let mut saw_backlog = false;
    for steps in [137, 1_009, 4_999] {
        let mut first = build(23, &plan, &churn, &ctl);
        let mut rec_a = TraceRecorder::new(1_000_000);
        for _ in 0..steps {
            first.step(&mut rec_a);
        }
        saw_backlog |= first.pending_count() > 0;
        let words = first.snapshot().expect("snapshot");
        let mut second = build(24, &plan, &churn, &ctl);
        second.restore(&words).expect("restore");
        let mut rec_b = TraceRecorder::new(1_000_000);
        second.run_until(Time::from_ticks(HORIZON), &mut rec_b);
        second.drain(&mut rec_b);
        let cut = fingerprint(&second, &cat(rec_a.text(), rec_b.text()));
        assert_eq!(cut, full, "step-split at {steps} cycles diverged");
    }
    assert!(
        saw_backlog,
        "no split landed mid-backlog; test lost its bite"
    );
}

/// A faults + crash-churn engine revived from a mid-run snapshot reaches
/// the same snapshot words as the engine it came from, whether a
/// slow-path recorder steps every slot or the fast path jumps across the
/// crash clock's idle stretches.
#[test]
fn faults_and_crashes_restore_to_the_same_snapshot_words() {
    let plan = FaultPlan::uniform(0.05);
    let churn = ChurnPlan::crash_restart(0.002, 40, 100);
    let ctl = ControllerConfig::Aimd(AimdConfig::around(12));
    for traced in [true, false] {
        // The same observer kind on both engines: a slow-path observer
        // turns the fast path off, and the fast path's counters are
        // snapshot words.
        let run = |eng: &mut Engine<PoissonArrivals>, to: u64| {
            let to = Time::from_ticks(to);
            if traced {
                eng.run_until(to, &mut TraceRecorder::new(1_000_000));
            } else {
                eng.run_until(to, &mut NoopObserver);
            }
        };
        let mut eng = build(31, &plan, &churn, &ctl);
        run(&mut eng, 9_973);
        let split = eng.snapshot().expect("snapshot");
        run(&mut eng, 41_250);
        let mut revived = build(32, &plan, &churn, &ctl);
        revived.restore(&split).expect("restore");
        run(&mut revived, 41_250);
        assert_eq!(
            revived.snapshot().expect("snapshot"),
            eng.snapshot().expect("snapshot"),
            "restore diverged (traced: {traced})"
        );
        assert!(eng.churn().crashes() > 0, "no crash (traced: {traced})");
        assert_eq!(eng.horizon_stats.jumps > 0, !traced);
    }
}

#[test]
fn corrupted_snapshots_are_rejected() {
    let mut eng = build(
        11,
        &FaultPlan::uniform(0.05),
        &ChurnPlan::none(),
        &ControllerConfig::Static,
    );
    eng.run_until(Time::from_ticks(20_000), &mut NoopObserver);
    let words = eng.snapshot().expect("snapshot");

    // Every single-bit flip across a spread of positions is caught.
    for idx in [0, 1, 2, words.len() / 2, words.len() - 2, words.len() - 1] {
        for bit in [0, 17, 63] {
            let mut bad = words.clone();
            bad[idx] ^= 1u64 << bit;
            let mut target = build(
                12,
                &FaultPlan::uniform(0.05),
                &ChurnPlan::none(),
                &ControllerConfig::Static,
            );
            assert!(
                target.restore(&bad).is_err(),
                "bit {bit} of word {idx} flipped undetected"
            );
        }
    }

    // Truncation at any prefix length is caught.
    for cut in [0, 1, words.len() / 2, words.len() - 1] {
        let mut target = build(
            12,
            &FaultPlan::uniform(0.05),
            &ChurnPlan::none(),
            &ControllerConfig::Static,
        );
        assert!(target.restore(&words[..cut]).is_err(), "truncated at {cut}");
    }
}

#[test]
fn stale_format_is_rejected_even_with_valid_checksum() {
    let mut eng = build(
        11,
        &FaultPlan::none(),
        &ChurnPlan::none(),
        &ControllerConfig::Static,
    );
    eng.run_until(Time::from_ticks(10_000), &mut NoopObserver);
    let words = eng.snapshot().expect("snapshot");

    // A future format version with a recomputed (valid) checksum must be
    // rejected by the format gate, not misdecoded.
    let mut stale = words.clone();
    stale[1] += 1;
    let n = stale.len();
    stale[n - 1] = tcw_sim::snap::checksum(&stale[..n - 1]);
    let mut target = build(
        12,
        &FaultPlan::none(),
        &ChurnPlan::none(),
        &ControllerConfig::Static,
    );
    let err = target.restore(&stale).unwrap_err();
    assert!(err.to_string().contains("format"), "got: {err}");

    // So is a format-4 snapshot, whose members carried outage countdowns
    // instead of crash and restart slots.
    let mut old = words.clone();
    old[1] = 4;
    let n = old.len();
    old[n - 1] = tcw_sim::snap::checksum(&old[..n - 1]);
    let err = target.restore(&old).unwrap_err();
    assert_eq!(
        err.to_string(),
        "snapshot error: unsupported snapshot format 4 (expected 5)",
        "got: {err}"
    );

    // Same for a non-snapshot payload (bad magic).
    let mut alien = words;
    alien[0] ^= 0xffff;
    let n = alien.len();
    alien[n - 1] = tcw_sim::snap::checksum(&alien[..n - 1]);
    let err = target.restore(&alien).unwrap_err();
    assert!(err.to_string().contains("magic"), "got: {err}");
}

#[test]
fn controller_kind_mismatch_is_rejected() {
    let mut eng = build(
        11,
        &FaultPlan::none(),
        &ChurnPlan::none(),
        &ControllerConfig::Aimd(AimdConfig::around(12)),
    );
    eng.run_until(Time::from_ticks(10_000), &mut NoopObserver);
    let words = eng.snapshot().expect("snapshot");
    let mut target = build(
        11,
        &FaultPlan::none(),
        &ChurnPlan::none(),
        &ControllerConfig::Static,
    );
    assert!(
        target.restore(&words).is_err(),
        "AIMD snapshot restored into a static controller"
    );
}

#[test]
fn unsupported_source_refuses_to_snapshot() {
    let src = MergedSource::new(vec![
        Box::new(TraceArrivals::from_ticks(&[(10, 0), (20, 1)])),
        Box::new(TraceArrivals::from_ticks(&[(15, 2)])),
    ]);
    let eng = Engine::new(
        EngineConfig {
            channel: channel(),
            policy: policy(),
            measure: measure(),
            seed: 7,
        },
        src,
    );
    assert!(eng.snapshot().is_err());
}

#[test]
fn trace_source_cursor_round_trips() {
    // A finite trace source: snapshot mid-trace, restore, and the
    // remaining arrivals come out exactly once.
    let pairs: Vec<(u64, u32)> = (0..200).map(|i| (i * 37 + 5, (i % 7) as u32)).collect();
    let mut eng = Engine::new(
        EngineConfig {
            channel: channel(),
            policy: policy(),
            measure: measure(),
            seed: 7,
        },
        TraceArrivals::from_ticks(&pairs),
    );
    let mut full = Engine::new(
        EngineConfig {
            channel: channel(),
            policy: policy(),
            measure: measure(),
            seed: 7,
        },
        TraceArrivals::from_ticks(&pairs),
    );
    full.run_until(Time::from_ticks(3_000), &mut NoopObserver);
    full.drain(&mut NoopObserver);
    eng.run_until(Time::from_ticks(3_000), &mut NoopObserver);
    let words = eng.snapshot().expect("snapshot");
    let mut target = Engine::new(
        EngineConfig {
            channel: channel(),
            policy: policy(),
            measure: measure(),
            seed: 8,
        },
        TraceArrivals::from_ticks(&pairs),
    );
    target.restore(&words).expect("restore");
    target.drain(&mut NoopObserver);
    assert_eq!(target.channel_stats.successes, full.channel_stats.successes);
    assert_eq!(target.metrics.offered(), full.metrics.offered());
    assert_eq!(target.now(), full.now());
}

/// Checkpoint/restore around the event-horizon fast path: a light-load
/// run whose stretches are executed by the idle-jump kernel snapshots at
/// points the jump lands on mid-stretch, restores into a fresh engine,
/// and continues bit-identically — including the `HorizonStats`
/// accounting and the `jump_ahead` switch itself, which both live in the
/// snapshot (format v2).
#[test]
fn snapshot_mid_jump_continues_bit_identically() {
    let light = |seed: u64| {
        let mut eng = poisson_engine(channel(), policy(), measure(), 0.05, 20, seed);
        eng.set_controller(ControllerConfig::Static.build());
        eng
    };

    let mut full = light(31);
    full.run_until(Time::from_ticks(HORIZON), &mut NoopObserver);
    full.drain(&mut NoopObserver);
    let reference = fingerprint(&full, "");
    assert!(
        full.horizon_stats.jumps > 0,
        "light-load run must exercise the idle jump"
    );

    // Split points chosen off decision boundaries: `run_until` overshoots
    // each to wherever the in-flight jump or round actually lands.
    for split in [7_919, 23_677, 59_999] {
        let mut first = light(31);
        first.run_until(Time::from_ticks(split), &mut NoopObserver);
        let stats_at_split = first.horizon_stats;
        assert!(stats_at_split.jumps > 0, "split {split} before first jump");
        let words = first.snapshot().expect("snapshot mid-jump");
        drop(first);

        let mut second = light(31 ^ 0xdead_beef);
        second.set_jump_ahead(false); // must be overwritten by restore
        second.restore(&words).expect("restore mid-jump");
        assert!(second.jump_ahead(), "jump_ahead flag lost in round trip");
        assert_eq!(
            second.horizon_stats, stats_at_split,
            "horizon stats lost in round trip"
        );
        second.run_until(Time::from_ticks(HORIZON), &mut NoopObserver);
        second.drain(&mut NoopObserver);
        assert_eq!(
            fingerprint(&second, ""),
            reference,
            "split {split} diverged after restore"
        );
        assert!(
            second.horizon_stats.jumps >= stats_at_split.jumps,
            "restored engine stopped jumping"
        );
    }
}
