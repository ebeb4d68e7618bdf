//! Golden-output pins for the engine hot path.
//!
//! The zero-allocation work inside [`tcw_window::engine`] promises *bit
//! identity*: metrics, channel accounting and trace events on a fixed seed
//! must match the pre-optimization engine exactly. These tests pin
//! fingerprints captured from the engine **before** the scratch-buffer
//! rework landed; any optimization that changes a probe decision, an RNG
//! draw, or a metric by even one bit fails here.
//!
//! Three seeds × three regimes (clean, fault-injected, churn + faults)
//! cover the allocation sites that were rewritten: the window-occupancy
//! query, the rejoin/orphan/leave key sweeps, and the sub-tick cluster
//! partition.

use tcw_mac::{ChannelConfig, ChurnPlan, FaultPlan};
use tcw_sim::time::{Dur, Time};
use tcw_window::engine::poisson_engine;
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::TraceRecorder;

const SEEDS: [u64; 3] = [11, 23, 47];

/// FNV-1a over the full trace text: any reordered, added or dropped
/// trace event changes the fingerprint.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Runs one engine to a fixed horizon plus drain and renders every
/// observable output — counters, f64 metrics (as exact bit patterns),
/// channel accounting and the trace-event hash — into one line.
fn fingerprint(seed: u64, plan: FaultPlan, churn: ChurnPlan) -> String {
    let channel = ChannelConfig {
        ticks_per_tau: 4,
        message_slots: 5,
        guard: false,
    };
    let measure = MeasureConfig {
        start: Time::from_ticks(1_000),
        end: Time::from_ticks(60_000),
        deadline: Dur::from_ticks(300),
    };
    let mut eng = poisson_engine(
        channel,
        ControlPolicy::controlled(Dur::from_ticks(300), Dur::from_ticks(12)),
        measure,
        0.6,
        20,
        seed,
    );
    eng.set_fault_plan(plan);
    eng.set_churn_plan(churn, 20);
    let mut rec = TraceRecorder::new(1_000_000);
    eng.run_until(Time::from_ticks(80_000), &mut rec);
    eng.drain(&mut rec);
    let m = &eng.metrics;
    let c = &eng.channel_stats;
    format!(
        "offered={} sender={} receiver={} loss={:016x} now={} succ={} coll={} idle={} erased={} \
         paper_mean={:016x} true_mean={:016x} sched={:016x} slots={:016x} util={:016x} \
         corrupted={} resyncs={} abandoned={} reopened={} fault_losses={} \
         churn_blocked={} churn_losses={} churn_reopened={} trace={:016x}",
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
        fnv1a(&rec.text()),
    )
}

fn faulty() -> FaultPlan {
    FaultPlan::uniform(0.05)
}

fn churny() -> ChurnPlan {
    ChurnPlan::crash_restart(0.002, 40, 100)
}

/// Golden fingerprints captured from the pre-optimization engine
/// (commit `fe796eb`, before the scratch-buffer rework), one per
/// (regime, seed): clean, fault-injected, churn + faults.
///
/// The churn trace hashes were regenerated once (DESIGN.md §7): fixing
/// the leave-during-delivery ordering bug moved `on_transmit` ahead of
/// the same slot's churn events. Every metric stayed bit-identical;
/// only the event order inside churn slots changed. The churn + fault
/// fingerprints were re-derived once more when the per-slot crash draws
/// gave way to the crash clock (DESIGN.md §6): the same Geometric up
/// periods, drawn once per station that comes up, so other draws and
/// other crash slots.
const GOLDEN_CLEAN: [&str; 3] = [
    "offered=1753 sender=0 receiver=0 loss=0000000000000000 now=80028 succ=2389 coll=565 idle=7497 erased=0 paper_mean=4044c63e3608785b true_mean=4045619fe8a26434 sched=4013d96c5627a5ed slots=3fd2ac186e963c2d util=3fe31af5cd4ddc5a corrupted=0 resyncs=0 abandoned=0 reopened=0 fault_losses=0 churn_blocked=0 churn_losses=0 churn_reopened=0 trace=affabc16221c02e5",
    "offered=1738 sender=0 receiver=0 loss=0000000000000000 now=80016 succ=2339 coll=589 idle=7720 erased=0 paper_mean=4044a7b23a5440de true_mean=40454c14083fa1bb sched=4013fcef7928d300 slots=3fd49a8a8fd0b7e8 util=3fe2b5506b4b32a0 corrupted=0 resyncs=0 abandoned=0 reopened=0 fault_losses=0 churn_blocked=0 churn_losses=0 churn_reopened=0 trace=234034fb2c5a9f46",
    "offered=1803 sender=0 receiver=0 loss=0000000000000000 now=80024 succ=2427 coll=620 idle=7251 erased=0 paper_mean=4048e8b6e09f0626 true_mean=40499318d8f4371c sched=4014e2262f0b4956 slots=3fd4f0129081f39a util=3fe369015b3c93b8 corrupted=0 resyncs=0 abandoned=0 reopened=0 fault_losses=0 churn_blocked=0 churn_losses=0 churn_reopened=0 trace=8c8f8527c6e8a021",
];
const GOLDEN_FAULTS: [&str; 3] = [
    "offered=1753 sender=49 receiver=20 loss=3fa4272331cc4db1 now=80068 succ=2360 coll=1118 idle=5974 erased=525 paper_mean=4061704ceb916d60 true_mean=4061c1cd85689038 sched=4028e3c070fe3c0d slots=3fe089b5d9289b67 util=3fe2dd2cd9fa58e2 corrupted=509 resyncs=566 abandoned=40 reopened=77 fault_losses=26 churn_blocked=0 churn_losses=0 churn_reopened=0 trace=08f1bdbab6a9ebf0",
    "offered=1738 sender=42 receiver=8 loss=3f9d758ac0a9af48 now=80156 succ=2310 coll=1120 idle=6253 erased=525 paper_mean=4060f89f656f1825 true_mean=406148c609a90e7e sched=40288edf8c9ea5e9 slots=3fe0fffffffffff9 util=3fe271ac38916e7e corrupted=514 resyncs=561 abandoned=43 reopened=78 fault_losses=16 churn_blocked=0 churn_losses=0 churn_reopened=0 trace=7c49158fa19aea66",
    "offered=1803 sender=76 receiver=18 loss=3faab17b62ae1307 now=80204 succ=2373 coll=1136 idle=5944 erased=520 paper_mean=4063815f0498626d true_mean=4063cfa38084d148 sched=4027f11bcfd2732a slots=3fe0c7b82bcc5176 util=3fe2ef8af2b5870b corrupted=515 resyncs=545 abandoned=46 reopened=76 fault_losses=27 churn_blocked=0 churn_losses=0 churn_reopened=0 trace=063f6e85a3a66137",
];
const GOLDEN_CHURN: [&str; 3] = [
    "offered=1753 sender=38 receiver=6 loss=3fb8ae12fc0e9a81 now=80028 succ=2196 coll=1039 idle=6809 erased=557 paper_mean=4058061e44e9231e true_mean=40588f4bac46d7b9 sched=402713bf33ac4856 slots=3fdd9ecd826c8c78 util=3fe18fd59f0918fd corrupted=537 resyncs=582 abandoned=40 reopened=68 fault_losses=5 churn_blocked=125 churn_losses=23 churn_reopened=1 trace=57351c87f68265f5",
    "offered=1738 sender=42 receiver=1 loss=3fb9a1243c18bee5 now=80020 succ=2141 coll=1035 idle=7094 erased=559 paper_mean=4058943e28e50277 true_mean=40592a685ce99706 sched=402703e3cc75aaee slots=3fdf7bbed85f4d1c util=3fe11fac0d908a35 corrupted=534 resyncs=585 abandoned=37 reopened=78 fault_losses=9 churn_blocked=131 churn_losses=31 churn_reopened=6 trace=104d91808d5ed682",
    "offered=1803 sender=70 receiver=5 loss=3fbcd2b4e3beafc7 now=80064 succ=2198 coll=1089 idle=6773 erased=539 paper_mean=405e43b55a6ff853 true_mean=405ed03ab2529f2b sched=40281368fae92860 slots=3fddad63892c2558 util=3fe191e7da58cfe9 corrupted=550 resyncs=570 abandoned=55 reopened=82 fault_losses=11 churn_blocked=128 churn_losses=57 churn_reopened=11 trace=50467d9a84bb9d76",
];

#[test]
fn clean_runs_match_pre_optimization_engine() {
    for (seed, golden) in SEEDS.iter().zip(GOLDEN_CLEAN) {
        let fp = fingerprint(*seed, FaultPlan::none(), ChurnPlan::none());
        assert_eq!(fp, golden, "clean fingerprint drifted at seed {seed}");
    }
}

#[test]
fn fault_injected_runs_match_pre_optimization_engine() {
    for (seed, golden) in SEEDS.iter().zip(GOLDEN_FAULTS) {
        let fp = fingerprint(*seed, faulty(), ChurnPlan::none());
        assert_eq!(fp, golden, "fault fingerprint drifted at seed {seed}");
    }
}

#[test]
fn churn_runs_match_pre_optimization_engine() {
    for (seed, golden) in SEEDS.iter().zip(GOLDEN_CHURN) {
        let fp = fingerprint(*seed, faulty(), churny());
        assert_eq!(fp, golden, "churn fingerprint drifted at seed {seed}");
    }
}

/// Regenerates the golden constants: `cargo test -p tcw-window --test
/// golden_metrics -- --ignored --nocapture` prints the current engine's
/// fingerprints in paste-ready form. Only legitimate after a *deliberate*
/// stream change (which must be called out in DESIGN.md §7).
#[test]
#[ignore]
fn print_current_fingerprints() {
    for (name, plan, churn) in [
        ("CLEAN", FaultPlan::none(), ChurnPlan::none()),
        ("FAULT", faulty(), ChurnPlan::none()),
        ("CHURN", faulty(), churny()),
    ] {
        for (i, seed) in SEEDS.iter().enumerate() {
            println!("<{name}{i}> {}", fingerprint(*seed, plan, churn));
        }
    }
}
