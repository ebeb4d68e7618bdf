//! Priority classes over one channel — the paper's §5 open problem.
//!
//! Voice packets (deadline 60 tau) and sensor data (deadline 600 tau)
//! share the channel. Three designs are compared:
//!
//! 1. one controlled protocol with the voice deadline for everyone
//!    (data inherits discards it did not need);
//! 2. one controlled protocol with the data deadline for everyone
//!    (voice misses its playout);
//! 3. the multi-class engine: per-class deadlines + proportional-urgency
//!    class scheduling (`(now - t_past_c)/K_c`).
//!
//! The example also shows why the *naive* lift of Theorem 1 across
//! classes (absolute minimum slack) fails: the tight class's fresh empty
//! time starves the loose class.
//!
//! ```sh
//! cargo run --release --example priority_classes
//! ```
//!
//! Its output is committed as `results/priority_classes.txt`; CI
//! regenerates the file and fails on any difference.

use tcw_mac::{ChannelConfig, PoissonArrivals};
use tcw_sim::time::{Dur, Time};
use tcw_window::engine::poisson_engine;
use tcw_window::metrics::MeasureConfig;
use tcw_window::multiclass::{ClassRule, ClassSpec, MulticlassEngine};
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::NoopObserver;

const TPT: u64 = 32;
const M: u64 = 25;
const K_VOICE: u64 = 60;
const K_DATA: u64 = 600;
const RATE_EACH: f64 = 0.015; // per tau, per class => rho' 0.375 each

fn channel() -> ChannelConfig {
    ChannelConfig {
        ticks_per_tau: TPT,
        message_slots: M,
        guard: false,
    }
}

fn measure(k_tau: u64) -> MeasureConfig {
    MeasureConfig {
        start: Time::from_ticks(400_000),
        end: Time::from_ticks(40_000_000),
        deadline: Dur::from_ticks(k_tau * TPT),
    }
}

fn spec(k_tau: u64) -> ClassSpec {
    ClassSpec {
        deadline: Dur::from_ticks(k_tau * TPT),
        window: Dur::from_ticks(84 * TPT), // mu*/rate for each class
        source: Box::new(PoissonArrivals::per_tau(RATE_EACH, TPT, 25)),
    }
}

/// Runs a single-deadline engine on the combined traffic and reports the
/// in-own-deadline loss of each class (a message of class c counts as
/// lost if delivered later than K_c, regardless of what the shared
/// protocol's K was).
fn shared_deadline(k_tau: u64) -> (f64, f64) {
    // With a shared controlled protocol the classes are indistinguishable
    // to the channel; their losses differ only through their own deadline
    // evaluation. For voice (tighter than shared K) we must measure
    // deliveries within K_VOICE; the single-class engine reports only its
    // own K, so run it per definition: shared K discards, voice counts a
    // delivery late if > K_VOICE.
    // Approximation via the shared engine's delay histogram:
    let k = Dur::from_ticks(k_tau * TPT);
    let w = Dur::from_ticks(42 * TPT); // heuristic at combined rate
    let mut eng = poisson_engine(
        channel(),
        ControlPolicy::controlled(k, w),
        measure(k_tau),
        2.0 * RATE_EACH * M as f64,
        50,
        3,
    );
    eng.run_until(Time::from_ticks(44_000_000), &mut NoopObserver);
    eng.drain(&mut NoopObserver);
    let base_loss = eng.metrics.loss_fraction();
    // fraction of *delivered* messages later than K_VOICE:
    let hist = eng.metrics.paper_delay_histogram();
    let late_for_voice = 1.0 - hist.cdf((K_VOICE * TPT) as f64);
    let delivered = 1.0 - base_loss;
    let voice_loss = base_loss + delivered * late_for_voice;
    let data_loss = base_loss; // K_DATA >= shared K in both designs here
    (voice_loss, data_loss)
}

fn multiclass(rule: ClassRule) -> (f64, f64) {
    let mut e = MulticlassEngine::new(
        channel(),
        rule,
        vec![spec(K_VOICE), spec(K_DATA)],
        measure(K_VOICE),
        7,
    );
    e.run_until(Time::from_ticks(44_000_000));
    e.drain();
    (
        e.class_metrics(0).loss_fraction(),
        e.class_metrics(1).loss_fraction(),
    )
}

fn main() {
    println!("two traffic classes over one channel (rho' = 0.75 combined)");
    println!("  voice: deadline {K_VOICE} tau     data: deadline {K_DATA} tau");
    println!();
    println!(
        "  {:<44} {:>12} {:>12}",
        "design", "voice loss", "data loss"
    );

    let (v, d) = shared_deadline(K_VOICE);
    println!(
        "  {:<44} {:>12.4} {:>12.4}",
        format!("shared controlled, K = {K_VOICE} (voice-grade)"),
        v,
        d
    );
    let (v, d) = shared_deadline(K_DATA);
    println!(
        "  {:<44} {:>12.4} {:>12.4}",
        format!("shared controlled, K = {K_DATA} (data-grade)"),
        v,
        d
    );
    let (v, d) = multiclass(ClassRule::MinSlack);
    println!(
        "  {:<44} {:>12.4} {:>12.4}",
        "multiclass, naive min-slack (starves data!)", v, d
    );
    let (v, d) = multiclass(ClassRule::ProportionalUrgency);
    println!(
        "  {:<44} {:>12.4} {:>12.4}",
        "multiclass, proportional urgency", v, d
    );
    println!();
    println!("Per-class deadlines with proportional-urgency scheduling deliver");
    println!("voice-grade service to voice AND near-zero data loss — neither");
    println!("shared-deadline design achieves both.");
}
