//! Integration: Theorem 1, measured on the full protocol rather than the
//! decision model. Among policies sharing the same window length and the
//! discard element (4), the minimum-slack choice of elements (1) and (3)
//! — oldest window position, older half first — achieves the lowest
//! actual loss; and the controlled protocol dominates every uncontrolled
//! discipline of [Kurose 83].

use tcw_experiments::{Panel, PolicyKind, RunSpec, SimSettings};
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::engine::poisson_engine;
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::{ControlPolicy, SplitRule, WindowLength, WindowPosition};
use tcw_window::trace::NoopObserver;

const TPT: u64 = 16;

fn run_variant(position: WindowPosition, split: SplitRule, seed: u64) -> f64 {
    let panel = Panel {
        rho_prime: 0.75,
        m: 25,
    };
    let channel = tcw_mac::ChannelConfig {
        ticks_per_tau: TPT,
        message_slots: panel.m,
        guard: false,
    };
    let k = Dur::from_ticks(100 * TPT);
    let w = Dur::from_ticks((optimal_mu() / panel.lambda() * TPT as f64) as u64);
    let policy = ControlPolicy {
        position,
        length: WindowLength::Fixed(w),
        split,
        discard_after: Some(k),
        split_fraction: 0.5,
    };
    let ticks_per_msg = TPT as f64 / panel.lambda();
    let end = (10_000.0 * ticks_per_msg) as u64;
    let measure = MeasureConfig {
        start: Time::from_ticks((500.0 * ticks_per_msg) as u64),
        end: Time::from_ticks(end),
        deadline: k,
    };
    let mut eng = poisson_engine(channel, policy, measure, panel.rho_prime, 40, seed);
    eng.run_until(Time::from_ticks(end + end / 10), &mut NoopObserver);
    eng.drain(&mut NoopObserver);
    eng.metrics.loss_fraction()
}

#[test]
fn minslack_beats_element_variants() {
    let theorem1 = run_variant(WindowPosition::Oldest, SplitRule::OlderFirst, 7);
    let newer_split = run_variant(WindowPosition::Oldest, SplitRule::NewerFirst, 7);
    let newest_pos = run_variant(WindowPosition::Newest, SplitRule::NewerFirst, 7);
    let random = run_variant(WindowPosition::Random, SplitRule::Random, 7);
    assert!(
        theorem1 < newer_split + 0.01,
        "older-first {theorem1:.4} vs newer-first {newer_split:.4}"
    );
    assert!(
        theorem1 < newest_pos + 0.01,
        "oldest-pos {theorem1:.4} vs newest-pos {newest_pos:.4}"
    );
    assert!(
        theorem1 < random + 0.01,
        "theorem-1 {theorem1:.4} vs random {random:.4}"
    );
}

#[test]
fn controlled_dominates_uncontrolled_baselines() {
    let panel = Panel {
        rho_prime: 0.75,
        m: 25,
    };
    let settings = SimSettings {
        messages: 8_000,
        warmup: 800,
        ticks_per_tau: TPT,
        ..Default::default()
    };
    for k in [50.0, 100.0, 200.0] {
        let c = RunSpec::panel(panel, PolicyKind::Controlled, k, settings, 17)
            .run()
            .point;
        for kind in [PolicyKind::Fcfs, PolicyKind::Lcfs, PolicyKind::Random] {
            let b = RunSpec::panel(panel, kind, k, settings, 17).run().point;
            assert!(
                c.loss <= b.loss + 0.01,
                "K={k}: controlled {:.4} vs {} {:.4}",
                c.loss,
                kind.label(),
                b.loss
            );
        }
    }
}

#[test]
fn fcfs_lcfs_cross_over_in_k() {
    // The [Kurose 83] structure the paper builds on: within the
    // uncontrolled family the disciplines cross — at tight deadlines LCFS
    // delivers more (fresh messages slip through while FCFS delays
    // everyone equally); at loose deadlines FCFS wins (LCFS starves a
    // tail of messages forever). The controlled protocol dominates both
    // on either side of the crossover.
    let panel = Panel {
        rho_prime: 0.75,
        m: 25,
    };
    let settings = SimSettings {
        messages: 12_000,
        warmup: 1_200,
        ticks_per_tau: TPT,
        ..Default::default()
    };
    let tight = 50.0;
    let loose = 400.0;
    let f_tight = RunSpec::panel(panel, PolicyKind::Fcfs, tight, settings, 19)
        .run()
        .point;
    let l_tight = RunSpec::panel(panel, PolicyKind::Lcfs, tight, settings, 19)
        .run()
        .point;
    assert!(
        l_tight.loss < f_tight.loss - 0.02,
        "tight K: lcfs {:.4} should beat fcfs {:.4}",
        l_tight.loss,
        f_tight.loss
    );
    let f_loose = RunSpec::panel(panel, PolicyKind::Fcfs, loose, settings, 19)
        .run()
        .point;
    let l_loose = RunSpec::panel(panel, PolicyKind::Lcfs, loose, settings, 19)
        .run()
        .point;
    assert!(
        f_loose.loss < l_loose.loss - 0.005,
        "loose K: fcfs {:.4} should beat lcfs {:.4}",
        f_loose.loss,
        l_loose.loss
    );
}
