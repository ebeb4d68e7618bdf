//! Integration: the flow-conservation identity of eq. 4.6 / figure 6 —
//! `p(accept) * rho = 1 - P(0)` — holds for the *distributed protocol*,
//! not just the centralized queue abstraction: the fraction of channel
//! time carrying successful transmissions equals the accepted load.

use tcw_experiments::{Cell, Panel, PolicyKind, SimSettings};

fn settings() -> SimSettings {
    SimSettings {
        messages: 8_000,
        warmup: 800,
        ticks_per_tau: 16,
        ..Default::default()
    }
}

#[test]
fn utilization_equals_accepted_load_controlled() {
    for (rho_prime, k) in [(0.5, 100.0), (0.75, 100.0), (0.75, 400.0)] {
        let panel = Panel { rho_prime, m: 25 };
        let p = Cell::clean(panel, PolicyKind::Controlled, k, settings(), 11)
            .run()
            .point;
        // Receiver-lost messages *are* transmitted, so channel utilization
        // counts them: utilization ≈ (1 - sender_loss) * rho'.
        let expect = (1.0 - p.sender_loss) * rho_prime;
        assert!(
            (p.utilization - expect).abs() < 0.02,
            "rho'={rho_prime} K={k}: utilization {:.4} vs (1 - sender loss) * rho' = {expect:.4}",
            p.utilization
        );
    }
}

#[test]
fn utilization_equals_offered_load_fcfs() {
    // The uncontrolled protocol transmits everything: utilization ≈ rho'.
    let panel = Panel {
        rho_prime: 0.5,
        m: 25,
    };
    let p = Cell::clean(panel, PolicyKind::Fcfs, 100.0, settings(), 12)
        .run()
        .point;
    assert!(
        (p.utilization - 0.5).abs() < 0.02,
        "utilization {:.4} vs 0.5",
        p.utilization
    );
}

#[test]
fn controlled_utilization_is_all_useful_work() {
    // §4.2's qualitative claim: under the controlled protocol the channel
    // is used only for messages accepted at the receiver (up to the small
    // waiting-time-approximation leak); under FCFS at a tight deadline a
    // large share of utilization is wasted on dead messages.
    let panel = Panel {
        rho_prime: 0.75,
        m: 25,
    };
    let k = 100.0;
    let c = Cell::clean(panel, PolicyKind::Controlled, k, settings(), 13)
        .run()
        .point;
    let f = Cell::clean(panel, PolicyKind::Fcfs, k, settings(), 13)
        .run()
        .point;
    // useful utilization = fraction of channel time carrying messages that
    // met the deadline ≈ utilization * (delivered-in-time / transmitted)
    let c_useful = c.utilization * (1.0 - c.loss) / (1.0 - c.sender_loss);
    let f_useful = f.utilization * (1.0 - f.loss); // fcfs transmits all
    assert!(
        c_useful > f_useful + 0.02,
        "controlled useful {:.4} vs fcfs useful {:.4}",
        c_useful,
        f_useful
    );
}
