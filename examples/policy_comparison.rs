//! Compares all four protocol disciplines — controlled, FCFS, LCFS,
//! RANDOM — on identical Poisson traffic, reproducing the qualitative
//! content of the paper's Figure 7 in one table.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use tcw_experiments::{Panel, PolicyKind, RunSpec, SimSettings};

fn main() {
    let panel = Panel {
        rho_prime: 0.75,
        m: 25,
    };
    let settings = SimSettings {
        messages: 20_000,
        warmup: 2_000,
        ..Default::default()
    };

    println!(
        "policy comparison at rho' = {}, M = {} ({} messages per point)",
        panel.rho_prime, panel.m, settings.messages
    );
    println!();
    println!(
        "  {:>10} {:>14} {:>14} {:>14} {:>14}",
        "K (tau)", "controlled", "fcfs", "lcfs", "random"
    );
    for k in [50.0, 100.0, 200.0, 400.0] {
        let mut cells = Vec::new();
        for kind in [
            PolicyKind::Controlled,
            PolicyKind::Fcfs,
            PolicyKind::Lcfs,
            PolicyKind::Random,
        ] {
            let p = RunSpec::panel(panel, kind, k, settings, 5).run().point;
            cells.push(format!("{:.4}", p.loss));
        }
        println!(
            "  {:>10} {:>14} {:>14} {:>14} {:>14}",
            k, cells[0], cells[1], cells[2], cells[3]
        );
    }
    println!();
    println!("The controlled protocol dominates at every deadline. The");
    println!("uncontrolled disciplines cross over: LCFS beats FCFS at tight");
    println!("deadlines (fresh messages slip through) while FCFS wins at loose");
    println!("ones (LCFS starves a tail of messages); the discard element keeps");
    println!("the controlled channel free of already-dead messages throughout.");
}
