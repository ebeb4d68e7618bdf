//! Verifies the decision-theoretic results of §3 / Appendix A and computes
//! the piece the paper left open: the optimal window length per state.
//!
//! 1. **Lemma 3 / Theorem 1** — Monte Carlo one-step pseudo loss of the
//!    minimum-slack discipline vs. the newer-half-first and
//!    newest-position alternatives, across a grid of states: minimum
//!    slack never does worse.
//! 2. **Theorem 1, end to end** — full protocol simulations with element
//!    (4) active, differing only in elements (1)/(3): the Theorem-1
//!    policy achieves the lowest actual loss.
//! 3. **Appendix A / Howard policy iteration** — value determination
//!    (eq. A1) + improvement (eq. A2) over the window-length element
//!    converge; the optimal `w*(i)` table is printed and compared with
//!    the §4.1 heuristic `w* = mu*/lambda`; the SMDP gain is compared
//!    with the eq. 4.7 loss.

use tcw_experiments::diag;
use tcw_experiments::plot::write_csv;
use tcw_mdp::howard::{evaluate_policy, policy_iteration};
use tcw_mdp::smdp::{Smdp, SmdpConfig};
use tcw_mdp::verify::{one_step_pseudo_loss, Discipline};
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::engine::poisson_engine;
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::{ControlPolicy, SplitRule, WindowLength, WindowPosition};
use tcw_window::trace::NoopObserver;

fn main() {
    diag::parse("mdp_verify", diag::NO_ARGS);
    let mut failures = 0u32;

    println!("== 1. Lemma 3: one-step pseudo loss, min-slack vs alternatives ==\n");
    let (k, m, lambda) = (60.0, 25u64, 0.03);
    println!("   K = {k} tau, M = {m}, lambda = {lambda}/tau, 200k trials per cell");
    println!(
        "   {:>6} {:>6} {:>12} {:>12} {:>12}",
        "i", "w", "min-slack", "newer-split", "newest-pos"
    );
    for &(i, w) in &[
        (60.0, 60.0),
        (60.0, 40.0),
        (60.0, 20.0),
        (50.0, 42.0),
        (40.0, 40.0),
    ] {
        let trials = 200_000;
        let ms = one_step_pseudo_loss(Discipline::MinSlack, i, w, k, m, lambda, trials, 1);
        let ns = one_step_pseudo_loss(Discipline::OldestNewerSplit, i, w, k, m, lambda, trials, 1);
        let np = one_step_pseudo_loss(Discipline::NewestPos, i, w, k, m, lambda, trials, 1);
        let ok = ms.mean <= ns.mean + 4.0 * (ms.std_err + ns.std_err)
            && ms.mean <= np.mean + 4.0 * (ms.std_err + np.std_err);
        if !ok {
            failures += 1;
        }
        println!(
            "   {:>6} {:>6} {:>12.5} {:>12.5} {:>12.5}  {}",
            i,
            w,
            ms.mean,
            ns.mean,
            np.mean,
            if ok { "[ok]" } else { "[FAIL]" }
        );
    }

    println!("\n== 2. Theorem 1 end-to-end: actual loss under element-(1)/(3) variants ==\n");
    let channel = tcw_mac::ChannelConfig {
        ticks_per_tau: 32,
        message_slots: 25,
        guard: false,
    };
    let rho_prime = 0.75;
    let k_tau = 100u64;
    let k_ticks = Dur::from_ticks(k_tau * channel.ticks_per_tau);
    let w_ticks =
        Dur::from_ticks((optimal_mu() / (rho_prime / 25.0) * channel.ticks_per_tau as f64) as u64);
    let variants: [(&str, WindowPosition, SplitRule); 3] = [
        (
            "theorem-1 (oldest + older-first)",
            WindowPosition::Oldest,
            SplitRule::OlderFirst,
        ),
        (
            "oldest + newer-first",
            WindowPosition::Oldest,
            SplitRule::NewerFirst,
        ),
        (
            "newest + newer-first",
            WindowPosition::Newest,
            SplitRule::NewerFirst,
        ),
    ];
    let mut losses = Vec::new();
    for (name, pos, split) in variants {
        let policy = ControlPolicy {
            position: pos,
            length: WindowLength::Fixed(w_ticks),
            split,
            discard_after: Some(k_ticks),
            split_fraction: 0.5,
        };
        let measure = MeasureConfig {
            start: Time::from_ticks(100_000),
            end: Time::from_ticks(40_000_000),
            deadline: k_ticks,
        };
        let mut eng = poisson_engine(channel, policy, measure, rho_prime, 50, 99);
        eng.run_until(Time::from_ticks(42_000_000), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        println!(
            "   {name:<36} loss = {:.4} ± {:.4}  ({} messages)",
            eng.metrics.loss_fraction(),
            eng.metrics.loss_ci95(),
            eng.metrics.offered()
        );
        losses.push(eng.metrics.loss_fraction());
    }
    let ok = losses[0] <= losses[1] + 0.01 && losses[0] <= losses[2] + 0.01;
    if !ok {
        failures += 1;
    }
    println!(
        "   [{}] Theorem-1 policy achieves the lowest actual loss",
        if ok { "ok" } else { "FAIL" }
    );

    println!("\n== 3. Appendix A: Howard policy iteration over the window length ==\n");
    for &(k_state, m_slots, lam) in &[(50usize, 10u64, 0.10f64), (100, 25, 0.03)] {
        let model = Smdp::new(SmdpConfig {
            k: k_state,
            m: m_slots,
            lambda: lam,
        });
        // Start from the §4.1 heuristic (fixed w*, clamped to the state).
        let w_heuristic = (optimal_mu() / lam).round().max(1.0) as usize;
        let heuristic: Vec<usize> = (0..=k_state).map(|i| w_heuristic.min(i.max(1))).collect();
        let (g_heur, _) = evaluate_policy(&model, &heuristic);
        let opt = policy_iteration(&model, &heuristic);
        let improvement = (g_heur - opt.gain) / g_heur.max(1e-300);
        println!(
            "   K = {k_state}, M = {m_slots}, lambda = {lam}: heuristic gain {:.6e}, optimal gain {:.6e} ({} sweeps, {:.2}% better)",
            g_heur,
            opt.gain,
            opt.iterations,
            improvement * 100.0
        );
        let ok = opt.gain <= g_heur + 1e-12;
        if !ok {
            failures += 1;
        }
        // Optimal window table: print a few states and persist all.
        let heur_clamped: Vec<usize> = heuristic.clone();
        let rows: Vec<Vec<String>> = (1..=k_state)
            .map(|i| {
                vec![
                    i.to_string(),
                    opt.window[i].to_string(),
                    heur_clamped[i].to_string(),
                ]
            })
            .collect();
        let path =
            std::path::PathBuf::from(format!("results/mdp_window_k{k_state}_m{m_slots}.csv"));
        write_csv(&path, &["state_i", "w_optimal", "w_heuristic"], &rows).expect("csv");
        print!("   w*(i) at i = K/4, K/2, 3K/4, K: ");
        for i in [k_state / 4, k_state / 2, 3 * k_state / 4, k_state] {
            print!("{} ", opt.window[i.max(1)]);
        }
        println!(
            "  (heuristic w* = {w_heuristic}); table: {}",
            path.display()
        );
        println!(
            "   SMDP loss fraction = {:.4} (gain/lambda)",
            opt.loss_fraction(lam)
        );
        println!();
    }

    if failures > 0 {
        println!("{failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("all decision-model checks passed");
}
