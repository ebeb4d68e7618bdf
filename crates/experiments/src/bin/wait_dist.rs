//! Reproduces the waiting-time distribution machinery of §4.1 (eq. 4.4):
//! the truncated workload solution
//!
//! ```text
//! F(w) = P(0) * sum_i rho^i * beta^(i)(w),     0 <= w <= K,
//! ```
//!
//! is the distribution of unfinished work found by an arriving message —
//! i.e. the FCFS waiting time of *accepted* messages once conditioned on
//! acceptance (`F(w)/F(K)`). The binary compares that analytic CDF against
//! the protocol simulation's empirical waiting-time histogram (paper
//! definition of waiting time), reporting the sup distance.
//!
//! Output: `results/wait_dist.csv` + an ASCII overlay. The shared
//! observability flags are accepted: `--trace-events PATH` (NDJSON event
//! stream for the single simulated cell), `--metrics PATH[.prom]` and
//! `--progress`. A sup distance above 0.05 is a gate failure (exit 2).

use std::path::PathBuf;
use tcw_experiments::diag::{self, Mode, JOBS, TELEMETRY};
use tcw_experiments::plot::{ascii_plot, write_csv, Series};
use tcw_experiments::sweep::run_parallel;
use tcw_experiments::{observe_engine_cell, write_observability};
use tcw_mac::ChannelConfig;
use tcw_numerics::grid::renewal_series;
use tcw_queueing::marching::{controlled_curve, PanelConfig};
use tcw_queueing::service::{service_dist, SchedulingShape};
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::engine::poisson_engine;
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::ControlPolicy;

const MODES: &[Mode] = &[Mode::run(&[TELEMETRY, JOBS])];

fn main() {
    let cli = diag::parse("wait_dist", MODES);
    let (obs, jobs) = (&cli.obs, cli.jobs);
    let (rho_prime, m, k_tau) = (0.75f64, 25u64, 200.0f64);
    let lambda = rho_prime / m as f64;
    println!("waiting-time distribution at rho' = {rho_prime}, M = {m}, K = {k_tau} tau\n");

    // --- analytic: truncated workload CDF (eq. 4.4) ---------------------
    // Use the marching's converged service distribution at this K.
    let cfg = PanelConfig {
        m,
        rho_prime,
        shape: SchedulingShape::Geometric,
    };
    let point = controlled_curve(cfg, &[k_tau])[0];
    let mu_eff = lambda * (1.0 - point.loss) * (optimal_mu() / lambda);
    let service = service_dist(SchedulingShape::Geometric, mu_eff, m);
    let rho = lambda * service.mean();
    let beta = service.residual();
    let series = renewal_series(&beta, rho, k_tau as usize + 2);
    let z_k = series.partial_sum(k_tau);
    // F(w)/F(K): conditional-on-acceptance waiting CDF.
    let analytic_cdf = |w: f64| series.partial_sum(w) / z_k;

    // --- simulated -------------------------------------------------------
    // One cell on the sweep pool: this figure needs a single long run,
    // so the pool is used for interface uniformity with the sweep
    // binaries (`--jobs` is accepted; one cell needs one worker).
    let tpt = 64u64;
    let grid: Vec<f64> = (1..=40).map(|i| k_tau * i as f64 / 40.0).collect();
    let seeds = [77u64];
    let caps = obs.capture();
    let sim = run_parallel(&seeds, jobs, obs.progress, |i, &seed, _| {
        let label = format!("wait_dist seed={seed}");
        let seed_s = format!("{seed}");
        let labels = [("seed", seed_s.as_str())];
        observe_engine_cell(caps, i, &label, &labels, |observer, sink| {
            let channel = ChannelConfig {
                ticks_per_tau: tpt,
                message_slots: m,
                guard: false,
            };
            let k = Dur::from_ticks((k_tau * tpt as f64) as u64);
            let w_star = Dur::from_ticks((optimal_mu() / lambda * tpt as f64) as u64);
            let measure = MeasureConfig {
                start: Time::from_ticks(500_000),
                end: Time::from_ticks(120_000_000),
                deadline: k,
            };
            let mut eng = poisson_engine(
                channel,
                ControlPolicy::controlled(k, w_star),
                measure,
                rho_prime,
                50,
                seed,
            );
            eng.run_until(Time::from_ticks(130_000_000), observer);
            eng.drain(observer);
            if let Some(sink) = sink {
                eng.metrics.emit(sink);
                eng.channel_stats.emit(sink);
            }
            let hist = eng.metrics.paper_delay_histogram();
            let cdf: Vec<f64> = grid.iter().map(|&w| hist.cdf(w * tpt as f64)).collect();
            (cdf, eng.metrics.offered())
        })
    });
    let (sim, cell_artifacts): (Vec<_>, Vec<_>) = sim.into_iter().unzip();
    let (sim_cdf, offered) = &sim[0];

    // --- compare ----------------------------------------------------------
    let mut rows = Vec::new();
    let mut sup = 0.0f64;
    let mut ana_pts = Vec::new();
    let mut sim_pts = Vec::new();
    for (i, &w) in grid.iter().enumerate() {
        let a = analytic_cdf(w);
        let s = sim_cdf[i];
        sup = sup.max((a - s).abs());
        rows.push(vec![
            format!("{w:.1}"),
            format!("{a:.6}"),
            format!("{s:.6}"),
        ]);
        ana_pts.push((w, a));
        sim_pts.push((w, s));
    }
    let path = PathBuf::from("results/wait_dist.csv");
    write_csv(&path, &["w_tau", "analytic_cdf", "sim_cdf"], &rows).expect("csv");

    let plot = ascii_plot(
        "accepted-message waiting-time CDF: a = analytic (eq. 4.4), s = simulated",
        &[
            Series {
                label: "analytic F(w)/F(K)".into(),
                glyph: 'a',
                points: ana_pts,
            },
            Series {
                label: "simulated (protocol)".into(),
                glyph: 's',
                points: sim_pts,
            },
        ],
        72,
        16,
        0.0,
        1.0,
    );
    println!("{plot}");
    println!("messages simulated : {offered}");
    println!("sup |analytic - simulated| over the CDF grid = {sup:.4}");
    println!("data: {}", path.display());
    if let Err(e) = write_observability(obs, &cell_artifacts) {
        diag::error("wait_dist", &e);
        std::process::exit(diag::EXIT_FAILURE);
    }
    if sup > 0.05 {
        diag::error(
            "wait_dist",
            &format!("distributions deviate by more than 0.05 (sup = {sup:.4})"),
        );
        std::process::exit(diag::EXIT_FAILURE);
    }
}
