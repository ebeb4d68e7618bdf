//! Design-choice ablations for the controlled protocol (the knobs called
//! out in DESIGN.md). Each ablation holds the Figure-7 workload fixed
//! (`rho' = 0.75`, `M = 25`, a mid-range deadline) and varies exactly one
//! element:
//!
//! * **discard (element 4)** on/off — the paper credits most of the
//!   improvement to never spending channel time on already-dead messages;
//! * **split rule (element 3)** — older-first vs newer-first vs random;
//! * **window position (element 1)** — oldest vs newest vs random;
//! * **window length (element 2)** — heuristic `w*` scaled by 1/4 .. 4,
//!   plus the SMDP-optimal per-backlog table from `tcw-mdp`;
//! * **scheduling-time shape** (analytic model) — geometric vs exact
//!   splitting distribution;
//! * **guard slot** — one extra `tau` of quiet after each transmission.
//!
//! All simulated variants form one cell list executed on the parallel
//! sweep executor (`--jobs N`; `--jobs 1` reproduces the serial output
//! byte-for-byte) and are reported in the fixed cell order. The shared
//! observability flags are accepted: `--trace-events PATH` (NDJSON event
//! stream, one `cell` header per variant), `--metrics PATH[.prom]`
//! (metrics snapshot labeled by variant) and `--progress` (stderr
//! progress line).

use tcw_experiments::diag::{self, Mode, JOBS, TELEMETRY};
use tcw_experiments::plot::write_csv;
use tcw_experiments::runner::{measure_window, run_to_horizon};
use tcw_experiments::sweep::run_parallel;
use tcw_experiments::{
    observe_engine_cell, write_observability, Capture, CellArtifacts, Panel, SimSettings,
};
use tcw_mdp::howard::policy_iteration;
use tcw_mdp::smdp::{Smdp, SmdpConfig};
use tcw_queueing::marching::{controlled_curve, PanelConfig};
use tcw_queueing::service::SchedulingShape;
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::engine::poisson_engine;
use tcw_window::policy::{ControlPolicy, SplitRule, WindowLength, WindowPosition};

const PANEL: Panel = Panel {
    rho_prime: 0.75,
    m: 25,
};
const K_TAU: u64 = 100;

/// One ablation variant, fully specified for the sweep executor. The
/// optional header/footer strings are printed around the variant's
/// result line so the report keeps its serial section structure.
struct Cell {
    header: Option<&'static str>,
    footer: Option<String>,
    name: String,
    policy: ControlPolicy,
    settings: SimSettings,
    seed: u64,
    /// `Some(n)`: run `n` single-buffer stations (finite-population
    /// ablation) and report the blocked fraction instead of utilization.
    single_buffer: Option<u32>,
}

struct Outcome {
    loss: f64,
    ci: f64,
    utilization: f64,
    blocked_frac: f64,
}

fn run_cell(cell: &Cell, index: usize, caps: Capture) -> (Outcome, CellArtifacts) {
    let seed_s = format!("{}", cell.seed);
    let labels = [("variant", cell.name.as_str()), ("seed", seed_s.as_str())];
    observe_engine_cell(caps, index, &cell.name, &labels, |obs, sink| {
        let settings = cell.settings;
        let tpt = settings.ticks_per_tau;
        let channel = tcw_mac::ChannelConfig {
            ticks_per_tau: tpt,
            message_slots: PANEL.m,
            guard: settings.guard,
        };
        let measure = measure_window(PANEL.lambda(), settings, Dur::from_ticks(K_TAU * tpt));
        let measure_end = measure.end.ticks();
        let stations = cell.single_buffer.unwrap_or(50);
        let mut eng = poisson_engine(
            channel,
            cell.policy.clone(),
            measure,
            PANEL.rho_prime,
            stations,
            cell.seed,
        );
        if cell.single_buffer.is_some() {
            eng.set_single_buffer_stations(true);
        }
        run_to_horizon(
            &mut eng,
            Time::from_ticks(measure_end + measure_end / 10),
            obs,
            sink,
        );
        let offered = eng.metrics.offered().max(1);
        Outcome {
            loss: eng.metrics.loss_fraction(),
            ci: eng.metrics.loss_ci95(),
            utilization: eng.channel_stats.utilization(),
            blocked_frac: eng.metrics.blocked() as f64 / offered as f64,
        }
    })
}

fn controlled_with(
    position: WindowPosition,
    split: SplitRule,
    length: WindowLength,
    discard: bool,
    tpt: u64,
) -> ControlPolicy {
    ControlPolicy {
        position,
        length,
        split,
        discard_after: discard.then(|| Dur::from_ticks(K_TAU * tpt)),
        split_fraction: 0.5,
    }
}

const MODES: &[Mode] = &[Mode::run(&[TELEMETRY, JOBS])];

fn main() {
    let cli = diag::parse("ablate", MODES);
    let (obs, jobs) = (&cli.obs, cli.jobs);
    let settings = SimSettings {
        messages: 30_000,
        warmup: 3_000,
        ..Default::default()
    };
    let tpt = settings.ticks_per_tau;
    let w_star = Dur::from_ticks((optimal_mu() / PANEL.lambda() * tpt as f64) as u64);
    let mut cells: Vec<Cell> = Vec::new();
    let cell = |header: Option<&'static str>,
                name: String,
                policy: ControlPolicy,
                settings: SimSettings,
                seed: u64| Cell {
        header,
        footer: None,
        name,
        policy,
        settings,
        seed,
        single_buffer: None,
    };

    println!(
        "Ablations at rho' = {}, M = {}, K = {K_TAU} tau ({} messages each)\n",
        PANEL.rho_prime, PANEL.m, settings.messages
    );

    for (i, (name, discard)) in [
        ("controlled (discard on)", true),
        ("no discard (fcfs order)", false),
    ]
    .into_iter()
    .enumerate()
    {
        let p = controlled_with(
            WindowPosition::Oldest,
            SplitRule::OlderFirst,
            WindowLength::Fixed(w_star),
            discard,
            tpt,
        );
        let header = (i == 0).then_some("-- element (4): sender discard --");
        cells.push(cell(header, name.to_string(), p, settings, 11));
    }

    for (i, (name, split)) in [
        ("older-first (optimal)", SplitRule::OlderFirst),
        ("newer-first", SplitRule::NewerFirst),
        ("random half", SplitRule::Random),
    ]
    .into_iter()
    .enumerate()
    {
        let p = controlled_with(
            WindowPosition::Oldest,
            split,
            WindowLength::Fixed(w_star),
            true,
            tpt,
        );
        let header = (i == 0).then_some("\n-- element (3): split rule (discard on) --");
        cells.push(cell(header, name.to_string(), p, settings, 12));
    }

    for (i, (name, pos)) in [
        ("oldest (optimal)", WindowPosition::Oldest),
        ("newest", WindowPosition::Newest),
        ("random", WindowPosition::Random),
    ]
    .into_iter()
    .enumerate()
    {
        let p = controlled_with(
            pos,
            SplitRule::OlderFirst,
            WindowLength::Fixed(w_star),
            true,
            tpt,
        );
        let header = (i == 0).then_some("\n-- element (1): window position (discard on) --");
        cells.push(cell(header, name.to_string(), p, settings, 13));
    }

    for (i, scale) in [0.25, 0.5, 1.0, 2.0, 4.0].into_iter().enumerate() {
        let w = Dur::from_ticks(((w_star.ticks() as f64) * scale).max(1.0) as u64);
        let p = controlled_with(
            WindowPosition::Oldest,
            SplitRule::OlderFirst,
            WindowLength::Fixed(w),
            true,
            tpt,
        );
        let header = (i == 0).then_some("\n-- element (2): window length --");
        cells.push(cell(
            header,
            format!("fixed w = {scale} * w_heuristic"),
            p,
            settings,
            14,
        ));
    }
    // SMDP-optimal per-backlog table (Delta = tau), interpolated onto the
    // tick lattice.
    {
        let model = Smdp::new(SmdpConfig {
            k: K_TAU as usize,
            m: PANEL.m,
            lambda: PANEL.lambda(),
        });
        let w_heur = (optimal_mu() / PANEL.lambda()).round().max(1.0) as usize;
        let start: Vec<usize> = (0..=K_TAU as usize).map(|i| w_heur.min(i.max(1))).collect();
        let opt = policy_iteration(&model, &start);
        // table[backlog_in_ticks] = window in ticks
        let mut table = Vec::with_capacity((K_TAU as usize + 1) * tpt as usize);
        for i in 0..=(K_TAU as usize) {
            for _ in 0..tpt {
                table.push(Dur::from_ticks(opt.window[i.max(1)] as u64 * tpt));
            }
        }
        let p = controlled_with(
            WindowPosition::Oldest,
            SplitRule::OlderFirst,
            WindowLength::PerBacklog(table),
            true,
            tpt,
        );
        cells.push(cell(
            None,
            "SMDP-optimal w*(backlog)".to_string(),
            p,
            settings,
            15,
        ));
    }

    {
        use tcw_window::analysis::{expected_overhead_slots_biased, optimal_mu_and_fraction};
        let fracs = [0.3, 0.4, 0.5, 0.6, 0.7];
        for (i, frac) in fracs.into_iter().enumerate() {
            let p = ControlPolicy {
                split_fraction: frac,
                ..controlled_with(
                    WindowPosition::Oldest,
                    SplitRule::OlderFirst,
                    WindowLength::Fixed(w_star),
                    true,
                    tpt,
                )
            };
            let header =
                (i == 0).then_some("\n-- §5 extension: split fraction (older part share) --");
            let mut c = cell(header, format!("split fraction {frac}"), p, settings, 17);
            if i == fracs.len() - 1 {
                let (mu, frac, e) = optimal_mu_and_fraction();
                let mu_half = tcw_window::analysis::optimal_mu();
                c.footer = Some(format!(
                    "  analytic joint optimum: frac = {frac:.3}, mu = {mu:.3}, E[overhead] = {e:.4} \
                     (halving at its own optimum mu = {mu_half:.3}: {:.4})",
                    expected_overhead_slots_biased(mu_half, 0.5)
                ));
            }
            cells.push(c);
        }
    }

    for (i, (name, guard)) in [("no guard (paper's model)", false), ("one tau guard", true)]
        .into_iter()
        .enumerate()
    {
        let p = controlled_with(
            WindowPosition::Oldest,
            SplitRule::OlderFirst,
            WindowLength::Fixed(w_star),
            true,
            tpt,
        );
        let header = (i == 0).then_some("\n-- guard slot after transmissions --");
        cells.push(cell(
            header,
            name.to_string(),
            p,
            SimSettings { guard, ..settings },
            16,
        ));
    }

    // The analysis treats every message as an independent transmitter
    // (infinite population). With N single-buffer stations, arrivals
    // at a busy station are blocked; the blocked fraction measures how
    // fast the assumption becomes accurate as N grows.
    for (i, stations) in [5u32, 10, 25, 50, 200].into_iter().enumerate() {
        let p = controlled_with(
            WindowPosition::Oldest,
            SplitRule::OlderFirst,
            WindowLength::Fixed(w_star),
            true,
            tpt,
        );
        let header = (i == 0).then_some("\n-- finite population: single-buffer stations --");
        let mut c = cell(
            header,
            format!("{stations} single-buffer stations"),
            p,
            settings,
            18,
        );
        c.single_buffer = Some(stations);
        cells.push(c);
    }

    let caps = obs.capture();
    let outcomes = run_parallel(&cells, jobs, obs.progress, |i, c, _| run_cell(c, i, caps));
    let (outcomes, cell_artifacts): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (c, r) in cells.iter().zip(&outcomes) {
        if let Some(h) = c.header {
            println!("{h}");
        }
        if c.single_buffer.is_some() {
            println!(
                "  {:<44} loss = {:.4} ± {:.4}   blocked = {:.4}",
                c.name, r.loss, r.ci, r.blocked_frac
            );
            rows.push(vec![
                c.name.clone(),
                format!("{:.6}", r.loss),
                format!("{:.6}", r.ci),
                format!("{:.6}", r.blocked_frac),
            ]);
        } else {
            println!(
                "  {:<44} loss = {:.4} ± {:.4}   utilization = {:.3}",
                c.name, r.loss, r.ci, r.utilization
            );
            rows.push(vec![
                c.name.clone(),
                format!("{:.6}", r.loss),
                format!("{:.6}", r.ci),
                format!("{:.6}", r.utilization),
            ]);
        }
        if let Some(f) = &c.footer {
            println!("{f}");
        }
    }

    println!("\n-- scheduling-time shape (analytic model, K sweep mean abs diff) --");
    {
        let grid: Vec<f64> = (1..=16).map(|i| i as f64 * 25.0).collect();
        let geo = controlled_curve(
            PanelConfig {
                m: PANEL.m,
                rho_prime: PANEL.rho_prime,
                shape: SchedulingShape::Geometric,
            },
            &grid,
        );
        let exact = controlled_curve(
            PanelConfig {
                m: PANEL.m,
                rho_prime: PANEL.rho_prime,
                shape: SchedulingShape::ExactSplitting,
            },
            &grid,
        );
        let mad: f64 = geo
            .iter()
            .zip(&exact)
            .map(|(g, e)| (g.loss - e.loss).abs())
            .sum::<f64>()
            / grid.len() as f64;
        println!("  geometric vs exact-splitting service shape: mean |Δ p(loss)| = {mad:.5}");
        rows.push(vec![
            "analytic shape delta".into(),
            format!("{mad:.6}"),
            String::new(),
            String::new(),
        ]);
    }

    let path = std::path::PathBuf::from("results/ablations.csv");
    write_csv(&path, &["variant", "loss", "ci95", "utilization"], &rows).expect("csv");
    if let Err(e) = write_observability(obs, &cell_artifacts) {
        diag::error("ablate", &e);
        std::process::exit(diag::EXIT_FAILURE);
    }
    println!("\nresults: {}", path.display());
}
