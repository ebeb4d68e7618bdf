//! Engine hot-path and sweep-throughput snapshot.
//!
//! Three measurements, written to `BENCH_engine.json` next to
//! `BENCH_robustness.json`:
//!
//! * **steps/sec (clean)** — probe slots per second of a clean engine,
//!   the number the zero-allocation rework must never regress;
//! * **steps/sec (light) and jump speedup** — probe slots per second at
//!   rho = 0.05, where the event-horizon fast path collapses idle
//!   stretches, plus the on/off A-B ratio on the same build (gated by
//!   `check_bench` against an absolute floor);
//! * **allocations/slot** — heap allocations per probe slot in steady
//!   state, counted by a global counting allocator (the scratch-buffer
//!   invariant says this approaches zero once buffers reach their
//!   steady-state capacity);
//! * **cells/sec, serial vs. parallel** — sweep-executor throughput on
//!   a small cell grid at `--jobs 1` and at the host parallelism, plus
//!   the resulting speedup. `host_parallelism` is recorded so the
//!   speedup can be judged against the cores actually available (on a
//!   single-core host the two rates coincide);
//! * **snapshot+restore round trips/sec** — the cost of one crash-safe
//!   checkpoint: `Engine::snapshot()` on a warmed engine followed by
//!   `Engine::restore()` into a freshly built one. Checkpointing is
//!   opt-in and off the probe-slot hot path, so this is a capacity
//!   number for supervisors, not a hot-path gate — the zero-overhead
//!   claim for non-checkpointing runs rests on `allocs_per_slot` and
//!   `steps_per_sec_clean` staying put.
//!
//! Pass `--quick` for the CI smoke mode (shorter horizon, fewer
//! samples; the JSON fields keep the same meaning).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tcw_experiments::runner::Cell;
use tcw_experiments::runner::{PolicyKind, SimSettings};
use tcw_experiments::sweep::{default_jobs, run_cells};
use tcw_experiments::PANELS;
use tcw_mac::{ChannelConfig, PoissonArrivals};
use tcw_sim::time::{Dur, Time};
use tcw_window::engine::{poisson_engine, Engine};
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::NoopObserver;

/// Counts every allocation and reallocation; the simulation workspace
/// forbids unsafe code, but the bench binary may host the allocator shim
/// (it delegates straight to [`System`]).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const STATIONS: u32 = 20;

/// The light-load offered rate for the event-horizon measurements: at
/// rho = 0.05 almost every decision cycle is an idle probe, the regime
/// the jump-ahead kernel collapses into O(1) work per stretch.
const RHO_LIGHT: f64 = 0.05;

fn build_at(rho: f64) -> Engine<PoissonArrivals> {
    let channel = ChannelConfig {
        ticks_per_tau: 4,
        message_slots: 5,
        guard: false,
    };
    let measure = MeasureConfig {
        start: Time::ZERO,
        end: Time::from_ticks(u64::MAX / 2),
        deadline: Dur::from_ticks(300),
    };
    poisson_engine(
        channel,
        ControlPolicy::controlled(Dur::from_ticks(300), Dur::from_ticks(12)),
        measure,
        rho,
        STATIONS,
        1983,
    )
}

fn build() -> Engine<PoissonArrivals> {
    build_at(0.6)
}

fn slots(eng: &Engine<PoissonArrivals>) -> u64 {
    eng.channel_stats.idle_slots
        + eng.channel_stats.collision_slots
        + eng.channel_stats.successes
        + eng.channel_stats.erased_slots
}

/// Median clean-engine probe slots per second.
fn steps_per_sec(samples: usize, horizon: u64) -> f64 {
    let mut rates: Vec<f64> = (0..samples)
        .map(|_| {
            let mut eng = build();
            let t0 = Instant::now();
            eng.run_until(Time::from_ticks(horizon), &mut NoopObserver);
            eng.drain(&mut NoopObserver);
            let elapsed = t0.elapsed().as_secs_f64();
            std::hint::black_box(eng.metrics.offered());
            slots(&eng) as f64 / elapsed
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

/// Median light-load probe slots per second with the event-horizon fast
/// path on or off. The on/off pair is the A-B the `check_bench` floor
/// gates: both runs are bit-identical in every metric (pinned by the
/// `horizon_equivalence` property suite), so the ratio is pure
/// dispatch-cost reduction.
fn steps_per_sec_light(samples: usize, horizon: u64, jump: bool) -> f64 {
    let mut rates: Vec<f64> = (0..samples)
        .map(|_| {
            let mut eng = build_at(RHO_LIGHT);
            eng.set_jump_ahead(jump);
            let t0 = Instant::now();
            eng.run_until(Time::from_ticks(horizon), &mut NoopObserver);
            eng.drain(&mut NoopObserver);
            let elapsed = t0.elapsed().as_secs_f64();
            std::hint::black_box(eng.metrics.offered());
            slots(&eng) as f64 / elapsed
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

/// Steady-state allocations per probe slot: warm the engine for a
/// quarter of the horizon (scratch buffers grow to their steady-state
/// capacity), then count allocations over the remainder. Deterministic —
/// the engine makes the same allocations on every run of a fixed seed.
fn allocs_per_slot(horizon: u64) -> f64 {
    let mut eng = build();
    eng.run_until(Time::from_ticks(horizon / 4), &mut NoopObserver);
    let slots_before = slots(&eng);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    eng.run_until(Time::from_ticks(horizon), &mut NoopObserver);
    let measured_slots = slots(&eng) - slots_before;
    let measured_allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    std::hint::black_box(eng.metrics.offered());
    measured_allocs as f64 / measured_slots.max(1) as f64
}

/// Median snapshot+restore round trips per second on a warmed engine.
/// Each round trip serializes the full engine state (arrival cursor,
/// per-station windows, metrics, scratch buffers) and revives it in a
/// freshly built engine, exactly what a supervisor pays per checkpoint.
fn snapshot_restore_per_sec(samples: usize, horizon: u64) -> f64 {
    let mut eng = build();
    eng.run_until(Time::from_ticks(horizon / 4), &mut NoopObserver);
    let rounds: u64 = 200;
    let mut rates: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..rounds {
                let words = eng.snapshot().expect("snapshot a warmed engine");
                let mut fresh = build();
                fresh.restore(&words).expect("restore a fresh snapshot");
                std::hint::black_box(slots(&fresh));
            }
            rounds as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

fn sweep_grid(cells: usize) -> Vec<Cell> {
    let settings = SimSettings {
        ticks_per_tau: 8,
        messages: 1_000,
        warmup: 100,
        ..Default::default()
    };
    (0..cells)
        .map(|i| {
            Cell::clean(
                PANELS[i % PANELS.len()],
                PolicyKind::Controlled,
                100.0,
                settings,
                1983 + i as u64,
            )
        })
        .collect()
}

/// Median sweep throughput (cells per second) at the given worker count.
fn cells_per_sec(cells: &[Cell], jobs: usize, samples: usize) -> f64 {
    let mut rates: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let out = run_cells(cells, jobs);
            let elapsed = t0.elapsed().as_secs_f64();
            std::hint::black_box(out.len());
            cells.len() as f64 / elapsed
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let samples = if quick { 3 } else { 7 };
    let horizon: u64 = if quick { 80_000 } else { 200_000 };
    let grid = sweep_grid(if quick { 4 } else { 8 });
    let parallel_jobs = default_jobs();

    let steps = steps_per_sec(samples, horizon);
    println!("engine/steps_per_sec_clean        {steps:>14.0} slots/s ({samples} samples)");

    // Light load runs a longer simulated horizon: with the fast path on,
    // the wall-clock per run would otherwise be too small to time.
    let horizon_light = horizon * 16;
    let light = steps_per_sec_light(samples, horizon_light, true);
    println!("engine/steps_per_sec_light        {light:>14.0} slots/s (rho={RHO_LIGHT}, {samples} samples)");
    let light_off = steps_per_sec_light(samples, horizon_light, false);
    let jump_speedup = light / light_off;
    println!(
        "engine/light_jump_speedup         {jump_speedup:>14.2} x (jump-ahead on vs off at rho={RHO_LIGHT})"
    );

    let allocs = allocs_per_slot(horizon);
    println!("engine/allocs_per_slot            {allocs:>14.4} allocs/slot");

    let serial = cells_per_sec(&grid, 1, samples);
    println!("engine/sweep_cells_per_sec_serial {serial:>14.3} cells/s ({samples} samples)");
    let parallel = cells_per_sec(&grid, parallel_jobs, samples);
    println!(
        "engine/sweep_cells_per_sec_parallel {parallel:>12.3} cells/s ({parallel_jobs} jobs, {samples} samples)"
    );
    let speedup = parallel / serial;
    println!(
        "engine/sweep_parallel_speedup     {speedup:>14.2} x ({parallel_jobs} workers available)"
    );

    let snap = snapshot_restore_per_sec(samples, horizon);
    println!("engine/snapshot_restore_per_sec   {snap:>14.0} round trips/s ({samples} samples)");

    // Flat JSON, manual formatting (the workspace has no serialization
    // dependency); CI parses it and compares against the committed copy.
    let json = format!(
        "{{\n  \"engine_steps_per_sec_clean\": {steps:.0},\n  \"engine_steps_per_sec_light\": {light:.0},\n  \"engine_light_jump_speedup\": {jump_speedup:.3},\n  \"engine_allocs_per_slot\": {allocs:.4},\n  \"sweep_cells_per_sec_serial\": {serial:.3},\n  \"sweep_cells_per_sec_parallel\": {parallel:.3},\n  \"sweep_parallel_speedup\": {speedup:.3},\n  \"engine_snapshot_restore_per_sec\": {snap:.0},\n  \"host_parallelism\": {parallel_jobs}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("wrote BENCH_engine.json");
}
