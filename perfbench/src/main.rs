//! Benchmark of the time-window protocol simulator, end to end and layer
//! by layer.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload heavy --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One repetition sets up and runs every cell of the workload once, each
//! on its own seed derived from `--seed`; repetitions continue until
//! `--seconds` have passed. Every finished cell is checked (full drain,
//! channel-time conservation). Untraced, the first repetition is then
//! re-run on the slot-stepped slow path and must reproduce every simulated
//! statistic; traced, every cell's instrumented pass must reproduce its
//! bare pass. The pooled loss of each clean cell must agree with the
//! paper's analytic model. The last line of standard output is one JSON
//! object: with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer metrics. See `perfbench/README.md` for what each one means.

mod probe;
mod workload;

use probe::{LayerProbe, LAYERS, LAYER_METRICS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tcw_mac::{ArrivalSource, PoissonArrivals};
use tcw_obs::{Registry, SpanTracer};
use tcw_sim::rng::{stream_seed, Rng};
use tcw_window::trace::NoopObserver;
use workload::{finish, probe_slots, CellOutcome, CellSpec, Workload};

/// Counts allocations and reallocations, delegating to [`System`].
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
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

/// Repetitions run however short `--seconds` is.
const MIN_REPS: u64 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}, want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One untraced cell: timed set-up and timed measured stretch.
struct Timed {
    setup_s: f64,
    run_s: f64,
    slots: u64,
    outcome: CellOutcome,
}

fn timed_cell(spec: &CellSpec, seed: u64) -> Result<Timed, String> {
    let t = Instant::now();
    let mut eng = spec.set_up(seed);
    let setup_s = t.elapsed().as_secs_f64();
    let slots0 = probe_slots(&eng);
    let t = Instant::now();
    spec.run(&mut eng, &mut NoopObserver);
    let run_s = t.elapsed().as_secs_f64();
    Ok(Timed {
        setup_s,
        run_s,
        slots: probe_slots(&eng) - slots0,
        outcome: finish(&eng)?,
    })
}

/// Per-layer sums of one traced cell.
#[derive(Default)]
struct Traced {
    slots: u64,
    layer_ns: [u64; LAYERS],
    observer_ns: u64,
    allocs: u64,
    fastpath_slots: u64,
    collision_slots: u64,
    deliveries: u64,
    snapshot_ns: u64,
    export_ns: u64,
    source_ns: u64,
    arrivals: u64,
    offered: u64,
    lost: u64,
}

/// One traced cell. The measured stretch runs twice from the same set-up:
/// once bare, counting allocations and fast-path rounds, and once on an
/// engine revived from a snapshot of the set-up, under a [`LayerProbe`]
/// around a span tracer. Both must produce the same outcome.
fn traced_cell(spec: &CellSpec, seed: u64) -> Result<Traced, String> {
    let mut eng = spec.set_up(seed);
    let slots0 = probe_slots(&eng);
    let hz0 = eng.horizon_stats;
    let coll0 = eng.channel_stats.collision_slots;
    let succ0 = eng.channel_stats.successes;
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    spec.run(&mut eng, &mut NoopObserver);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let bare = finish(&eng)?;
    let hz = eng.horizon_stats;

    // Snapshot codec: checkpoint the set-up state and revive it.
    let setup = spec.set_up(seed);
    let t = Instant::now();
    let words = setup.snapshot().map_err(|e| format!("snapshot: {e:?}"))?;
    let mut revived = spec.engine(seed);
    revived
        .restore(&words)
        .map_err(|e| format!("restore: {e:?}"))?;
    let snapshot_ns = t.elapsed().as_nanos() as u64;

    let mut probe = LayerProbe::new(SpanTracer::new());
    spec.run(&mut revived, &mut probe);
    let (mut spans, layer_ns, observer_ns) = probe.stop();
    if finish(&revived)? != bare {
        return Err("a revived, span-traced run diverged from the bare run".into());
    }
    if !spans.finish().contains("\"span_close\"") {
        return Err("span tracer recorded no closed span".into());
    }

    // Metrics exposition: the engine's accounting into a registry, rendered.
    let t = Instant::now();
    let mut reg = Registry::new();
    revived.metrics.emit(&mut reg);
    revived.channel_stats.emit(&mut reg);
    revived.churn().emit(&mut reg);
    revived.horizon_stats.emit(&mut reg);
    let text = reg.to_prometheus() + &reg.to_json();
    let export_ns = t.elapsed().as_nanos() as u64;
    if !text.contains("tcw_channel_successes_total") {
        return Err("metrics export lost the channel counters".into());
    }

    // Traffic source: the cell's arrival stream, drawn on its own.
    let t = Instant::now();
    let mut source = PoissonArrivals::per_tau(
        spec.rho_prime / spec.m as f64,
        spec.ticks_per_tau,
        spec.stations,
    );
    let mut rng = Rng::new(seed);
    let end = spec.horizon();
    let mut arrivals = 0u64;
    while let Some(a) = source.next_arrival(&mut rng) {
        arrivals += 1;
        if a.time >= end {
            break;
        }
    }
    let source_ns = t.elapsed().as_nanos() as u64;

    Ok(Traced {
        slots: probe_slots(&eng) - slots0,
        layer_ns,
        observer_ns,
        allocs,
        fastpath_slots: (hz.slots_skipped - hz0.slots_skipped)
            + (hz.batched_slots - hz0.batched_slots),
        collision_slots: eng.channel_stats.collision_slots - coll0,
        deliveries: eng.channel_stats.successes - succ0,
        snapshot_ns,
        export_ns,
        source_ns,
        arrivals,
        offered: bare.offered,
        lost: bare.lost,
    })
}

/// Quantile at which host times are reported. On a shared host, slow
/// stretches caused by other tenants last from a few hundred milliseconds
/// to seconds and make the per-repetition times bimodal, so their median
/// jumps between the modes from run to run; a low quantile tracks the
/// program's own cost. Runs are sized so that at least ten repetitions
/// fall below it.
const TIME_Q: f64 = 0.05;

/// Host time of [`reference_kernel`] on the reference host. Reported times
/// are scaled by this over the kernel's measured time (at [`TIME_Q`]), so
/// a run during a sustained slowdown of the whole host, which slows the
/// kernel alike, reads the same as an undisturbed one.
const REFERENCE_NS: f64 = 300_000.0;

/// A fixed computation that shares no code with the repository: ordered-map
/// churn, a xorshift generator and logarithms, the operation mix of the
/// engine's hot path. Returns its host time in nanoseconds; about
/// [`REFERENCE_NS`] on an undisturbed 2-vCPU Xeon virtual machine.
fn reference_kernel() -> f64 {
    let t = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..5_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 8192, i);
        if map.len() > 512 {
            map.pop_first();
        }
        acc += ((x >> 11) as f64 / (1u64 << 53) as f64 + 1e-300).ln();
    }
    std::hint::black_box((acc, map.len()));
    t.elapsed().as_nanos() as f64
}

/// Nearest-rank quantile of a nonempty sample.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Named per-repetition samples. Times are reported at [`TIME_Q`] and
/// scaled to the reference host; counts and ratios as medians.
#[derive(Default)]
struct Samples(Vec<Series>);

struct Series {
    name: &'static str,
    unit: &'static str,
    is_time: bool,
    values: Vec<f64>,
}

impl Samples {
    fn push(&mut self, name: &'static str, unit: &'static str, is_time: bool, value: f64) {
        match self.0.iter_mut().find(|s| s.name == name) {
            Some(s) => s.values.push(value),
            None => self.0.push(Series {
                name,
                unit,
                is_time,
                values: vec![value],
            }),
        }
    }

    fn time(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, true, value);
    }

    fn count(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, false, value);
    }

    /// The metrics object of the result line.
    fn to_json(&self, host_scale: f64) -> String {
        let mut out = String::new();
        for s in &self.0 {
            let value = if s.is_time {
                quantile(&s.values, TIME_Q) * host_scale
            } else {
                quantile(&s.values, 0.5)
            };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if out.is_empty() { "" } else { ", " },
                s.name,
                s.unit
            );
        }
        out
    }
}

/// Everything one run accumulates.
struct Run {
    samples: Samples,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Pooled (offered, lost) per cell of the repetition.
    pooled: Vec<(u64, u64)>,
    /// Outcomes of the first repetition, for the slow-path re-run.
    first: Vec<Option<CellOutcome>>,
}

impl Run {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

fn record_untraced(run: &mut Run, cells: &[CellSpec], base: u64, rep: u64) {
    let (mut setup_s, mut run_s, mut slots) = (0.0, 0.0, 0u64);
    for (i, spec) in cells.iter().enumerate() {
        run.attempted += 1;
        match guarded(|| timed_cell(spec, stream_seed(base, i as u64))) {
            Ok(t) => {
                setup_s += t.setup_s;
                run_s += t.run_s;
                slots += t.slots;
                run.pooled[i].0 += t.outcome.offered;
                run.pooled[i].1 += t.outcome.lost;
                if rep == 0 {
                    run.first[i] = Some(t.outcome);
                }
            }
            Err(e) => run.fail(format!("rep {rep} cell {i}: {e}")),
        }
    }
    let s = &mut run.samples;
    s.time("slot_ns", "ns", run_s * 1e9 / slots.max(1) as f64);
    s.time("sim_ms", "ms", run_s * 1e3);
    s.time("setup_s", "s", setup_s);
}

fn record_traced(run: &mut Run, cells: &[CellSpec], base: u64, rep: u64) {
    let mut sum = Traced::default();
    for (i, spec) in cells.iter().enumerate() {
        run.attempted += 1;
        match guarded(|| traced_cell(spec, stream_seed(base, i as u64))) {
            Ok(t) => {
                sum.slots += t.slots;
                for (a, b) in sum.layer_ns.iter_mut().zip(t.layer_ns) {
                    *a += b;
                }
                sum.observer_ns += t.observer_ns;
                sum.allocs += t.allocs;
                sum.fastpath_slots += t.fastpath_slots;
                sum.collision_slots += t.collision_slots;
                sum.deliveries += t.deliveries;
                sum.snapshot_ns += t.snapshot_ns;
                sum.export_ns += t.export_ns;
                sum.source_ns += t.source_ns;
                sum.arrivals += t.arrivals;
                sum.offered += t.offered;
                sum.lost += t.lost;
                run.pooled[i].0 += t.offered;
                run.pooled[i].1 += t.lost;
            }
            Err(e) => run.fail(format!("rep {rep} cell {i}: {e}")),
        }
    }
    let slots = sum.slots.max(1) as f64;
    let n = cells.len() as f64;
    let s = &mut run.samples;
    for (name, ns) in LAYER_METRICS.iter().zip(sum.layer_ns) {
        s.time(name, "ns", ns as f64 / slots);
    }
    s.time("observer_ns", "ns", sum.observer_ns as f64 / slots);
    let per_arrival = sum.source_ns as f64 / sum.arrivals.max(1) as f64;
    s.time("source_ns", "ns", per_arrival);
    s.time("snapshot_us", "us", sum.snapshot_ns as f64 / 1e3 / n);
    s.time("export_us", "us", sum.export_ns as f64 / 1e3 / n);
    s.count("allocs_per_slot", "count", sum.allocs as f64 / slots);
    let fastpath = 100.0 * sum.fastpath_slots as f64 / slots;
    s.count("fastpath_pct", "%", fastpath);
    let collisions = 100.0 * sum.collision_slots as f64 / slots;
    s.count("collision_pct", "%", collisions);
    let per_delivery = slots / sum.deliveries.max(1) as f64;
    s.count("slots_per_delivery", "count", per_delivery);
    let loss = 100.0 * sum.lost as f64 / sum.offered.max(1) as f64;
    s.count("loss_pct", "%", loss);
}

/// Re-runs the first repetition with the event-horizon fast path off; the
/// slot-stepped engine must reproduce every simulated statistic.
fn check_slow_path(run: &mut Run, cells: &[CellSpec], seed: u64) {
    let base = stream_seed(seed, 0);
    for (i, spec) in cells.iter().enumerate() {
        let Some(expected) = run.first[i] else {
            continue;
        };
        run.attempted += 1;
        let got = guarded(|| {
            let mut eng = spec.engine(stream_seed(base, i as u64));
            eng.set_jump_ahead(false);
            spec.run(&mut eng, &mut NoopObserver);
            finish(&eng)
        });
        match got {
            Ok(o) if o == expected => {}
            Ok(_) => run.fail(format!("cell {i}: slow path diverged from fast path")),
            Err(e) => run.fail(format!("cell {i} slow path: {e}")),
        }
    }
}

/// The pooled loss of every clean cell must agree with the analytic model
/// within four binomial standard errors plus the model's own error (the
/// repository's analytic-vs-simulation tests allow 0.015 to 0.02).
fn check_analytic(run: &mut Run, cells: &[CellSpec]) {
    for (i, spec) in cells.iter().enumerate() {
        let Some(analytic) = spec.analytic_loss() else {
            continue;
        };
        let (offered, lost) = run.pooled[i];
        if offered == 0 {
            continue;
        }
        run.attempted += 1;
        let p = lost as f64 / offered as f64;
        let se = (p * (1.0 - p) / offered as f64).sqrt();
        let tol = 4.0 * se + 0.02 + 0.1 * analytic;
        eprintln!(
            "perfbench: cell {i} (rho'={} M={}): loss {p:.4} over {offered} messages, analytic {analytic:.4}",
            spec.rho_prime, spec.m
        );
        if (p - analytic).abs() > tol {
            run.fail(format!(
                "cell {i} (rho'={} M={}): simulated loss {p:.4} vs analytic {analytic:.4} (tol {tol:.4})",
                spec.rho_prime, spec.m
            ));
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload light|heavy|fig7|stress --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let cells = args.workload.cells();
    let mut run = Run {
        samples: Samples::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        pooled: vec![(0, 0); cells.len()],
        first: vec![None; cells.len()],
    };

    let mut reference = Vec::new();
    let t0 = Instant::now();
    let mut rep = 0u64;
    while rep < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds {
        let base = stream_seed(args.seed, rep);
        reference.push(reference_kernel());
        if args.trace {
            record_traced(&mut run, &cells, base, rep);
        } else {
            record_untraced(&mut run, &cells, base, rep);
        }
        rep += 1;
    }
    let measured_s = t0.elapsed().as_secs_f64();
    if !args.trace {
        check_slow_path(&mut run, &cells, args.seed);
    }
    check_analytic(&mut run, &cells);

    let reference_ns = quantile(&reference, TIME_Q);
    let metrics = run.samples.to_json(REFERENCE_NS / reference_ns);
    for e in &run.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    eprintln!(
        "perfbench: {rep} x {} cell(s) in {measured_s:.1} s, {} failed; reference kernel {:.0} us",
        cells.len(),
        run.failed,
        reference_ns / 1e3
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed
    );
}
