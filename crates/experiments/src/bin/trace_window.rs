//! Reproduces the operational walk-throughs of the paper:
//!
//! * **Figure 1** — the windowing process: an empty initial window, a new
//!   window with a collision, a split with another collision, and the
//!   final split isolating station 3's message;
//! * **Figure 4** — the controlled protocol maintaining `t_past`;
//! * **Figure 2** — a station's fragmented view of the time axis under a
//!   non-FCFS discipline (LCFS leaves examined gaps).

use tcw_experiments::diag;
use tcw_mac::{ChannelConfig, TraceArrivals};
use tcw_sim::time::{Dur, Time};
use tcw_window::engine::{Engine, EngineConfig};
use tcw_window::metrics::MeasureConfig;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::TraceRecorder;

fn channel() -> ChannelConfig {
    ChannelConfig {
        ticks_per_tau: 8,
        message_slots: 4,
        guard: false,
    }
}

fn measure() -> MeasureConfig {
    MeasureConfig {
        start: Time::ZERO,
        end: Time::from_ticks(1 << 40),
        deadline: Dur::from_ticks(8 * 40),
    }
}

fn main() {
    diag::parse("trace_window", diag::NO_ARGS);
    println!("== Figure 1: operation of the time window protocol ==\n");
    println!("Four stations; station 1 and 2 and 3 hold messages whose arrival");
    println!("times fall inside the second initial window; splitting isolates");
    println!("them one at a time (all times in ticks; tau = 8 ticks).\n");
    {
        // First window [0,32) is empty (fig 1a); the next window catches
        // three clustered arrivals (fig 1b); splitting resolves (fig 1c/1d).
        let arrivals = TraceArrivals::from_ticks(&[(34, 1), (45, 2), (52, 3)]);
        let mut eng = Engine::new(
            EngineConfig {
                channel: channel(),
                policy: ControlPolicy::fcfs(Dur::from_ticks(32)),
                measure: measure(),
                seed: 1,
            },
            arrivals,
        );
        let mut rec = TraceRecorder::new(64);
        eng.run_until(Time::from_ticks(300), &mut rec);
        eng.drain(&mut rec);
        println!("{}\n", rec.text());
    }

    println!("== Figure 4: the controlled window protocol and t_past ==\n");
    println!("Same arrivals, deadline K = 40 tau; the window always begins at");
    println!("t_past, the oldest instant that may hold untransmitted messages,");
    println!("and everything older than K is discarded.\n");
    {
        let arrivals = TraceArrivals::from_ticks(&[(34, 1), (45, 2), (52, 3), (200, 0)]);
        let mut eng = Engine::new(
            EngineConfig {
                channel: channel(),
                policy: ControlPolicy::controlled(Dur::from_ticks(8 * 40), Dur::from_ticks(32)),
                measure: measure(),
                seed: 2,
            },
            arrivals,
        );
        let mut rec = TraceRecorder::new(64);
        eng.run_until(Time::from_ticks(400), &mut rec);
        eng.drain(&mut rec);
        println!("{}\n", rec.text());
    }

    println!("== Figure 2: a station's view of the time axis (LCFS) ==\n");
    println!("Under LCFS the examined intervals fragment the past; the");
    println!("unexamined gaps below may still contain untransmitted messages.\n");
    {
        let arrivals = TraceArrivals::from_ticks(&[(5, 0), (100, 1), (130, 2), (220, 3)]);
        let mut eng = Engine::new(
            EngineConfig {
                channel: channel(),
                policy: ControlPolicy::lcfs(Dur::from_ticks(24)),
                measure: measure(),
                seed: 3,
            },
            arrivals,
        );
        let mut rec = TraceRecorder::new(40);
        eng.run_until(Time::from_ticks(260), &mut rec);
        println!("{}", rec.text());
        let gaps = eng.timeline().unexamined();
        println!("\nunexamined gaps at t={}:", eng.now());
        for g in &gaps {
            println!("  {g}");
        }
        println!(
            "(fragmented into {} gaps; the controlled protocol always has exactly one)",
            gaps.len()
        );
    }
}
