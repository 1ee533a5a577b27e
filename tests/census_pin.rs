//! External census pin: a small quick-preset campaign with overlapping
//! golden windows, run on both engines, must reproduce a checked-in
//! census and trial-event stream byte for byte.
//!
//! The engine and thread-count identity pins compare engines against each
//! other, and every engine reads the same prepared start point, so they
//! cannot see a bug in golden preparation itself. This file can: it was
//! generated before golden preparation was shared across start points,
//! and any drift in the fingerprint ladder, the retire trace, the halt
//! freeze, or the valid-instruction counts shows up as a diff here.
//!
//! Updating the reference is a deliberate act:
//! `TFSIM_UPDATE_PIN=1 cargo test --offline --test census_pin` rewrites
//! it from the ladder run, and the change must be reviewed and logged.

use std::fmt::Write as _;
use std::path::PathBuf;

use tfsim::inject::{run_campaign_observed, CampaignConfig, CampaignObs, CampaignResult, Engine};
use tfsim::obs::{strip_wall_clock, Event, RingSink};
use tfsim::workloads::{self, Workload};

const REFERENCE: &str = "tests/data/census_pin.txt";

/// Three start points 600 cycles apart with a 1,400-cycle horizon: every
/// window overlaps its neighbours.
fn config() -> CampaignConfig {
    let mut config = CampaignConfig::quick(0xC3_2004);
    config.start_points = 3;
    config.trials_per_start_point = 10;
    config.monitor_cycles = 1_200;
    config.scale = 1;
    config.threads = 2;
    config
}

fn two_workloads() -> Vec<Workload> {
    workloads::all()
        .into_iter()
        .filter(|w| w.name == "gzip-like" || w.name == "mcf-like")
        .collect()
}

/// The census (every counter, the scatter points, the eligible bits) and
/// the wall-clock-stripped trial events, one per line.
fn render(r: &CampaignResult, events: &[Event]) -> String {
    let mut out = String::new();
    for b in &r.benchmarks {
        writeln!(out, "benchmark {} {:?}", b.name, b.counts).unwrap();
    }
    for (c, counts) in &r.by_category {
        writeln!(out, "category {} {counts:?}", c.label()).unwrap();
    }
    for ((c, k), counts) in &r.by_category_kind {
        writeln!(out, "category-kind {} {} {counts:?}", c.label(), k.label()).unwrap();
    }
    for s in &r.scatter {
        writeln!(
            out,
            "scatter {} valid={:?} benign={:?} trials={}",
            s.benchmark, s.valid_instructions, s.benign_fraction, s.trials
        )
        .unwrap();
    }
    writeln!(out, "eligible-bits {}", r.eligible_bits).unwrap();
    writeln!(out, "quarantined {}", r.quarantined.len()).unwrap();
    for ev in strip_wall_clock(events) {
        if matches!(ev, Event::Trial { .. } | Event::Quarantine { .. }) {
            writeln!(out, "{}", ev.to_json()).unwrap();
        }
    }
    out
}

fn run(engine: Engine) -> String {
    let mut config = config();
    config.engine = engine;
    let sink = RingSink::new(1 << 16);
    let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
    let result = run_campaign_observed(&config, &two_workloads(), &obs);
    render(&result, &sink.events())
}

fn reference_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(REFERENCE)
}

#[test]
fn every_engine_reproduces_the_pinned_census() {
    let ladder = run(Engine::Ladder);
    if std::env::var_os("TFSIM_UPDATE_PIN").is_some() {
        std::fs::write(reference_path(), &ladder).expect("write the pinned census");
    }
    let pinned = std::fs::read_to_string(reference_path()).expect("read the pinned census");
    // Every trial of 2 benchmarks x 3 start points x 10 trials is pinned.
    assert_eq!(ladder.lines().filter(|l| l.starts_with('{')).count(), 2 * 3 * 10);
    for (engine, got) in [("ladder", ladder.clone()), ("pruned", run(Engine::Pruned))] {
        if got != pinned {
            let first = got
                .lines()
                .zip(pinned.lines())
                .position(|(a, b)| a != b)
                .unwrap_or(got.lines().count().min(pinned.lines().count()));
            panic!(
                "{engine} engine drifted from {REFERENCE} at line {}:\n  got:    {:?}\n  pinned: {:?}",
                first + 1,
                got.lines().nth(first),
                pinned.lines().nth(first)
            );
        }
    }
}
