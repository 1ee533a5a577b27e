//! Journal durability property: a campaign whose journal is cut short at
//! *any* byte boundary — mid-header, mid-line, between lines — must, after
//! `CampaignJournal::resume`, complete to the byte-identical census of an
//! uninterrupted run, at any thread count. Quarantined trials must survive
//! the journal round-trip the same way.

use std::collections::BTreeMap;
use std::path::PathBuf;

use tfsim::bitstate::{Category, StorageKind};
use tfsim::inject::{
    run_campaign_journaled, run_campaign_on, CampaignConfig, CampaignJournal, CampaignObs,
    CampaignResult, FailureMode, JournalMeta,
};
use tfsim::obs::{strip_wall_clock, Event, RingSink};
use tfsim::stats::{census_rows, render_census};
use tfsim::workloads::{self, Workload};

fn config(threads: usize) -> CampaignConfig {
    let mut config = CampaignConfig::quick(0xD5_2004);
    config.start_points = 2;
    config.trials_per_start_point = 10;
    config.monitor_cycles = 800;
    config.scale = 1;
    config.threads = threads;
    config
}

fn two_workloads() -> Vec<Workload> {
    workloads::all()
        .into_iter()
        .filter(|w| w.name == "gzip-like" || w.name == "vpr-like")
        .collect()
}

/// Everything `census_of` flattens: the rendered census text plus every
/// per-outcome counter, so equality is the binary's "byte-identical
/// census" plus the full aggregate state.
type Census = (
    String,
    Vec<(String, String)>,
    BTreeMap<Category, String>,
    BTreeMap<(Category, StorageKind), String>,
);

fn census_of(r: &CampaignResult) -> Census {
    let totals = r.totals();
    let rendered = render_census(&census_rows(
        totals.matched,
        totals.gray,
        FailureMode::ALL.iter().map(|m| (m.label(), totals.failure(*m))),
    ));
    (
        format!("{rendered}eligible bits: {}\n", r.eligible_bits),
        r.benchmarks.iter().map(|b| (b.name.clone(), format!("{:?}", b.counts))).collect(),
        r.by_category.iter().map(|(c, o)| (*c, format!("{o:?}"))).collect(),
        r.by_category_kind.iter().map(|(k, o)| (*k, format!("{o:?}"))).collect(),
    )
}

fn journaled(cfg: &CampaignConfig, workloads: &[Workload], j: &CampaignJournal) -> CampaignResult {
    run_campaign_journaled(cfg, workloads, &CampaignObs::disabled(), Some(j))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tfsim-resume-{}-{name}", std::process::id()))
}

/// Byte boundaries worth cutting at: the file ends, every line seam
/// (newline−1, newline, newline+1), and a deterministic pseudo-random
/// sample of interior positions.
fn cut_points(len: usize) -> Vec<usize> {
    let mut cuts = vec![0, 1, len.saturating_sub(1), len];
    let mut x = 0x0020_04D5_2004_u64;
    for _ in 0..10 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        cuts.push((x >> 16) as usize % len);
    }
    cuts
}

#[test]
fn truncated_journal_resumes_to_the_uninterrupted_census() {
    let workloads = two_workloads();
    let cfg = config(2);
    let reference = census_of(&run_campaign_on(&cfg, &workloads));

    let path = tmp("census.jsonl");
    let meta = JournalMeta::new(&cfg, &workloads);
    {
        let j = CampaignJournal::create(&path, &meta).unwrap();
        let full = journaled(&cfg, &workloads, &j);
        assert_eq!(census_of(&full), reference, "journaling itself changed the census");
    }
    let full_bytes = std::fs::read(&path).unwrap();
    let mut newline_cuts: Vec<usize> = Vec::new();
    for (i, b) in full_bytes.iter().enumerate() {
        if *b == b'\n' {
            newline_cuts.extend([i, i + 1, (i + 2).min(full_bytes.len())]);
        }
    }
    let mut cuts = cut_points(full_bytes.len());
    cuts.extend(newline_cuts);
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        std::fs::write(&path, &full_bytes[..cut]).unwrap();
        let j = CampaignJournal::resume(&path, &meta).unwrap();
        let replayed = j.completed().len();
        let resumed = journaled(&cfg, &workloads, &j);
        assert_eq!(
            census_of(&resumed),
            reference,
            "cut at byte {cut} ({replayed} tasks replayed) diverged from the reference"
        );
    }

    // After the last resume the journal is complete again: a fresh resume
    // replays every task and re-runs nothing, to the same census.
    let j = CampaignJournal::resume(&path, &meta).unwrap();
    assert_eq!(j.completed().len(), 2 * 2, "completed journal must hold every task");
    let replay_only = journaled(&cfg, &workloads, &j);
    assert_eq!(census_of(&replay_only), reference);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn resume_is_thread_count_independent() {
    let workloads = two_workloads();
    let reference = census_of(&run_campaign_on(&config(1), &workloads));

    let path = tmp("threads.jsonl");
    for threads in [1usize, 2, 0] {
        let cfg = config(threads);
        let meta = JournalMeta::new(&cfg, &workloads);
        let j = CampaignJournal::create(&path, &meta).unwrap();
        journaled(&cfg, &workloads, &j);
        drop(j);
        // Cut the journal after roughly one and a half tasks and finish
        // the campaign with a different thread count than wrote it.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() * 3 / 8]).unwrap();
        for resume_threads in [1usize, 2, 0] {
            let mut rcfg = config(resume_threads);
            rcfg.threads = resume_threads;
            // Re-truncate for each resume so every combination starts
            // from the same partial journal.
            std::fs::write(&path, &bytes[..bytes.len() * 3 / 8]).unwrap();
            let j = CampaignJournal::resume(&path, &JournalMeta::new(&rcfg, &workloads))
                .unwrap();
            let resumed = journaled(&rcfg, &workloads, &j);
            assert_eq!(
                census_of(&resumed),
                reference,
                "written by {threads} threads, resumed by {resume_threads}"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn quarantined_trials_survive_the_journal_round_trip() {
    let workloads = two_workloads();
    let mut cfg = config(1);
    cfg.panic_shim = Some((0, 0, 3));
    let reference = run_campaign_on(&cfg, &workloads);
    assert_eq!(reference.quarantined.len(), 1);

    let path = tmp("quarantine.jsonl");
    let meta = JournalMeta::new(&cfg, &workloads);
    {
        let j = CampaignJournal::create(&path, &meta).unwrap();
        journaled(&cfg, &workloads, &j);
    }
    // Resume from the *complete* journal: every task — faults included —
    // is replayed, none re-run, so the quarantine record must come back
    // from the journal rather than from re-executing the shim.
    let j = CampaignJournal::resume(&path, &meta).unwrap();
    assert_eq!(j.completed().iter().map(|t| t.faults.len()).sum::<usize>(), 1);
    let mut replay_cfg = cfg.clone();
    replay_cfg.panic_shim = None; // replay must not need the shim
    let resumed = journaled(&replay_cfg, &workloads, &j);
    assert_eq!(resumed.quarantined, reference.quarantined);
    assert_eq!(census_of(&resumed), census_of(&reference));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn resuming_part_of_a_benchmark_rebuilds_its_timeline_to_the_same_stream() {
    // Start points of one benchmark share a golden timeline. A journal
    // holding only the middle start point of the first benchmark leaves
    // that benchmark with work on both sides of it: the resumed run must
    // build the benchmark's whole timeline and reproduce the uninterrupted
    // census and event stream (valid-instruction counts included).
    // The pruner's footer tally counts only live-executed tasks (a
    // replayed task is not re-pruned), so it is split off the stream and
    // checked on its own.
    let workloads = two_workloads();
    let mut cfg = config(1);
    cfg.start_points = 3;
    let observed = |j: Option<&CampaignJournal>| {
        let sink = RingSink::new(1 << 16);
        let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
        let result = run_campaign_journaled(&cfg, &workloads, &obs, j);
        let mut events = strip_wall_clock(&sink.events());
        let tally = match events.last_mut() {
            Some(Event::CampaignEnd { prune, .. }) => prune.take().map(|p| p.total()),
            other => panic!("the stream must end with its footer, got {other:?}"),
        };
        ((census_of(&result), format!("{:?}", result.scatter), events), tally)
    };
    let path = tmp("partial.jsonl");
    let meta = JournalMeta::new(&cfg, &workloads);
    let reference = {
        let j = CampaignJournal::create(&path, &meta).unwrap();
        observed(Some(&j))
    };
    let middle = CampaignJournal::resume(&path, &meta)
        .unwrap()
        .completed()
        .iter()
        .find(|t| (t.bench, t.start_point) == (0, 1))
        .expect("the full journal holds every task")
        .clone();
    {
        let j = CampaignJournal::create(&path, &meta).unwrap();
        j.append_task(&middle).unwrap();
    }
    let j = CampaignJournal::resume(&path, &meta).unwrap();
    assert_eq!(j.completed().len(), 1);
    let (stream, tally) = reference;
    let planned = 2 * 3 * cfg.trials_per_start_point as u64;
    assert_eq!(tally, Some(planned), "every live site gets one disposition");
    let replayed = cfg.trials_per_start_point as u64;
    assert_eq!(observed(Some(&j)), (stream.clone(), Some(planned - replayed)));
    assert_eq!(observed(None), (stream, tally), "journaling itself changed the stream");
    std::fs::remove_file(&path).unwrap();
}
