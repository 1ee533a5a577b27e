//! Distributed-execution property: a lease-based coordinator/worker
//! campaign — under any number of workers, any engine mix, and any seeded
//! chaos schedule (worker kills, stalled heartbeats, torn shard tails,
//! dropped and duplicated frames) — must converge to the byte-identical
//! census and (wall-clock-stripped) event stream of a single-process run.
//! When every worker dies the campaign must still complete via `--resume`
//! from the coordinator's journal.

use std::net::TcpListener;
use std::path::PathBuf;

use tfsim::check::Chaos;
use tfsim::inject::{
    merge_shards, run_campaign_journaled, run_campaign_observed, run_campaign_with_tasks,
    run_worker, serve_campaign, CampaignConfig, CampaignJournal, CampaignObs, CampaignResult,
    Engine, FailureMode, JournalMeta, ServeConfig, ServeReport, WorkerConfig, WorkerReport,
};
use tfsim::obs::{strip_wall_clock, Event, NoopSink, RingSink};
use tfsim::stats::{census_rows, render_census};
use tfsim::workloads::{self, Workload};

fn config() -> CampaignConfig {
    let mut config = CampaignConfig::quick(0xD15_2004);
    config.start_points = 2;
    config.trials_per_start_point = 8;
    config.monitor_cycles = 800;
    config.scale = 1;
    config
}

fn two_workloads() -> Vec<Workload> {
    workloads::all()
        .into_iter()
        .filter(|w| w.name == "gzip-like" || w.name == "mcf-like")
        .collect()
}

fn census_of(r: &CampaignResult) -> String {
    let totals = r.totals();
    let rendered = render_census(&census_rows(
        totals.matched,
        totals.gray,
        FailureMode::ALL.iter().map(|m| (m.label(), totals.failure(*m))),
    ));
    format!("{rendered}eligible bits: {}\n", r.eligible_bits)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tfsim-dist-{}-{name}", std::process::id()))
}

/// One worker's knobs for [`cluster`].
struct Spawn {
    chaos: &'static str,
    shard: Option<PathBuf>,
    engine: Engine,
}

impl Spawn {
    fn clean() -> Spawn {
        Spawn { chaos: "", shard: None, engine: Engine::default() }
    }
    fn chaotic(spec: &'static str) -> Spawn {
        Spawn { chaos: spec, shard: None, engine: Engine::default() }
    }
}

/// Runs a coordinator plus `workers` in-process (threads over localhost
/// TCP) and returns the coordinator's report with each worker's result.
fn cluster(
    cfg: &CampaignConfig,
    wl: &[Workload],
    serve: &ServeConfig,
    journal: Option<&CampaignJournal>,
    workers: Vec<Spawn>,
) -> (ServeReport, Vec<std::io::Result<WorkerReport>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::scope(|scope| {
        let coordinator = scope.spawn(|| {
            serve_campaign(listener, cfg, wl, journal, &NoopSink, serve).expect("serve")
        });
        let handles: Vec<_> = workers
            .into_iter()
            .map(|spawn| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut wc = WorkerConfig::new(addr);
                    wc.engine = spawn.engine;
                    wc.shard = spawn.shard;
                    if !spawn.chaos.is_empty() {
                        wc.chaos = Chaos::parse(spawn.chaos).expect("chaos spec");
                    }
                    // Keep retry stalls short: these tests drop frames on
                    // purpose and reconnect through the backoff path.
                    wc.backoff_base_ms = 10;
                    wc.backoff_cap_ms = 100;
                    run_worker(&wc)
                })
            })
            .collect();
        let results = handles.into_iter().map(|h| h.join().expect("worker thread")).collect();
        (coordinator.join().expect("coordinator thread"), results)
    })
}

fn short_leases() -> ServeConfig {
    // Short leases so a killed or stalled worker's tasks reassign within
    // the test's patience; the idle timeout only fires if no worker ever
    // connects (a hang would otherwise block the suite forever).
    ServeConfig { lease_ms: 400, heartbeat_ms: 50, idle_timeout_ms: 120_000 }
}

/// Replays a complete task set through the aggregation path and snapshots
/// census plus wall-clock-stripped event stream.
fn replay(cfg: &CampaignConfig, wl: &[Workload], report: ServeReport) -> (String, Vec<Event>) {
    assert!(report.complete, "campaign did not complete: {:?}", report.stats);
    let sink = RingSink::new(1 << 16);
    let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
    let result = run_campaign_with_tasks(cfg, wl, &obs, report.tasks);
    (census_of(&result), strip_wall_clock(&sink.events()))
}

#[test]
fn distributed_census_and_event_stream_match_single_process() {
    let cfg = config();
    let wl = two_workloads();
    let sink = RingSink::new(1 << 16);
    let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
    // Replayed tasks carry no pruner tally into the footer, so the stream
    // the merged tasks must reproduce is the in-process ladder's.
    let reference_cfg = CampaignConfig { engine: Engine::Ladder, ..cfg.clone() };
    let reference = run_campaign_observed(&reference_cfg, &wl, &obs);
    let ref_census = census_of(&reference);
    let ref_events = strip_wall_clock(&sink.events());

    // Two clean workers, one on the default fast engine and one on the
    // ladder: the engine mix is an execution strategy, invisible in the
    // merged results.
    let mixed = Spawn { engine: Engine::Ladder, ..Spawn::clean() };
    let (report, results) =
        cluster(&cfg, &wl, &short_leases(), None, vec![Spawn::clean(), mixed]);
    for r in results {
        r.expect("clean workers must succeed");
    }
    assert_eq!(report.workers_seen, 2);
    let (census, events) = replay(&cfg, &wl, report);
    assert_eq!(census, ref_census);
    assert_eq!(events, ref_events, "event streams diverged after strip_wall_clock");
}

#[test]
fn chaos_schedules_converge_to_the_reference_census() {
    let cfg = config();
    let wl = two_workloads();
    let reference = census_of(&run_campaign_observed(
        &cfg,
        &wl,
        &CampaignObs { sink: &NoopSink, metrics: None, progress: None, spans: None },
    ));

    // One chaotic worker per schedule, one clean worker to guarantee the
    // campaign drains. Every schedule must converge byte-identically.
    for spec in [
        "seed=1,kill=n1",
        "seed=2,kill=n2",
        "seed=3,drop=p150",
        "seed=4,dup=p300",
        "seed=5,kill=n2,drop=p150,dup=p150",
    ] {
        let (report, _) = cluster(
            &cfg,
            &wl,
            &short_leases(),
            None,
            vec![Spawn::chaotic(spec), Spawn::clean()],
        );
        let (census, _) = replay(&cfg, &wl, report);
        assert_eq!(census, reference, "chaos schedule {spec:?} diverged");
    }
}

#[test]
fn stalled_heartbeats_expire_but_the_first_completion_wins() {
    let cfg = config();
    let wl = two_workloads();
    let reference = census_of(&run_campaign_observed(
        &cfg,
        &wl,
        &CampaignObs { sink: &NoopSink, metrics: None, progress: None, spans: None },
    ));

    // Every task stalls its heartbeats and the lease is far shorter than
    // a debug-build task, so every lease expires mid-compute. The late
    // completions must still be accepted (first completion wins) and any
    // re-executions must be counted as duplicates, never double-counted.
    let serve = ServeConfig { lease_ms: 40, heartbeat_ms: 10, idle_timeout_ms: 120_000 };
    let (report, _) =
        cluster(&cfg, &wl, &serve, None, vec![Spawn::chaotic("seed=6,stall=p1000")]);
    assert!(report.stats.expired > 0, "no lease ever expired: {:?}", report.stats);
    let (census, _) = replay(&cfg, &wl, report);
    assert_eq!(census, reference);
}

#[test]
fn torn_and_duplicated_shards_merge_first_wins() {
    let cfg = config();
    let wl = two_workloads();
    let reference = census_of(&run_campaign_observed(
        &cfg,
        &wl,
        &CampaignObs { sink: &NoopSink, metrics: None, progress: None, spans: None },
    ));

    let torn = tmp("torn.jsonl");
    let clean = tmp("clean.jsonl");
    let _ = std::fs::remove_file(&torn);
    let _ = std::fs::remove_file(&clean);
    // The chaotic worker tears its shard tail and dies after its second
    // task; the clean worker (journaling to its own shard) finishes the
    // campaign, re-executing the torn worker's reassigned tasks.
    let workers = vec![
        Spawn { chaos: "seed=7,tear=n2", shard: Some(torn.clone()), engine: Engine::default() },
        Spawn { chaos: "", shard: Some(clean.clone()), engine: Engine::default() },
    ];
    let (report, _) = cluster(&cfg, &wl, &short_leases(), None, workers);
    let (census, _) = replay(&cfg, &wl, report);
    assert_eq!(census, reference);

    // Merging the shards alone (torn tail repaired in place, overlapping
    // tasks deduplicated first-wins) rebuilds the same census.
    let meta = JournalMeta::new(&cfg, &wl);
    let (tasks, stats) =
        merge_shards(&meta, &[torn.clone(), clean.clone()]).expect("merge");
    let obs = CampaignObs { sink: &NoopSink, metrics: None, progress: None, spans: None };
    let merged = run_campaign_with_tasks(&cfg, &wl, &obs, tasks);
    assert_eq!(census_of(&merged), reference);

    // Merging a complete shard with itself drops every record of the
    // second copy as a duplicate.
    let (tasks, stats2) = merge_shards(&meta, &[clean.clone(), clean.clone()]).expect("merge");
    assert_eq!(stats2.duplicates_dropped, tasks.len());
    let merged_twice = run_campaign_with_tasks(&cfg, &wl, &obs, tasks);
    assert_eq!(census_of(&merged_twice), reference);
    assert!(stats.tasks >= stats2.tasks, "two-worker merge cannot cover fewer tasks");
    std::fs::remove_file(&torn).unwrap();
    std::fs::remove_file(&clean).unwrap();
}

#[test]
fn all_workers_killed_completes_via_resume() {
    let cfg = config();
    let wl = two_workloads();
    let reference = census_of(&run_campaign_observed(
        &cfg,
        &wl,
        &CampaignObs { sink: &NoopSink, metrics: None, progress: None, spans: None },
    ));

    let path = tmp("resume.jsonl");
    let _ = std::fs::remove_file(&path);
    let meta = JournalMeta::new(&cfg, &wl);
    {
        // Both workers die after their first task; the idle timeout then
        // shuts the coordinator down with the campaign incomplete but the
        // accepted completions journaled.
        let journal = CampaignJournal::create(&path, &meta).expect("create journal");
        let serve = ServeConfig { lease_ms: 400, heartbeat_ms: 50, idle_timeout_ms: 1500 };
        let workers = vec![Spawn::chaotic("seed=8,kill=n1"), Spawn::chaotic("seed=9,kill=n1")];
        let (report, results) = cluster(&cfg, &wl, &serve, Some(&journal), workers);
        assert!(!report.complete, "every worker died; the campaign cannot be complete");
        for r in results {
            assert!(r.is_err(), "chaos-killed workers must report failure");
        }
    }
    // A single-process resume picks up the remainder to the same census.
    let journal = CampaignJournal::resume(&path, &meta).expect("resume journal");
    let resumed = run_campaign_journaled(&cfg, &wl, &CampaignObs::disabled(), Some(&journal));
    assert_eq!(census_of(&resumed), reference);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn zero_workers_times_out_incomplete() {
    let cfg = config();
    let wl = two_workloads();
    let serve = ServeConfig { lease_ms: 400, heartbeat_ms: 50, idle_timeout_ms: 150 };
    let (report, _) = cluster(&cfg, &wl, &serve, None, vec![]);
    assert!(!report.complete);
    assert_eq!(report.workers_seen, 0);
    assert_eq!(report.tasks.len(), 0);
}
