//! Performance benchmarks for the simulation substrate: these measure the
//! *harness* (how fast the reproduction runs), complementing the `figures`
//! binary (which regenerates the paper's exhibits).
//!
//! Runs as a plain binary on the in-tree `tfsim-check` bench runner:
//!
//! ```text
//! cargo run --release -p tfsim-bench --bin perf [-- [FILTER] [--json]]
//! ```
//!
//! `FILTER` keeps only benchmarks whose name contains the substring;
//! `--json` appends one JSON object per benchmark after the table.
//! `TFSIM_BENCH_SAMPLES` / `TFSIM_BENCH_SAMPLE_MS` tune the measurement.

use std::net::TcpListener;

use tfsim_arch::FuncSim;
use tfsim_bitstate::{fingerprint_of, InjectionMask};
use tfsim_check::Bench;
use tfsim_inject::{
    run_campaign_journaled, run_campaign_with_tasks, run_worker, serve_campaign, CampaignConfig,
    CampaignJournal, CampaignObs, JournalMeta, ServeConfig, StartPoint, TrialSpec, WorkerConfig,
};
use tfsim_isa::decode;
use tfsim_obs::NoopSink;
use tfsim_protect::{regfile_code, Decoded};
use tfsim_uarch::{Pipeline, PipelineConfig};
use tfsim_workloads::Workload;

/// Whether `name` survives the bench filter. `Bench` itself skips filtered
/// benchmarks, but expensive setup (warm-up + golden precomputation) should
/// be skipped too when nothing downstream will run.
fn wants(b: &Bench, name: &str) -> bool {
    b.filter.as_ref().is_none_or(|f| name.contains(f))
}

fn warmed_pipeline(name: &str, cycles: u64) -> Pipeline {
    let w = tfsim_workloads::by_name(name).expect("workload");
    let p = w.build(4);
    let mut probe = FuncSim::new(&p);
    probe.run(50_000_000);
    let mut cpu = Pipeline::new(&p, PipelineConfig::baseline());
    cpu.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
    for _ in 0..cycles {
        cpu.step();
    }
    cpu
}

fn bench_pipeline_step(b: &mut Bench) {
    for name in ["gzip-like", "mcf-like", "twolf-like"] {
        let cpu = warmed_pipeline(name, 500);
        b.bench_with_setup(
            &format!("pipeline/step-1k/{name}"),
            || cpu.clone(),
            |mut cpu| {
                for _ in 0..1_000 {
                    cpu.step();
                }
                cpu.cycles()
            },
        );
    }
}

fn bench_funcsim(b: &mut Bench) {
    let w = tfsim_workloads::by_name("gzip-like").expect("workload");
    let p = w.build(4);
    b.bench_with_setup("funcsim/step-10k", || FuncSim::new(&p), |mut sim| sim.run(10_000));
}

fn bench_fingerprint(b: &mut Bench) {
    let mut cpu = warmed_pipeline("gzip-like", 500);
    b.bench("fingerprint/full-machine", || fingerprint_of(&mut cpu));
}

fn bench_trial(b: &mut Bench) {
    let cpu = warmed_pipeline("gzip-like", 1_000);
    let sp = StartPoint::prepare(&cpu, 2_000, InjectionMask::LatchesAndRams);
    let mut target = 0u64;
    b.bench("inject/one-trial-2k-window", || {
        target = (target + 7_919) % sp.bit_count();
        sp.run_trial(InjectionMask::LatchesAndRams, target, 50, 1_500)
    });
}

/// A deterministic trial plan shaped like one `default_scale` start point:
/// targets strided across the eligible-bit space, injection cycles strided
/// (unsorted, with repeats) across the injection window.
fn campaign_plan(sp: &StartPoint, trials: u64, window: u64) -> Vec<TrialSpec> {
    (0..trials)
        .map(|i| TrialSpec {
            target: i.wrapping_mul(7_919) % sp.bit_count(),
            inject_cycle: i.wrapping_mul(97) % window,
        })
        .collect()
}

/// Campaign-throughput benches at the `default_scale` shape (warm-up 2,000
/// cycles, injection window 250, monitor 10,000):
///
/// * `inject/trials-per-sec` — one full start-point batch (100 trials)
///   through the fast path; trials/sec = 100e9 / median_ns.
/// * `inject/trials-per-sec-traced` — the identical batch through the
///   traced path (per-trial spans + phase timing). The median ratio to
///   the untraced bench is the telemetry overhead; the untraced bench
///   itself must not move, which is the zero-overhead-when-disabled
///   contract pinned by `BENCH_campaign.json`.
/// * `inject/trials-per-sec-deep-traced` — the identical batch through
///   the deep-traced path: on top of tracing, µArch-divergent checks
///   sample the per-unit diverged set into the trial's divergence
///   timeline (dense just after injection, every eighth check once
///   sparse, via a dedicated incremental fingerprint engine). The
///   deep/traced median ratio is the timeline cost; it is bounded even
///   for faults that stay diverged across the whole monitor window.
/// * `inject/trials-per-sec-pruned` — the identical 100-trial batch
///   through the fast engine: sites the golden run decides are classified
///   on the golden replay without a trial, the rest are simulated on the
///   ladder. Every call includes the standalone answer replay (one tracked
///   golden pass over the window answering the batch's access questions),
///   which a campaign pays inside its shared golden pass instead.
/// * `inject/pruner-overhead` — a 100-site batch the fast engine proves
///   dead in its entirety (sites screened beforehand): no site is ever
///   simulated, so the median is the cost of the answer replay plus the
///   golden replays per batch.
/// * `inject/snapshot-ladder-vs-naive/{naive,ladder}` — the same 25-trial
///   plan through per-trial `run_trial` (replay + flat fingerprints) and
///   batched `run_trials` (snapshot ladder + cached fingerprints). The
///   naive/ladder median ratio is the fast-path speedup.
fn bench_campaign(b: &mut Bench) {
    const WINDOW: u64 = 250;
    const MONITOR: u64 = 10_000;
    const MASK: InjectionMask = InjectionMask::LatchesAndRams;
    if !wants(b, "inject/trials-per-sec")
        && !wants(b, "inject/trials-per-sec-traced")
        && !wants(b, "inject/trials-per-sec-deep-traced")
        && !wants(b, "inject/trials-per-sec-pruned")
        && !wants(b, "inject/pruner-overhead")
        && !wants(b, "inject/snapshot-ladder-vs-naive")
    {
        return;
    }
    let cpu = warmed_pipeline("gzip-like", 2_000);
    let sp = StartPoint::prepare(&cpu, WINDOW + MONITOR, MASK);

    let plan = campaign_plan(&sp, 100, WINDOW);
    b.bench("inject/trials-per-sec", || sp.run_trials(MASK, &plan, MONITOR));
    b.bench("inject/trials-per-sec-traced", || sp.run_trials_traced(MASK, &plan, MONITOR));
    b.bench("inject/trials-per-sec-deep-traced", || {
        sp.run_trials_deep_traced(MASK, &plan, MONITOR)
    });
    b.bench("inject/trials-per-sec-pruned", || sp.run_trials_pruned(MASK, &plan, MONITOR));
    if wants(b, "inject/pruner-overhead") {
        // Keep exactly the sites the pruner proves dead: the bench batch
        // then runs through the full pruned path without ever simulating.
        let candidates: Vec<TrialSpec> = (0..4_000u64)
            .map(|i| TrialSpec {
                target: i.wrapping_mul(6_733) % sp.bit_count(),
                inject_cycle: i.wrapping_mul(53) % WINDOW,
            })
            .collect();
        let proved = sp.proved_dead(MASK, &candidates, MONITOR);
        let dead: Vec<TrialSpec> = candidates
            .into_iter()
            .zip(proved)
            .filter_map(|(s, dead)| dead.then_some(s))
            .take(100)
            .collect();
        b.bench("inject/pruner-overhead", || sp.run_trials_pruned(MASK, &dead, MONITOR));
    }

    let duel = campaign_plan(&sp, 25, WINDOW);
    b.bench("inject/snapshot-ladder-vs-naive/naive", || {
        duel.iter()
            .map(|s| sp.run_trial(MASK, s.target, s.inject_cycle, MONITOR))
            .collect::<Vec<_>>()
    });
    b.bench("inject/snapshot-ladder-vs-naive/ladder", || sp.run_trials(MASK, &duel, MONITOR));
}

/// `inject/distributed-overhead/{in-process,two-workers}` — the same
/// journaled campaign (2 workloads x 2 start points) run by the
/// in-process pool at 2 threads and by a coordinator with 2 localhost TCP
/// workers. Both arms execute the traced engine and fsync-append every
/// task (journaled runs always do; workers ship the same records over the
/// wire), so the two-workers/in-process median ratio isolates the cost of
/// distribution itself — lease protocol round-trips, heartbeats, and the
/// coordinator-side replay — gated <= 1.15x in bench.sh because task
/// compute dominates any real campaign shape.
fn bench_distributed(b: &mut Bench) {
    if !wants(b, "inject/distributed-overhead") {
        return;
    }
    // Big enough that task compute dominates the protocol's fixed tick
    // latencies (connection setup, heartbeat-thread shutdown, tail polls)
    // the way any real campaign shape does.
    let mut cfg = CampaignConfig::quick(0xD157_2004);
    cfg.start_points = 2;
    cfg.trials_per_start_point = 24;
    cfg.monitor_cycles = 6_000;
    cfg.scale = 1;
    cfg.threads = 2;
    let wl: Vec<Workload> = tfsim_workloads::all()
        .into_iter()
        .filter(|w| w.name == "gzip-like" || w.name == "mcf-like")
        .collect();
    let meta = JournalMeta::new(&cfg, &wl);
    let journal_path =
        std::env::temp_dir().join(format!("tfsim-bench-dist-{}.jsonl", std::process::id()));
    b.bench("inject/distributed-overhead/in-process", || {
        let _ = std::fs::remove_file(&journal_path);
        let journal = CampaignJournal::create(&journal_path, &meta).expect("journal");
        run_campaign_journaled(&cfg, &wl, &CampaignObs::disabled(), Some(&journal))
    });
    b.bench("inject/distributed-overhead/two-workers", || {
        let _ = std::fs::remove_file(&journal_path);
        let journal = CampaignJournal::create(&journal_path, &meta).expect("journal");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::scope(|scope| {
            let serve =
                ServeConfig { lease_ms: 5_000, heartbeat_ms: 500, idle_timeout_ms: 60_000 };
            let (cfg, wl, journal) = (&cfg, &wl, &journal);
            let coordinator = scope.spawn(move || {
                serve_campaign(listener, cfg, wl, Some(journal), &NoopSink, &serve)
                    .expect("serve")
            });
            for _ in 0..2 {
                let addr = addr.clone();
                scope.spawn(move || run_worker(&WorkerConfig::new(addr)).expect("worker"));
            }
            let report = coordinator.join().expect("coordinator thread");
            run_campaign_with_tasks(cfg, wl, &CampaignObs::disabled(), report.tasks)
        })
    });
    let _ = std::fs::remove_file(&journal_path);
}

fn bench_codecs(b: &mut Bench) {
    let code = regfile_code();
    let mut v = 0x0123_4567_89ab_cdefu128;
    b.bench("protect/secded65/encode", || {
        v = v.rotate_left(7) & ((1 << 65) - 1);
        code.encode(v)
    });
    let data = 0xdead_beef_cafe_f00du128;
    let check = code.encode(data);
    let mut bit = 0;
    b.bench("protect/secded65/decode-corrupted", || {
        bit = (bit + 1) % 65;
        match code.decode(data ^ (1u128 << bit), check) {
            Decoded::CorrectedData(d) => d,
            _ => 0,
        }
    });
}

fn bench_decoder(b: &mut Bench) {
    b.bench("isa/decode-1k", || {
        let mut acc = 0u64;
        for i in 0..1_000u32 {
            let w = i.wrapping_mul(0x9e37_79b9);
            acc = acc.wrapping_add(decode(w).exec_latency() as u64);
        }
        acc
    });
}

fn main() {
    let mut json = false;
    let mut bench = Bench::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: perf [FILTER] [--json]");
                return;
            }
            f => bench.filter = Some(f.to_string()),
        }
    }

    bench_pipeline_step(&mut bench);
    bench_funcsim(&mut bench);
    bench_fingerprint(&mut bench);
    bench_trial(&mut bench);
    bench_campaign(&mut bench);
    bench_distributed(&mut bench);
    bench_codecs(&mut bench);
    bench_decoder(&mut bench);

    if bench.results().is_empty() {
        if let Some(f) = &bench.filter {
            eprintln!("perf: no benchmark name contains `{f}`");
            std::process::exit(2);
        }
    }
    print!("{}", bench.render_table());
    if json {
        print!("{}", bench.render_json());
    }
}
