//! `enviromic` — command-line scenario runner.
//!
//! The tool a field scientist would script against: build a deployment,
//! run a recording campaign, and print the harvest report.
//!
//! ```text
//! enviromic [OPTIONS]
//!   --scenario indoor|mobile|forest|voice   workload (default indoor)
//!   --mode     full|coop|baseline           protocol mode (default full)
//!   --duration SECS                         override scenario length
//!   --seed     N                            RNG seed (default 1)
//!   --seeds    N                            sweep N consecutive seeds from
//!                                           --seed (prints per-seed digests)
//!   --jobs     N                            sweep worker threads
//!                                           (default: available cores)
//!   --flash    CHUNKS                       per-node flash capacity
//!   --beta-max X                            balancer sensitivity bound
//!   --policy   NAME                         storage-balancing policy:
//!                                           beta-ttl (default),
//!                                           no-migration, coordinated,
//!                                           or flooding
//!   --prelude  SECS                         enable the prelude optimization
//!   --timeline SECS                         sample a sim-time metric
//!                                           timeline every SECS (digest
//!                                           stays bit-identical)
//!   --timeline-out PATH                     write a run dump (events +
//!                                           timeline) for the `trace`
//!                                           explorer
//!   --series                                also print the miss-ratio series
//!   --stats                                 print the telemetry dashboard
//!                                           (and the timeline, if sampled)
//!   -q / --quiet                            suppress status lines
//!   -v / --verbose                          extra detail on stderr
//! ```

use enviromic::core::{Mode, NodeConfig, PolicyKind};
use enviromic::harness::{forest_world_config, indoor_world_config, run_scenario};
use enviromic::observe::{write_with_parents, DumpFile, RunDump};
use enviromic::sim::{RecordKind, TraceEvent, WorldConfig};
use enviromic::sweep::{run_sweep, JobInput, ScenarioSpec, SweepPlan};
use enviromic::types::SimDuration;
use enviromic::workloads::{
    forest_scenario, indoor_scenario, mobile_scenario, voice_scenario, ForestParams, IndoorParams,
    MobileParams, Scenario,
};
use enviromic_telemetry::{log, log_info};

#[derive(Debug, Clone)]
struct Options {
    scenario: String,
    mode: Mode,
    duration: Option<f64>,
    seed: u64,
    seeds: u64,
    jobs: usize,
    flash: Option<u32>,
    beta_max: Option<f64>,
    policy: PolicyKind,
    prelude: Option<f64>,
    timeline: Option<f64>,
    timeline_out: Option<String>,
    series: bool,
    stats: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: enviromic [--scenario indoor|mobile|forest|voice] \
         [--mode full|coop|baseline] [--duration SECS] [--seed N] \
         [--seeds N] [--jobs N] \
         [--flash CHUNKS] [--beta-max X] \
         [--policy beta-ttl|no-migration|coordinated|flooding] \
         [--prelude SECS] [--timeline SECS] \
         [--timeline-out PATH] [--series] [--stats] [-q|--quiet] [-v|--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        scenario: "indoor".into(),
        mode: Mode::Full,
        duration: None,
        seed: 1,
        seeds: 1,
        jobs: enviromic::types::default_workers(),
        flash: None,
        beta_max: None,
        policy: PolicyKind::default(),
        prelude: None,
        timeline: None,
        timeline_out: None,
        series: false,
        stats: false,
    };
    let mut quiet = false;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--scenario" => opts.scenario = value(),
            "--mode" => {
                opts.mode = match value().as_str() {
                    "full" => Mode::Full,
                    "coop" => Mode::CooperativeOnly,
                    "baseline" => Mode::Uncoordinated,
                    _ => usage(),
                }
            }
            "--duration" => opts.duration = value().parse().ok().or_else(|| usage()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seeds" => {
                opts.seeds = value().parse().unwrap_or_else(|_| usage());
                if opts.seeds == 0 {
                    usage();
                }
            }
            "--jobs" => {
                opts.jobs = value().parse().unwrap_or_else(|_| usage());
                if opts.jobs == 0 {
                    usage();
                }
            }
            "--flash" => opts.flash = value().parse().ok().or_else(|| usage()),
            "--beta-max" => opts.beta_max = value().parse().ok().or_else(|| usage()),
            "--policy" => {
                opts.policy = value().parse().unwrap_or_else(|e: String| {
                    eprintln!("enviromic: {e}");
                    usage()
                });
            }
            "--prelude" => opts.prelude = value().parse().ok().or_else(|| usage()),
            "--timeline" => opts.timeline = value().parse().ok().or_else(|| usage()),
            "--timeline-out" => opts.timeline_out = Some(value()),
            "--series" => opts.series = true,
            "--stats" => opts.stats = true,
            "--quiet" | "-q" => quiet = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    log::init_from_flags(quiet, verbose);
    opts
}

fn build_scenario(opts: &Options, seed: u64) -> (Scenario, WorldConfig) {
    match opts.scenario.as_str() {
        "indoor" => {
            let params = IndoorParams {
                duration_secs: opts.duration.unwrap_or(1100.0),
                ..IndoorParams::default()
            };
            let mut wcfg = indoor_world_config(seed);
            wcfg.acoustics.mic_gain_spread = 0.10;
            (indoor_scenario(&params, seed), wcfg)
        }
        "mobile" => (
            mobile_scenario(&MobileParams::default()),
            indoor_world_config(seed),
        ),
        "voice" => (voice_scenario(), indoor_world_config(seed)),
        "forest" => {
            let params = ForestParams {
                duration_secs: opts.duration.unwrap_or(1800.0),
                ..ForestParams::default()
            };
            let mut wcfg = forest_world_config(seed);
            wcfg.acoustics.mic_gain_spread = 0.10;
            (forest_scenario(&params, seed), wcfg)
        }
        _ => usage(),
    }
}

fn node_config(opts: &Options) -> NodeConfig {
    let mut cfg = NodeConfig::default().with_mode(opts.mode);
    if let Some(chunks) = opts.flash {
        cfg = cfg.with_flash_chunks(chunks);
    }
    if let Some(beta) = opts.beta_max {
        cfg = cfg.with_beta_max(beta);
    }
    cfg = cfg.with_policy(opts.policy);
    if let Some(secs) = opts.prelude {
        cfg = cfg.with_prelude(SimDuration::from_secs_f64(secs));
    }
    cfg
}

/// `--seeds N`: the same scenario replayed across N consecutive seeds on a
/// worker pool; prints the per-seed digest table instead of a harvest report.
fn run_seed_sweep(opts: &Options) {
    let shared = opts.clone();
    let spec = ScenarioSpec::new(opts.scenario.clone(), move |seed| {
        let (scenario, world_cfg) = build_scenario(&shared, seed);
        JobInput {
            scenario,
            node_cfg: node_config(&shared),
            world_cfg,
            drain_secs: 20.0,
            faults: enviromic_sim::FaultPlan::new(),
        }
    });
    let seeds: Vec<u64> = (opts.seed..opts.seed + opts.seeds).collect();
    log_info!(
        "[enviromic] sweeping {} seeds of {} on {} workers...",
        opts.seeds,
        opts.scenario,
        opts.jobs,
    );
    let mut plan = SweepPlan::new(seeds, vec![spec]);
    if let Some(secs) = opts.timeline {
        plan = plan.with_timeline(secs);
    }
    let outcome = run_sweep(&plan, opts.jobs);
    print!("{}", outcome.render());
    if opts.stats {
        println!();
        print!("{}", outcome.aggregate.render_dashboard());
    }
    if let Some(path) = &opts.timeline_out {
        // Timeline-only dumps: per-seed event ledgers would dwarf the file.
        let dump = DumpFile {
            runs: outcome
                .jobs
                .iter()
                .map(|j| RunDump::from_run(&j.label, j.seed, &j.run, false))
                .collect(),
        };
        write_with_parents("enviromic", path, &dump.to_json());
    }
}

fn main() {
    let opts = parse_args();
    if opts.seeds > 1 {
        run_seed_sweep(&opts);
        return;
    }
    let (scenario, mut world_cfg) = build_scenario(&opts, opts.seed);
    if let Some(secs) = opts.timeline {
        world_cfg.timeline_sample_period = Some(SimDuration::from_secs_f64(secs));
    }
    let horizon = scenario.duration.as_secs_f64();
    let cfg = node_config(&opts);

    log_info!(
        "[enviromic] {} scenario: {} nodes, {} events, {:.0}s, mode {:?}",
        opts.scenario,
        scenario.topology.len(),
        scenario.sources.len(),
        horizon,
        cfg.mode,
    );
    let run = run_scenario(scenario, &cfg, world_cfg, 20.0);
    let exp = run.experiment();

    // Harvest report.
    let kinds = exp.recorded_secs_by_kind();
    let recorded: f64 = kinds.values().sum();
    let total_event = run.scenario.total_event_secs();
    let miss = exp.miss_ratio(horizon);
    let redundancy = exp
        .redundancy_series(horizon, horizon)
        .last()
        .map_or(0.0, |p| p.1);
    let packets = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::MessageSent { .. }))
        .count();
    let migrations: u64 = run
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Migrated {
                duplicated: false,
                chunks,
                ..
            } => Some(u64::from(*chunks)),
            _ => None,
        })
        .sum();

    println!("harvest report");
    println!("  event audio available : {total_event:>9.1} s");
    println!("  audio recorded        : {recorded:>9.1} s");
    for (kind, secs) in [
        ("cooperative tasks", kinds.get(&RecordKind::Task)),
        ("preludes", kinds.get(&RecordKind::Prelude)),
        ("baseline intervals", kinds.get(&RecordKind::Baseline)),
    ] {
        if let Some(secs) = secs {
            println!("    {kind:<19} : {secs:>9.1} s");
        }
    }
    println!("  miss ratio            : {miss:>9.3}");
    println!("  stored redundancy     : {redundancy:>9.3}");
    println!("  radio packets         : {packets:>9}");
    println!("  chunks migrated       : {migrations:>9}");

    if opts.series {
        println!("\nmiss-ratio series:");
        for (t, m) in exp.miss_ratio_series(horizon, horizon / 10.0) {
            println!("  {t:>8.0}s  {m:.3}");
        }
    }

    if opts.stats {
        println!();
        print!("{}", run.telemetry.render_dashboard());
        if let Some(tl) = &run.timeline {
            println!();
            print!("{}", tl.render_dashboard(72));
        }
    }

    if let Some(path) = &opts.timeline_out {
        let dump = DumpFile {
            runs: vec![RunDump::from_run(&opts.scenario, opts.seed, &run, true)],
        };
        write_with_parents("enviromic", path, &dump.to_json());
    }
}
