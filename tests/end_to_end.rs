//! Workspace-level integration tests: every crate working together on
//! paper-scale scenarios (shortened for test time).

use enviromic::core::{DataMule, EnviroMicNode, Mode, MuleConfig, NodeConfig, RetrievalMode};
use enviromic::harness::{
    build_world, indoor_world_config, run_scenario, run_scenario_with_faults,
};
use enviromic::sim::{RecordKind, TraceEvent};
use enviromic::sweep::ScenarioSpec;
use enviromic::types::{NodeId, Position, SimDuration};
use enviromic::workloads::{indoor_scenario, mobile_scenario, IndoorParams, MobileParams};

fn short_indoor(_seed: u64) -> IndoorParams {
    IndoorParams {
        duration_secs: 600.0,
        ..IndoorParams::default()
    }
}

fn suite_world(seed: u64) -> enviromic::sim::WorldConfig {
    let mut cfg = indoor_world_config(seed);
    cfg.acoustics.mic_gain_spread = 0.10;
    cfg
}

#[test]
fn cooperative_beats_baseline_on_redundancy() {
    let params = short_indoor(1);
    let run_mode = |mode: Mode| {
        let scenario = indoor_scenario(&params, 1);
        let cfg = NodeConfig::default().with_mode(mode).with_flash_chunks(650);
        run_scenario(scenario, &cfg, suite_world(1), 10.0)
    };
    let baseline = run_mode(Mode::Uncoordinated);
    let coop = run_mode(Mode::CooperativeOnly);
    let red_baseline = baseline
        .experiment()
        .redundancy_series(600.0, 600.0)
        .last()
        .map(|p| p.1)
        .unwrap_or(0.0);
    let red_coop = coop
        .experiment()
        .redundancy_series(600.0, 600.0)
        .last()
        .map(|p| p.1)
        .unwrap_or(0.0);
    assert!(
        red_baseline > red_coop + 0.2,
        "cooperation should slash redundancy: baseline {red_baseline:.2} vs coop {red_coop:.2}"
    );
}

#[test]
fn load_balancing_defers_storage_exhaustion() {
    // Tiny stores so even 600 s fills the hot nodes without balancing.
    let params = short_indoor(2);
    let run_with = |mode: Mode| {
        let scenario = indoor_scenario(&params, 2);
        let cfg = NodeConfig::default().with_mode(mode).with_flash_chunks(200);
        let run = run_scenario(scenario, &cfg, suite_world(2), 10.0);
        run.experiment().miss_ratio(600.0)
    };
    let coop_only = run_with(Mode::CooperativeOnly);
    let full = run_with(Mode::Full);
    assert!(
        full < coop_only,
        "balancing should reduce misses: full {full:.3} vs coop-only {coop_only:.3}"
    );
    assert!(full < 0.35, "full system misses too much: {full:.3}");
}

#[test]
fn migration_diffuses_hotspot_data_outward() {
    let params = short_indoor(3);
    let scenario = indoor_scenario(&params, 3);
    let positions = scenario.topology.positions().to_vec();
    let cfg = NodeConfig::default()
        .with_mode(Mode::Full)
        .with_flash_chunks(200);
    let run = run_scenario(scenario, &cfg, suite_world(3), 10.0);
    let exp = run.experiment();
    let hotspot = exp.hotspot_recorder().expect("somebody recorded");
    let holdings = exp.final_holdings_of_origin(hotspot);
    let elsewhere: u64 = holdings
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != hotspot.index())
        .map(|(_, &b)| b)
        .sum();
    assert!(
        elsewhere > 0,
        "no data migrated away from hotspot {hotspot}: {holdings:?}"
    );
    // Data landed on more than one foreign node (diffusion, not a dump).
    let holders = holdings
        .iter()
        .enumerate()
        .filter(|&(i, &b)| i != hotspot.index() && b > 0)
        .count();
    assert!(holders >= 2, "diffusion too narrow: {holders} holders");
    let _ = positions;
}

#[test]
fn one_hop_retrieval_collects_the_whole_network() {
    let scenario = mobile_scenario(&MobileParams::default());
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let mut world = build_world(&scenario, &cfg, indoor_world_config(4));
    let mule = world.add_node(
        Position::new(7.0, 4.0),
        Box::new(DataMule::new(MuleConfig {
            mode: RetrievalMode::OneHop,
            start_after: SimDuration::from_secs_f64(16.0),
            rounds: 3,
            round_timeout: SimDuration::from_secs_f64(30.0),
            ..MuleConfig::default()
        })),
    );
    world.run_for_secs(120.0);
    // Only nodes within radio range of the mule can answer; verify the
    // mule got everything those nodes stored.
    let mule_pos = Position::new(7.0, 4.0);
    let in_range_chunks: u32 = (0..scenario.topology.len())
        .filter(|&i| scenario.topology.positions()[i].distance_to(mule_pos) <= 3.2)
        .map(|i| {
            world
                .app_as::<EnviroMicNode>(NodeId::from_index(i))
                .unwrap()
                .stored_chunks()
        })
        .sum();
    let got = world.app_as::<DataMule>(mule).unwrap().chunks().len() as u32;
    assert!(
        got >= in_range_chunks,
        "mule missed data: got {got}, in-range stored {in_range_chunks}"
    );
}

#[test]
fn timesync_keeps_chunk_timestamps_mutually_consistent() {
    // Nodes start with clock offsets of up to 1.5 s. FTSP-style sync
    // aligns everyone to the *reference* frame (a common offset against
    // true time is expected); what matters for stitching distributed
    // files is cross-node consistency: chunks recorded back-to-back by
    // different motes must carry back-to-back timestamps.
    let scenario = mobile_scenario(&MobileParams::default());
    let event_span = scenario.sources[0].duration().as_secs_f64();
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    // Seed recalibrated for the in-tree rand stand-in's PRNG stream.
    let mut wcfg = indoor_world_config(1);
    wcfg.clock.max_offset = SimDuration::from_millis(1500);
    let mut world = build_world(&scenario, &cfg, wcfg);
    world.run_until(scenario.end() + SimDuration::from_secs_f64(1.0));

    // Gather all task-recorded chunks network-wide.
    let mut starts: Vec<f64> = Vec::new();
    let mut recorders = std::collections::BTreeSet::new();
    for i in 0..scenario.topology.len() {
        let app = world
            .app_as::<EnviroMicNode>(NodeId::from_index(i))
            .expect("protocol node");
        for chunk in app.store().iter() {
            if chunk.meta.event.is_some() {
                starts.push(chunk.meta.t_start.as_secs_f64());
                recorders.insert(chunk.meta.origin);
            }
        }
    }
    assert!(recorders.len() >= 2, "need multiple recorders to test sync");
    starts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let span = starts.last().unwrap() - starts.first().unwrap();
    // If recorders disagreed by their raw offsets (±1.5 s), the claimed
    // span would deviate from the true event span by seconds.
    assert!(
        (span - event_span).abs() < 1.2,
        "claimed span {span:.2}s vs true {event_span:.2}s: recorders unsynced"
    );
    let _ = world
        .trace()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Recorded {
                    kind: RecordKind::Task,
                    ..
                }
            )
        })
        .count();
}

#[test]
fn deterministic_across_identical_runs() {
    let run = |seed| {
        let scenario = indoor_scenario(&short_indoor(6), seed);
        let cfg = NodeConfig::default().with_flash_chunks(300);
        let r = run_scenario(scenario, &cfg, suite_world(seed), 5.0);
        format!("{:?}", r.trace.events().len())
    };
    assert_eq!(run(9), run(9));
}

#[test]
#[ignore = "chunk audio stamps run past the scenario end on long indoor runs; \
            suspected time-sync regression behind global_estimate"]
fn stored_chunk_stamps_stay_within_the_run() {
    // A chunk's audio interval is the recorder's global-time estimate of
    // when it was heard, so it cannot end after the run does. The 4400 s
    // indoor run is the §IV-B testbed length.
    let input = ScenarioSpec::quick_indoor(4400.0).build(42);
    let end = input.scenario.end() + SimDuration::from_secs_f64(input.drain_secs);
    let run = run_scenario_with_faults(
        input.scenario,
        &input.node_cfg,
        input.world_cfg,
        input.drain_secs,
        &input.faults,
    );
    let stamps: Vec<f64> = run
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ChunkStored { audio_t1, .. } => Some(audio_t1.as_secs_f64()),
            _ => None,
        })
        .collect();
    let end_s = end.as_secs_f64();
    let late = stamps.iter().filter(|&&t1| t1 > end_s).count();
    let far = stamps.iter().filter(|&&t1| t1 > end_s + 60.0).count();
    let latest = stamps.iter().copied().fold(0.0, f64::max);
    assert_eq!(
        late,
        0,
        "{late} of {} ChunkStored records end after {end_s:.0} s, {far} by more than 60 s \
         (latest {latest:.0} s)",
        stamps.len()
    );
}

/// End-of-run stored copies, from the trace's `ChunkStored` and
/// `ChunkRemoved` records. A chunk is keyed by its origin and audio
/// window. Returns (copies, distinct chunks, most copies of one chunk,
/// most copies of one chunk on one node).
fn stored_copies(trace: &enviromic::runtime::Trace) -> (i64, usize, i64, i64) {
    use std::collections::BTreeMap;
    let mut per_node: BTreeMap<(NodeId, NodeId, u64, u64), i64> = BTreeMap::new();
    for e in trace.iter() {
        let (key, delta) = match *e {
            TraceEvent::ChunkStored {
                node,
                origin,
                audio_t0,
                audio_t1,
                ..
            } => (
                (node, origin, audio_t0.as_jiffies(), audio_t1.as_jiffies()),
                1,
            ),
            TraceEvent::ChunkRemoved {
                node,
                origin,
                audio_t0,
                audio_t1,
                ..
            } => (
                (node, origin, audio_t0.as_jiffies(), audio_t1.as_jiffies()),
                -1,
            ),
            _ => continue,
        };
        *per_node.entry(key).or_default() += delta;
    }
    let mut per_chunk: BTreeMap<(NodeId, u64, u64), i64> = BTreeMap::new();
    let mut max_on_node = 0;
    for (&(_, origin, t0, t1), &n) in &per_node {
        if n > 0 {
            *per_chunk.entry((origin, t0, t1)).or_default() += n;
            max_on_node = max_on_node.max(n);
        }
    }
    let copies = per_chunk.values().sum();
    let max_copies = per_chunk.values().copied().max().unwrap_or(0);
    (copies, per_chunk.len(), max_copies, max_on_node)
}

#[test]
#[ignore = "replication_factor is not controlled: acked chunks stay at the donor's \
            queue head and every session re-sends them"]
fn replication_factor_two_stores_about_two_copies() {
    // The ablation battery's "replication x2" row: indoor, full protocol,
    // 650-chunk stores, beta_max 2, mic-gain spread and 60 s occupancy
    // polls, 400 s at seed 5. Factor 1 ends with 1684 copies of 1666
    // chunks. Factor 3 gives the same trace as factor 2, because the
    // policy only reads `replication_factor > 1`.
    let params = IndoorParams {
        duration_secs: 400.0,
        ..IndoorParams::default()
    };
    let mut cfg = NodeConfig::default()
        .with_mode(Mode::Full)
        .with_flash_chunks(650)
        .with_beta_max(2.0);
    cfg.replication_factor = 2;
    let mut wcfg = suite_world(5);
    wcfg.occupancy_snapshot_period = Some(SimDuration::from_secs_f64(60.0));
    let run = run_scenario(indoor_scenario(&params, 5), &cfg, wcfg, 20.0);
    let (copies, distinct, max_copies, max_on_node) = stored_copies(&run.trace);
    assert!(
        copies as f64 <= 2.2 * distinct as f64,
        "factor 2 stores {copies} copies of {distinct} chunks; one chunk has \
         {max_copies} copies, one node holds {max_on_node} copies of one chunk"
    );
}
