//! Checkpoint/restore guarantees.
//!
//! * Resumability: `run(t1); save; restore; run(t2)` is byte-identical
//!   to `run(t1 + t2)` uninterrupted, under a nonzero fault plan —
//!   checked as a property over split points and seeds.
//! * Robustness: corrupted, truncated, or alien snapshot bytes surface
//!   as typed [`CkptError`]s, never panics.

use anr_distsim::{CkptError, DelayModel, EventSim, ExplicitTopology, FaultPlan, CKPT_MAGIC};
use anr_geom::Point;
use anr_netgraph::robust::{RetransmitConfig, RobustFloodNode};
use anr_netgraph::UnitDiskGraph;
use proptest::prelude::*;

fn lattice_adjacency(cols: usize, rows: usize) -> Vec<Vec<usize>> {
    let pts: Vec<Point> = (0..cols * rows)
        .map(|i| Point::new((i % cols) as f64 * 55.0, (i / cols) as f64 * 55.0))
        .collect();
    UnitDiskGraph::new(&pts, 80.0).adjacency().to_vec()
}

fn nasty_plan(seed: u64) -> FaultPlan {
    FaultPlan::reliable(seed)
        .with_loss(0.25)
        .with_delay(DelayModel::Uniform { min: 0, max: 2 })
        .with_duplication(0.1)
        .with_crash(5, 3)
        .with_recovery(14, 3)
}

fn flood_sim(
    adjacency: &[Vec<usize>],
    plan: FaultPlan,
) -> EventSim<RobustFloodNode, ExplicitTopology> {
    let n = adjacency.len();
    let nodes: Vec<RobustFloodNode> = (0..n)
        .map(|i| {
            RobustFloodNode::new(
                i,
                i as f64 * 1.25,
                n,
                adjacency[i].clone(),
                RetransmitConfig::default(),
            )
        })
        .collect();
    let topology = ExplicitTopology::new(adjacency.to_vec()).expect("topology");
    EventSim::new(nodes, topology, plan).expect("construction")
}

/// A snapshot of a freshly restored simulator is identical to the
/// snapshot it was restored from (save ∘ restore = id on bytes).
#[test]
fn restore_then_save_is_identity() {
    let adjacency = lattice_adjacency(4, 3);
    let mut sim = flood_sim(&adjacency, nasty_plan(9));
    sim.run_rounds(7).expect("run");
    let bytes = sim.save();
    let topology = ExplicitTopology::new(adjacency).expect("topology");
    let restored = EventSim::<RobustFloodNode, _>::restore(&bytes, topology).expect("restore");
    assert_eq!(bytes, restored.save());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: splitting a run at any round boundary and
    /// resuming from a snapshot reproduces the uninterrupted run
    /// byte-for-byte, including the fault RNG stream mid-plan.
    #[test]
    fn split_run_is_byte_identical_to_uninterrupted(
        t1 in 0usize..25,
        t2 in 0usize..25,
        seed in 0u64..500,
    ) {
        let adjacency = lattice_adjacency(4, 3);
        let plan = nasty_plan(seed);

        let mut split = flood_sim(&adjacency, plan.clone());
        split.run_rounds(t1).expect("first leg");
        let snapshot = split.save();
        let topology = ExplicitTopology::new(adjacency.clone()).expect("topology");
        let mut resumed =
            EventSim::<RobustFloodNode, _>::restore(&snapshot, topology).expect("restore");
        resumed.run_rounds(t2).expect("second leg");

        let mut whole = flood_sim(&adjacency, plan);
        whole.run_rounds(t1 + t2).expect("uninterrupted");

        prop_assert_eq!(resumed.save(), whole.save());
        prop_assert_eq!(resumed.nodes(), whole.nodes());
        prop_assert_eq!(resumed.stats(), whole.stats());
    }

    /// Any single flipped body byte is caught by the checksum; flips in
    /// the magic line are caught by the format tag. Never a panic.
    #[test]
    fn single_byte_corruption_is_a_typed_error(pos_seed in 0usize..10_000) {
        let adjacency = lattice_adjacency(3, 3);
        let mut sim = flood_sim(&adjacency, nasty_plan(3));
        sim.run_rounds(6).expect("run");
        let mut bytes = sim.save();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 0x01;
        let topology = ExplicitTopology::new(adjacency).expect("topology");
        let err = EventSim::<RobustFloodNode, _>::restore(&bytes, topology)
            .expect_err("corruption must not restore");
        if pos <= CKPT_MAGIC.len() {
            prop_assert_eq!(err, CkptError::BadMagic);
        } else {
            prop_assert!(
                matches!(err, CkptError::ChecksumMismatch { .. }),
                "flip at {} gave {:?}", pos, err
            );
        }
    }
}

/// Every possible truncation of a valid snapshot yields a typed error
/// without panicking — the full prefix sweep, not a sample.
#[test]
fn every_truncation_is_a_typed_error() {
    let adjacency = lattice_adjacency(3, 3);
    let mut sim = flood_sim(&adjacency, nasty_plan(5));
    sim.run_rounds(6).expect("run");
    let bytes = sim.save();
    for len in 0..bytes.len() {
        let topology = ExplicitTopology::new(adjacency.clone()).expect("topology");
        let err = EventSim::<RobustFloodNode, _>::restore(&bytes[..len], topology)
            .expect_err("truncation must not restore");
        if len < CKPT_MAGIC.len() + 1 + 8 {
            assert_eq!(err, CkptError::Truncated, "prefix of {len} bytes");
        } else {
            // The 8-byte tail is now mid-body data, so the checksum
            // (almost surely) fails; a colliding prefix would fall
            // through to a codec/trailing-byte error, still typed.
            assert!(
                matches!(
                    err,
                    CkptError::ChecksumMismatch { .. }
                        | CkptError::Codec(_)
                        | CkptError::TrailingBytes { .. }
                        | CkptError::Inconsistent { .. }
                ),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }
}

#[test]
fn alien_input_is_bad_magic() {
    let topology = ExplicitTopology::new(vec![vec![1], vec![0]]).expect("topology");
    let err = EventSim::<RobustFloodNode, _>::restore(b"not a snapshot at all, sorry", topology)
        .expect_err("alien input");
    assert_eq!(err, CkptError::BadMagic);
}

#[test]
fn wrong_topology_size_is_reported() {
    let adjacency = lattice_adjacency(3, 3);
    let mut sim = flood_sim(&adjacency, FaultPlan::reliable(1));
    sim.run_rounds(2).expect("run");
    let bytes = sim.save();
    let small = ExplicitTopology::new(vec![vec![1], vec![0]]).expect("topology");
    let err = EventSim::<RobustFloodNode, _>::restore(&bytes, small).expect_err("size mismatch");
    assert_eq!(
        err,
        CkptError::TopologyMismatch {
            snapshot: 9,
            topology: 2
        }
    );
}

/// Appending bytes to the body (with a recomputed checksum, so the
/// checksum gate passes) is still rejected: the decoder insists the
/// body is fully consumed.
#[test]
fn trailing_bytes_are_rejected() {
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
    let adjacency = lattice_adjacency(3, 3);
    let mut sim = flood_sim(&adjacency, nasty_plan(8));
    sim.run_rounds(4).expect("run");
    let bytes = sim.save();
    let mut forged = bytes[..bytes.len() - 8].to_vec();
    forged.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
    let checksum = fnv1a(&forged);
    forged.extend_from_slice(&checksum.to_le_bytes());
    let topology = ExplicitTopology::new(adjacency).expect("topology");
    let err = EventSim::<RobustFloodNode, _>::restore(&forged, topology)
        .expect_err("padded body must be rejected");
    assert_eq!(err, CkptError::TrailingBytes { extra: 3 });
}

/// A snapshot taken mid-churn (after the crash, before the recovery)
/// restores the crash flag and replays the recovery on schedule.
#[test]
fn churn_state_survives_the_checkpoint() {
    let adjacency = lattice_adjacency(4, 3);
    let plan = nasty_plan(17);
    let mut sim = flood_sim(&adjacency, plan);
    sim.run_rounds(8).expect("run past the crash");
    assert!(sim.is_crashed(3), "robot 3 crashed at round 5");
    let bytes = sim.save();
    let topology = ExplicitTopology::new(adjacency).expect("topology");
    let mut resumed = EventSim::<RobustFloodNode, _>::restore(&bytes, topology).expect("restore");
    assert!(resumed.is_crashed(3));
    resumed.run_rounds(10).expect("run past the recovery");
    assert!(!resumed.is_crashed(3), "robot 3 recovered at round 14");
}
