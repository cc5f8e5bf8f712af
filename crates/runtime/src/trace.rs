//! Execution trace: the instrumented ground truth every metric is computed
//! from.
//!
//! The trace is the reproduction's stand-in for the paper's offline log
//! analysis: protocol nodes *emit* trace records as they act (via
//! [`crate::Runtime::trace`]) and the backend adds physical-layer records
//! of its own (message deliveries, occupancy polls). Metrics crates only
//! ever read the trace — they never reach into protocol state.
//!
//! The trace is the *post-hoc* record; its runtime counterpart is the
//! `enviromic-telemetry` registry reachable through
//! [`crate::Runtime::telemetry`], which aggregates live counters, latency
//! histograms, and wall-clock span timings while a run executes.

use enviromic_types::{EventId, Fnv1a, NodeId, SimTime, SourceId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Why a recording attempt stored nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// The local chunk store was full.
    StorageFull,
    /// The node's battery was exhausted.
    EnergyExhausted,
}

/// What produced a recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordKind {
    /// A leader-assigned cooperative recording task.
    Task,
    /// The uncoordinated prelude recorded at event onset (§II-A.1).
    Prelude,
    /// Independent recording by the uncoordinated baseline.
    Baseline,
}

/// One trace record.
///
/// The two protocol labels (`MessageSent::kind`, `FaultInjected::kind`)
/// are `Cow<'static, str>`: emitters pass `&'static str` constants, so
/// recording a label never allocates, while a trace read back from a run
/// dump owns its labels. Both render identically under `Debug`, which is
/// what the digest hashes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A node stored an interval of audio in its local chunk store.
    Recorded {
        /// Recording node.
        node: NodeId,
        /// The event file the data was labeled with, if any (the baseline
        /// labels none).
        event: Option<EventId>,
        /// Interval start (global clock).
        t0: SimTime,
        /// Interval end (global clock).
        t1: SimTime,
        /// Stored payload bytes.
        bytes: u64,
        /// What produced the recording.
        kind: RecordKind,
    },
    /// A node wanted to record but had to drop the audio.
    RecordDropped {
        /// Node that dropped.
        node: NodeId,
        /// Interval start (global clock).
        t0: SimTime,
        /// Interval end (global clock).
        t1: SimTime,
        /// Why the data was dropped.
        reason: DropReason,
    },
    /// A node erased a previously stored interval (the losing prelude
    /// copies).
    Erased {
        /// Erasing node.
        node: NodeId,
        /// Interval start (global clock).
        t0: SimTime,
        /// Interval end (global clock).
        t1: SimTime,
        /// Erased payload bytes.
        bytes: u64,
    },
    /// A control or data message left a node's radio.
    MessageSent {
        /// Sending node.
        node: NodeId,
        /// Protocol-level message kind (e.g. `"TASK_REQUEST"`).
        kind: Cow<'static, str>,
        /// Encoded size in bytes.
        bytes: u32,
        /// Send time (global clock).
        t: SimTime,
    },
    /// A chunk entered a node's store (local recording or migration-in).
    ///
    /// Together with [`TraceEvent::ChunkRemoved`] this reconstructs the
    /// network-wide stored-audio multiset at any instant, from which the
    /// redundancy figures are computed.
    ChunkStored {
        /// The storing node.
        node: NodeId,
        /// The node that originally recorded the audio.
        origin: NodeId,
        /// Event file the chunk belongs to, if labeled.
        event: Option<EventId>,
        /// Audio interval start (recorder's global-time estimate).
        audio_t0: SimTime,
        /// Audio interval end.
        audio_t1: SimTime,
        /// Payload bytes.
        bytes: u32,
        /// Store time (global clock).
        t: SimTime,
    },
    /// A chunk left a node's store (migrated out after acknowledgement, or
    /// erased).
    ChunkRemoved {
        /// The node the chunk left.
        node: NodeId,
        /// The original recorder.
        origin: NodeId,
        /// Audio interval start.
        audio_t0: SimTime,
        /// Audio interval end.
        audio_t1: SimTime,
        /// Removal time (global clock).
        t: SimTime,
    },
    /// A bulk storage-balancing transfer finished.
    Migrated {
        /// Donor node.
        from: NodeId,
        /// Recipient node.
        to: NodeId,
        /// Chunks moved.
        chunks: u32,
        /// Payload bytes moved.
        bytes: u64,
        /// True when the donor also kept its copy (lost final ACK), i.e.
        /// the transfer duplicated data.
        duplicated: bool,
        /// Completion time (global clock).
        t: SimTime,
    },
    /// A node became leader for an event.
    LeaderElected {
        /// The new leader.
        node: NodeId,
        /// The event it minted or adopted.
        event: EventId,
        /// True when this was a handoff (RESIGN path) rather than a fresh
        /// election.
        handoff: bool,
        /// Election time (global clock).
        t: SimTime,
    },
    /// Periodic storage occupancy poll.
    Occupancy {
        /// Polled node.
        node: NodeId,
        /// Used chunk slots.
        used: u64,
        /// Total chunk slots.
        capacity: u64,
        /// Poll time (global clock).
        t: SimTime,
    },
    /// Ground-truth: a source became active (backend-emitted).
    SourceStarted {
        /// The source.
        source: SourceId,
        /// Activation time.
        t: SimTime,
    },
    /// Ground-truth: a source went silent (backend-emitted).
    SourceStopped {
        /// The source.
        source: SourceId,
        /// Deactivation time.
        t: SimTime,
    },
    /// Ground-truth: a scheduled fault fired (backend-emitted).
    ///
    /// Faults are part of the scenario, not the protocol, so the record
    /// carries only the fault kind and (when scoped to one node) the
    /// afflicted node; analysis correlates protocol behaviour against
    /// these markers.
    FaultInjected {
        /// Fault kind (e.g. `"CRASH"`, `"REBOOT"`, `"BLACKOUT_START"`).
        kind: Cow<'static, str>,
        /// Afflicted node, when the fault is node-scoped.
        node: Option<NodeId>,
        /// Injection time (global clock).
        t: SimTime,
    },
}

impl TraceEvent {
    /// The global-clock time the record refers to (interval records use
    /// their start).
    #[must_use]
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::Recorded { t0, .. }
            | TraceEvent::RecordDropped { t0, .. }
            | TraceEvent::Erased { t0, .. } => t0,
            TraceEvent::MessageSent { t, .. }
            | TraceEvent::ChunkStored { t, .. }
            | TraceEvent::ChunkRemoved { t, .. }
            | TraceEvent::Migrated { t, .. }
            | TraceEvent::LeaderElected { t, .. }
            | TraceEvent::Occupancy { t, .. }
            | TraceEvent::SourceStarted { t, .. }
            | TraceEvent::SourceStopped { t, .. }
            | TraceEvent::FaultInjected { t, .. } => t,
        }
    }

    /// The record's variant name (the trace explorer's `--kind`
    /// vocabulary).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::Recorded { .. } => "Recorded",
            TraceEvent::RecordDropped { .. } => "RecordDropped",
            TraceEvent::Erased { .. } => "Erased",
            TraceEvent::MessageSent { .. } => "MessageSent",
            TraceEvent::ChunkStored { .. } => "ChunkStored",
            TraceEvent::ChunkRemoved { .. } => "ChunkRemoved",
            TraceEvent::Migrated { .. } => "Migrated",
            TraceEvent::LeaderElected { .. } => "LeaderElected",
            TraceEvent::Occupancy { .. } => "Occupancy",
            TraceEvent::SourceStarted { .. } => "SourceStarted",
            TraceEvent::SourceStopped { .. } => "SourceStopped",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
        }
    }

    /// True when the record concerns `node` (either endpoint of a
    /// migration; the afflicted node of a node-scoped fault; source
    /// markers concern no node).
    #[must_use]
    pub fn involves(&self, node: NodeId) -> bool {
        match *self {
            TraceEvent::Recorded { node: n, .. }
            | TraceEvent::RecordDropped { node: n, .. }
            | TraceEvent::Erased { node: n, .. }
            | TraceEvent::MessageSent { node: n, .. }
            | TraceEvent::LeaderElected { node: n, .. }
            | TraceEvent::Occupancy { node: n, .. } => n == node,
            TraceEvent::ChunkStored {
                node: n, origin, ..
            }
            | TraceEvent::ChunkRemoved {
                node: n, origin, ..
            } => n == node || origin == node,
            TraceEvent::Migrated { from, to, .. } => from == node || to == node,
            TraceEvent::FaultInjected { node: n, .. } => n == Some(node),
            TraceEvent::SourceStarted { .. } | TraceEvent::SourceStopped { .. } => false,
        }
    }

    /// The record's protocol-level label, when it has one (`MessageSent`
    /// message kinds, `FaultInjected` fault kinds).
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        match self {
            TraceEvent::MessageSent { kind, .. } | TraceEvent::FaultInjected { kind, .. } => {
                Some(kind)
            }
            _ => None,
        }
    }
}

/// An append-only collection of [`TraceEvent`]s in emission order.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a record.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All records in emission order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no records have been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over records in emission order.
    pub fn iter(&self) -> core::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// An order-sensitive FNV-1a digest over the debug rendering of every
    /// record.
    ///
    /// Two traces digest equal iff they hold the same records in the same
    /// order, which is what the seeded-determinism regression guard
    /// asserts across refactors.
    #[must_use]
    pub fn digest(&self) -> u64 {
        use core::fmt::Write as _;
        let mut h = Fnv1a::new();
        for e in &self.events {
            write!(h, "{e:?}").expect("hashing never fails");
        }
        h.finish()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = core::slice::Iter<'a, TraceEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_types::EventId;

    fn sample_event(t: u64) -> TraceEvent {
        TraceEvent::MessageSent {
            node: NodeId(1),
            kind: "SENSING".into(),
            bytes: 12,
            t: SimTime::from_jiffies(t),
        }
    }

    #[test]
    fn push_and_iterate_preserves_order() {
        let mut tr = Trace::new();
        assert!(tr.is_empty());
        tr.push(sample_event(5));
        tr.push(sample_event(2));
        assert_eq!(tr.len(), 2);
        let times: Vec<u64> = tr.iter().map(|e| e.time().as_jiffies()).collect();
        assert_eq!(times, vec![5, 2]);
    }

    #[test]
    fn collect_and_extend() {
        let tr: Trace = (0..3).map(sample_event).collect();
        assert_eq!(tr.len(), 3);
        let mut tr2 = Trace::new();
        tr2.extend(tr.iter().cloned());
        assert_eq!(tr2.len(), 3);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let ab: Trace = [sample_event(1), sample_event(2)].into_iter().collect();
        let ba: Trace = [sample_event(2), sample_event(1)].into_iter().collect();
        assert_ne!(ab.digest(), ba.digest());
        let ab2: Trace = [sample_event(1), sample_event(2)].into_iter().collect();
        assert_eq!(ab.digest(), ab2.digest());
        assert_ne!(Trace::new().digest(), ab.digest());
    }

    /// One record of every variant, all stamped `t`.
    fn every_variant(t: SimTime) -> Vec<TraceEvent> {
        vec![
            TraceEvent::Recorded {
                node: NodeId(0),
                event: Some(EventId::new(NodeId(0), 1)),
                t0: t,
                t1: t,
                bytes: 1,
                kind: RecordKind::Task,
            },
            TraceEvent::RecordDropped {
                node: NodeId(0),
                t0: t,
                t1: t,
                reason: DropReason::StorageFull,
            },
            TraceEvent::Erased {
                node: NodeId(0),
                t0: t,
                t1: t,
                bytes: 0,
            },
            TraceEvent::MessageSent {
                node: NodeId(2),
                kind: "TASK_REQUEST".into(),
                bytes: 17,
                t,
            },
            TraceEvent::ChunkStored {
                node: NodeId(3),
                origin: NodeId(0),
                event: None,
                audio_t0: t,
                audio_t1: t,
                bytes: 232,
                t,
            },
            TraceEvent::ChunkRemoved {
                node: NodeId(3),
                origin: NodeId(0),
                audio_t0: t,
                audio_t1: t,
                t,
            },
            TraceEvent::Migrated {
                from: NodeId(0),
                to: NodeId(1),
                chunks: 1,
                bytes: 232,
                duplicated: false,
                t,
            },
            TraceEvent::LeaderElected {
                node: NodeId(0),
                event: EventId::new(NodeId(0), 1),
                handoff: true,
                t,
            },
            TraceEvent::Occupancy {
                node: NodeId(0),
                used: 0,
                capacity: 10,
                t,
            },
            TraceEvent::SourceStarted {
                source: SourceId(1),
                t,
            },
            TraceEvent::SourceStopped {
                source: SourceId(1),
                t,
            },
            TraceEvent::FaultInjected {
                kind: "CRASH".into(),
                node: Some(NodeId(0)),
                t,
            },
        ]
    }

    /// The digest as first written: FNV-1a over one allocated `Debug`
    /// string per record. The streaming digest must agree with it.
    fn digest_by_format(trace: &Trace) -> u64 {
        let mut h = Fnv1a::new();
        for e in trace {
            h.write_bytes(format!("{e:?}").as_bytes());
        }
        h.finish()
    }

    #[test]
    fn time_accessor_covers_all_variants() {
        let t = SimTime::from_jiffies(9);
        for e in every_variant(t) {
            assert_eq!(e.time(), t);
        }
    }

    #[test]
    fn streaming_digest_matches_formatted_oracle() {
        let mut trace: Trace = every_variant(SimTime::from_jiffies(9))
            .into_iter()
            .collect();
        trace.extend(every_variant(SimTime::from_jiffies(123_456_789)));
        // An owned label renders like the borrowed one it was read from.
        trace.push(TraceEvent::FaultInjected {
            kind: Cow::Owned("REBOOT".to_string()),
            node: None,
            t: SimTime::ZERO,
        });
        assert_eq!(trace.digest(), digest_by_format(&trace));
        assert_eq!(Trace::new().digest(), digest_by_format(&Trace::new()));
    }

    #[test]
    fn variant_names_labels_and_involvement() {
        let events = every_variant(SimTime::ZERO);
        let names: Vec<&str> = events.iter().map(TraceEvent::kind_name).collect();
        assert_eq!(
            names,
            [
                "Recorded",
                "RecordDropped",
                "Erased",
                "MessageSent",
                "ChunkStored",
                "ChunkRemoved",
                "Migrated",
                "LeaderElected",
                "Occupancy",
                "SourceStarted",
                "SourceStopped",
                "FaultInjected",
            ]
        );
        let labels: Vec<&str> = events.iter().filter_map(TraceEvent::label).collect();
        assert_eq!(labels, ["TASK_REQUEST", "CRASH"]);
        let involving_0 = events.iter().filter(|e| e.involves(NodeId(0))).count();
        // Every record but the message from node 2 and the two source
        // markers concerns node 0 (as actor, origin, or migration end).
        assert_eq!(involving_0, events.len() - 3);
        assert!(events[6].involves(NodeId(1)), "migration recipient");
        assert!(events[4].involves(NodeId(3)), "chunk holder");
    }

    #[test]
    fn records_round_trip_through_serde() {
        for e in every_variant(SimTime::from_jiffies(77)) {
            // Labels come back owned; they compare and render like the
            // borrowed originals.
            let back = TraceEvent::from_value(&e.to_value()).expect("parses");
            assert_eq!(back, e);
            assert_eq!(format!("{back:?}"), format!("{e:?}"));
        }
    }
}
