//! Versioned, byte-stable checkpoint/restore for [`EventSim`].
//!
//! A snapshot captures the complete dynamic state of a run at a round
//! boundary — delivery buckets, node state, crash flags, woken robots,
//! the churn cursor, the fault RNG stream, and accounting — under the
//! format tag [`CKPT_MAGIC`] (`anr-distsim-ckpt/3`). The topology is
//! **not** embedded: it is a pure function of the deployment, so the
//! caller supplies it again on restore (and a robot-count mismatch is a
//! typed error).
//!
//! Guarantees, pinned by `tests/checkpoint.rs`:
//!
//! * **Resumability** — `run(t1); save; restore; run(t2)` reaches a
//!   state byte-identical to `run(t1 + t2)` uninterrupted, under any
//!   fault plan.
//! * **Canonical bytes** — buckets are written in due-round order and
//!   each in send order; equal states produce identical snapshots, so
//!   snapshots can themselves be compared.
//! * **No panics** — corrupted, truncated, or alien input surfaces as
//!   a [`CkptError`].
//!
//! ## Layout
//!
//! ```text
//! "anr-distsim-ckpt/3\n"             ASCII magic line
//! body                                little-endian, via crate::snapshot
//!   now, started, churn cursor
//!   rng state, fault plan
//!   crashed flags
//!   woken robots (ascending)
//!   stats (sent, delivered, drops, duplicates, delays, churn counts)
//!   buckets, due round now, now + 1, …: deliveries (from, to, msg)
//!   nodes
//! checksum                            FNV-1a 64 over everything above
//! ```

use crate::channel::Channel;
use crate::fault::FaultRng;
use crate::harness::{sorted_churn, EventSim};
use crate::snapshot::{Persist, PersistError, SnapshotReader, SnapshotWriter};
use crate::topology::Topology;
use crate::{FaultPlan, FaultStats, Node};
use anr_trace::Tracer;
use std::error::Error;
use std::fmt;

/// Format tag of the snapshot layout this module reads and writes.
/// `/2` held a binary heap of `(due, class, seq)`-keyed events; `/3`
/// holds per-round delivery buckets, the woken-robot list and the churn
/// cursor instead.
pub const CKPT_MAGIC: &str = "anr-distsim-ckpt/3";

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CkptError {
    /// The input does not start with [`CKPT_MAGIC`].
    BadMagic,
    /// The input is shorter than the fixed framing (magic + checksum).
    Truncated,
    /// The checksum over magic + body did not match.
    ChecksumMismatch {
        /// Checksum recorded in the snapshot.
        expected: u64,
        /// Checksum recomputed over the input.
        actual: u64,
    },
    /// The snapshot was taken over a different robot count than the
    /// supplied topology provides.
    TopologyMismatch {
        /// Robots in the snapshot.
        snapshot: usize,
        /// Robots in the supplied topology.
        topology: usize,
    },
    /// The body failed structural decoding.
    Codec(PersistError),
    /// The body decoded but left unread bytes.
    TrailingBytes {
        /// Bytes left over.
        extra: usize,
    },
    /// A decoded field is inconsistent with the rest of the snapshot
    /// (e.g. an out-of-range node index).
    Inconsistent {
        /// What was inconsistent.
        context: &'static str,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "snapshot does not start with {CKPT_MAGIC:?}"),
            CkptError::Truncated => write!(f, "snapshot shorter than its fixed framing"),
            CkptError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: recorded {expected:#018x}, computed {actual:#018x}"
            ),
            CkptError::TopologyMismatch { snapshot, topology } => write!(
                f,
                "snapshot has {snapshot} robots but the topology has {topology}"
            ),
            CkptError::Codec(err) => write!(f, "snapshot body malformed: {err}"),
            CkptError::TrailingBytes { extra } => {
                write!(f, "snapshot body has {extra} trailing bytes")
            }
            CkptError::Inconsistent { context } => {
                write!(f, "snapshot is internally inconsistent: {context}")
            }
        }
    }
}

impl Error for CkptError {}

impl From<PersistError> for CkptError {
    fn from(err: PersistError) -> Self {
        CkptError::Codec(err)
    }
}

/// FNV-1a 64-bit over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn persist_stats(stats: &FaultStats, w: &mut SnapshotWriter) {
    stats.sent.persist(w);
    stats.delivered.persist(w);
    stats.dropped_loss.persist(w);
    stats.dropped_crash.persist(w);
    stats.duplicated.persist(w);
    stats.delayed.persist(w);
    stats.crashes.persist(w);
    stats.recoveries.persist(w);
}

fn restore_stats(r: &mut SnapshotReader<'_>) -> Result<FaultStats, PersistError> {
    Ok(FaultStats {
        rounds: 0,
        sent: usize::restore(r)?,
        delivered: usize::restore(r)?,
        dropped_loss: usize::restore(r)?,
        dropped_crash: usize::restore(r)?,
        duplicated: usize::restore(r)?,
        delayed: usize::restore(r)?,
        crashes: usize::restore(r)?,
        recoveries: usize::restore(r)?,
    })
}

impl<N, T> EventSim<N, T>
where
    N: Node + Persist,
    N::Msg: Persist,
    T: Topology,
{
    /// Serializes the full run state as an `anr-distsim-ckpt/3`
    /// snapshot. Byte-stable: equal states yield identical bytes.
    ///
    /// Take snapshots at round boundaries (between `run_*` calls);
    /// inboxes are always drained within a round, so none exist to
    /// capture.
    pub fn save(&self) -> Vec<u8> {
        let _span = self.tracer.span("ckpt_write");
        let mut w = SnapshotWriter::new();
        w.put_bytes(CKPT_MAGIC.as_bytes());
        w.put_u8(b'\n');
        self.now.persist(&mut w);
        self.started.persist(&mut w);
        self.churn_cursor.persist(&mut w);
        self.channel.rng.persist(&mut w);
        self.channel.plan.persist(&mut w);
        self.crashed.persist(&mut w);
        self.wake.persist(&mut w);
        persist_stats(&self.stats(), &mut w);
        self.channel.persist_queue(self.now, &mut w);
        self.nodes.persist(&mut w);
        let checksum = fnv1a(w.as_bytes());
        w.put_u64(checksum);
        if self.tracer.is_enabled() {
            self.tracer.counter_add("ckpt_bytes", w.len() as u64);
        }
        w.into_bytes()
    }

    /// Rebuilds a run from a [`save`](EventSim::save) snapshot and the
    /// deployment's topology. The restored simulator continues
    /// bit-identically to the uninterrupted original.
    ///
    /// # Errors
    ///
    /// [`CkptError`] on any malformed input — wrong magic, failed
    /// checksum, truncation, codec errors, trailing bytes, or a robot
    /// count that disagrees with `topology`.
    pub fn restore(bytes: &[u8], topology: T) -> Result<Self, CkptError> {
        Self::restore_traced(bytes, topology, &Tracer::disabled())
    }

    /// [`restore`](EventSim::restore) with a tracer attached from the
    /// start (so the `ckpt_restore` span is captured too).
    ///
    /// # Errors
    ///
    /// See [`restore`](EventSim::restore).
    pub fn restore_traced(bytes: &[u8], topology: T, tracer: &Tracer) -> Result<Self, CkptError> {
        let _span = tracer.span("ckpt_restore");
        let magic_len = CKPT_MAGIC.len() + 1;
        if bytes.len() < magic_len + 8 {
            return Err(CkptError::Truncated);
        }
        if &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC.as_bytes() || bytes[CKPT_MAGIC.len()] != b'\n' {
            return Err(CkptError::BadMagic);
        }
        let body_end = bytes.len() - 8;
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&bytes[body_end..]);
        let expected = u64::from_le_bytes(tail);
        let actual = fnv1a(&bytes[..body_end]);
        if expected != actual {
            return Err(CkptError::ChecksumMismatch { expected, actual });
        }
        let mut r = SnapshotReader::new(&bytes[magic_len..body_end]);
        let now = u64::restore(&mut r)?;
        let started = bool::restore(&mut r)?;
        let churn_cursor = usize::restore(&mut r)?;
        let rng = FaultRng::restore(&mut r)?;
        let plan = FaultPlan::restore(&mut r)?;
        let crashed = Vec::<bool>::restore(&mut r)?;
        let n = crashed.len();
        if topology.len() != n {
            return Err(CkptError::TopologyMismatch {
                snapshot: n,
                topology: topology.len(),
            });
        }
        let wake = Vec::<usize>::restore(&mut r)?;
        if wake.iter().any(|&u| u >= n) || wake.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CkptError::Inconsistent {
                context: "woken robots out of range or not strictly ascending",
            });
        }
        let stats = restore_stats(&mut r)?;
        let churn = sorted_churn(&plan);
        if churn_cursor > churn.len() {
            return Err(CkptError::Inconsistent {
                context: "churn cursor beyond the plan's schedule",
            });
        }
        let mut channel = Channel::new(plan);
        if !channel.restore_queue(now, n, &mut r)? {
            return Err(CkptError::Inconsistent {
                context: "delivery queue disagrees with the plan or the robot count",
            });
        }
        channel.rng = rng;
        channel.stats = FaultStats {
            rounds: 0,
            crashes: 0,
            recoveries: 0,
            ..stats
        };
        let nodes = Vec::<N>::restore(&mut r)?;
        if nodes.len() != n {
            return Err(CkptError::Inconsistent {
                context: "node count disagrees with crash flags",
            });
        }
        if r.remaining() != 0 {
            return Err(CkptError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        channel.tracer = tracer.clone();
        let mut sim = EventSim::from_parts(topology, nodes, churn, channel, tracer.clone());
        for &u in &wake {
            sim.queued[u] = true;
        }
        sim.wake = wake;
        sim.crashed = crashed;
        sim.churn_cursor = churn_cursor;
        sim.now = now;
        sim.started = started;
        sim.crashes = stats.crashes;
        sim.recoveries = stats.recoveries;
        Ok(sim)
    }
}
