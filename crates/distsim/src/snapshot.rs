//! Byte-stable snapshot codec for simulator state.
//!
//! The event engine ([`EventSim`](crate::EventSim)) checkpoints a running
//! simulation — delivery buckets, node state, RNG streams — into a versioned,
//! byte-stable blob so long-horizon runs are resumable and a restored
//! run is bit-identical to an uninterrupted one. This module holds the
//! low-level codec that blob is built from:
//!
//! * [`SnapshotWriter`] / [`SnapshotReader`] — little-endian byte
//!   cursors with typed, panic-free error paths;
//! * [`Persist`] — the round-trip trait (`persist` + `restore`)
//!   implemented here for primitives, containers, and the fault-model
//!   types ([`FaultPlan`], [`FaultRng`], …) whose private state must
//!   survive a checkpoint.
//!
//! **Byte stability.** Encoding is defined structurally, not via any
//! derive or hash order: integers are fixed-width little-endian,
//! `f64` goes through [`f64::to_bits`], sequences are a `u64` length
//! followed by elements in order, enums are a `u8` tag in declaration
//! order. Two equal values always encode to identical bytes, on every
//! platform, across runs.

use crate::fault::{ChurnEvent, ChurnKind, DelayModel, FaultPlan, FaultRng};
use std::error::Error;
use std::fmt;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// The byte stream ended before a field could be read.
    Truncated {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The offending tag value.
        tag: u8,
        /// The type being decoded.
        context: &'static str,
    },
    /// A decoded value was out of range for its in-memory type.
    BadValue {
        /// What was being decoded.
        context: &'static str,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated { at, needed } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} bytes at offset {at}"
                )
            }
            PersistError::BadTag { tag, context } => {
                write!(f, "snapshot has invalid tag {tag} for {context}")
            }
            PersistError::BadValue { context } => {
                write!(f, "snapshot value out of range for {context}")
            }
        }
    }
}

impl Error for PersistError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, without consuming the writer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Forward-only little-endian byte cursor.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapshotReader { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                at: self.pos,
                needed: n,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(b);
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        self.take(n)
    }
}

/// Byte-stable round-trip encoding.
///
/// `restore(persist(x)) == x` for every value, and equal values encode
/// to identical bytes. Decoding never panics: malformed input surfaces
/// as a [`PersistError`].
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn persist(&self, w: &mut SnapshotWriter);
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the stream is truncated or malformed.
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError>;
}

impl Persist for u8 {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u8(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        r.get_u8()
    }
}

impl Persist for u32 {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u32(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        r.get_u32()
    }
}

impl Persist for u64 {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        r.get_u64()
    }
}

impl Persist for usize {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self as u64);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        usize::try_from(r.get_u64()?).map_err(|_| PersistError::BadValue { context: "usize" })
    }
}

impl Persist for bool {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u8(u8::from(*self));
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(PersistError::BadTag {
                tag,
                context: "bool",
            }),
        }
    }
}

impl Persist for f64 {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.to_bits());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.persist(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            tag => Err(PersistError::BadTag {
                tag,
                context: "Option",
            }),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.persist(w);
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let len =
            usize::try_from(r.get_u64()?).map_err(|_| PersistError::BadValue { context: "Vec" })?;
        // Guard against a corrupt length claiming more elements than
        // bytes remain (each element encodes to >= 1 byte).
        if len > r.remaining() {
            return Err(PersistError::Truncated {
                at: r.position(),
                needed: len,
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.0.persist(w);
        self.1.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl Persist for DelayModel {
    fn persist(&self, w: &mut SnapshotWriter) {
        match *self {
            DelayModel::None => w.put_u8(0),
            DelayModel::Fixed(k) => {
                w.put_u8(1);
                k.persist(w);
            }
            DelayModel::Uniform { min, max } => {
                w.put_u8(2);
                min.persist(w);
                max.persist(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(DelayModel::None),
            1 => Ok(DelayModel::Fixed(usize::restore(r)?)),
            2 => Ok(DelayModel::Uniform {
                min: usize::restore(r)?,
                max: usize::restore(r)?,
            }),
            tag => Err(PersistError::BadTag {
                tag,
                context: "DelayModel",
            }),
        }
    }
}

impl Persist for ChurnKind {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            ChurnKind::Crash => 0,
            ChurnKind::Recover => 1,
        });
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(ChurnKind::Crash),
            1 => Ok(ChurnKind::Recover),
            tag => Err(PersistError::BadTag {
                tag,
                context: "ChurnKind",
            }),
        }
    }
}

impl Persist for ChurnEvent {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.round.persist(w);
        self.robot.persist(w);
        self.kind.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(ChurnEvent {
            round: usize::restore(r)?,
            robot: usize::restore(r)?,
            kind: ChurnKind::restore(r)?,
        })
    }
}

impl Persist for FaultPlan {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.seed.persist(w);
        self.loss.persist(w);
        self.link_loss.persist(w);
        self.delay.persist(w);
        self.duplication.persist(w);
        self.churn.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(FaultPlan {
            seed: u64::restore(r)?,
            loss: f64::restore(r)?,
            link_loss: Vec::restore(r)?,
            delay: DelayModel::restore(r)?,
            duplication: f64::restore(r)?,
            churn: Vec::restore(r)?,
        })
    }
}

impl Persist for FaultRng {
    fn persist(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.state());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(FaultRng::from_state(r.get_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: &T) {
        let mut w = SnapshotWriter::new();
        value.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = T::restore(&mut r).expect("restore");
        assert_eq!(&back, value);
        assert_eq!(r.remaining(), 0, "decoder must consume all bytes");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&0xAAu8);
        round_trip(&123_456u32);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&1.5f64);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&Some(7usize));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&(3usize, 0.25f64));
    }

    #[test]
    fn f64_is_bit_stable() {
        // -0.0 and 0.0 are == but must encode differently (bit pattern).
        let mut w = SnapshotWriter::new();
        (-0.0f64).persist(&mut w);
        (0.0f64).persist(&mut w);
        let bytes = w.into_bytes();
        assert_ne!(bytes[..8], bytes[8..]);
    }

    #[test]
    fn fault_types_round_trip() {
        round_trip(&DelayModel::None);
        round_trip(&DelayModel::Fixed(4));
        round_trip(&DelayModel::Uniform { min: 1, max: 3 });
        round_trip(&ChurnEvent {
            round: 9,
            robot: 2,
            kind: ChurnKind::Crash,
        });
        let plan = FaultPlan::reliable(42)
            .with_loss(0.2)
            .with_link_loss(3, 4, 0.8)
            .with_delay(DelayModel::Uniform { min: 0, max: 2 })
            .with_duplication(0.05)
            .with_crash(10, 7)
            .with_recovery(25, 7);
        round_trip(&plan);
    }

    #[test]
    fn fault_rng_round_trip_preserves_stream() {
        let mut rng = FaultRng::new(99);
        for _ in 0..10 {
            rng.next_u64();
        }
        let mut w = SnapshotWriter::new();
        rng.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let mut restored = FaultRng::restore(&mut r).expect("restore");
        let mut original = rng;
        for _ in 0..20 {
            assert_eq!(original.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn truncated_input_is_typed_error() {
        let mut w = SnapshotWriter::new();
        FaultPlan::reliable(7).with_loss(0.1).persist(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapshotReader::new(&bytes[..cut]);
            let err = FaultPlan::restore(&mut r);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        let mut r = SnapshotReader::new(&[9]);
        assert_eq!(
            bool::restore(&mut r),
            Err(PersistError::BadTag {
                tag: 9,
                context: "bool"
            })
        );
        let mut r = SnapshotReader::new(&[7]);
        assert!(matches!(
            DelayModel::restore(&mut r),
            Err(PersistError::BadTag {
                tag: 7,
                context: "DelayModel"
            })
        ));
        // A corrupt Vec length larger than the remaining bytes must not
        // trigger a huge allocation; it fails fast as Truncated.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            Vec::<u64>::restore(&mut r),
            Err(PersistError::BadValue { .. }) | Err(PersistError::Truncated { .. })
        ));
    }
}
