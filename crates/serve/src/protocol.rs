//! Wire protocol of the plan server.
//!
//! Every message is one **frame**: a `u32` big-endian length word
//! followed by that many bytes, of which the first is the frame *kind*
//! and the rest the payload. The length word counts the kind byte, so
//! a frame is never empty and a reader can bound its allocation before
//! touching the payload.
//!
//! ```text
//! [u32 len][u8 kind][len-1 payload bytes]
//! ```
//!
//! Requests are encoded **canonically**: every field is fixed-width,
//! floats travel as their IEEE-754 bit patterns (big-endian), NaN and
//! trailing bytes are rejected, and enums are closed. That makes the
//! encoding bijective on valid requests, so the FNV-1a hash of the
//! canonical bytes ([`request_hash`]) is a sound content address for
//! the plan cache: two requests hash alike iff they are the same plan.

use anr_geom::Point;
use std::io::{self, Read, Write};

/// Protocol version stamped into every request.
pub const PROTOCOL_VERSION: u8 = 1;

/// Frame kind: a plan request (client → server).
pub const KIND_PLAN_REQUEST: u8 = 0x01;
/// Frame kind: response header with metrics (server → client).
pub const KIND_RESP_HEADER: u8 = 0x81;
/// Frame kind: one bounded chunk of timeline points.
pub const KIND_RESP_CHUNK: u8 = 0x82;
/// Frame kind: end of response, with integrity hash.
pub const KIND_RESP_END: u8 = 0x83;
/// Frame kind: admission refused — queue full, retry later.
pub const KIND_RESP_BUSY: u8 = 0xE0;
/// Frame kind: typed server error (code + message).
pub const KIND_RESP_ERROR: u8 = 0xE1;

/// Points per response chunk: bounds every response frame to ~64 KiB
/// regardless of swarm size, so a client never has to trust a huge
/// length word.
pub const CHUNK_POINTS: usize = 4096;

/// Largest polygon a request may carry.
pub const MAX_POLYGON_VERTICES: usize = 4096;

/// Hard ceiling on any frame a client accepts (header, chunk, end or
/// error); far above the `CHUNK_POINTS` bound, far below "trust the
/// peer's length word".
pub const MAX_RESPONSE_FRAME: usize = 1 << 20;

/// Cap on the timeline-point allocation a client pre-reserves from the
/// header's `timeline_rows × robots` product. The vector still grows to
/// hold a legitimately larger reply — this only bounds how much memory
/// an attacker-chosen header can demand up front.
pub const MAX_TIMELINE_POINTS: usize = 1 << 20;

/// Error code: the request frame could not be decoded.
pub const ERR_MALFORMED: u8 = 1;
/// Error code: the request frame exceeded the server's size bound.
pub const ERR_OVERSIZED: u8 = 2;
/// Error code: the scenario id is outside the bundled 1–7.
pub const ERR_UNKNOWN_SCENARIO: u8 = 3;
/// Error code: the request decoded but the planner rejected it.
pub const ERR_BAD_REQUEST: u8 = 4;
/// Error code: the march itself failed (reported, never a crash).
pub const ERR_INTERNAL: u8 = 5;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — the same construction the event
/// engine's checkpoints use; endianness-free and dependency-free.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What a plan request marches toward.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanTarget {
    /// One of the bundled bench scenarios (1–7).
    Scenario(u8),
    /// A custom simple FoI polygon (no holes). The server derives the
    /// deployment FoI by translating the polygon back along −x by the
    /// requested separation, marching the swarm between two copies of
    /// the same shape.
    Polygon(Vec<Point>),
}

/// Objective for the rotation search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMethod {
    /// Maximize the total stable link ratio (paper method (a)).
    MaxStableLinks,
    /// Minimize the total moving distance (paper method (b)).
    MinMovingDistance,
}

impl PlanMethod {
    fn code(self) -> u8 {
        match self {
            PlanMethod::MaxStableLinks => 0,
            PlanMethod::MinMovingDistance => 1,
        }
    }
}

/// One plan request: target FoI, swarm size, and the `MarchConfig`
/// overrides the protocol exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// What to march toward.
    pub target: PlanTarget,
    /// Swarm size (the bundled scenarios need ≥ 144 to triangulate).
    pub robots: u32,
    /// Opaque request discriminator. The pipeline is deterministic, so
    /// the seed steers nothing — but it participates in the cache key,
    /// letting callers force distinct cache entries (the load generator
    /// uses exactly this to generate cold misses).
    pub seed: u64,
    /// Rotation-search objective.
    pub method: PlanMethod,
    /// FoI separation in communication ranges (paper sweeps 10–100).
    pub separation_ranges: f64,
    /// `MarchConfig::time_samples` override; 0 keeps the default.
    pub time_samples: u32,
    /// Run the post-transition Lloyd coverage refinement.
    pub refine_coverage: bool,
    /// `LloydConfig::max_iterations` override; 0 keeps the default.
    pub lloyd_max_iterations: u32,
}

impl PlanRequest {
    /// A request for bundled scenario `id` with everything else at the
    /// paper's defaults (144 robots, separation 10, method (a)).
    #[must_use]
    pub fn scenario(id: u8) -> PlanRequest {
        PlanRequest {
            target: PlanTarget::Scenario(id),
            robots: 144,
            seed: 0,
            method: PlanMethod::MaxStableLinks,
            separation_ranges: 10.0,
            time_samples: 0,
            refine_coverage: true,
            lloyd_max_iterations: 0,
        }
    }
}

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(io::Error),
    /// A frame's length word exceeded the reader's bound.
    Oversized {
        /// Claimed frame length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The frame or payload violated the encoding.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket: {e}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame (`kind` + `payload`) to `w`.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame_into(&mut frame, kind, payload);
    w.write_all(&frame)
}

/// Appends the encoded frame (`kind` + `payload`) to `out` — the byte
/// layer shared by [`write_frame`] and the response encoder.
pub fn frame_into(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let len = payload.len() as u32 + 1;
    out.extend_from_slice(&len.to_be_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
}

/// Reads one frame from `r`, enforcing `max` on the length word
/// *before* allocating.
///
/// # Errors
///
/// [`WireError::Oversized`] for a too-large length word,
/// [`WireError::Malformed`] for a zero length, [`WireError::Io`] for
/// socket failures (including EOF mid-frame).
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<(u8, Vec<u8>), WireError> {
    let mut lenb = [0u8; 4];
    r.read_exact(&mut lenb)?;
    let len = u32::from_be_bytes(lenb) as usize;
    if len == 0 {
        return Err(WireError::Malformed("zero-length frame"));
    }
    if len > max {
        return Err(WireError::Oversized { len, max });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let kind = body[0];
    body.drain(..1);
    Ok((kind, body))
}

/// Encodes `req` canonically (the byte string [`request_hash`] hashes).
#[must_use]
pub fn encode_request(req: &PlanRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(PROTOCOL_VERSION);
    match &req.target {
        PlanTarget::Scenario(id) => {
            out.push(0);
            out.push(*id);
        }
        PlanTarget::Polygon(pts) => {
            out.push(1);
            out.extend_from_slice(&(pts.len() as u32).to_be_bytes());
            for p in pts {
                out.extend_from_slice(&p.x.to_bits().to_be_bytes());
                out.extend_from_slice(&p.y.to_bits().to_be_bytes());
            }
        }
    }
    out.extend_from_slice(&req.robots.to_be_bytes());
    out.extend_from_slice(&req.seed.to_be_bytes());
    out.push(req.method.code());
    out.extend_from_slice(&req.separation_ranges.to_bits().to_be_bytes());
    out.extend_from_slice(&req.time_samples.to_be_bytes());
    out.push(u8::from(req.refine_coverage));
    out.extend_from_slice(&req.lloyd_max_iterations.to_be_bytes());
    out
}

/// A strict little read cursor over a payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(WireError::Malformed("payload truncated"));
        };
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_be_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_be_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let v = f64::from_bits(self.u64()?);
        if v.is_nan() {
            return Err(WireError::Malformed("NaN float"));
        }
        Ok(v)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

/// Decodes a canonical request payload, rejecting anything the encoder
/// cannot produce (unknown version/enum values, NaN floats, oversized
/// polygons, trailing bytes).
///
/// # Errors
///
/// [`WireError::Malformed`] with a description of the first violation.
pub fn decode_request(payload: &[u8]) -> Result<PlanRequest, WireError> {
    let mut c = Cursor::new(payload);
    if c.u8()? != PROTOCOL_VERSION {
        return Err(WireError::Malformed("unsupported protocol version"));
    }
    let target = match c.u8()? {
        0 => PlanTarget::Scenario(c.u8()?),
        1 => {
            let n = c.u32()? as usize;
            if n < 3 {
                return Err(WireError::Malformed("polygon needs at least 3 vertices"));
            }
            if n > MAX_POLYGON_VERTICES {
                return Err(WireError::Malformed("polygon too large"));
            }
            let mut pts = Vec::with_capacity(n);
            for _ in 0..n {
                let x = c.f64()?;
                let y = c.f64()?;
                if !x.is_finite() || !y.is_finite() {
                    return Err(WireError::Malformed("non-finite polygon vertex"));
                }
                pts.push(Point::new(x, y));
            }
            PlanTarget::Polygon(pts)
        }
        _ => return Err(WireError::Malformed("unknown target kind")),
    };
    let robots = c.u32()?;
    let seed = c.u64()?;
    let method = match c.u8()? {
        0 => PlanMethod::MaxStableLinks,
        1 => PlanMethod::MinMovingDistance,
        _ => return Err(WireError::Malformed("unknown method")),
    };
    let separation_ranges = c.f64()?;
    if !separation_ranges.is_finite() || separation_ranges <= 0.0 {
        return Err(WireError::Malformed("separation must be positive"));
    }
    let time_samples = c.u32()?;
    let refine_coverage = match c.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("refine_coverage must be 0 or 1")),
    };
    let lloyd_max_iterations = c.u32()?;
    c.finish()?;
    Ok(PlanRequest {
        target,
        robots,
        seed,
        method,
        separation_ranges,
        time_samples,
        refine_coverage,
        lloyd_max_iterations,
    })
}

/// The content address of a request: FNV-1a over its canonical
/// encoding. Because the encoding is canonical, equal hashes come from
/// equal requests (up to 64-bit collisions, which the cache re-checks
/// against the stored key bytes).
#[must_use]
pub fn request_hash(req: &PlanRequest) -> u64 {
    fnv1a64(&encode_request(req))
}

/// The metrics-bearing first frame of a successful response.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseHeader {
    /// Canonical hash of the request this answers.
    pub request_hash: u64,
    /// Swarm size planned for.
    pub robots: u32,
    /// Timeline rows that follow in the chunks.
    pub timeline_rows: u32,
    /// Number of chunk frames that follow.
    pub chunk_count: u32,
    /// Lloyd iterations the coverage refinement used.
    pub lloyd_iterations: u32,
    /// Chosen disk rotation (radians).
    pub rotation: f64,
    /// Total moving distance `D` (metres).
    pub total_distance: f64,
    /// Total stable link ratio `L`.
    pub stable_link_ratio: f64,
    /// Global connectivity `C` (1 = certified connected throughout).
    pub global_connectivity: u8,
    /// `M1` links that survived the whole transition.
    pub preserved_links: u32,
    /// `M1` link count (denominator of `L`).
    pub initial_links: u32,
    /// Links present at the end that `M1` lacked.
    pub new_links: u32,
}

/// Encodes a response header payload.
#[must_use]
pub fn encode_header(h: &ResponseHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&h.request_hash.to_be_bytes());
    out.extend_from_slice(&h.robots.to_be_bytes());
    out.extend_from_slice(&h.timeline_rows.to_be_bytes());
    out.extend_from_slice(&h.chunk_count.to_be_bytes());
    out.extend_from_slice(&h.lloyd_iterations.to_be_bytes());
    out.extend_from_slice(&h.rotation.to_bits().to_be_bytes());
    out.extend_from_slice(&h.total_distance.to_bits().to_be_bytes());
    out.extend_from_slice(&h.stable_link_ratio.to_bits().to_be_bytes());
    out.push(h.global_connectivity);
    out.extend_from_slice(&h.preserved_links.to_be_bytes());
    out.extend_from_slice(&h.initial_links.to_be_bytes());
    out.extend_from_slice(&h.new_links.to_be_bytes());
    out
}

/// Decodes a response header payload.
///
/// # Errors
///
/// [`WireError::Malformed`] on truncation or trailing bytes.
pub fn decode_header(payload: &[u8]) -> Result<ResponseHeader, WireError> {
    let mut c = Cursor::new(payload);
    let h = ResponseHeader {
        request_hash: c.u64()?,
        robots: c.u32()?,
        timeline_rows: c.u32()?,
        chunk_count: c.u32()?,
        lloyd_iterations: c.u32()?,
        rotation: c.f64()?,
        total_distance: c.f64()?,
        stable_link_ratio: c.f64()?,
        global_connectivity: c.u8()?,
        preserved_links: c.u32()?,
        initial_links: c.u32()?,
        new_links: c.u32()?,
    };
    c.finish()?;
    Ok(h)
}

/// Decodes a chunk payload into `(chunk_index, points)`.
///
/// # Errors
///
/// [`WireError::Malformed`] on truncation, trailing bytes, or a point
/// count above [`CHUNK_POINTS`].
pub fn decode_chunk(payload: &[u8]) -> Result<(u32, Vec<Point>), WireError> {
    let mut c = Cursor::new(payload);
    let index = c.u32()?;
    let count = c.u32()? as usize;
    if count > CHUNK_POINTS {
        return Err(WireError::Malformed("chunk exceeds CHUNK_POINTS"));
    }
    let mut pts = Vec::with_capacity(count);
    for _ in 0..count {
        let x = c.f64()?;
        let y = c.f64()?;
        pts.push(Point::new(x, y));
    }
    c.finish()?;
    Ok((index, pts))
}

/// Encodes an error payload (`code` + UTF-8 message).
#[must_use]
pub fn encode_error(code: u8, msg: &str) -> Vec<u8> {
    let bytes = msg.as_bytes();
    let mut out = Vec::with_capacity(5 + bytes.len());
    out.push(code);
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Decodes an error payload into `(code, message)`.
///
/// # Errors
///
/// [`WireError::Malformed`] on truncation or invalid UTF-8.
pub fn decode_error(payload: &[u8]) -> Result<(u8, String), WireError> {
    let mut c = Cursor::new(payload);
    let code = c.u8()?;
    let len = c.u32()? as usize;
    let bytes = c.take(len)?;
    c.finish()?;
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok((code, s.to_string())),
        Err(_) => Err(WireError::Malformed("error message is not UTF-8")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly_req() -> PlanRequest {
        PlanRequest {
            target: PlanTarget::Polygon(vec![
                Point::new(0.0, 0.0),
                Point::new(400.0, 0.0),
                Point::new(400.0, 300.0),
                Point::new(0.0, 300.0),
            ]),
            robots: 144,
            seed: 42,
            method: PlanMethod::MinMovingDistance,
            separation_ranges: 12.5,
            time_samples: 20,
            refine_coverage: false,
            lloyd_max_iterations: 7,
        }
    }

    #[test]
    fn request_round_trips() {
        for req in [PlanRequest::scenario(3), poly_req()] {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).unwrap();
            assert_eq!(back, req);
            // Canonical: re-encoding reproduces the wire bytes.
            assert_eq!(encode_request(&back), bytes);
        }
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = PlanRequest::scenario(1);
        let mut b = PlanRequest::scenario(1);
        assert_eq!(request_hash(&a), request_hash(&b));
        b.seed = 1;
        assert_ne!(request_hash(&a), request_hash(&b));
        let mut c = PlanRequest::scenario(1);
        c.method = PlanMethod::MinMovingDistance;
        assert_ne!(request_hash(&a), request_hash(&c));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_PLAN_REQUEST, b"hello").unwrap();
        write_frame(&mut buf, KIND_RESP_BUSY, b"").unwrap();
        let mut r = &buf[..];
        let (k1, p1) = read_frame(&mut r, 1024).unwrap();
        let (k2, p2) = read_frame(&mut r, 1024).unwrap();
        assert_eq!((k1, p1.as_slice()), (KIND_PLAN_REQUEST, &b"hello"[..]));
        assert_eq!((k2, p2.as_slice()), (KIND_RESP_BUSY, &b""[..]));
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.push(KIND_PLAN_REQUEST);
        let err = read_frame(&mut &buf[..], 4096).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
    }

    #[test]
    fn malformed_payloads_are_typed() {
        assert!(decode_request(b"").is_err());
        assert!(decode_request(&[9, 0, 1]).is_err()); // bad version
        let mut ok = encode_request(&PlanRequest::scenario(1));
        ok.push(0); // trailing byte
        assert!(decode_request(&ok).is_err());
        // NaN separation.
        let mut req = PlanRequest::scenario(1);
        req.separation_ranges = f64::NAN;
        assert!(decode_request(&encode_request(&req)).is_err());
    }

    #[test]
    fn header_and_error_round_trip() {
        let h = ResponseHeader {
            request_hash: 0xdead_beef,
            robots: 144,
            timeline_rows: 55,
            chunk_count: 2,
            lloyd_iterations: 9,
            rotation: -0.25,
            total_distance: 1234.5,
            stable_link_ratio: 0.875,
            global_connectivity: 1,
            preserved_links: 350,
            initial_links: 400,
            new_links: 12,
        };
        assert_eq!(decode_header(&encode_header(&h)).unwrap(), h);
        let (code, msg) = decode_error(&encode_error(ERR_UNKNOWN_SCENARIO, "nope")).unwrap();
        assert_eq!((code, msg.as_str()), (ERR_UNKNOWN_SCENARIO, "nope"));
    }
}
