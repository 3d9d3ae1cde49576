//! Model-conformance fixture: a miniature protocol workspace whose
//! manifest (`lint.models.toml`) covers green protocols (exact budget,
//! clamped container, LOCAL class) and every red shape M1–M3 promise
//! to catch — an oversized CONGEST message, an unprovable bound, an
//! impure handler, a message-text mismatch, a missing entry, a stale
//! entry, a bogus hook, and a slack budget.

use std::time::Instant;

/// Round-driven protocol surface (fixture twin of the real trait).
pub trait Node {
    /// Per-message payload type.
    type Msg;
    /// Round-0 hook.
    fn on_start(&mut self) {}
    /// Per-round hook.
    fn on_round(&mut self, round: usize);
    /// May the engine skip this node's empty rounds?
    fn idle(&self) -> bool {
        false
    }
}

/// A fixed-width position payload: two `f64` coordinates, 128 bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pos {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

/// Green: message bound (128) exactly meets the declared budget.
#[derive(Debug, Default)]
pub struct GoodNode {
    /// Positions heard so far.
    pub heard: Vec<Pos>,
}

impl Node for GoodNode {
    type Msg = Pos;

    fn on_round(&mut self, _round: usize) {
        self.heard.push(Pos { x: 0.0, y: 0.0 });
    }

    fn idle(&self) -> bool {
        self.heard.len() > 4
    }
}

/// Most elements a [`Batch`] may carry — the clamp that makes its
/// `Vec` field provably bounded (M1's `MAX_*` dominance test).
pub const MAX_ITEMS: usize = 4;

/// A clamped container payload: at most [`MAX_ITEMS`] `u16`s, 64 bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The batched readings.
    pub items: Vec<u16>,
}

/// Green: the `Vec` field is dominated by a named clamp constant.
#[derive(Debug, Default)]
pub struct ClampNode {
    /// Last batch size seen.
    pub last: usize,
}

impl Node for ClampNode {
    type Msg = Batch;

    fn on_round(&mut self, round: usize) {
        self.last = round.min(MAX_ITEMS);
    }
}

/// Green, LOCAL class: no bit budget to prove.
#[derive(Debug, Default)]
pub struct GossipNode {
    /// Rounds executed.
    pub rounds: usize,
}

impl Node for GossipNode {
    type Msg = (u32, u32);

    fn on_round(&mut self, _round: usize) {
        self.rounds += 1;
    }
}

/// Four `u64` words: 256 bits, over any reasonable CONGEST budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BigMsg {
    /// First word.
    pub a: u64,
    /// Second word.
    pub b: u64,
    /// Third word.
    pub c: u64,
    /// Fourth word.
    pub d: u64,
}

/// Red (M1): the computed bound exceeds the declared budget.
#[derive(Debug, Default)]
pub struct BigNode {
    /// Payload count.
    pub seen: usize,
}

impl Node for BigNode {
    type Msg = BigMsg;

    fn on_round(&mut self, _round: usize) {
        self.seen += 1;
    }
}

/// An unclamped byte buffer: no finite serialized size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    /// Arbitrary payload bytes.
    pub data: Vec<u8>,
}

/// Red (M1): the message has no provable bound.
#[derive(Debug, Default)]
pub struct GrowNode {
    /// Bytes accumulated.
    pub total: usize,
}

impl Node for GrowNode {
    type Msg = Blob;

    fn on_round(&mut self, _round: usize) {
        self.total += 1;
    }
}

/// Red (M2): the round handler reads the wall clock.
#[derive(Debug, Default)]
pub struct ClockNode {
    /// Nanoseconds burned.
    pub spent: u128,
}

impl Node for ClockNode {
    type Msg = u32;

    fn on_round(&mut self, _round: usize) {
        let t = Instant::now();
        self.spent += t.elapsed().as_nanos();
    }
}

/// Red (M1 warn): an 8-bit message under a 64-bit budget — slack
/// beyond 2x, so the declaration should ratchet down.
#[derive(Debug, Default)]
pub struct TinyNode {
    /// Flags heard.
    pub flags: u8,
}

impl Node for TinyNode {
    type Msg = u8;

    fn on_round(&mut self, _round: usize) {
        self.flags = self.flags.wrapping_add(1);
    }
}

/// Red (M3): implements `Node` but has no manifest entry.
#[derive(Debug, Default)]
pub struct OrphanNode {
    /// Rounds executed.
    pub rounds: usize,
}

impl Node for OrphanNode {
    type Msg = u32;

    fn on_round(&mut self, _round: usize) {
        self.rounds += 1;
    }
}

/// Red (M3): its manifest entry names a hook that does not exist and
/// a crate it does not live in.
#[derive(Debug, Default)]
pub struct NoHookNode {
    /// Rounds executed.
    pub rounds: usize,
}

impl Node for NoHookNode {
    type Msg = u32;

    fn on_round(&mut self, _round: usize) {
        self.rounds += 1;
    }
}

/// Red (M1): the manifest spells a different message type than the
/// impl resolves.
#[derive(Debug, Default)]
pub struct MismatchNode {
    /// Rounds executed.
    pub rounds: usize,
}

impl Node for MismatchNode {
    type Msg = u32;

    fn on_round(&mut self, _round: usize) {
        self.rounds += 1;
    }
}

/// Accounting hook for [`GoodNode`].
pub fn run_good(node: &mut GoodNode) {
    node.on_round(0);
}

/// Accounting hook for [`ClampNode`].
pub fn run_clamp(node: &mut ClampNode) {
    node.on_round(0);
}

/// Accounting hook for [`GossipNode`].
pub fn run_gossip(node: &mut GossipNode) {
    node.on_round(0);
}

/// Accounting hook for [`BigNode`].
pub fn run_big(node: &mut BigNode) {
    node.on_round(0);
}

/// Accounting hook for [`GrowNode`].
pub fn run_grow(node: &mut GrowNode) {
    node.on_round(0);
}

/// Accounting hook for [`ClockNode`].
pub fn run_clock(node: &mut ClockNode) {
    node.on_round(0);
}

/// Accounting hook for [`TinyNode`].
pub fn run_tiny(node: &mut TinyNode) {
    node.on_round(0);
}

/// Accounting hook for [`MismatchNode`].
pub fn run_mismatch(node: &mut MismatchNode) {
    node.on_round(0);
}
