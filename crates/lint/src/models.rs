//! M1–M3 — formal-model conformance: every `Node` protocol
//! implementation declares its model class (LOCAL or CONGEST), message
//! payload type, per-message bit budget, and rounds-to-quiescence
//! budget in `lint.models.toml`, and the analyzer proves the code
//! respects the declaration.
//!
//! **M1 (message bounds)** resolves each protocol's `type Msg` through
//! the impl scan, then walks the message type's struct/enum token
//! structure to a conservative serialized-size bound: fixed-width
//! scalars sum, enums pay an 8-bit tag plus their widest variant,
//! `Option` pays an 8-bit discriminant, arrays multiply. `Vec`/`String`
//! fields are unbounded unless dominated by a named `MAX_*` clamp
//! constant in the defining file (the U1 sanitizer's bound-naming
//! test); `usize`/`isize` are platform-width and never count as
//! bounded. A CONGEST-declared protocol whose bound exceeds — or cannot
//! prove — its budget is an error carrying the offending field chain; a
//! budget slack by more than 2× is a warning so declarations ratchet
//! down.
//!
//! **M2 (handler purity)** requires protocol handlers (`on_start`,
//! `on_round`, `idle`) to be pure functions of state + inbox + seeded
//! RNG: the same reverse BFS C1 runs proves no handler transitively
//! reaches a wall-clock/fs/net/env/thread/unseeded-RNG effect site.
//!
//! **M3 (budget wiring)** keeps the manifest honest in both directions
//! (every shipping protocol impl has an entry; every entry matches an
//! impl) and requires each entry to name a runtime accounting `hook` —
//! an existing workspace function (the robust runners assert observed
//! per-message bits ≤ this module's static bound at run time).
//!
//! A missing `lint.models.toml` disables the M family entirely, the
//! same opt-in contract as C1 — fixture workspaces ship their own
//! manifest.

use crate::baseline::{parse_string, strip_comment, BaselineError};
use crate::capabilities::effect_sites;
use crate::context::{matching, FileCtx};
use crate::graph::CallGraph;
use crate::lexer::{TokKind, Token};
use crate::parser::{impl_header, ParsedFile};
use crate::report::json_string as json_str;
use crate::rules::Finding;
use crate::semantic::{chain, distances, mk_finding, Sink};
use crate::taint::names_a_bound;
use std::collections::{BTreeMap, BTreeSet};

/// The model classes the manifest may declare.
pub const MODEL_CLASSES: &[&str] = &["CONGEST", "LOCAL"];

/// One `[[protocol]]` entry of `lint.models.toml`.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Line of the `[[protocol]]` header.
    pub line: u32,
    /// Protocol self type (`RobustHopFieldNode`, …).
    pub name: String,
    /// Crate directory name that owns the `Node` impl.
    pub crate_name: String,
    /// Declared model class (`CONGEST` or `LOCAL`).
    pub model: String,
    /// Declared message payload type, as written at `type Msg = …`.
    pub message: String,
    /// Per-message bit budget (required for CONGEST).
    pub bits: Option<u64>,
    /// Rounds-to-quiescence budget.
    pub rounds: u64,
    /// Runtime accounting hook: a workspace function that runs the
    /// protocol under per-round accounting.
    pub hook: String,
}

/// A parsed `lint.models.toml`: protocol name → entry.
#[derive(Debug, Clone, Default)]
pub struct ModelsManifest {
    /// Declared protocols, keyed by self type.
    pub entries: BTreeMap<String, ModelEntry>,
}

/// Parses the minimal TOML subset the model manifest uses:
/// `[[protocol]]` tables with one `key = value` per line. Comments and
/// blank lines are free.
///
/// # Errors
///
/// [`BaselineError`] (line + message) on any malformed construct,
/// unknown key or model class, a CONGEST entry without `bits`, or a
/// duplicate protocol entry.
pub fn parse_models(text: &str) -> Result<ModelsManifest, BaselineError> {
    #[derive(Default)]
    struct Partial {
        at: u32,
        name: Option<String>,
        crate_name: Option<String>,
        model: Option<String>,
        message: Option<String>,
        bits: Option<u64>,
        rounds: Option<u64>,
        hook: Option<String>,
    }
    let mut manifest = ModelsManifest::default();
    let mut current: Option<Partial> = None;
    let err = |line: usize, message: &str| BaselineError {
        line,
        message: message.to_string(),
    };
    let finish = |cur: Option<Partial>,
                  line: usize,
                  manifest: &mut ModelsManifest|
     -> Result<(), BaselineError> {
        let Some(p) = cur else { return Ok(()) };
        let name = p
            .name
            .ok_or_else(|| err(line, "[[protocol]] entry missing `name`"))?;
        let crate_name = p
            .crate_name
            .ok_or_else(|| err(line, "[[protocol]] entry missing `crate`"))?;
        let model = p
            .model
            .ok_or_else(|| err(line, "[[protocol]] entry missing `model`"))?;
        let message = p
            .message
            .ok_or_else(|| err(line, "[[protocol]] entry missing `message`"))?;
        let rounds = p
            .rounds
            .ok_or_else(|| err(line, "[[protocol]] entry missing `rounds`"))?;
        let hook = p
            .hook
            .ok_or_else(|| err(line, "[[protocol]] entry missing `hook`"))?;
        if model == "CONGEST" && p.bits.is_none() {
            return Err(err(
                line,
                &format!("CONGEST entry `{name}` missing `bits` (per-message bit budget)"),
            ));
        }
        let entry = ModelEntry {
            line: p.at,
            name: name.clone(),
            crate_name,
            model,
            message,
            bits: p.bits,
            rounds,
            hook,
        };
        if manifest.entries.insert(name.clone(), entry).is_some() {
            return Err(err(
                line,
                &format!("duplicate [[protocol]] entry for `{name}`"),
            ));
        }
        Ok(())
    };
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[protocol]]" {
            finish(current.take(), lineno, &mut manifest)?;
            current = Some(Partial {
                at: lineno as u32,
                ..Partial::default()
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(lineno, "expected `key = value` or `[[protocol]]`"));
        };
        let (key, value) = (key.trim(), value.trim());
        let Some(p) = current.as_mut() else {
            return Err(err(lineno, "key outside a [[protocol]] entry"));
        };
        let want_str = |what: &str| -> Result<String, BaselineError> {
            parse_string(value).ok_or_else(|| err(lineno, &format!("bad string for `{what}`")))
        };
        let want_int = |what: &str| -> Result<u64, BaselineError> {
            value
                .parse::<u64>()
                .map_err(|_| err(lineno, &format!("`{what}` must be a bare integer")))
        };
        match key {
            "name" => p.name = Some(want_str("name")?),
            "crate" => p.crate_name = Some(want_str("crate")?),
            "model" => {
                let v = want_str("model")?;
                if !MODEL_CLASSES.contains(&v.as_str()) {
                    return Err(err(lineno, &format!("unknown model class `{v}`")));
                }
                p.model = Some(v);
            }
            "message" => p.message = Some(want_str("message")?),
            "bits" => p.bits = Some(want_int("bits")?),
            "rounds" => p.rounds = Some(want_int("rounds")?),
            "hook" => p.hook = Some(want_str("hook")?),
            other => return Err(err(lineno, &format!("unknown key `{other}`"))),
        }
    }
    let last = text.lines().count();
    finish(current.take(), last, &mut manifest)?;
    Ok(manifest)
}

/// The computed serialized-size bound of one message type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitBound {
    /// Provable fixed-width bound, in bits.
    Fixed(u64),
    /// No finite bound: the field chain names the first component that
    /// defeats the walk, with the reason.
    Unbounded {
        /// Dotted path from the message type to the offending field.
        chain: String,
        /// Why the component is unbounded.
        reason: String,
    },
}

/// One protocol's computed (and, when declared, manifest) surface.
#[derive(Debug, Clone)]
pub struct ProtocolSurface {
    /// Protocol self type.
    pub name: String,
    /// Crate directory name owning the impl.
    pub crate_name: String,
    /// File of the `Node` (or first) impl.
    pub file: String,
    /// 1-based line of the impl keyword.
    pub line: u32,
    /// Protocol traits implemented (`Node`).
    pub traits: Vec<String>,
    /// The resolved `type Msg` rendering, when a `Node` impl was found.
    pub message: Option<String>,
    /// The computed size bound of the message type.
    pub bound: Option<BitBound>,
    /// Declared model class, when the manifest covers this protocol.
    pub model: Option<String>,
    /// Declared per-message bit budget.
    pub declared_bits: Option<u64>,
    /// Declared rounds-to-quiescence budget.
    pub rounds: Option<u64>,
    /// Declared runtime accounting hook.
    pub hook: Option<String>,
}

/// The computed model-conformance surface — the `--models` artifact
/// (`anr-lint-models/1`).
#[derive(Debug, Clone, Default)]
pub struct ModelsReport {
    /// Every discovered protocol, ordered by name.
    pub protocols: Vec<ProtocolSurface>,
}

impl ModelsReport {
    /// Serializes as `anr-lint-models/1` JSONL: one `protocol` record
    /// per discovered `Node` impl (computed message type and
    /// bit bound, plus the declared model/budgets when the manifest
    /// covers it) and a trailing `summary`. Byte-identical across runs
    /// and worker counts.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut congest = 0usize;
        let mut bounded = 0usize;
        for p in &self.protocols {
            let traits = p
                .traits
                .iter()
                .map(|t| format!("\"{t}\""))
                .collect::<Vec<_>>()
                .join(",");
            let (bits, unbounded) = match &p.bound {
                Some(BitBound::Fixed(b)) => {
                    bounded += 1;
                    (b.to_string(), "null".to_string())
                }
                Some(BitBound::Unbounded { chain, reason }) => {
                    ("null".to_string(), json_str(&format!("{chain}: {reason}")))
                }
                None => ("null".to_string(), "null".to_string()),
            };
            if p.model.as_deref() == Some("CONGEST") {
                congest += 1;
            }
            let opt_str = |v: &Option<String>| v.as_deref().map_or("null".to_string(), json_str);
            let opt_int = |v: &Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            out.push_str(&format!(
                "{{\"schema\":\"anr-lint-models/1\",\"kind\":\"protocol\",\"name\":{},\"crate\":{},\"file\":{},\"line\":{},\"traits\":[{}],\"message\":{},\"bits\":{},\"unbounded\":{},\"model\":{},\"declared_bits\":{},\"rounds\":{},\"hook\":{}}}\n",
                json_str(&p.name),
                json_str(&p.crate_name),
                json_str(&p.file),
                p.line,
                traits,
                opt_str(&p.message),
                bits,
                unbounded,
                opt_str(&p.model),
                opt_int(&p.declared_bits),
                opt_int(&p.rounds),
                opt_str(&p.hook),
            ));
        }
        out.push_str(&format!(
            "{{\"schema\":\"anr-lint-models/1\",\"kind\":\"summary\",\"protocols\":{},\"congest\":{},\"bounded\":{}}}\n",
            self.protocols.len(),
            congest,
            bounded,
        ));
        out
    }

    /// Human-readable model surface listing.
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::from("computed protocol model surface:\n");
        for p in &self.protocols {
            let bound = match &p.bound {
                Some(BitBound::Fixed(b)) => format!("{b} bits"),
                Some(BitBound::Unbounded { chain, reason }) => {
                    format!("unbounded ({chain}: {reason})")
                }
                None => "no Node impl resolved".to_string(),
            };
            let declared = match (&p.model, p.declared_bits, p.rounds) {
                (Some(m), Some(b), Some(r)) => {
                    format!("{m}, budget {b} bits, {r} rounds")
                }
                (Some(m), None, Some(r)) => format!("{m}, {r} rounds"),
                _ => "UNDECLARED".to_string(),
            };
            out.push_str(&format!(
                "  {:<22} [{}] msg {} = {} — {} ({}:{})\n",
                p.name,
                p.traits.join("+"),
                p.message.as_deref().unwrap_or("?"),
                bound,
                declared,
                p.file,
                p.line,
            ));
        }
        out
    }
}

/// One discovered `impl Node for X`.
struct ProtoImpl {
    file_idx: usize,
    line: u32,
    trait_name: String,
    /// Token range of the `type Msg = …;` right-hand side, when present.
    msg: Option<(usize, usize)>,
}

/// A struct/enum definition usable for size-bound resolution.
struct TypeDef {
    file_idx: usize,
    kind: &'static str,
    span: (usize, usize),
    crate_name: String,
}

/// Renders a type token range canonically: tokens joined without
/// spaces, except `, ` after commas — `(u32, f64)`, `Option<Point>`.
fn render_type(toks: &[Token], range: (usize, usize)) -> String {
    let mut out = String::new();
    for t in &toks[range.0..range.1.min(toks.len())] {
        if t.is_punct(",") {
            out.push_str(", ");
        } else {
            out.push_str(&t.text);
        }
    }
    out
}

/// Is `>` at `j` the tail of `->`?
fn is_arrow_tail(toks: &[Token], j: usize) -> bool {
    j > 0 && toks[j - 1].is_punct("-")
}

/// Skips a `#[…]` / `#![…]` attribute starting at `i`; returns the
/// index after it, or `i` when there is no attribute.
fn skip_attr(toks: &[Token], i: usize) -> usize {
    if !toks.get(i).is_some_and(|t| t.is_punct("#")) {
        return i;
    }
    let open = if toks.get(i + 1).is_some_and(|t| t.is_punct("!")) {
        i + 2
    } else {
        i + 1
    };
    if toks.get(open).is_some_and(|t| t.is_punct("[")) {
        if let Some(close) = matching(toks, open, "[", "]") {
            return close + 1;
        }
    }
    i + 1
}

/// Splits `range` on depth-0 commas (all bracket kinds nest).
fn split_commas(toks: &[Token], range: (usize, usize)) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = range.0;
    let mut i = range.0;
    while i < range.1 {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") && !is_arrow_tail(toks, i) {
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            if i > start {
                parts.push((start, i));
            }
            start = i + 1;
        }
        i += 1;
    }
    if range.1 > start {
        parts.push((start, range.1));
    }
    parts
}

/// Parses a `u64` out of an integer literal token text (`16`, `1_024`,
/// `16usize`).
fn int_literal(text: &str) -> Option<u64> {
    let digits: String = text
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// Everything the size-bound walk needs.
struct BoundCtx<'a> {
    files: &'a [(FileCtx, ParsedFile)],
    types: &'a BTreeMap<String, Vec<TypeDef>>,
}

impl BoundCtx<'_> {
    /// Resolves a type name from `crate_name`: same-crate definitions
    /// win; otherwise a unique workspace-wide definition is accepted.
    fn resolve(&self, name: &str, crate_name: &str) -> Result<&TypeDef, String> {
        let Some(defs) = self.types.get(name) else {
            return Err(format!("type `{name}` is not defined in the workspace"));
        };
        let local: Vec<&TypeDef> = defs.iter().filter(|d| d.crate_name == crate_name).collect();
        match (local.as_slice(), defs.len()) {
            ([one], _) => Ok(one),
            ([], 1) => Ok(&defs[0]),
            ([], _) => Err(format!("type `{name}` is ambiguous across crates")),
            (_, _) => Err(format!("type `{name}` is defined more than once")),
        }
    }

    /// Bound of the type spelled in `range` of file `file_idx`. `clamp`
    /// is the element-count bound a dominating `MAX_*` constant grants
    /// to a container at this position; `path` locates the component
    /// for error chains.
    fn type_bound(
        &self,
        file_idx: usize,
        range: (usize, usize),
        clamp: Option<u64>,
        path: &str,
        visited: &mut BTreeSet<String>,
    ) -> BitBound {
        let ctx = &self.files[file_idx].0;
        let toks = &ctx.tokens;
        let unbounded = |reason: String| BitBound::Unbounded {
            chain: path.to_string(),
            reason,
        };
        let mut i = range.0;
        while i < range.1 && (toks[i].is_punct(":") || toks[i].kind == TokKind::Lifetime) {
            i += 1; // leading `::` of an absolute path
        }
        if i >= range.1 {
            return unbounded("empty type".to_string());
        }
        let t = &toks[i];
        if t.is_punct("&") {
            return unbounded("reference type has no owned serialized size".to_string());
        }
        // Tuple `(A, B, …)` — or unit `()`.
        if t.is_punct("(") {
            let Some(close) = matching(toks, i, "(", ")") else {
                return unbounded("unclosed tuple type".to_string());
            };
            let mut total = 0u64;
            for (k, part) in split_commas(toks, (i + 1, close)).iter().enumerate() {
                let sub = format!("{path}.{k}");
                match self.type_bound(file_idx, *part, None, &sub, visited) {
                    BitBound::Fixed(b) => total += b,
                    u @ BitBound::Unbounded { .. } => return u,
                }
            }
            return BitBound::Fixed(total);
        }
        // Array `[T; N]`.
        if t.is_punct("[") {
            let Some(close) = matching(toks, i, "[", "]") else {
                return unbounded("unclosed array type".to_string());
            };
            let mut semi = None;
            let mut depth = 0i32;
            for j in i + 1..close {
                if toks[j].is_punct("[") || toks[j].is_punct("(") || toks[j].is_punct("<") {
                    depth += 1;
                } else if toks[j].is_punct("]")
                    || toks[j].is_punct(")")
                    || (toks[j].is_punct(">") && !is_arrow_tail(toks, j))
                {
                    depth -= 1;
                } else if toks[j].is_punct(";") && depth == 0 {
                    semi = Some(j);
                    break;
                }
            }
            let Some(semi) = semi else {
                return unbounded("slice type has no length".to_string());
            };
            let Some(len) = toks
                .get(semi + 1)
                .filter(|t| t.kind == TokKind::Literal)
                .and_then(|t| int_literal(&t.text))
            else {
                return unbounded("array length is not an integer literal".to_string());
            };
            return match self.type_bound(file_idx, (i + 1, semi), None, path, visited) {
                BitBound::Fixed(b) => BitBound::Fixed(b * len),
                u @ BitBound::Unbounded { .. } => u,
            };
        }
        if t.kind != TokKind::Ident {
            return unbounded(format!("unsupported type syntax `{}`", t.text));
        }
        // Walk a path `a::b::Name`, keeping the final segment.
        let mut name_idx = i;
        let mut j = i + 1;
        while j + 1 < range.1 && toks[j].is_punct(":") && toks[j + 1].is_punct(":") {
            if toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident) {
                name_idx = j + 2;
                j += 3;
            } else {
                break;
            }
        }
        let name = toks[name_idx].text.as_str();
        // Generic arguments, when present.
        let generic = toks
            .get(name_idx + 1)
            .filter(|t| t.is_punct("<"))
            .and_then(|_| {
                let mut depth = 0i32;
                for k in name_idx + 1..range.1 {
                    if toks[k].is_punct("<") {
                        depth += 1;
                    } else if toks[k].is_punct(">") && !is_arrow_tail(toks, k) {
                        depth -= 1;
                        if depth == 0 {
                            return Some((name_idx + 2, k));
                        }
                    }
                }
                None
            });
        match name {
            "bool" | "u8" | "i8" => return BitBound::Fixed(8),
            "u16" | "i16" => return BitBound::Fixed(16),
            "u32" | "i32" | "f32" | "char" => return BitBound::Fixed(32),
            "u64" | "i64" | "f64" => return BitBound::Fixed(64),
            "u128" | "i128" => return BitBound::Fixed(128),
            "usize" | "isize" => {
                return unbounded(format!(
                    "`{name}` is platform-width; use an explicit u32/u64 with a documented bound"
                ));
            }
            "Option" => {
                let Some(inner) = generic else {
                    return unbounded("`Option` without a type argument".to_string());
                };
                return match self.type_bound(file_idx, inner, clamp, path, visited) {
                    BitBound::Fixed(b) => BitBound::Fixed(8 + b),
                    u @ BitBound::Unbounded { .. } => u,
                };
            }
            "Box" => {
                let Some(inner) = generic else {
                    return unbounded("`Box` without a type argument".to_string());
                };
                return self.type_bound(file_idx, inner, clamp, path, visited);
            }
            "Vec" | "VecDeque" => {
                let Some(k) = clamp else {
                    return unbounded(format!(
                        "`{name}` has no dominating MAX_* clamp in the defining file"
                    ));
                };
                let Some(inner) = generic else {
                    return unbounded(format!("`{name}` without a type argument"));
                };
                return match self.type_bound(file_idx, inner, None, path, visited) {
                    BitBound::Fixed(b) => BitBound::Fixed(k * b),
                    u @ BitBound::Unbounded { .. } => u,
                };
            }
            "String" => {
                let Some(k) = clamp else {
                    return unbounded(
                        "`String` has no dominating MAX_* clamp in the defining file".to_string(),
                    );
                };
                return BitBound::Fixed(k * 8);
            }
            "BTreeMap" | "BTreeSet" | "HashMap" | "HashSet" => {
                return unbounded(format!("`{name}` payloads are unbounded collections"));
            }
            _ => {}
        }
        // A named workspace type: recurse into its definition.
        let crate_name = ctx.crate_name.clone();
        let def = match self.resolve(name, &crate_name) {
            Ok(d) => d,
            Err(reason) => return unbounded(reason),
        };
        let key = format!("{}::{name}", def.crate_name);
        if !visited.insert(key.clone()) {
            return unbounded(format!("type `{name}` is recursive"));
        }
        let sub_path = if path.is_empty() {
            name.to_string()
        } else {
            format!("{path}:{name}")
        };
        let bound = if def.kind == "struct" {
            self.struct_bound(def, &sub_path, visited)
        } else {
            self.enum_bound(def, &sub_path, visited)
        };
        visited.remove(&key);
        bound
    }

    /// Clamp for field `field` of a type defined in `file_idx`: the
    /// value of a same-file, non-test integer `const` whose name both
    /// names a bound (U1's test) and mentions the field name.
    fn field_clamp(&self, file_idx: usize, field: &str) -> Option<u64> {
        let (ctx, parsed) = &self.files[file_idx];
        let needle = field.to_ascii_uppercase();
        for item in &parsed.items {
            if item.kind != "const" || item.in_test {
                continue;
            }
            if !names_a_bound(&item.name) || !item.name.to_ascii_uppercase().contains(&needle) {
                continue;
            }
            let toks = &ctx.tokens;
            let eq = (item.span.0..item.span.1.min(toks.len())).find(|&i| toks[i].is_punct("="))?;
            return toks
                .get(eq + 1)
                .filter(|t| t.kind == TokKind::Literal)
                .and_then(|t| int_literal(&t.text));
        }
        None
    }

    /// Bound of a struct definition: sum of field bounds (tuple structs
    /// included); unit structs are zero bits.
    fn struct_bound(&self, def: &TypeDef, path: &str, visited: &mut BTreeSet<String>) -> BitBound {
        let toks = &self.files[def.file_idx].0.tokens;
        let unbounded = |reason: String| BitBound::Unbounded {
            chain: path.to_string(),
            reason,
        };
        // span starts at the `struct` keyword; skip name + generics.
        let mut i = def.span.0 + 2;
        if toks.get(i).is_some_and(|t| t.is_punct("<")) {
            let mut depth = 0i32;
            while i < def.span.1 {
                if toks[i].is_punct("<") {
                    depth += 1;
                } else if toks[i].is_punct(">") && !is_arrow_tail(toks, i) {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
        while i < def.span.1
            && !toks[i].is_punct("{")
            && !toks[i].is_punct("(")
            && !toks[i].is_punct(";")
        {
            i += 1; // `where` clauses
        }
        match toks.get(i) {
            Some(t) if t.is_punct(";") => BitBound::Fixed(0),
            Some(t) if t.is_punct("(") => {
                let Some(close) = matching(toks, i, "(", ")") else {
                    return unbounded("unclosed tuple struct".to_string());
                };
                let mut total = 0u64;
                for (k, part) in split_commas(toks, (i + 1, close)).iter().enumerate() {
                    let range = self.strip_field_prefix(def.file_idx, *part);
                    let sub = format!("{path}.{k}");
                    match self.type_bound(def.file_idx, range, None, &sub, visited) {
                        BitBound::Fixed(b) => total += b,
                        u @ BitBound::Unbounded { .. } => return u,
                    }
                }
                BitBound::Fixed(total)
            }
            Some(t) if t.is_punct("{") => {
                let Some(close) = matching(toks, i, "{", "}") else {
                    return unbounded("unclosed struct body".to_string());
                };
                self.fields_bound(def.file_idx, (i + 1, close), path, visited)
            }
            _ => unbounded("unparsable struct definition".to_string()),
        }
    }

    /// Sum of `name: Type` fields in a braced body range.
    fn fields_bound(
        &self,
        file_idx: usize,
        range: (usize, usize),
        path: &str,
        visited: &mut BTreeSet<String>,
    ) -> BitBound {
        let toks = &self.files[file_idx].0.tokens;
        let mut total = 0u64;
        for part in split_commas(toks, range) {
            let (name, ty) = match self.split_field(file_idx, part) {
                Some(x) => x,
                None => continue, // attribute-only / empty segment
            };
            let clamp = self.field_clamp(file_idx, &name);
            let sub = format!("{path}.{name}");
            match self.type_bound(file_idx, ty, clamp, &sub, visited) {
                BitBound::Fixed(b) => total += b,
                u @ BitBound::Unbounded { .. } => return u,
            }
        }
        BitBound::Fixed(total)
    }

    /// Skips attributes and a visibility prefix at the start of a field
    /// segment.
    fn strip_field_prefix(&self, file_idx: usize, range: (usize, usize)) -> (usize, usize) {
        let toks = &self.files[file_idx].0.tokens;
        let mut i = range.0;
        loop {
            let next = skip_attr(toks, i);
            if next != i {
                i = next;
                continue;
            }
            break;
        }
        if toks.get(i).is_some_and(|t| t.is_ident("pub")) {
            i += 1;
            if toks.get(i).is_some_and(|t| t.is_punct("(")) {
                if let Some(close) = matching(toks, i, "(", ")") {
                    i = close + 1;
                }
            }
        }
        (i, range.1)
    }

    /// Splits one struct-field segment into `(name, type_range)`.
    fn split_field(
        &self,
        file_idx: usize,
        range: (usize, usize),
    ) -> Option<(String, (usize, usize))> {
        let toks = &self.files[file_idx].0.tokens;
        let (start, end) = self.strip_field_prefix(file_idx, range);
        let name = toks
            .get(start)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())?;
        if !toks.get(start + 1).is_some_and(|t| t.is_punct(":")) {
            return None;
        }
        (start + 2 < end).then_some((name, (start + 2, end)))
    }

    /// Bound of an enum definition: an 8-bit tag plus the widest
    /// variant.
    fn enum_bound(&self, def: &TypeDef, path: &str, visited: &mut BTreeSet<String>) -> BitBound {
        let toks = &self.files[def.file_idx].0.tokens;
        let unbounded = |reason: String| BitBound::Unbounded {
            chain: path.to_string(),
            reason,
        };
        let open = (def.span.0..def.span.1.min(toks.len())).find(|&i| toks[i].is_punct("{"));
        let Some(open) = open else {
            return unbounded("unparsable enum definition".to_string());
        };
        let Some(close) = matching(toks, open, "{", "}") else {
            return unbounded("unclosed enum body".to_string());
        };
        let mut widest = 0u64;
        for part in split_commas(toks, (open + 1, close)) {
            let (start, end) = self.strip_field_prefix(def.file_idx, part);
            let Some(vname) = toks
                .get(start)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
            else {
                continue;
            };
            let sub = format!("{path}::{vname}");
            let bound = match toks.get(start + 1) {
                Some(t) if t.is_punct("(") => {
                    let Some(vclose) = matching(toks, start + 1, "(", ")") else {
                        return unbounded("unclosed enum variant".to_string());
                    };
                    let mut total = 0u64;
                    let mut failed = None;
                    for (k, p) in split_commas(toks, (start + 2, vclose)).iter().enumerate() {
                        let fp = format!("{sub}.{k}");
                        match self.type_bound(def.file_idx, *p, None, &fp, visited) {
                            BitBound::Fixed(b) => total += b,
                            u @ BitBound::Unbounded { .. } => {
                                failed = Some(u);
                                break;
                            }
                        }
                    }
                    match failed {
                        Some(u) => return u,
                        None => BitBound::Fixed(total),
                    }
                }
                Some(t) if t.is_punct("{") => {
                    let Some(vclose) = matching(toks, start + 1, "{", "}") else {
                        return unbounded("unclosed enum variant".to_string());
                    };
                    self.fields_bound(def.file_idx, (start + 2, vclose), &sub, visited)
                }
                _ => BitBound::Fixed(0), // unit variant (ignore `= N`)
            };
            match bound {
                BitBound::Fixed(b) => widest = widest.max(b),
                u @ BitBound::Unbounded { .. } => return u,
            }
            let _ = end;
        }
        BitBound::Fixed(8 + widest)
    }
}

/// Scans one shipping file for `impl Node for X` blocks and their
/// `type Msg = …;` declarations.
fn scan_protocol_impls(ctx: &FileCtx, file_idx: usize) -> Vec<(String, ProtoImpl)> {
    let toks = &ctx.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("impl") || !ctx.is_shipping_code(i) {
            i += 1;
            continue;
        }
        let Some((self_ty, trait_name, open)) = impl_header(toks, i + 1, toks.len()) else {
            i += 1;
            continue;
        };
        let (Some(self_ty), Some(trait_name)) = (self_ty, trait_name) else {
            i += 1;
            continue;
        };
        if trait_name != "Node" {
            i += 1;
            continue;
        }
        let Some(close) = matching(toks, open, "{", "}") else {
            break;
        };
        // `type Msg = …;` inside the impl body.
        let mut msg = None;
        let mut j = open + 1;
        while j + 2 < close {
            if toks[j].is_ident("type") && toks[j + 1].is_ident("Msg") && toks[j + 2].is_punct("=")
            {
                let semi = (j + 3..close).find(|&k| toks[k].is_punct(";"));
                if let Some(semi) = semi {
                    msg = Some((j + 3, semi));
                }
                break;
            }
            j += 1;
        }
        out.push((
            self_ty,
            ProtoImpl {
                file_idx,
                line: toks[i].line,
                trait_name,
                msg,
            },
        ));
        i = close + 1;
    }
    out
}

/// Handler names M2 holds to the purity contract.
const HANDLERS: &[&str] = &["idle", "on_round", "on_start"];

/// Computes the protocol model surface and, when a manifest is present,
/// the M1/M2/M3 findings.
pub(crate) fn analyze_models(
    graph: &CallGraph,
    files: &[(FileCtx, ParsedFile)],
    manifest: Option<&ModelsManifest>,
    manifest_file: &str,
) -> (Vec<Finding>, ModelsReport) {
    // Discover every shipping protocol impl, grouped by self type.
    let mut impls: BTreeMap<String, Vec<ProtoImpl>> = BTreeMap::new();
    for (idx, (ctx, _)) in files.iter().enumerate() {
        for (name, pi) in scan_protocol_impls(ctx, idx) {
            impls.entry(name).or_default().push(pi);
        }
    }

    // Workspace type table for the size-bound walk (shipping types only).
    let mut types: BTreeMap<String, Vec<TypeDef>> = BTreeMap::new();
    for (idx, (ctx, parsed)) in files.iter().enumerate() {
        if !matches!(
            ctx.kind,
            crate::context::FileKind::Lib | crate::context::FileKind::Bin
        ) {
            continue;
        }
        for item in &parsed.items {
            if item.in_test || !matches!(item.kind, "struct" | "enum") {
                continue;
            }
            types.entry(item.name.clone()).or_default().push(TypeDef {
                file_idx: idx,
                kind: item.kind,
                span: item.span,
                crate_name: ctx.crate_name.clone(),
            });
        }
    }
    let bctx = BoundCtx {
        files,
        types: &types,
    };

    // Per-protocol computed surface: the Node impl (the one carrying
    // `type Msg`) anchors file/line; traits aggregate.
    let mut protocols: BTreeMap<String, ProtocolSurface> = BTreeMap::new();
    for (name, list) in &impls {
        let anchor = list
            .iter()
            .find(|p| p.trait_name == "Node")
            .unwrap_or(&list[0]);
        let ctx = &files[anchor.file_idx].0;
        let mut traits: Vec<String> = list.iter().map(|p| p.trait_name.clone()).collect();
        traits.sort();
        traits.dedup();
        let message = anchor.msg.map(|range| render_type(&ctx.tokens, range));
        let bound = anchor.msg.map(|range| {
            let mut visited = BTreeSet::new();
            bctx.type_bound(anchor.file_idx, range, None, name, &mut visited)
        });
        protocols.insert(
            name.clone(),
            ProtocolSurface {
                name: name.clone(),
                crate_name: ctx.crate_name.clone(),
                file: ctx.rel_path.clone(),
                line: anchor.line,
                traits,
                message,
                bound,
                model: None,
                declared_bits: None,
                rounds: None,
                hook: None,
            },
        );
    }

    // Fold declared budgets into the surface for the artifact.
    if let Some(manifest) = manifest {
        for (name, entry) in &manifest.entries {
            if let Some(p) = protocols.get_mut(name) {
                p.model = Some(entry.model.clone());
                p.declared_bits = entry.bits;
                p.rounds = Some(entry.rounds);
                p.hook = Some(entry.hook.clone());
            }
        }
    }

    let report = ModelsReport {
        protocols: protocols.values().cloned().collect(),
    };

    // No manifest file — the surface is informational only.
    let Some(manifest) = manifest else {
        return (Vec::new(), report);
    };

    let mut findings = Vec::new();

    // M3: coverage in both directions, crate agreement, hook existence.
    for p in protocols.values() {
        if !manifest.entries.contains_key(&p.name) {
            findings.push(mk_finding(
                "M3",
                &p.file,
                p.line,
                format!(
                    "protocol `{}` implements {} but has no [[protocol]] entry in {manifest_file}",
                    p.name,
                    p.traits.join("+"),
                ),
                None,
            ));
        }
    }
    let workspace_fns: BTreeSet<&str> = graph
        .nodes
        .iter()
        .filter(|n| !n.in_test)
        .map(|n| n.name.as_str())
        .collect();
    for (name, entry) in &manifest.entries {
        let Some(p) = protocols.get(name) else {
            let mut f = mk_finding(
                "M3",
                manifest_file,
                entry.line,
                format!("{manifest_file} entry `{name}` matches no shipping Node impl"),
                None,
            );
            f.severity = crate::rules::Severity::Warn;
            findings.push(f);
            continue;
        };
        if entry.crate_name != p.crate_name {
            findings.push(mk_finding(
                "M3",
                manifest_file,
                entry.line,
                format!(
                    "{manifest_file} entry `{name}` declares crate `{}` but the impl lives in `{}`",
                    entry.crate_name, p.crate_name,
                ),
                None,
            ));
        }
        if !workspace_fns.contains(entry.hook.as_str()) {
            findings.push(mk_finding(
                "M3",
                manifest_file,
                entry.line,
                format!(
                    "accounting hook `{}` named by {manifest_file} entry `{name}` is not a shipping workspace function",
                    entry.hook,
                ),
                None,
            ));
        }
    }

    // M1: declared message type and bit budget vs the computed bound.
    for (name, entry) in &manifest.entries {
        let Some(p) = protocols.get(name) else {
            continue;
        };
        match &p.message {
            None => findings.push(mk_finding(
                "M1",
                &p.file,
                p.line,
                format!("protocol `{name}` has no resolvable `type Msg` declaration"),
                None,
            )),
            Some(resolved) if *resolved != entry.message => findings.push(mk_finding(
                "M1",
                manifest_file,
                entry.line,
                format!(
                    "{manifest_file} declares message `{}` for `{name}` but the impl resolves `type Msg = {resolved}`",
                    entry.message,
                ),
                None,
            )),
            Some(_) => {}
        }
        if entry.model != "CONGEST" {
            continue;
        }
        let budget = entry.bits.unwrap_or(0);
        match &p.bound {
            Some(BitBound::Fixed(b)) if *b > budget => findings.push(mk_finding(
                "M1",
                &p.file,
                p.line,
                format!(
                    "CONGEST protocol `{name}` message `{}` needs {b} bits but {manifest_file} budgets {budget}",
                    p.message.as_deref().unwrap_or("?"),
                ),
                None,
            )),
            Some(BitBound::Fixed(b)) if budget > 2 * *b => {
                let mut f = mk_finding(
                    "M1",
                    manifest_file,
                    entry.line,
                    format!(
                        "declared budget {budget} bits for `{name}` is more than 2x the computed bound {b} — ratchet the declaration down",
                    ),
                    None,
                );
                f.severity = crate::rules::Severity::Warn;
                findings.push(f);
            }
            Some(BitBound::Fixed(_)) | None => {}
            Some(BitBound::Unbounded { chain, reason }) => findings.push(mk_finding(
                "M1",
                &p.file,
                p.line,
                format!(
                    "CONGEST protocol `{name}` has no provable message bound: {chain} — {reason}",
                ),
                Some(chain.clone()),
            )),
        }
    }

    // M2: handler purity — no handler reaches any effect sink.
    let mut per_effect: BTreeMap<&'static str, BTreeMap<usize, Sink>> = BTreeMap::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if n.in_test {
            continue;
        }
        let Some(body) = n.body else { continue };
        for (effect, sink) in effect_sites(&files[n.file_idx].0, body) {
            per_effect.entry(effect).or_default().insert(i, sink);
        }
    }
    for (&effect, sinks) in &per_effect {
        let dist = distances(graph, sinks);
        for (i, n) in graph.nodes.iter().enumerate() {
            if n.in_test || dist[i] == usize::MAX {
                continue;
            }
            let Some(self_ty) = n.self_ty.as_deref() else {
                continue;
            };
            if !protocols.contains_key(self_ty) || !HANDLERS.contains(&n.name.as_str()) {
                continue;
            }
            let (via, sink_idx) = chain(graph, &dist, i);
            findings.push(mk_finding(
                "M2",
                &n.file,
                n.line,
                format!(
                    "protocol `{self_ty}` handler `{}` reaches effect `{effect}` (sink {}): round handlers must be pure functions of state + inbox + seeded RNG",
                    n.name, sinks[&sink_idx].label,
                ),
                Some(via),
            ));
        }
    }

    (findings, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parses_and_validates() {
        let m = parse_models(
            "# models\n[[protocol]]\nname = \"FloodNode\"\ncrate = \"netgraph\"\n\
             model = \"CONGEST\"\nmessage = \"(u32, f64)\"\nbits = 96\nrounds = 512\n\
             hook = \"run_flood_sum\"\n",
        )
        .expect("parses");
        let e = &m.entries["FloodNode"];
        assert_eq!(e.model, "CONGEST");
        assert_eq!(e.bits, Some(96));
        assert_eq!(e.rounds, 512);
        assert_eq!(e.hook, "run_flood_sum");
    }

    #[test]
    fn congest_without_bits_is_rejected() {
        let err = parse_models(
            "[[protocol]]\nname = \"X\"\ncrate = \"c\"\nmodel = \"CONGEST\"\n\
             message = \"u32\"\nrounds = 8\nhook = \"h\"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("missing `bits`"), "{}", err.message);
    }

    #[test]
    fn unknown_model_class_and_duplicate_are_rejected() {
        assert!(parse_models("[[protocol]]\nname = \"X\"\nmodel = \"PN\"\n")
            .unwrap_err()
            .message
            .contains("unknown model class"));
        let two = "[[protocol]]\nname = \"X\"\ncrate = \"c\"\nmodel = \"LOCAL\"\n\
                   message = \"u32\"\nrounds = 8\nhook = \"h\"\n"
            .repeat(2);
        assert!(parse_models(&two)
            .unwrap_err()
            .message
            .contains("duplicate"));
    }

    #[test]
    fn int_literals_parse_with_separators_and_suffixes() {
        assert_eq!(int_literal("16"), Some(16));
        assert_eq!(int_literal("1_024"), Some(1024));
        assert_eq!(int_literal("16usize"), Some(16));
        assert_eq!(int_literal("abc"), None);
    }

    #[test]
    fn render_is_canonical() {
        let ctx = FileCtx::new("crates/x/src/lib.rs", "type T = (u32 ,  f64);");
        let eq = ctx.tokens.iter().position(|t| t.is_punct("=")).unwrap();
        let semi = ctx.tokens.iter().position(|t| t.is_punct(";")).unwrap();
        assert_eq!(render_type(&ctx.tokens, (eq + 1, semi)), "(u32, f64)");
    }
}
