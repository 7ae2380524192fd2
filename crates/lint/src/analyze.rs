//! Per-file rule engine: runs the determinism rules over a token
//! stream, applies `decent-lint: allow(...)` pragmas, and reports
//! pragmas that suppressed nothing.
//!
//! Since PR 10 the engine is scope-aware: every file first gets a
//! [`ScopeTree`] (brace-matched fn/impl/mod/block regions) and a
//! [`SymbolTable`] (per-scope `use`-tree and `type` aliases), and rules
//! match *canonical* names through [`SymbolTable::canonical_last`] —
//! so `use std::collections::HashMap as FastMap;` no longer evades
//! D001, and a function-local alias shadows a file-level one exactly as
//! rustc resolves it.

use std::collections::BTreeSet;

use crate::lex::{lex, Tok, TokKind};
use crate::rules::{Finding, Rule};
use crate::scope::{ScopeKind, ScopeTree};
use crate::symbols::SymbolTable;

/// Iteration methods on `HashMap`/`HashSet` whose visit order is the
/// hasher's (D001 trigger set). `retain` returns nothing, so no chain
/// can prove it order-insensitive: its closure may write captured state.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Commutative / order-insensitive chain terminators: an iteration that
/// ends in one of these produces the same value under any visit order.
const ORDER_INSENSITIVE: &[&str] = &[
    "count",
    "sum",
    "product",
    "min",
    "max",
    "all",
    "any",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
];

/// Order-preserving adapters the chain scanner may look through on its
/// way to a terminator. Deliberately conservative: anything not listed
/// here (e.g. `take`, `fold`, `for_each`, `enumerate`) ends the scan
/// and the site is reported.
const NEUTRAL_ADAPTERS: &[&str] = &[
    "filter",
    "map",
    "flat_map",
    "flatten",
    "cloned",
    "copied",
    "filter_map",
    "inspect",
];

/// Atomic RMW methods whose result depends on operation order (D007):
/// last-writer-wins or read-modify-write shapes the window-barrier
/// merge protocol cannot linearize.
const ATOMIC_NONCOMMUTATIVE: &[&str] = &[
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
];

/// Commutative atomic RMWs: tolerated as merge-only counters, but only
/// under a pragma documenting that the value is read exclusively after
/// the window barrier (D007's checked-annotation half).
const ATOMIC_COMMUTATIVE: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
];

/// Memory orderings that advertise cross-thread happens-before edges
/// the merge protocol neither needs nor honours (D007).
const STRONG_ORDERINGS: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst"];

/// Blocking synchronization primitives banned from sim-facing code
/// (D010); matched on the canonical final path segment so `use
/// std::sync::Mutex as Lock;` still trips the rule.
const BLOCKING_SYNC: &[&str] = &["Mutex", "RwLock", "Condvar", "mpsc"];

/// Keyed unstable sorts whose output permutation is unspecified under
/// key ties (D009). Plain `sort_unstable()` is exempt: equal elements
/// are indistinguishable, so every permutation serializes identically.
const UNSTABLE_KEYED_SORTS: &[&str] = &["sort_unstable_by", "sort_unstable_by_key"];

/// Crates whose code feeds simulations (D001/D004/D006–D010 apply).
/// Everything in the workspace gets D002/D003/D005.
pub const SIM_FACING_CRATES: &[&str] = &[
    "decent-sim",
    "decent-overlay",
    "decent-chain",
    "decent-bft",
    "decent-edge",
    "decent-core",
    "decent-net",
];

/// Files that legitimately touch wall-clock time, OS entropy, threads
/// and real synchronization: the TCP backend (DESIGN.md §4h).
/// D002/D003 and the shared-state rules D007/D010 are skipped here —
/// and ONLY here — so the rest of `decent-net` stays fully enforced
/// while `tcp.rs` can use `Instant`, sockets, channels and locks. Paths
/// are workspace-relative and must be listed file-by-file; no globs, so
/// the allowlist cannot silently grow.
pub const REAL_TIME_PATHS: &[&str] = &["crates/net/src/tcp.rs"];

/// A parsed suppression pragma.
#[derive(Debug)]
struct Pragma {
    /// Line of the pragma comment itself.
    line: u32,
    /// Line whose findings it suppresses.
    covers: u32,
    /// Rules it allows.
    rules: Vec<Rule>,
    /// How many findings it suppressed.
    uses: usize,
}

/// One canonical path use-site: the leading identifier (resolved
/// through the symbol table when a binding is visible) plus any
/// `::segment` continuation, e.g. `Clock::now` under
/// `use std::time::Instant as Clock;` yields
/// `["std", "time", "Instant", "now"]`.
struct PathUse {
    line: u32,
    raw_first: String,
    resolved: bool,
    segs: Vec<String>,
}

impl PathUse {
    /// `" (via `alias`)"` when the site only matched through symbol
    /// resolution, empty otherwise — so findings name the canonical
    /// item while still pointing at what the file actually wrote.
    fn note(&self) -> String {
        if self.resolved && !self.segs.contains(&self.raw_first) {
            format!(" (via `{}`)", self.raw_first)
        } else {
            String::new()
        }
    }
}

/// Analyzes one file's source. `file` is used verbatim in findings;
/// `sim_facing` switches on D001/D004/D006–D010 in addition to
/// D002/D003/D005.
pub fn analyze_source(file: &str, src: &str, sim_facing: bool) -> Vec<Finding> {
    analyze_source_with_stats(file, src, sim_facing).0
}

/// Like [`analyze_source`], but also reports how many pragmas in the
/// file suppressed at least one finding (for the summary tail).
pub fn analyze_source_with_stats(file: &str, src: &str, sim_facing: bool) -> (Vec<Finding>, usize) {
    let toks = lex(src);
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();

    let mut findings: BTreeSet<(u32, Rule, String)> = BTreeSet::new();
    let (mut pragmas, malformed) = parse_pragmas(&toks, &code);
    for (line, msg) in malformed {
        findings.insert((line, Rule::P001, msg));
    }

    let scopes = ScopeTree::build(&code);
    let symbols = SymbolTable::build(&code, &scopes);
    let paths = collect_paths(&code, &symbols);

    let real_time = REAL_TIME_PATHS.contains(&file);
    if !real_time {
        scan_wall_clock(&paths, &mut findings);
        scan_randomness(&code, &paths, &mut findings);
    }
    scan_unsafe(&code, &mut findings);
    if sim_facing {
        let names = collect_hash_names(&code, &symbols, &scopes);
        scan_hash_iteration(&code, &symbols, &names, &mut findings);
        scan_ambient_env(&paths, &mut findings);
        scan_rc(&code, &symbols, &paths, &mut findings);
        scan_float_cmp(&code, &mut findings);
        scan_unstable_sort(&code, &mut findings);
        if !real_time {
            scan_atomics(&code, &symbols, &mut findings);
            scan_blocking_sync(&code, &symbols, &mut findings);
        }
    }

    // Apply pragmas: a finding survives only if no pragma covering its
    // line allows its rule. Pragma meta-findings (P000/P001) are never
    // suppressible.
    let mut out = Vec::new();
    'finding: for (line, rule, message) in findings {
        if !matches!(rule, Rule::P000 | Rule::P001) {
            for p in pragmas.iter_mut() {
                if p.covers == line && p.rules.contains(&rule) {
                    p.uses += 1;
                    continue 'finding;
                }
            }
        }
        out.push(Finding {
            file: file.to_string(),
            line,
            rule,
            message,
        });
    }
    for p in &pragmas {
        if p.uses == 0 {
            let rules: Vec<&str> = p.rules.iter().map(|r| r.code()).collect();
            out.push(Finding {
                file: file.to_string(),
                line: p.line,
                rule: Rule::P000,
                message: format!(
                    "pragma allow({}) suppressed nothing; remove it",
                    rules.join(",")
                ),
            });
        }
    }
    out.sort_by_key(Finding::sort_key);
    let used = pragmas.iter().filter(|p| p.uses > 0).count();
    (out, used)
}

/// Extracts `decent-lint: allow(Dxxx[,Dyyy]) reason="..."` pragmas from
/// line comments. Returns the well-formed pragmas and `(line, message)`
/// pairs for malformed ones.
fn parse_pragmas(toks: &[Tok], code: &[&Tok]) -> (Vec<Pragma>, Vec<(u32, String)>) {
    const MARKER: &str = "decent-lint:";
    let mut pragmas = Vec::new();
    let mut malformed = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        // Only a plain `// decent-lint: ...` comment is a pragma. Doc
        // comments (`///`, `//!`) merely *describing* the grammar — as
        // this crate's own documentation does — are not.
        let body = t.text.strip_prefix("//").unwrap_or(&t.text);
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let Some(rest) = body.trim_start().strip_prefix(MARKER) else {
            continue;
        };
        let rest = rest.trim();
        match parse_pragma_body(rest) {
            Ok(rules) => {
                // A pragma sharing its line with code covers that line;
                // a standalone pragma covers the next code line.
                let covers = if code.iter().any(|c| c.line == t.line) {
                    t.line
                } else {
                    code.iter()
                        .map(|c| c.line)
                        .find(|&l| l > t.line)
                        .unwrap_or(t.line)
                };
                pragmas.push(Pragma {
                    line: t.line,
                    covers,
                    rules,
                    uses: 0,
                });
            }
            Err(why) => malformed.push((t.line, why)),
        }
    }
    (pragmas, malformed)
}

/// Parses the pragma body after the `decent-lint:` marker.
fn parse_pragma_body(body: &str) -> Result<Vec<Rule>, String> {
    let body = body.trim();
    let inner = body
        .strip_prefix("allow(")
        .ok_or_else(|| format!("expected `allow(...)`, got `{body}`"))?;
    let close = inner
        .find(')')
        .ok_or_else(|| "unclosed `allow(`".to_string())?;
    let mut rules = Vec::new();
    for id in inner[..close].split(',') {
        let id = id.trim();
        let rule = Rule::parse_allowable(id)
            .ok_or_else(|| format!("unknown or non-allowable rule id `{id}`"))?;
        rules.push(rule);
    }
    if rules.is_empty() {
        return Err("empty rule list".to_string());
    }
    let after = inner[close + 1..].trim();
    let reason = after
        .strip_prefix("reason=")
        .ok_or_else(|| "missing `reason=\"...\"`".to_string())?
        .trim();
    let quoted = reason.len() >= 2 && reason.starts_with('"') && reason.ends_with('"');
    if !quoted || reason.len() == 2 {
        return Err("reason must be a non-empty quoted string".to_string());
    }
    Ok(rules)
}

/// Collects every canonical multi-segment path use-site: each leading
/// identifier (one not preceded by `::` or `.`) is resolved through the
/// symbol table, then extended with the literal `::segment` tail that
/// follows it in the source.
fn collect_paths(code: &[&Tok], symbols: &SymbolTable) -> Vec<PathUse> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if i > 0 && (code[i - 1].is_punct("::") || code[i - 1].is_punct(".")) {
            continue; // mid-path segment or method/field name
        }
        let (resolved, mut segs) = match symbols.resolve(&t.text, i) {
            Some(s) => (true, s.to_vec()),
            None => (false, vec![t.text.clone()]),
        };
        let mut j = i + 1;
        while matches!(code.get(j), Some(p) if p.is_punct("::"))
            && matches!(code.get(j + 1), Some(n) if n.kind == TokKind::Ident)
        {
            segs.push(code[j + 1].text.clone());
            j += 2;
        }
        if segs.len() >= 2 {
            out.push(PathUse {
                line: t.line,
                raw_first: t.text.clone(),
                resolved,
                segs,
            });
        }
    }
    out
}

/// D002: `Instant::now` and member access on `SystemTime`, matched on
/// canonical paths so renamed imports still trip the rule.
fn scan_wall_clock(paths: &[PathUse], findings: &mut BTreeSet<(u32, Rule, String)>) {
    for p in paths {
        for w in p.segs.windows(2) {
            if w[0] == "Instant" && w[1] == "now" {
                findings.insert((p.line, Rule::D002, format!("`Instant::now()`{}", p.note())));
            }
            if w[0] == "SystemTime" {
                findings.insert((
                    p.line,
                    Rule::D002,
                    format!("`SystemTime::{}`{}", w[1], p.note()),
                ));
            }
        }
    }
}

/// D003: `thread_rng`, `from_entropy`, `rand::random` — raw tokens plus
/// canonical paths (so `use rand::thread_rng as tr;` is still caught).
fn scan_randomness(code: &[&Tok], paths: &[PathUse], findings: &mut BTreeSet<(u32, Rule, String)>) {
    for t in code {
        if t.is_ident("thread_rng") {
            findings.insert((t.line, Rule::D003, "`thread_rng`".to_string()));
        }
        if t.is_ident("from_entropy") {
            findings.insert((t.line, Rule::D003, "`from_entropy`".to_string()));
        }
    }
    for p in paths {
        for name in ["thread_rng", "from_entropy"] {
            if p.segs.iter().any(|s| s == name) {
                findings.insert((p.line, Rule::D003, format!("`{name}`{}", p.note())));
            }
        }
        if p.segs
            .windows(2)
            .any(|w| w[0] == "rand" && w[1] == "random")
        {
            findings.insert((p.line, Rule::D003, format!("`rand::random`{}", p.note())));
        }
    }
}

/// D006: `std::rc::Rc` in a sim-facing crate. Flags the `std::rc`
/// canonical path (imports and fully-qualified uses) plus any
/// identifier *resolving* to `Rc` in constructor (`Rc::...`) or type
/// (`Rc<...>`) position. `Arc` is a distinct identifier and never
/// matches.
fn scan_rc(
    code: &[&Tok],
    symbols: &SymbolTable,
    paths: &[PathUse],
    findings: &mut BTreeSet<(u32, Rule, String)>,
) {
    for p in paths {
        // Only paths *written* through std::rc (imports, fully
        // qualified uses): sites that merely resolve there are already
        // reported once by the canonical `Rc` check below.
        if !p.resolved && p.segs.windows(2).any(|w| w[0] == "std" && w[1] == "rc") {
            findings.insert((p.line, Rule::D006, "`std::rc`".to_string()));
        }
    }
    for i in 0..code.len() {
        if code[i].kind != TokKind::Ident || symbols.canonical_last(code[i], i) != "Rc" {
            continue;
        }
        let note = if code[i].text != "Rc" {
            format!(" (via `{}`)", code[i].text)
        } else {
            String::new()
        };
        match code.get(i + 1) {
            Some(t) if t.is_punct("::") => {
                let member = code.get(i + 2).map(|t| t.text.clone()).unwrap_or_default();
                findings.insert((code[i].line, Rule::D006, format!("`Rc::{member}`{note}")));
            }
            Some(t) if t.is_punct("<") => {
                findings.insert((code[i].line, Rule::D006, format!("`Rc<...>`{note}")));
            }
            _ => {}
        }
    }
}

/// D005: any `unsafe` keyword.
fn scan_unsafe(code: &[&Tok], findings: &mut BTreeSet<(u32, Rule, String)>) {
    for t in code {
        if t.is_ident("unsafe") {
            findings.insert((t.line, Rule::D005, "`unsafe`".to_string()));
        }
    }
}

/// D004: any canonical path through `std::env` — which covers direct
/// `std::env::var` uses, `use std::env;` imports, and member calls on
/// any alias of the module (`env::var`, `environ::var`, ...).
fn scan_ambient_env(paths: &[PathUse], findings: &mut BTreeSet<(u32, Rule, String)>) {
    for p in paths {
        if p.segs.windows(2).any(|w| w[0] == "std" && w[1] == "env") {
            findings.insert((p.line, Rule::D004, format!("`std::env`{}", p.note())));
        }
    }
}

/// D007: shared-atomic mutation. Flags (a) non-commutative atomic
/// methods, (b) commutative RMWs without distinguishing — both carry an
/// `Ordering` argument, which is what disambiguates them from
/// `slice::swap` and friends — and (c) `Ordering::{Acquire, Release,
/// AcqRel, SeqCst}` paths, which advertise cross-thread happens-before
/// edges the window-barrier merge protocol does not honour.
fn scan_atomics(
    code: &[&Tok],
    symbols: &SymbolTable,
    findings: &mut BTreeSet<(u32, Rule, String)>,
) {
    for i in 0..code.len() {
        if !code[i].is_punct(".") {
            continue;
        }
        let Some(m) = code.get(i + 1) else { continue };
        if m.kind != TokKind::Ident {
            continue;
        }
        let name = m.text.as_str();
        let noncomm = ATOMIC_NONCOMMUTATIVE.contains(&name);
        if !noncomm && !ATOMIC_COMMUTATIVE.contains(&name) {
            continue;
        }
        let (after_tf, _) = skip_turbofish(code, i + 2);
        if !matches!(code.get(after_tf), Some(t) if t.is_punct("(")) {
            continue;
        }
        let end = skip_parens(code, after_tf);
        // An atomic call always names a memory ordering; `slice.swap(i, j)`
        // and other same-named methods never do.
        let has_ordering = (after_tf..end.min(code.len())).any(|k| {
            let c = symbols.canonical_last(code[k], k);
            c == "Ordering" || c == "Relaxed" || STRONG_ORDERINGS.contains(&c)
        });
        if !has_ordering {
            continue;
        }
        let msg = if noncomm {
            format!("non-commutative atomic `.{name}(..)`")
        } else {
            format!("merge-only counter `.{name}(..)` requires a documented pragma")
        };
        findings.insert((m.line, Rule::D007, msg));
    }
    for i in 0..code.len() {
        if code[i].kind != TokKind::Ident || symbols.canonical_last(code[i], i) != "Ordering" {
            continue;
        }
        if !matches!(code.get(i + 1), Some(t) if t.is_punct("::")) {
            continue;
        }
        let Some(v) = code.get(i + 2) else { continue };
        if STRONG_ORDERINGS.contains(&v.text.as_str()) {
            findings.insert((
                code[i].line,
                Rule::D007,
                format!(
                    "`Ordering::{}` (only `Relaxed` is merge-compatible)",
                    v.text
                ),
            ));
        }
    }
}

/// D008: `.partial_cmp(..)` in call position. Float `PartialOrd` is not
/// a total order, so comparators built on it can panic (NaN) or hand
/// the sort an inconsistent ordering; `total_cmp` is required. `fn
/// partial_cmp` *definitions* are not call sites and do not match.
fn scan_float_cmp(code: &[&Tok], findings: &mut BTreeSet<(u32, Rule, String)>) {
    for i in 0..code.len() {
        if code[i].is_punct(".")
            && matches!(code.get(i + 1), Some(t) if t.is_ident("partial_cmp"))
            && matches!(code.get(i + 2), Some(t) if t.is_punct("("))
        {
            findings.insert((
                code[i + 1].line,
                Rule::D008,
                "`.partial_cmp(..)` is not a total order; use `total_cmp`".to_string(),
            ));
        }
    }
}

/// D009: keyed unstable sorts. The output permutation is unspecified
/// whenever the key ties distinct elements, so each site must carry a
/// pragma arguing the key is injective over the slice (or switch to the
/// stable sort). Plain `sort_unstable()` is exempt — see
/// [`UNSTABLE_KEYED_SORTS`].
fn scan_unstable_sort(code: &[&Tok], findings: &mut BTreeSet<(u32, Rule, String)>) {
    for i in 0..code.len() {
        if !code[i].is_punct(".") {
            continue;
        }
        let Some(m) = code.get(i + 1) else { continue };
        if !UNSTABLE_KEYED_SORTS.contains(&m.text.as_str()) {
            continue;
        }
        if !matches!(code.get(i + 2), Some(t) if t.is_punct("(")) {
            continue;
        }
        findings.insert((
            m.line,
            Rule::D009,
            format!(
                "`.{}(..)` requires a pragma-documented injective key",
                m.text
            ),
        ));
    }
}

/// D010: blocking synchronization primitives, matched on the canonical
/// final path segment (so `use std::sync::Mutex as Lock;` still trips).
/// One finding per line per primitive: the import line and every use
/// site each need a pragma or a redesign.
fn scan_blocking_sync(
    code: &[&Tok],
    symbols: &SymbolTable,
    findings: &mut BTreeSet<(u32, Rule, String)>,
) {
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let c = symbols.canonical_last(tok, i);
        if !BLOCKING_SYNC.contains(&c) {
            continue;
        }
        let msg = if tok.text == c {
            format!("`{c}`")
        } else {
            format!("`{c}` (via `{}`)", tok.text)
        };
        findings.insert((tok.line, Rule::D010, msg));
    }
}

/// A tracked hash-collection name and the code-token span in which it
/// is visible.
struct NameSpan {
    name: String,
    start: usize,
    end: usize,
}

/// Whether a tracked name is visible at code index `idx`.
fn name_visible(names: &[NameSpan], text: &str, idx: usize) -> bool {
    names
        .iter()
        .any(|n| n.name == text && n.start <= idx && idx < n.end)
}

/// The span of the innermost enclosing `fn` scope at `idx`, or the
/// whole file when the declaration is an item (struct field, static,
/// fn param in the header before the body's `{`) — those stay visible
/// file-wide, since methods elsewhere access them through `self`.
fn enclosing_fn_span(scopes: &ScopeTree, idx: usize) -> (usize, usize) {
    let mut id = scopes.innermost(idx);
    loop {
        let s = scopes.scopes()[id];
        if s.kind == ScopeKind::Fn {
            return (s.open, s.close);
        }
        if id == 0 {
            return (0, usize::MAX);
        }
        id = s.parent;
    }
}

/// Names (fields, locals, params) declared with a `HashMap`/`HashSet`
/// type annotation or initialized from a `HashMap`/`HashSet`
/// constructor — where the type name is matched through symbol
/// resolution, so `FastMap<..>` under a rename and `type T = HashMap<..>`
/// aliases register too. Function-local declarations are visible only
/// inside their enclosing `fn`; item-level ones (fields, statics)
/// file-wide. Still coarse — no per-block shadowing — but suppressions
/// exist precisely for the cases a file-local analysis cannot prove.
fn collect_hash_names(code: &[&Tok], symbols: &SymbolTable, scopes: &ScopeTree) -> Vec<NameSpan> {
    let mut names: Vec<NameSpan> = Vec::new();
    for i in 0..code.len() {
        if code[i].kind != TokKind::Ident {
            continue;
        }
        let canon = symbols.canonical_last(code[i], i);
        if canon != "HashMap" && canon != "HashSet" {
            continue;
        }
        let next = code.get(i + 1);
        let in_type_position = matches!(next, Some(t) if t.is_punct("<"));
        let in_ctor_position = matches!(next, Some(t) if t.is_punct("::"))
            && matches!(
                code.get(i + 2),
                Some(t) if ["new", "with_capacity", "default", "from", "from_iter"]
                    .contains(&t.text.as_str())
            );
        if !in_type_position && !in_ctor_position {
            continue; // imports, turbofish targets, bare mentions
        }
        // Walk back over a `std::collections::` style path prefix.
        let mut j = i;
        while j >= 2 && code[j - 1].is_punct("::") && code[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        match &code[j - 1] {
            // `name: HashMap<...>` (field/param/let annotation) or
            // `name: HashMap::new()` (struct literal init).
            t if t.is_punct(":") || t.is_punct("&") => {
                let mut k = j - 1;
                // Skip reference/mut/lifetime noise between `:` and the type.
                while k > 0
                    && (code[k].is_punct("&")
                        || code[k].is_ident("mut")
                        || code[k].kind == TokKind::Lifetime)
                {
                    k -= 1;
                }
                if k > 0 && code[k].is_punct(":") && code[k - 1].kind == TokKind::Ident {
                    let (start, end) = enclosing_fn_span(scopes, i);
                    names.push(NameSpan {
                        name: code[k - 1].text.clone(),
                        start,
                        end,
                    });
                }
            }
            // `name = HashMap::new()` / `let mut name = HashMap::new()`.
            t if t.is_punct("=") && j >= 2 && code[j - 2].kind == TokKind::Ident => {
                let cand = &code[j - 2].text;
                if cand != "let" && cand != "mut" {
                    let (start, end) = enclosing_fn_span(scopes, i);
                    names.push(NameSpan {
                        name: cand.clone(),
                        start,
                        end,
                    });
                }
            }
            _ => {}
        }
    }
    names
}

/// Skips an optional `::<...>` turbofish starting at `i`, returning the
/// index after it (or `i` unchanged) and the code indices of the idents
/// seen inside (for resolution by the caller).
fn skip_turbofish(code: &[&Tok], i: usize) -> (usize, Vec<usize>) {
    if !(matches!(code.get(i), Some(t) if t.is_punct("::"))
        && matches!(code.get(i + 1), Some(t) if t.is_punct("<")))
    {
        return (i, Vec::new());
    }
    let mut depth = 0i32;
    let mut idents = Vec::new();
    let mut j = i + 1;
    while j < code.len() {
        match &code[j] {
            t if t.is_punct("<") => depth += 1,
            t if t.is_punct(">") => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, idents);
                }
            }
            t if t.kind == TokKind::Ident => idents.push(j),
            _ => {}
        }
        j += 1;
    }
    (j, idents)
}

/// Skips a balanced `( ... )` group starting at `i` (which must be the
/// opening paren), returning the index after the closing paren.
fn skip_parens(code: &[&Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < code.len() {
        if code[j].is_punct("(") {
            depth += 1;
        } else if code[j].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Outcome of scanning a method chain forward from an iteration site.
enum ChainVerdict {
    /// Ends in a commutative terminator or a sorted collect.
    OrderSafe,
    /// Order can escape (or cannot be proven not to).
    Unproven,
}

/// Scans the `.method(...)` chain starting at `i` (the token right
/// after the iteration call's closing paren).
fn scan_chain(code: &[&Tok], symbols: &SymbolTable, mut i: usize) -> ChainVerdict {
    loop {
        if !matches!(code.get(i), Some(t) if t.is_punct(".")) {
            return ChainVerdict::Unproven; // chain ends without proof
        }
        let Some(m) = code.get(i + 1) else {
            return ChainVerdict::Unproven;
        };
        if m.kind != TokKind::Ident {
            return ChainVerdict::Unproven;
        }
        let name = m.text.clone();
        let (after_tf, tf_idents) = skip_turbofish(code, i + 2);
        if !matches!(code.get(after_tf), Some(t) if t.is_punct("(")) {
            return ChainVerdict::Unproven; // field access etc.
        }
        let after_call = skip_parens(code, after_tf);
        if ORDER_INSENSITIVE.contains(&name.as_str()) {
            return ChainVerdict::OrderSafe;
        }
        if name == "collect" {
            // Resolve turbofish targets so `collect::<Sorted<..>>()`
            // under `type Sorted = BTreeMap<..>` counts as sorted (and
            // a renamed HashMap does not).
            let sorted = tf_idents.iter().any(|&ix| {
                let c = symbols.canonical_last(code[ix], ix);
                c == "BTreeMap" || c == "BTreeSet"
            });
            return if sorted {
                ChainVerdict::OrderSafe
            } else {
                ChainVerdict::Unproven
            };
        }
        if NEUTRAL_ADAPTERS.contains(&name.as_str()) {
            i = after_call;
            continue;
        }
        return ChainVerdict::Unproven;
    }
}

/// D001: iteration over hash-ordered collections.
fn scan_hash_iteration(
    code: &[&Tok],
    symbols: &SymbolTable,
    names: &[NameSpan],
    findings: &mut BTreeSet<(u32, Rule, String)>,
) {
    // Method-call sites: `name.iter()...`, `self.name.keys()...`.
    for i in 0..code.len() {
        if code[i].kind != TokKind::Ident || !name_visible(names, &code[i].text, i) {
            continue;
        }
        if !matches!(code.get(i + 1), Some(t) if t.is_punct(".")) {
            continue;
        }
        let Some(m) = code.get(i + 2) else { continue };
        if !ITER_METHODS.contains(&m.text.as_str()) {
            continue;
        }
        let (after_tf, _) = skip_turbofish(code, i + 3);
        if !matches!(code.get(after_tf), Some(t) if t.is_punct("(")) {
            continue; // e.g. a field named `keys`
        }
        let after_call = skip_parens(code, after_tf);
        if let ChainVerdict::Unproven = scan_chain(code, symbols, after_call) {
            findings.insert((
                code[i].line,
                Rule::D001,
                format!(
                    "`{}.{}()` iterates a hash-ordered collection",
                    code[i].text, m.text
                ),
            ));
        }
    }
    // Bare `for x in [&] name {` headers (no method call to anchor on).
    for i in 0..code.len() {
        if !code[i].is_ident("for") {
            continue;
        }
        // Find the `in` keyword, then scan the iterable expression up
        // to the loop body's `{` at nesting depth zero.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut in_at = None;
        while j < code.len() && j < i + 64 {
            match &code[j] {
                t if t.is_punct("(") || t.is_punct("[") => depth += 1,
                t if t.is_punct(")") || t.is_punct("]") => depth -= 1,
                t if depth == 0 && t.is_ident("in") => {
                    in_at = Some(j);
                    break;
                }
                t if depth == 0 && (t.is_punct("{") || t.is_punct(";")) => break,
                _ => {}
            }
            j += 1;
        }
        let Some(start) = in_at else { continue };
        let mut k = start + 1;
        let mut depth = 0i32;
        while k < code.len() {
            match &code[k] {
                t if t.is_punct("(") || t.is_punct("[") => depth += 1,
                t if t.is_punct(")") || t.is_punct("]") => depth -= 1,
                t if depth == 0 && t.is_punct("{") => break,
                t if t.kind == TokKind::Ident && name_visible(names, &t.text, k) => {
                    // A name followed by `.` is handled by the
                    // method-site scanner; `::` means it is a path
                    // segment, not the collection.
                    let followed = code.get(k + 1);
                    let is_bare = !matches!(
                        followed,
                        Some(n) if n.is_punct(".") || n.is_punct("::") || n.is_punct("(")
                    );
                    if is_bare {
                        findings.insert((
                            t.line,
                            Rule::D001,
                            format!("`for` over hash-ordered collection `{}`", t.text),
                        ));
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(src: &str, sim: bool) -> Vec<(u32, &'static str)> {
        analyze_source("t.rs", src, sim)
            .into_iter()
            .map(|f| (f.line, f.rule.code()))
            .collect()
    }

    #[test]
    fn order_insensitive_chains_pass() {
        let src = "struct S { m: HashMap<u64, u32> }\n\
                   impl S {\n\
                   fn a(&self) -> usize { self.m.values().filter(|v| **v > 0).count() }\n\
                   fn b(&self) -> u64 { self.m.keys().copied().sum::<u64>() }\n\
                   fn c(&self) -> bool { self.m.values().any(|v| *v == 0) }\n\
                   fn d(&self) -> Vec<u64> { self.m.keys().copied().collect::<BTreeSet<u64>>().into_iter().collect() }\n\
                   }";
        assert_eq!(rules_at(src, true), vec![]);
    }

    #[test]
    fn unproven_chains_and_bare_for_are_flagged() {
        let src = "struct S { m: HashMap<u64, u32> }\n\
                   impl S {\n\
                   fn a(&self) -> Vec<u64> { self.m.keys().copied().collect() }\n\
                   fn b(&self) { for (_k, _v) in &self.m {} }\n\
                   fn c(&mut self) { let _v: Vec<_> = self.m.drain().collect(); }\n\
                   }";
        assert_eq!(
            rules_at(src, true),
            vec![(3, "D001"), (4, "D001"), (5, "D001")]
        );
    }

    #[test]
    fn point_lookups_stay_legal() {
        let src = "struct S { m: HashMap<u64, u32>, s: HashSet<u64> }\n\
                   impl S {\n\
                   fn a(&self) -> bool { self.s.contains(&1) && self.m.contains_key(&2) }\n\
                   fn b(&self) -> usize { self.m.len() + self.s.len() }\n\
                   fn c(&mut self) { self.m.insert(1, 2); self.m.remove(&1); }\n\
                   }";
        assert_eq!(rules_at(src, true), vec![]);
    }

    #[test]
    fn sim_only_rules_are_off_elsewhere() {
        let src = "fn f(m: &HashMap<u64, u32>) { for _ in m {} let _ = std::env::var(\"X\"); }";
        assert_eq!(rules_at(src, false), vec![]);
        assert_eq!(rules_at(src, true), vec![(1, "D001"), (1, "D004")]);
    }

    #[test]
    fn wall_clock_and_randomness_always_apply() {
        let src = "fn f() { let _t = Instant::now(); let _r = thread_rng(); }";
        assert_eq!(rules_at(src, false), vec![(1, "D002"), (1, "D003")]);
    }

    #[test]
    fn import_aliases_do_not_evade_the_rules() {
        let src = "use std::collections::HashMap as FastMap;\n\
                   use std::rc::Rc as Shared;\n\
                   use std::time::Instant as Clock;\n\
                   fn f() {\n\
                   let m: FastMap<u64, u32> = FastMap::new();\n\
                   let _keys: Vec<u64> = m.keys().copied().collect();\n\
                   let _p = Shared::new(1u64);\n\
                   let _t = Clock::now();\n\
                   }";
        assert_eq!(
            rules_at(src, true),
            vec![(2, "D006"), (6, "D001"), (7, "D006"), (8, "D002")]
        );
        // The messages name the canonical item and the alias used.
        let findings = analyze_source("t.rs", src, true);
        assert!(findings
            .iter()
            .any(|f| f.message == "`Rc::new` (via `Shared`)"));
        assert!(findings
            .iter()
            .any(|f| f.message == "`Instant::now()` (via `Clock`)"));
    }

    #[test]
    fn fn_local_alias_expires_with_its_scope() {
        let src = "fn f() {\n\
                   use std::collections::HashMap as M;\n\
                   let m: M<u64, u32> = M::new();\n\
                   for _ in m.keys() {}\n\
                   }\n\
                   fn g() {\n\
                   let m: M<u64, u32> = M::new();\n\
                   for _ in m.keys() {}\n\
                   }";
        // Inside f the alias resolves to HashMap (flagged); in g the
        // name M is unbound, so nothing registers.
        assert_eq!(rules_at(src, true), vec![(4, "D001")]);
    }

    #[test]
    fn real_time_allowlist_skips_clock_entropy_and_shared_state_rules() {
        // The TCP backend file may use Instant, OS entropy, channels,
        // locks and SeqCst atomics, but every other rule (here: D005)
        // still applies to it.
        let src = "fn f(a: &AtomicU64, m: &Mutex<u32>) {\n\
                   let _t = Instant::now();\n\
                   let _r = thread_rng();\n\
                   a.store(1, Ordering::SeqCst);\n\
                   let _g = m.lock();\n\
                   unsafe { g(); }\n\
                   }";
        let allowed: Vec<(u32, &str)> = analyze_source("crates/net/src/tcp.rs", src, true)
            .into_iter()
            .map(|f| (f.line, f.rule.code()))
            .collect();
        assert_eq!(allowed, vec![(6, "D005")]);
        // The same source under any other sim-facing path keeps the
        // clock, entropy and shared-state rules.
        let elsewhere: Vec<&str> = analyze_source("crates/net/src/sim.rs", src, true)
            .into_iter()
            .map(|f| f.rule.code())
            .collect();
        for code in ["D002", "D003", "D005", "D007", "D010"] {
            assert!(elsewhere.contains(&code), "missing {code}: {elsewhere:?}");
        }
    }

    #[test]
    fn atomics_need_ordering_evidence_to_match() {
        // slice::swap has no Ordering argument and must not trip D007.
        let src = "fn f(v: &mut Vec<u32>) { v.swap(0, 1); }";
        assert_eq!(rules_at(src, true), vec![]);
        let src = "fn g(a: &AtomicU64) {\n\
                   a.store(1, Ordering::Relaxed);\n\
                   a.fetch_add(1, Ordering::Relaxed);\n\
                   let _v = a.load(Ordering::Relaxed);\n\
                   }";
        // store is non-commutative; fetch_add needs a pragma; a Relaxed
        // load is fine.
        assert_eq!(rules_at(src, true), vec![(2, "D007"), (3, "D007")]);
        assert_eq!(rules_at(src, false), vec![]);
    }

    #[test]
    fn strong_orderings_are_flagged_even_on_loads() {
        let src = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::SeqCst) }";
        assert_eq!(rules_at(src, true), vec![(1, "D007")]);
    }

    #[test]
    fn partial_cmp_calls_flagged_but_definitions_are_not() {
        let src = "impl PartialOrd for T {\n\
                   fn partial_cmp(&self, other: &T) -> Option<Ordering> { Some(self.cmp(other)) }\n\
                   }\n\
                   fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(rules_at(src, true), vec![(4, "D008")]);
        assert_eq!(rules_at(src, false), vec![]);
    }

    #[test]
    fn keyed_unstable_sorts_flagged_plain_sort_unstable_exempt() {
        let src = "fn f(xs: &mut Vec<(u64, u64)>) {\n\
                   xs.sort_unstable();\n\
                   xs.sort_unstable_by_key(|x| x.0);\n\
                   xs.sort_unstable_by(|a, b| a.0.cmp(&b.0));\n\
                   }";
        assert_eq!(rules_at(src, true), vec![(3, "D009"), (4, "D009")]);
        assert_eq!(rules_at(src, false), vec![]);
    }

    #[test]
    fn blocking_sync_flagged_in_sim_facing_code_only() {
        let src = "use std::sync::Mutex;\n\
                   use std::sync::mpsc;\n\
                   fn f() -> Mutex<u64> { Mutex::new(0) }\n\
                   fn g() { let (_tx, _rx) = mpsc::channel::<u32>(); }";
        assert_eq!(
            rules_at(src, true),
            vec![(1, "D010"), (2, "D010"), (3, "D010"), (4, "D010")]
        );
        assert_eq!(rules_at(src, false), vec![]);
    }

    #[test]
    fn renamed_mutex_still_trips_d010() {
        let src = "use std::sync::Mutex as Lock;\n\
                   fn f() -> Lock<u64> { Lock::new(0) }";
        let findings = analyze_source("t.rs", src, true);
        assert!(findings
            .iter()
            .any(|f| f.line == 2 && f.message == "`Mutex` (via `Lock`)"));
    }

    #[test]
    fn pragma_suppresses_and_unused_pragma_reports() {
        let src = "// decent-lint: allow(D002) reason=\"test fixture\"\n\
                   fn f() { let _t = Instant::now(); }\n\
                   // decent-lint: allow(D003) reason=\"nothing here\"\n\
                   fn g() {}";
        assert_eq!(rules_at(src, false), vec![(3, "P000")]);
    }

    #[test]
    fn same_line_pragma_covers_its_own_line() {
        let src = "fn f() { let _t = Instant::now(); } // decent-lint: allow(D002) reason=\"shim\"";
        assert_eq!(rules_at(src, false), vec![]);
    }

    #[test]
    fn malformed_pragmas_are_findings() {
        let src = "// decent-lint: allow(D9) reason=\"x\"\n\
                   // decent-lint: allow(D001)\n\
                   fn f() {}";
        assert_eq!(rules_at(src, false), vec![(1, "P001"), (2, "P001")]);
    }

    #[test]
    fn rc_flagged_only_in_sim_facing_code() {
        let src = "use std::rc::Rc;\n\
                   struct S { v: Rc<u64>, a: std::sync::Arc<u64> }\n\
                   fn f() -> Rc<u64> { Rc::new(1) }";
        assert_eq!(rules_at(src, false), vec![]);
        assert_eq!(
            rules_at(src, true),
            vec![(1, "D006"), (2, "D006"), (3, "D006"), (3, "D006")]
        );
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = "// uses Instant::now() and thread_rng in prose\n\
                   fn f() -> &'static str { \"unsafe std::env thread_rng\" }";
        assert_eq!(rules_at(src, true), vec![]);
    }
}
