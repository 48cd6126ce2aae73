//! Concurrency and shared-state analysis (lint v4).
//!
//! The scale-out path (`chunked_argmax_with` / `chunked_map_with` scoped
//! spawns, the Mutex-backed recorder, atomic clocks) moves shared mutable
//! state across thread boundaries, and the paper's headline claim —
//! bit-identical plans for every thread count — only holds while that
//! state stays schedule-independent. This module adds three hazard
//! inventories to the call graph (spawn sites with the spawned closure's
//! body range, lock/guard acquisitions with a token-range liveness
//! approximation, `Ordering::Relaxed` atomic accesses) and four
//! interprocedural rules on top of the v3 dataflow layer:
//!
//! * **par-purity** — closures handed to the chunked engines must not
//!   capture `Cell`/`RefCell` state, write through their captures, or use
//!   interior mutability, and every function they call (including a named
//!   `better` comparator) must be call-graph-unreachable from an effect
//!   source (reusing the effect-taint fixed point and its witness paths).
//! * **lock-across-spawn** — no `MutexGuard` live across a spawn site,
//!   no call into another locking function while a guard on the same
//!   lock is held (re-entrant deadlock), and no pair of locks acquired
//!   in opposite orders anywhere in the workspace (lock-order cycle over
//!   a per-lock-identity graph).
//! * **atomic-ordering** — a `Relaxed` atomic access reachable from a
//!   public planner entry point; timing-only counters are allowlisted at
//!   the site with `lint:allow(atomic-ordering)`.
//! * **shared-accumulator** — `fetch_add`-family or `lock().push()`
//!   accumulation inside a spawned closure, whose merge order is
//!   scheduler-dependent unless proven order-insensitive.
//!
//! Soundness boundaries (see DESIGN.md §14): the capture set is a token
//! approximation (identifiers that resolve to an enclosing binding);
//! read-only reborrows of `&mut` bindings are deliberately accepted (the
//! `Fn` bound already forbids writing through them without interior
//! mutability, which is flagged separately); guard liveness is the
//! enclosing block for `let`-bound guards (truncated at `drop(guard)`)
//! and the enclosing statement for temporaries; lock identity is the
//! receiver's trailing field name qualified by the defining crate.

use crate::callgraph::{CallGraph, EffectKind, Node, Site};
use crate::dataflow::{self, ReachInfo};
use crate::lexer::{Tok, TokKind};
use crate::resolve::{CallSite, FileCtx, Workspace};
use crate::{FileKind, Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// One `spawn(..)` call site inside a function body.
#[derive(Clone, Debug)]
pub struct SpawnSite {
    /// 1-based line of the `spawn` token.
    pub line: usize,
    /// Token index of the `spawn` identifier.
    pub tok: usize,
    /// Token range `[lo, hi)` of the spawned closure's body; empty when
    /// the spawn argument is not a closure literal.
    pub body: (usize, usize),
}

impl SpawnSite {
    /// Is token index `t` inside the spawned closure's body?
    pub fn covers(&self, t: usize) -> bool {
        self.body.0 < self.body.1 && t >= self.body.0 && t < self.body.1
    }
}

/// One direct `.lock()` acquisition inside a function body.
#[derive(Clone, Debug)]
pub struct LockSite {
    /// 1-based line of the `lock` token.
    pub line: usize,
    /// Token index of the `lock` identifier.
    pub tok: usize,
    /// Receiver's trailing identifier, naming the lock (`inner` in
    /// `self.inner.lock()`).
    pub what: String,
    /// Guard liveness as a token range `[lo, hi)`.
    pub live: (usize, usize),
    /// Suppressed by a `lint:allow(lock-across-spawn)` pragma at the
    /// acquisition: never propagates.
    pub justified: bool,
}

const FETCH_OPS: [&str; 7] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
];

const INTERIOR_MUT_OPS: [&str; 11] = [
    "lock",
    "borrow_mut",
    "store",
    "swap",
    "compare_exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
];

/// The chunked-engine entry points whose function arguments par-purity
/// patrols.
const PAR_TARGETS: [&str; 4] = [
    "chunked_argmax",
    "chunked_argmax_with",
    "chunked_map",
    "chunked_map_with",
];

// ---------------------------------------------------------------------------
// Hazard collection (called from CallGraph::build)
// ---------------------------------------------------------------------------

/// Scans a body token range for concurrency hazard sites. Unlike the v3
/// hazard collector this is *not* gated by `obs_sanctioned` — the
/// recorder's Mutex is exactly what the lock rules must see. `allowed(rule, line, mark)` checks (and with
/// `mark = true`, consumes) a pragma.
pub(crate) fn collect_sites(
    file: &FileCtx,
    lo: usize,
    hi: usize,
    node: &mut Node,
    mut allowed: impl FnMut(Rule, usize, bool) -> bool,
) {
    let toks = &file.lexed.toks;
    let hi = hi.min(toks.len());
    for i in lo..hi {
        if file.model.tok_in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        // Spawn site: `scope.spawn(..)`, `thread::spawn(..)`, `spawn(..)`.
        if t.is_ident("spawn") && toks.get(i + 1).is_some_and(|x| x.is_punct("(")) {
            node.spawn_sites.push(SpawnSite {
                line: t.line,
                tok: i,
                body: closure_body(toks, i + 1, hi),
            });
        }
        // Direct lock acquisition: `recv.lock(..)`.
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|x| x.is_ident("lock"))
            && toks.get(i + 2).is_some_and(|x| x.is_punct("("))
        {
            let line = toks[i + 1].line;
            node.lock_sites.push(LockSite {
                line,
                tok: i + 1,
                what: receiver_tail(toks, i),
                live: guard_live_range(toks, hi, i + 1),
                justified: allowed(Rule::LockAcrossSpawn, line, true),
            });
        }
        // Relaxed atomic ordering.
        if t.is_ident("Relaxed")
            && i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("Ordering")
        {
            node.atomic_sites.push(Site {
                line: t.line,
                what: "`Ordering::Relaxed`".into(),
                justified: allowed(Rule::AtomicOrdering, t.line, true),
            });
        }
    }
}

/// Token range `[lo, hi)` of the closure body in a `spawn(move |..| ..)`
/// argument, where `open` is the spawn call's opening paren. Empty when
/// the argument is not a closure literal.
fn closure_body(toks: &[Tok], open: usize, hi: usize) -> (usize, usize) {
    let mut j = open + 1;
    if toks.get(j).is_some_and(|x| x.is_ident("move")) {
        j += 1;
    }
    if toks.get(j).is_some_and(|x| x.is_punct("||")) {
        j += 1;
    } else if toks.get(j).is_some_and(|x| x.is_punct("|")) {
        j += 1;
        while j < hi && !toks[j].is_punct("|") {
            j += 1;
        }
        j += 1;
    } else {
        return (0, 0);
    }
    if toks.get(j).is_some_and(|x| x.is_punct("{")) {
        // Brace-block body: everything inside the matching braces.
        let mut depth = 0i64;
        let mut k = j;
        while k < hi {
            match toks[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return (j + 1, k);
                    }
                }
                _ => {}
            }
            k += 1;
        }
        (j + 1, hi)
    } else {
        // Expression body: up to the paren that closes the spawn call.
        let mut depth = 1i64;
        let mut k = open + 1;
        while k < hi {
            match toks[k].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return (j, k);
                    }
                }
                _ => {}
            }
            k += 1;
        }
        (j, hi)
    }
}

/// The identifier directly before the `.` at `dot` (`inner` in
/// `self.inner.lock()`); `"<temp>"` for expression receivers.
fn receiver_tail(toks: &[Tok], dot: usize) -> String {
    if dot > 0 && toks[dot - 1].kind == TokKind::Ident {
        toks[dot - 1].text.clone()
    } else {
        "<temp>".to_string()
    }
}

/// Approximates the token range over which the guard produced by the
/// call whose name token is `name_tok` stays live: the enclosing block
/// (truncated at `drop(binding)`) when the statement is a simple
/// `let [mut] binding = ..;`, otherwise the enclosing statement.
pub(crate) fn guard_live_range(toks: &[Tok], hi: usize, name_tok: usize) -> (usize, usize) {
    let hi = hi.min(toks.len());
    // Statement end: next `;` at depth 0, or the `}`/`)` closing the
    // enclosing group.
    let mut depth = 0i64;
    let mut stmt_end = hi;
    let mut k = name_tok;
    while k < hi {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    stmt_end = k;
                    break;
                }
            }
            ";" if depth == 0 => {
                stmt_end = k;
                break;
            }
            _ => {}
        }
        k += 1;
    }
    // Statement start: walk back to the nearest `;` / `{` / `}`.
    let mut b = name_tok;
    while b > 0 {
        let prev = &toks[b - 1];
        if prev.is_punct(";") || prev.is_punct("{") || prev.is_punct("}") {
            break;
        }
        b -= 1;
    }
    let binding = if toks.get(b).is_some_and(|x| x.is_ident("let")) {
        let mut p = b + 1;
        if toks.get(p).is_some_and(|x| x.is_ident("mut")) {
            p += 1;
        }
        if toks.get(p).is_some_and(|x| x.kind == TokKind::Ident)
            && toks.get(p + 1).is_some_and(|x| x.is_punct("="))
        {
            Some(toks[p].text.clone())
        } else {
            None
        }
    } else {
        None
    };
    let Some(name) = binding else {
        return (name_tok, stmt_end);
    };
    // `let`-bound: live to the end of the enclosing block, or until an
    // explicit `drop(name)`.
    let mut depth = 0i64;
    let mut k = name_tok;
    while k < hi {
        match toks[k].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return (name_tok, k);
                }
            }
            "drop"
                if toks.get(k + 1).is_some_and(|x| x.is_punct("("))
                    && toks.get(k + 2).is_some_and(|x| x.text == name)
                    && toks.get(k + 3).is_some_and(|x| x.is_punct(")")) =>
            {
                return (name_tok, k);
            }
            _ => {}
        }
        k += 1;
    }
    (name_tok, hi)
}

// ---------------------------------------------------------------------------
// The four rules
// ---------------------------------------------------------------------------

/// Runs the four concurrency rules over the built graph. `effect_reach`
/// is the effect-taint fixed point already computed by the caller (the
/// par-purity effect check reuses it); `entries` are the planner entry
/// nodes; `allowed(file, rule, line)` checks and consumes a pragma.
pub(crate) fn check(
    ws: &Workspace,
    graph: &CallGraph,
    entries: &[usize],
    effect_reach: &[Option<ReachInfo<(EffectKind, Site)>>],
    mut allowed: impl FnMut(usize, Rule, usize) -> bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_scope = |n: usize| {
        let (fi, ni) = graph.nodes[n].id;
        let ctx = &ws.files[fi];
        ctx.kind == FileKind::Library && !ctx.model.fns[ni].in_test
    };

    // --- par-purity -------------------------------------------------------
    for n in 0..graph.nodes.len() {
        if !in_scope(n) {
            continue;
        }
        let (fi, ni) = graph.nodes[n].id;
        let ctx = &ws.files[fi];
        let fun = &ctx.model.fns[ni];
        let toks = &ctx.lexed.toks;
        let Some((_, body_hi)) = fun.body else {
            continue;
        };
        let body_hi = body_hi.min(toks.len());
        for (call, _) in &graph.nodes[n].calls {
            if !PAR_TARGETS.contains(&call.name.as_str()) {
                continue;
            }
            let Some(open) = call_open_paren(toks, call.name_tok, body_hi) else {
                continue;
            };
            let env = FnEnv::build(ctx, fun);
            for (alo, ahi) in split_args(toks, open, body_hi) {
                par_purity_arg(
                    ws,
                    graph,
                    n,
                    &env,
                    call,
                    (alo, ahi),
                    effect_reach,
                    &mut |line| allowed(fi, Rule::ParPurity, line),
                    &mut findings,
                );
            }
        }
    }

    // --- lock-across-spawn ------------------------------------------------
    // Sources: every function with an unjustified direct lock site,
    // keyed by lock identity (defining crate + receiver field).
    let lock_sources: Vec<(usize, (String, usize))> = graph
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(n, node)| {
            node.lock_sites.iter().find(|s| !s.justified).map(|s| {
                let key = format!("{}::{}", ws.files[node.id.0].crate_ident, s.what);
                (n, (key, s.line))
            })
        })
        .collect();
    let lock_reach = dataflow::reach(graph, &lock_sources);
    // Lock-order graph: held-lock -> acquired-lock, with the first
    // witnessing site (deterministic: nodes and calls in scan order).
    let mut lock_edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for n in 0..graph.nodes.len() {
        if !in_scope(n) {
            continue;
        }
        let (fi, ni) = graph.nodes[n].id;
        let ctx = &ws.files[fi];
        let fun = &ctx.model.fns[ni];
        let toks = &ctx.lexed.toks;
        let Some((_, body_hi)) = fun.body else {
            continue;
        };
        let body_hi = body_hi.min(toks.len());
        // All acquisitions in this body: direct `.lock()` sites plus
        // calls into guard-returning lock wrappers.
        struct Acq {
            line: usize,
            tok: usize,
            key: String,
            live: (usize, usize),
        }
        let mut acqs: Vec<Acq> = graph.nodes[n]
            .lock_sites
            .iter()
            .filter(|s| !s.justified)
            .map(|s| Acq {
                line: s.line,
                tok: s.tok,
                key: format!("{}::{}", ctx.crate_ident, s.what),
                live: s.live,
            })
            .collect();
        for (call, targets) in &graph.nodes[n].calls {
            let Some(tix) = targets.iter().find_map(|&t| {
                let (tfi, tni) = t;
                let ret = ws.files[tfi].model.fns[tni].ret.as_deref().unwrap_or("");
                if ret.split(' ').any(|w| w == "MutexGuard") {
                    graph.node_of(t).filter(|&ix| lock_reach[ix].is_some())
                } else {
                    None
                }
            }) else {
                continue;
            };
            let key = lock_reach[tix].as_ref().map(|r| r.payload.0.clone());
            if let Some(key) = key {
                if !allowed(fi, Rule::LockAcrossSpawn, call.line) {
                    acqs.push(Acq {
                        line: call.line,
                        tok: call.name_tok,
                        key,
                        live: guard_live_range(toks, body_hi, call.name_tok),
                    });
                }
            }
        }
        for acq in &acqs {
            // (1) Guard live across a spawn site.
            for s in &graph.nodes[n].spawn_sites {
                if s.tok > acq.tok && s.tok < acq.live.1 {
                    findings.push(Finding {
                        path: ctx.path.clone(),
                        line: acq.line,
                        rule: Rule::LockAcrossSpawn,
                        message: format!(
                            "`MutexGuard` on `{}` acquired in `{}` is still live across the spawn at line {}; narrow the guard (drop it before spawning) or justify with lint:allow(lock-across-spawn)",
                            acq.key, fun.name, s.line,
                        ),
                    });
                }
            }
            // (2) Guard held while calling into another locking function.
            for (call, targets) in &graph.nodes[n].calls {
                if call.name_tok <= acq.tok || call.name_tok >= acq.live.1 {
                    continue;
                }
                let Some(tix) = targets
                    .iter()
                    .filter_map(|&t| graph.node_of(t))
                    .find(|&ix| ix != n && lock_reach[ix].is_some())
                else {
                    continue;
                };
                let Some(tinfo) = &lock_reach[tix] else {
                    continue;
                };
                let tkey = &tinfo.payload.0;
                if *tkey == acq.key {
                    if !allowed(fi, Rule::LockAcrossSpawn, call.line) {
                        findings.push(Finding {
                            path: ctx.path.clone(),
                            line: call.line,
                            rule: Rule::LockAcrossSpawn,
                            message: format!(
                                "calling `{}` here re-locks `{}` while the guard from line {} is still held (self-deadlock) via {}; drop the guard first or justify with lint:allow(lock-across-spawn)",
                                call.name,
                                acq.key,
                                acq.line,
                                witness(ws, graph, &lock_reach, tix),
                            ),
                        });
                    }
                } else {
                    lock_edges
                        .entry((acq.key.clone(), tkey.clone()))
                        .or_insert((n, call.line));
                }
            }
        }
    }
    // (3) Lock-order cycles: an edge A -> B participates in a cycle when
    // B reaches A through the edge set.
    let edge_keys: BTreeSet<(String, String)> = lock_edges.keys().cloned().collect();
    for ((a, b), &(n, line)) in &lock_edges {
        if a != b && lock_order_reaches(&edge_keys, b, a) {
            let (fi, _) = graph.nodes[n].id;
            let ctx = &ws.files[fi];
            if !allowed(fi, Rule::LockAcrossSpawn, line) {
                findings.push(Finding {
                    path: ctx.path.clone(),
                    line,
                    rule: Rule::LockAcrossSpawn,
                    message: format!(
                        "lock-order cycle: `{a}` is held here while acquiring `{b}`, but another call path acquires them in the opposite order; establish one global lock order or justify with lint:allow(lock-across-spawn)",
                    ),
                });
            }
        }
    }

    // --- atomic-ordering --------------------------------------------------
    let atomic_sources: Vec<(usize, Site)> = graph
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(n, node)| {
            node.atomic_sites
                .iter()
                .find(|s| !s.justified)
                .map(|s| (n, s.clone()))
        })
        .collect();
    let atomic_reach = dataflow::reach(graph, &atomic_sources);
    for &e in entries {
        let Some(info) = &atomic_reach[e] else {
            continue;
        };
        let site = &info.payload;
        let (fi, ni) = graph.nodes[e].id;
        let fun = &ws.files[fi].model.fns[ni];
        let src_file = &ws.files[graph.nodes[info.source].id.0];
        if !allowed(fi, Rule::AtomicOrdering, fun.line) {
            findings.push(Finding {
                path: ws.files[fi].path.clone(),
                line: fun.line,
                rule: Rule::AtomicOrdering,
                message: format!(
                    "public planner entry `{}` can reach a relaxed atomic access ({} at {}:{}) via {}; plan-affecting atomics need SeqCst or acquire/release, or justify a timing-only counter with lint:allow(atomic-ordering)",
                    fun.name,
                    site.what,
                    src_file.path.display(),
                    site.line,
                    witness(ws, graph, &atomic_reach, e),
                ),
            });
        }
    }

    // --- shared-accumulator -----------------------------------------------
    for n in 0..graph.nodes.len() {
        if !in_scope(n) {
            continue;
        }
        let (fi, _) = graph.nodes[n].id;
        let ctx = &ws.files[fi];
        let toks = &ctx.lexed.toks;
        for s in &graph.nodes[n].spawn_sites {
            let (blo, bhi) = s.body;
            for k in blo..bhi.min(toks.len()) {
                if !toks[k].is_punct(".") {
                    continue;
                }
                let Some(m) = toks.get(k + 1) else { continue };
                if m.kind != TokKind::Ident || !toks.get(k + 2).is_some_and(|x| x.is_punct("(")) {
                    continue;
                }
                if FETCH_OPS.contains(&m.text.as_str()) {
                    if !allowed(fi, Rule::SharedAccumulator, m.line) {
                        findings.push(Finding {
                            path: ctx.path.clone(),
                            line: m.line,
                            rule: Rule::SharedAccumulator,
                            message: format!(
                                "`{}` on a shared atomic inside the closure spawned at line {} merges in scheduler order; accumulate into a per-thread slot and combine after join, prove the result order-insensitive, or justify with lint:allow(shared-accumulator)",
                                m.text, s.line,
                            ),
                        });
                    }
                } else if m.is_ident("lock") {
                    if let Some(push) = locked_push_after(toks, k + 2, bhi) {
                        let line = toks[push].line;
                        if !allowed(fi, Rule::SharedAccumulator, line) {
                            findings.push(Finding {
                                path: ctx.path.clone(),
                                line,
                                rule: Rule::SharedAccumulator,
                                message: format!(
                                    "`lock().{}` inside the closure spawned at line {} appends in scheduler order; collect per-thread and merge deterministically after join, or justify with lint:allow(shared-accumulator)",
                                    toks[push].text, s.line,
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    findings
}

/// Does the lock-order edge set contain a path `from -> … -> to`?
fn lock_order_reaches(edges: &BTreeSet<(String, String)>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(cur) = stack.pop() {
        if cur == to {
            return true;
        }
        if !seen.insert(cur) {
            continue;
        }
        for (a, b) in edges {
            if a == cur {
                stack.push(b);
            }
        }
    }
    false
}

/// After `lock(` at `open`, skip the argument list and optional
/// `.unwrap()` / `.expect(..)`, and return the token index of a
/// following `push`/`insert`/`extend`/`append` method name, if any.
fn locked_push_after(toks: &[Tok], open: usize, hi: usize) -> Option<usize> {
    let hi = hi.min(toks.len());
    let mut j = skip_group(toks, open, hi)?;
    loop {
        if !toks.get(j).is_some_and(|x| x.is_punct(".")) {
            return None;
        }
        let m = toks.get(j + 1)?;
        if m.is_ident("unwrap") || m.is_ident("expect") || m.is_ident("unwrap_or_else") {
            j = skip_group(toks, j + 2, hi)?;
            continue;
        }
        if (m.is_ident("push")
            || m.is_ident("insert")
            || m.is_ident("extend")
            || m.is_ident("append"))
            && toks.get(j + 2).is_some_and(|x| x.is_punct("("))
        {
            return Some(j + 1);
        }
        return None;
    }
}

/// Skips a balanced paren group whose `(` is at `open`; returns the
/// index just past the matching `)`.
fn skip_group(toks: &[Tok], open: usize, hi: usize) -> Option<usize> {
    if !toks.get(open).is_some_and(|x| x.is_punct("(")) {
        return None;
    }
    let mut depth = 0i64;
    let mut k = open;
    while k < hi {
        match toks[k].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// The opening paren of the call whose name token is `name_tok`,
/// skipping an optional turbofish.
fn call_open_paren(toks: &[Tok], name_tok: usize, hi: usize) -> Option<usize> {
    let mut j = name_tok + 1;
    if toks.get(j).is_some_and(|x| x.is_punct("::"))
        && toks.get(j + 1).is_some_and(|x| x.is_punct("<"))
    {
        let mut depth = 0i64;
        j += 1;
        while j < hi {
            match toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    toks.get(j).filter(|x| x.is_punct("(")).map(|_| j)
}

/// Splits the argument list of the call whose `(` is at `open` into
/// top-level argument token ranges `[lo, hi)`.
fn split_args(toks: &[Tok], open: usize, hi: usize) -> Vec<(usize, usize)> {
    let hi = hi.min(toks.len());
    let mut args = Vec::new();
    let mut depth = 1i64;
    let mut start = open + 1;
    let mut k = open + 1;
    while k < hi {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    if k > start {
                        args.push((start, k));
                    }
                    return args;
                }
            }
            "," if depth == 1 => {
                if k > start {
                    args.push((start, k));
                }
                start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    args
}

/// Rust keywords and common value-position idents that are never
/// captures.
const NON_CAPTURE: [&str; 24] = [
    "let", "mut", "if", "else", "match", "for", "while", "loop", "return", "in", "move", "ref",
    "as", "break", "continue", "self", "Self", "true", "false", "fn", "impl", "use", "where",
    "usize",
];

/// The enclosing function's binding environment, as par-purity's capture
/// analysis needs it: which names are bound, which are `let mut`, and
/// which have a `Cell`/`RefCell`/`&mut` type.
struct FnEnv {
    params: BTreeSet<String>,
    locals: BTreeSet<String>,
    mut_locals: BTreeSet<String>,
    cellish: BTreeSet<String>,
    mut_refs: BTreeSet<String>,
}

impl FnEnv {
    fn build(ctx: &FileCtx, fun: &crate::parser::FnSig) -> FnEnv {
        let mut env = FnEnv {
            params: BTreeSet::new(),
            locals: BTreeSet::new(),
            mut_locals: BTreeSet::new(),
            cellish: BTreeSet::new(),
            mut_refs: BTreeSet::new(),
        };
        for p in &fun.params {
            let words: Vec<&str> = p.ty.split(' ').collect();
            for name in &p.names {
                env.params.insert(name.clone());
                if words.contains(&"Cell") || words.contains(&"RefCell") {
                    env.cellish.insert(name.clone());
                }
                if words.contains(&"mut") {
                    env.mut_refs.insert(name.clone());
                }
            }
        }
        if let Some((lo, hi)) = fun.body {
            let toks = &ctx.lexed.toks;
            let hi = hi.min(toks.len());
            let mut k = lo;
            while k < hi {
                if toks[k].is_ident("let") {
                    let mut p = k + 1;
                    let is_mut = toks.get(p).is_some_and(|x| x.is_ident("mut"));
                    if is_mut {
                        p += 1;
                    }
                    if let Some(name) = toks.get(p).filter(|x| x.kind == TokKind::Ident) {
                        env.locals.insert(name.text.clone());
                        if is_mut {
                            env.mut_locals.insert(name.text.clone());
                        }
                        // `let x: RefCell<..> = ..` / `let x = RefCell::new(..)`.
                        let mut q = p + 1;
                        while q < hi && !toks[q].is_punct(";") && q < p + 12 {
                            if toks[q].is_ident("Cell") || toks[q].is_ident("RefCell") {
                                env.cellish.insert(name.text.clone());
                                break;
                            }
                            q += 1;
                        }
                    }
                }
                k += 1;
            }
        }
        env
    }
}

/// Checks one argument of a chunked-engine call for par-purity. A
/// closure-literal argument gets the full capture/write/interior-
/// mutability/effect analysis; a bare-identifier argument naming a
/// workspace function (the `better` comparator pattern) gets the effect
/// check through the call graph.
#[allow(clippy::too_many_arguments)]
fn par_purity_arg(
    ws: &Workspace,
    graph: &CallGraph,
    n: usize,
    env: &FnEnv,
    call: &CallSite,
    (alo, ahi): (usize, usize),
    effect_reach: &[Option<ReachInfo<(EffectKind, Site)>>],
    allowed: &mut impl FnMut(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let (fi, _) = graph.nodes[n].id;
    let ctx = &ws.files[fi];
    let toks = &ctx.lexed.toks;

    // Bare identifier: a named function (or a local binding, which the
    // item model cannot see through — skipped, documented caveat).
    if ahi == alo + 1 && toks[alo].kind == TokKind::Ident {
        let name = &toks[alo].text;
        if env.params.contains(name) || env.locals.contains(name) {
            return;
        }
        let probe = CallSite {
            name: name.clone(),
            quals: Vec::new(),
            method: false,
            line: toks[alo].line,
            name_tok: alo,
        };
        for t in ws.resolve(fi, &probe) {
            let Some(ix) = graph.node_of(t) else { continue };
            if let Some(info) = &effect_reach[ix] {
                let (kind, site) = &info.payload;
                let src_file = &ws.files[graph.nodes[info.source].id.0];
                if !allowed(toks[alo].line) {
                    findings.push(Finding {
                        path: ctx.path.clone(),
                        line: toks[alo].line,
                        rule: Rule::ParPurity,
                        message: format!(
                            "`{}` passed to `{}` can reach {} ({} at {}:{}) via {}; parallel arguments must be effect-pure, or justify with lint:allow(par-purity)",
                            name,
                            call.name,
                            kind.label(),
                            site.what,
                            src_file.path.display(),
                            site.line,
                            witness(ws, graph, effect_reach, ix),
                        ),
                    });
                }
                return;
            }
        }
        return;
    }

    // Closure literal?
    let mut j = alo;
    if toks.get(j).is_some_and(|x| x.is_ident("move")) {
        j += 1;
    }
    let params: BTreeSet<String>;
    if toks.get(j).is_some_and(|x| x.is_punct("||")) {
        params = BTreeSet::new();
        j += 1;
    } else if toks.get(j).is_some_and(|x| x.is_punct("|")) {
        let mut names = BTreeSet::new();
        j += 1;
        while j < ahi && !toks[j].is_punct("|") {
            if toks[j].kind == TokKind::Ident && !toks[j].is_ident("mut") {
                names.insert(toks[j].text.clone());
            }
            j += 1;
        }
        j += 1;
        params = names;
    } else {
        return;
    }
    let (blo, bhi) = (j, ahi);

    // Closure-local `let` bindings never count as captures.
    let mut closure_locals: BTreeSet<String> = BTreeSet::new();
    for k in blo..bhi {
        if toks[k].is_ident("let") {
            let mut p = k + 1;
            if toks.get(p).is_some_and(|x| x.is_ident("mut")) {
                p += 1;
            }
            if let Some(name) = toks.get(p).filter(|x| x.kind == TokKind::Ident) {
                closure_locals.insert(name.text.clone());
            }
        }
    }
    let is_capture = |name: &str| {
        !params.contains(name)
            && !closure_locals.contains(name)
            && !NON_CAPTURE.contains(&name)
            && (env.params.contains(name) || env.locals.contains(name))
    };

    let mut effect_reported = false;
    for k in blo..bhi {
        let t = &toks[k];
        if t.kind == TokKind::Ident {
            let followed_by = |p: &str| toks.get(k + 1).is_some_and(|x| x.is_punct(p));
            let preceded_by = |p: &str| k > 0 && toks[k - 1].is_punct(p);
            let value_pos = !followed_by("(")
                && !followed_by("::")
                && !followed_by("!")
                && !preceded_by(".")
                && !preceded_by("::");
            // Cell / RefCell capture.
            if value_pos && is_capture(&t.text) && env.cellish.contains(&t.text) {
                if !allowed(t.line) {
                    findings.push(Finding {
                        path: ctx.path.clone(),
                        line: t.line,
                        rule: Rule::ParPurity,
                        message: format!(
                            "parallel closure passed to `{}` captures `{}`, which has interior mutability (Cell/RefCell); shared per-item state must be plain data, or justify with lint:allow(par-purity)",
                            call.name, t.text,
                        ),
                    });
                }
                continue;
            }
            // Write to a capture: `x = ..`, `x += ..`, `*x = ..`.
            let assigned = toks.get(k + 1).is_some_and(|x| {
                x.is_punct("=")
                    || matches!(
                        x.text.as_str(),
                        "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
                    )
            });
            let deref_write = preceded_by("*");
            if assigned
                && !preceded_by(".")
                && !(k > 0 && (toks[k - 1].is_ident("let") || toks[k - 1].is_ident("mut")))
                && is_capture(&t.text)
                && (deref_write
                    || env.mut_locals.contains(&t.text)
                    || env.mut_refs.contains(&t.text)
                    || env.params.contains(&t.text)
                    || env.locals.contains(&t.text))
                && !allowed(t.line)
            {
                findings.push(Finding {
                    path: ctx.path.clone(),
                    line: t.line,
                    rule: Rule::ParPurity,
                    message: format!(
                        "parallel closure passed to `{}` writes captured `{}`; per-item results must flow through the return value (the engine's merge is the only sanctioned write), or justify with lint:allow(par-purity)",
                        call.name, t.text,
                    ),
                });
                continue;
            }
        }
        // Interior mutability operations inside the closure body.
        if t.is_punct(".")
            && toks
                .get(k + 1)
                .is_some_and(|x| INTERIOR_MUT_OPS.contains(&x.text.as_str()))
            && toks.get(k + 2).is_some_and(|x| x.is_punct("("))
        {
            let m = &toks[k + 1];
            if !allowed(m.line) {
                findings.push(Finding {
                    path: ctx.path.clone(),
                    line: m.line,
                    rule: Rule::ParPurity,
                    message: format!(
                        "parallel closure passed to `{}` uses interior mutability (`{}`); chunk results must merge through the engine, or justify with lint:allow(par-purity)",
                        call.name, m.text,
                    ),
                });
            }
        }
    }

    // Effect cleanliness: every call out of the closure body must be
    // effect-unreachable (reusing the effect-taint fixed point).
    if !effect_reported {
        for (c2, targets) in &graph.nodes[n].calls {
            if c2.name_tok < blo || c2.name_tok >= bhi {
                continue;
            }
            for &t in targets {
                let Some(ix) = graph.node_of(t) else { continue };
                let Some(info) = &effect_reach[ix] else {
                    continue;
                };
                let (kind, site) = &info.payload;
                let src_file = &ws.files[graph.nodes[info.source].id.0];
                if !allowed(c2.line) {
                    findings.push(Finding {
                        path: ctx.path.clone(),
                        line: c2.line,
                        rule: Rule::ParPurity,
                        message: format!(
                            "parallel closure passed to `{}` calls `{}`, which can reach {} ({} at {}:{}) via {}; parallel arguments must be effect-pure, or justify with lint:allow(par-purity)",
                            call.name,
                            c2.name,
                            kind.label(),
                            site.what,
                            src_file.path.display(),
                            site.line,
                            witness(ws, graph, effect_reach, ix),
                        ),
                    });
                }
                effect_reported = true;
                break;
            }
            if effect_reported {
                break;
            }
        }
    }
}

/// Witness call path rendered as fn names joined by ` -> `.
fn witness<P: Clone>(
    ws: &Workspace,
    g: &CallGraph,
    reach: &[Option<ReachInfo<P>>],
    from: usize,
) -> String {
    dataflow::witness_path(reach, from)
        .iter()
        .map(|&n| {
            let (fi, ni) = g.nodes[n].id;
            ws.files[fi].model.fns[ni].name.clone()
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}
