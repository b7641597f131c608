//! Concurrency rules over the item tree: lock-order, detached-spawn, and
//! unordered-merge.
//!
//! These are lexical heuristics, not a borrow checker. They reconstruct just
//! enough structure from the token stream — which locks a function holds at
//! each acquisition site, where a spawned handle goes, whether channel
//! results are sorted before reduction — to catch the bug classes the
//! N=1-vs-N=4 canonical-journal CI jobs can only catch dynamically, and they
//! lean on the same suppression mechanism as every other rule when a site is
//! a false positive.

use crate::rules::{FileContext, Finding};
use crate::scanner::TokenKind;
use std::collections::{BTreeMap, BTreeSet};

/// One observed "acquire `to` while holding `from`" ordering, attributed to
/// its source site for reporting and suppression.
#[derive(Debug, Clone)]
pub(crate) struct LockEdge {
    /// Crate key (`crates/<name>` component, or the whole path outside
    /// `crates/`): lock graphs never span crates.
    pub crate_key: String,
    /// Name of the lock held at the acquisition site.
    pub from: String,
    /// Name of the lock being acquired.
    pub to: String,
    /// Workspace-relative path of the acquisition site.
    pub path: String,
    /// 1-based line of the acquisition site.
    pub line: u32,
    /// Trimmed source line (for reports).
    pub excerpt: String,
}

/// Per-file concurrency analysis output.
#[derive(Debug, Default)]
pub(crate) struct ConcScan {
    /// Direct findings (detached-spawn, unordered-merge).
    pub findings: Vec<Finding>,
    /// Lock-order edges, resolved into cycles across the whole file set.
    pub edges: Vec<LockEdge>,
}

/// The crate key a path's lock graph belongs to.
pub(crate) fn crate_key(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        _ => rel_path.to_string(),
    }
}

/// Guard-lifetime scope of one held lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// A temporary guard (`x.lock().field = …`): dropped at the end of the
    /// statement.
    Stmt,
    /// A let-bound guard (`let g = x.lock();`): dropped when the block at
    /// this relative depth closes.
    Block(usize),
}

/// Runs every concurrency rule over one strict file.
pub(crate) fn analyze(ctx: &FileContext<'_>) -> ConcScan {
    let mut scan = ConcScan::default();
    let has_rwlock = (0..ctx.sig.len()).any(|i| ctx.sig_text(i) == "RwLock");
    for fn_item in ctx.tree.fns() {
        if fn_item.is_test || fn_item.close_sig <= fn_item.open_sig {
            continue;
        }
        lock_edges(ctx, fn_item, has_rwlock, &mut scan.edges);
        detached_spawns(ctx, fn_item, &mut scan.findings);
        unordered_merge(ctx, fn_item, &mut scan.findings);
    }
    scan
}

/// Whether the significant token at `i` is a method call: `.name(…)`.
fn is_method_call(ctx: &FileContext<'_>, i: usize) -> bool {
    i > 0 && ctx.sig_text(i - 1) == "." && ctx.sig_text(i + 1) == "("
}

/// The receiver name of the method call at `i`: the identifier owning the
/// final `.`, seeing through one trailing call pair (`self.state().lock()`
/// names the lock `state`). `None` for receivers with no nameable base.
fn receiver_name(ctx: &FileContext<'_>, i: usize) -> Option<String> {
    let before_dot = i.checked_sub(2)?;
    let token = ctx.sig_token(before_dot)?;
    if token.kind == TokenKind::Ident {
        return Some(ctx.sig_text(before_dot).to_string());
    }
    if ctx.sig_text(before_dot) == ")" {
        // Walk back over one balanced `(…)` to the call's name.
        let mut depth = 0usize;
        let mut j = before_dot;
        loop {
            match ctx.sig_text(j) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        let name_pos = j.checked_sub(1)?;
        if ctx.sig_token(name_pos)?.kind == TokenKind::Ident {
            return Some(ctx.sig_text(name_pos).to_string());
        }
    }
    None
}

/// Whether the statement containing significant position `i` begins with
/// `let` (searching back no further than `floor`).
fn statement_is_let(ctx: &FileContext<'_>, i: usize, floor: usize) -> bool {
    let mut j = i;
    while j > floor {
        match ctx.sig_text(j - 1) {
            ";" | "{" | "}" => break,
            _ => j -= 1,
        }
    }
    ctx.sig_text(j) == "let"
}

/// Receivers whose `.lock()` is standard-stream buffering, not a Mutex.
const NON_MUTEX_RECEIVERS: &[&str] = &["stdout", "stderr", "stdin"];

/// Collects "acquire B while holding A" edges from one function body using
/// the guard-lifetime heuristic: a let-bound guard is held until its block
/// closes, a temporary until its statement ends. `.read()`/`.write()` only
/// count as lock acquisitions in files that mention `RwLock` (they are
/// ubiquitous I/O methods otherwise).
fn lock_edges(
    ctx: &FileContext<'_>,
    fn_item: &crate::tree::Item,
    has_rwlock: bool,
    edges: &mut Vec<LockEdge>,
) {
    let mut held: Vec<(String, Scope)> = Vec::new();
    let mut depth = 1usize;
    for i in fn_item.open_sig + 1..fn_item.close_sig {
        match ctx.sig_text(i) {
            "{" => depth += 1,
            "}" => {
                held.retain(|(_, scope)| {
                    !matches!(scope, Scope::Block(d) if *d >= depth) && *scope != Scope::Stmt
                });
                depth = depth.saturating_sub(1);
            }
            ";" => held.retain(|(_, scope)| *scope != Scope::Stmt),
            method @ ("lock" | "read" | "write") => {
                if !is_method_call(ctx, i) || (method != "lock" && !has_rwlock) {
                    continue;
                }
                let Some(name) = receiver_name(ctx, i) else {
                    continue;
                };
                if NON_MUTEX_RECEIVERS.contains(&name.as_str()) {
                    continue;
                }
                let token = ctx.sig_token(i).copied();
                let Some(token) = token else { continue };
                for (from, _) in &held {
                    if *from != name {
                        edges.push(LockEdge {
                            crate_key: crate_key(ctx.rel_path),
                            from: from.clone(),
                            to: name.clone(),
                            path: ctx.rel_path.to_string(),
                            line: token.line,
                            excerpt: ctx.excerpt_at(token.line),
                        });
                    }
                }
                let scope = if statement_is_let(ctx, i, fn_item.open_sig) {
                    Scope::Block(depth)
                } else {
                    Scope::Stmt
                };
                if !held.iter().any(|(h, _)| *h == name) {
                    held.push((name, scope));
                }
            }
            _ => {}
        }
    }
}

/// Flags `thread::spawn(…)` whose `JoinHandle` is discarded: the call sits
/// at statement position (not let-bound, not a call argument, not returned)
/// and no `.join` follows it in the same statement. Scoped-thread spawns
/// (`s.spawn`) auto-join and are not matched.
fn detached_spawns(ctx: &FileContext<'_>, fn_item: &crate::tree::Item, out: &mut Vec<Finding>) {
    for i in fn_item.open_sig + 1..fn_item.close_sig {
        if ctx.sig_text(i) != "spawn"
            || ctx.sig_text(i + 1) != "("
            || i < 3
            || ctx.sig_text(i - 1) != ":"
            || ctx.sig_text(i - 2) != ":"
            || ctx.sig_text(i - 3) != "thread"
        {
            continue;
        }
        // Full path start: `thread::spawn` or `std::thread::spawn`.
        let path_start = if i >= 6
            && ctx.sig_text(i - 4) == ":"
            && ctx.sig_text(i - 5) == ":"
            && ctx.sig_text(i - 6) == "std"
        {
            i - 6
        } else {
            i - 3
        };
        // Statement position: nothing but the path between the previous
        // statement boundary and the call.
        let mut b = path_start;
        while b > fn_item.open_sig + 1 {
            match ctx.sig_text(b - 1) {
                ";" | "{" | "}" => break,
                _ => b -= 1,
            }
        }
        if b != path_start {
            continue; // let-bound, pushed, returned, or an argument
        }
        // Match the spawn's argument parens, then look for `.join` before
        // the statement ends.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < fn_item.close_sig {
            match ctx.sig_text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let mut joined = false;
        let mut k = j;
        while k < fn_item.close_sig && ctx.sig_text(k) != ";" {
            if ctx.sig_text(k) == "join" {
                joined = true;
                break;
            }
            k += 1;
        }
        if !joined {
            if let Some(token) = ctx.sig_token(i) {
                out.push(
                    ctx.finding(
                        "detached-spawn",
                        token,
                        "`thread::spawn` handle is discarded; join it or store it so the thread's \
                     outcome (and panics) cannot be silently lost"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

/// Channel-receive method names that yield results in arrival order.
const RECV_METHODS: &[&str] = &["recv", "try_recv", "recv_timeout", "recv_deadline"];

/// Positional accumulation methods whose insertion order becomes the
/// reduction order.
const ACCUM_METHODS: &[&str] = &["push", "extend", "append"];

/// Flags functions that receive results from a channel inside a loop and
/// accumulate them positionally without any `sort*` call before reduction —
/// worker completion order is nondeterministic, so the fold's result depends
/// on scheduling unless results are re-sorted by shard/clip ordinal.
fn unordered_merge(ctx: &FileContext<'_>, fn_item: &crate::tree::Item, out: &mut Vec<Finding>) {
    let body = fn_item.open_sig + 1..fn_item.close_sig;
    let mut first_loop: Option<usize> = None;
    let mut recv_at: Option<usize> = None;
    let mut has_accum = false;
    let mut has_sort = false;
    for i in body {
        let text = ctx.sig_text(i);
        match text {
            "for" | "while" | "loop" => {
                first_loop.get_or_insert(i);
            }
            _ if RECV_METHODS.contains(&text)
                && is_method_call(ctx, i)
                && first_loop.is_some_and(|l| l < i)
                && recv_at.is_none() =>
            {
                recv_at = Some(i);
            }
            _ if ACCUM_METHODS.contains(&text) && is_method_call(ctx, i) => has_accum = true,
            _ if text.starts_with("sort") && is_method_call(ctx, i) => has_sort = true,
            _ => {}
        }
    }
    if let (Some(recv), true, false) = (recv_at, has_accum, has_sort) {
        if let Some(token) = ctx.sig_token(recv) {
            out.push(
                ctx.finding(
                    "unordered-merge",
                    token,
                    "channel results received in a loop are accumulated without sorting; sort by \
                 shard/clip ordinal before reducing, or merge into an ordered container"
                        .to_string(),
                ),
            );
        }
    }
}

/// Resolves per-crate lock graphs into cycle findings. Edges are grouped by
/// crate, deduplicated per `(from, to)` (first site wins), and every
/// elementary cycle is reported once, at the site of the edge that closes
/// it back to the cycle's lexicographically smallest lock.
pub(crate) fn lock_cycle_findings(edges: &[LockEdge]) -> Vec<Finding> {
    let mut by_crate: BTreeMap<&str, BTreeMap<&str, BTreeMap<&str, &LockEdge>>> = BTreeMap::new();
    for edge in edges {
        by_crate
            .entry(edge.crate_key.as_str())
            .or_default()
            .entry(edge.from.as_str())
            .or_default()
            .entry(edge.to.as_str())
            .or_insert(edge);
    }
    let mut findings = Vec::new();
    for graph in by_crate.values() {
        let mut seen_cycles: BTreeSet<Vec<&str>> = BTreeSet::new();
        for &start in graph.keys() {
            let mut path = vec![start];
            dfs_cycles(
                graph,
                start,
                start,
                &mut path,
                &mut seen_cycles,
                &mut findings,
            );
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings
}

fn dfs_cycles<'a>(
    graph: &BTreeMap<&'a str, BTreeMap<&'a str, &'a LockEdge>>,
    start: &'a str,
    current: &'a str,
    path: &mut Vec<&'a str>,
    seen: &mut BTreeSet<Vec<&'a str>>,
    findings: &mut Vec<Finding>,
) {
    let Some(successors) = graph.get(current) else {
        return;
    };
    for (&next, &edge) in successors {
        if next == start {
            // Report each cycle once, anchored at its smallest lock name.
            if path.iter().min() == Some(&start) {
                let mut canonical: Vec<&str> = path.clone();
                canonical.sort_unstable();
                if seen.insert(canonical) {
                    let mut display = path.join(" → ");
                    display.push_str(" → ");
                    display.push_str(start);
                    findings.push(Finding {
                        rule: "lock-order".to_string(),
                        severity: crate::rules::severity_of("lock-order"),
                        path: edge.path.clone(),
                        line: edge.line,
                        message: format!(
                            "cyclic lock acquisition order {display}; acquire locks in one \
                             global order to make deadlock impossible"
                        ),
                        excerpt: edge.excerpt.clone(),
                        suppression_reason: None,
                    });
                }
            }
        } else if !path.contains(&next) && path.len() < 16 {
            path.push(next);
            dfs_cycles(graph, start, next, path, seen, findings);
            path.pop();
        }
    }
}
