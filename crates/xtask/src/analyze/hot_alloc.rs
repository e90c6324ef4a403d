//! Hot-path allocation and panic-reachability analysis.
//!
//! The hot-path files ([`crate::HOT_PATHS`]) run inside every
//! enumeration task or request dispatch; a per-iteration allocation or
//! a stray panic there is a real throughput or availability bug. Two
//! rule families run here:
//!
//! * **`hot-alloc-loop`** — allocation inside a loop body: container
//!   constructors (`Vec::new`, `String::new`, `HashMap::new`, …),
//!   allocating macros (`vec!`, `format!`), owning conversions
//!   (`.to_string()`, `.to_owned()`, `.to_vec()`), `.clone()` (a
//!   heuristic: the lexer cannot prove `Copy`, so justified clones
//!   carry an `xtask-allow`), and `.push(…)` onto a vec that was
//!   created un-sized (`let v = Vec::new()`) in the same function —
//!   the remedy is hoisting or `with_capacity`.
//! * **`unwrap` / `expect` / `panic` / `index-literal`** — the
//!   panic-family rules that used to live in `check` as per-line regex
//!   scans, now token-based (no more false hits inside strings or
//!   comments). The rule ids are unchanged so every existing
//!   `xtask-allow` escape keeps working. When the containing function
//!   is reachable from a driver entry point over the workspace call
//!   graph, the diagnostic says so — those are the panics that abort a
//!   worker mid-enumeration.

use super::{CallGraph, Finding, Severity, Workspace};
use crate::index::FileIndex;

/// Functions a panic escapes *from* into a worker or connection
/// thread: the pool's entry points and task loop, the engines' task
/// entry points, and the serve dispatch path.
const DRIVER_ENTRIES: &[&str] =
    &["par_run", "run_one", "worker_loop", "run_task", "run_node", "handle_conn"];

/// Container types whose `::new()` / `::with_capacity()` /
/// `::default()` allocate (or will on first push).
const CONTAINERS: &[&str] =
    &["Vec", "VecDeque", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Box"];

/// Owning conversion methods that allocate a fresh buffer.
const OWNING_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "clone"];

/// Runs both rule families over the hot-path files.
pub fn run(ws: &Workspace<'_>, graph: &CallGraph) -> Vec<Finding> {
    let reachable = graph.reachable_from(DRIVER_ENTRIES);
    let mut out = Vec::new();
    for (fi, idx) in ws.files.iter().enumerate() {
        if !crate::HOT_PATHS.iter().any(|p| idx.rel.starts_with(p)) {
            continue;
        }
        for (gi, f) in idx.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let Some((body_s, body_e)) = f.body else { continue };
            let node = graph.nodes.iter().position(|&(nfi, ngi)| nfi == fi && ngi == gi);
            let fn_reachable = node.is_some_and(|n| reachable[n]);
            let loops = loop_ranges(idx, body_s, body_e);
            let unsized_locals = unsized_vec_locals(idx, body_s, body_e);
            for ci in body_s..=body_e {
                scan_token(idx, ci, &loops, &unsized_locals, fn_reachable, &mut out);
            }
        }
    }
    out
}

/// Applies every rule to the code token at `ci`.
fn scan_token(
    idx: &FileIndex<'_>,
    ci: usize,
    loops: &[(usize, usize)],
    unsized_locals: &[&str],
    fn_reachable: bool,
    out: &mut Vec<Finding>,
) {
    let t = idx.text(ci);
    let in_loop = loops.iter().any(|&(s, e)| ci > s && ci < e);
    let next_is =
        |off: usize, what: &str| idx.code.get(ci + off).is_some_and(|_| idx.text(ci + off) == what);
    let prev_is = |what: &str| ci > 0 && idx.text(ci - 1) == what;

    // Panic family (legacy `check` rule ids).
    let reach = if fn_reachable { "; reachable from a driver entry point" } else { "" };
    if t == "unwrap" && prev_is(".") && next_is(1, "(") {
        out.push(Finding::at(
            "unwrap",
            Severity::Error,
            idx,
            ci,
            format!("no .unwrap() in hot-path modules{reach}"),
        ));
    }
    if t == "expect" && prev_is(".") && next_is(1, "(") {
        out.push(Finding::at(
            "expect",
            Severity::Error,
            idx,
            ci,
            format!("no .expect() in hot-path modules{reach}"),
        ));
    }
    if matches!(t, "panic" | "unreachable" | "todo" | "unimplemented") && next_is(1, "!") {
        out.push(Finding::at(
            "panic",
            Severity::Error,
            idx,
            ci,
            format!("no {t}! in hot-path modules{reach}"),
        ));
    }
    if t == "["
        && ci > 0
        && indexes_value(idx.text(ci - 1))
        && idx.code.get(ci + 2).is_some()
        && idx.text(ci + 1).bytes().all(|b| b.is_ascii_digit())
        && !idx.text(ci + 1).is_empty()
        && idx.text(ci + 2) == "]"
    {
        out.push(Finding::at(
            "index-literal",
            Severity::Error,
            idx,
            ci,
            "no indexing by integer literal in hot-path modules".to_string(),
        ));
    }

    // Allocation in loops.
    if !in_loop {
        return;
    }
    if CONTAINERS.contains(&t)
        && next_is(1, "::")
        && idx
            .code
            .get(ci + 2)
            .is_some_and(|_| matches!(idx.text(ci + 2), "new" | "with_capacity" | "default"))
        && next_is(3, "(")
        // `return Vec::new()` hands back an empty container — that
        // never allocates, and there is nothing to hoist.
        && !prev_is("return")
    {
        out.push(Finding::at(
            "hot-alloc-loop",
            Severity::Error,
            idx,
            ci,
            format!(
                "`{t}::{}()` allocates every iteration of a hot loop; hoist it (or reuse a \
                 cleared buffer)",
                idx.text(ci + 2)
            ),
        ));
    }
    if matches!(t, "vec" | "format") && next_is(1, "!") {
        out.push(Finding::at(
            "hot-alloc-loop",
            Severity::Error,
            idx,
            ci,
            format!("`{t}!` allocates every iteration of a hot loop; hoist or pre-render it"),
        ));
    }
    if OWNING_METHODS.contains(&t) && prev_is(".") && next_is(1, "(") {
        let detail = if t == "clone" {
            "clones its receiver every iteration of a hot loop (non-`Copy` heuristic); \
             borrow or hoist it"
        } else {
            "allocates an owned copy every iteration of a hot loop; borrow or hoist it"
        };
        out.push(Finding::at(
            "hot-alloc-loop",
            Severity::Error,
            idx,
            ci,
            format!("`.{t}()` {detail}"),
        ));
    }
    if t == "push" && prev_is(".") && next_is(1, "(") && ci >= 2 {
        let recv = idx.text(ci - 2);
        if unsized_locals.contains(&recv) {
            out.push(Finding::at(
                "hot-alloc-loop",
                Severity::Error,
                idx,
                ci,
                format!(
                    "`{recv}.push(…)` grows a container created without a capacity in this \
                     function; pre-size it with `with_capacity` (or `reserve`)"
                ),
            ));
        }
    }
}

/// `true` when `prev` (the token before `[`) is a value expression a
/// subscript applies to — mirrors the retired `check` heuristic.
fn indexes_value(prev: &str) -> bool {
    prev == ")"
        || prev == "]"
        || prev.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// `{ … }` extents of every `for` / `while` / `loop` body inside the
/// fn body range. `for<'a>` higher-ranked bounds are not loops.
fn loop_ranges(idx: &FileIndex<'_>, body_s: usize, body_e: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for ci in body_s..=body_e {
        if !matches!(idx.text(ci), "for" | "while" | "loop") {
            continue;
        }
        if idx.code.get(ci + 1).is_some_and(|_| idx.text(ci + 1) == "<") {
            continue; // `for<'a> Fn(…)` bound
        }
        // The body `{` is the first one at bracket/paren depth 0 after
        // the header.
        let mut depth = 0i64;
        for j in ci + 1..=body_e {
            match idx.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    out.push((j, idx.matching_brace(j)));
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
    }
    out
}

/// Local bindings in this fn of the form `let [mut] name =
/// <Container>::new()` with no later `name.reserve(…)` — pushes onto
/// these inside a loop reallocate repeatedly.
fn unsized_vec_locals<'a>(idx: &FileIndex<'a>, body_s: usize, body_e: usize) -> Vec<&'a str> {
    let mut names = Vec::new();
    for ci in body_s..=body_e {
        if idx.text(ci) != "let" {
            continue;
        }
        let mut j = ci + 1;
        if idx.code.get(j).is_some_and(|_| idx.text(j) == "mut") {
            j += 1;
        }
        if idx.code.get(j + 4).is_none() {
            continue;
        }
        let name = idx.text(j);
        if idx.text(j + 1) == "="
            && CONTAINERS.contains(&idx.text(j + 2))
            && idx.text(j + 3) == "::"
            && idx.text(j + 4) == "new"
        {
            names.push(name);
        }
    }
    names.retain(|name| {
        !(body_s..=body_e.saturating_sub(2)).any(|ci| {
            idx.text(ci) == *name && idx.text(ci + 1) == "." && idx.text(ci + 2) == "reserve"
        })
    });
    names
}

#[cfg(test)]
mod tests {
    use super::super::tests::sources;
    use super::super::{run_passes, Finding};

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        run_passes(&sources(&[(rel, src)]), "")
    }

    fn rules(fs: &[Finding]) -> Vec<&'static str> {
        fs.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn constructors_and_macros_flagged_only_inside_loops() {
        let src =
            "fn f(n: usize) -> Vec<Vec<u32>> {\n    let mut out = Vec::with_capacity(n);\n    \
                   for i in 0..n {\n        let row = Vec::new();\n        out.push(row);\n        \
                   let s = format!(\"{i}\");\n        drop(s);\n    }\n    out\n}\n";
        let got = findings("crates/setops/src/lib.rs", src);
        assert_eq!(rules(&got), vec!["hot-alloc-loop", "hot-alloc-loop"], "{got:?}");
        assert_eq!(got[0].line, 4, "Vec::new in the loop");
        assert_eq!(got[1].line, 6, "format! in the loop");
        // The same allocations outside a hot path are fine.
        assert!(findings("crates/gen/src/lib.rs", src).is_empty());
        // Returning an empty container allocates nothing.
        let ret = "fn f(xs: &[u32]) -> Vec<u32> {\n    for &x in xs {\n        \
                   if x == 0 {\n            return Vec::new();\n        }\n    }\n    \
                   Vec::with_capacity(1)\n}\n";
        assert!(findings("crates/setops/src/lib.rs", ret).is_empty());
    }

    #[test]
    fn push_onto_unsized_local_flagged_presized_ok() {
        let bad = "fn f(xs: &[u32]) -> Vec<u32> {\n    let mut out = Vec::new();\n    \
                   for &x in xs {\n        out.push(x);\n    }\n    out\n}\n";
        let got = findings("crates/ptree/src/lib.rs", bad);
        assert_eq!(rules(&got), vec!["hot-alloc-loop"], "{got:?}");
        assert_eq!(got[0].line, 4);
        let sized =
            "fn f(xs: &[u32]) -> Vec<u32> {\n    let mut out = Vec::with_capacity(xs.len());\n    \
                     for &x in xs {\n        out.push(x);\n    }\n    out\n}\n";
        assert!(findings("crates/ptree/src/lib.rs", sized).is_empty());
        // A reserve call sanctions an initially-unsized buffer …
        let reserved = "fn f(xs: &[u32]) -> Vec<u32> {\n    let mut out = Vec::new();\n    \
                        out.reserve(xs.len());\n    for &x in xs {\n        out.push(x);\n    }\n    out\n}\n";
        assert!(findings("crates/ptree/src/lib.rs", reserved).is_empty());
        // … and pushes onto caller-owned buffers are the caller's concern.
        let param = "fn f(xs: &[u32], out: &mut Vec<u32>) {\n    for &x in xs {\n        \
                     out.push(x);\n    }\n}\n";
        assert!(findings("crates/ptree/src/lib.rs", param).is_empty());
    }

    #[test]
    fn owning_conversions_and_clone_flagged_in_loops() {
        let src = "fn f(xs: &[String]) -> usize {\n    let mut n = 0;\n    for x in xs {\n        \
                   let y = x.clone();\n        let z = y.to_string();\n        n += z.len();\n    }\n    n\n}\n";
        let got = findings("crates/mbe/src/mbet.rs", src);
        assert_eq!(rules(&got), vec!["hot-alloc-loop", "hot-alloc-loop"], "{got:?}");
        assert!(got[0].message.contains("clone"), "{}", got[0].message);
    }

    #[test]
    fn legacy_panic_family_ids_survive_with_spans() {
        let src = "fn f(v: &[u32]) -> u32 {\n    if v.is_empty() { panic!(\"no\"); }\n    \
                   v.iter().next().copied().expect(\"x\") + v[0]\n}\n";
        let got = findings("crates/mbe/src/mbet.rs", src);
        assert_eq!(rules(&got), vec!["panic", "expect", "index-literal"], "{got:?}");
        assert_eq!((got[0].line, got[1].line, got[2].line), (2, 3, 3));
        // Tokens inside strings and comments no longer trip the rules.
        let strings = "fn f() -> &'static str {\n    // .unwrap() in prose\n    \
                       \"call .unwrap() and panic!\"\n}\n";
        assert!(findings("crates/mbe/src/mbet.rs", strings).is_empty());
    }

    #[test]
    fn reachability_from_driver_entries_is_noted() {
        let src = "fn worker_loop(v: Vec<u32>) -> u32 {\n    helper(v)\n}\n\
                   fn helper(v: Vec<u32>) -> u32 {\n    *v.first().unwrap()\n}\n\
                   fn idle(v: Vec<u32>) -> u32 {\n    *v.last().unwrap()\n}\n";
        let got = findings("crates/mbe/src/parallel.rs", src);
        assert_eq!(rules(&got), vec!["unwrap", "unwrap"]);
        assert!(got[0].message.contains("reachable"), "{}", got[0].message);
        assert!(!got[1].message.contains("reachable"), "{}", got[1].message);
    }

    #[test]
    fn index_literal_slice_literals_do_not_count() {
        let src = "fn f() -> [u32; 2] {\n    let s = &[0];\n    let t = [3];\n    \
                   [s[0], t[0]]\n}\n";
        let got = findings("crates/setops/src/lib.rs", src);
        assert_eq!(rules(&got), vec!["index-literal", "index-literal"], "{got:?}");
        assert_eq!(got[0].line, 4);
    }
}
