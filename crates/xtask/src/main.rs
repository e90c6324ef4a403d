//! Workspace tooling: `cargo run -p xtask -- <check | analyze |
//! trace-check FILE | bench-snapshot [OUT] | bench-diff OLD NEW>`.
//!
//! * `check` — the line-based convention pass described below;
//! * `analyze` — the token-level cross-file static analysis
//!   ([`analyze`]): lock-order cycles, hot-path allocation and
//!   panic reachability, protocol exhaustiveness, observer-hook
//!   balance, gated against the committed
//!   `xtask-analyze-baseline.json`;
//! * `trace-check FILE` — validates a `--trace` JSONL run trace
//!   ([`trace_check`]);
//! * `bench-snapshot [OUT] [--preset-filter PREFIX]` — runs the
//!   calibration bench and records a committed JSON snapshot, optionally
//!   keeping only presets whose abbreviation starts with `PREFIX`
//!   ([`snapshot`]);
//! * `bench-diff OLD NEW` — compares two snapshots: fails on any
//!   biclique-count difference, reports per-preset speedups
//!   ([`benchdiff`]).
//!
//! `check` is a zero-dependency static-analysis pass over every `.rs`
//! file in the workspace, enforcing the repo conventions that `clippy`
//! cannot express (see README.md "Static analysis & invariants"):
//!
//! * **unsafe** — no `unsafe` anywhere, and every crate root
//!   (`src/lib.rs` / `src/main.rs`) carries `#![forbid(unsafe_code)]`;
//! * **lock-unwrap** — no bare `.unwrap()` on `Mutex`/`RwLock` lock
//!   results anywhere outside tests: a panicking worker poisons its
//!   locks, and an `.unwrap()` on the poisoned result turns one
//!   contained panic into a cascade (use
//!   `unwrap_or_else(PoisonError::into_inner)` as the parallel driver
//!   does);
//! * **net-timeout** — non-test code naming the blocking TCP stream type
//!   must set an explicit read timeout somewhere in the same file: a
//!   deadline-less socket read wedges its thread on a stalled peer (the
//!   serve crate's poll-loop pattern);
//! * **println** — no `println!` outside the `cli`, `bench`, and `xtask`
//!   crates (library crates report through sinks and `Stats`);
//! * **doc** — every `pub` item in `mbe` and `bigraph` is documented;
//! * **tuple-return** — no `pub fn` in `mbe` returning `Option<(`…`)` or
//!   a bare `(Vec<`…`)` tuple: results go through the `Report` /
//!   `MbeError` vocabulary of the `Enumeration` API, and only the
//!   deprecated compatibility shims carry explicit escapes;
//! * **todo** — task markers must carry an issue tag, `TODO(#123)`-style.
//!
//! The panic-family rules (`unwrap` / `expect` / `panic` /
//! `index-literal` in the hot-path modules) used to live here as
//! per-line regex scans; they moved to `analyze` where the token
//! stream makes them immune to strings and comments, keeping their
//! rule ids (and so every existing `xtask-allow` escape).
//!
//! Test code (`#[cfg(test)]` regions) is exempt from all rules — the
//! compiler-level `forbid(unsafe_code)` still covers it. Individual
//! lines opt out with `// xtask-allow: <rule>[, <rule>...]` on the same
//! line or on a comment line directly above; every allow must name the
//! rule it suppresses.

#![forbid(unsafe_code)]

mod analyze;
mod benchdiff;
mod index;
mod lexer;
mod snapshot;
mod trace_check;

use std::fmt;
use std::path::{Path, PathBuf};

/// Modules whose panics abort enumeration mid-flight: the panic-family
/// and hot-allocation rules in [`analyze`] apply only here. `obs.rs` and `histogram.rs` qualify because
/// observer hooks and metrics recording run inside every task loop; the
/// serve request path (framing, codec, dispatch) qualifies because a
/// panic there kills a connection thread mid-reply and strands the
/// client — `bigraph`'s `codec.rs` included, since its `Reader` decodes
/// every request and reply. `admission.rs` stays out: its pool setup intentionally
/// panics on spawn failure before any request is accepted.
const HOT_PATHS: &[&str] = &[
    "crates/setops/src/",
    "crates/ptree/src/",
    "crates/bigraph/src/codec.rs",
    "crates/mbe/src/mbet.rs",
    "crates/mbe/src/parallel.rs",
    "crates/mbe/src/obs.rs",
    "crates/mbe/src/histogram.rs",
    "crates/serve/src/wire.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/coordinator.rs",
    "crates/serve/src/shard.rs",
    "crates/serve/src/health.rs",
    "crates/serve/src/span.rs",
    "crates/serve/src/telemetry.rs",
];

/// Crates allowed to print to stdout (user-facing output or bench
/// reports; `vendor/criterion` is the bench reporter itself).
const PRINTLN_OK: &[&str] =
    &["crates/cli/", "crates/bench/", "crates/xtask/", "vendor/criterion/", "examples/"];

/// Crates whose public API surface must be fully documented.
const DOC_PATHS: &[&str] = &["crates/mbe/src/", "crates/bigraph/src/"];

/// Crates whose `pub fn`s must not return bare tuples (`Option<(`… or
/// `(Vec<`…): the run-control API replaced those signatures with
/// [`Report`]-style results, and new code must not regress to them.
const TUPLE_RETURN_PATHS: &[&str] = &["crates/mbe/src/"];

/// Return-type shapes the `tuple-return` rule bans on `pub fn` lines.
const TUPLE_NEEDLES: &[&str] = &["-> Option<(", "-> (Vec<"];

// Needles are spliced so this file does not flag itself when scanned.
const RULE_UNSAFE: &str = concat!("un", "safe");
const NEEDLE_TODO: &str = concat!("TO", "DO");
const NEEDLE_FIXME: &str = concat!("FIX", "ME");
const FORBID_ATTR: &str = "#![forbid(unsafe_code)]";

/// Lock acquisitions whose `Err` is only ever poisoning: `.unwrap()`ing
/// them cascades one contained panic across every thread that touches
/// the lock afterwards.
const LOCK_UNWRAP_NEEDLES: &[&str] = &[
    concat!(".lock().unwr", "ap()"),
    concat!(".read().unwr", "ap()"),
    concat!(".write().unwr", "ap()"),
];

/// The blocking socket type whose reads wedge forever without a
/// deadline, and the call that sets one. A non-test file mentioning the
/// former must contain the latter (see the `net-timeout` rule).
const NET_TYPE_NEEDLE: &str = concat!("Tcp", "Stream");
const NET_TIMEOUT_NEEDLE: &str = concat!("set_read_timeout", "(Some(");

/// One broken rule at one source line.
#[derive(Debug, PartialEq, Eq)]
struct Violation {
    path: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("check") => run_check(),
        Some("analyze") => {
            let rest: Vec<String> = args.collect();
            analyze::run(&workspace_root(), &rest)
        }
        Some("trace-check") => match args.next() {
            Some(flag) if flag == "--distributed" => match args.next() {
                Some(dir) => trace_check::run_distributed(&dir),
                None => usage(Some("trace-check --distributed requires a directory")),
            },
            Some(path) => trace_check::run(&path),
            None => usage(Some("trace-check requires a trace file path")),
        },
        Some("bench-snapshot") => {
            let mut out: Option<String> = None;
            let mut filter: Option<String> = None;
            let rest: Vec<String> = args.collect();
            let mut it = rest.into_iter();
            while let Some(arg) = it.next() {
                if arg == "--preset-filter" {
                    match it.next() {
                        Some(f) => filter = Some(f),
                        None => usage(Some("--preset-filter requires a prefix argument")),
                    }
                } else if arg.starts_with("--") {
                    usage(Some(&format!("unknown bench-snapshot flag: {arg}")));
                } else if out.is_none() {
                    out = Some(arg);
                } else {
                    usage(Some(&format!("unexpected bench-snapshot argument: {arg}")));
                }
            }
            snapshot::run(&workspace_root(), out.as_deref(), filter.as_deref())
        }
        Some("bench-diff") => match (args.next(), args.next()) {
            (Some(old), Some(new)) => benchdiff::run(&workspace_root(), &old, &new),
            _ => usage(Some("bench-diff requires OLD and NEW snapshot paths")),
        },
        other => usage(other),
    }
}

/// Prints usage (with an optional offending input) and exits 2.
fn usage(cmd: Option<&str>) -> ! {
    eprintln!(
        "usage: cargo run -p xtask -- \
         <check | analyze [--update-baseline] [--json OUT] | \
         trace-check <FILE | --distributed DIR> | \
         bench-snapshot [OUT] [--preset-filter PREFIX] | bench-diff OLD NEW>"
    );
    if let Some(cmd) = cmd {
        eprintln!("unknown or incomplete command: {cmd}");
    }
    std::process::exit(2);
}

/// The `check` subcommand: the full static-analysis pass.
fn run_check() {
    let root = workspace_root();
    let files = collect_rs_files(&root);
    let mut violations = Vec::new();
    for path in &files {
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        let rel = path.strip_prefix(&root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        violations.extend(scan_file(&rel, &content));
        violations.extend(check_crate_root(&rel, &content));
    }
    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    for v in &violations {
        println!("{v}");
    }
    // The hot-path panic-family rules moved to the token-based engine.
    println!(
        "xtask check: note: the unwrap/expect/panic/index-literal rules now run under \
         `cargo run -p xtask -- analyze`"
    );
    if violations.is_empty() {
        println!("xtask check: {} files clean", files.len());
    } else {
        println!("xtask check: {} violation(s) in {} files", violations.len(), files.len());
        std::process::exit(1);
    }
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// Every `.rs` file under `root`, skipping build output and VCS state.
fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Crate roots must carry the compiler-level unsafe ban; the textual
/// rules below are only the belt on top of that suspenders.
fn check_crate_root(rel: &str, content: &str) -> Option<Violation> {
    let is_root =
        rel == "src/lib.rs" || rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs");
    if is_root && !content.contains(FORBID_ATTR) {
        return Some(Violation {
            path: rel.to_string(),
            line: 1,
            rule: RULE_UNSAFE,
            msg: format!("crate root missing `{FORBID_ATTR}`"),
        });
    }
    None
}

/// Runs every line rule over one file. Pure on `(path, content)` so the
/// self-tests can feed synthetic sources.
fn scan_file(rel: &str, content: &str) -> Vec<Violation> {
    let println_ok = PRINTLN_OK.iter().any(|p| rel.starts_with(p));
    let doc_required = DOC_PATHS.iter().any(|p| rel.starts_with(p));
    let tuple_banned = TUPLE_RETURN_PATHS.iter().any(|p| rel.starts_with(p));
    // `net-timeout` is file-level: the socket mention and the timeout
    // call are usually on different lines, so the requirement is "the
    // file configures one somewhere". Integration tests drive sockets
    // through the library APIs and are exempt wholesale.
    let net_checked = !rel.contains("/tests/");
    let has_net_timeout = content.contains(NET_TIMEOUT_NEEDLE);
    let mut net_line: Option<usize> = None;

    let mut out = Vec::new();
    let mut depth: i64 = 0;
    let mut test_region: Option<i64> = None;
    let mut pending_cfg_test = false;
    let mut prev_allows: Vec<String> = Vec::new();
    let mut has_doc = false;
    let mut attr_depth: i64 = 0;

    for (idx, raw) in content.lines().enumerate() {
        let line = idx + 1;
        let allows = parse_allows(raw);
        let code = strip_line_comment(raw);
        let trimmed = code.trim();

        // Enter a `#[cfg(test)] mod ... { ... }` region.
        if test_region.is_none() {
            if trimmed.starts_with("#[cfg(") && trimmed.contains("test") {
                pending_cfg_test = true;
            } else if pending_cfg_test && !trimmed.is_empty() && !trimmed.starts_with("#[") {
                if code.contains('{') {
                    test_region = Some(depth);
                }
                pending_cfg_test = false;
            }
        }
        let in_test = test_region.is_some();

        let allowed =
            |rule: &str| allows.iter().any(|a| a == rule) || prev_allows.iter().any(|a| a == rule);

        if !in_test {
            if contains_word(code, RULE_UNSAFE) && !allowed(RULE_UNSAFE) {
                out.push(violation(rel, line, RULE_UNSAFE, &format!("{RULE_UNSAFE} is banned")));
            }
            if LOCK_UNWRAP_NEEDLES.iter().any(|n| code.contains(n)) && !allowed("lock-unwrap") {
                out.push(violation(
                    rel,
                    line,
                    "lock-unwrap",
                    "handle lock poisoning (unwrap_or_else(PoisonError::into_inner)), \
                     don't .unwrap() the lock result",
                ));
            }
            // `contains_word` keeps `eprintln!` (stderr diagnostics, fine
            // in any crate) from tripping the stdout rule.
            if !println_ok && contains_word(code, "println") && !allowed("println") {
                out.push(violation(
                    rel,
                    line,
                    "println",
                    "println! is reserved for cli/bench crates",
                ));
            }
            if doc_required {
                if let Some(item) = pub_item(trimmed) {
                    if !has_doc && !allowed("doc") {
                        out.push(violation(
                            rel,
                            line,
                            "doc",
                            &format!("undocumented pub item: {item}"),
                        ));
                    }
                }
            }
            if tuple_banned
                && code.contains("pub fn")
                && TUPLE_NEEDLES.iter().any(|n| code.contains(n))
                && !allowed("tuple-return")
            {
                out.push(violation(
                    rel,
                    line,
                    "tuple-return",
                    "pub fns in mbe return Report/Result, not bare tuples",
                ));
            }
            if net_checked
                && net_line.is_none()
                && code.contains(NET_TYPE_NEEDLE)
                && !allowed("net-timeout")
            {
                net_line = Some(line);
            }
            if untagged_todo(raw) && !allowed("todo") {
                out.push(violation(
                    rel,
                    line,
                    "todo",
                    &format!("{NEEDLE_TODO}/{NEEDLE_FIXME} requires an issue tag, e.g. {NEEDLE_TODO}(#123)"),
                ));
            }
        }

        // Track doc-comment adjacency for the `doc` rule. Plain `//`
        // comments (e.g. standalone `xtask-allow` markers) between a doc
        // comment and its item do not detach the docs — rustdoc skips
        // them too — and neither does any line of a multi-line attribute
        // (`#[deprecated(` … `)]`), tracked by bracket depth.
        let t = raw.trim_start();
        let attr_continuation = attr_depth > 0;
        if attr_continuation || t.starts_with("#[") {
            attr_depth += code.matches('[').count() as i64 - code.matches(']').count() as i64;
        }
        if t.starts_with("///") || t.starts_with("//!") || t.starts_with("#[doc") {
            has_doc = true;
        } else if !attr_continuation && !t.starts_with("#[") && !t.starts_with("//") {
            has_doc = false;
        }

        // Track brace depth to find the end of a test region.
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        if let Some(d) = test_region {
            if depth <= d {
                test_region = None;
            }
        }

        // A standalone allow comment covers the next line.
        prev_allows = if trimmed.is_empty() { allows } else { Vec::new() };
    }
    if let Some(line) = net_line {
        if !has_net_timeout {
            out.push(violation(
                rel,
                line,
                "net-timeout",
                "blocking socket reads need a deadline: a file using this socket type \
                 must call set_read_timeout(Some(..)) (or carry an xtask-allow)",
            ));
            out.sort_by_key(|v| v.line);
        }
    }
    out
}

fn violation(path: &str, line: usize, rule: &'static str, msg: &str) -> Violation {
    Violation { path: path.to_string(), line, rule, msg: msg.to_string() }
}

/// Rules named by an `xtask-allow:` marker on this line.
fn parse_allows(line: &str) -> Vec<String> {
    match line.find("xtask-allow:") {
        Some(i) => line[i + "xtask-allow:".len()..]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
        None => Vec::new(),
    }
}

/// The line with any `//` comment removed (string literals containing
/// `//` are truncated too — acceptable for a conservative lint).
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// `true` iff `needle` occurs in `haystack` delimited by non-identifier
/// characters on both sides.
fn contains_word(haystack: &str, needle: &str) -> bool {
    let bytes = haystack.as_bytes();
    let is_word = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let ok_before = start == 0 || !is_word(bytes[start - 1]);
        let ok_after = end == bytes.len() || !is_word(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = start + 1;
    }
    false
}

/// The pub item a (trimmed) line declares, if any: `pub fn`-style items
/// and pub struct fields. Re-exports (`pub use`) inherit their target's
/// docs and restricted visibility (`pub(crate)`) is not public API.
fn pub_item(trimmed: &str) -> Option<String> {
    let rest = trimmed.strip_prefix("pub ")?;
    let word: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    // `pub mod name;` takes its docs from the module file's `//!` header,
    // which a line-based scan cannot see — only inline modules are held
    // to the adjacency rule.
    if word == "mod" && trimmed.ends_with(';') {
        return None;
    }
    match word.as_str() {
        "fn" | "struct" | "enum" | "trait" | "mod" | "const" | "static" | "type" => {
            let name: String = rest[word.len()..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            Some(format!("{word} {name}"))
        }
        "use" => None,
        _ => {
            // A struct field: `pub name: Type`.
            let colon = rest.find(':')?;
            let name = rest[..colon].trim();
            let is_ident =
                !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            if is_ident {
                Some(format!("field {name}"))
            } else {
                None
            }
        }
    }
}

/// `true` iff the raw line carries an untagged task marker (the marker
/// word itself, not embedded in a longer identifier).
fn untagged_todo(raw: &str) -> bool {
    let bytes = raw.as_bytes();
    let is_word = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    for needle in [NEEDLE_TODO, NEEDLE_FIXME] {
        let mut from = 0;
        while let Some(pos) = raw[from..].find(needle) {
            let start = from + pos;
            let end = start + needle.len();
            let word_alone = (start == 0 || !is_word(bytes[start - 1]))
                && (end == bytes.len() || !is_word(bytes[end]));
            if word_alone && !raw[end..].starts_with("(#") {
                return true;
            }
            from = start + 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn injected_unsafe_is_flagged_anywhere() {
        let src = "pub fn f(p: *const u8) {\n    unsafe { p.read(); }\n}\n";
        let got = scan_file("crates/gen/src/lib.rs", src);
        assert_eq!(rules(&got), vec![RULE_UNSAFE]);
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn allow_comment_suppresses_on_same_and_previous_line() {
        let inline = "fn f() {\n    println!(\"x\"); // xtask-allow: println\n}\n";
        assert!(scan_file("crates/mbe/src/lib.rs", inline).is_empty());
        let above = "fn f() {\n    // xtask-allow: println\n    println!(\"x\");\n}\n";
        assert!(scan_file("crates/mbe/src/lib.rs", above).is_empty());
        // An allow for a different rule does not suppress.
        let wrong = "fn f() {\n    println!(\"x\"); // xtask-allow: todo\n}\n";
        assert_eq!(rules(&scan_file("crates/mbe/src/lib.rs", wrong)), vec!["println"]);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   println!(\"dbg\");\n    }\n}\n";
        assert!(scan_file("crates/setops/src/lib.rs", src).is_empty());
        // ...and code after the region is scanned again.
        let after = format!("{src}\nfn g() {{\n    println!(\"dbg\");\n}}\n");
        assert_eq!(rules(&scan_file("crates/setops/src/lib.rs", &after)), vec!["println"]);
    }

    #[test]
    fn lock_unwrap_flagged_everywhere_outside_tests() {
        for needle in LOCK_UNWRAP_NEEDLES {
            let src = format!("fn f() -> u32 {{\n    *state{needle}\n}}\n");
            // Applies in every crate, not just hot paths.
            assert_eq!(rules(&scan_file("crates/gen/src/lib.rs", &src)), vec!["lock-unwrap"]);
            assert_eq!(rules(&scan_file("crates/cli/src/main.rs", &src)), vec!["lock-unwrap"]);
        }
        // Recovering the guard from a poisoned lock is the sanctioned form.
        let ok = "fn f() {\n    \
                  let g = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n    \
                  drop(g);\n}\n";
        assert!(scan_file("crates/gen/src/lib.rs", ok).is_empty());
        // Escapes and test regions work as for every other rule.
        let escaped = format!(
            "fn f() -> u32 {{\n    // xtask-allow: lock-unwrap\n    *state{}\n}}\n",
            LOCK_UNWRAP_NEEDLES[0]
        );
        assert!(scan_file("crates/gen/src/lib.rs", &escaped).is_empty());
        let in_test = format!(
            "#[cfg(test)]\nmod tests {{\n    fn f() -> u32 {{\n        *state{}\n    }}\n}}\n",
            LOCK_UNWRAP_NEEDLES[0]
        );
        assert!(scan_file("crates/gen/src/lib.rs", &in_test).is_empty());
        // Hot paths get no special treatment here any more (the
        // token-based unwrap rule lives in `analyze` now).
        let hot = format!("fn f() -> u32 {{\n    *state{}\n}}\n", LOCK_UNWRAP_NEEDLES[0]);
        assert_eq!(rules(&scan_file("crates/mbe/src/parallel.rs", &hot)), vec!["lock-unwrap"]);
    }

    #[test]
    fn println_allowed_only_in_output_crates() {
        let src = "fn f() {\n    println!(\"hi\");\n}\n";
        assert_eq!(rules(&scan_file("crates/mbe/src/lib.rs", src)), vec!["println"]);
        assert!(scan_file("crates/cli/src/main.rs", src).is_empty());
        assert!(scan_file("crates/bench/src/lib.rs", src).is_empty());
        // Stderr diagnostics are fine everywhere.
        let stderr = "fn f() {\n    eprintln!(\"hi\");\n}\n";
        assert!(scan_file("crates/mbe/src/lib.rs", stderr).is_empty());
        assert!(scan_file("crates/serve/src/server.rs", stderr).is_empty());
    }

    #[test]
    fn undocumented_pub_items_flagged_in_api_crates() {
        let src = "pub fn frob() {}\n";
        assert_eq!(rules(&scan_file("crates/mbe/src/util.rs", src)), vec!["doc"]);
        assert_eq!(rules(&scan_file("crates/bigraph/src/io.rs", src)), vec!["doc"]);
        // Other crates are not held to the doc rule.
        assert!(scan_file("crates/gen/src/lib.rs", src).is_empty());
        // A doc comment (even under attributes) satisfies it.
        let documented = "/// Frobs.\n#[inline]\npub fn frob() {}\n";
        assert!(scan_file("crates/mbe/src/util.rs", documented).is_empty());
        // Fields count as pub items; `pub use` re-exports do not.
        let field = "/// S.\npub struct S {\n    pub x: u32,\n}\n";
        assert_eq!(rules(&scan_file("crates/mbe/src/util.rs", field)), vec!["doc"]);
        assert!(scan_file("crates/mbe/src/lib.rs", "pub use crate::metrics::Stats;\n").is_empty());
    }

    #[test]
    fn tuple_returns_flagged_in_mbe_only() {
        let opt = "/// Docs.\npub fn f() -> Option<(Vec<u32>, u64)> {\n    None\n}\n";
        assert_eq!(rules(&scan_file("crates/mbe/src/lib.rs", opt)), vec!["tuple-return"]);
        let tup = "/// Docs.\npub fn f() -> (Vec<u32>, u64) {\n    (Vec::new(), 0)\n}\n";
        assert_eq!(rules(&scan_file("crates/mbe/src/extremal.rs", tup)), vec!["tuple-return"]);
        // Other crates may return tuples.
        assert!(scan_file("crates/bigraph/src/order.rs", tup).is_empty());
        // Result-wrapped tuples and non-pub helpers are fine.
        let ok = "/// Docs.\npub fn f() -> Result<(Vec<u32>, u64), ()> {\n    todo_ok()\n}\n\
                  fn g() -> (Vec<u32>, u64) {\n    (Vec::new(), 0)\n}\n";
        assert!(scan_file("crates/mbe/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn tuple_return_allow_escape_and_test_exemption() {
        let shim = "/// Docs.\n#[deprecated]\n// xtask-allow: tuple-return\n\
                    pub fn f() -> (Vec<u32>, u64) {\n    (Vec::new(), 0)\n}\n";
        assert!(scan_file("crates/mbe/src/lib.rs", shim).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    \
                       pub fn helper() -> (Vec<u32>, u64) {\n        (Vec::new(), 0)\n    }\n}\n";
        assert!(scan_file("crates/mbe/src/lib.rs", in_test).is_empty());
    }

    #[test]
    fn plain_comment_between_docs_and_item_keeps_docs() {
        let src = "/// Docs.\n// xtask-allow: tuple-return\npub fn f() {}\n";
        assert!(scan_file("crates/mbe/src/util.rs", src).is_empty());
    }

    #[test]
    fn multiline_attribute_between_docs_and_item_keeps_docs() {
        let src = "/// Docs.\n#[deprecated(\n    note = \"gone\"\n)]\npub fn f() {}\n";
        assert!(scan_file("crates/mbe/src/util.rs", src).is_empty());
        // Without docs the attribute does not count as documentation.
        let undocumented = "#[deprecated(\n    note = \"gone\"\n)]\npub fn f() {}\n";
        assert_eq!(rules(&scan_file("crates/mbe/src/util.rs", undocumented)), vec!["doc"]);
    }

    #[test]
    fn net_reads_require_explicit_timeout() {
        let bad =
            format!("use std::net::{0};\n\nfn f(s: &{0}) {{\n    drop(s);\n}}\n", NET_TYPE_NEEDLE);
        let got = scan_file("crates/serve/src/client.rs", &bad);
        assert_eq!(rules(&got), vec!["net-timeout"]);
        assert_eq!(got[0].line, 1, "anchors to the first mention");
        // A file that configures a read deadline anywhere is fine.
        let good = format!(
            "{bad}fn g(s: &{}) {{\n    s.{}POLL)).ok();\n}}\n",
            NET_TYPE_NEEDLE, NET_TIMEOUT_NEEDLE
        );
        assert!(scan_file("crates/serve/src/client.rs", &good).is_empty());
        // Integration tests, comments, and cfg(test) regions are exempt.
        assert!(scan_file("crates/serve/tests/service.rs", &bad).is_empty());
        let comment_only = format!("// speaks {} on the wire\nfn f() {{}}\n", NET_TYPE_NEEDLE);
        assert!(scan_file("crates/serve/src/client.rs", &comment_only).is_empty());
        let in_test = format!(
            "#[cfg(test)]\nmod tests {{\n    fn f(s: &std::net::{}) {{\n        drop(s);\n    }}\n}}\n",
            NET_TYPE_NEEDLE
        );
        assert!(scan_file("crates/serve/src/client.rs", &in_test).is_empty());
        // The escape hatch works as for line rules.
        let escaped = format!(
            "// xtask-allow: net-timeout\nfn f(s: &std::net::{}) {{\n    drop(s);\n}}\n",
            NET_TYPE_NEEDLE
        );
        assert!(scan_file("crates/serve/src/client.rs", &escaped).is_empty());
    }

    #[test]
    fn untagged_markers_flagged_tagged_ok() {
        let tag_less = format!("fn f() {{}} // {}: fix this\n", NEEDLE_TODO);
        assert_eq!(rules(&scan_file("crates/gen/src/lib.rs", &tag_less)), vec!["todo"]);
        let tagged = format!("fn f() {{}} // {}(#12): fix this\n", NEEDLE_TODO);
        assert!(scan_file("crates/gen/src/lib.rs", &tagged).is_empty());
        let fixme = format!("// {}: broken\n", NEEDLE_FIXME);
        assert_eq!(rules(&scan_file("crates/gen/src/lib.rs", &fixme)), vec!["todo"]);
    }

    #[test]
    fn crate_roots_require_forbid_attr() {
        let v = check_crate_root("crates/gen/src/lib.rs", "pub fn f() {}\n");
        assert!(v.is_some());
        let ok = format!("{FORBID_ATTR}\npub fn f() {{}}\n");
        assert!(check_crate_root("crates/gen/src/lib.rs", &ok).is_none());
        // Non-root files are not checked.
        assert!(check_crate_root("crates/gen/src/er.rs", "fn f() {}\n").is_none());
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(!contains_word("forbid(unsafe_code)", RULE_UNSAFE));
        assert!(contains_word("an unsafe block", RULE_UNSAFE));
        assert!(contains_word("unsafe{", RULE_UNSAFE));
    }
}
