//! The lint rules, as passes over the token stream.

use std::path::Path;

use crate::lexer::{Lexed, Token};
use crate::{Rule, Violation};

/// `std::sync` leaves that are forbidden in simulation code (`Arc` and
/// `Weak` are sharing, not blocking, and stay legal).
const FORBIDDEN_SYNC: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "Once", "OnceLock", "OnceCell", "mpsc", "atomic", "*",
];

/// Files on the simulator's measured hot paths (the per-poll executor
/// loop, the per-access TLB probe, the per-page engine maps), where
/// ordered maps are banned outright: the slab refactor (DESIGN.md §11)
/// bought its events/sec there, and a `BTreeMap` creeping back in would
/// silently give it up. Deliberate exceptions carry a justified
/// `allow(hot-path)`.
const HOT_PATH_FILES: &[&str] = &["executor.rs", "tlb.rs", "machine.rs"];

/// Identifiers that imply an external or entropy-seeded RNG.
const RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "ThreadRng",
    "StdRng",
    "SmallRng",
    "getrandom",
];

/// Runs every rule over a lexed file.
pub fn check(file: &Path, lexed: &Lexed) -> Vec<Violation> {
    let mut found: Vec<Violation> = Vec::new();
    let toks = &lexed.tokens;

    check_std_paths(toks, &mut found);
    check_idents(toks, &mut found);
    check_unseeded_rng(toks, &mut found);
    check_hot_path(file, toks, &mut found);

    // Apply justified allow directives (same line or the line above the
    // violation), then report bare ones.
    found.retain(|v| {
        !lexed.allows.iter().any(|a| {
            a.justified
                && a.rule == v.rule.name()
                && (a.line == v.line || a.line + 1 == v.line)
        })
    });
    for a in &lexed.allows {
        if !a.justified {
            found.push(Violation {
                file: file.to_path_buf(),
                line: a.line,
                rule: Rule::BareAllow,
                message: format!("allow({}) without a justification", a.rule),
            });
        }
    }

    for v in &mut found {
        v.file = file.to_path_buf();
    }
    found.sort_by_key(|v| (v.line, v.rule));
    found.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    found
}

fn violation(found: &mut Vec<Violation>, line: u32, rule: Rule, message: String) {
    found.push(Violation {
        file: Default::default(),
        line,
        rule,
        message,
    });
}

/// Checks `std::<module>` paths: `std::time::{Instant, SystemTime}`,
/// `std::thread`, and `std::sync::{forbidden}`.
fn check_std_paths(toks: &[Token], found: &mut Vec<Violation>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident && toks[i].text == "std" {
            if let Some((seg, leaves, next)) = std_path(toks, i) {
                match seg.text.as_str() {
                    "time" => {
                        let bad: Vec<&(String, u32)> = leaves
                            .iter()
                            .filter(|(l, _)| l == "Instant" || l == "SystemTime" || l == "*")
                            .collect();
                        if leaves.is_empty() {
                            violation(
                                found,
                                seg.line,
                                Rule::WallClock,
                                "import of std::time (host wall-clock module)".into(),
                            );
                        }
                        for (leaf, line) in bad {
                            violation(
                                found,
                                *line,
                                Rule::WallClock,
                                format!("use of std::time::{leaf}"),
                            );
                        }
                    }
                    "thread" => violation(
                        found,
                        seg.line,
                        Rule::HostThread,
                        "use of std::thread (host threads)".into(),
                    ),
                    "sync" => {
                        let forbidden = |l: &str| {
                            FORBIDDEN_SYNC.contains(&l) || l.starts_with("Atomic")
                        };
                        if leaves.is_empty() {
                            violation(
                                found,
                                seg.line,
                                Rule::StdSync,
                                "bare import of std::sync".into(),
                            );
                        }
                        for (leaf, line) in leaves.iter().filter(|(l, _)| forbidden(l)) {
                            violation(
                                found,
                                *line,
                                Rule::StdSync,
                                format!("use of std::sync::{leaf}"),
                            );
                        }
                    }
                    _ => {}
                }
                i = next;
                continue;
            }
        }
        i += 1;
    }
}

/// Parses a `std::<seg>` path at `i`, returning the segment token, the
/// leaf identifiers that follow (single ident, or the flattened contents
/// of a `{...}` group), and the index just past the parsed tokens.
type PathLeaves = Vec<(String, u32)>;

fn std_path(toks: &[Token], i: usize) -> Option<(&Token, PathLeaves, usize)> {
    if toks.get(i + 1)?.text != "::" {
        return None;
    }
    let seg = toks.get(i + 2)?;
    if !seg.is_ident {
        return None;
    }
    let mut leaves = Vec::new();
    let mut next = i + 3;
    if toks.get(i + 3).map(|t| t.text.as_str()) == Some("::") {
        match toks.get(i + 4) {
            Some(t) if t.text == "{" => {
                // Flatten every identifier (and `*`) in the group,
                // including nested paths like `atomic::{AtomicU64}`.
                let mut depth = 1usize;
                let mut j = i + 5;
                while j < toks.len() && depth > 0 {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        "*" => leaves.push(("*".into(), toks[j].line)),
                        t if toks[j].is_ident && t != "self" && t != "as" => {
                            leaves.push((t.to_string(), toks[j].line));
                        }
                        _ => {}
                    }
                    j += 1;
                }
                next = j;
            }
            Some(t) if t.is_ident || t.text == "*" => {
                leaves.push((t.text.clone(), t.line));
                next = i + 5;
            }
            _ => {}
        }
    }
    Some((seg, leaves, next))
}

/// Flags nondeterministic collections and external-RNG identifiers.
fn check_idents(toks: &[Token], found: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => violation(
                found,
                t.line,
                Rule::HashCollection,
                format!("use of {} (nondeterministic iteration order)", t.text),
            ),
            "rand" if toks.get(i + 1).map(|n| n.text.as_str()) == Some("::") => violation(
                found,
                t.line,
                Rule::ExternalRng,
                "use of the rand crate".into(),
            ),
            name if RNG_IDENTS.contains(&name) => violation(
                found,
                t.line,
                Rule::ExternalRng,
                format!("use of external/entropy RNG `{name}`"),
            ),
            _ => {}
        }
    }
}

/// Flags ordered maps in the designated hot-path files (matched by file
/// name, so the rule follows the file wherever its crate lives).
fn check_hot_path(file: &Path, toks: &[Token], found: &mut Vec<Violation>) {
    let hot = file
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| HOT_PATH_FILES.contains(&n));
    if !hot {
        return;
    }
    for t in toks {
        if t.is_ident && (t.text == "BTreeMap" || t.text == "BTreeSet") {
            violation(
                found,
                t.line,
                Rule::HotPath,
                format!("use of {} in hot-path file", t.text),
            );
        }
    }
}

/// Flags constructor-shaped functions in `impl` blocks of RNG-named
/// types (`*Rng*`, `*Random*`) that take no `seed`-named parameter.
fn check_unseeded_rng(toks: &[Token], found: &mut Vec<Violation>) {
    let mut depth: i64 = 0;
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                if let Some(target) = pending_impl.take() {
                    impl_stack.push((target, depth));
                }
            }
            "}" => {
                depth -= 1;
                while impl_stack.last().is_some_and(|&(_, d)| d > depth) {
                    impl_stack.pop();
                }
            }
            "impl" if t.is_ident => {
                pending_impl = impl_target(toks, i);
            }
            "fn" if t.is_ident => {
                let in_rng_impl = impl_stack.last().is_some_and(|(target, d)| {
                    *d == depth && {
                        let lower = target.to_lowercase();
                        lower.contains("rng") || lower.contains("random")
                    }
                });
                if in_rng_impl {
                    if let Some(v) = unseeded_ctor(toks, i) {
                        found.push(v);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Extracts the self type name of an `impl` header starting at `i`
/// (first identifier after `for` if present, else the first identifier
/// after the generics).
fn impl_target(toks: &[Token], i: usize) -> Option<String> {
    let mut j = i + 1;
    // Skip `<...>` generic parameters.
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut angle = 1i32;
        j += 1;
        while j < toks.len() && angle > 0 {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
        let t = &toks[j];
        if t.is_ident {
            if t.text == "for" {
                saw_for = true;
            } else if t.text == "where" {
                break;
            } else if saw_for {
                if after_for.is_none() {
                    after_for = Some(t.text.clone());
                }
            } else if first.is_none() {
                first = Some(t.text.clone());
            }
        }
        j += 1;
    }
    after_for.or(first)
}

/// Checks the `fn` at `i`: returns a violation if it is a seedless
/// constructor (`new`, `default`, `new_*`, `from_*`).
fn unseeded_ctor(toks: &[Token], i: usize) -> Option<Violation> {
    let name_tok = toks.get(i + 1)?;
    if !name_tok.is_ident {
        return None;
    }
    let name = name_tok.text.as_str();
    let ctor = name == "new"
        || name == "default"
        || name.starts_with("new_")
        || name.starts_with("from_");
    if !ctor {
        return None;
    }
    // Skip optional generics, then scan the parameter list.
    let mut j = i + 2;
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut angle = 1i32;
        j += 1;
        while j < toks.len() && angle > 0 {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let mut paren = 1i32;
    j += 1;
    let mut has_seed = false;
    while j < toks.len() && paren > 0 {
        match toks[j].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            t if toks[j].is_ident && t.to_lowercase().contains("seed") => has_seed = true,
            _ => {}
        }
        j += 1;
    }
    if has_seed {
        return None;
    }
    Some(Violation {
        file: Default::default(),
        line: name_tok.line,
        rule: Rule::UnseededRng,
        message: format!("RNG constructor `{name}` has no explicit seed parameter"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;
    use std::path::PathBuf;

    fn rules_hit(src: &str) -> Vec<Rule> {
        lint_source(&PathBuf::from("test.rs"), src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn flags_wall_clock() {
        assert_eq!(
            rules_hit("use std::time::Instant;"),
            vec![Rule::WallClock]
        );
        assert_eq!(
            rules_hit("let t = std::time::SystemTime::now();"),
            vec![Rule::WallClock]
        );
        assert_eq!(rules_hit("use std::time::{Duration, Instant};").len(), 1);
        assert!(rules_hit("use std::time::Duration;").is_empty());
    }

    #[test]
    fn flags_host_thread() {
        assert_eq!(rules_hit("use std::thread;"), vec![Rule::HostThread]);
        assert_eq!(
            rules_hit("std::thread::spawn(|| {});"),
            vec![Rule::HostThread]
        );
    }

    #[test]
    fn flags_std_sync_but_not_arc() {
        assert_eq!(
            rules_hit("use std::sync::{Arc, Mutex};"),
            vec![Rule::StdSync]
        );
        assert!(rules_hit("use std::sync::Arc;").is_empty());
        assert_eq!(
            rules_hit("use std::sync::atomic::AtomicU64;"),
            vec![Rule::StdSync]
        );
        assert_eq!(
            rules_hit("use std::sync::{Arc, atomic::{AtomicBool, Ordering}};"),
            vec![Rule::StdSync]
        );
    }

    #[test]
    fn flags_hash_collections() {
        assert_eq!(
            rules_hit("use std::collections::HashMap;"),
            vec![Rule::HashCollection]
        );
        assert_eq!(
            rules_hit("let s: HashSet<u64> = HashSet::new();"),
            vec![Rule::HashCollection]
        );
        assert!(rules_hit("use std::collections::BTreeMap;").is_empty());
    }

    #[test]
    fn flags_external_rng() {
        assert_eq!(rules_hit("let r = rand::thread_rng();").len(), 1);
        assert_eq!(
            rules_hit("let r = SmallRng::from_entropy();"),
            vec![Rule::ExternalRng]
        );
    }

    #[test]
    fn flags_unseeded_rng_ctor() {
        let src = "struct MyRng { s: u64 }\nimpl MyRng {\n pub fn new() -> Self { MyRng { s: 0 } }\n}";
        assert_eq!(rules_hit(src), vec![Rule::UnseededRng]);
        let seeded = "struct MyRng { s: u64 }\nimpl MyRng {\n pub fn new(seed: u64) -> Self { MyRng { s: seed } }\n}";
        assert!(rules_hit(seeded).is_empty());
        let default_impl =
            "struct PadRandom;\nimpl Default for PadRandom {\n fn default() -> Self { PadRandom }\n}";
        assert_eq!(rules_hit(default_impl), vec![Rule::UnseededRng]);
        // Non-RNG types may have seedless constructors.
        assert!(rules_hit("struct Tlb;\nimpl Tlb { pub fn new() -> Self { Tlb } }").is_empty());
    }

    #[test]
    fn hot_path_bans_ordered_maps_by_file_name() {
        let src = "use std::collections::BTreeMap;\nlet s: BTreeSet<u64> = BTreeSet::new();";
        for name in ["executor.rs", "tlb.rs", "machine.rs"] {
            let hits = lint_source(&PathBuf::from(name), src);
            // One per line: same-line same-rule hits dedup.
            assert_eq!(hits.len(), 2, "{name}: {hits:#?}");
            assert!(hits.iter().all(|v| v.rule == Rule::HotPath), "{hits:#?}");
        }
        // Same tokens elsewhere are legal (ordered maps are the sanctioned
        // deterministic collection off the hot paths).
        assert!(lint_source(&PathBuf::from("policy.rs"), src).is_empty());
        // Comments and strings never trip the rule.
        let doc = "// converted from `BTreeMap` by the slab refactor\nlet x = 1;";
        assert!(lint_source(&PathBuf::from("tlb.rs"), doc).is_empty());
    }

    #[test]
    fn hot_path_honors_justified_allow() {
        let src = "// simlint: allow(hot-path): cold shutdown path, never polled per event\nuse std::collections::BTreeMap;";
        assert!(lint_source(&PathBuf::from("executor.rs"), src).is_empty());
        let bare = "use std::collections::BTreeMap; // simlint: allow(hot-path)";
        let hits = lint_source(&PathBuf::from("executor.rs"), bare);
        assert!(hits.iter().any(|v| v.rule == Rule::HotPath));
        assert!(hits.iter().any(|v| v.rule == Rule::BareAllow));
    }

    #[test]
    fn justified_allow_suppresses() {
        let same_line =
            "use std::sync::Mutex; // simlint: allow(std-sync): waker contract requires Sync";
        assert!(rules_hit(same_line).is_empty());
        let line_above =
            "// simlint: allow(hash-collection): keyed lookups only, never iterated\nuse std::collections::HashMap;";
        assert!(rules_hit(line_above).is_empty());
    }

    #[test]
    fn bare_allow_is_reported_and_does_not_suppress() {
        let src = "use std::collections::HashMap; // simlint: allow(hash-collection)";
        let hits = rules_hit(src);
        assert!(hits.contains(&Rule::HashCollection));
        assert!(hits.contains(&Rule::BareAllow));
    }

    #[test]
    fn wrong_rule_allow_does_not_suppress() {
        let src = "use std::thread; // simlint: allow(wall-clock): mislabeled";
        assert_eq!(rules_hit(src), vec![Rule::HostThread]);
    }

    #[test]
    fn violations_in_comments_and_strings_ignored() {
        assert!(rules_hit("// std::thread::spawn\nlet s = \"HashMap\";").is_empty());
    }
}
