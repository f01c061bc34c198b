//! `simlint` — a static-analysis pass enforcing the simulator's
//! determinism and lock-safety source rules (DESIGN.md "Determinism
//! rules").
//!
//! The whole reproduction rests on bit-for-bit reproducibility: the
//! executor is single-threaded over virtual time, every random choice is
//! seeded, and every iteration order is defined. Those properties are
//! trivially destroyed by an innocent-looking `HashMap` iteration or a
//! `std::time::Instant` — and nothing in the type system stops one from
//! creeping in. `simlint` closes that gap mechanically: it lexes every
//! source file of the simulation crates with its own lightweight Rust
//! lexer (no external dependencies, no syn/proc-macro machinery) and
//! rejects the constructs below.
//!
//! ## Rules
//!
//! | rule | rejects | why |
//! |------|---------|-----|
//! | `wall-clock` | `std::time::Instant` / `SystemTime` | host time is nondeterministic; use `SimHandle::now()` |
//! | `host-thread` | `std::thread` | host threads race; the executor is the only scheduler |
//! | `external-rng` | `rand::`, `thread_rng`, `from_entropy`, … | unseeded entropy breaks replay; use `mage_sim::rng::SplitMix64` |
//! | `hash-collection` | `HashMap` / `HashSet` | iteration order varies per process (random SipHash keys); use `BTreeMap`/`BTreeSet` or sorted iteration |
//! | `std-sync` | `std::sync::{Mutex, RwLock, …}`, atomics | host-level blocking invisible to virtual time; use `SimMutex`/`Semaphore` |
//! | `unseeded-rng` | RNG constructors without a `seed` parameter | every stochastic component must be replayable from its seed |
//! | `hot-path` | `BTreeMap` / `BTreeSet` in `executor.rs`, `tlb.rs`, `machine.rs` | ordered maps on the per-poll/per-access/per-page paths cost pointer chases the slab refactor removed (DESIGN.md §11); use `Slab`/`PageMap`/`TimerWheel` |
//!
//! Every rule is a per-file token pass.
//!
//! ## Escape hatch
//!
//! A violation can be admitted deliberately with a justified allow
//! comment on the same line or the line above:
//!
//! ```text
//! // simlint: allow(std-sync): the Waker contract requires Sync
//! use std::sync::Mutex;
//! ```
//!
//! The justification is mandatory — `// simlint: allow(std-sync)` with
//! nothing after the closing parenthesis is itself reported
//! (`bare-allow`), so every exception carries its reasoning in the
//! source.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

mod lexer;
mod rules;

pub use lexer::{lex, Token};

/// A lint rule identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `std::time::{Instant, SystemTime}` — host wall-clock.
    WallClock,
    /// `std::thread` — host threads.
    HostThread,
    /// External / unseedable randomness (`rand::`, `thread_rng`, …).
    ExternalRng,
    /// `HashMap` / `HashSet` — nondeterministic iteration order.
    HashCollection,
    /// `std::sync` blocking primitives and atomics.
    StdSync,
    /// Public RNG constructor without an explicit seed parameter.
    UnseededRng,
    /// `BTreeMap` / `BTreeSet` in a designated hot-path file.
    HotPath,
    /// An `allow` directive without a justification.
    BareAllow,
}

impl Rule {
    /// The rule's name as written in `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::HostThread => "host-thread",
            Rule::ExternalRng => "external-rng",
            Rule::HashCollection => "hash-collection",
            Rule::StdSync => "std-sync",
            Rule::UnseededRng => "unseeded-rng",
            Rule::HotPath => "hot-path",
            Rule::BareAllow => "bare-allow",
        }
    }

    /// One-line rationale, shown with each violation.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "host wall-clock time is nondeterministic; use SimHandle::now() virtual time"
            }
            Rule::HostThread => {
                "host threads introduce scheduling races; spawn tasks on the deterministic executor"
            }
            Rule::ExternalRng => {
                "external or entropy-seeded RNGs break bit-for-bit replay; use mage_sim::rng::SplitMix64"
            }
            Rule::HashCollection => {
                "HashMap/HashSet iteration order is randomized per process; use BTreeMap/BTreeSet or sort before iterating"
            }
            Rule::StdSync => {
                "std::sync primitives block the host thread invisibly to virtual time; use SimMutex/Semaphore"
            }
            Rule::UnseededRng => {
                "RNG constructors must take an explicit seed so every stochastic component is replayable"
            }
            Rule::HotPath => {
                "ordered maps on the simulator's hot paths regressed events/sec; use the slab/PageMap/TimerWheel indexes (DESIGN.md §11)"
            }
            Rule::BareAllow => "simlint allow directives must carry a justification after a colon",
        }
    }

    /// Every rule, in reporting order.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::WallClock,
            Rule::HostThread,
            Rule::ExternalRng,
            Rule::HashCollection,
            Rule::StdSync,
            Rule::UnseededRng,
            Rule::HotPath,
            Rule::BareAllow,
        ]
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// File the violation was found in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// What exactly was matched.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    rule: {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message,
            self.rule.rationale(),
        )
    }
}

/// A justified (or bare) `// simlint: allow(rule): why` directive.
#[derive(Clone, Debug)]
pub struct AllowDirective {
    /// 1-based line the directive appears on.
    pub line: u32,
    /// Rule name inside the parentheses (not validated against `Rule`).
    pub rule: String,
    /// Whether a non-empty justification follows the closing parenthesis.
    pub justified: bool,
}

/// Lints one source string; `file` is used only for reporting.
pub fn lint_source(file: &Path, src: &str) -> Vec<Violation> {
    rules::check(file, &lexer::lex(src))
}

/// Lints one `.rs` file.
pub fn lint_file(path: &Path) -> io::Result<Vec<Violation>> {
    let src = fs::read_to_string(path)?;
    Ok(lint_source(path, &src))
}

/// Recursively lints every `.rs` file under `root` (or `root` itself if
/// it is a file), visiting files in sorted order so reports are stable.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    lint_files(files)
}

/// Lints `files` in sorted order.
fn lint_files(mut files: Vec<PathBuf>) -> io::Result<Vec<Violation>> {
    files.sort();
    let mut out = Vec::new();
    for f in files {
        out.extend(lint_file(&f)?);
    }
    Ok(out)
}

fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    for entry in fs::read_dir(path)? {
        let entry = entry?;
        collect_rs_files(&entry.path(), out)?;
    }
    Ok(())
}

/// The default scan set: every `crates/*/src` tree in the workspace,
/// excluding simlint itself (the linter names the constructs it bans).
fn default_scan_roots(workspace_root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = workspace_root.join("crates");
    let mut roots = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let path = entry.path();
        if !path.is_dir() || path.file_name().is_some_and(|n| n == "simlint") {
            continue;
        }
        let src = path.join("src");
        if src.is_dir() {
            roots.push(src);
        }
    }
    Ok(roots)
}

/// Lints every `crates/*/src` tree of the workspace except simlint's own.
pub fn lint_workspace(workspace_root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for root in default_scan_roots(workspace_root)? {
        collect_rs_files(&root, &mut files)?;
    }
    lint_files(files)
}
