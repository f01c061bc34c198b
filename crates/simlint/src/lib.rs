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
//! | `stats-registration` | stat fields missing from `MetricsRegistry::snapshot` | an unregistered counter escapes measurement windows and silently keeps warmup samples |
//! | `hot-path` | `BTreeMap` / `BTreeSet` in `executor.rs`, `tlb.rs`, `machine.rs` | ordered maps on the per-poll/per-access/per-page paths cost pointer chases the slab refactor removed (DESIGN.md §11); use `Slab`/`PageMap`/`TimerWheel` |
//!
//! All rules except `stats-registration` are per-file token passes.
//! `stats-registration` is a cross-file pass over the whole scanned set:
//! every `Counter`/`TimeStat`/`Histogram` field declared in the
//! monitored stats structs (`EngineStats`, `FaultBreakdown`, `NicStats`,
//! `IpiStats`, `AccountingStats`) must be referenced in a *registry
//! anchor* — a scanned file that mentions both `MetricsRegistry` and
//! `snapshot`. When the scanned set contains no anchor at all (a single
//! crate without the metrics façade) the rule is silent rather than
//! flagging every field.
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
    /// A stat field not captured by `MetricsRegistry::snapshot`.
    StatsRegistration,
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
            Rule::StatsRegistration => "stats-registration",
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
            Rule::StatsRegistration => {
                "stat fields outside MetricsRegistry::snapshot escape measurement windows and keep warmup samples"
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
            Rule::StatsRegistration,
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

/// Lints a batch of lexed files together: the per-file rules on each,
/// then the cross-file `stats-registration` pass over the whole set.
fn lint_batch(files: &[(PathBuf, lexer::Lexed)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (path, lexed) in files {
        out.extend(rules::check(path, lexed));
    }
    out.extend(rules::stats_registration(files));
    out
}

/// Lints one source string; `file` is used only for reporting. The
/// cross-file `stats-registration` pass sees only this file, so an
/// anchor-less source skips it.
pub fn lint_source(file: &Path, src: &str) -> Vec<Violation> {
    lint_batch(&[(file.to_path_buf(), lexer::lex(src))])
}

/// Lints one `.rs` file.
pub fn lint_file(path: &Path) -> io::Result<Vec<Violation>> {
    let src = fs::read_to_string(path)?;
    Ok(lint_source(path, &src))
}

/// Recursively lints every `.rs` file under `root` (or `root` itself if
/// it is a file), as one batch: files are visited in sorted order so
/// reports are stable, and the cross-file pass sees the whole tree.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut lexed = Vec::new();
    for f in files {
        let src = fs::read_to_string(&f)?;
        lexed.push((f, lexer::lex(&src)));
    }
    Ok(lint_batch(&lexed))
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
    roots.sort();
    Ok(roots)
}

/// Lints the whole workspace's simulation crates as ONE batch, so the
/// cross-file `stats-registration` pass sees the stats structs of every
/// crate against the registry anchor in `crates/core`.
pub fn lint_workspace(workspace_root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for root in default_scan_roots(workspace_root)? {
        collect_rs_files(&root, &mut files)?;
    }
    files.sort();
    let mut lexed = Vec::new();
    for f in files {
        let src = fs::read_to_string(&f)?;
        lexed.push((f, lexer::lex(&src)));
    }
    Ok(lint_batch(&lexed))
}
