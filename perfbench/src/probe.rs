//! Host-time spans recorded from the benchmark's own code.
//!
//! The runners are generic over a [`Probe`]. [`Off`] compiles every hook
//! to nothing, so an untraced run executes exactly the calls a plain
//! runner would. A traced run passes an `Rc<Recorder>`, which records one
//! span per generator call and one per `access` call (the host time spent
//! across all of that future's polls), under `setup`/`measure` spans that
//! sit under one `run` span. Spans stay in memory and are written out
//! once, at exit. Wrapping a future does not change how often the
//! executor polls it, so a traced run replays the untraced event schedule.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::io::{self, Write as _};
use std::path::Path;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

/// Span kinds, one per boundary the benchmark instruments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// The whole benchmark invocation.
    Run,
    /// One machine set-up: launch, mmap and populate.
    Setup,
    /// `FarMemory::launch`.
    Launch,
    /// `FarMemory::mmap`.
    Mmap,
    /// `FarMemory::populate*`.
    Populate,
    /// The measured phase of one simulation.
    Measure,
    /// One workload-generator call.
    Gen,
    /// One `FarMemory::access` call, summed over its polls.
    Access,
}

const NAMES: [Name; 8] = [
    Name::Run,
    Name::Setup,
    Name::Launch,
    Name::Mmap,
    Name::Populate,
    Name::Measure,
    Name::Gen,
    Name::Access,
];

impl Name {
    fn as_str(self) -> &'static str {
        match self {
            Name::Run => "run",
            Name::Setup => "setup",
            Name::Launch => "launch",
            Name::Mmap => "mmap",
            Name::Populate => "populate",
            Name::Measure => "measure",
            Name::Gen => "gen",
            Name::Access => "access",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One closed span. Times are host nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
struct Span {
    id: u32,
    parent: u32,
    name: Name,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans of one benchmark run, kept in memory.
///
/// Every span adds to its kind's exact totals and every structural span
/// (run, set-up and measured phase) is kept whole for the trace file.
/// Generator and access spans are kept only until [`Recorder::RETAINED`]
/// spans are held, so a long run cannot exhaust host memory on
/// per-access records.
pub struct Recorder {
    run_id: u64,
    epoch: Instant,
    next_id: Cell<u32>,
    parent: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    dropped: Cell<u64>,
    totals: [Cell<(u64, u64)>; NAMES.len()],
    /// Whether a `measure` span is open: generator and access spans are
    /// recorded only inside the measured phase, never during warmup.
    measuring: Cell<bool>,
}

/// Per-kind span count and summed duration, in host nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals([(u64, u64); NAMES.len()]);

impl Totals {
    /// Summed duration of every span of kind `name`, ns.
    pub fn ns(&self, name: Name) -> u64 {
        self.0[name.index()].1
    }

    /// Number of spans of kind `name`.
    pub fn count(&self, name: Name) -> u64 {
        self.0[name.index()].0
    }

    /// Per-kind difference `self - earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = Totals::default();
        for (i, slot) in out.0.iter_mut().enumerate() {
            *slot = (self.0[i].0 - earlier.0[i].0, self.0[i].1 - earlier.0[i].1);
        }
        out
    }
}

/// A span that has been opened and not yet closed.
pub struct Open {
    id: u32,
    parent: u32,
    name: Name,
    start: Instant,
}

impl Recorder {
    /// Spans kept whole for the trace file.
    pub const RETAINED: usize = 100_000;

    /// A recorder whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Rc<Self> {
        Rc::new(Recorder {
            run_id,
            epoch: Instant::now(),
            next_id: Cell::new(1),
            parent: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            dropped: Cell::new(0),
            totals: Default::default(),
            measuring: Cell::new(false),
        })
    }

    fn fresh_id(&self) -> u32 {
        let id = self.next_id.get();
        self.next_id.set(id.wrapping_add(1));
        id
    }

    fn push(&self, span: Span) {
        let slot = &self.totals[span.name.index()];
        let (n, ns) = slot.get();
        slot.set((n + 1, ns + span.dur_ns));
        let leaf = matches!(span.name, Name::Gen | Name::Access);
        let mut spans = self.spans.borrow_mut();
        if !leaf || spans.len() < Self::RETAINED {
            spans.push(span);
        } else {
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the current parent and makes it the parent of
    /// spans recorded until it closes.
    pub fn open(&self, name: Name) -> Open {
        let open = Open {
            id: self.fresh_id(),
            parent: self.parent.get(),
            name,
            start: Instant::now(),
        };
        self.parent.set(open.id);
        if name == Name::Measure {
            self.measuring.set(true);
        }
        open
    }

    /// Closes `open` and restores its parent.
    pub fn close(&self, open: Open) {
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        self.parent.set(open.parent);
        if open.name == Name::Measure {
            self.measuring.set(false);
        }
        self.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: self.since_epoch(open.start),
            dur_ns,
        });
    }

    /// Records a leaf span under the current parent, if a measured phase
    /// is open.
    fn leaf(&self, name: Name, start: Instant, dur_ns: u64) {
        if !self.measuring.get() {
            return;
        }
        let id = self.fresh_id();
        self.push(Span {
            id,
            parent: self.parent.get(),
            name,
            start_ns: self.since_epoch(start),
            dur_ns,
        });
    }

    /// Current per-kind totals.
    pub fn totals(&self) -> Totals {
        let mut out = Totals::default();
        for (slot, cell) in out.0.iter_mut().zip(&self.totals) {
            *slot = cell.get();
        }
        out
    }

    /// Writes the run as JSON lines: one header line with the run id and
    /// per-kind totals, then one line per retained span.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let totals = self.totals();
        let kinds: Vec<String> = NAMES
            .iter()
            .map(|&n| {
                format!(
                    "\"{}\":{{\"count\":{},\"ns\":{}}}",
                    n.as_str(),
                    totals.count(n),
                    totals.ns(n)
                )
            })
            .collect();
        let spans = self.spans.borrow();
        writeln!(
            out,
            "{{\"run_id\":{},\"spans_retained\":{},\"spans_dropped\":{},\"totals\":{{{}}}}}",
            self.run_id,
            spans.len(),
            self.dropped.get(),
            kinds.join(",")
        )?;
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                self.run_id,
                s.id,
                s.parent,
                s.name.as_str(),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// The instrumentation hooks a runner calls at each layer boundary.
pub trait Probe: Clone + 'static {
    /// Opens a span (a no-op when tracing is off).
    fn open(&self, name: Name) -> Option<Open>;
    /// Closes a span opened by [`Probe::open`].
    fn close(&self, open: Option<Open>);
    /// Runs one generator call.
    fn gen<T>(&self, f: impl FnOnce() -> T) -> T;
    /// Wraps one `access` future.
    fn access<F: Future>(&self, f: F) -> impl Future<Output = F::Output>;
}

/// Tracing off: every hook is the identity.
#[derive(Clone, Copy, Debug, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn open(&self, _: Name) -> Option<Open> {
        None
    }

    #[inline(always)]
    fn close(&self, _: Option<Open>) {}

    #[inline(always)]
    fn gen<T>(&self, f: impl FnOnce() -> T) -> T {
        f()
    }

    #[inline(always)]
    fn access<F: Future>(&self, f: F) -> impl Future<Output = F::Output> {
        f
    }
}

impl Probe for Rc<Recorder> {
    fn open(&self, name: Name) -> Option<Open> {
        Some(Recorder::open(self, name))
    }

    fn close(&self, open: Option<Open>) {
        if let Some(open) = open {
            Recorder::close(self, open);
        }
    }

    fn gen<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.leaf(Name::Gen, start, start.elapsed().as_nanos() as u64);
        out
    }

    fn access<F: Future>(&self, f: F) -> impl Future<Output = F::Output> {
        Timed {
            inner: Box::pin(f),
            rec: Rc::clone(self),
            first: None,
            busy_ns: 0,
        }
    }
}

/// A future that sums the host time spent in each poll of `inner`.
struct Timed<F: Future> {
    inner: Pin<Box<F>>,
    rec: Rc<Recorder>,
    first: Option<Instant>,
    busy_ns: u64,
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = self.get_mut();
        let start = Instant::now();
        let out = this.inner.as_mut().poll(cx);
        this.busy_ns += start.elapsed().as_nanos() as u64;
        let first = *this.first.get_or_insert(start);
        if out.is_ready() {
            this.rec.leaf(Name::Access, first, this.busy_ns);
        }
        out
    }
}
