//! In-memory spans around calls into each layer, and a timing
//! `SuspendBackend` that forwards every call unchanged.
//!
//! Tracing is off unless [`enable`] was called: a span is then one
//! relaxed atomic load. When on, every closed span is appended to one
//! in-memory list; [`take`] hands the list over at the end of the run.

use crate::stats::Span;
use qsr_storage::{BlobId, Result, SuspendBackend};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Innermost span open on the client thread: the parent of spans that
/// worker threads open with nothing open on their own stack.
static CLIENT_TOP: AtomicU64 = AtomicU64::new(0);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<RawSpan>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static IS_CLIENT: RefCell<bool> = const { RefCell::new(false) };
    static TAG: RefCell<u64> = const { RefCell::new(0) };
}

/// A closed span as recorded: ids rather than indices, so children (which
/// close first) can name a parent that has not been recorded yet.
#[derive(Debug, Clone)]
pub struct RawSpan {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Query or session id the span worked for (0: none known).
    pub tag: u64,
}

/// Seconds since the process-wide trace origin.
pub fn now() -> f64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Turn tracing on; the calling thread becomes the client thread.
pub fn enable() {
    now();
    IS_CLIENT.with(|c| *c.borrow_mut() = true);
    ON.store(true, Ordering::SeqCst);
}

pub fn disable() {
    ON.store(false, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Set the query/session id that spans opened on this thread carry.
pub fn set_tag(tag: u64) {
    TAG.with(|t| *t.borrow_mut() = tag);
}

/// An open span; it is recorded when dropped.
pub struct Guard(Option<(u64, u64, &'static str, f64)>);

/// Open a span named `name` (a no-op guard when tracing is off).
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or_else(|| CLIENT_TOP.load(Ordering::Relaxed));
        s.push(id);
        parent
    });
    if IS_CLIENT.with(|c| *c.borrow()) {
        CLIENT_TOP.store(id, Ordering::Relaxed);
    }
    Guard(Some((id, parent, name, now())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start)) = self.0.take() else {
            return;
        };
        let end = now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.retain(|&x| x != id);
            if IS_CLIENT.with(|c| *c.borrow()) {
                CLIENT_TOP.store(s.last().copied().unwrap_or(0), Ordering::Relaxed);
            }
        });
        let tag = TAG.with(|t| *t.borrow());
        SPANS.lock().expect("span list poisoned by a panic").push(RawSpan {
            id,
            parent,
            name,
            start,
            end,
            tag,
        });
    }
}

/// Run `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Hand over every span recorded so far.
pub fn take() -> Vec<RawSpan> {
    std::mem::take(&mut *SPANS.lock().expect("span list poisoned by a panic"))
}

/// Convert recorded spans to the index-linked form the exclusive-time
/// arithmetic takes.
pub fn link(raw: &[RawSpan]) -> Vec<Span> {
    let index: HashMap<u64, usize> = raw.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    raw.iter()
        .map(|s| Span {
            name: s.name,
            start: s.start,
            end: s.end,
            parent: index.get(&s.parent).copied(),
        })
        .collect()
}

/// Per-call counters of the timing backend.
#[derive(Debug, Default)]
pub struct BackendCounters {
    pub puts: AtomicU64,
    pub put_bytes: AtomicU64,
    pub put_ns: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
    pub gets: AtomicU64,
    pub get_bytes: AtomicU64,
    pub get_ns: AtomicU64,
    pub commits: AtomicU64,
    pub commit_ns: AtomicU64,
    pub deletes: AtomicU64,
    pub delete_ns: AtomicU64,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A `SuspendBackend` that forwards every call to `inner` unchanged and
/// records a span and counters around the calls that move suspend state.
pub struct TimingBackend {
    inner: Arc<dyn SuspendBackend>,
    pub counters: Arc<BackendCounters>,
}

impl TimingBackend {
    pub fn new(inner: Arc<dyn SuspendBackend>, counters: Arc<BackendCounters>) -> Self {
        Self { inner, counters }
    }
}

impl SuspendBackend for TimingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn is_local(&self) -> bool {
        self.inner.is_local()
    }
    fn put_blob(&self, bytes: &[u8]) -> Result<BlobId> {
        let _g = span("backend.put");
        let t = Instant::now();
        let r = self.inner.put_blob(bytes);
        add(&self.counters.put_ns, ns(t.elapsed()));
        add(&self.counters.puts, 1);
        add(&self.counters.put_bytes, bytes.len() as u64);
        r
    }
    fn get_blob(&self, id: BlobId) -> Result<Vec<u8>> {
        let _g = span("backend.get");
        let t = Instant::now();
        let r = self.inner.get_blob(id);
        add(&self.counters.get_ns, ns(t.elapsed()));
        add(&self.counters.gets, 1);
        if let Ok(b) = &r {
            add(&self.counters.get_bytes, b.len() as u64);
        }
        r
    }
    fn sync_blob(&self, id: BlobId) -> Result<()> {
        let _g = span("backend.sync");
        let t = Instant::now();
        let r = self.inner.sync_blob(id);
        add(&self.counters.sync_ns, ns(t.elapsed()));
        add(&self.counters.syncs, 1);
        r
    }
    fn delete_blob(&self, id: BlobId) -> Result<()> {
        let _g = span("backend.delete");
        let t = Instant::now();
        let r = self.inner.delete_blob(id);
        add(&self.counters.delete_ns, ns(t.elapsed()));
        add(&self.counters.deletes, 1);
        r
    }
    fn read_manifest(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let _g = span("backend.manifest");
        self.inner.read_manifest(name)
    }
    fn commit_manifest(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let _g = span("backend.commit");
        let t = Instant::now();
        let r = self.inner.commit_manifest(name, bytes);
        add(&self.counters.commit_ns, ns(t.elapsed()));
        add(&self.counters.commits, 1);
        r
    }
    fn remove_manifest(&self, name: &str) -> Result<()> {
        let _g = span("backend.manifest");
        self.inner.remove_manifest(name)
    }
    fn list_manifests(&self, prefix: &str) -> Result<Vec<String>> {
        let _g = span("backend.manifest");
        self.inner.list_manifests(prefix)
    }
    fn list_blobs(&self) -> Result<Option<Vec<BlobId>>> {
        let _g = span("backend.manifest");
        self.inner.list_blobs()
    }
}
