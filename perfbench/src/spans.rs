//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, a parent and a trial id, recorded
//! around a call from the benchmark into one layer. Spans stay in memory
//! and are written out once at the end ([`write_jsonl`]). Router
//! `decide` calls are far too many to keep one span each, so the timing
//! router charges them to the innermost open span on its thread as an
//! aggregated `router.decide` child (total nanoseconds plus call count).
//!
//! When recording is off every entry point returns at once, so the
//! untraced run pays one relaxed load per span.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One closed span. Times are nanoseconds since recording started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (`0` is never used).
    pub id: u32,
    /// Id of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one trial share this id.
    pub trial: u32,
    /// Layer boundary name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Nanoseconds spent in `router.decide` directly under this span.
    pub decide_ns: u64,
    /// Number of `router.decide` calls directly under this span.
    pub decide_calls: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Open {
    id: u32,
    decide_ns: u64,
    decide_calls: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// Starts recording; the first call fixes the epoch.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ON.store(true, Ordering::Relaxed);
}

/// Stops recording (the tracing-overhead probe's untraced half).
pub fn disable() {
    ON.store(false, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get().map_or(0, |e| e.elapsed().as_nanos() as u64)
}

/// An open span; closes when dropped.
pub struct Guard {
    live: Option<(u32, Option<u32>, u32, &'static str, u64)>,
}

impl Guard {
    /// The span's id, for children opened on other threads.
    pub fn id(&self) -> Option<u32> {
        self.live.map(|(id, ..)| id)
    }
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn enter(name: &'static str, trial: u32) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let parent = STACK.with(|s| s.borrow().last().map(|o| o.id));
    enter_under(parent, name, trial)
}

/// Opens a span under an explicit parent (which may live on another
/// thread, as a trial span under its batch).
pub fn enter_under(parent: Option<u32>, name: &'static str, trial: u32) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        s.borrow_mut().push(Open {
            id,
            decide_ns: 0,
            decide_calls: 0,
        })
    });
    Guard {
        live: Some((id, parent, trial, name, now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, trial, name, start)) = self.live.take() else {
            return;
        };
        let end = now_ns();
        let open = STACK.with(|s| s.borrow_mut().pop());
        let (decide_ns, decide_calls) = match open {
            Some(o) if o.id == id => (o.decide_ns, o.decide_calls),
            _ => (0, 0),
        };
        let span = Span {
            id,
            parent,
            trial,
            name,
            start,
            end,
            decide_ns,
            decide_calls,
        };
        if let Ok(mut done) = DONE.lock() {
            done.push(span);
        }
    }
}

/// Charges one `decide` call of `ns` nanoseconds to the innermost open
/// span on this thread.
pub fn charge_decide(ns: u64) {
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.decide_ns += ns;
            top.decide_calls += 1;
        }
    });
}

/// Every span closed so far, in closing order.
pub fn snapshot() -> Vec<Span> {
    DONE.lock().map(|d| d.clone()).unwrap_or_default()
}

/// How many spans have closed; pass it to [`since`] to isolate the
/// spans of the work that follows.
pub fn mark() -> usize {
    DONE.lock().map(|d| d.len()).unwrap_or(0)
}

/// Spans closed since `mark`.
pub fn since(mark: usize) -> Vec<Span> {
    DONE.lock()
        .map(|d| d.get(mark..).map(<[Span]>::to_vec).unwrap_or_default())
        .unwrap_or_default()
}

/// Self time of `parent`: its duration minus the part of its interval
/// covered by `children` (overlaps counted once, parts outside the
/// parent ignored) and minus its aggregated `decide` time.
pub fn self_time(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    parent
        .duration()
        .saturating_sub(covered)
        .saturating_sub(parent.decide_ns)
}

/// Summed self time of every span named `name` in `spans`.
pub fn total_self_time(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|p| {
            let kids: Vec<&Span> = spans.iter().filter(|c| c.parent == Some(p.id)).collect();
            self_time(p, &kids)
        })
        .sum()
}

/// Summed duration and count of every span named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.duration(), n + 1))
}

/// Summed `decide` time and calls over all spans.
pub fn decide_totals(spans: &[Span]) -> (u64, u64) {
    spans
        .iter()
        .fold((0, 0), |(ns, n), s| (ns + s.decide_ns, n + s.decide_calls))
}

/// Writes the spans as one JSON object per line.
///
/// # Errors
///
/// Any I/O error from `out`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trial\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"decide_ns\":{},\"decide_calls\":{}}}",
            s.id, parent, s.trial, s.name, s.start, s.end, s.decide_ns, s.decide_calls
        )?;
    }
    out.flush()
}
