//! Coverage hashing over drained flight-recorder streams.
//!
//! The greybox fuzzer (`skrt::fuzz`) needs a cheap, deterministic
//! projection of "what happened" during one sequence execution. This
//! module turns the flight-recorder event stream (plus per-frame state
//! digest hashes supplied by the caller) into AFL-style edge coverage:
//! consecutive stream tokens are hashed pairwise into a fixed-size map
//! of hit counters, the counters are bucketed into coarse ranges, and a
//! sequence is *coverage-novel* when it drives any map cell to a bucket
//! never seen before.
//!
//! Only *behavioural* events feed coverage. Executor bookkeeping
//! ([`EventKind::TestBegin`], [`EventKind::TestEnd`],
//! [`EventKind::SnapshotClone`]) and raw machine noise
//! ([`EventKind::TimerExpiry`], [`EventKind::IrqRaised`]) are excluded,
//! so coverage is a function of what the kernel did, never of how the
//! executor scheduled or rewound it.

use crate::{Event, EventKind};

/// Number of cells in the coverage map. Power of two so cell selection
/// is a mask. 16k cells ≈ 16 KiB of hit counters per map: small enough
/// to clone freely, large enough that the ~70-entry alphabet × results
/// × scheduler contexts collides rarely.
pub const MAP_SIZE: usize = 1 << 14;

const MASK: u64 = (MAP_SIZE - 1) as u64;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// AFL-style hit-count bucketing: exact small counts, then coarse
/// power-of-two ranges. Distinguishes "once" from "a few" from "many"
/// without making every loop iteration count a distinct coverage point.
#[inline]
pub fn bucket(count: u32) -> u8 {
    match count {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => 3,
        4..=7 => 4,
        8..=15 => 5,
        16..=31 => 6,
        32..=127 => 7,
        _ => 8,
    }
}

/// Map a flight-recorder event to a coverage stream token, or `None`
/// for kinds that must never influence coverage.
#[inline]
pub fn event_token(e: &Event) -> Option<u64> {
    let tag: u64 = match e.kind {
        // Behavioural signal: what the kernel did.
        EventKind::HypercallEnter => 1,
        EventKind::HypercallExit => 2,
        EventKind::HmEvent => 3,
        EventKind::SlotBegin => 4,
        EventKind::SlotEnd => 5,
        EventKind::SystemReset => 6,
        EventKind::KernelHalt => 7,
        EventKind::SimCrashed => 8,
        EventKind::UartPanic => 9,
        EventKind::Ops => 10,
        // Executor bookkeeping and raw machine noise: excluded. Timer /
        // IRQ storms would otherwise drown the semantic stream.
        EventKind::TestBegin
        | EventKind::TestEnd
        | EventKind::SnapshotClone
        | EventKind::TimerExpiry
        | EventKind::IrqRaised => return None,
        // Isolation-audit tokens introduced for the small-scope checker:
        // excluded so existing coverage streams (and the greybox corpus
        // built on them) are unchanged — the semantic signal they carry
        // is already present as HypercallEnter/HmEvent tokens.
        EventKind::VtimerExpiry | EventKind::PortCreated => return None,
    };
    // Fold the discriminating payload, not the timestamp: coverage must
    // be a function of behaviour, not of when it happened.
    let payload = (e.code as u64) ^ e.a.rotate_left(17) ^ ((e.partition as u64) << 48);
    Some(mix(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ payload))
}

/// Per-execution coverage extraction scratch. Reused across executions
/// (one per worker): `begin` resets only the touched cells, so the cost
/// per execution is proportional to the trace, not to [`MAP_SIZE`].
/// Touched cells are listed in first-touch order, which is a function of
/// the token stream, so `finish` needs neither a sort nor a map walk.
pub struct EdgeTrace {
    counts: Vec<u32>,
    /// Cells hit in this window, in first-touch order.
    touched: Vec<u16>,
    prev: u64,
    sig: u64,
    /// Tokens folded into this window, resumed ones included.
    tokens: u64,
}

impl Default for EdgeTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeTrace {
    pub fn new() -> Self {
        EdgeTrace {
            counts: vec![0; MAP_SIZE],
            touched: Vec::new(),
            prev: 0,
            sig: FNV_OFFSET,
            tokens: 0,
        }
    }

    /// Start a fresh execution window.
    pub fn begin(&mut self) {
        for &cell in &self.touched {
            self.counts[cell as usize] = 0;
        }
        self.touched.clear();
        self.prev = 0;
        self.sig = FNV_OFFSET;
        self.tokens = 0;
    }

    /// Start a window as if `from`'s tokens had just been folded into it:
    /// folding the rest of a stream after resuming from a fold of its
    /// head ends in the state a fold of the whole stream from
    /// [`begin`](Self::begin) reaches, touched-cell order included. Costs
    /// the cells `from` touched, not the tokens it folded.
    pub fn resume(&mut self, from: &EdgeTrace) {
        self.begin();
        for &cell in &from.touched {
            self.counts[cell as usize] = from.counts[cell as usize];
        }
        self.touched.extend_from_slice(&from.touched);
        self.prev = from.prev;
        self.sig = from.sig;
        self.tokens = from.tokens;
    }

    /// Fold one stream token: bump the edge cell formed with the
    /// previous token and extend the stream signature.
    #[inline]
    pub fn observe_token(&mut self, token: u64) {
        self.sig = fnv_step(self.sig, token);
        self.tokens += 1;
        let cell = ((self.prev ^ token) & MASK) as usize;
        if self.counts[cell] == 0 {
            self.touched.push(cell as u16);
        }
        self.counts[cell] = self.counts[cell].saturating_add(1);
        // Shifted, not raw: A→B and B→A hash to different edges.
        self.prev = token >> 1;
    }

    /// Fold a recorded event (no-op for non-coverage kinds).
    #[inline]
    pub fn observe_event(&mut self, e: &Event) {
        if let Some(token) = event_token(e) {
            self.observe_token(token);
        }
    }

    /// Tokens folded into this window so far, including those a
    /// [`resume`](Self::resume) supplied.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Finish the window: the bucketed touched-cell list (in first-touch
    /// order, so it is a canonical value of the stream) and the stream
    /// signature.
    pub fn finish(&self) -> ExecCoverage {
        let cells = self.touched.iter().map(|&c| (c, bucket(self.counts[c as usize]))).collect();
        ExecCoverage { cells, signature: self.sig }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[inline]
fn fnv_step(h: u64, word: u64) -> u64 {
    let mut h = h;
    for shift in [0u32, 16, 32, 48] {
        h = (h ^ ((word >> shift) & 0xFFFF)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Canonical coverage of one execution: the bucketed cells it touched
/// (in first-touch order) and a full-stream signature for byte-replay
/// checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecCoverage {
    /// `(cell index, hit bucket)` pairs, one per distinct cell, in the
    /// order the stream first touched them.
    pub cells: Vec<(u16, u8)>,
    /// Order-sensitive hash of every coverage token in the stream.
    pub signature: u64,
}

/// Global coverage map: for each cell, a bitmask of hit buckets ever
/// observed. A `(cell, bucket)` observation is novel when its bit was
/// clear. Folding is sequential (fuzzer main thread), so plain bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct CoverageMap {
    // 16-bit bucket mask per cell; kept out of Debug output by the
    // manual impl below (16k cells of noise otherwise).
    seen: Vec<u16>,
    filled: usize,
    // Executions that touched each cell, saturating. Introspection
    // only — novelty never reads this.
    touches: Vec<u32>,
}

impl Default for CoverageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoverageMap").field("filled", &self.filled).finish_non_exhaustive()
    }
}

impl CoverageMap {
    pub fn new() -> Self {
        CoverageMap { seen: vec![0; MAP_SIZE], filled: 0, touches: vec![0; MAP_SIZE] }
    }

    /// Fold one execution's coverage in; returns how many `(cell,
    /// bucket)` observations were novel (0 = nothing new). A window lists
    /// each cell once, so the order of `cov.cells` does not matter.
    pub fn observe(&mut self, cov: &ExecCoverage) -> usize {
        let mut novel = 0;
        for &(cell, bucket) in &cov.cells {
            self.touches[cell as usize] = self.touches[cell as usize].saturating_add(1);
            let slot = &mut self.seen[cell as usize];
            let bit = 1u16 << bucket;
            if *slot & bit == 0 {
                if *slot == 0 {
                    self.filled += 1;
                }
                *slot |= bit;
                novel += 1;
            }
        }
        novel
    }

    /// The `n` most-touched cells as `(cell, executions-that-hit-it)`,
    /// hottest first; ties break toward the lower cell index so the
    /// result is a canonical value.
    pub fn hottest(&self, n: usize) -> Vec<(u16, u32)> {
        let mut cells: Vec<(u16, u32)> = self
            .touches
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t > 0)
            .map(|(c, &t)| (c as u16, t))
            .collect();
        cells.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        cells.truncate(n);
        cells
    }

    /// Would `cov` be novel, without folding it in?
    pub fn is_novel(&self, cov: &ExecCoverage) -> bool {
        cov.cells.iter().any(|&(cell, bucket)| self.seen[cell as usize] & (1 << bucket) == 0)
    }

    /// Number of cells hit at least once.
    pub fn fill(&self) -> usize {
        self.filled
    }

    /// Fill as a fraction of [`MAP_SIZE`].
    pub fn fill_ratio(&self) -> f64 {
        self.filled as f64 / MAP_SIZE as f64
    }

    /// Deterministic textual rendering: one `cell:bucket-mask` line per
    /// non-empty cell, in cell order. Used by the determinism tests to
    /// compare final maps byte-for-byte across thread counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (cell, &mask) in self.seen.iter().enumerate() {
            if mask != 0 {
                out.push_str(&format!("{cell:04x}:{mask:03x}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NO_PARTITION;

    fn ev(kind: EventKind, code: u32, a: u64) -> Event {
        Event { t_us: 7, kind, partition: 1, code, a, b: 0 }
    }

    #[test]
    fn executor_events_never_produce_tokens() {
        for kind in [
            EventKind::TestBegin,
            EventKind::TestEnd,
            EventKind::SnapshotClone,
            EventKind::TimerExpiry,
            EventKind::IrqRaised,
        ] {
            assert_eq!(event_token(&ev(kind, 3, 9)), None, "{kind:?} must be coverage-inert");
        }
        assert!(event_token(&ev(EventKind::HypercallEnter, 3, 9)).is_some());
    }

    #[test]
    fn token_is_timestamp_invariant() {
        let a = Event { t_us: 1, kind: EventKind::HmEvent, partition: 2, code: 5, a: 6, b: 0 };
        let b = Event { t_us: 999, ..a };
        assert_eq!(event_token(&a), event_token(&b));
    }

    #[test]
    fn edge_trace_is_order_sensitive() {
        let mut t = EdgeTrace::new();
        t.begin();
        t.observe_token(10);
        t.observe_token(20);
        let ab = t.finish();
        t.begin();
        t.observe_token(20);
        t.observe_token(10);
        let ba = t.finish();
        assert_ne!(ab.signature, ba.signature);
        assert_ne!(ab.cells, ba.cells);
    }

    #[test]
    fn edge_trace_scratch_resets_between_windows() {
        let mut t = EdgeTrace::new();
        t.begin();
        t.observe_token(10);
        t.observe_token(20);
        let first = t.finish();
        t.begin();
        t.observe_token(10);
        t.observe_token(20);
        assert_eq!(t.finish(), first, "reused scratch must not leak between windows");
    }

    /// A seeded SplitMix64 stream for the window tests.
    fn seeded(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix(state)
        }
    }

    /// `finish` lists every touched cell once, in first-touch order, with
    /// its bucketed count. Checked against a plain model (a list that
    /// appends a cell on its first hit and counts the later ones) on 2400
    /// seeded windows over one reused trace: small and large token
    /// vocabularies (edges repeat, or mostly do not), empty windows,
    /// tokens aimed at the first and last cell, and windows abandoned by
    /// a second `begin` without `finish`.
    #[test]
    fn finish_lists_cells_in_first_touch_order() {
        let mut next = seeded(0x5EED);
        let mut t = EdgeTrace::new();
        let (mut empty, mut abandoned, mut first, mut last, mut repeated) = (0, 0, 0, 0, 0);
        for window in 0..2400u64 {
            let small: Vec<u64> = (0..3).map(|_| next()).collect();
            let len = if window % 7 == 0 { 0 } else { next() % 300 };
            let abandon_at = (window % 5 == 0).then(|| next() % 300);
            t.begin();
            let mut model: Vec<(u16, u32)> = Vec::new();
            let mut at = std::collections::HashMap::<u16, usize>::new();
            let mut prev = 0u64;
            for i in 0..len {
                if abandon_at == Some(i) {
                    t.begin();
                    model.clear();
                    at.clear();
                    prev = 0;
                    abandoned += 1;
                }
                let token = match next() % 16 {
                    // Aimed at cell 0 or MAP_SIZE - 1, high bits random.
                    0 => (prev & MASK) | (next() & !MASK),
                    1 => (!prev & MASK) | (next() & !MASK),
                    _ if window % 2 == 0 => small[(next() % 3) as usize],
                    _ => next(),
                };
                t.observe_token(token);
                let cell = ((prev ^ token) & MASK) as u16;
                let k = *at.entry(cell).or_insert_with(|| {
                    model.push((cell, 0));
                    model.len() - 1
                });
                model[k].1 += 1;
                prev = token >> 1;
            }
            let cov = t.finish();
            let modelled: Vec<(u16, u8)> = model.iter().map(|&(c, n)| (c, bucket(n))).collect();
            assert_eq!(cov.cells, modelled, "window {window}");
            empty += usize::from(cov.cells.is_empty());
            first += usize::from(at.contains_key(&0));
            last += usize::from(at.contains_key(&((MAP_SIZE - 1) as u16)));
            repeated += usize::from(model.iter().any(|&(_, n)| n > 1));
        }
        for (what, n) in [
            ("empty", empty),
            ("abandoned", abandoned),
            ("cell 0", first),
            ("last cell", last),
            ("repeated-edge", repeated),
        ] {
            assert!(n > 100, "only {n} {what} windows");
        }
    }

    /// Resuming from a fold of a stream's head and folding the rest ends
    /// where a fold of the whole stream from `begin` ends: the same cells
    /// in the same order, the same signature and token count. Checked on
    /// 2400 seeded (head, rest) splits resumed into one reused trace:
    /// empty heads and empty rests, rests whose edges re-hit the head's
    /// cells, a trace left mid-window (no `finish`) before the resume, and
    /// a plain `begin` window after a resumed one.
    #[test]
    fn resume_then_fold_equals_a_fold_from_begin() {
        let mut next = seeded(0xC0DE);
        let (mut head, mut t, mut reference) =
            (EdgeTrace::new(), EdgeTrace::new(), EdgeTrace::new());
        let fold = |trace: &mut EdgeTrace, tokens: &[u64]| {
            for &x in tokens {
                trace.observe_token(x);
            }
        };
        let (mut empty_head, mut empty_rest, mut rehit, mut unfinished, mut after) =
            (0, 0, 0, 0, 0);
        for window in 0..2400u64 {
            let vocab: Vec<u64> = (0..4).map(|_| next()).collect();
            let head_len = if window % 6 == 0 { 0 } else { next() % 120 };
            let rest_len = if window % 5 == 0 { 0 } else { next() % 120 };
            let stream: Vec<u64> = (0..head_len + rest_len)
                .map(|_| if window % 2 == 0 { vocab[(next() % 4) as usize] } else { next() })
                .collect();
            let (h, r) = stream.split_at(head_len as usize);
            head.begin();
            fold(&mut head, h);
            if window % 3 == 0 {
                // A window left open: the resume must drop all of it.
                let junk: Vec<u64> = (0..1 + next() % 40).map(|_| next()).collect();
                fold(&mut t, &junk);
                unfinished += 1;
            }
            t.resume(&head);
            fold(&mut t, r);
            reference.begin();
            fold(&mut reference, &stream);
            assert_eq!(t.tokens(), reference.tokens(), "window {window}");
            assert_eq!(t.finish(), reference.finish(), "window {window}");

            let head_cells: Vec<u16> = head.finish().cells.iter().map(|&(c, _)| c).collect();
            let mut prev = h.last().map_or(0, |&x| x >> 1);
            rehit += usize::from(r.iter().any(|&x| {
                let cell = ((prev ^ x) & MASK) as u16;
                prev = x >> 1;
                head_cells.contains(&cell)
            }));
            empty_head += usize::from(h.is_empty());
            empty_rest += usize::from(r.is_empty());
            if window % 4 == 0 {
                // A `begin` after a resumed window starts from nothing.
                t.begin();
                fold(&mut t, r);
                reference.begin();
                fold(&mut reference, r);
                assert_eq!(t.tokens(), reference.tokens(), "window {window} after resume");
                assert_eq!(t.finish(), reference.finish(), "window {window} after resume");
                after += 1;
            }
        }
        for (what, n) in [
            ("empty-head", empty_head),
            ("empty-rest", empty_rest),
            ("re-hit", rehit),
            ("unfinished", unfinished),
            ("begin-after-resume", after),
        ] {
            assert!(n > 100, "only {n} {what} windows");
        }
    }

    #[test]
    fn hit_count_buckets_are_monotone_and_coarse() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(4), bucket(7));
        assert!(bucket(16) > bucket(8));
        assert_eq!(bucket(1000), bucket(u32::MAX));
    }

    #[test]
    fn map_novelty_and_fill() {
        let mut map = CoverageMap::new();
        let mut t = EdgeTrace::new();
        t.begin();
        t.observe_token(10);
        t.observe_token(20);
        let cov = t.finish();
        assert!(map.is_novel(&cov));
        let novel = map.observe(&cov);
        assert_eq!(novel, cov.cells.len());
        assert_eq!(map.fill(), cov.cells.len());
        assert!(!map.is_novel(&cov), "identical coverage is not novel twice");
        assert_eq!(map.observe(&cov), 0);

        // Same cells at a higher hit bucket ARE novel.
        t.begin();
        for _ in 0..8 {
            t.observe_token(10);
            t.observe_token(20);
        }
        let hot = t.finish();
        assert!(map.is_novel(&hot));
        assert!(map.observe(&hot) > 0);
        assert_eq!(map.fill(), cov.cells.len() + 1, "repeat edge 10->10 adds one cell");
    }

    #[test]
    fn hottest_counts_executions_and_breaks_ties_by_cell() {
        let mut map = CoverageMap::new();
        let mut t = EdgeTrace::new();
        // Edge 10->20 touched by three executions, 30->40 by one.
        for _ in 0..3 {
            t.begin();
            t.observe_token(10);
            t.observe_token(20);
            map.observe(&t.finish());
        }
        t.begin();
        t.observe_token(30);
        t.observe_token(40);
        map.observe(&t.finish());
        let hot = map.hottest(16);
        assert!(!hot.is_empty());
        assert_eq!(hot[0].1, 3, "hottest cell was touched by all three executions");
        for pair in hot.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "hottest() must be sorted by touches desc, cell asc"
            );
        }
        assert_eq!(map.hottest(1).len(), 1);
    }

    #[test]
    fn map_render_is_deterministic_and_sorted() {
        let mut map = CoverageMap::new();
        let mut t = EdgeTrace::new();
        t.begin();
        for tok in [90u64, 80, 70, 60] {
            t.observe_token(tok);
        }
        map.observe(&t.finish());
        let r = map.render();
        assert_eq!(r, map.clone().render());
        let cells: Vec<&str> = r.lines().map(|l| l.split(':').next().unwrap()).collect();
        let mut sorted = cells.clone();
        sorted.sort();
        assert_eq!(cells, sorted);
    }

    #[test]
    fn real_event_stream_roundtrip() {
        let mut t = EdgeTrace::new();
        t.begin();
        t.observe_event(&ev(EventKind::HypercallEnter, 1, 0));
        t.observe_event(&ev(EventKind::SnapshotClone, 0, 0)); // inert
        t.observe_event(&ev(EventKind::HypercallExit, 1, crate::encode_return(0)));
        t.observe_event(&Event {
            t_us: 3,
            kind: EventKind::SlotBegin,
            partition: NO_PARTITION,
            code: 0,
            a: 0,
            b: 0,
        });
        let cov = t.finish();
        assert_eq!(cov.cells.len(), 3, "three tokens, three first-seen edges");
    }
}
