//! Client requests and their executions, kept as runs.
//!
//! A saturation run preloads every replica with one range of request ids
//! submitted at one instant, and a replica executes a whole batch at one
//! completion time. So the request queue is a few runs of consecutive
//! ids that share a submit time, and the execution record is a few runs
//! of equal `(submitted, done)` pairs. Both types here store those runs,
//! so a replica's bookkeeping grows with the number of runs, not with
//! the number of requests, while reading back exactly the sequence a
//! `VecDeque<(u64, SimTime)>` or a `Vec<(SimTime, SimTime)>` would hold:
//!
//! - [`RequestRuns`] is a FIFO of `(first id, count, submitted)`: a
//!   request extends the last run when its id follows that run's last id
//!   and it was submitted at the same time.
//! - [`ExecRuns`] is a run-length record of `(submitted, done, count)`:
//!   an execution extends the last run when both its times match it.
//!   Its [`latencies`](ExecRuns::latencies) are a `Histogram` filled
//!   one weighted record per run, which holds runs too.
//! - [`LogRuns`] is Raft's log as runs of `(term, first id, count,
//!   submitted)`: the leader logs a client burst in one term, so its log
//!   and every follower's is a few runs however many requests it holds.
//!
//! Equality compares the sequences, not how they happen to be split into
//! runs.

use std::collections::VecDeque;

use decent_sim::metrics::Histogram;
use decent_sim::prelude::SimTime;

use crate::raft::Entry;

/// `count` consecutive request ids from `first`, all submitted at
/// `submitted`.
#[derive(Copy, Clone, Debug)]
struct IdRun {
    first: u64,
    count: u64,
    submitted: SimTime,
}

/// A FIFO of client requests `(id, submitted)`, stored as runs of
/// consecutive ids with one submit time.
///
/// # Examples
///
/// ```
/// use decent_bft::runs::RequestRuns;
/// use decent_sim::prelude::SimTime;
///
/// let mut queue: RequestRuns = (0..1000).map(|id| (id, SimTime::ZERO)).collect();
/// assert_eq!((queue.len(), queue.runs()), (1000, 1));
/// assert_eq!(queue.pop_front(), Some((0, SimTime::ZERO)));
/// assert_eq!(queue.front(), Some((1, SimTime::ZERO)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RequestRuns {
    runs: VecDeque<IdRun>,
    /// Requests across all runs.
    len: usize,
}

impl RequestRuns {
    /// An empty queue.
    pub fn new() -> Self {
        RequestRuns::default()
    }

    /// Appends request `id`, submitted at `submitted`.
    pub fn push_back(&mut self, id: u64, submitted: SimTime) {
        self.len += 1;
        if let Some(last) = self.runs.back_mut() {
            if last.submitted == submitted
                && last.count < u64::MAX
                && last.first.checked_add(last.count) == Some(id)
            {
                last.count += 1;
                return;
            }
        }
        self.runs.push_back(IdRun {
            first: id,
            count: 1,
            submitted,
        });
    }

    /// The request at the front, if any.
    pub fn front(&self) -> Option<(u64, SimTime)> {
        self.runs.front().map(|r| (r.first, r.submitted))
    }

    /// Removes and returns the request at the front.
    pub fn pop_front(&mut self) -> Option<(u64, SimTime)> {
        let run = self.runs.front_mut()?;
        let req = (run.first, run.submitted);
        if run.count == 1 {
            self.runs.pop_front();
        } else {
            run.first += 1;
            run.count -= 1;
        }
        self.len -= 1;
        Some(req)
    }

    /// Number of requests queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no request is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs the requests are stored as.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// The requests, front to back.
    pub fn iter(&self) -> impl Iterator<Item = (u64, SimTime)> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (0..r.count).map(move |k| (r.first + k, r.submitted)))
    }
}

impl Extend<(u64, SimTime)> for RequestRuns {
    fn extend<I: IntoIterator<Item = (u64, SimTime)>>(&mut self, reqs: I) {
        for (id, submitted) in reqs {
            self.push_back(id, submitted);
        }
    }
}

impl FromIterator<(u64, SimTime)> for RequestRuns {
    fn from_iter<I: IntoIterator<Item = (u64, SimTime)>>(reqs: I) -> Self {
        let mut queue = RequestRuns::new();
        queue.extend(reqs);
        queue
    }
}

impl PartialEq for RequestRuns {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// `count` executions submitted at `submitted` and done at `done`.
#[derive(Copy, Clone, Debug)]
struct ExecRun {
    submitted: SimTime,
    done: SimTime,
    count: u64,
}

/// A record of executions `(submitted, done)` in the order they
/// happened, stored as runs of equal pairs.
///
/// # Examples
///
/// ```
/// use decent_bft::runs::ExecRuns;
/// use decent_sim::prelude::SimTime;
///
/// let (t0, t1) = (SimTime::ZERO, SimTime::from_secs(1.0));
/// let mut record = ExecRuns::new();
/// for _ in 0..512 {
///     record.push(t0, t1);
/// }
/// assert_eq!((record.len(), record.runs()), (512, 1));
/// assert!(record.iter().all(|pair| pair == (t0, t1)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExecRuns {
    runs: Vec<ExecRun>,
    /// Executions across all runs.
    len: usize,
}

impl ExecRuns {
    /// An empty record.
    pub fn new() -> Self {
        ExecRuns::default()
    }

    /// Records one execution of a request submitted at `submitted` and
    /// done at `done`.
    pub fn push(&mut self, submitted: SimTime, done: SimTime) {
        self.len += 1;
        if let Some(last) = self.runs.last_mut() {
            if last.submitted == submitted && last.done == done && last.count < u64::MAX {
                last.count += 1;
                return;
            }
        }
        self.runs.push(ExecRun {
            submitted,
            done,
            count: 1,
        });
    }

    /// Number of executions recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs the executions are stored as.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// The executions `(submitted, done)` in recorded order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (0..r.count).map(move |_| (r.submitted, r.done)))
    }

    /// The executions of requests submitted at `submitted`, in recorded
    /// order.
    pub fn submitted_at(&self, submitted: SimTime) -> ExecRuns {
        let runs: Vec<ExecRun> = self
            .runs
            .iter()
            .filter(|r| r.submitted == submitted)
            .copied()
            .collect();
        let len = runs.iter().map(|r| r.count as usize).sum();
        ExecRuns { runs, len }
    }

    /// Each execution's latency `done - submitted` in seconds, one
    /// weighted record per run.
    pub fn latencies(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in &self.runs {
            h.record_n(r.done.saturating_since(r.submitted).as_secs(), r.count);
        }
        h
    }
}

impl PartialEq for ExecRuns {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// `count` consecutive entries of one term, logged from index `start`:
/// request ids `first..first + count`, all submitted at `submitted`.
#[derive(Copy, Clone, Debug)]
struct LogRun {
    start: u64,
    term: u64,
    first: u64,
    count: u64,
    submitted: SimTime,
}

impl LogRun {
    fn entry(&self, index: u64) -> Entry {
        (self.term, self.first + (index - self.start), self.submitted)
    }
}

/// A Raft log of [`Entry`] `(term, request id, submitted)` at indices
/// `1..=len`, stored as runs: an entry extends the last run when it has
/// that run's term and submit time and the id after its last one. Index
/// 0 is the sentinel every log starts from, of term 0.
///
/// # Examples
///
/// ```
/// use decent_bft::runs::LogRuns;
/// use decent_sim::prelude::SimTime;
///
/// let t = SimTime::from_secs(1.0);
/// let mut log = LogRuns::new();
/// for id in 0..200_000 {
///     log.push((1, id, t));
/// }
/// assert_eq!((log.len(), log.runs()), (200_000, 1));
/// assert_eq!((log.term(0), log.entry(7)), (0, (1, 6, t)));
/// log.truncate(10);
/// log.push((2, 0, t));
/// assert_eq!((log.len(), log.runs(), log.term(11)), (11, 2, 2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LogRuns {
    runs: Vec<LogRun>,
}

impl LogRuns {
    /// An empty log: the sentinel alone.
    pub fn new() -> Self {
        LogRuns::default()
    }

    /// Entries after the sentinel: the index of the last one.
    pub fn len(&self) -> u64 {
        self.runs.last().map_or(0, |r| r.start + r.count - 1)
    }

    /// Whether the log holds nothing but the sentinel.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs the entries are stored as.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// The run holding `index`, which must be in `1..=len`.
    fn run_of(&self, index: u64) -> &LogRun {
        assert!(
            (1..=self.len()).contains(&index),
            "log index {index} outside 1..={}",
            self.len()
        );
        &self.runs[self.runs.partition_point(|r| r.start <= index) - 1]
    }

    /// The entry at `index` in `1..=len`.
    pub fn entry(&self, index: u64) -> Entry {
        self.run_of(index).entry(index)
    }

    /// The term at `index` in `0..=len`: 0 at the sentinel.
    pub fn term(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else {
            self.run_of(index).term
        }
    }

    /// Appends `entry` at index `len + 1`.
    pub fn push(&mut self, (term, id, submitted): Entry) {
        let start = self.len() + 1;
        if let Some(last) = self.runs.last_mut() {
            if last.term == term
                && last.submitted == submitted
                && last.first.checked_add(last.count) == Some(id)
            {
                last.count += 1;
                return;
            }
        }
        self.runs.push(LogRun {
            start,
            term,
            first: id,
            count: 1,
            submitted,
        });
    }

    /// Keeps the entries at `1..=len` and drops the rest (none if the
    /// log is no longer).
    pub fn truncate(&mut self, len: u64) {
        let keep = self.runs.partition_point(|r| r.start <= len);
        self.runs.truncate(keep);
        if let Some(last) = self.runs.last_mut() {
            last.count = last.count.min(len + 1 - last.start);
        }
    }

    /// Up to `max` entries from index `from` (at least 1) on.
    pub fn slice(&self, from: u64, max: usize) -> Vec<Entry> {
        if from > self.len() {
            return Vec::new();
        }
        let first = self.runs.partition_point(|r| r.start <= from) - 1;
        self.runs[first..]
            .iter()
            .flat_map(|r| (r.start.max(from)..r.start + r.count).map(move |i| r.entry(i)))
            .take(max)
            .collect()
    }

    /// The entries at `1..=len`, in order.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (r.start..r.start + r.count).map(move |i| r.entry(i)))
    }
}

#[cfg(test)]
mod tests {
    use rand::Rng;

    use decent_sim::prelude::rng_from_seed;

    use super::*;

    /// A request id drawn to hit every coalescing case: the id after the
    /// last one pushed (extends a run), a repeat of it, a small random id
    /// (non-contiguous), or an id at the top of the `u64` range.
    fn next_id(rng: &mut impl Rng, last: Option<u64>) -> u64 {
        match (rng.gen_range(0..10), last) {
            (0..=4, Some(id)) => id.wrapping_add(1),
            (5, Some(id)) => id,
            (6, _) => u64::MAX - rng.gen_range(0..3u64),
            _ => rng.gen_range(0..32u64),
        }
    }

    #[test]
    fn request_runs_match_a_deque() {
        let (mut coalesced, mut split, mut emptied) = (0, 0, 0);
        for seed in 0..64 {
            let mut rng = rng_from_seed(seed);
            let mut runs = RequestRuns::new();
            let mut model: VecDeque<(u64, SimTime)> = VecDeque::new();
            let mut now = SimTime::ZERO;
            let mut last = None;
            for step in 0..400 {
                match rng.gen_range(0..10) {
                    // Pushes, sometimes at a new submit time.
                    0..=5 => {
                        if rng.gen_range(0..4) == 0 {
                            now = SimTime::from_secs(step as f64);
                        }
                        let id = next_id(&mut rng, last);
                        let before = runs.runs();
                        runs.push_back(id, now);
                        model.push_back((id, now));
                        last = Some(id);
                        if runs.runs() == before {
                            coalesced += 1;
                        } else {
                            split += 1;
                        }
                    }
                    // Pops, sometimes until empty.
                    6..=8 => {
                        let pops = if rng.gen_range(0..8) == 0 {
                            model.len() + 1
                        } else {
                            rng.gen_range(1..4)
                        };
                        for _ in 0..pops {
                            assert_eq!(runs.pop_front(), model.pop_front(), "seed {seed}");
                        }
                        emptied += usize::from(model.is_empty());
                    }
                    // A range at once, as `submit_many` adds it.
                    _ => {
                        let start = next_id(&mut rng, last);
                        let n = rng.gen_range(0..6);
                        let ids: Vec<u64> = (0..n).map_while(|k| start.checked_add(k)).collect();
                        runs.extend(ids.iter().map(|&id| (id, now)));
                        model.extend(ids.iter().map(|&id| (id, now)));
                        last = ids.last().copied().or(last);
                    }
                }
                assert_eq!(runs.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(runs.is_empty(), model.is_empty());
                assert_eq!(runs.front(), model.front().copied());
                assert!(
                    runs.iter().eq(model.iter().copied()),
                    "seed {seed} step {step}"
                );
                assert!(runs.runs() <= runs.len());
                let rebuilt: RequestRuns = model.iter().copied().collect();
                assert_eq!(rebuilt, runs);
                assert_eq!(runs.clone(), runs);
            }
        }
        assert!(coalesced > 0 && split > 0 && emptied > 0);
    }

    #[test]
    fn a_range_is_one_run_and_stops_at_the_top_of_u64() {
        let t = SimTime::from_secs(3.0);
        let queue: RequestRuns = (0..200_000).map(|id| (id, t)).collect();
        assert_eq!((queue.len(), queue.runs()), (200_000, 1));
        let top: RequestRuns = [u64::MAX - 1, u64::MAX, 0]
            .map(|id| (id, t))
            .into_iter()
            .collect();
        assert_eq!(top.runs(), 2, "no run wraps past u64::MAX");
        assert!(top.iter().eq([(u64::MAX - 1, t), (u64::MAX, t), (0, t)]));
        let later: RequestRuns = [(1, t), (2, SimTime::from_secs(4.0))].into_iter().collect();
        assert_eq!(later.runs(), 2, "a new submit time starts a run");
        assert_ne!(later, RequestRuns::new());
    }

    #[test]
    fn exec_runs_match_a_vec() {
        let mut coalesced = 0;
        for seed in 0..64 {
            let mut rng = rng_from_seed(seed);
            let mut runs = ExecRuns::new();
            let mut model: Vec<(SimTime, SimTime)> = Vec::new();
            let (mut submitted, mut done) = (SimTime::ZERO, SimTime::ZERO);
            for step in 0..400 {
                match rng.gen_range(0..10) {
                    0 => submitted = SimTime::from_secs(rng.gen_range(0..4u32).into()),
                    1..=2 => done = SimTime::from_secs(rng.gen_range(0..4u32).into()),
                    _ => {}
                }
                let before = runs.runs();
                runs.push(submitted, done);
                model.push((submitted, done));
                coalesced += usize::from(runs.runs() == before);
                assert_eq!(runs.len(), model.len(), "seed {seed} step {step}");
                assert!(
                    runs.iter().eq(model.iter().copied()),
                    "seed {seed} step {step}"
                );
            }
            let mut other = ExecRuns::new();
            for &(s, d) in &model {
                other.push(s, d);
            }
            assert_eq!(other, runs);
            other.push(submitted, done);
            assert_ne!(other, runs);
        }
        assert!(coalesced > 0);
        assert!(ExecRuns::new().is_empty() && ExecRuns::new().iter().next().is_none());
    }

    #[test]
    fn latencies_match_the_expanded_record() {
        for seed in 0..64 {
            let mut rng = rng_from_seed(seed);
            let mut record = ExecRuns::new();
            // Sub-millisecond times whose latencies do not add exactly.
            let ns = |rng: &mut decent_sim::prelude::SimRng| {
                SimTime::from_nanos(rng.gen_range(0..1_000_000u64) * 7 + 3)
            };
            for _ in 0..rng.gen_range(0..40) {
                let (submitted, done) = (ns(&mut rng), ns(&mut rng));
                for _ in 0..rng.gen_range(1..300) {
                    record.push(submitted, done);
                }
            }
            let expanded = |execs: &ExecRuns| -> Histogram {
                execs
                    .iter()
                    .map(|(s, d)| d.saturating_since(s).as_secs())
                    .collect()
            };
            assert!(record.latencies() == expanded(&record), "seed {seed}");
            // One submit time's share, as E19 measures a phase.
            let middle = record.iter().nth(record.len() / 2);
            if let Some((t, _)) = middle {
                let phase = record.submitted_at(t);
                let model: Vec<_> = record.iter().filter(|&(s, _)| s == t).collect();
                assert!(phase.iter().eq(model.iter().copied()), "seed {seed}");
                assert!(phase.latencies() == expanded(&phase), "seed {seed}");
                assert_eq!(phase.latencies().count(), model.len());
            }
        }
        assert!(ExecRuns::new().latencies().is_empty());
    }

    #[test]
    fn log_runs_match_a_vec() {
        let (mut split, mut truncated) = (0, 0);
        for seed in 0..64 {
            let mut rng = rng_from_seed(seed);
            let mut log = LogRuns::new();
            // Index 0 is the sentinel, as in the log this replaces.
            let mut model: Vec<Entry> = vec![(0, 0, SimTime::ZERO)];
            let (mut term, mut submitted, mut last) = (1, SimTime::ZERO, None);
            for step in 0..300 {
                match rng.gen_range(0..10) {
                    0 => term += 1,
                    1 => submitted = SimTime::from_secs(rng.gen_range(0..3u32).into()),
                    2 => {
                        let len = rng.gen_range(0..model.len() as u64 + 2);
                        log.truncate(len);
                        model.truncate(model.len().min(len as usize + 1));
                        truncated += 1;
                    }
                    _ => {
                        let id = next_id(&mut rng, last);
                        let before = log.runs();
                        log.push((term, id, submitted));
                        model.push((term, id, submitted));
                        last = Some(id);
                        split += usize::from(log.runs() > before && before > 0);
                    }
                }
                let len = model.len() as u64 - 1;
                assert_eq!(log.len(), len, "seed {seed} step {step}");
                assert_eq!(log.is_empty(), len == 0);
                assert!(
                    log.iter().eq(model[1..].iter().copied()),
                    "seed {seed} step {step}"
                );
                for i in 0..=len {
                    assert_eq!(log.term(i), model[i as usize].0);
                }
                for i in 1..=len {
                    assert_eq!(log.entry(i), model[i as usize]);
                }
                let from = rng.gen_range(1..len + 2);
                let max = rng.gen_range(0..8);
                let upper = model.len().min(from as usize + max);
                assert_eq!(
                    log.slice(from, max),
                    model[from as usize..upper],
                    "seed {seed}"
                );
                assert!(log.runs() as u64 <= len);
            }
        }
        assert!(split > 0 && truncated > 0);
    }
}
