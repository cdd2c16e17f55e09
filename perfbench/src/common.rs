//! What every workload shares: the round contract, the lap timer,
//! the seeded generator, and the engine work counters.

use crate::sys;
use crate::trace::Tracer;
use fuleak_domino::rng::SplitMix64;
use fuleak_experiments::scenario::EngineStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Deterministic work counts of one round, by name.
pub type Counters = BTreeMap<&'static str, u64>;

/// The checked result of one round.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations whose output was checked.
    pub ops: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Deterministic work counters; identical for every round of a
    /// run in the same tracing mode.
    pub counters: Counters,
    /// Workload figures of this round (e.g. `sim_mips`), reported as
    /// medians over rounds.
    pub figures: Vec<(&'static str, f64)>,
    /// Per-request latencies in microseconds (serving only).
    pub latencies_us: Vec<f64>,
}

/// What a workload's set-up is built from.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Picks which points or requests run, never how much work.
    pub seed: u64,
    /// `serve_mixed` only: one distinct (response-cache missing)
    /// request in every block of this many.
    pub miss_every: usize,
}

/// One benchmark workload: a set-up that reaches the ready state, a
/// timed round of fixed work, and an untimed check of its output.
pub trait Workload: Sized {
    /// The round's output, handed to [`Workload::check`].
    type Out;

    /// Reaches the ready state from the options. Timed as `setup_s`.
    fn setup(opts: &Options, tr: &mut Tracer) -> Result<Self, String>;

    /// Trace records the set-up captured (`exec.records`).
    fn exec_records(&self) -> u64;

    /// Computes the reference outputs the checks compare against.
    /// Untimed.
    fn prepare(&mut self) -> Result<(), String>;

    /// One round of the timed phase, its work cut into laps timed
    /// through `laps`. The work, and so every counter and every lap,
    /// is the same in every round.
    fn round(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Self::Out;

    /// Checks a round's output and reads its counters. Untimed;
    /// `wall_s` is the round's measured wall time.
    fn check(&mut self, out: Self::Out, wall_s: f64) -> Checked;
}

/// The wall and CPU time of each lap of one round, in the order the
/// laps ran.
///
/// A round is cut into laps of a few milliseconds to a tenth of a
/// second, and lap `i` does the same work in every round. The driver
/// keeps each lap's fastest time over the run and reports their sum:
/// on a shared host, a neighbour slows the program for stretches of
/// a fraction of a second to a minute, and the sum of per-lap minima
/// needs only a quiet moment for each lap, where the fastest whole
/// round needs one quiet round.
#[derive(Debug, Default)]
pub struct Laps {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
}

impl Laps {
    /// Runs `f` as the round's next lap.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = sys::cpu_s();
        let t0 = Instant::now();
        let out = f();
        self.wall_s.push(t0.elapsed().as_secs_f64());
        self.cpu_s.push(sys::cpu_s() - cpu0);
        out
    }

    /// Forgets every lap, for the next round.
    pub fn clear(&mut self) {
        self.wall_s.clear();
        self.cpu_s.clear();
    }
}

/// The seeded input generator: SplitMix64 from `fuleak-domino`, so
/// the same seed gives the same inputs on every platform.
pub struct Rng(SplitMix64);

impl Rng {
    /// A generator seeded from `seed` and a per-workload `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(SplitMix64::new(
            seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
        ))
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct items of `pool`, in pool order.
    pub fn pick<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx.sort_unstable();
        idx.into_iter().map(|i| pool[i]).collect()
    }
}

/// Adds one engine's work over a round to `c`.
pub fn add_engine(c: &mut Counters, s: &EngineStats) {
    let mut add = |name: &'static str, v: u64| *c.entry(name).or_default() += v;
    add("annotate.built", s.annotations_built as u64);
    add("exec.captures", s.captures as u64);
    add("timing.points", s.simulated() as u64);
    add("timing.batched_lanes", s.batched_lanes as u64);
    add("timing.scalar_fallbacks", s.scalar_fallbacks as u64);
    add("policy.points", s.policy_misses as u64);
    add("policy.hits", s.policy_hits as u64);
    add("policy_eval.points", s.grid_points);
    add("scenario.sim_lookups", (s.hits + s.misses) as u64);
    add("scenario.sim_hits", s.hits as u64);
    add("scenario.flight_waits", s.flight_waits as u64);
    add("scenario.disk_hits", s.disk_hits as u64);
}

/// Adds `v` to counter `name`.
pub fn count(c: &mut Counters, name: &'static str, v: u64) {
    *c.entry(name).or_default() += v;
}

/// The median of `v` (the mean of the middle two for even lengths);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
