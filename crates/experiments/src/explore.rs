//! `repro explore` — a grid-batched design-space explorer over the
//! policy × slices × leakage × transition-cost space.
//!
//! The sweep path ([`crate::scenario::SweepSpec`] eval axes) treats a
//! policy/technology grid as *result rows*: every cell is one
//! [`crate::policy::PolicyCache`]-mediated `spectrum_run` call and one
//! table row. That is the right shape for hundreds of points a human
//! reads; it is the wrong shape for the millions-of-points regime the
//! closed-form evaluator makes affordable — the cache's lock/hash
//! round-trip costs more than the evaluation it memoizes, and a
//! materialized row list is gigabytes.
//!
//! This module prices the grid with [`PlaneEval`] — each benchmark's
//! `p × E_slp` technology plane priced once per axis value for the
//! forms every point shares, per point only for the breakeven-derived
//! ones — and streams three digests instead of rows:
//!
//! * **optima** — the best `E/E_max` cell per benchmark × policy
//!   family;
//! * **frontier** — per benchmark, the exact Pareto frontier of
//!   `(E/E_max, transition equivalents)` — energy vs. wake-up
//!   exposure, the delay proxy of the spectrum evaluation layer;
//! * **crossover** — per leakage factor `p`, the GradualSleep slice
//!   count with the lowest mean `E/E_max` (the Figure 9 crossover
//!   question asked over the whole grid).
//!
//! Work is sharded over [`parallel_map`] twice: the planes one
//! benchmark per task (pure, so task order cannot matter), then the
//! fold in **fixed-size chunks of the canonical item order**
//! (benchmark-major, then leakage, then transition cost), independent
//! of the worker count: every chunk
//! folds its items into an accumulator sequentially, and the main
//! thread merges chunk accumulators in chunk order — so output is
//! byte-identical for any `--jobs N`, with `O(frontier)` memory, and
//! the [`crate::policy::PolicyCache`] is deliberately bypassed
//! (compute is cheaper than memoization at this density; the cache
//! stays for the sweep path).

use crate::harness::{run_benchmark_on, BenchRun, Budget};
use crate::policy::{PolicyKind, EVAL_ALPHA};
use crate::result::{Cell, ResultTable};
use crate::scenario::{parallel_map, Engine, SweepSpec, FU_CANDIDATES};
use fuleak_core::fxhash::FxHashSet;
use fuleak_core::policy_eval::{PlaneEval, PlaneRuns};
use fuleak_core::tech::{DEFAULT_DUTY_CYCLE, DEFAULT_LEAK_RATIO};
use fuleak_core::{EnergyModel, TechnologyParams};
use fuleak_workloads::Benchmark;

/// The L2 hit latency the explorer simulates its substrate at — the
/// paper's default (Table 2), matching the Figure 8/9 suite.
pub const EXPLORE_L2: u64 = 12;

/// Items per work chunk. Fixed — never derived from the worker count
/// — so the chunk partition, every chunk-local accumulation order,
/// and the chunk-order merge are identical for any `--jobs N`.
const CHUNK_ITEMS: usize = 64;

/// Expands an inclusive `lo..=hi` fraction range at `step` into its
/// value list: `lo + i * step` for `i = 0..=floor((hi - lo) / step)`
/// (with a small tolerance so `0:1:0.02` lands exactly on 51 values).
/// The same expression the CLI's range grammar evaluates, so a flag
/// value and a built-in default can never drift apart bitwise. A value
/// that rounds past 1 (`0.09:1:0.07` reaches `1.0000000000000002`) is
/// clamped to 1, so every expansion is a valid fraction; values at or
/// below 1 keep their bits.
///
/// # Panics
///
/// Panics if the range is not ordered, the step is not positive, or
/// any endpoint falls outside `[0, 1]` — explorer fractions are
/// energy-model knobs, validated at build time like
/// [`SweepSpec::axis_leak_ratio`].
pub fn fraction_steps(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    assert!(
        lo.is_finite() && hi.is_finite() && (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi),
        "fraction range endpoints must lie in [0, 1], got {lo}:{hi}"
    );
    assert!(lo <= hi, "empty fraction range {lo}:{hi}");
    assert!(
        step.is_finite() && step > 0.0,
        "fraction range step must be positive, got {step}"
    );
    let count = ((hi - lo) / step + 1e-9).floor() as usize;
    (0..=count)
        .map(|i| (lo + i as f64 * step).min(1.0))
        .collect()
}

/// The explorer's design space: benchmarks × policy families ×
/// GradualSleep slice counts × leakage factors × transition costs at
/// one budget. [`ExploreSpec::new`] starts on the default grid (every
/// benchmark; the four paper policies plus TimeoutSleep; slices 1–64;
/// `p` and `E_slp/E_D` each swept `0:1:0.02`) — 1.59M grid points —
/// and the builders replace axes with build-time validation, exactly
/// like [`SweepSpec`].
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    benches: Vec<&'static str>,
    policies: Vec<PolicyKind>,
    slices: Vec<u32>,
    leaks: Vec<f64>,
    transitions: Vec<f64>,
    budget: Budget,
}

impl ExploreSpec {
    /// The default exploration grid at the given budget.
    pub fn new(budget: Budget) -> Self {
        ExploreSpec {
            benches: Benchmark::all().iter().map(|b| b.name).collect(),
            policies: vec![
                PolicyKind::MaxSleep,
                PolicyKind::GradualSleep,
                PolicyKind::AlwaysActive,
                PolicyKind::NoOverhead,
                PolicyKind::TimeoutSleep,
            ],
            slices: (1..=64).collect(),
            leaks: fraction_steps(0.0, 1.0, 0.02),
            transitions: fraction_steps(0.0, 1.0, 0.02),
            budget,
        }
    }

    /// Restricts the exploration to the given benchmarks.
    ///
    /// # Panics
    ///
    /// Panics on an unknown or empty benchmark list — validated at
    /// build time like [`SweepSpec::benches`].
    pub fn benches(mut self, benches: impl IntoIterator<Item = &'static str>) -> Self {
        self.benches = benches
            .into_iter()
            .inspect(|name| {
                assert!(
                    Benchmark::by_name(name).is_some(),
                    "unknown benchmark `{name}`; registered: {}",
                    Benchmark::registered_names()
                );
            })
            .collect();
        assert!(!self.benches.is_empty(), "--bench needs at least one value");
        self
    }

    /// Replaces the policy-family axis.
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn policies(mut self, kinds: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies = kinds.into_iter().collect();
        assert!(
            !self.policies.is_empty(),
            "--policy needs at least one value"
        );
        self
    }

    /// Replaces the GradualSleep slice-count axis (other families
    /// ignore it and are deduplicated across its values).
    ///
    /// # Panics
    ///
    /// Panics on a zero slice count or an empty list.
    pub fn slices(mut self, slices: impl IntoIterator<Item = u32>) -> Self {
        self.slices = slices
            .into_iter()
            .inspect(|&s| assert!(s > 0, "GradualSleep requires at least one slice"))
            .collect();
        assert!(!self.slices.is_empty(), "--slices needs at least one value");
        self
    }

    /// Replaces the leakage-factor axis (`p = E_hi / E_D`).
    ///
    /// # Panics
    ///
    /// Panics on a value outside `[0, 1]` or an empty list.
    pub fn leaks(mut self, ps: impl IntoIterator<Item = f64>) -> Self {
        self.leaks = ps
            .into_iter()
            .inspect(|&p| {
                assert!(
                    p.is_finite() && (0.0..=1.0).contains(&p),
                    "leakage factor must lie in [0, 1], got {p}"
                );
            })
            .collect();
        assert!(!self.leaks.is_empty(), "--leak needs at least one value");
        self
    }

    /// Replaces the transition-cost axis (`E_slp / E_D`).
    ///
    /// # Panics
    ///
    /// Panics on a value outside `[0, 1]` or an empty list.
    pub fn transitions(mut self, costs: impl IntoIterator<Item = f64>) -> Self {
        self.transitions = costs
            .into_iter()
            .inspect(|&c| {
                assert!(
                    c.is_finite() && (0.0..=1.0).contains(&c),
                    "transition cost must lie in [0, 1], got {c}"
                );
            })
            .collect();
        assert!(
            !self.transitions.is_empty(),
            "--transition needs at least one value"
        );
        self
    }

    /// The spec's benchmarks.
    pub fn bench_names(&self) -> &[&'static str] {
        &self.benches
    }

    /// The spec's instruction budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The policy families explored, in user order.
    pub fn policy_kinds(&self) -> &[PolicyKind] {
        &self.policies
    }

    /// The GradualSleep slice counts explored, in user order.
    pub fn slice_counts(&self) -> &[u32] {
        &self.slices
    }

    /// The leakage-ratio axis, in user order.
    pub fn leak_values(&self) -> &[f64] {
        &self.leaks
    }

    /// The transition-cost axis, in user order.
    pub fn transition_values(&self) -> &[f64] {
        &self.transitions
    }

    /// The deduplicated `(family, slice override)` grid one
    /// technology point prices: policy-major, slices nested, slice
    /// overrides collapsing for every family but GradualSleep — the
    /// same dedup rule as [`SweepSpec::eval_points`], minus the
    /// technology axes (those shard the work instead). Length is
    /// model-independent, so every grid item prices the same G forms.
    pub fn form_combos(&self) -> Vec<(PolicyKind, Option<u32>)> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for &policy in &self.policies {
            for &slice in &self.slices {
                let slices = match policy {
                    PolicyKind::GradualSleep => Some(slice),
                    _ => None,
                };
                if seen.insert((policy, slices)) {
                    out.push((policy, slices));
                }
            }
        }
        out
    }

    /// Technology items in the grid: benchmarks × leaks × transitions,
    /// each one point of its benchmark's technology plane carrying
    /// [`ExploreSpec::form_combos`] forms. Items are the unit of the
    /// fold's canonical order; the pricing itself is per plane row
    /// (see [`PlaneEval`]), not per item.
    pub fn items(&self) -> usize {
        self.benches.len() * self.leaks.len() * self.transitions.len()
    }

    /// Total policy points the exploration prices.
    pub fn points(&self) -> u64 {
        self.items() as u64 * self.form_combos().len() as u64
    }
}

/// One `(E/E_max, transitions)` candidate with its grid coordinates.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    ratio: f64,
    trans: f64,
    leak_i: usize,
    trans_i: usize,
    combo_i: usize,
}

/// Optimum tracker: strictly-smaller `E/E_max` replaces, so ties keep
/// the earliest point in canonical grid order.
fn fold_best(best: &mut Option<GridPoint>, p: GridPoint, energy: &mut f64, e: f64) {
    match best {
        Some(b) if p.ratio >= b.ratio => {}
        _ => {
            *best = Some(p);
            *energy = e;
        }
    }
}

/// Inserts `p` into a Pareto frontier kept sorted by `ratio`
/// ascending with `trans` strictly descending. Weak dominance: `p` is
/// rejected if an earlier-inserted point is at least as good on both
/// axes (so canonical-order insertion keeps the earliest of ties),
/// and `p` evicts every point it weakly dominates. Chunk-local
/// pre-filtering is exact — dominance is transitive, so a point
/// evicted within its chunk is also evicted by the full canonical
/// scan.
fn frontier_insert(frontier: &mut Vec<GridPoint>, p: GridPoint) {
    let lo = frontier.partition_point(|q| q.ratio < p.ratio);
    // Dominated if any cheaper-or-equal-energy point is at least as
    // unexposed: the cheapest candidate among the strictly-cheaper
    // prefix is its last element, plus a possible equal-energy point
    // at `lo` itself.
    if lo > 0 && frontier[lo - 1].trans <= p.trans {
        return;
    }
    if frontier
        .get(lo)
        .is_some_and(|q| q.ratio == p.ratio && q.trans <= p.trans)
    {
        return;
    }
    let keep_to = lo + frontier[lo..].partition_point(|q| q.trans >= p.trans);
    frontier.splice(lo..keep_to, [p]);
}

/// One chunk's fold: per-`(bench, family)` optima, per-bench frontier
/// survivors, and partial `E/E_max` sums per `(leak, gradual slice)`
/// cell.
struct ChunkFold {
    best: Vec<Option<GridPoint>>,
    best_energy: Vec<f64>,
    frontiers: Vec<Vec<GridPoint>>,
    sums: Vec<f64>,
}

/// The three streamed digests of one exploration, plus the priced
/// point count (what the CLI reports and BENCH records).
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Best `E/E_max` per benchmark × policy family.
    pub optima: ResultTable,
    /// Per-benchmark `(E/E_max, transitions)` Pareto frontiers.
    pub frontier: ResultTable,
    /// Best GradualSleep slice count per leakage factor.
    pub crossover: ResultTable,
    /// Policy points priced.
    pub points: u64,
}

/// Builds the energy model of one technology item (paper defaults for
/// the leak ratio and duty cycle, [`EVAL_ALPHA`] activity).
fn model_at(leak: f64, transition: f64) -> EnergyModel {
    let tech = TechnologyParams::new(leak, DEFAULT_LEAK_RATIO, transition, DEFAULT_DUTY_CYCLE)
        .expect("explore fractions are validated at build time");
    EnergyModel::new(tech, EVAL_ALPHA).expect("EVAL_ALPHA is a valid activity factor")
}

/// Runs one exploration: simulates the substrate (each benchmark at
/// its paper-selected FU count, through the engine's caches as
/// usual), then prices each benchmark's technology plane with one
/// [`PlaneEval`] run over its FU spectra — no
/// [`crate::policy::PolicyCache`] traffic — and folds the three
/// digests. Output is byte-identical for any engine worker count;
/// plane traversal and point counters land in
/// [`crate::scenario::EngineStats`].
pub fn explore(engine: &Engine, spec: &ExploreSpec) -> ExploreResult {
    // Substrate: fan the FU-candidate points out across workers, then
    // apply the selection rule per benchmark from the warm cache.
    let substrate = SweepSpec::new(spec.budget)
        .benches(spec.benches.iter().copied())
        .fu_counts(FU_CANDIDATES)
        .l2_latencies([EXPLORE_L2]);
    engine.run_sweep(&substrate);
    let runs: Vec<BenchRun> = spec
        .benches
        .iter()
        .map(|name| {
            let bench = Benchmark::by_name(name).expect("spec benchmarks are validated");
            run_benchmark_on(engine, bench, EXPLORE_L2, spec.budget)
        })
        .collect();

    let combos = spec.form_combos();
    // Family and gradual-slice projections of the combo list, for the
    // optima rows and the crossover sums.
    let mut families: Vec<PolicyKind> = Vec::new();
    let mut combo_family = Vec::with_capacity(combos.len());
    let mut gradual_slices: Vec<u32> = Vec::new();
    let mut combo_gradual = Vec::with_capacity(combos.len());
    for &(policy, slices) in &combos {
        let f = families
            .iter()
            .position(|&k| k == policy)
            .unwrap_or_else(|| {
                families.push(policy);
                families.len() - 1
            });
        combo_family.push(f);
        combo_gradual.push(slices.map(|s| {
            gradual_slices
                .iter()
                .position(|&g| g == s)
                .unwrap_or_else(|| {
                    gradual_slices.push(s);
                    gradual_slices.len() - 1
                })
        }));
    }

    let (n_leak, n_trans) = (spec.leaks.len(), spec.transitions.len());
    // The technology plane, row-major: one row per leakage factor, one
    // column per transition cost.
    let models: Vec<EnergyModel> = spec
        .leaks
        .iter()
        .flat_map(|&leak| spec.transitions.iter().map(move |&tr| model_at(leak, tr)))
        .collect();
    let plane = PlaneEval::new(&models, n_trans, combos.len(), |model, combo_i| {
        let (kind, slices) = combos[combo_i];
        kind.form(model, slices)
    });
    // Each benchmark's plane, priced once over its FUs' spectra in FU
    // order — the association `policy_energy_of` uses, so every point
    // is bit-identical to the scalar `spectrum_run` path. Pure per
    // benchmark, so the order workers take them in cannot matter.
    let planes: Vec<PlaneRuns> = parallel_map(engine.jobs(), runs.iter().collect(), |run| {
        plane
            .clone()
            .run(&run.sim.fu_active, &run.sim.fu_idle)
            .clone()
    });
    let batches = runs
        .iter()
        .map(|run| plane.traversals() * run.sim.fu_idle.len())
        .sum();

    let n_items = spec.items();
    let chunks: Vec<(usize, usize)> = (0..n_items)
        .step_by(CHUNK_ITEMS)
        .map(|start| (start, (start + CHUNK_ITEMS).min(n_items)))
        .collect();

    let folds = parallel_map(engine.jobs(), chunks, |(start, end)| {
        let mut fold = ChunkFold {
            best: vec![None; runs.len() * families.len()],
            best_energy: vec![0.0; runs.len() * families.len()],
            frontiers: vec![Vec::new(); runs.len()],
            sums: vec![0.0; n_leak * gradual_slices.len()],
        };
        for item in start..end {
            let bench_i = item / (n_leak * n_trans);
            let leak_i = item / n_trans % n_leak;
            let trans_i = item % n_trans;
            let model = &models[leak_i * n_trans + trans_i];
            let plane = &planes[bench_i];
            for combo_i in 0..combos.len() {
                let total = plane.point(leak_i, trans_i, combo_i);
                let p = GridPoint {
                    ratio: total.normalized_to_max(model),
                    trans: total.transitions_equiv,
                    leak_i,
                    trans_i,
                    combo_i,
                };
                let slot = bench_i * families.len() + combo_family[combo_i];
                fold_best(
                    &mut fold.best[slot],
                    p,
                    &mut fold.best_energy[slot],
                    total.energy.total(),
                );
                frontier_insert(&mut fold.frontiers[bench_i], p);
                if let Some(g) = combo_gradual[combo_i] {
                    fold.sums[leak_i * gradual_slices.len() + g] += p.ratio;
                }
            }
        }
        fold
    });

    // Merge in chunk order: chunk composition is jobs-independent, so
    // every fold below — including the floating-point crossover sums —
    // reproduces the sequential scan exactly.
    let mut best: Vec<Option<GridPoint>> = vec![None; runs.len() * families.len()];
    let mut best_energy = vec![0.0; runs.len() * families.len()];
    let mut frontiers: Vec<Vec<GridPoint>> = vec![Vec::new(); runs.len()];
    let mut sums = vec![0.0; n_leak * gradual_slices.len()];
    for fold in folds {
        for (slot, p) in fold.best.into_iter().enumerate() {
            if let Some(p) = p {
                fold_best(
                    &mut best[slot],
                    p,
                    &mut best_energy[slot],
                    fold.best_energy[slot],
                );
            }
        }
        for (bench_i, chunk_frontier) in fold.frontiers.into_iter().enumerate() {
            for p in chunk_frontier {
                frontier_insert(&mut frontiers[bench_i], p);
            }
        }
        for (cell, s) in sums.iter_mut().zip(&fold.sums) {
            *cell += s;
        }
    }
    let points = n_items as u64 * combos.len() as u64;
    engine.note_grid(batches, points);

    let slices_cell = |combo_i: usize| match combos[combo_i].1 {
        Some(s) => Cell::int(i64::from(s)),
        None => Cell::str("-"),
    };
    let knob = |v: f64| Cell::float_text(v, format!("{v}"));

    let mut optima = ResultTable::new(
        "explore-optima",
        format!(
            "Explore optima — best E/E_max per benchmark × policy family ({} grid points, {} instructions/point)",
            points,
            spec.budget.instructions()
        ),
        [
            "bench", "fus", "policy", "slices", "p", "e_tr", "E/E_D", "E/E_max", "transitions",
        ],
    );
    for (bench_i, run) in runs.iter().enumerate() {
        for (family_i, family) in families.iter().enumerate() {
            let slot = bench_i * families.len() + family_i;
            let Some(p) = best[slot] else { continue };
            optima.row([
                Cell::str(run.name),
                Cell::int(run.fus as i64),
                Cell::str(family.name()),
                slices_cell(p.combo_i),
                knob(spec.leaks[p.leak_i]),
                knob(spec.transitions[p.trans_i]),
                Cell::float(best_energy[slot], 1),
                Cell::float(p.ratio, 4),
                Cell::float(p.trans, 1),
            ]);
        }
    }

    let mut frontier = ResultTable::new(
        "explore-frontier",
        "Explore frontier — Pareto-optimal (E/E_max, transitions) points per benchmark",
        [
            "bench",
            "policy",
            "slices",
            "p",
            "e_tr",
            "E/E_max",
            "transitions",
        ],
    );
    frontier.note(
        "Weak dominance over the full explored policy x technology space; \
         a grid containing a leak-free corner collapses toward it.",
    );
    for (bench_i, run) in runs.iter().enumerate() {
        for p in &frontiers[bench_i] {
            frontier.row([
                Cell::str(run.name),
                Cell::str(combos[p.combo_i].0.name()),
                slices_cell(p.combo_i),
                knob(spec.leaks[p.leak_i]),
                knob(spec.transitions[p.trans_i]),
                Cell::float(p.ratio, 4),
                Cell::float(p.trans, 1),
            ]);
        }
    }

    let mut crossover = ResultTable::new(
        "explore-crossover",
        "Explore crossover — best GradualSleep slice count per leakage factor",
        ["p", "slices", "mean E/E_max"],
    );
    // Mean over the benchmarks × transition costs behind each
    // (leak, slices) cell; ties take the smaller slice count.
    let cell_points = (runs.len() * n_trans) as f64;
    for (leak_i, &leak) in spec.leaks.iter().enumerate() {
        let mut winner: Option<(u32, f64)> = None;
        for (g, &s) in gradual_slices.iter().enumerate() {
            let sum = sums[leak_i * gradual_slices.len() + g];
            winner = match winner {
                Some((ws, wsum)) if wsum < sum || (wsum == sum && ws < s) => Some((ws, wsum)),
                _ => Some((s, sum)),
            };
        }
        if let Some((s, sum)) = winner {
            crossover.row([
                knob(leak),
                Cell::int(i64::from(s)),
                Cell::float(sum / cell_points, 4),
            ]);
        }
    }

    ExploreResult {
        optima,
        frontier,
        crossover,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::policy_energy_of;

    #[test]
    fn default_grid_prices_over_a_million_points() {
        let spec = ExploreSpec::new(Budget::Quick);
        assert_eq!(spec.leaks.len(), 51);
        assert_eq!(spec.transitions.len(), 51);
        assert_eq!(spec.form_combos().len(), 4 + 64);
        assert_eq!(spec.items(), 9 * 51 * 51);
        assert_eq!(spec.points(), 1_591_812);
    }

    #[test]
    fn fraction_steps_expand_inclusively() {
        assert_eq!(fraction_steps(0.0, 1.0, 0.02).len(), 51);
        assert_eq!(fraction_steps(0.0, 1.0, 0.02).last(), Some(&1.0));
        assert_eq!(fraction_steps(0.5, 0.5, 0.1), vec![0.5]);
        assert_eq!(fraction_steps(0.0, 0.1, 0.03), vec![0.0, 0.03, 0.06, 0.09]);
        // The CLI grammar and the defaults share this expansion, so
        // `--leak 0:1:0.02` reproduces the default axis bit-for-bit.
        let spec = ExploreSpec::new(Budget::Quick);
        assert_eq!(spec.leaks, fraction_steps(0.0, 1.0, 0.02));
    }

    #[test]
    fn fraction_steps_clamp_an_overshoot_past_one() {
        let steps = fraction_steps(0.09, 1.0, 0.07);
        assert_eq!(steps.len(), 14);
        assert_eq!(steps.last(), Some(&1.0));
        // An overshoot that stays within [0, 1] keeps its bits.
        assert_eq!(
            fraction_steps(0.1, 0.3, 0.1).last(),
            Some(&(0.1 + 2.0 * 0.1))
        );
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn fraction_steps_reject_zero_step() {
        let _ = fraction_steps(0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn spec_rejects_unknown_benchmarks_at_build_time() {
        let _ = ExploreSpec::new(Budget::Quick).benches(["gziip"]);
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn spec_rejects_zero_slices_at_build_time() {
        let _ = ExploreSpec::new(Budget::Quick).slices([0]);
    }

    #[test]
    fn form_combos_dedup_slice_overrides_outside_gradual() {
        let spec = ExploreSpec::new(Budget::Quick)
            .policies([PolicyKind::MaxSleep, PolicyKind::GradualSleep])
            .slices([4, 8]);
        assert_eq!(
            spec.form_combos(),
            vec![
                (PolicyKind::MaxSleep, None),
                (PolicyKind::GradualSleep, Some(4)),
                (PolicyKind::GradualSleep, Some(8)),
            ]
        );
    }

    #[test]
    fn frontier_insert_keeps_exact_pareto_set() {
        let p = |ratio: f64, trans: f64| GridPoint {
            ratio,
            trans,
            leak_i: 0,
            trans_i: 0,
            combo_i: 0,
        };
        let mut f = Vec::new();
        frontier_insert(&mut f, p(0.5, 10.0));
        frontier_insert(&mut f, p(0.7, 20.0)); // dominated
        assert_eq!(f.len(), 1);
        frontier_insert(&mut f, p(0.7, 5.0)); // trades energy for exposure
        frontier_insert(&mut f, p(0.3, 30.0)); // cheapest, most exposed
        assert_eq!(f.len(), 3);
        assert!((f[0].ratio, f[0].trans) == (0.3, 30.0));
        assert!((f[2].ratio, f[2].trans) == (0.7, 5.0));
        // A new point evicts everything it dominates...
        frontier_insert(&mut f, p(0.3, 4.0));
        assert_eq!(f.len(), 1);
        assert!((f[0].ratio, f[0].trans) == (0.3, 4.0));
        // ...and an exact duplicate keeps the earlier insertion.
        let mut g = vec![GridPoint {
            combo_i: 7,
            ..p(0.5, 10.0)
        }];
        frontier_insert(&mut g, p(0.5, 10.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].combo_i, 7);
    }

    /// All six families, in the order the optima rows list them.
    const ALL_FAMILIES: [PolicyKind; 6] = [
        PolicyKind::MaxSleep,
        PolicyKind::GradualSleep,
        PolicyKind::AlwaysActive,
        PolicyKind::NoOverhead,
        PolicyKind::TimeoutSleep,
        PolicyKind::AdaptiveSleep,
    ];

    /// A tiny grid over all six families, explored end-to-end: the
    /// optima (shared-row and per-point forms alike) agree with a
    /// brute-force scalar scan over the same canonical order, the
    /// traversal counter is pinned, and the whole output is
    /// byte-identical across worker counts.
    #[test]
    fn explore_matches_scalar_scan_and_is_jobs_invariant() {
        let spec = ExploreSpec::new(Budget::Custom(5_000))
            .benches(["mst", "gzip"])
            .policies(ALL_FAMILIES)
            .slices([2, 8])
            .leaks([0.05, 0.5, 0.9])
            .transitions([0.01, 0.2]);
        let engine = Engine::new(4);
        let result = explore(&engine, &spec);
        assert_eq!(result.points, 2 * 3 * 2 * 7);
        let stats = engine.stats();
        assert_eq!(stats.grid_points, result.points);

        // Brute force with the scalar evaluator, same canonical order.
        let combos = spec.form_combos();
        let mut expected: Vec<(f64, f64)> = Vec::new(); // (ratio, trans) per best slot
        let mut fus = 0;
        for name in ["mst", "gzip"] {
            let bench = Benchmark::by_name(name).unwrap();
            let run = run_benchmark_on(&engine, bench, EXPLORE_L2, spec.budget());
            fus += run.sim.fu_idle.len();
            for family in ALL_FAMILIES {
                let mut best: Option<(f64, f64)> = None;
                for &leak in &[0.05, 0.5, 0.9] {
                    for &tr in &[0.01, 0.2] {
                        for &(kind, slices) in &combos {
                            if kind != family {
                                continue;
                            }
                            let model = model_at(leak, tr);
                            let form = kind.form(&model, slices);
                            let total = policy_energy_of(&model, form, &run.sim);
                            let ratio = total.normalized_to_max(&model);
                            if best.is_none_or(|(b, _)| ratio < b) {
                                best = Some((ratio, total.transitions_equiv));
                            }
                        }
                    }
                }
                expected.push(best.unwrap());
            }
        }
        assert_eq!(result.optima.rows().len(), expected.len());
        for (row, (ratio, trans)) in result.optima.rows().iter().zip(expected) {
            assert_eq!(row[7].text(), format!("{ratio:.4}"));
            assert_eq!(row[8].text(), format!("{trans:.1}"));
        }

        // Traversals per FU spectrum: two shared-row batches (the 3 `p`
        // rows and 2 `E_slp` rows, four models a batch) plus one
        // per-point batch (the six points' TimeoutSleep and
        // AdaptiveSleep forms).
        assert_eq!(fus, 5);
        assert_eq!(stats.grid_batches, 3 * 5);

        // Worker-count invariance, the determinism contract.
        let sequential = explore(&Engine::sequential(), &spec);
        assert_eq!(sequential.optima.to_json(), result.optima.to_json());
        assert_eq!(sequential.frontier.to_json(), result.frontier.to_json());
        assert_eq!(sequential.crossover.to_json(), result.crossover.to_json());
    }

    #[test]
    fn crossover_reports_one_row_per_leak_with_gradual_present() {
        let spec = ExploreSpec::new(Budget::Custom(5_000))
            .benches(["mst"])
            .policies([PolicyKind::GradualSleep, PolicyKind::MaxSleep])
            .slices([1, 16])
            .leaks([0.05, 0.5])
            .transitions([0.01]);
        let engine = Engine::sequential();
        let result = explore(&engine, &spec);
        assert_eq!(result.crossover.rows().len(), 2);
        // Without GradualSleep the crossover question is empty.
        let no_gradual = ExploreSpec::new(Budget::Custom(5_000))
            .benches(["mst"])
            .policies([PolicyKind::MaxSleep])
            .leaks([0.05])
            .transitions([0.01]);
        assert!(explore(&engine, &no_gradual).crossover.rows().is_empty());
    }
}
