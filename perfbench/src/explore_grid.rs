//! `explore_grid`: the default `repro explore` grid (1.59 M policy
//! points) on one single-worker engine whose substrate was simulated
//! during set-up. `policy_eval` does nearly all of a round's work and
//! `timing` none — the mirror image of `paper_quick`. A round explores
//! the grid one benchmark a lap, so each lap is about a ninth of it;
//! the seed orders the benchmarks, which reorders the laps but not
//! the work.

use crate::common::{add_engine, count, Checked, Laps, Options, Rng, Workload};
use crate::trace::{Layer, Tracer};
use fuleak_core::codec::fnv1a;
use fuleak_experiments::explore::{explore, ExploreSpec, EXPLORE_L2};
use fuleak_experiments::harness::Budget;
use fuleak_experiments::scenario::{Engine, EngineStats, SweepSpec, FU_CANDIDATES};
use fuleak_workloads::Benchmark;

pub struct ExploreGrid {
    /// The default grid restricted to one benchmark, per benchmark.
    specs: Vec<ExploreSpec>,
    substrate: SweepSpec,
    engine: Engine,
    exec_records: u64,
    /// Digest of each spec's result on a cold engine.
    reference: Vec<u64>,
}

pub struct Out {
    stats: EngineStats,
    jsons: Vec<String>,
    points: u64,
}

/// The digest the check compares: the three result tables as JSON.
fn render(result: &fuleak_experiments::ExploreResult) -> String {
    [&result.optima, &result.frontier, &result.crossover]
        .map(|t| t.to_json())
        .concat()
}

impl Workload for ExploreGrid {
    type Out = Out;

    fn setup(opts: &Options, tr: &mut Tracer) -> Result<Self, String> {
        let mut benches: Vec<&'static str> = Benchmark::all().iter().map(|b| b.name).collect();
        Rng::new(opts.seed, 2).shuffle(&mut benches);
        let specs = benches
            .iter()
            .map(|&b| ExploreSpec::new(Budget::Quick).benches([b]))
            .collect();
        // The substrate `explore` simulates: every benchmark at every
        // FU candidate, at the explorer's L2 latency.
        let substrate = SweepSpec::new(Budget::Quick)
            .benches(benches.iter().copied())
            .fu_counts(FU_CANDIDATES)
            .l2_latencies([EXPLORE_L2]);
        let engine = Engine::new(1);
        let mut exec_records = 0;
        for &bench in &benches {
            exec_records += tr
                .span(Layer::Exec, || engine.trace(bench, Budget::Quick))
                .len() as u64;
        }
        tr.span(Layer::Timing, || engine.run_sweep(&substrate));
        Ok(ExploreGrid {
            specs,
            substrate,
            engine,
            exec_records,
            reference: Vec::new(),
        })
    }

    fn exec_records(&self) -> u64 {
        self.exec_records
    }

    fn prepare(&mut self) -> Result<(), String> {
        let cold = Engine::new(1);
        self.reference = self
            .specs
            .iter()
            .map(|spec| fnv1a(render(&explore(&cold, spec)).as_bytes()))
            .collect();
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Out {
        let before = self.engine.stats();
        if tr.recording() {
            // The substrate lookups `explore` starts with, timed apart
            // from the grid (all cache hits after set-up).
            tr.span(Layer::Scenario, || self.engine.run_sweep(&self.substrate));
        }
        let (mut jsons, mut points) = (Vec::with_capacity(self.specs.len()), 0);
        for spec in &self.specs {
            laps.time(|| {
                let result = tr.span(Layer::PolicyEval, || explore(&self.engine, spec));
                jsons.push(tr.span(Layer::Render, || render(&result)));
                points += result.points;
            });
        }
        Out {
            stats: self.engine.stats().since(&before),
            jsons,
            points,
        }
    }

    fn check(&mut self, out: Out, wall_s: f64) -> Checked {
        let wrong = out
            .jsons
            .iter()
            .zip(&self.reference)
            .filter(|(json, &want)| fnv1a(json.as_bytes()) != want)
            .count();
        let mut c = Checked {
            ops: self.specs.len() as u64,
            failed: (wrong + self.specs.len().abs_diff(out.jsons.len())) as u64,
            ..Checked::default()
        };
        add_engine(&mut c.counters, &out.stats);
        count(&mut c.counters, "render.calls", 3 * out.jsons.len() as u64);
        count(
            &mut c.counters,
            "render.bytes",
            out.jsons.iter().map(|j| j.len() as u64).sum(),
        );
        c.figures
            .push(("grid_mpts_s", out.points as f64 / wall_s / 1e6));
        c
    }
}
