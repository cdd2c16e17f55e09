//! `paper_quick`: the full experiment registry — `repro all --quick`,
//! the reproduction users run — on a fresh single-worker engine per
//! round. Set-up captures the nine functional traces, so a round is
//! annotation, timing replay, policy pricing and rendering. An
//! untraced round first simulates the suites' points one point a
//! lap, in the order the registry's sequential suite runner
//! simulates them, then runs and renders the registry one experiment
//! a lap. Nothing here touches `policy_eval`, `store`, `respcache`
//! or `serve`: this is the workload that bypasses them.

use crate::common::{add_engine, count, Checked, Laps, Options, Workload};
use crate::trace::{Layer, Tracer};
use fuleak_experiments::empirical::{fig8_on, fig9_jobs_on};
use fuleak_experiments::experiment::{self, Context};
use fuleak_experiments::harness::{run_benchmark_on, run_suite_on, Budget};
use fuleak_experiments::scenario::{capture_trace, Engine, Scenario, FU_CANDIDATES};
use fuleak_workloads::{Benchmark, EncodedTrace};
use std::sync::Arc;

/// `repro all --quick` stdout, the frozen paper-grid contract.
const GOLDEN: &str = "tests/golden/repro_all_quick.txt";

/// The two L2 latencies the registry's suites run at.
const SUITE_L2: [u64; 2] = [12, 32];

pub struct PaperQuick {
    traces: Vec<(&'static str, Arc<EncodedTrace>)>,
    exec_records: u64,
    golden: String,
    /// The points the suites simulate, in the order they do.
    suite_points: Vec<Scenario>,
}

pub struct Out {
    engine: Engine,
    text: String,
    tables: u64,
}

impl PaperQuick {
    /// A fresh single-worker engine holding the set-up's traces.
    fn engine(&self) -> Engine {
        let engine = Engine::new(1);
        for (bench, trace) in &self.traces {
            engine
                .trace_cache()
                .insert(bench, Budget::Quick, Arc::clone(trace));
        }
        engine
    }
}

impl Workload for PaperQuick {
    type Out = Out;

    /// The registry is fixed, so the seed selects nothing here.
    fn setup(_opts: &Options, tr: &mut Tracer) -> Result<Self, String> {
        let mut traces = Vec::new();
        for b in Benchmark::all() {
            let trace = tr
                .span(Layer::Exec, || capture_trace(b.name, Budget::Quick))
                .map_err(|e| format!("capturing {}: {e}", b.name))?;
            traces.push((b.name, Arc::new(trace)));
        }
        let exec_records = traces.iter().map(|(_, t)| t.len() as u64).sum();
        Ok(PaperQuick {
            traces,
            exec_records,
            golden: String::new(),
            suite_points: Vec::new(),
        })
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.golden = std::fs::read_to_string(GOLDEN)
            .map_err(|e| format!("cannot read the golden output `{GOLDEN}`: {e}"))?;
        // The suite runner simulates 4 FUs first, then 1, 2, ... up
        // to the first count within 95% of its IPC; a cold engine
        // shows which points that takes.
        let cold = self.engine();
        self.suite_points.clear();
        for l2 in SUITE_L2 {
            for b in Benchmark::all() {
                run_benchmark_on(&cold, b, l2, Budget::Quick);
                let order = [*FU_CANDIDATES.end()].into_iter().chain(FU_CANDIDATES);
                for fus in order.take(FU_CANDIDATES.count()) {
                    let s = Scenario::paper(b.name, fus, l2, Budget::Quick);
                    if cold.cache().get(&s).is_some() {
                        self.suite_points.push(s);
                    }
                }
            }
        }
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Out {
        let engine = laps.time(|| tr.span(Layer::Scenario, || self.engine()));
        if !tr.recording() {
            // The suites the registry runs first, one point a lap;
            // the registry then finds them cached.
            for s in &self.suite_points {
                laps.time(|| engine.result(s.clone()));
            }
        } else {
            // Drive the layers the registry reaches one at a time, in
            // the order it reaches them, so each is timed on its own;
            // the registry below then finds every result cached.
            tr.span(Layer::Annotate, || {
                for b in Benchmark::all() {
                    let s = Scenario::paper(b.name, 4, SUITE_L2[0], Budget::Quick);
                    engine.annotation(b.name, Budget::Quick, &s.machine);
                }
            });
            let suite = tr.span(Layer::Timing, || {
                let suite = run_suite_on(&engine, SUITE_L2[0], Budget::Quick);
                run_suite_on(&engine, SUITE_L2[1], Budget::Quick);
                suite
            });
            tr.span(Layer::Policy, || {
                fig8_on(&engine, &suite, 0.05, 0.5);
                fig8_on(&engine, &suite, 0.5, 0.5);
                fig9_jobs_on(&engine, &suite, 1);
            });
        }
        let mut ctx = Context::new(&engine, Budget::Quick);
        let mut text = String::new();
        let mut tables = 0;
        for name in experiment::names() {
            let exp = experiment::by_name(name).expect("registry names resolve");
            laps.time(|| {
                let table = tr.span(Layer::Scenario, || exp.run(&mut ctx));
                // The text view exactly as `repro all` prints it.
                tr.span(Layer::Render, || {
                    text.push_str(table.title());
                    text.push('\n');
                    text.push_str(&table.render());
                    text.push('\n');
                    for note in table.notes() {
                        text.push_str(note);
                        text.push('\n');
                    }
                });
            });
            tables += 1;
        }
        drop(ctx);
        Out {
            engine,
            text,
            tables,
        }
    }

    fn exec_records(&self) -> u64 {
        self.exec_records
    }

    fn check(&mut self, out: Out, wall_s: f64) -> Checked {
        let mut c = Checked {
            ops: 1,
            failed: u64::from(out.text != self.golden),
            ..Checked::default()
        };
        add_engine(&mut c.counters, &out.engine.stats());
        // Records replayed: the committed instructions of every point
        // simulated this round (read after the stats snapshot, since
        // these lookups count as cache traffic).
        let records: u64 = Benchmark::all()
            .iter()
            .flat_map(|b| {
                SUITE_L2.iter().flat_map(move |&l2| {
                    FU_CANDIDATES.map(move |fus| Scenario::paper(b.name, fus, l2, Budget::Quick))
                })
            })
            .filter_map(|s| out.engine.cache().get(&s))
            .map(|r| r.committed)
            .sum();
        count(&mut c.counters, "timing.records", records);
        count(
            &mut c.counters,
            "annotate.bytes",
            out.engine.annotation_cache().annotated_bytes() as u64,
        );
        count(&mut c.counters, "render.calls", out.tables);
        count(&mut c.counters, "render.bytes", out.text.len() as u64);
        c.figures.push(("sim_mips", records as f64 / wall_s / 1e6));
        c
    }
}
