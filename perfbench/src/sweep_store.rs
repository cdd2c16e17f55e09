//! `sweep_store`: the on-disk result store, written and read. Set-up
//! simulates and prices a seeded eval-axis sweep in memory. A round
//! writes every sim, annotation and policy entry into an empty store,
//! then warm-starts fresh engines from it and renders the sweep,
//! which must need no simulation. The write is one lap and each warm
//! start another. It is the only workload on `store`,
//! and it uses the store both ways. Writing is about 3% of a round,
//! because its cost swings several-fold from minute to minute; a
//! write regression shows in `persist_ms` and `store.write_ms`, not
//! in the gated metrics.

use crate::common::{add_engine, count, median, Checked, Laps, Options, Rng, Workload};
use crate::trace::{Layer, Tracer};
use fuleak_core::accounting::PolicyRun;
use fuleak_core::PolicyForm;
use fuleak_experiments::experiment::sweep_table;
use fuleak_experiments::harness::Budget;
use fuleak_experiments::policy::PolicyKind;
use fuleak_experiments::scenario::{Engine, EngineStats, Scenario, SweepSpec, FU_CANDIDATES};
use fuleak_experiments::ResultStore;
use fuleak_uarch::SimResult;
use fuleak_workloads::AnnotatedTrace;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Fresh engines warm-started from the store per round. Writing the
/// sweep's 210 entries took 22–30 ms in some runs and 123 ms in others
/// a few minutes later on the development VM, so the write is a small
/// part of a round whose bulk is reads, which repeat far better.
const WARM_STARTS: usize = 192;

/// The sweep's benchmarks: the repository's standard sweep pair.
const BENCHES: [&str; 2] = ["gzip", "vpr"];

/// L2 latencies the seed draws two from.
const L2_POOL: [u64; 6] = [12, 16, 20, 24, 28, 32];

/// Leakage factors the seed draws three from.
const LEAK_POOL: [f64; 9] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];

pub struct SweepStore {
    spec: SweepSpec,
    engine: Engine,
    exec_records: u64,
    dir: PathBuf,
    sims: Vec<(Scenario, Arc<SimResult>)>,
    annotations: Vec<(&'static str, u64, Arc<AnnotatedTrace>)>,
    policies: Vec<(Scenario, PolicyForm, u64, PolicyRun)>,
    cold: String,
}

struct WarmStart {
    ms: f64,
    json: Option<String>,
    stats: EngineStats,
    read_entries: u64,
    corrupt: u64,
}

pub struct Out {
    persist_ms: f64,
    written: u64,
    warm: Vec<WarmStart>,
}

/// Every (scenario, policy form, model fingerprint) the sweep prices,
/// in table order.
fn policy_points(spec: &SweepSpec) -> Vec<(Scenario, PolicyForm, fuleak_core::EnergyModel)> {
    let points = spec.eval_points();
    let mut out = Vec::new();
    for s in spec.scenarios() {
        for pt in &points {
            let model = pt.model().expect("eval axis values are in range");
            out.push((s.clone(), pt.policy.form(&model, pt.slices), model));
        }
    }
    out
}

/// Opens (creating) the store at `dir`.
///
/// # Panics
///
/// Panics if the directory cannot be created: the benchmark cannot
/// run without somewhere to write.
fn open_store(dir: &Path) -> ResultStore {
    ResultStore::open(dir)
        .unwrap_or_else(|e| panic!("cannot open the store directory `{}`: {e}", dir.display()))
}

impl Workload for SweepStore {
    type Out = Out;

    fn setup(opts: &Options, tr: &mut Tracer) -> Result<Self, String> {
        let mut rng = Rng::new(opts.seed, 3);
        let spec = SweepSpec::new(Budget::Quick)
            .benches(BENCHES)
            .axis_int_fus(FU_CANDIDATES)
            .axis_l2_latency(rng.pick(&L2_POOL, 2))
            .axis_policy(PolicyKind::PAPER)
            .axis_leak_ratio(rng.pick(&LEAK_POOL, 3));
        let engine = Engine::new(1);
        let mut exec_records = 0;
        for bench in BENCHES {
            exec_records += tr
                .span(Layer::Exec, || engine.trace(bench, Budget::Quick))
                .len() as u64;
        }
        tr.span(Layer::Timing, || engine.run_sweep(&spec));
        tr.span(Layer::Policy, || {
            for (s, form, model) in policy_points(&spec) {
                engine.policy_run(&s, form, &model);
            }
        });
        Ok(SweepStore {
            spec,
            engine,
            exec_records,
            dir: PathBuf::from(format!(".perfbench/sweep_store-{}", std::process::id())),
            sims: Vec::new(),
            annotations: Vec::new(),
            policies: Vec::new(),
            cold: String::new(),
        })
    }

    fn exec_records(&self) -> u64 {
        self.exec_records
    }

    fn prepare(&mut self) -> Result<(), String> {
        let engine = &self.engine;
        self.cold = sweep_table(engine, &self.spec)
            .map_err(|e| format!("invalid sweep: {e}"))?
            .to_json();
        for s in self.spec.scenarios() {
            let sim = engine
                .cache()
                .get(&s)
                .ok_or("set-up left a sweep point unsimulated")?;
            let geometry = s.machine.frontend_fingerprint();
            if !self
                .annotations
                .iter()
                .any(|(b, g, _)| *b == s.bench && *g == geometry)
            {
                let ann = engine.annotation(s.bench, s.budget, &s.machine);
                self.annotations.push((s.bench, geometry, ann));
            }
            self.sims.push((s, sim));
        }
        self.policies = policy_points(&self.spec)
            .into_iter()
            .map(|(s, form, model)| {
                let run = engine.policy_run(&s, form, &model);
                (s, form, model.fingerprint(), run)
            })
            .collect();
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Out {
        let t0 = Instant::now();
        let st = laps.time(|| {
            tr.named(Layer::Store, "store.write", || {
                let st = open_store(&self.dir);
                for (s, sim) in &self.sims {
                    st.save_sim(s, sim);
                }
                for (bench, geometry, ann) in &self.annotations {
                    st.save_annotation(bench, Budget::Quick, *geometry, ann);
                }
                for (s, form, fp, run) in &self.policies {
                    st.save_policy(s, *form, *fp, *run);
                }
                st
            })
        });
        let persist_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut warm = Vec::with_capacity(WARM_STARTS);
        for _ in 0..WARM_STARTS {
            let start = laps.time(|| {
                let t = Instant::now();
                let engine = Engine::new(1);
                let st = Arc::new(tr.named(Layer::Store, "store.read", || open_store(&self.dir)));
                engine.set_store(Some(Arc::clone(&st)));
                if tr.recording() {
                    // The engine's read-through, made explicitly so the
                    // store reads are timed apart from the render.
                    tr.named(Layer::Store, "store.read", || {
                        for (s, _) in &self.sims {
                            if let Some(sim) = st.load_sim(s) {
                                engine.cache().insert(s.clone(), Arc::new(sim));
                            }
                        }
                        for (s, form, fp, _) in &self.policies {
                            if let Some(run) = st.load_policy(s, *form, *fp) {
                                engine.policy_cache().insert(s.clone(), *form, *fp, run);
                            }
                        }
                    });
                }
                let json = tr.span(Layer::Render, || {
                    sweep_table(&engine, &self.spec).ok().map(|t| t.to_json())
                });
                WarmStart {
                    ms: t.elapsed().as_secs_f64() * 1e3,
                    json,
                    stats: engine.stats(),
                    read_entries: st.hits() as u64,
                    corrupt: st.corrupt() as u64,
                }
            });
            warm.push(start);
        }
        Out {
            persist_ms,
            written: st.writes() as u64,
            warm,
        }
    }

    fn check(&mut self, out: Out, _wall_s: f64) -> Checked {
        let expected = (self.sims.len() + self.annotations.len() + self.policies.len()) as u64;
        let mut c = Checked {
            ops: 1 + out.warm.len() as u64,
            failed: u64::from(out.written != expected),
            ..Checked::default()
        };
        count(&mut c.counters, "store.write_entries", out.written);
        count(
            &mut c.counters,
            "store.bytes",
            open_store(&self.dir).stats().bytes(),
        );
        for w in &out.warm {
            let ok = w.json.as_deref() == Some(self.cold.as_str())
                && w.stats.simulated() == 0
                && w.corrupt == 0;
            c.failed += u64::from(!ok);
            add_engine(&mut c.counters, &w.stats);
            count(&mut c.counters, "store.read_entries", w.read_entries);
            count(&mut c.counters, "store.corrupt", w.corrupt);
            count(&mut c.counters, "render.calls", 1);
            count(
                &mut c.counters,
                "render.bytes",
                w.json.as_ref().map_or(0, |j| j.len() as u64),
            );
        }
        let warm_ms: Vec<f64> = out.warm.iter().map(|w| w.ms).collect();
        c.figures.push(("persist_ms", out.persist_ms));
        c.figures.push(("warm_start_ms", median(&warm_ms)));
        // The next round writes into an empty store.
        let _ = std::fs::remove_dir_all(&self.dir);
        c
    }
}

impl Drop for SweepStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
