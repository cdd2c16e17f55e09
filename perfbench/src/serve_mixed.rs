//! `serve_mixed`: the serving tier under one closed-loop keep-alive
//! client. Each round starts an in-process one-worker `Server` on a
//! fresh engine warmed with the set-up's simulations, then sends the
//! seed's request sequence. Nine in ten requests repeat a small hot
//! set, under alias spellings that must share one `respcache` entry;
//! the tenth is a distinct eval-axis sweep that misses the cache and
//! goes through `policy` and `render`. Starting the server is one
//! lap, each block of ten requests (one miss among them; the block
//! follows `--miss-every`) another, and stopping the server the
//! last. It is the only workload on
//! `serve` and `respcache`, and it renders many small tables where
//! `paper_quick` renders one large transcript.

use crate::common::{add_engine, count, median, Checked, Laps, Options, Rng, Workload};
use crate::trace::{Layer, Tracer};
use fuleak_experiments::cli::apply_sweep_flag;
use fuleak_experiments::experiment::sweep_table;
use fuleak_experiments::harness::Budget;
use fuleak_experiments::respcache::{sweep_key, BodyFormat, ResponseCache};
use fuleak_experiments::scenario::{Engine, EngineStats, Scenario, SweepSpec, FU_CANDIDATES};
use fuleak_experiments::serve::{ServeConfig, Server};
use fuleak_uarch::SimResult;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Requests per round.
const REQUESTS: usize = 2000;

/// One distinct miss in every block of this many requests, unless
/// `--miss-every` says otherwise. No recorded request log fixes this
/// ratio; it is an assumption, and the README shows how the layer
/// shares move at other ratios.
pub const MISS_EVERY: usize = 10;

/// Every machine point a request can reach, simulated during set-up.
const BENCHES: [&str; 2] = ["gzip", "vpr"];
const L2S: [u64; 2] = [12, 32];

/// Leakage factors the hot set draws from.
const HOT_LEAKS: [f64; 8] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8];

/// How often each hot spec is drawn, relative to the others: a
/// skewed popularity chosen for the benchmark, not measured.
const HOT_WEIGHTS: [usize; 6] = [6, 4, 3, 3, 2, 2];

/// A response body larger than this is refused by the client.
const MAX_BODY: usize = 64 << 20;

struct Request {
    path: String,
    spec: usize,
}

pub struct ServeMixed {
    sims: Vec<(Scenario, Arc<SimResult>)>,
    specs: Vec<SweepSpec>,
    requests: Vec<Request>,
    /// Requests per block, one of them a miss; a block is one lap.
    block: usize,
    expected: Vec<Vec<u8>>,
    exec_records: u64,
}

pub struct Out {
    latencies_us: Vec<f64>,
    loop_s: f64,
    errors: u64,
    mismatches: u64,
    served: u64,
    rejected_503: u64,
    respcache: (u64, u64, u64),
    stats: EngineStats,
}

/// The hot set: each inner list spells one sweep several ways that
/// parse to the same canonical spec.
fn hot_spellings(rng: &mut Rng) -> Vec<Vec<String>> {
    let l = rng.pick(&HOT_LEAKS, 4);
    let (a, b, c, d) = (l[0], l[1], l[2], l[3]);
    let all4 = "maxsleep,gradualsleep,alwaysactive,nooverhead";
    vec![
        vec![
            "bench=gzip&int-fus=1:4&l2=12".into(),
            "bench=gzip&int-fus=1,2,3,4&l2=12".into(),
            "bench=gzip&int-fus=1:2,3:4&l2=12&format=json".into(),
        ],
        vec![
            "bench=gzip,vpr&int-fus=2&l2=12,32".into(),
            "bench=gzip,vpr&int-fus=2:2&l2=12,32&format=json".into(),
        ],
        vec![
            "bench=vpr&int-fus=1:4&l2=32".into(),
            "bench=vpr&int-fus=1,2,3,4&l2=32".into(),
        ],
        vec![
            format!("bench=gzip&int-fus=1:4&l2=12&policy=maxsleep,gradualsleep&leak={a}"),
            format!("bench=gzip&int-fus=1:4&l2=12&policy=MaxSleep,gradual&leak={a:e}"),
        ],
        vec![
            format!("bench=vpr&int-fus=1:4&l2=32&policy=alwaysactive,nooverhead&leak={b}&transition=0.1"),
            format!(
                "bench=vpr&int-fus=1,2,3,4&l2=32&policy=AlwaysActive,NoOverhead&leak={b:.3}&transition=1e-1&format=json"
            ),
        ],
        vec![
            format!("bench=gzip,vpr&int-fus=4&l2=12,32&policy={all4}&leak={c},{d}"),
            format!("bench=gzip,vpr&int-fus=4:4&l2=12,32&policy={all4}&leak={c:e},{d:e}"),
        ],
    ]
}

/// A distinct eval-axis sweep: one benchmark at every FU count, the
/// four paper policies at three leakage factors.
fn miss_spelling(rng: &mut Rng) -> String {
    let bench = BENCHES[rng.below(BENCHES.len())];
    let l2 = L2S[rng.below(L2S.len())];
    let leaks: Vec<String> = rng
        .pick(&(1..100).collect::<Vec<u32>>(), 3)
        .iter()
        .map(|&i| format!("{}", f64::from(i) / 100.0))
        .collect();
    let transition = [0.05, 0.1, 0.2][rng.below(3)];
    format!(
        "bench={bench}&int-fus=1:4&l2={l2}&policy=maxsleep,gradualsleep,alwaysactive,nooverhead&leak={}&transition={transition}",
        leaks.join(",")
    )
}

/// Parses a query the way the `/sweep` route does.
fn parse(query: &str) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::new(Budget::Quick);
    for pair in query.split('&') {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("query parameter `{pair}` needs a value"))?;
        if key != "format" {
            spec = apply_sweep_flag(spec, &format!("--{key}"), value)?;
        }
    }
    Ok(spec)
}

/// Prices every policy point of `spec` — the policy work of
/// `sweep_table` on a cold policy cache.
fn price(engine: &Engine, spec: &SweepSpec) {
    if !spec.has_eval_axes() {
        return;
    }
    let points = spec.eval_points();
    for s in spec.scenarios() {
        for pt in &points {
            let model = pt.model().expect("eval axis values are in range");
            engine.policy_run(&s, pt.policy.form(&model, pt.slices), &model);
        }
    }
}

impl ServeMixed {
    /// Warms `engine` with every machine point a request can reach.
    fn warm(&self, engine: &Engine) {
        for (s, sim) in &self.sims {
            engine.cache().insert(s.clone(), Arc::clone(sim));
        }
    }
}

impl Workload for ServeMixed {
    type Out = Out;

    fn setup(opts: &Options, tr: &mut Tracer) -> Result<Self, String> {
        let mut rng = Rng::new(opts.seed, 4);
        let mut keys: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut specs = Vec::new();
        let mut add_spec = |query: &str, alias_of: Option<usize>| -> Result<usize, String> {
            let spec = parse(query)?;
            let key = sweep_key(&spec, BodyFormat::Json);
            match (keys.get(&key), alias_of) {
                (Some(&i), Some(j)) if i == j => Ok(i),
                (None, None) => {
                    keys.insert(key, specs.len());
                    specs.push(spec);
                    Ok(specs.len() - 1)
                }
                _ => Err(format!(
                    "request `{query}` does not have the canonical spec intended"
                )),
            }
        };
        let mut hot = Vec::new();
        for spellings in hot_spellings(&mut rng) {
            let id = add_spec(&spellings[0], None)?;
            for alias in &spellings[1..] {
                add_spec(alias, Some(id))?;
            }
            hot.push((id, spellings));
        }
        let block = opts.miss_every;
        if !REQUESTS.is_multiple_of(block) {
            return Err(format!("--miss-every must divide {REQUESTS}"));
        }
        let total_weight: usize = HOT_WEIGHTS.iter().sum();
        let mut requests = Vec::with_capacity(REQUESTS);
        for _ in 0..REQUESTS / block {
            let miss_at = rng.below(block);
            for slot in 0..block {
                let (query, spec) = if slot == miss_at {
                    // Draw until the sweep is new (collisions are rare).
                    loop {
                        let query = miss_spelling(&mut rng);
                        if let Ok(id) = add_spec(&query, None) {
                            break (query, id);
                        }
                    }
                } else {
                    let mut w = rng.below(total_weight);
                    let h = HOT_WEIGHTS
                        .iter()
                        .position(|&hw| {
                            let hit = w < hw;
                            w = w.saturating_sub(hw);
                            hit
                        })
                        .expect("the draw falls inside the total weight");
                    let (id, spellings) = &hot[h];
                    (spellings[rng.below(spellings.len())].clone(), *id)
                };
                requests.push(Request {
                    path: format!("/sweep?{query}"),
                    spec,
                });
            }
        }

        let engine = Engine::new(1);
        let mut exec_records = 0;
        for bench in BENCHES {
            exec_records += tr
                .span(Layer::Exec, || engine.trace(bench, Budget::Quick))
                .len() as u64;
        }
        let universe = SweepSpec::new(Budget::Quick)
            .benches(BENCHES)
            .fu_counts(FU_CANDIDATES)
            .l2_latencies(L2S);
        tr.span(Layer::Timing, || engine.run_sweep(&universe));
        let sims = universe
            .scenarios()
            .into_iter()
            .map(|s| {
                let sim = engine.cache().get(&s).expect("primed just above");
                (s, sim)
            })
            .collect();
        Ok(ServeMixed {
            sims,
            specs,
            requests,
            block,
            expected: Vec::new(),
            exec_records,
        })
    }

    fn exec_records(&self) -> u64 {
        self.exec_records
    }

    fn prepare(&mut self) -> Result<(), String> {
        let reference = Engine::new(1);
        self.warm(&reference);
        self.expected = self
            .specs
            .iter()
            .map(|spec| {
                sweep_table(&reference, spec)
                    .map(|t| t.to_json().into_bytes())
                    .map_err(|e| format!("invalid sweep: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Out {
        let (engine, handle) = laps.time(|| {
            let engine = Arc::new(Engine::new(1));
            tr.span(Layer::Scenario, || self.warm(&engine));
            let config = ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            };
            let server =
                Server::bind_with("127.0.0.1:0", Arc::clone(&engine), Budget::Quick, config)
                    .expect("bind a loopback port");
            (engine, server.spawn())
        });
        let mut shadow = if tr.recording() {
            Some(tr.shadow(Layer::Scenario, || Shadow::new(self)))
        } else {
            None
        };
        let mut client = Client::new(handle.addr());
        let mut latencies_us = Vec::with_capacity(self.requests.len());
        let (mut errors, mut mismatches) = (0, 0);
        let t0 = Instant::now();
        for block in self.requests.chunks(self.block) {
            laps.time(|| {
                for req in block {
                    let token = tr.begin_layer(Layer::Serve);
                    let t = Instant::now();
                    let res = client.get(&req.path);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    tr.end(token);
                    match res {
                        Ok(body) => {
                            latencies_us.push(us);
                            mismatches += u64::from(body != self.expected[req.spec]);
                        }
                        Err(_) => errors += 1,
                    }
                    if let Some(sh) = shadow.as_mut() {
                        mismatches +=
                            sh.replay(&self.specs[req.spec], &self.expected[req.spec], tr);
                    }
                }
            });
        }
        let loop_s = t0.elapsed().as_secs_f64();
        let (served, rejected_503, respcache) = laps.time(|| {
            drop(client);
            let counters = handle.counters();
            let respcache = handle
                .respcache()
                .map(|c| (c.hits() as u64, c.misses() as u64, c.bytes() as u64))
                .unwrap_or_default();
            let counted = (counters.requests() as u64, counters.rejected_503() as u64);
            handle.stop();
            (counted.0, counted.1, respcache)
        });
        Out {
            latencies_us,
            loop_s,
            errors,
            mismatches,
            served,
            rejected_503,
            respcache,
            stats: engine.stats(),
        }
    }

    fn check(&mut self, out: Out, _wall_s: f64) -> Checked {
        let mut c = Checked {
            ops: self.requests.len() as u64,
            failed: out.errors + out.mismatches,
            ..Checked::default()
        };
        let (hits, misses, bytes) = out.respcache;
        add_engine(&mut c.counters, &out.stats);
        count(&mut c.counters, "serve.requests", out.served);
        count(&mut c.counters, "serve.errors", out.errors);
        count(&mut c.counters, "serve.rejected_503", out.rejected_503);
        count(&mut c.counters, "respcache.hits", hits);
        count(&mut c.counters, "respcache.lookups", hits + misses);
        count(&mut c.counters, "respcache.bytes", bytes);
        // Every respcache miss renders one body, and no body is ever
        // evicted, so the cache holds exactly the rendered bytes.
        count(&mut c.counters, "render.calls", misses);
        count(&mut c.counters, "render.bytes", bytes);
        c.figures
            .push(("rps", out.latencies_us.len() as f64 / out.loop_s));
        c.figures.push(("p50_us", median(&out.latencies_us)));
        c.latencies_us = out.latencies_us;
        c
    }
}

/// The public calls the `/sweep` route makes for a request, made
/// beside the HTTP round trip on an engine and response cache of the
/// driver's own, so the traced run can time them.
struct Shadow {
    engine: Engine,
    cache: ResponseCache,
}

impl Shadow {
    fn new(w: &ServeMixed) -> Self {
        let engine = Engine::new(1);
        w.warm(&engine);
        Shadow {
            engine,
            cache: ResponseCache::new(ServeConfig::default().respcache_bytes),
        }
    }

    /// Replays one request; returns 1 if the body it renders differs
    /// from `expected`.
    fn replay(&mut self, spec: &SweepSpec, expected: &[u8], tr: &mut Tracer) -> u64 {
        let key = sweep_key(spec, BodyFormat::Json);
        if tr
            .shadow(Layer::Respcache, || self.cache.get(&key))
            .is_some()
        {
            return 0;
        }
        tr.shadow(Layer::Policy, || price(&self.engine, spec));
        let body = tr
            .shadow(Layer::Render, || {
                sweep_table(&self.engine, spec).map(|t| t.to_json())
            })
            .map(String::into_bytes)
            .unwrap_or_default();
        let bad = u64::from(body != expected);
        tr.shadow(Layer::Respcache, || self.cache.put(&key, body));
        bad
    }
}

/// A keep-alive HTTP/1.1 client: one connection, reopened when the
/// server closes it or an exchange fails.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None }
    }

    /// GETs `path`; the body of a 200 response, or why there was none.
    fn get(&mut self, path: &str) -> Result<Vec<u8>, String> {
        let res = self.exchange(path);
        if res.is_err() {
            self.conn = None;
        }
        res
    }

    fn exchange(&mut self, path: &str) -> Result<Vec<u8>, String> {
        let io = |e: std::io::Error| e.to_string();
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.get_mut()
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
            .map_err(io)?;
        let mut line = String::new();
        conn.read_line(&mut line).map_err(io)?;
        let status = line.split_whitespace().nth(1).unwrap_or("").to_string();
        let (mut len, mut close) = (None, false);
        loop {
            line.clear();
            if conn.read_line(&mut line).map_err(io)? == 0 {
                return Err("connection closed inside the headers".into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let len = len
            .filter(|&n| n <= MAX_BODY)
            .ok_or("missing or oversized Content-Length")?;
        let mut body = vec![0; len];
        conn.read_exact(&mut body).map_err(io)?;
        if close {
            self.conn = None;
        }
        if status != "200" {
            return Err(format!("status {status}"));
        }
        Ok(body)
    }
}
