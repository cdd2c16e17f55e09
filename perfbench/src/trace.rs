//! The traced run's span recorder.
//!
//! The driver opens a span around every call it makes into one of
//! the repository's layers. Spans stay in memory while the workload
//! runs and are written once, at exit, as Chrome trace-event JSON
//! (loadable in Perfetto or `chrome://tracing`). A layer's self time
//! is its spans' duration minus the part covered by spans nested in
//! them; whatever part of a round no layer span covers is the
//! residual.
//!
//! *Shadow* spans time public calls the driver makes beside an HTTP
//! round trip to replicate work the server did inside it (the
//! server's internals cannot be timed from outside). They are
//! deducted from the `serve` layer's self time and from the round, so
//! the layer times still add up to the untraced work.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The repository's layers, named after its modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Functional trace capture (`workloads::exec`, `Engine::trace`).
    Exec,
    /// Front-end annotation (`uarch::annotate`, `Engine::annotation`).
    Annotate,
    /// Timing replay (`uarch::timing`, `uarch::batched`).
    Timing,
    /// Closed-form policy pricing (`Engine::policy_run`).
    Policy,
    /// Grid-batched policy evaluation (`GridEval` via `explore`).
    PolicyEval,
    /// Engine caches and single-flight (`scenario`).
    Scenario,
    /// Tables and their text/JSON/CSV views (`result`, `sweep_table`).
    Render,
    /// The on-disk result store (`store`).
    Store,
    /// The serving tier's response cache (`respcache`).
    Respcache,
    /// The HTTP server and the client side of the exchange (`serve`).
    Serve,
}

impl Layer {
    /// Every layer, in pipeline order.
    pub const ALL: [Layer; 10] = [
        Layer::Exec,
        Layer::Annotate,
        Layer::Timing,
        Layer::Policy,
        Layer::PolicyEval,
        Layer::Scenario,
        Layer::Render,
        Layer::Store,
        Layer::Respcache,
        Layer::Serve,
    ];

    /// The metric prefix and trace category.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Exec => "exec",
            Layer::Annotate => "annotate",
            Layer::Timing => "timing",
            Layer::Policy => "policy",
            Layer::PolicyEval => "policy_eval",
            Layer::Scenario => "scenario",
            Layer::Render => "render",
            Layer::Store => "store",
            Layer::Respcache => "respcache",
            Layer::Serve => "serve",
        }
    }
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    Setup,
    Round,
    Layer(Layer),
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    scope: Scope,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    shadow: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Token(Option<usize>);

/// Records spans while recording is on; otherwise every call is a
/// branch and a return.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Layer times over every recorded round, in nanoseconds.
#[derive(Debug, Default)]
pub struct RoundAccount {
    /// Recorded rounds.
    pub rounds: usize,
    /// Round time minus shadow time: the work the untraced round does.
    pub workload_ns: u64,
    /// Self time per layer, indexed like [`Layer::ALL`].
    pub self_ns: [u64; 10],
    /// Self time per span name (separates `store.write` from
    /// `store.read`).
    pub by_name: BTreeMap<&'static str, u64>,
    /// Spans recorded per layer.
    pub calls: [u64; 10],
}

impl RoundAccount {
    /// Self time of `layer` per round, in milliseconds.
    pub fn ms(&self, layer: Layer) -> f64 {
        self.per_round_ms(self.self_ns[layer as usize])
    }

    /// Self time of spans named `name` per round, in milliseconds.
    pub fn named_ms(&self, name: &str) -> f64 {
        self.per_round_ms(self.by_name.get(name).copied().unwrap_or(0))
    }

    /// The workload's time per round, in milliseconds.
    pub fn workload_ms(&self) -> f64 {
        self.per_round_ms(self.workload_ns)
    }

    /// Round time no layer span covers, per round, in milliseconds.
    pub fn residual_ms(&self) -> f64 {
        let layers: u64 = self.self_ns.iter().sum();
        self.per_round_ms(self.workload_ns.saturating_sub(layers))
    }

    fn per_round_ms(&self, ns: u64) -> f64 {
        ns as f64 * 1e-6 / self.rounds.max(1) as f64
    }
}

impl Tracer {
    /// A tracer; with `enabled` false nothing is ever recorded.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between rounds (never while a span
    /// is open).
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = on && self.enabled;
    }

    /// Whether spans are being recorded right now.
    pub fn recording(&self) -> bool {
        self.recording
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, scope: Scope, shadow: bool) -> Token {
        if !self.recording {
            return Token(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            scope,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            shadow,
        });
        self.open.push(idx);
        Token(Some(idx))
    }

    /// Closes a span opened by one of the `begin_*` calls.
    pub fn end(&mut self, token: Token) {
        if let Some(idx) = token.0 {
            let now = self.now_ns();
            self.spans[idx].end_ns = now;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Opens the span of one set-up repetition.
    pub fn begin_setup(&mut self) -> Token {
        self.begin("setup", Scope::Setup, false)
    }

    /// Opens the span of one timed round (the workload span).
    pub fn begin_round(&mut self) -> Token {
        self.begin("round", Scope::Round, false)
    }

    /// Opens a layer span, for calls that need the tracer themselves.
    pub fn begin_layer(&mut self, layer: Layer) -> Token {
        self.begin(layer.name(), Scope::Layer(layer), false)
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.named(layer, layer.name(), f)
    }

    /// Runs `f` inside a span of `layer` carrying its own name.
    pub fn named<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = self.begin(name, Scope::Layer(layer), false);
        let out = f();
        self.end(t);
        out
    }

    /// Runs `f` inside a shadow span of `layer` (see the module
    /// documentation).
    pub fn shadow<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = self.begin(layer.name(), Scope::Layer(layer), true);
        let out = f();
        self.end(t);
        out
    }

    fn roots(&self) -> Vec<usize> {
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        root
    }

    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur());
            }
        }
        own
    }

    /// Layer self times over every recorded round.
    pub fn round_account(&self) -> RoundAccount {
        let roots = self.roots();
        let own = self.self_times();
        let mut acc = RoundAccount::default();
        let mut shadow_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[roots[i]].scope != Scope::Round {
                continue;
            }
            match s.scope {
                Scope::Round => {
                    acc.rounds += 1;
                    acc.workload_ns += s.dur();
                }
                Scope::Layer(layer) => {
                    acc.self_ns[layer as usize] += own[i];
                    *acc.by_name.entry(s.name).or_default() += own[i];
                    acc.calls[layer as usize] += 1;
                    if s.shadow {
                        shadow_ns += s.dur();
                    }
                }
                Scope::Setup => {}
            }
        }
        let serve = &mut acc.self_ns[Layer::Serve as usize];
        *serve = serve.saturating_sub(shadow_ns);
        acc.workload_ns = acc.workload_ns.saturating_sub(shadow_ns);
        acc
    }

    /// The workload time of each recorded round (round minus its
    /// shadow spans), in milliseconds.
    pub fn round_ms(&self) -> Vec<f64> {
        let roots = self.roots();
        let mut per_round: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let root = &self.spans[roots[i]];
            if root.scope != Scope::Round {
                continue;
            }
            let ns = per_round.entry(roots[i]).or_insert(root.dur());
            if s.shadow {
                *ns = ns.saturating_sub(s.dur());
            }
        }
        per_round.values().map(|&ns| ns as f64 * 1e-6).collect()
    }

    /// `layer`'s self time inside each recorded set-up repetition, in
    /// milliseconds.
    pub fn setup_ms(&self, layer: Layer) -> Vec<f64> {
        let roots = self.roots();
        let own = self.self_times();
        let mut per_setup: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[roots[i]].scope != Scope::Setup {
                continue;
            }
            let total = per_setup.entry(roots[i]).or_default();
            if s.scope == Scope::Layer(layer) {
                *total += own[i];
            }
        }
        per_setup.values().map(|&ns| ns as f64 * 1e-6).collect()
    }

    /// Writes every recorded span as Chrome trace-event JSON. Shadow
    /// spans go on their own row.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        writeln!(
            out,
            "{{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": \"thread_name\", \"args\": {{\"name\": \"driver\"}}}},"
        )?;
        write!(
            out,
            "{{\"ph\": \"M\", \"pid\": 1, \"tid\": 2, \"name\": \"thread_name\", \"args\": {{\"name\": \"shadow of server-side work\"}}}}"
        )?;
        for s in &self.spans {
            let cat = match s.scope {
                Scope::Setup => "setup",
                Scope::Round => "round",
                Scope::Layer(layer) => layer.name(),
            };
            write!(
                out,
                ",\n{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": \"{}\", \"cat\": \"{cat}\", \"ts\": {:.3}, \"dur\": {:.3}}}",
                if s.shadow { 2 } else { 1 },
                s.name,
                s.start_ns as f64 * 1e-3,
                s.dur() as f64 * 1e-3,
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
