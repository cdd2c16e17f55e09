//! Architecture-level static-leakage energy model and sleep-mode
//! management policies for microprocessor functional units.
//!
//! This crate is the primary contribution of the reproduction of
//! *Managing Static Leakage Energy in Microprocessor Functional Units*
//! (Dropsho, Kursun, Albonesi, Dwarkadas, Friedman — MICRO 2002). The
//! paper observes that dual-Vt domino logic offers a *sleep mode* that
//! collapses subthreshold leakage by ~2000x, but entering it costs
//! energy (the nodes that the last evaluation left charged must be
//! discharged, and recharged on wake). Whether sleeping during an idle
//! interval saves energy therefore depends on the interval length, the
//! technology's leakage factor `p`, and the application's activity
//! factor `alpha`.
//!
//! The crate provides:
//!
//! * [`TechnologyParams`] — the `(p, k, e_sleep, d)` parameter vector of
//!   Section 3 of the paper, with presets for the paper's two
//!   representative technology points (`p = 0.05` and `p = 0.5`);
//! * [`EnergyModel`] — the per-cycle energy terms and the total-energy
//!   equations (1)–(3), normalized to the maximum dynamic energy `E_D`;
//! * [`breakeven_interval`] — equation (5) / Figure 4a: the idle length
//!   at which sleeping starts to win;
//! * [`closed_form`] — equations (6)–(9): closed-form policy energies
//!   parameterized by usage factor and mean idle interval (Figures
//!   4b–4d);
//! * [`policy`] — cycle-level controllers: [`policy::AlwaysActive`],
//!   [`policy::MaxSleep`], [`policy::NoOverhead`],
//!   [`policy::GradualSleep`], and the extension policies
//!   [`policy::TimeoutSleep`] and [`policy::AdaptiveSleep`];
//! * [`accounting`] — drives a controller over a busy/idle cycle stream
//!   or an idle-interval list and produces an energy breakdown;
//! * [`intervals`] — idle-interval recording and the log-scale
//!   histogram of Figure 7;
//! * [`spectrum`] — exact, compact idle-interval spectra (sorted
//!   length → count pairs), the representation the timing simulator
//!   records per functional unit;
//! * [`policy_eval`] — closed-form per-interval policy energies and
//!   the O(distinct-lengths) spectrum evaluator behind the empirical
//!   experiments;
//! * [`codec`] — the versioned, deterministic binary encoding the
//!   experiment layer's persistent result store uses to round-trip
//!   spectra and policy runs exactly.
//!
//! # Quickstart
//!
//! ```
//! use fuleak_core::{breakeven_interval, EnergyModel, TechnologyParams};
//! use fuleak_core::accounting::simulate_intervals;
//! use fuleak_core::policy::{AlwaysActive, MaxSleep};
//!
//! # fn main() -> Result<(), fuleak_core::ModelError> {
//! let tech = TechnologyParams::high_leakage(); // p = 0.5
//! let model = EnergyModel::new(tech, 0.5)?;    // alpha = 0.5
//!
//! // At p = 0.5 the breakeven interval is only ~2 cycles...
//! assert!(breakeven_interval(&model) < 3.0);
//!
//! // ...so aggressively sleeping wins on a workload whose idle
//! // intervals are 10 cycles long.
//! let idle: Vec<u64> = vec![10; 100];
//! let active = 1_000;
//! let ms = simulate_intervals(&model, &mut MaxSleep::new(), active, &idle);
//! let aa = simulate_intervals(&model, &mut AlwaysActive, active, &idle);
//! assert!(ms.energy.total() < aa.energy.total());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod breakeven;
pub mod closed_form;
pub mod codec;
pub mod error;
pub mod fxhash;
pub mod intervals;
pub mod model;
pub mod policy;
pub mod policy_eval;
pub mod spectrum;
pub mod tech;

pub use breakeven::breakeven_interval;
pub use codec::{Codec, CodecError, CODEC_VERSION};
pub use error::ModelError;
pub use intervals::{IdleCursor, IdleHistogram, IdleRecorder};
pub use model::{CycleCounts, EnergyModel, NormalizedEnergy};
pub use policy_eval::{GridEval, PlaneEval, PlaneRuns, PolicyForm};
pub use spectrum::IntervalSpectrum;
pub use tech::TechnologyParams;
