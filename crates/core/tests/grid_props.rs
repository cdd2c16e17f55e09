//! Property tests for the grid-batched policy evaluator.
//!
//! [`GridEval`] prices G policy forms per spectrum traversal and
//! promises **bit-exact** agreement with [`spectrum_run`] called per
//! form — not tolerance agreement: the explorer built on the grid
//! kernel must produce byte-identical output whether a point was
//! priced scalar or batched. These properties replay random spectra ×
//! mixed policy families × grid sizes (1 up to past the family count,
//! duplicates included) and compare every `f64` by bit pattern,
//! including degenerate spectra (empty, single-length) and interval
//! lengths past the saturated-rewrite exactness threshold. The same
//! contract holds for [`PlaneEval`], which shares rows across a
//! technology plane instead of pricing every point's model.

use fuleak_core::accounting::PolicyRun;
use fuleak_core::policy_eval::{spectrum_run, GridEval, PlaneEval, PolicyForm};
use fuleak_core::{breakeven_interval, EnergyModel, IntervalSpectrum, TechnologyParams};
use proptest::prelude::*;

/// Bit-pattern image of a run: two runs are "equal" here only if every
/// field is bitwise identical.
fn bits(r: &PolicyRun) -> [u64; 9] {
    [
        r.energy.dynamic.to_bits(),
        r.energy.leak_hi.to_bits(),
        r.energy.leak_lo.to_bits(),
        r.energy.transition.to_bits(),
        r.energy.overhead.to_bits(),
        r.active_cycles,
        r.uncontrolled_idle_equiv.to_bits(),
        r.sleep_equiv.to_bits(),
        r.transitions_equiv.to_bits(),
    ]
}

fn check_grid(
    model: &EnergyModel,
    forms: &[PolicyForm],
    active: u64,
    spectrum: &IntervalSpectrum,
) -> Result<(), TestCaseError> {
    let mut grid = GridEval::new(model, forms);
    prop_assert_eq!(grid.grid_len(), forms.len());
    let runs = grid.run(active, spectrum);
    for (form, got) in forms.iter().zip(runs) {
        let want = spectrum_run(model, *form, active, spectrum);
        prop_assert_eq!(bits(got), bits(&want));
    }
    Ok(())
}

prop_compose! {
    /// A workload: positive idle intervals (short lengths over-weighted
    /// so spectra carry repeated lines) plus active cycles. Includes a
    /// sprinkle of huge lengths past the GradualSleep saturated-rewrite
    /// exactness threshold so the literal-formula fallback is exercised.
    fn workload()(
        intervals in proptest::collection::vec(
            prop_oneof![
                1u64..8,
                1u64..100,
                100u64..3000,
                (1u64 << 52)..(1u64 << 53),
            ],
            0..60),
        extra_active in 0u64..50,
    ) -> (Vec<u64>, u64) {
        let active = intervals.len() as u64 + extra_active;
        (intervals, active)
    }
}

prop_compose! {
    /// A technology/activity point spanning the paper's ranges.
    fn model_point()(
        p in 0.01f64..=1.0,
        alpha in 0.05f64..=0.95,
    ) -> EnergyModel {
        EnergyModel::new(
            TechnologyParams::with_leakage_factor(p).expect("p in range"),
            alpha,
        )
        .expect("alpha in range")
    }
}

/// The pool grids draw from: every family, parameter variety included.
fn form_pool(model: &EnergyModel) -> Vec<PolicyForm> {
    let be = breakeven_interval(model);
    vec![
        PolicyForm::AlwaysActive,
        PolicyForm::MaxSleep,
        PolicyForm::NoOverhead,
        PolicyForm::GradualSleep { slices: 1 },
        PolicyForm::GradualSleep { slices: 2 },
        PolicyForm::GradualSleep { slices: 7 },
        PolicyForm::GradualSleep { slices: 64 },
        PolicyForm::GradualSleep { slices: 1024 },
        PolicyForm::GradualSleep {
            // Ramping regime for every short length. 2047 is the
            // largest slice count whose saturated `slices * t` product
            // stays in u64 for every generated length (< 2^53) — the
            // same domain bound the scalar evaluator carries.
            slices: 2047,
        },
        PolicyForm::TimeoutSleep { timeout: 0 },
        PolicyForm::TimeoutSleep { timeout: 3 },
        PolicyForm::TimeoutSleep {
            timeout: be.round().max(1.0) as u64,
        },
        PolicyForm::TimeoutSleep { timeout: u64::MAX },
        PolicyForm::AdaptiveSleep {
            breakeven: be,
            weight: 0.25,
        },
        PolicyForm::AdaptiveSleep {
            breakeven: be,
            weight: 1.0,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random grid compositions: sizes from 1 to past the pool size
    /// (so every family mix and duplicate repetition occurs), random
    /// member choice with repetition, random spectra. Grid ≡ scalar,
    /// bit for bit.
    #[test]
    fn grid_equals_scalar_bit_for_bit(
        workload in workload(),
        model in model_point(),
        picks in proptest::collection::vec(0usize..1000, 1..18),
    ) {
        let (intervals, active) = workload;
        let spectrum = IntervalSpectrum::from_lengths(&intervals);
        let pool = form_pool(&model);
        let forms: Vec<PolicyForm> =
            picks.iter().map(|&ix| pool[ix % pool.len()]).collect();
        check_grid(&model, &forms, active, &spectrum)?;
    }

    /// The full pool in one grid over degenerate spectra: empty and
    /// single-length (every partition point sits at an extreme).
    #[test]
    fn degenerate_spectra_match(
        model in model_point(),
        length in prop_oneof![Just(1u64), 2u64..5000, (1u64 << 52)..(1u64 << 53)],
        count in 1u64..40,
        active in 0u64..100,
    ) {
        let pool = form_pool(&model);
        check_grid(&model, &pool, active, &IntervalSpectrum::default())?;
        let mut single = IntervalSpectrum::default();
        single.record_n(length, count);
        check_grid(&model, &pool, active, &single)?;
    }

    /// One warm kernel reused across random spectra reproduces the
    /// fresh-kernel (and scalar) results exactly — reset, not rebuild.
    #[test]
    fn warm_kernel_reruns_reproduce(
        workloads in proptest::collection::vec(workload(), 1..5),
        model in model_point(),
    ) {
        let pool = form_pool(&model);
        let mut warm = GridEval::new(&model, &pool);
        for (intervals, active) in workloads {
            let spectrum = IntervalSpectrum::from_lengths(&intervals);
            let runs = warm.run(active, &spectrum);
            for (form, got) in pool.iter().zip(runs) {
                let want = spectrum_run(&model, *form, active, &spectrum);
                prop_assert_eq!(bits(got), bits(&want));
            }
        }
    }

    /// Multi-model batches: random models with random (differing)
    /// form lists fused into one kernel, run over random spectra on a
    /// warm kernel. Every item's every form ≡ the scalar evaluator
    /// under that item's model, bit for bit, item-major.
    #[test]
    fn batched_models_equal_scalar_bit_for_bit(
        workloads in proptest::collection::vec(workload(), 1..4),
        models in proptest::collection::vec(model_point(), 1..6),
        item_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..1000, 1..8),
            1..6),
    ) {
        let pools: Vec<(EnergyModel, Vec<PolicyForm>)> = models
            .iter()
            .zip(item_picks.iter().cycle())
            .map(|(model, picks)| {
                let pool = form_pool(model);
                let forms = picks.iter().map(|&ix| pool[ix % pool.len()]).collect();
                (*model, forms)
            })
            .collect();
        let items: Vec<(&EnergyModel, &[PolicyForm])> = pools
            .iter()
            .map(|(model, forms)| (model, forms.as_slice()))
            .collect();
        let mut grid = GridEval::new_batch(&items);
        prop_assert_eq!(
            grid.grid_len(),
            pools.iter().map(|(_, f)| f.len()).sum::<usize>()
        );
        for (intervals, active) in workloads {
            let spectrum = IntervalSpectrum::from_lengths(&intervals);
            let runs = grid.run(active, &spectrum).to_vec();
            let mut i = 0;
            for (model, forms) in &pools {
                for form in forms {
                    let want = spectrum_run(model, *form, active, &spectrum);
                    prop_assert_eq!(bits(&runs[i]), bits(&want));
                    i += 1;
                }
            }
        }
    }
}

/// A `p × E_slp` plane of models at fixed `k`, `d`, `α`, row-major.
fn plane_models(
    leaks: &[f64],
    transitions: &[f64],
    k: f64,
    d: f64,
    alpha: f64,
) -> Vec<EnergyModel> {
    leaks
        .iter()
        .flat_map(|&p| {
            transitions.iter().map(move |&e| {
                EnergyModel::new(TechnologyParams::new(p, k, e, d).expect("fractions"), alpha)
                    .expect("alpha in range")
            })
        })
        .collect()
}

/// The form positions a plane draws from, resolved at one point: fixed
/// forms the plane shares, and forms derived from the point's
/// breakeven interval (clamped as the explorer clamps them), which
/// vary over it — all six families, GradualSleep both ways.
fn plane_pool(model: &EnergyModel) -> Vec<PolicyForm> {
    let be = breakeven_interval(model);
    vec![
        PolicyForm::AlwaysActive,
        PolicyForm::MaxSleep,
        PolicyForm::NoOverhead,
        PolicyForm::GradualSleep { slices: 1 },
        PolicyForm::GradualSleep { slices: 7 },
        PolicyForm::GradualSleep { slices: 2047 },
        PolicyForm::GradualSleep {
            slices: be.round().clamp(1.0, 1024.0) as u32,
        },
        PolicyForm::TimeoutSleep { timeout: 3 },
        PolicyForm::TimeoutSleep {
            timeout: be.round().clamp(1.0, 1e9) as u64,
        },
        PolicyForm::AdaptiveSleep {
            breakeven: 4.5,
            weight: 1.0,
        },
        PolicyForm::AdaptiveSleep {
            breakeven: be.clamp(1e-6, 1e9),
            weight: 0.25,
        },
    ]
}

prop_compose! {
    /// A plane axis: 1–4 fractions, the ends and a repeatable midpoint
    /// over-weighted so axes hold `0.0`, `1.0` and repeated values.
    fn plane_axis()(
        values in proptest::collection::vec(
            prop_oneof![Just(0.0), Just(1.0), Just(0.5), 0.0f64..=1.0],
            1..5),
    ) -> Vec<f64> {
        values
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every point of a random plane, every form position, on a warm
    /// evaluator over successive multi-spectrum workloads: the plane's
    /// run ≡ the scalar evaluator under that point's own model, summed
    /// over the spectra in order from `PolicyRun::default()` (the
    /// per-FU roll-up), on all nine fields, bit for bit.
    #[test]
    fn plane_equals_scalar_per_point_bit_for_bit(
        workloads in proptest::collection::vec(
            proptest::collection::vec(workload(), 1..4),
            1..3),
        leaks in plane_axis(),
        transitions in plane_axis(),
        k in 0.0f64..=1.0,
        d in 0.0f64..=1.0,
        alpha in 0.05f64..=0.95,
        picks in proptest::collection::vec(0usize..1000, 1..10),
    ) {
        let models = plane_models(&leaks, &transitions, k, d, alpha);
        let n_trans = transitions.len();
        let form_at = |model: &EnergyModel, f: usize| {
            let pool = plane_pool(model);
            pool[picks[f] % pool.len()]
        };
        let mut plane = PlaneEval::new(&models, n_trans, picks.len(), form_at);
        for parts in workloads {
            let spectra: Vec<IntervalSpectrum> = parts
                .iter()
                .map(|(intervals, _)| IntervalSpectrum::from_lengths(intervals))
                .collect();
            let active: Vec<u64> = parts.iter().map(|&(_, a)| a).collect();
            let runs = plane.run(&active, &spectra);
            for (ix, model) in models.iter().enumerate() {
                let (i, j) = (ix / n_trans, ix % n_trans);
                for f in 0..picks.len() {
                    let form = form_at(model, f);
                    let mut want = PolicyRun::default();
                    for (&a, spectrum) in active.iter().zip(&spectra) {
                        want += spectrum_run(model, form, a, spectrum);
                    }
                    prop_assert_eq!(bits(&runs.point(i, j, f)), bits(&want));
                }
            }
        }
    }
}

/// A 2 × 2 plane at `k = 0.001`, `d = 0.5`, `α = 0.5` with one knob
/// of one point replaced.
fn plane_with(point: usize, bad: (f64, f64, f64, f64, f64)) -> Vec<EnergyModel> {
    let mut models = plane_models(&[0.1, 0.6], &[0.0, 0.3], 0.001, 0.5, 0.5);
    let (p, k, e, d, alpha) = bad;
    models[point] = EnergyModel::new(TechnologyParams::new(p, k, e, d).unwrap(), alpha).unwrap();
    models
}

fn plane_panic(models: &[EnergyModel]) -> String {
    let err =
        std::panic::catch_unwind(|| PlaneEval::new(models, 2, 1, |_, _| PolicyForm::MaxSleep))
            .expect_err("plane must be rejected");
    match err.downcast::<String>() {
        Ok(msg) => *msg,
        Err(err) => err
            .downcast_ref::<&str>()
            .map_or_else(String::new, |m| m.to_string()),
    }
}

#[test]
fn plane_rejects_models_that_disagree_on_k_d_or_alpha() {
    // Point (1, 1) is p = 0.6, E_slp = 0.3; change k, then d, then α.
    for bad in [
        (0.6, 0.002, 0.3, 0.5, 0.5),
        (0.6, 0.001, 0.3, 0.4, 0.5),
        (0.6, 0.001, 0.3, 0.5, 0.7),
    ] {
        let msg = plane_panic(&plane_with(3, bad));
        assert!(msg.contains("must share k, d and alpha"), "{msg}");
    }
    // A point off its row's p or its column's E_slp is no plane either.
    for bad in [(0.5, 0.001, 0.3, 0.5, 0.5), (0.6, 0.001, 0.2, 0.5, 0.5)] {
        let msg = plane_panic(&plane_with(3, bad));
        assert!(
            msg.contains("p from its row and E_slp from its column"),
            "{msg}"
        );
    }
}
