//! Shared sweep-axis argument parsing: one flag grammar for the
//! `repro sweep` command line and the `repro serve` `/sweep` endpoint
//! (whose query parameters are the same flags minus the leading
//! dashes), so a URL and a CLI invocation can never drift apart.
//!
//! Value lists mix comma-separated values and inclusive `lo:hi`
//! ranges with an optional stride (`1:4`, `2,4,8`, `1:2,8`,
//! `8:64:8`); evaluation axes take fractions in `[0, 1]` — with
//! `lo:hi:step` range grammar on the explorer's axes — and policy
//! names from the [`PolicyKind`](crate::policy::PolicyKind) registry.

use crate::explore::{fraction_steps, ExploreSpec};
use crate::policy::PolicyKind;
use crate::scenario::SweepSpec;
use fuleak_workloads::Benchmark;

/// Parses a sweep value list: comma-separated values and inclusive
/// `lo:hi` ranges with an optional stride, e.g. `1:4`, `2,4,8`,
/// `1:2,8`, `8:64:8`.
pub fn parse_values(flag: &str, s: &str) -> Result<Vec<u64>, String> {
    let bad = |part: &str| format!("invalid {flag} value `{part}` (expected N or LO:HI[:STEP])");
    let mut out = Vec::new();
    for part in s.split(',') {
        if let Some((lo, rest)) = part.split_once(':') {
            let (hi, step) = match rest.split_once(':') {
                Some((hi, step)) => {
                    let step: u64 = step.parse().map_err(|_| bad(part))?;
                    if step == 0 {
                        return Err(format!("{flag} range `{part}` has a zero step"));
                    }
                    (hi, step)
                }
                None => (rest, 1),
            };
            let lo: u64 = lo.parse().map_err(|_| bad(part))?;
            let hi: u64 = hi.parse().map_err(|_| bad(part))?;
            if lo > hi {
                return Err(format!("empty {flag} range `{part}`"));
            }
            out.extend((lo..=hi).step_by(step as usize));
        } else {
            out.push(part.parse().map_err(|_| bad(part))?);
        }
    }
    if out.is_empty() {
        return Err(format!("{flag} needs at least one value"));
    }
    Ok(out)
}

/// Parses a comma-separated list of fractions in `[0, 1]` (the
/// energy-model evaluation axes).
pub fn parse_fractions(flag: &str, s: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let v: f64 = part
            .parse()
            .map_err(|_| format!("invalid {flag} value `{part}` (expected a number)"))?;
        if !v.is_finite() || !(0.0..=1.0).contains(&v) {
            return Err(format!("{flag} value `{part}` must lie in [0, 1]"));
        }
        out.push(v);
    }
    if out.is_empty() {
        return Err(format!("{flag} needs at least one value"));
    }
    Ok(out)
}

/// Parses the explorer's fraction-axis grammar: comma-separated
/// entries, each a single fraction in `[0, 1]` or an inclusive
/// `lo:hi:step` range (`0:1:0.02` is the 51-value default axis). The
/// expansion is [`fraction_steps`] — the same expression the built-in
/// defaults use, so a flag value can never drift from a default
/// bitwise.
pub fn parse_fraction_steps(flag: &str, s: &str) -> Result<Vec<f64>, String> {
    let bad =
        |part: &str| format!("invalid {flag} value `{part}` (expected a fraction or LO:HI:STEP)");
    let mut out = Vec::new();
    for part in s.split(',') {
        if let Some((lo, rest)) = part.split_once(':') {
            let (hi, step) = rest.split_once(':').ok_or_else(|| {
                format!("{flag} range `{part}` needs an explicit LO:HI:STEP step")
            })?;
            let lo: f64 = lo.parse().map_err(|_| bad(part))?;
            let hi: f64 = hi.parse().map_err(|_| bad(part))?;
            let step: f64 = step.parse().map_err(|_| bad(part))?;
            for v in [lo, hi] {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(format!("{flag} value `{part}` must lie in [0, 1]"));
                }
            }
            if lo > hi {
                return Err(format!("empty {flag} range `{part}`"));
            }
            if !step.is_finite() || step <= 0.0 {
                return Err(format!("{flag} range `{part}` needs a positive step"));
            }
            out.extend(fraction_steps(lo, hi, step));
        } else {
            out.extend(parse_fractions(flag, part)?);
        }
    }
    if out.is_empty() {
        return Err(format!("{flag} needs at least one value"));
    }
    Ok(out)
}

/// Parses a comma-separated list of policy names.
pub fn parse_policies(s: &str) -> Result<Vec<PolicyKind>, String> {
    s.split(',')
        .map(|name| {
            PolicyKind::parse(name).ok_or_else(|| {
                format!(
                    "unknown policy `{name}`; known: {}",
                    PolicyKind::known_names()
                )
            })
        })
        .collect()
}

/// Applies one value-taking sweep flag (`--bench`, `--int-fus`, …,
/// `--transition`) to a spec. Engine-level toggles (`--no-batch`) and
/// the shared options are the caller's business; anything else is an
/// `unknown sweep flag` error.
pub fn apply_sweep_flag(spec: SweepSpec, flag: &str, value: &str) -> Result<SweepSpec, String> {
    Ok(match flag {
        "--bench" => {
            let mut benches = Vec::new();
            for name in value.split(',') {
                let b = Benchmark::by_name(name).ok_or_else(|| {
                    format!(
                        "unknown benchmark `{name}`; registered: {}",
                        Benchmark::registered_names()
                    )
                })?;
                benches.push(b.name);
            }
            spec.benches(benches)
        }
        "--int-fus" => {
            let fus = parse_values(flag, value)?;
            spec.axis_int_fus(fus.into_iter().map(|v| v as usize))
        }
        "--l2" => spec.axis_l2_latency(parse_values(flag, value)?),
        "--width" => {
            let widths = parse_values(flag, value)?;
            spec.axis_width(widths.into_iter().map(|v| v as usize))
        }
        "--rob" => {
            let robs = parse_values(flag, value)?;
            spec.axis_rob(robs.into_iter().map(|v| v as usize))
        }
        "--l1d-kb" => spec.axis_l1d(parse_values(flag, value)?.into_iter().map(|kb| kb * 1024)),
        "--l2-kb" => spec.axis_l2_size(parse_values(flag, value)?.into_iter().map(|kb| kb * 1024)),
        "--mem" => spec.axis_memory_latency(parse_values(flag, value)?),
        "--mshrs" => {
            let mshrs = parse_values(flag, value)?;
            spec.axis_mshrs(mshrs.into_iter().map(|v| v as usize))
        }
        "--policy" => spec.axis_policy(parse_policies(value)?),
        "--slices" => {
            let slices = parse_values(flag, value)?;
            if let Some(&bad) = slices.iter().find(|&&v| v == 0 || v > u64::from(u32::MAX)) {
                return Err(format!(
                    "--slices value `{bad}` must lie in 1..={}",
                    u32::MAX
                ));
            }
            spec.axis_slices(slices.into_iter().map(|v| v as u32))
        }
        "--leak" => spec.axis_leak_ratio(parse_fractions(flag, value)?),
        "--transition" => spec.axis_transition_cost(parse_fractions(flag, value)?),
        other => return Err(format!("unknown sweep flag `{other}`")),
    })
}

/// Applies one value-taking explore flag (`--bench`, `--policy`,
/// `--slices`, `--leak`, `--transition`) to an [`ExploreSpec`] — the
/// same grammar for the `repro explore` command line and the
/// `repro serve` `/explore` endpoint. Everything is validated here so
/// the spec builders' build-time panics are unreachable from user
/// input.
pub fn apply_explore_flag(
    spec: ExploreSpec,
    flag: &str,
    value: &str,
) -> Result<ExploreSpec, String> {
    Ok(match flag {
        "--bench" => {
            let mut benches = Vec::new();
            for name in value.split(',') {
                let b = Benchmark::by_name(name).ok_or_else(|| {
                    format!(
                        "unknown benchmark `{name}`; registered: {}",
                        Benchmark::registered_names()
                    )
                })?;
                benches.push(b.name);
            }
            spec.benches(benches)
        }
        "--policy" => spec.policies(parse_policies(value)?),
        "--slices" => {
            let slices = parse_values(flag, value)?;
            if let Some(&bad) = slices.iter().find(|&&v| v == 0 || v > u64::from(u32::MAX)) {
                return Err(format!(
                    "--slices value `{bad}` must lie in 1..={}",
                    u32::MAX
                ));
            }
            spec.slices(slices.into_iter().map(|v| v as u32))
        }
        "--leak" => spec.leaks(parse_fraction_steps(flag, value)?),
        "--transition" => spec.transitions(parse_fraction_steps(flag, value)?),
        other => return Err(format!("unknown explore flag `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Budget;

    #[test]
    fn value_lists_mix_ranges_and_commas() {
        assert_eq!(parse_values("--x", "1:4").unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(parse_values("--x", "2,4,8").unwrap(), vec![2, 4, 8]);
        assert_eq!(parse_values("--x", "1:2,8").unwrap(), vec![1, 2, 8]);
        assert!(parse_values("--x", "4:1").unwrap_err().contains("empty"));
        assert!(parse_values("--x", "abc").unwrap_err().contains("--x"));
    }

    #[test]
    fn value_ranges_take_an_optional_stride() {
        assert_eq!(parse_values("--x", "8:64:16").unwrap(), vec![8, 24, 40, 56]);
        assert_eq!(parse_values("--x", "1:7:3,9").unwrap(), vec![1, 4, 7, 9]);
        assert!(parse_values("--x", "1:8:0").unwrap_err().contains("zero"));
    }

    #[test]
    fn fraction_steps_expand_like_the_defaults() {
        assert_eq!(
            parse_fraction_steps("--p", "0:1:0.25").unwrap(),
            vec![0.0, 0.25, 0.5, 0.75, 1.0]
        );
        assert_eq!(
            parse_fraction_steps("--p", "0.5,0.9:1:0.1").unwrap(),
            vec![0.5, 0.9, 1.0]
        );
        // Bit-identical to the built-in default axis.
        assert_eq!(
            parse_fraction_steps("--p", "0:1:0.02").unwrap(),
            crate::explore::fraction_steps(0.0, 1.0, 0.02)
        );
        assert!(parse_fraction_steps("--p", "0:1")
            .unwrap_err()
            .contains("explicit"));
        assert!(parse_fraction_steps("--p", "0:2:0.5")
            .unwrap_err()
            .contains("[0, 1]"));
        assert!(parse_fraction_steps("--p", "0:1:-0.1")
            .unwrap_err()
            .contains("positive step"));
        assert!(parse_fraction_steps("--p", "0.8:0.2:0.1")
            .unwrap_err()
            .contains("empty"));
    }

    #[test]
    fn fraction_range_rounding_past_one_builds_a_valid_spec() {
        // 0.09 + 13 * 0.07 rounds to 1.0000000000000002; the expansion
        // clamps it, so the spec builder accepts the axis.
        let leaks = parse_fraction_steps("--leak", "0.09:1:0.07").unwrap();
        assert_eq!(leaks.len(), 14);
        assert_eq!(leaks.last(), Some(&1.0));
        let spec =
            apply_explore_flag(ExploreSpec::new(Budget::Quick), "--leak", "0.09:1:0.07").unwrap();
        assert_eq!(spec.leak_values(), leaks.as_slice());
    }

    #[test]
    fn explore_flags_shape_the_spec() {
        let spec = ExploreSpec::new(Budget::Quick);
        let spec = apply_explore_flag(spec, "--bench", "gzip,vpr").unwrap();
        let spec = apply_explore_flag(spec, "--policy", "maxsleep,gradualsleep").unwrap();
        let spec = apply_explore_flag(spec, "--slices", "8:64:8").unwrap();
        let spec = apply_explore_flag(spec, "--leak", "0:1:0.5").unwrap();
        let spec = apply_explore_flag(spec, "--transition", "0.01").unwrap();
        assert_eq!(spec.items(), 2 * 3);
        assert_eq!(spec.points(), 2 * 3 * (1 + 8));
        for (flag, value, needle) in [
            ("--bench", "gziip", "unknown benchmark"),
            ("--policy", "napping", "napping"),
            ("--slices", "0", "--slices"),
            ("--leak", "1.5", "[0, 1]"),
            ("--wat", "1", "unknown explore flag"),
        ] {
            let err = apply_explore_flag(ExploreSpec::new(Budget::Quick), flag, value).unwrap_err();
            assert!(err.contains(needle), "{flag}: {err}");
        }
    }

    #[test]
    fn fractions_are_bounded() {
        assert_eq!(
            parse_fractions("--p", "0,0.5,1").unwrap(),
            vec![0.0, 0.5, 1.0]
        );
        assert!(parse_fractions("--p", "1.5")
            .unwrap_err()
            .contains("[0, 1]"));
        assert!(parse_fractions("--p", "nan")
            .unwrap_err()
            .contains("[0, 1]"));
    }

    #[test]
    fn policies_resolve_through_the_registry() {
        let kinds = parse_policies("maxsleep,alwaysactive").unwrap();
        assert_eq!(kinds.len(), 2);
        assert!(parse_policies("napping").unwrap_err().contains("napping"));
    }

    #[test]
    fn flags_shape_the_spec() {
        let spec = apply_sweep_flag(SweepSpec::new(Budget::Quick), "--int-fus", "1:2").unwrap();
        let spec = apply_sweep_flag(spec, "--bench", "gzip,vpr").unwrap();
        let spec = apply_sweep_flag(spec, "--l2", "12,32").unwrap();
        assert_eq!(spec.scenarios().len(), 2 * 2 * 2);
        assert!(!spec.has_eval_axes());
        let spec = apply_sweep_flag(spec, "--policy", "maxsleep").unwrap();
        assert!(spec.has_eval_axes());
    }

    #[test]
    fn bad_flags_and_values_are_reported() {
        let spec = SweepSpec::new(Budget::Quick);
        assert!(apply_sweep_flag(spec.clone(), "--bogus", "1")
            .unwrap_err()
            .contains("unknown sweep flag `--bogus`"));
        assert!(apply_sweep_flag(spec.clone(), "--bench", "gziip")
            .unwrap_err()
            .contains("unknown benchmark `gziip`"));
        assert!(apply_sweep_flag(spec, "--slices", "0")
            .unwrap_err()
            .contains("--slices"));
    }
}
