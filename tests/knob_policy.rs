//! One parse policy for every knob: unset means the default, and a value
//! that is set but malformed is an error naming the knob and the raw
//! string — for the `SMOKESCREEN_*` environment families and for the
//! `trajectory` gate's numeric flags alike. A malformed value must never
//! fall back to a default, disarm a gate, or make a suite vacuous.

use std::ffi::OsStr;

use smokescreen::rt::fault::{CrashPlan, DiskFaultPlan, FaultPlan, NetFaultPlan};
use smokescreen::rt::journal::{parse_checkpoint_dir, CHECKPOINT_DIR_ENV};
use smokescreen::rt::knob::{self, Kind};
use smokescreen::rt::pool::{CHUNK_ENV, THREADS_ENV};
use smokescreen::video::PerturbPlan;
use smokescreen_bench::trajectory::{flag, reps, threshold, REPS_ENV, THRESHOLD_ENV};

fn args(flags: &[&str]) -> Vec<String> {
    flags.iter().map(|s| s.to_string()).collect()
}

fn assert_loud(err: String, name: &str, raw: &str) {
    assert!(err.contains(name), "{err} should name {name}");
    assert!(err.contains(&format!("{raw:?}")), "{err} should quote {raw:?}");
}

#[test]
fn every_environment_family_rejects_malformed_values() {
    fn env<T>(var: &str, raw: &str, kind: &Kind<T>) {
        let err = knob::parse(var, Some(OsStr::new(raw)), kind).err();
        assert_loud(err.unwrap_or_else(|| panic!("{var}={raw} parsed")), var, raw);
    }
    env(THREADS_ENV, "abc", &knob::POSITIVE);
    env(THREADS_ENV, "0", &knob::POSITIVE);
    env(CHUNK_ENV, "-1", &knob::POSITIVE);
    env("SMOKESCREEN_PT_CASES", "0", &knob::POSITIVE);
    env("SMOKESCREEN_PT_SEED", "0x1f", &knob::SEED);
    env(REPS_ENV, "two", &knob::POSITIVE);
    env(THRESHOLD_ENV, "NaN", &knob::NON_NEGATIVE);
    assert_loud(parse_checkpoint_dir(Some(OsStr::new(""))).unwrap_err(), CHECKPOINT_DIR_ENV, "");

    let err = FaultPlan::parse_env(None, Some("lots")).unwrap_err();
    assert_loud(err, "SMOKESCREEN_FAULT_RATE", "lots");
    let err = CrashPlan::parse_env(Some("x"), None).unwrap_err();
    assert_loud(err, "SMOKESCREEN_CRASH_SEED", "x");
    let err = DiskFaultPlan::parse_env(None, Some("lots")).unwrap_err();
    assert_loud(err, "SMOKESCREEN_DISKFAULT_RATE", "lots");
    let err = NetFaultPlan::parse_env(None, Some("2")).unwrap_err();
    assert_loud(err, "SMOKESCREEN_NETFAULT_RATE", "2");
    let err = PerturbPlan::parse_env(None, None, Some("fog")).unwrap_err();
    assert_loud(err, "SMOKESCREEN_PERTURB_KIND", "fog");
}

#[test]
fn trajectory_gate_flags_are_strict() {
    assert_eq!(threshold(&args(&["--threshold", "0.3"])), Ok(0.3));
    assert_eq!(reps(&args(&["--reps", "3"]), 5), Ok(3));
    // NaN compares false against every delta and would pass every
    // regression; inf does the same; a negative threshold flags all.
    for raw in ["NaN", "inf", "-0.5", "abc"] {
        assert_loud(threshold(&args(&["--threshold", raw])).unwrap_err(), "--threshold", raw);
    }
    for (name, raw) in [("--reps", "0"), ("--reps", "x"), ("--threads", "-2"), ("--pr", "seven")] {
        let err = flag(&args(&[name, raw]), name, &knob::POSITIVE).unwrap_err();
        assert_loud(err, name, raw);
    }
    assert!(reps(&args(&["--reps"]), 5).unwrap_err().contains("--reps needs a value"));
}
