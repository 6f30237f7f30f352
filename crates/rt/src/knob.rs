//! One strict reader for every `SMOKESCREEN_*` knob.
//!
//! Every environment knob in the workspace — the five seeded-plan
//! families, the pool width and chunk pin, the checkpoint directory, the
//! property-test seed and case count, and the trajectory reps and
//! threshold — is read here and under one policy:
//!
//! * **unset** means the caller's default;
//! * **set** must be a well-formed value of the knob's [`Kind`]; anything
//!   else is an error naming the variable and the raw string
//!   (`"{var} must be {what}, got {raw:?}"`). Startup-time readers
//!   ([`get`]) panic with it, so a typo in a chaos knob can never silently
//!   run the knob's default.
//!
//! Values are read at the caller's call site every time, never cached, so
//! a knob read once per `parallel_map` still sees the environment of that
//! call.

use std::ffi::{OsStr, OsString};
use std::path::PathBuf;
use std::str::FromStr;

/// A value kind: what a well-formed value looks like, and its parser.
pub struct Kind<T> {
    /// Description of a well-formed value, for the error message.
    pub what: &'static str,
    /// Parses a raw value; `None` when it is malformed.
    pub parse: fn(&OsStr) -> Option<T>,
}

/// A seed: a decimal `u64`.
pub const SEED: Kind<u64> = Kind {
    what: "a decimal u64 seed",
    parse: text::<u64>,
};

/// A probability: a finite `f64` in `[0, 1]`.
pub const RATE: Kind<f64> = Kind {
    what: "a rate in [0, 1]",
    parse: |raw| text::<f64>(raw).filter(|r| (0.0..=1.0).contains(r)),
};

/// A count: an integer `≥ 1`.
pub const POSITIVE: Kind<usize> = Kind {
    what: "a positive integer",
    parse: |raw| text::<usize>(raw).filter(|&n| n > 0),
};

/// A finite, non-negative `f64`.
pub const NON_NEGATIVE: Kind<f64> = Kind {
    what: "a finite non-negative number",
    parse: |raw| text::<f64>(raw).filter(|x| x.is_finite() && *x >= 0.0),
};

/// A non-empty filesystem path (any bytes, not only UTF-8).
pub const PATH: Kind<PathBuf> = Kind {
    what: "a non-empty path",
    parse: |raw| (!raw.is_empty()).then(|| PathBuf::from(raw)),
};

/// Parses a UTF-8, whitespace-trimmed value with [`FromStr`].
pub fn text<T: FromStr>(raw: &OsStr) -> Option<T> {
    raw.to_str()?.trim().parse().ok()
}

/// Parses one raw knob value: unset (`None`) is `Ok(None)`; a set value
/// must be a well-formed `kind`, else the error names `var` and `raw`.
pub fn parse<T>(var: &str, raw: Option<&OsStr>, kind: &Kind<T>) -> Result<Option<T>, String> {
    match raw {
        None => Ok(None),
        Some(raw) => (kind.parse)(raw)
            .map(Some)
            .ok_or_else(|| format!("{var} must be {}, got {raw:?}", kind.what)),
    }
}

/// The raw value of `var` — the one place the workspace reads a knob
/// from the environment.
pub fn raw(var: &str) -> Option<OsString> {
    std::env::var_os(var)
}

/// Whether `var` is set at all, well-formed or not.
pub fn is_set(var: &str) -> bool {
    raw(var).is_some()
}

/// Reads `var` under [`parse`].
pub fn read<T>(var: &str, kind: &Kind<T>) -> Result<Option<T>, String> {
    parse(var, raw(var).as_deref(), kind)
}

/// Reads `var` under [`parse`] at startup: a malformed value panics with
/// the message naming the variable and the raw string.
pub fn get<T>(var: &str, kind: &Kind<T>) -> Option<T> {
    loud(read(var, kind))
}

/// Unwraps a knob parse, panicking with its message on a malformed value.
pub fn loud<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| panic!("{msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p<T>(raw: &str, kind: &Kind<T>) -> Result<Option<T>, String> {
        parse("SMOKESCREEN_TEST", Some(OsStr::new(raw)), kind)
    }

    #[test]
    fn unset_is_the_default_and_set_must_be_well_formed() {
        assert_eq!(parse("SMOKESCREEN_TEST", None, &SEED), Ok(None));
        assert_eq!(p(" 42 ", &SEED), Ok(Some(42)));
        assert_eq!(p("0.25", &RATE), Ok(Some(0.25)));
        assert_eq!(p("8", &POSITIVE), Ok(Some(8)));
        assert_eq!(p("0", &NON_NEGATIVE), Ok(Some(0.0)));
        assert_eq!(p("/tmp/x", &PATH), Ok(Some(PathBuf::from("/tmp/x"))));
        for (raw, err) in [
            ("0x1f", p("0x1f", &SEED).unwrap_err()),
            ("-3", p("-3", &SEED).unwrap_err()),
            ("1.5", p("1.5", &RATE).unwrap_err()),
            ("NaN", p("NaN", &RATE).unwrap_err()),
            ("0", p("0", &POSITIVE).unwrap_err()),
            ("abc", p("abc", &POSITIVE).unwrap_err()),
            ("NaN", p("NaN", &NON_NEGATIVE).unwrap_err()),
            ("inf", p("inf", &NON_NEGATIVE).unwrap_err()),
            ("-0.5", p("-0.5", &NON_NEGATIVE).unwrap_err()),
            ("", p("", &PATH).unwrap_err()),
        ] {
            assert!(err.starts_with("SMOKESCREEN_TEST must be "), "{err}");
            assert!(err.ends_with(&format!("{raw:?}")), "{err} should quote {raw:?}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_values_are_malformed_except_as_paths() {
        use std::os::unix::ffi::OsStrExt;
        let raw = OsStr::from_bytes(b"\xff7");
        assert!(parse("SMOKESCREEN_TEST", Some(raw), &SEED).is_err());
        assert!(parse("SMOKESCREEN_TEST", Some(raw), &PATH).unwrap().is_some());
    }
}
