//! `Json::parse` on hostile sizes: long strings must parse in linear
//! time, and deep nesting must be refused with an error instead of
//! overflowing the stack. Error offsets and messages are part of the
//! `parse_error` envelopes `pst serve` returns, so they are pinned too.

use std::time::{Duration, Instant};

use pst_obs::json::{Escaped, Json, MAX_DEPTH};

#[test]
fn a_four_mib_string_parses_in_linear_time() {
    // Mixed runs: ASCII, multi-byte scalars, and escapes every few
    // hundred bytes, so both the run copy and the escape path are hit.
    let mut text = String::new();
    while text.len() < 4 << 20 {
        text.push_str(&"edge 0->1; ".repeat(20));
        text.push_str("é\u{1F600}\n\t\"quoted\" \\ back");
    }
    let line = Json::Str(text.clone()).to_string();
    let started = Instant::now();
    let parsed = Json::parse(&line).expect("a rendered string parses");
    let took = started.elapsed();
    assert_eq!(parsed, Json::Str(text));
    // A parser that re-validates the rest of the buffer per character
    // needs tens of seconds for 1 MiB.
    assert!(
        took < Duration::from_secs(1),
        "4 MiB string took {took:?} to parse"
    );
}

#[test]
fn nesting_is_bounded_with_an_error_not_a_stack_overflow() {
    let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&at_bound).is_ok());
    let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
    assert!(Json::parse(&objects).is_ok());

    let err = Json::parse(&"[".repeat(1_000_000)).expect_err("too deep");
    assert_eq!(err.at, MAX_DEPTH);
    assert_eq!(
        err.message,
        format!("nesting deeper than {MAX_DEPTH} levels")
    );
    let mixed = "{\"k\":[".repeat(MAX_DEPTH);
    let err = Json::parse(&mixed).expect_err("too deep");
    assert_eq!(&mixed[err.at..err.at + 1], "{");
}

#[test]
fn string_error_offsets_are_unchanged() {
    let err = Json::parse("\"abc").unwrap_err();
    assert_eq!((err.at, err.message.as_str()), (4, "unterminated string"));
    let err = Json::parse("\"ab\u{01}c\"").unwrap_err();
    assert_eq!(
        (err.at, err.message.as_str()),
        (3, "raw control character in string")
    );
    let err = Json::parse("\"é\\q\"").unwrap_err();
    assert_eq!((err.at, err.message.as_str()), (5, "unknown escape"));
    let err = Json::parse("[\"x\\u12\"]").unwrap_err();
    assert_eq!((err.at, err.message.as_str()), (5, "bad \\u escape"));
}

#[test]
fn escaped_renders_like_a_json_string() {
    let nasty = "q\" b\\ n\n t\t c\u{01} é \u{1F600}";
    assert_eq!(
        Escaped(nasty).to_string(),
        Json::Str(nasty.to_string()).to_string()
    );
}
