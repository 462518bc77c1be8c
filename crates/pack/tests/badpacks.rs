//! Must-fail fixtures: malformed packs and the spans their errors carry.
//!
//! Each case asserts both the message *and* the 1-based (line, col)
//! span, so error reporting regressions (not just acceptance
//! regressions) fail the suite.

use umtslab_pack::Pack;

/// A valid pack with line-numbering that the cases below perturb.
fn valid() -> String {
    "[pack]\n\
     name = \"fixture\"\n\
     description = \"must-fail fixture base\"\n\
     version = 1\n\
     [topology]\n\
     access_rate_bps = 100000000\n\
     access_delay_s = 0.006\n\
     access_jitter_s = 0.0004\n\
     [umts]\n\
     operator = \"commercial_italy\"\n\
     device = \"option_globetrotter\"\n\
     [[slice]]\n\
     name = \"unina_umts\"\n\
     node = \"napoli\"\n\
     umts_access = true\n\
     [[slice]]\n\
     name = \"unina_probe\"\n\
     node = \"inria\"\n\
     umts_access = false\n\
     [[flow]]\n\
     label = \"voip\"\n\
     kind = \"voip_g711\"\n\
     path = \"ethernet\"\n\
     duration_s = 2.0\n\
     [seeds]\n\
     base = 1\n\
     reps = 1\n"
        .to_string()
}

fn expect_error(text: &str, line: usize, col: usize, needle: &str) {
    let err = Pack::parse(text).expect_err("malformed pack must not parse");
    assert!(
        err.message.contains(needle),
        "expected message containing `{needle}`, got `{}`",
        err.message
    );
    assert_eq!(
        (err.span.line, err.span.col),
        (line, col),
        "wrong span for `{needle}`: got {}, message `{}`",
        err.span,
        err.message
    );
}

#[test]
fn the_base_fixture_is_valid() {
    Pack::parse(&valid()).expect("base fixture parses");
}

#[test]
fn bad_key_is_rejected_with_its_span() {
    // An extra unknown key after `reps = 1` lands on line 28.
    let text = valid().replace("reps = 1\n", "reps = 1\nrepz = 1\n");
    expect_error(&text, 28, 1, "unknown key `repz` in [seeds]");
}

#[test]
fn duplicate_section_is_rejected_with_both_spans() {
    let text = valid() + "[topology]\naccess_rate_bps = 1\n";
    let err = Pack::parse(&text).expect_err("duplicate section");
    assert!(
        err.message.contains("duplicate section `[topology]` (first defined at 5:1)"),
        "{}",
        err.message
    );
    assert_eq!((err.span.line, err.span.col), (28, 1));
}

#[test]
fn duplicate_key_is_rejected_with_both_spans() {
    let text = valid().replace("base = 1\n", "base = 1\nbase = 2\n");
    let err = Pack::parse(&text).expect_err("duplicate key");
    assert!(
        err.message.contains("duplicate key `base` in [seeds] (first set at 26:1)"),
        "{}",
        err.message
    );
    assert_eq!((err.span.line, err.span.col), (27, 1));
}

#[test]
fn type_mismatch_is_rejected_with_its_span() {
    // `version = 1` (line 4) becomes a string.
    let text = valid().replace("version = 1", "version = \"one\"");
    expect_error(&text, 4, 1, "`version` must be a integer, got string");
}

#[test]
fn unquoted_string_is_rejected_at_the_value() {
    let text = valid().replace("node = \"napoli\"", "node = napoli");
    expect_error(&text, 14, 8, "unquoted value `napoli`");
}

#[test]
fn unterminated_string_points_at_the_opening_quote() {
    let text = valid().replace("label = \"voip\"", "label = \"voip");
    expect_error(&text, 21, 9, "unterminated string literal");
}

#[test]
fn unknown_section_is_rejected() {
    let text = valid() + "[extras]\nx = 1\n";
    expect_error(&text, 28, 1, "unknown section [extras]");
}

#[test]
fn array_section_spelled_plain_is_rejected() {
    let text = valid().replace("[[flow]]", "[flow]");
    expect_error(&text, 20, 1, "section [flow] is an array-of-tables: write [[flow]]");
}

#[test]
fn unknown_preset_values_are_rejected() {
    let text = valid().replace("\"commercial_italy\"", "\"vodafone_de\"");
    expect_error(&text, 10, 1, "unknown operator preset `vodafone_de`");
    let text = valid().replace("\"option_globetrotter\"", "\"nokia_n95\"");
    expect_error(&text, 11, 1, "unknown device preset `nokia_n95`");
}

#[test]
fn golden_validation_carries_spans() {
    let base = valid();
    // Unknown metric (the [[golden]] block starts at line 28).
    let text = base.clone()
        + "[[golden]]\nflow = \"voip\"\nseed = 1\nmetric = \"p99_owd\"\nvalue = 1.0\ntolerance = 1.0\n";
    expect_error(&text, 31, 1, "unknown metric `p99_owd`");
    // Seed outside the campaign scheme.
    let text = base
        + "[[golden]]\nflow = \"voip\"\nseed = 99\nmetric = \"sent\"\nvalue = 1.0\ntolerance = 1.0\n";
    expect_error(&text, 30, 1, "golden seed 99 is not produced by [seeds]");
}

#[test]
fn out_of_range_probability_is_rejected() {
    let text = valid().replace(
        "[seeds]",
        "[topology.fault]\npreset = \"custom\"\nloss = \"bernoulli\"\np = 1.5\n[seeds]",
    );
    expect_error(&text, 28, 1, "`p` must be in [0, 1], got 1.5");
}

#[test]
fn credentials_must_come_in_pairs() {
    let text = valid().replace(
        "device = \"option_globetrotter\"",
        "device = \"option_globetrotter\"\nusername = \"web\"",
    );
    let err = Pack::parse(&text).expect_err("username without password");
    assert!(
        err.message.contains("username and password must be given together"),
        "{}",
        err.message
    );
}

#[test]
fn seconds_beyond_one_day_are_rejected() {
    // `duration_s` is line 24. 1e20 s would overflow the run's end instant.
    let text = valid().replace("duration_s = 2.0", "duration_s = 1e20");
    expect_error(&text, 24, 1, "`duration_s` must be at most 86400 s (one day)");
    Pack::parse(&valid().replace("duration_s = 2.0", "duration_s = 86400.0"))
        .expect("exactly one day is allowed");
}

#[test]
fn fault_plans_expecting_too_many_faults_are_rejected() {
    let plan = |horizon: &str, gap: &str| {
        valid().replace(
            "[seeds]",
            &format!(
                "[fault_plan]\nstart_s = 0.0\nhorizon_s = {horizon}\nmean_gap_s = {gap}\n\
                 mix = [\"ppp_terminate\"]\n[seeds]"
            ),
        )
    };
    // A day of faults one microsecond apart would schedule ~8.6e10
    // events. The [fault_plan] header is line 25.
    expect_error(
        &plan("86400.0", "0.000001"),
        25,
        1,
        "(horizon_s - start_s) / mean_gap_s must be at most 10000",
    );
    Pack::parse(&plan("10.0", "0.001")).expect("exactly 10000 expected faults is allowed");
}

#[test]
fn reps_past_the_campaign_bound_are_rejected_with_their_span() {
    for reps in ["0", "1001"] {
        let text = valid().replace("reps = 1\n", &format!("reps = {reps}\n"));
        let err = Pack::parse(&text).expect_err("out-of-range reps");
        assert_eq!(err.message, "reps must be in 1..=1000");
        assert_eq!(err.span.line, 27, "{}", err.span);
    }
    let text = valid().replace("reps = 1\n", "reps = 1000\n");
    Pack::parse(&text).expect("the bound itself is allowed");
}
