//! The configuration registry's pure parser: synthetic variable lists
//! only, so no test depends on (or mutates) the process environment.

use cse_vm::{CoveragePolicy, Settings, TvMode, VerifyMode};

fn parse(vars: &[(&str, &str)]) -> Result<Settings, String> {
    Settings::parse(vars.iter().copied())
}

#[test]
fn no_variables_give_the_defaults() {
    assert_eq!(parse(&[("PATH", "/bin"), ("HOME", "")]), Ok(Settings::default()));
}

#[test]
fn an_empty_value_is_unset() {
    for name in Settings::names() {
        assert_eq!(parse(&[(name, "")]), Ok(Settings::default()), "{name}");
    }
}

#[test]
fn a_full_valid_set_round_trips() {
    let vars = [
        ("CSE_SEEDS", "400"),
        ("CSE_JOBS", "4"),
        ("CSE_VERIFY_IR", "each"),
        ("CSE_TV", "boundary"),
        ("CSE_COVERAGE", "guide"),
        ("CSE_FUEL", "1000"),
        ("CSE_HEAP_LIMIT", "0"),
        ("CSE_STACK_LIMIT", "64"),
        ("CSE_DUMP_IR", "1"),
        ("CSE_CHECKPOINT_DIR", "ck"),
        ("CSE_QUARANTINE_DIR", "q/dir"),
        ("CSE_DEADLINE_SECS", "3600"),
        ("CSE_TRIAGE", "1"),
        ("CSE_TRIAGE_STEPS", "0"),
    ];
    let names: Vec<&str> = vars.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, Settings::names().collect::<Vec<_>>(), "every name, in registry order");
    let settings = parse(&vars).expect("every value is valid");
    let expected = Settings {
        seeds: Some(400),
        jobs: 4,
        verify_ir: VerifyMode::Each,
        tv: TvMode::Boundary,
        coverage: CoveragePolicy::Guide,
        fuel: 1000,
        heap_limit: 0,
        stack_limit: 64,
        dump_ir: true,
        checkpoint_dir: Some("ck".into()),
        quarantine_dir: Some("q/dir".into()),
        deadline_secs: Some(3600),
        triage: true,
        triage_steps: 0,
    };
    assert_eq!(settings, expected);
    // `Display` prints the effective value of every name, so the
    // printed line parses back to the same settings.
    let line = settings.to_string();
    let printed: Vec<(&str, &str)> =
        line.split(' ').map(|kv| kv.split_once('=').expect("NAME=value")).collect();
    assert_eq!(printed, vars);
    assert_eq!(parse(&printed), Ok(expected));
}

#[test]
fn defaults_print_every_name() {
    assert_eq!(
        Settings::default().to_string(),
        "CSE_SEEDS=unset CSE_JOBS=1 CSE_VERIFY_IR=off CSE_TV=off CSE_COVERAGE=off \
         CSE_FUEL=40000000 CSE_HEAP_LIMIT=268435456 CSE_STACK_LIMIT=512 CSE_DUMP_IR=0 \
         CSE_CHECKPOINT_DIR=unset CSE_QUARANTINE_DIR=unset CSE_DEADLINE_SECS=unset \
         CSE_TRIAGE=0 CSE_TRIAGE_STEPS=1000"
    );
}

#[test]
fn one_malformed_value_per_grammar_is_rejected() {
    for (name, value, accepts) in [
        ("CSE_JOBS", "two", "a positive integer"),
        ("CSE_SEEDS", "0", "a positive integer"),
        ("CSE_TV", "eahc", "off|boundary|each"),
        ("CSE_VERIFY_IR", "EACH", "off|boundary|each"),
        ("CSE_COVERAGE", "gude", "off|collect|guide"),
        ("CSE_FUEL", "lots", "a non-negative integer"),
        ("CSE_DEADLINE_SECS", "1h", "a non-negative integer"),
        ("CSE_TRIAGE_STEPS", "lots", "a non-negative integer"),
        ("CSE_DUMP_IR", "yes", "0|1"),
        ("CSE_TRIAGE", "2", "0|1"),
    ] {
        assert_eq!(
            parse(&[(name, value)]),
            Err(format!("{name}={value:?} is not {accepts}")),
            "{name}={value}"
        );
    }
}

#[test]
fn an_unknown_name_is_rejected() {
    assert_eq!(
        parse(&[("CSE_TV_MODE", "each")]),
        Err("CSE_TV_MODE=\"each\" is not a known setting".to_string())
    );
    // A name must match exactly: the prefix alone is not a setting.
    assert!(parse(&[("CSE_", "1")]).is_err());
}

#[test]
fn every_error_is_reported() {
    let errors = parse(&[("CSE_JOBS", "two"), ("CSE_TRACE_JIT", "1"), ("CSE_TV", "each")])
        .expect_err("two bad variables");
    assert_eq!(
        errors,
        "CSE_JOBS=\"two\" is not a positive integer\n\
         CSE_TRACE_JIT=\"1\" is not a known setting"
    );
}
