//! The one configuration surface: every `CSE_*` environment variable,
//! listed in one table and parsed once per process into [`Settings`].
//!
//! Bad configuration fails loudly. A malformed value or an unknown
//! `CSE_*` name is an error naming the variable and its value, which
//! [`Settings::get`] turns into exit status 2 — never a warning and a
//! fallback that quietly turns an oracle off. Exiting, not panicking,
//! keeps the error from becoming a [`crate::contain_panics`] incident.
//! An empty value counts as unset for every name.

use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;

use crate::coverage::CoveragePolicy;
use crate::{TvMode, VerifyMode};

/// Every `CSE_*` setting, with defaults filled in. Each field holds the
/// variable of the same name (`heap_limit` is `CSE_HEAP_LIMIT`); README's
/// Configuration table gives its values, default and readers. `None`
/// marks a setting whose default belongs to its reader (the seed budget
/// differs per binary) or that is off unless set (the supervision paths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settings {
    pub seeds: Option<u64>,
    pub jobs: usize,
    pub verify_ir: VerifyMode,
    pub tv: TvMode,
    pub coverage: CoveragePolicy,
    pub fuel: u64,
    pub heap_limit: usize,
    pub stack_limit: usize,
    pub dump_ir: bool,
    pub checkpoint_dir: Option<PathBuf>,
    pub quarantine_dir: Option<PathBuf>,
    pub deadline_secs: Option<u64>,
    pub triage: bool,
    pub triage_steps: usize,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings {
            seeds: None,
            jobs: 1,
            verify_ir: VerifyMode::Off,
            tv: TvMode::Off,
            coverage: CoveragePolicy::Off,
            fuel: 40_000_000,
            heap_limit: 256 * 1024 * 1024,
            stack_limit: 512,
            dump_ir: false,
            checkpoint_dir: None,
            quarantine_dir: None,
            deadline_secs: None,
            triage: false,
            triage_steps: 1000,
        }
    }
}

/// One known variable: its name, the values it accepts (as the error
/// message words them), and how a value is stored.
struct Knob(&'static str, &'static str, fn(&mut Settings, &str) -> Option<()>);

const COUNT: &str = "a positive integer";
const U64: &str = "a non-negative integer";
const FLAG: &str = "0|1";
const PATH: &str = "a path";
const VERIFY_MODES: [VerifyMode; 2] = [VerifyMode::Off, VerifyMode::Boundary];
const TV_MODES: [TvMode; 3] = [TvMode::Off, TvMode::Boundary, TvMode::Each];
const POLICIES: [CoveragePolicy; 2] = [CoveragePolicy::Off, CoveragePolicy::Guide];

/// The registry: every `CSE_*` name the workspace reads, in the order
/// `Display` prints them.
const KNOBS: [Knob; 14] = [
    Knob("CSE_SEEDS", COUNT, |s, v| count(v).map(|n| s.seeds = Some(n))),
    Knob("CSE_JOBS", COUNT, |s, v| count(v).map(|n| s.jobs = n)),
    Knob("CSE_VERIFY_IR", "off|boundary", |s, v| choice(v, &VERIFY_MODES).map(|m| s.verify_ir = m)),
    Knob("CSE_TV", "off|boundary|each", |s, v| choice(v, &TV_MODES).map(|m| s.tv = m)),
    Knob("CSE_COVERAGE", "off|guide", |s, v| choice(v, &POLICIES).map(|p| s.coverage = p)),
    Knob("CSE_FUEL", U64, |s, v| v.parse().ok().map(|n| s.fuel = n)),
    Knob("CSE_HEAP_LIMIT", U64, |s, v| v.parse().ok().map(|n| s.heap_limit = n)),
    Knob("CSE_STACK_LIMIT", U64, |s, v| v.parse().ok().map(|n| s.stack_limit = n)),
    Knob("CSE_DUMP_IR", FLAG, |s, v| flag(v).map(|b| s.dump_ir = b)),
    Knob("CSE_CHECKPOINT_DIR", PATH, |s, v| v.parse().ok().map(|p| s.checkpoint_dir = Some(p))),
    Knob("CSE_QUARANTINE_DIR", PATH, |s, v| v.parse().ok().map(|p| s.quarantine_dir = Some(p))),
    Knob("CSE_DEADLINE_SECS", U64, |s, v| v.parse().ok().map(|n| s.deadline_secs = Some(n))),
    Knob("CSE_TRIAGE", FLAG, |s, v| flag(v).map(|b| s.triage = b)),
    Knob("CSE_TRIAGE_STEPS", U64, |s, v| v.parse().ok().map(|n| s.triage_steps = n)),
];

fn count<T: std::str::FromStr + PartialOrd + From<u8>>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::from(0))
}

fn flag(v: &str) -> Option<bool> {
    match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// The option whose name (its `Display`) is `v`.
fn choice<T: Copy + fmt::Display>(v: &str, options: &[T]) -> Option<T> {
    options.iter().copied().find(|o| o.to_string() == v)
}

fn opt(value: Option<impl fmt::Display>) -> String {
    value.map_or_else(|| "unset".to_string(), |v| v.to_string())
}

impl Settings {
    /// Every registered name, in registry order.
    pub fn names() -> impl Iterator<Item = &'static str> {
        KNOBS.iter().map(|k| k.0)
    }

    /// Parses `(name, value)` pairs, such as a process environment.
    /// Names without the `CSE_` prefix are ignored; the error lists,
    /// one per line, every malformed value and unknown `CSE_*` name.
    pub fn parse<I, K, V>(vars: I) -> Result<Settings, String>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut settings = Settings::default();
        let mut errors = Vec::new();
        for (name, value) in vars {
            let (name, value) = (name.as_ref(), value.as_ref());
            if !name.starts_with("CSE_") || value.is_empty() {
                continue;
            }
            match KNOBS.iter().find(|k| k.0 == name) {
                None => errors.push(format!("{name}={value:?} is not a known setting")),
                Some(Knob(_, accepts, set)) => {
                    if set(&mut settings, value).is_none() {
                        errors.push(format!("{name}={value:?} is not {accepts}"));
                    }
                }
            }
        }
        errors.is_empty().then_some(settings).ok_or_else(|| errors.join("\n"))
    }

    /// This process's settings, parsed from its environment on first
    /// use. A parse error is printed and exits the process with status 2.
    pub fn get() -> &'static Settings {
        static SETTINGS: OnceLock<Settings> = OnceLock::new();
        SETTINGS.get_or_init(|| {
            let vars = std::env::vars_os().map(|(name, value)| {
                (name.to_string_lossy().into_owned(), value.to_string_lossy().into_owned())
            });
            Settings::parse(vars).unwrap_or_else(|errors| {
                eprintln!("error: {}", errors.replace('\n', "\nerror: "));
                std::process::exit(2)
            })
        })
    }
}

/// `NAME=value` for every known name, space-separated in registry
/// order; a setting with no value of its own prints `unset`.
impl fmt::Display for Settings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self;
        let values: [String; 14] = [
            opt(s.seeds),
            s.jobs.to_string(),
            s.verify_ir.to_string(),
            s.tv.to_string(),
            s.coverage.to_string(),
            s.fuel.to_string(),
            s.heap_limit.to_string(),
            s.stack_limit.to_string(),
            u8::from(s.dump_ir).to_string(),
            opt(s.checkpoint_dir.as_ref().map(|p| p.display())),
            opt(s.quarantine_dir.as_ref().map(|p| p.display())),
            opt(s.deadline_secs),
            u8::from(s.triage).to_string(),
            s.triage_steps.to_string(),
        ];
        let shown: Vec<String> =
            Settings::names().zip(values).map(|(name, value)| format!("{name}={value}")).collect();
        f.write_str(&shown.join(" "))
    }
}
