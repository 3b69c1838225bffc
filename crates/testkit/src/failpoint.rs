//! A deterministic fail-point registry.
//!
//! Fault-tolerance code that is never executed is fault-tolerance theatre.
//! This module lets tests (and CI) *inject* failures at named sites inside
//! the real pipeline — extraction rows, the encoder, every mining pass —
//! so the cancellation and panic-isolation paths are exercised rather
//! than trusted on inspection.
//!
//! A site is one line of instrumentation:
//!
//! ```
//! use geopattern_testkit::failpoint;
//! let mut cancelled = false;
//! if failpoint::trigger("docs/example.site") {
//!     cancelled = true; // a real site would cancel its CancelToken here
//! }
//! assert!(!cancelled); // inactive points never fire
//! ```
//!
//! When the point is inactive (the overwhelmingly common case) `trigger`
//! is a single relaxed atomic load — cheap enough to leave in release
//! builds, which is the whole point: the injected failure travels the
//! *production* code path.
//!
//! Activation is programmatic ([`activate`]) or via the
//! `GEOPATTERN_FAILPOINTS` environment variable (grammar:
//! `name=action[@prob[:seed]]`, `;`-separated, action `panic` or
//! `cancel`), which the CLI reads at startup. Probabilistic points roll a
//! per-point [`Rng`] seeded explicitly, so a fixed seed yields the same
//! firing pattern forever — the fail-point suite is deterministic, not
//! flaky-by-design.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::Rng;

/// What an armed fail-point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site (exercises the pool's `catch_unwind` isolation).
    /// Only meaningful at sites that run inside a worker closure; a panic
    /// at a sequential site unwinds through the caller like any bug would.
    Panic,
    /// Ask the site to cancel its `CancelToken` (exercises the cooperative
    /// cancellation path end-to-end without any timing dependence).
    Cancel,
}

impl FailAction {
    fn parse(s: &str) -> Result<FailAction, String> {
        match s {
            "panic" => Ok(FailAction::Panic),
            "cancel" => Ok(FailAction::Cancel),
            other => Err(format!("unknown fail action {other:?} (expected panic|cancel)")),
        }
    }
}

#[derive(Debug)]
struct PointState {
    action: FailAction,
    /// Probability of firing per hit, in `[0, 1]`. 1.0 fires every time.
    probability: f64,
    rng: Rng,
    hits: u64,
    fired: u64,
}

/// Fast disarmed check: when no point is active, `trigger` must cost one
/// atomic load and nothing else.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, PointState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, PointState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<String, PointState>> {
    registry().lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Arms `name` with `action`, firing on each hit with `probability`
/// (clamped to `[0, 1]`) decided by a PRNG seeded with `seed`. Re-arming
/// an already-armed point replaces it (and resets its counters).
pub fn activate(name: &str, action: FailAction, probability: f64, seed: u64) {
    let mut reg = lock();
    reg.insert(
        name.to_string(),
        PointState {
            action,
            probability: probability.clamp(0.0, 1.0),
            rng: Rng::seed_from_u64(seed),
            hits: 0,
            fired: 0,
        },
    );
    ARMED.store(true, Ordering::Release);
}

/// Disarms `name` (no-op when not armed).
pub fn deactivate(name: &str) {
    let mut reg = lock();
    reg.remove(name);
    if reg.is_empty() {
        ARMED.store(false, Ordering::Release);
    }
}

/// Disarms every point. Test suites call this between cases.
pub fn deactivate_all() {
    let mut reg = lock();
    reg.clear();
    ARMED.store(false, Ordering::Release);
}

/// The armed fail-point's verdict for one hit of `site`, or `None` when
/// the site is not armed or its probability roll declined.
pub fn hit(site: &str) -> Option<FailAction> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut reg = lock();
    let state = reg.get_mut(site)?;
    state.hits += 1;
    if state.probability >= 1.0 || state.rng.chance(state.probability) {
        state.fired += 1;
        Some(state.action)
    } else {
        None
    }
}

/// Instrumentation entry point for call sites. Panics when an armed
/// [`FailAction::Panic`] point fires; returns `true` when an armed
/// [`FailAction::Cancel`] point fires (the site should cancel its token);
/// returns `false` otherwise. Disarmed cost: one atomic load.
#[inline]
pub fn trigger(site: &str) -> bool {
    if !ARMED.load(Ordering::Acquire) {
        return false;
    }
    match hit(site) {
        Some(FailAction::Panic) => panic!("fail-point {site:?} fired (injected panic)"),
        Some(FailAction::Cancel) => true,
        None => false,
    }
}

/// `(hits, fired)` counters for `site` since it was armed, or `None` when
/// not armed. The fail-point suite uses this to prove a site was actually
/// reached, not merely armed.
pub fn stats(site: &str) -> Option<(u64, u64)> {
    let reg = lock();
    reg.get(site).map(|s| (s.hits, s.fired))
}

/// Parses one `name=action[@prob[:seed]]` spec. Examples:
/// `mining/apriori.pass=cancel`, `sdb/extract.row=panic@0.01:42`.
fn parse_spec(spec: &str) -> Result<(String, FailAction, f64, u64), String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("bad fail-point spec {spec:?} (expected name=action)"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("bad fail-point spec {spec:?} (empty name)"));
    }
    let (action_str, prob_seed) = match rest.split_once('@') {
        Some((a, ps)) => (a, Some(ps)),
        None => (rest, None),
    };
    let action = FailAction::parse(action_str.trim())?;
    let (probability, seed) = match prob_seed {
        None => (1.0, 0),
        Some(ps) => {
            let (p, s) = match ps.split_once(':') {
                Some((p, s)) => (
                    p,
                    s.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("bad fail-point seed {s:?} in {spec:?}"))?,
                ),
                None => (ps, 0),
            };
            let p = p
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("bad fail-point probability {p:?} in {spec:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fail-point probability {p} out of [0, 1] in {spec:?}"));
            }
            (p, s)
        }
    };
    Ok((name.to_string(), action, probability, seed))
}

/// Arms every point in a `;`-separated spec list (the
/// `GEOPATTERN_FAILPOINTS` grammar). Empty segments are ignored.
pub fn activate_spec(specs: &str) -> Result<(), String> {
    for spec in specs.split(';') {
        let spec = spec.trim();
        if spec.is_empty() {
            continue;
        }
        let (name, action, probability, seed) = parse_spec(spec)?;
        activate(&name, action, probability, seed);
    }
    Ok(())
}

/// Reads `GEOPATTERN_FAILPOINTS` and arms its points. Returns `Ok(false)`
/// when the variable is unset, `Ok(true)` when points were armed, `Err`
/// on a malformed spec. The CLI calls this once at startup.
pub fn activate_from_env() -> Result<bool, String> {
    match std::env::var("GEOPATTERN_FAILPOINTS") {
        Ok(specs) if !specs.trim().is_empty() => {
            activate_spec(&specs)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; these tests serialise on one lock so
    // they cannot see each other's points.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _g = serial();
        deactivate_all();
        assert!(!trigger("never/armed"));
        assert_eq!(hit("never/armed"), None);
        assert_eq!(stats("never/armed"), None);
    }

    #[test]
    fn cancel_action_reports_and_counts() {
        let _g = serial();
        deactivate_all();
        activate("unit/site", FailAction::Cancel, 1.0, 0);
        assert!(trigger("unit/site"));
        assert!(trigger("unit/site"));
        assert!(!trigger("unit/other"), "only the armed site fires");
        assert_eq!(stats("unit/site"), Some((2, 2)));
        deactivate("unit/site");
        assert!(!trigger("unit/site"));
    }

    #[test]
    fn panic_action_panics_at_the_site() {
        let _g = serial();
        deactivate_all();
        activate("unit/panic", FailAction::Panic, 1.0, 0);
        let caught = std::panic::catch_unwind(|| trigger("unit/panic"));
        deactivate_all();
        let payload = caught.expect_err("armed panic point must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a formatted string");
        assert!(message.contains("unit/panic"), "{message}");
    }

    #[test]
    fn probabilistic_firing_is_deterministic() {
        let _g = serial();
        let run = |seed: u64| -> Vec<bool> {
            deactivate_all();
            activate("unit/prob", FailAction::Cancel, 0.25, seed);
            let fires: Vec<bool> = (0..64).map(|_| trigger("unit/prob")).collect();
            deactivate_all();
            fires
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same firing pattern");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 64, "p=0.25 should fire sometimes, not always");
        let c = run(43);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn spec_grammar_round_trips() {
        let _g = serial();
        assert_eq!(
            parse_spec("mining/apriori.pass=cancel"),
            Ok(("mining/apriori.pass".to_string(), FailAction::Cancel, 1.0, 0))
        );
        assert_eq!(
            parse_spec("sdb/extract.row=panic@0.5:99"),
            Ok(("sdb/extract.row".to_string(), FailAction::Panic, 0.5, 99))
        );
        assert_eq!(
            parse_spec("a=panic@0.125"),
            Ok(("a".to_string(), FailAction::Panic, 0.125, 0))
        );
        assert!(parse_spec("no-equals").is_err());
        assert!(parse_spec("=panic").is_err());
        assert!(parse_spec("a=explode").is_err());
        assert!(parse_spec("a=panic@1.5").is_err());
        assert!(parse_spec("a=panic@0.5:notaseed").is_err());

        deactivate_all();
        activate_spec("one=cancel; two=cancel@1.0:7 ;; ").expect("valid multi-spec");
        assert!(trigger("one"));
        assert!(trigger("two"));
        deactivate_all();
    }
}
