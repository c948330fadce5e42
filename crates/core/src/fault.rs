//! Deterministic fault injection for the driver's recovery paths.
//!
//! A [`FaultPlan`] names one fault to inject at one probe point inside
//! [`crate::Driver::apply`]: a failing dependence analysis, a failing
//! action, a corrupted scratch commit (the committed program is made
//! structurally invalid), a panic mid-search, an exhausted time or fuel
//! budget, or a silently skipped dependence refresh. Plans are matched by
//! optimizer name and application index, so a test — or the CLI's
//! `--inject` flag — can script *exactly* one failure and then assert
//! that the surrounding machinery (rollback, quarantine, degradation,
//! retry, diagnostics) contains it. Nothing here is random: the same plan
//! against the same program fails identically every run.
//!
//! A plan may additionally be **transient** (spelled with a `~` prefix in
//! the CLI syntax): it fires at most once over the plan's lifetime, no
//! matter how many probes match. Clones share the underlying fire
//! counter, so a supervisor that retries a failed apply with a clone of
//! the same session sees the fault *clear* on the retry — the scripted
//! analogue of a timeout caused by a scheduling hiccup rather than by the
//! workload itself.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which probe point fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Dependence analysis returns an error.
    Analysis,
    /// The action interpreter returns an error before running.
    Action,
    /// Actions succeed but the committed program is corrupted (an
    /// unmatched `end do` marker is appended), making it structurally
    /// invalid — the fault a validation gate must catch.
    CorruptCommit,
    /// The search panics (as buggy generated code might); only a
    /// `catch_unwind` boundary can contain it.
    Panic,
    /// The action interpreter panics *after* journaling its edits — the
    /// worst case for rollback, since the in-flight journal must still be
    /// replayed before the panic propagates.
    PanicInAction,
    /// The wall-clock budget "expires": the driver returns
    /// [`crate::RunError::Timeout`] as if the deadline had passed.
    Timeout,
    /// The search-cost budget "expires": the driver returns
    /// [`crate::RunError::FuelExhausted`] as if the fuel ran out.
    Fuel,
    /// The incremental dependence refresh after a committed application is
    /// silently skipped, leaving the maintained graph stale — the scripted
    /// analogue of a missed cache invalidation, and the fault the
    /// degradation ladder (verify → adopt fresh graph → rebuild caches)
    /// must heal.
    CorruptDeps,
}

impl FaultKind {
    /// The stable lowercase slug used by the `--inject` CLI syntax and
    /// campaign reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Analysis => "analysis",
            FaultKind::Action => "action",
            FaultKind::CorruptCommit => "corrupt",
            FaultKind::Panic => "panic",
            FaultKind::PanicInAction => "panic-action",
            FaultKind::Timeout => "timeout",
            FaultKind::Fuel => "fuel",
            FaultKind::CorruptDeps => "corrupt-deps",
        }
    }
}

/// One scripted fault: *kind*, optionally restricted to one optimizer,
/// firing at one application index, optionally at most once ever.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// What to inject.
    pub kind: FaultKind,
    /// Only fire while running this optimizer (case-insensitive); `None`
    /// fires for any optimizer.
    pub optimizer: Option<String>,
    /// Fire when the driver is about to perform this application
    /// (0-based; `0` = the first application of a matching `apply` call).
    pub at_application: usize,
    /// Fire at most once across the plan's lifetime. Clones share the
    /// fire counter, so a retry running under a clone of the plan sees
    /// the fault cleared.
    pub transient: bool,
    fired: Arc<AtomicUsize>,
}

// The fire counter is runtime bookkeeping, not part of the plan's
// identity — two plans are the same plan even when one has already fired.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &FaultPlan) -> bool {
        self.kind == other.kind
            && self.optimizer == other.optimizer
            && self.at_application == other.at_application
            && self.transient == other.transient
    }
}

impl Eq for FaultPlan {}

impl FaultPlan {
    /// A plan injecting `kind` on the first application of any optimizer.
    pub fn new(kind: FaultKind) -> FaultPlan {
        FaultPlan {
            kind,
            optimizer: None,
            at_application: 0,
            transient: false,
            fired: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Restricts the plan to one optimizer name.
    pub fn for_optimizer(mut self, name: impl Into<String>) -> FaultPlan {
        self.optimizer = Some(name.into());
        self
    }

    /// Fires at the given application index instead of the first.
    pub fn at(mut self, application: usize) -> FaultPlan {
        self.at_application = application;
        self
    }

    /// Makes the plan fire at most once over its lifetime (shared with
    /// clones).
    pub fn transient(mut self) -> FaultPlan {
        self.transient = true;
        self
    }

    /// How many times this plan (or any clone of it) has fired.
    pub fn times_fired(&self) -> usize {
        self.fired.load(Ordering::SeqCst)
    }

    /// A copy of this plan with a fresh (zeroed) fire counter — unlike
    /// `clone`, which shares the counter. The chaos campaign uses this to
    /// arm the same scripted fault independently per step.
    pub fn rearmed(&self) -> FaultPlan {
        FaultPlan {
            kind: self.kind,
            optimizer: self.optimizer.clone(),
            at_application: self.at_application,
            transient: self.transient,
            fired: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Parses the CLI plan syntax `[~]kind[@OPT][:n]`, where *kind* is
    /// one of `analysis`, `action`, `corrupt`, `panic`, `panic-action`,
    /// `timeout`, `fuel`, `corrupt-deps`; `@OPT` restricts to one
    /// optimizer; `:n` selects the nth application (0-based); a leading
    /// `~` makes the fault transient (fires at most once ever).
    ///
    /// Examples: `panic`, `action@CTP`, `corrupt@LUR:2`, `~timeout@DCE`.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the syntax error.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let (text, transient) = match text.strip_prefix('~') {
            Some(rest) => (rest, true),
            None => (text, false),
        };
        let (head, index) = match text.rsplit_once(':') {
            Some((h, n)) => {
                let idx: usize = n
                    .parse()
                    .map_err(|_| format!("`{n}` is not an application index"))?;
                (h, idx)
            }
            None => (text, 0),
        };
        let (kind_text, opt) = match head.split_once('@') {
            Some((k, o)) if !o.is_empty() => (k, Some(o.to_string())),
            Some((_, _)) => return Err("empty optimizer name after `@`".into()),
            None => (head, None),
        };
        let kind = match kind_text {
            "analysis" => FaultKind::Analysis,
            "action" => FaultKind::Action,
            "corrupt" => FaultKind::CorruptCommit,
            "panic" => FaultKind::Panic,
            "panic-action" => FaultKind::PanicInAction,
            "timeout" => FaultKind::Timeout,
            "fuel" => FaultKind::Fuel,
            "corrupt-deps" => FaultKind::CorruptDeps,
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` \
                     (expected analysis|action|corrupt|panic|panic-action\
                     |timeout|fuel|corrupt-deps)"
                ))
            }
        };
        Ok(FaultPlan {
            kind,
            optimizer: opt,
            at_application: index,
            transient,
            fired: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// True when a probe of `kind` in optimizer `optimizer` at
    /// application index `application` should fire. Firing is recorded;
    /// a transient plan consumes its single shot here.
    pub fn fires(&self, kind: FaultKind, optimizer: &str, application: usize) -> bool {
        let matches = self.kind == kind
            && self.at_application == application
            && self
                .optimizer
                .as_deref()
                .is_none_or(|o| o.eq_ignore_ascii_case(optimizer));
        if !matches {
            return false;
        }
        if self.transient {
            // Exactly one probe may claim the shot, even across threads.
            self.fired
                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        } else {
            self.fired.fetch_add(1, Ordering::SeqCst);
            true
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.transient {
            write!(f, "~")?;
        }
        write!(f, "{}", self.kind.name())?;
        if let Some(o) = &self.optimizer {
            write!(f, "@{o}")?;
        }
        if self.at_application != 0 {
            write!(f, ":{}", self.at_application)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for text in [
            "panic",
            "action@CTP",
            "corrupt@LUR:2",
            "analysis:1",
            "panic-action@FUS:1",
            "timeout@DCE",
            "~timeout",
            "~fuel@CTP:3",
            "corrupt-deps@INX",
        ] {
            let plan = FaultPlan::parse(text).unwrap();
            assert_eq!(plan.to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("frobnicate").is_err());
        assert!(FaultPlan::parse("panic@").is_err());
        assert!(FaultPlan::parse("panic:x").is_err());
        assert!(FaultPlan::parse("~~timeout").is_err());
    }

    #[test]
    fn matching_respects_name_and_index() {
        let plan = FaultPlan::new(FaultKind::Action).for_optimizer("CTP").at(1);
        assert!(plan.fires(FaultKind::Action, "ctp", 1));
        assert!(!plan.fires(FaultKind::Action, "ctp", 0));
        assert!(!plan.fires(FaultKind::Action, "DCE", 1));
        assert!(!plan.fires(FaultKind::Panic, "ctp", 1));
        let any = FaultPlan::new(FaultKind::Panic);
        assert!(any.fires(FaultKind::Panic, "whatever", 0));
    }

    #[test]
    fn transient_plans_fire_once_and_share_the_shot_across_clones() {
        let plan = FaultPlan::new(FaultKind::Timeout).transient();
        let clone = plan.clone();
        assert!(plan.fires(FaultKind::Timeout, "CTP", 0));
        assert!(!plan.fires(FaultKind::Timeout, "CTP", 0));
        assert!(
            !clone.fires(FaultKind::Timeout, "CTP", 0),
            "a clone must see the fault already consumed"
        );
        assert_eq!(plan.times_fired(), 1);
        let fresh = plan.rearmed();
        assert_eq!(fresh.times_fired(), 0);
        assert!(fresh.fires(FaultKind::Timeout, "CTP", 0));
    }

    #[test]
    fn persistent_plans_count_every_firing() {
        let plan = FaultPlan::new(FaultKind::Analysis);
        assert!(plan.fires(FaultKind::Analysis, "DCE", 0));
        assert!(plan.fires(FaultKind::Analysis, "DCE", 0));
        assert_eq!(plan.times_fired(), 2);
    }

    #[test]
    fn equality_ignores_the_fire_counter() {
        let a = FaultPlan::new(FaultKind::Timeout).transient();
        let b = a.clone();
        assert!(a.fires(FaultKind::Timeout, "X", 0));
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::new(FaultKind::Timeout));
    }
}
