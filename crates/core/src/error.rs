//! The typed error taxonomy of the public pipeline API.
//!
//! The pipeline must stay well-defined on adversarial instances, not just
//! the paper's kernels: malformed nest sources, accesses whose exact
//! integer arithmetic overflows `i64`, analysis stages that hit an
//! internal inconsistency. Instead of panicking, the public entry points
//! ([`crate::map_nest`], [`rescomm_loopnest::parse_nest`]) surface a
//! [`RescommError`], and the map is additionally *guarded*: an internal
//! panic is caught and returned as [`RescommError::Analysis`]. Events a
//! mapping survives (a self-check disagreement with the reference oracle
//! [`crate::map_nest_reference`], a node-loss remap) are recorded as an
//! [`Incident`] in the mapping (surfaced by the run report).

use rescomm_intlin::LinError;
use rescomm_loopnest::ParseError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Any error the public pipeline API can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RescommError {
    /// The nest source was malformed (line/column in the payload).
    Parse(ParseError),
    /// Exact integer linear algebra failed (overflow, singularity, …).
    Lin(LinError),
    /// An analysis stage failed internally: a guarded stage such as the
    /// map panicked (an exact integer overflow, a violated invariant; the
    /// panic message is the detail), or a plan stage found a value that
    /// leaves `i64`.
    Analysis {
        /// The pipeline stage that failed.
        stage: &'static str,
        /// What happened.
        detail: String,
    },
    /// Distributed execution failed: the functional check disagreed with
    /// the sequential reference, or a degraded-grid constraint was
    /// violated (work placed on a dead node, no survivors to remap onto).
    Exec {
        /// What happened.
        detail: String,
    },
    /// The request was cancelled cooperatively — its [`CancelToken`]'s
    /// deadline expired and the pipeline stopped at the named checkpoint
    /// instead of finishing the work.
    Cancelled {
        /// The checkpoint that observed the cancellation.
        stage: &'static str,
    },
}

impl RescommError {
    /// Process exit code for scripted callers: each variant gets a
    /// distinct nonzero code so a wrapper script can tell a malformed
    /// nest from an analysis failure without parsing stderr. Code 1 is
    /// left to usage/I-O errors.
    pub fn exit_code(&self) -> u8 {
        match self {
            RescommError::Parse(_) => 2,
            RescommError::Lin(_) => 3,
            RescommError::Analysis { .. } => 4,
            RescommError::Exec { .. } => 5,
            RescommError::Cancelled { .. } => 6,
        }
    }
}

impl fmt::Display for RescommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RescommError::Parse(e) => write!(f, "parse error: {e}"),
            RescommError::Lin(e) => write!(f, "linear algebra error: {e}"),
            RescommError::Analysis { stage, detail } => {
                write!(f, "analysis error in {stage}: {detail}")
            }
            RescommError::Exec { detail } => write!(f, "execution error: {detail}"),
            RescommError::Cancelled { stage } => {
                write!(f, "cancelled at {stage}: deadline exceeded")
            }
        }
    }
}

impl std::error::Error for RescommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RescommError::Parse(e) => Some(e),
            RescommError::Lin(e) => Some(e),
            RescommError::Analysis { .. }
            | RescommError::Exec { .. }
            | RescommError::Cancelled { .. } => None,
        }
    }
}

/// Witness that a [`CancelToken`] fired: carries the checkpoint that
/// observed it. Converted into [`RescommError::Cancelled`] at the API
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// The pipeline checkpoint that observed the cancellation.
    pub stage: &'static str,
}

impl From<Cancelled> for RescommError {
    fn from(c: Cancelled) -> Self {
        RescommError::Cancelled { stage: c.stage }
    }
}

/// Cooperative cancellation for long-running pipeline work.
///
/// The mapping pipeline has no natural preemption points — its passes
/// are exact integer algebra — so cancellation is *cooperative*: the
/// pipeline calls [`CancelToken::check`] between passes and returns
/// [`Cancelled`] from the first checkpoint past the deadline. A token is
/// either inert ([`CancelToken::none`], never fires) or armed with a
/// wall-clock deadline ([`CancelToken::with_deadline`]).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// The inert token: never cancels, adds no overhead.
    pub fn none() -> Self {
        CancelToken { deadline: None }
    }

    /// A token that fires once `deadline` from now has passed.
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken {
            deadline: Instant::now().checked_add(deadline),
        }
    }

    fn is_cancelled(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Checkpoint: return [`Cancelled`] at `stage` if the token fired.
    #[inline]
    pub fn check(&self, stage: &'static str) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled { stage })
        } else {
            Ok(())
        }
    }
}

impl From<ParseError> for RescommError {
    fn from(e: ParseError) -> Self {
        RescommError::Parse(e)
    }
}

impl From<LinError> for RescommError {
    fn from(e: LinError) -> Self {
        RescommError::Lin(e)
    }
}

/// What kind of recoverable event an [`Incident`] records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IncidentKind {
    /// A self-check replay through the reference oracle disagreed with
    /// the fast path (the oracle's mapping was kept) or failed.
    #[default]
    Fallback,
    /// A permanent node loss forced a degraded-grid remap of the mapping
    /// (see [`crate::recover::remap_for_survivors`]).
    NodeLoss,
}

/// A recoverable event on a mapping: a self-check replay through the
/// reference oracle that disagreed or failed, or a node loss the
/// recovery path survived by remapping. Incidents ride along on
/// the [`crate::Mapping`] and are counted by the run report, so silent
/// degradation is impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// What happened, categorically.
    pub kind: IncidentKind,
    /// The stage that failed (e.g. `"self_check"`).
    pub stage: &'static str,
    /// The captured panic message, disagreement description, or the list
    /// of lost nodes.
    pub detail: String,
}

impl Incident {
    /// A fallback incident (the default kind).
    pub fn fallback(stage: &'static str, detail: String) -> Self {
        Incident {
            kind: IncidentKind::Fallback,
            stage,
            detail,
        }
    }

    /// A node-loss incident recorded by the recovery path.
    pub fn node_loss(dead: &[usize]) -> Self {
        Incident {
            kind: IncidentKind::NodeLoss,
            stage: "recover",
            detail: format!("remapped around dead node(s) {dead:?}"),
        }
    }
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

/// Run `f`, converting an internal panic into an [`Incident`] instead of
/// unwinding through the public API. The closure is treated as unwind-safe
/// because every guarded stage either owns its state or mutates only
/// memo caches whose partial contents remain valid (pure keyed entries).
pub fn guarded<T>(stage: &'static str, f: impl FnOnce() -> T) -> Result<T, Incident> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Incident::fallback(stage, detail)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_passes_values_through() {
        assert_eq!(guarded("ok", || 42).unwrap(), 42);
    }

    #[test]
    fn guarded_captures_panic_messages() {
        let inc = guarded("boom", || panic!("exact integer overflow")).unwrap_err();
        assert_eq!(inc.stage, "boom");
        assert!(inc.detail.contains("overflow"));
        let inc = guarded("fmt", || panic!("value was {}", 7)).unwrap_err();
        assert!(inc.detail.contains("value was 7"));
        assert!(format!("{inc}").contains("[fmt]"));
    }

    #[test]
    fn error_conversions_and_display() {
        let lin: RescommError = LinError::Overflow.into();
        assert!(format!("{lin}").contains("overflow"));
        let parse: RescommError = ParseError {
            line: 3,
            col: 8,
            msg: "unknown array x".into(),
        }
        .into();
        assert!(format!("{parse}").contains("line 3, col 8"));
        let analysis = RescommError::Analysis {
            stage: "map_nest",
            detail: "both paths failed".into(),
        };
        assert!(format!("{analysis}").contains("map_nest"));
        use std::error::Error;
        assert!(lin.source().is_some());
        assert!(analysis.source().is_none());
    }

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errors = [
            RescommError::Parse(ParseError {
                line: 1,
                col: 1,
                msg: "x".into(),
            }),
            RescommError::Lin(LinError::Overflow),
            RescommError::Analysis {
                stage: "s",
                detail: "d".into(),
            },
            RescommError::Exec { detail: "d".into() },
            RescommError::Cancelled { stage: "classify" },
        ];
        let codes: Vec<u8> = errors.iter().map(|e| e.exit_code()).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes collide: {codes:?}");
        assert!(codes.iter().all(|&c| c > 1), "0/1 are reserved: {codes:?}");
    }

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::none();
        assert!(!t.is_cancelled());
        assert!(t.check("anywhere").is_ok());
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn deadline_token_fires_after_expiry() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.check("early").is_ok());
        let expired = CancelToken::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(expired.is_cancelled());
        let c = expired.check("augment").unwrap_err();
        assert_eq!(c.stage, "augment");
        let e: RescommError = c.into();
        assert_eq!(e.exit_code(), 6);
        assert!(format!("{e}").contains("augment"));
    }
}
