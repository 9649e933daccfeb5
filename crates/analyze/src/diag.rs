//! Structured diagnostics: stable codes, severities, spans.
//!
//! Every analysis pass reports through [`Diagnostic`] so tooling can match
//! on codes rather than message text, and CI can consume the JSON form
//! (`hbar analyze --format json`). Codes are grouped by pass: `A00x` are
//! schedule lints, `A01x` come from program-level progress analysis, and
//! `A02x` from codegen round-trip verification.

use serde::{Serialize, Value};
use std::fmt;

/// How bad a finding is. `Info` findings never fail a run; `Warning` and
/// `Error` do (the CLI exits nonzero on either).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the schedule is correct but could be improved.
    Info,
    /// Suspicious but not provably wrong at runtime (e.g. a dead signal).
    Warning,
    /// The schedule or program is defective.
    Error,
}

impl Severity {
    /// Lowercase name, as used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// Stable diagnostic codes. The numeric part never changes meaning; new
/// checks get new codes. A001 (self-signal) and A007 (stage dimension) are
/// retired, not reused: a `BarrierSchedule` can no longer hold either, its
/// `push` and its JSON reader reject them. A020 (Rust-source drift) went
/// with the Rust emitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Code {
    /// A002: a stage carries no signals at all.
    EmptyStage,
    /// A003: a signal whose removal leaves the final Eq. 3 knowledge
    /// matrix unchanged — it synchronizes nothing.
    DeadSignal,
    /// A004: a `ReceiversAwaiting` (Eq. 2) stage whose receiver is not
    /// provably inside the barrier when the signal is sent.
    ModeUnsound,
    /// A005: the schedule does not synchronize all ranks.
    NonBarrier,
    /// A006 (opt-in via strict modes): a `General` (Eq. 1) stage whose
    /// receivers all provably await — Eq. 2 would model it more tightly.
    PessimisticMode,
    /// A010: total sends from `i` to `j` differ from total receives.
    UnmatchedSignal,
    /// A011: abstract execution of the rank programs cannot complete.
    Deadlock,
    /// A012: a rank program is malformed (bad rank order, out-of-range or
    /// self partner).
    InvalidProgram,
    /// A021: the emitted C source does not encode the compiled programs.
    CDrift,
    /// A022: an emitted source could not be generated or parsed back.
    EmitterFailure,
}

impl Code {
    /// The stable code string, e.g. `"A003"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::EmptyStage => "A002",
            Code::DeadSignal => "A003",
            Code::ModeUnsound => "A004",
            Code::NonBarrier => "A005",
            Code::PessimisticMode => "A006",
            Code::UnmatchedSignal => "A010",
            Code::Deadlock => "A011",
            Code::InvalidProgram => "A012",
            Code::CDrift => "A021",
            Code::EmitterFailure => "A022",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Code {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// One finding: a code, a severity, an optional span (stage index, rank,
/// partner rank) and a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// Stage index the finding refers to, if stage-scoped.
    pub stage: Option<usize>,
    /// Primary rank (the signal's sender, or the blocked rank).
    pub rank: Option<usize>,
    /// Secondary rank (the signal's receiver, or the rank waited on).
    pub partner: Option<usize>,
    pub message: String,
}

impl Diagnostic {
    /// A spanless diagnostic; attach spans with the `with_*` builders.
    pub fn new(code: Code, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            stage: None,
            rank: None,
            partner: None,
            message: message.into(),
        }
    }

    #[must_use]
    pub fn with_stage(mut self, stage: usize) -> Self {
        self.stage = Some(stage);
        self
    }

    #[must_use]
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank);
        self
    }

    #[must_use]
    pub fn with_partner(mut self, partner: usize) -> Self {
        self.partner = Some(partner);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        let mut span = Vec::new();
        if let Some(s) = self.stage {
            span.push(format!("stage {s}"));
        }
        match (self.rank, self.partner) {
            (Some(r), Some(p)) => span.push(format!("{r} -> {p}")),
            (Some(r), None) => span.push(format!("rank {r}")),
            _ => {}
        }
        if !span.is_empty() {
            write!(f, " ({})", span.join(", "))?;
        }
        write!(f, ": {}", self.message)
    }
}

impl Serialize for Diagnostic {
    fn to_value(&self) -> Value {
        let opt = |v: Option<usize>| match v {
            Some(x) => Value::UInt(x as u64),
            None => Value::Null,
        };
        Value::Object(vec![
            ("code".to_string(), self.code.to_value()),
            ("severity".to_string(), self.severity.to_value()),
            ("stage".to_string(), opt(self.stage)),
            ("rank".to_string(), opt(self.rank)),
            ("partner".to_string(), opt(self.partner)),
            ("message".to_string(), Value::Str(self.message.clone())),
        ])
    }
}

/// The outcome of analyzing one schedule (or program set): a few summary
/// facts plus all findings, in pass order.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Number of ranks the schedule covers.
    pub n: usize,
    /// Number of stages.
    pub stages: usize,
    /// Total signal count across all stages.
    pub signals: usize,
    /// All findings from all passes that ran.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// True when no pass found anything, at any severity.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The most severe finding, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// True when the report should fail a CI gate: any finding at
    /// `Warning` or above.
    pub fn has_failures(&self) -> bool {
        self.worst() >= Some(Severity::Warning)
    }

    /// All findings with the given code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// True if any finding carries the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.with_code(code).next().is_some()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} ranks, {} stages, {} signals: {}",
            self.n,
            self.stages,
            self.signals,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} finding(s)", self.diagnostics.len())
            }
        )
    }
}

impl Serialize for AnalysisReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("n".to_string(), Value::UInt(self.n as u64)),
            ("stages".to_string(), Value::UInt(self.stages as u64)),
            ("signals".to_string(), Value::UInt(self.signals as u64)),
            ("clean".to_string(), Value::Bool(self.is_clean())),
            ("diagnostics".to_string(), self.diagnostics.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_includes_code_and_span() {
        let d = Diagnostic::new(Code::DeadSignal, Severity::Warning, "carries no knowledge")
            .with_stage(2)
            .with_rank(3)
            .with_partner(7);
        assert_eq!(
            d.to_string(),
            "warning[A003] (stage 2, 3 -> 7): carries no knowledge"
        );
    }

    #[test]
    fn report_severity_and_json() {
        let report = AnalysisReport {
            n: 4,
            stages: 2,
            signals: 6,
            diagnostics: vec![
                Diagnostic::new(Code::PessimisticMode, Severity::Info, "tighten"),
                Diagnostic::new(Code::NonBarrier, Severity::Error, "missing"),
            ],
        };
        assert!(!report.is_clean());
        assert!(report.has_failures());
        assert_eq!(report.worst(), Some(Severity::Error));
        assert!(report.has_code(Code::NonBarrier));
        assert!(!report.has_code(Code::Deadlock));
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"A005\""), "{json}");
        assert!(json.contains("\"clean\":false"), "{json}");
    }

    #[test]
    fn info_only_report_does_not_fail() {
        let report = AnalysisReport {
            n: 2,
            stages: 1,
            signals: 1,
            diagnostics: vec![Diagnostic::new(
                Code::PessimisticMode,
                Severity::Info,
                "hint",
            )],
        };
        assert!(!report.has_failures());
        assert!(!report.is_clean());
    }
}
