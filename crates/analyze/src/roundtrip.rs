//! Codegen round-trip verification: parse the emitted C barrier source
//! back into abstract rank programs and structurally diff them against
//! the `compile_schedule` output, so codegen drift is a static failure
//! instead of a runtime surprise.
//!
//! The parser is deliberately strict: it accepts exactly the shape the
//! emitter produces (receives posted before sends, request indices dense,
//! one wait on the receives per step, one wait on the sends at exit) and
//! reports anything else as a parse failure. A "cleverer" parser would
//! hide precisely the drift this pass exists to catch.

use crate::diag::{Code, Diagnostic, Severity};
use hbar_core::codegen::{c_source, RankProgram, RankStep};

/// Emits the C source for `programs` and verifies it parses back to the
/// exact same abstract programs. Appends findings to `out`.
pub(crate) fn check_roundtrip(programs: &[RankProgram], name: &str, out: &mut Vec<Diagnostic>) {
    match c_source(name, programs) {
        Ok(src) => out.extend(source_drift(programs, &src)),
        Err(e) => out.push(Diagnostic::new(
            Code::EmitterFailure,
            Severity::Error,
            format!("C emitter failed: {e}"),
        )),
    }
}

/// Parses `source` as emitted C and structurally diffs it against
/// `expected`. Returns all findings (empty = faithful).
pub fn source_drift(expected: &[RankProgram], source: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let parsed = parse_c_source(source).map(|c| {
        let widest = c
            .programs
            .iter()
            .flat_map(|p| p.steps.iter())
            .map(|s| s.recvs.len())
            .max()
            .unwrap_or(0)
            .max(1);
        let most_sends = c
            .programs
            .iter()
            .map(RankProgram::send_count)
            .max()
            .unwrap_or(0)
            .max(1);
        let sizes = [
            ("rreq", c.declared_recv_requests, widest),
            ("sreq", c.declared_send_requests, most_sends),
        ];
        for (array, declared, needed) in sizes {
            if declared != needed {
                out.push(Diagnostic::new(
                    Code::CDrift,
                    Severity::Error,
                    format!("request array {array} holds {declared} slot(s), {needed} needed"),
                ));
            }
        }
        c.programs
    });
    let parsed = match parsed {
        Ok(p) => p,
        Err(e) => {
            out.push(Diagnostic::new(
                Code::EmitterFailure,
                Severity::Error,
                format!("emitted C source does not parse: {e}"),
            ));
            return out;
        }
    };
    diff_programs(expected, &parsed, &mut out);
    out
}

/// Structural diff: the emitted source must encode exactly the non-empty
/// rank programs, in rank order, step for step.
fn diff_programs(expected: &[RankProgram], parsed: &[RankProgram], out: &mut Vec<Diagnostic>) {
    let want: Vec<&RankProgram> = expected.iter().filter(|p| !p.steps.is_empty()).collect();
    if want.len() != parsed.len() {
        out.push(Diagnostic::new(
            Code::CDrift,
            Severity::Error,
            format!(
                "C source encodes {} rank arm(s); programs require {}",
                parsed.len(),
                want.len()
            ),
        ));
        return;
    }
    for (exp, got) in want.iter().zip(parsed) {
        if exp.rank != got.rank {
            out.push(
                Diagnostic::new(
                    Code::CDrift,
                    Severity::Error,
                    format!(
                        "arm order drift: expected rank {}, found {}",
                        exp.rank, got.rank
                    ),
                )
                .with_rank(exp.rank),
            );
            return;
        }
        if exp.steps == got.steps {
            continue;
        }
        let detail = if exp.steps.len() != got.steps.len() {
            format!(
                "{} step(s) emitted, {} compiled",
                got.steps.len(),
                exp.steps.len()
            )
        } else {
            let si = exp
                .steps
                .iter()
                .zip(&got.steps)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            format!(
                "step {si} drifted: emitted recv{:?} send{:?}, compiled recv{:?} send{:?}",
                got.steps[si].recvs, got.steps[si].sends, exp.steps[si].recvs, exp.steps[si].sends
            )
        };
        out.push(
            Diagnostic::new(
                Code::CDrift,
                Severity::Error,
                format!("rank {} program drift: {detail}", exp.rank),
            )
            .with_rank(exp.rank),
        );
    }
}

/// A parsed C source: the abstract programs plus the declared request
/// array capacities (checked against the programs separately).
pub struct CParse {
    pub programs: Vec<RankProgram>,
    /// Slots of `rreq`, which one step's receives reuse.
    pub declared_recv_requests: usize,
    /// Slots of `sreq`, which a rank's sends fill across its steps.
    pub declared_send_requests: usize,
}

fn parse_num(text: &str, what: &str) -> Result<usize, String> {
    text.trim()
        .parse::<usize>()
        .map_err(|_| format!("cannot read {what} from `{text}`"))
}

/// Parses the output of [`c_source`] back into rank programs plus the
/// declared `rreq` and `sreq` array sizes.
///
/// # Errors
/// Fails on any line shape the emitter cannot have produced, including
/// out-of-order step comments, non-dense request indices, an
/// `MPI_Waitall` count that disagrees with the posted requests, or a case
/// that does not end in exactly one wait on its sends.
pub fn parse_c_source(src: &str) -> Result<CParse, String> {
    let mut programs: Vec<RankProgram> = Vec::new();
    let mut declared: [Option<usize>; 2] = [None, None];
    let mut arm: Option<RankProgram> = None;
    let mut step = RankStep::default();
    // The rank's sends so far (its next `sreq` index), and whether its
    // closing wait on them has been read.
    let mut sent = 0usize;
    let mut exited = false;
    for (ln, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let ctx = |msg: String| format!("line {}: {msg}", ln + 1);
        if let Some(decl) = line.strip_prefix("MPI_Request ") {
            let sized = |array: &str| decl.strip_prefix(array)?.strip_suffix("];");
            let (slot, inner) = match (sized("rreq["), sized("sreq[")) {
                (Some(inner), _) => (&mut declared[0], inner),
                (_, Some(inner)) => (&mut declared[1], inner),
                _ => return Err(ctx(format!("unrecognized declaration `{line}`"))),
            };
            if slot
                .replace(parse_num(inner, "request array size")?)
                .is_some()
            {
                return Err(ctx(format!("duplicate declaration `{line}`")));
            }
            continue;
        }
        if let Some(prog) = arm.as_mut() {
            if exited && line != "break;" {
                return Err(ctx(format!("`{line}` after the wait on the sends")));
            }
            if let Some(inner) = line
                .strip_prefix("/* step ")
                .and_then(|r| r.strip_suffix(" */"))
            {
                if parse_num(inner, "step index")? != prog.steps.len() {
                    return Err(ctx(format!(
                        "step comment `{line}` out of order (expected step {})",
                        prog.steps.len()
                    )));
                }
            } else if let Some(inner) = line
                .strip_prefix("MPI_Irecv(0, 0, MPI_BYTE, ")
                .and_then(|r| r.strip_suffix("]);"))
            {
                let (src_rank, req) = split_partner_req(inner, ", 0, comm, &rreq[")?;
                if !step.sends.is_empty() {
                    return Err(ctx("receive posted after a send in the same step".into()));
                }
                if req != step.recvs.len() {
                    return Err(ctx(format!(
                        "receive request index {req}, expected {}",
                        step.recvs.len()
                    )));
                }
                step.recvs.push(src_rank);
            } else if let Some(inner) = line
                .strip_prefix("MPI_Issend(0, 0, MPI_BYTE, ")
                .and_then(|r| r.strip_suffix("]);"))
            {
                let (dst, req) = split_partner_req(inner, ", 0, comm, &sreq[")?;
                if req != sent {
                    return Err(ctx(format!("send request index {req}, expected {sent}")));
                }
                sent += 1;
                step.sends.push(dst);
            } else if let Some(inner) = line
                .strip_prefix("MPI_Waitall(")
                .and_then(|r| r.strip_suffix(", rreq, MPI_STATUSES_IGNORE);"))
            {
                let count = parse_num(inner, "waitall count")?;
                if count != step.recvs.len() || step.is_empty() {
                    return Err(ctx(format!(
                        "MPI_Waitall({count}, rreq) after {} receive(s) and {} send(s)",
                        step.recvs.len(),
                        step.sends.len()
                    )));
                }
                prog.steps.push(std::mem::take(&mut step));
            } else if let Some(inner) = line
                .strip_prefix("MPI_Waitall(")
                .and_then(|r| r.strip_suffix(", sreq, MPI_STATUSES_IGNORE);"))
            {
                let count = parse_num(inner, "waitall count")?;
                if !step.is_empty() {
                    return Err(ctx("requests posted without a closing MPI_Waitall".into()));
                }
                if count != sent || prog.steps.is_empty() {
                    return Err(ctx(format!(
                        "MPI_Waitall({count}, sreq) after {sent} send(s)"
                    )));
                }
                exited = true;
            } else if line == "break;" {
                if !exited {
                    return Err(ctx("case ends without a wait on its sends".into()));
                }
                (sent, exited) = (0, false);
                programs.push(arm.take().expect("inside arm"));
            } else {
                return Err(ctx(format!(
                    "unrecognized statement `{line}` inside a case"
                )));
            }
        } else if let Some(head) = line.strip_prefix("case ").and_then(|r| r.strip_suffix(":")) {
            arm = Some(RankProgram {
                rank: parse_num(head, "case rank")?,
                steps: Vec::new(),
            });
        }
        // Prologue lines and the default arm carry no program content.
    }
    if arm.is_some() {
        return Err("source ends inside a case arm".to_string());
    }
    let [recv, send] = declared;
    Ok(CParse {
        programs,
        declared_recv_requests: recv.ok_or("no rreq array declared")?,
        declared_send_requests: send.ok_or("no sreq array declared")?,
    })
}

/// Splits `"<partner><between><idx>"` (the middle of an Irecv or Issend
/// argument list, `between` naming its request array) into the partner
/// rank and request index.
fn split_partner_req(inner: &str, between: &str) -> Result<(usize, usize), String> {
    let (partner, req) = inner
        .split_once(between)
        .ok_or_else(|| format!("malformed argument list `{inner}`"))?;
    Ok((
        parse_num(partner, "partner rank")?,
        parse_num(req, "request index")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_core::algorithms::Algorithm;
    use hbar_core::codegen::compile_schedule;

    fn programs(alg: Algorithm, p: usize) -> Vec<RankProgram> {
        let members: Vec<usize> = (0..p).collect();
        compile_schedule(&alg.full_schedule(p, &members)).unwrap()
    }

    fn roundtrip(progs: &[RankProgram]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_roundtrip(progs, "b", &mut out);
        out
    }

    #[test]
    fn emitted_sources_roundtrip_exactly() {
        for (alg, p) in [
            (Algorithm::Linear, 6),
            (Algorithm::Tree, 11),
            (Algorithm::Dissemination, 8),
            (Algorithm::Butterfly, 16),
        ] {
            let progs = programs(alg, p);
            assert!(roundtrip(&progs).is_empty(), "{alg} at {p}");
        }
    }

    #[test]
    fn c_parser_recovers_programs_and_request_bound() {
        let progs = programs(Algorithm::Linear, 5);
        let src = c_source("l5", &progs).unwrap();
        let parsed = parse_c_source(&src).unwrap();
        assert_eq!(parsed.declared_recv_requests, 4, "master gathers 4 signals");
        assert_eq!(parsed.declared_send_requests, 4, "and releases 4");
        assert_eq!(parsed.programs.len(), 5);
        assert_eq!(parsed.programs[0].steps[0].recvs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn tampered_partner_is_drift() {
        let progs = programs(Algorithm::Dissemination, 4);
        let src = c_source("d4", &progs).unwrap();
        let send = "MPI_Issend(0, 0, MPI_BYTE, 1, 0, comm, &sreq[0]);";
        let tampered = src.replacen(send, &send.replace(", 1, ", ", 2, "), 1);
        let diags = source_drift(&progs, &tampered);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::CDrift);
        assert!(diags[0].message.contains("drift"), "{}", diags[0].message);
    }

    /// `src` with the first line that starts with `prefix` (after
    /// indentation) removed.
    fn drop_line(src: &str, prefix: &str) -> String {
        let idx = src.find(&format!("        {prefix}")).unwrap();
        let end = src[idx..].find('\n').unwrap() + idx + 1;
        format!("{}{}", &src[..idx], &src[end..])
    }

    #[test]
    fn deleted_wait_is_caught() {
        let progs = programs(Algorithm::Tree, 4);
        let c = c_source("t4", &progs).unwrap();
        for tampered in [
            drop_line(&c, "MPI_Waitall(1, rreq"),
            drop_line(&c, "MPI_Waitall(1, sreq"),
        ] {
            let diags = source_drift(&progs, &tampered);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, Code::EmitterFailure, "{diags:?}");
        }
    }

    #[test]
    fn per_step_wait_on_a_send_is_a_parse_failure() {
        // The paper's shape, which waits on each step's sends too, is
        // not what the emitter writes.
        let progs = programs(Algorithm::Dissemination, 4);
        let src = c_source("d4", &progs).unwrap();
        let tampered = src.replacen(
            "MPI_Waitall(1, rreq, MPI_STATUSES_IGNORE);",
            "MPI_Waitall(1, rreq, MPI_STATUSES_IGNORE);\n        MPI_Waitall(1, sreq, MPI_STATUSES_IGNORE);",
            1,
        );
        let diags = source_drift(&progs, &tampered);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::EmitterFailure);
    }

    #[test]
    fn one_shared_request_array_is_a_parse_failure() {
        let progs = programs(Algorithm::Linear, 4);
        let src = c_source("l4", &progs).unwrap();
        let tampered = src.replace("MPI_Request rreq[3];", "MPI_Request req[3];");
        let diags = source_drift(&progs, &tampered);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::EmitterFailure);
        assert!(diags[0].message.contains("declaration"), "{diags:?}");
    }

    #[test]
    fn undersized_request_array_is_drift() {
        let progs = programs(Algorithm::Linear, 4);
        let src = c_source("l4", &progs).unwrap();
        for (from, to) in [
            ("MPI_Request rreq[3];", "MPI_Request rreq[2];"),
            ("MPI_Request sreq[3];", "MPI_Request sreq[2];"),
        ] {
            let tampered = src.replace(from, to);
            let diags = source_drift(&progs, &tampered);
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == Code::CDrift && d.message.contains("request array")),
                "{diags:?}"
            );
        }
    }

    #[test]
    fn dropped_arm_is_drift() {
        let progs = programs(Algorithm::Dissemination, 3);
        let src = c_source("d3", &progs).unwrap();
        let start = src.find("    case 2:").unwrap();
        let end = src[start..].find("break;\n").unwrap() + start + "break;\n".len();
        let tampered = format!("{}{}", &src[..start], &src[end..]);
        let diags = source_drift(&progs, &tampered);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("rank arm"),
            "{}",
            diags[0].message
        );
    }

    /// The master's second receive dropped and its wait lowered, so the
    /// source still parses: rank 0's program drifts (and `rreq` is now
    /// one slot wider than the widest step).
    #[test]
    fn dropped_receive_statement_is_drift() {
        let progs = programs(Algorithm::Linear, 3);
        let src = c_source("l3", &progs).unwrap();
        let tampered = src
            .replacen(
                "        MPI_Irecv(0, 0, MPI_BYTE, 2, 0, comm, &rreq[1]);\n",
                "",
                1,
            )
            .replacen("MPI_Waitall(2, rreq,", "MPI_Waitall(1, rreq,", 1);
        let diags = source_drift(&progs, &tampered);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::CDrift && d.rank == Some(0)),
            "{diags:?}"
        );
    }

    #[test]
    fn invalid_name_reports_emitter_failure() {
        let progs = programs(Algorithm::Linear, 3);
        let mut out = Vec::new();
        check_roundtrip(&progs, "not a name", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, Code::EmitterFailure);
    }
}
