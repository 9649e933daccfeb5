//! C (MPI) source emission for a compiled barrier.
//!
//! This mirrors the artifact the paper's generator produced: a C function
//! that hard-codes the discovered signal pattern as `MPI_Irecv` /
//! `MPI_Issend` request batches, switched on the calling rank. Each step
//! ends with an `MPI_Waitall` over its receives (`rreq`); the sends
//! (`sreq`, numbered across the rank's steps) are waited for once, before
//! the function returns.

use super::program::{validate_name, CodegenError, RankProgram};
use std::fmt::Write;

/// Emits a self-contained C function `name` implementing the compiled
/// barrier over `MPI_COMM_WORLD` signal semantics (zero-byte synchronous
/// sends, matching the paper's measurement programs).
///
/// # Errors
/// Fails if `name` is not a valid identifier.
pub fn c_source(name: &str, programs: &[RankProgram]) -> Result<String, CodegenError> {
    validate_name(name)?;
    let max_recvs = programs
        .iter()
        .flat_map(|p| p.steps.iter())
        .map(|s| s.recvs.len())
        .max()
        .unwrap_or(0)
        .max(1);
    let max_sends = programs
        .iter()
        .map(RankProgram::send_count)
        .max()
        .unwrap_or(0)
        .max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* Generated barrier: hard-coded signal pattern for {} ranks. */",
        programs.len()
    );
    let _ = writeln!(out, "#include <mpi.h>");
    let _ = writeln!(out);
    let _ = writeln!(out, "void {name}(MPI_Comm comm)");
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "    int rank;");
    let _ = writeln!(out, "    MPI_Request rreq[{max_recvs}];");
    let _ = writeln!(out, "    MPI_Request sreq[{max_sends}];");
    let _ = writeln!(out, "    MPI_Comm_rank(comm, &rank);");
    let _ = writeln!(out, "    switch (rank) {{");
    for prog in programs {
        if prog.steps.is_empty() {
            continue;
        }
        let _ = writeln!(out, "    case {}:", prog.rank);
        let mut s = 0usize;
        for (si, step) in prog.steps.iter().enumerate() {
            let _ = writeln!(out, "        /* step {si} */");
            for (r, &src) in step.recvs.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        MPI_Irecv(0, 0, MPI_BYTE, {src}, 0, comm, &rreq[{r}]);"
                );
            }
            for &dst in &step.sends {
                let _ = writeln!(
                    out,
                    "        MPI_Issend(0, 0, MPI_BYTE, {dst}, 0, comm, &sreq[{s}]);"
                );
                s += 1;
            }
            let _ = writeln!(
                out,
                "        MPI_Waitall({}, rreq, MPI_STATUSES_IGNORE);",
                step.recvs.len()
            );
        }
        let _ = writeln!(out, "        MPI_Waitall({s}, sreq, MPI_STATUSES_IGNORE);");
        let _ = writeln!(out, "        break;");
    }
    let _ = writeln!(out, "    default:");
    let _ = writeln!(out, "        break;");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::codegen::compile_schedule;

    fn linear4() -> Vec<RankProgram> {
        let members: Vec<usize> = (0..4).collect();
        compile_schedule(&Algorithm::Linear.full_schedule(4, &members)).unwrap()
    }

    #[test]
    fn emits_switch_per_rank() {
        let src = c_source("hybrid_barrier", &linear4()).unwrap();
        assert!(src.contains("void hybrid_barrier(MPI_Comm comm)"));
        for r in 0..4 {
            assert!(src.contains(&format!("case {r}:")), "{src}");
        }
    }

    #[test]
    fn master_receives_then_sends() {
        let src = c_source("b", &linear4()).unwrap();
        let case0 = src
            .split("case 0:")
            .nth(1)
            .unwrap()
            .split("break;")
            .next()
            .unwrap();
        let recv_pos = case0.find("MPI_Irecv").unwrap();
        let send_pos = case0.find("MPI_Issend").unwrap();
        assert!(recv_pos < send_pos, "receives posted before sends");
        assert_eq!(case0.matches("MPI_Irecv").count(), 3);
        assert_eq!(case0.matches("MPI_Issend").count(), 3);
        // One wait on the receives per step, one on the sends at exit.
        assert_eq!(case0.matches("MPI_Waitall(3, rreq,").count(), 1);
        assert_eq!(case0.matches("MPI_Waitall(0, rreq,").count(), 1);
        assert!(case0.ends_with("MPI_Waitall(3, sreq, MPI_STATUSES_IGNORE);\n        "));
    }

    #[test]
    fn request_arrays_sized_to_widest_step_and_largest_send_total() {
        let src = c_source("b", &linear4()).unwrap();
        // The master receives 3 signals in one step and sends 3 in all.
        assert!(src.contains("MPI_Request rreq[3];"), "{src}");
        assert!(src.contains("MPI_Request sreq[3];"), "{src}");
        // A dissemination rank receives one signal per step but sends
        // one in each of its three.
        let members: Vec<usize> = (0..8).collect();
        let progs = compile_schedule(&Algorithm::Dissemination.full_schedule(8, &members)).unwrap();
        let src = c_source("d8", &progs).unwrap();
        assert!(src.contains("MPI_Request rreq[1];"), "{src}");
        assert!(src.contains("MPI_Request sreq[3];"), "{src}");
        assert!(src.contains("&sreq[2]);"), "send requests run across steps");
    }

    #[test]
    fn empty_program_emits_default_only() {
        let progs = vec![RankProgram {
            rank: 0,
            steps: vec![],
        }];
        let src = c_source("noop", &progs).unwrap();
        assert!(!src.contains("case 0:"));
        assert!(src.contains("default:"));
        assert!(src.contains("MPI_Request rreq[1];"));
        assert!(src.contains("MPI_Request sreq[1];"));
    }

    #[test]
    fn uses_synchronous_sends_only() {
        let members: Vec<usize> = (0..8).collect();
        let progs = compile_schedule(&Algorithm::Dissemination.full_schedule(8, &members)).unwrap();
        let src = c_source("d8", &progs).unwrap();
        assert!(src.contains("MPI_Issend"));
        assert!(
            !src.contains("MPI_Isend("),
            "only synchronous sends are emitted"
        );
    }

    #[test]
    fn bad_function_names_are_rejected() {
        assert_eq!(
            c_source("int main(void)", &[]),
            Err(CodegenError::InvalidName {
                name: "int main(void)".into()
            })
        );
    }
}
