//! Rust source emission for a compiled barrier.
//!
//! Emits a `match`-per-rank function against a minimal `Signal` trait, so
//! generated barriers can be dropped into any transport that offers
//! synchronous point-to-point signals (the trait mirrors what
//! `hbar-threadrun` implements natively).

use super::program::{validate_name, CodegenError, RankProgram};
use std::fmt::Write;

/// Emits a Rust function `name` implementing the compiled barrier.
///
/// The generated code expects a transport with
/// `fn issend(&self, dst: usize)`, `fn irecv(&self, src: usize)`,
/// `fn wait_recvs(&self)` and `fn wait_all(&self)` — nonblocking posts, a
/// wait for the posted receives that closes each step, and one wait for
/// every request before the rank leaves.
///
/// # Errors
/// Fails if `name` is not a valid identifier.
pub fn rust_source(name: &str, programs: &[RankProgram]) -> Result<String, CodegenError> {
    validate_name(name)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/// Generated barrier: hard-coded signal pattern for {} ranks.",
        programs.len()
    );
    let _ = writeln!(out, "pub fn {name}<T: Transport>(rank: usize, t: &T) {{");
    let _ = writeln!(out, "    match rank {{");
    for prog in programs {
        if prog.steps.is_empty() {
            continue;
        }
        let _ = writeln!(out, "        {} => {{", prog.rank);
        for step in &prog.steps {
            for &src in &step.recvs {
                let _ = writeln!(out, "            t.irecv({src});");
            }
            for &dst in &step.sends {
                let _ = writeln!(out, "            t.issend({dst});");
            }
            let _ = writeln!(out, "            t.wait_recvs();");
        }
        let _ = writeln!(out, "            t.wait_all();");
        let _ = writeln!(out, "        }}");
    }
    let _ = writeln!(out, "        _ => {{}}");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::codegen::compile_schedule;

    #[test]
    fn emits_match_arms() {
        let members: Vec<usize> = (0..4).collect();
        let progs = compile_schedule(&Algorithm::Tree.full_schedule(4, &members)).unwrap();
        let src = rust_source("tree4", &progs).unwrap();
        assert!(src.contains("pub fn tree4<T: Transport>(rank: usize, t: &T)"));
        assert!(src.contains("0 => {"));
        assert!(src.contains("t.issend(0);"));
        assert!(src.contains("t.wait_all();"));
        assert!(src.contains("_ => {}"));
    }

    #[test]
    fn one_receive_wait_per_step_and_one_wait_all_per_rank() {
        let members: Vec<usize> = (0..9).collect();
        let progs = compile_schedule(&Algorithm::Dissemination.full_schedule(9, &members)).unwrap();
        let src = rust_source("d9", &progs).unwrap();
        let total_steps: usize = progs.iter().map(|p| p.steps.len()).sum();
        assert_eq!(src.matches("t.wait_recvs();").count(), total_steps);
        assert_eq!(src.matches("t.wait_all();").count(), progs.len());
    }

    #[test]
    fn generated_code_balance() {
        let members: Vec<usize> = (0..6).collect();
        let progs = compile_schedule(&Algorithm::Linear.full_schedule(6, &members)).unwrap();
        let src = rust_source("l6", &progs).unwrap();
        assert_eq!(
            src.matches("t.issend(").count(),
            src.matches("t.irecv(").count()
        );
    }

    #[test]
    fn bad_function_names_are_rejected() {
        for name in ["", "9lives", "has space", "uni-code", "semi;colon"] {
            assert_eq!(
                rust_source(name, &[]),
                Err(CodegenError::InvalidName { name: name.into() }),
                "{name:?}"
            );
        }
        assert!(rust_source("_ok_2", &[]).is_ok());
    }
}
