//! Checks every answer: SAT models against the submitted formula in the
//! caller's variable space, and verdicts against a CDCL oracle solved
//! outside the timed region.

use crate::drive::Sample;
use crate::workloads::{Formula, Workload};
use nbl_net::WireVerdict;
use sat_solvers::{CdclSolver, Solver};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How one answer was judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grade {
    /// A definite verdict the oracle agrees with (and, when a model was
    /// asked for, a model that satisfies the formula).
    Correct,
    /// A definite verdict the oracle disagrees with.
    WrongVerdict,
    /// A SAT answer whose model is missing or does not satisfy the formula.
    BadModel,
    /// `s UNKNOWN`.
    Unknown,
    /// A transport error or an `ERR` frame.
    Error,
}

impl Grade {
    pub fn is_wrong(self) -> bool {
        matches!(self, Grade::WrongVerdict | Grade::BadModel)
    }
}

/// Backends whose definite verdicts are exact by design. Wrong answers
/// from these (and bad models from any backend) make a run incorrect;
/// the sampled NBL engines are statistical, so their wrong verdicts are
/// counted in `wrong_share` instead.
pub fn is_exact(backend: &str) -> bool {
    matches!(backend, "cdcl" | "parallel-portfolio")
}

/// Grades every sample. The oracle runs only where it decides the grade:
/// a SAT answer with a satisfying model is correct without one. Formulas
/// are parsed one at a time, so grading a long run stays small in memory.
pub fn grade(workload: &Workload, samples: &[Sample]) -> Vec<Grade> {
    // First pass: grade what the submitted formula alone decides, and
    // collect the classes whose verdict needs the oracle.
    let mut grades: Vec<Option<Grade>> = samples
        .iter()
        .map(|sample| {
            let request = &workload.requests[sample.request];
            let Ok(outcome) = &sample.answer else {
                return Some(Grade::Error);
            };
            match outcome.verdict {
                WireVerdict::Unknown(_) => Some(Grade::Unknown),
                WireVerdict::Satisfiable if request.model || outcome.model.is_some() => {
                    let satisfied = outcome
                        .model
                        .as_ref()
                        .is_some_and(|model| Formula::parse(&request.text).satisfied_by(model));
                    Some(if satisfied {
                        Grade::Correct
                    } else {
                        Grade::BadModel
                    })
                }
                _ => None,
            }
        })
        .collect();
    let needed: BTreeSet<usize> = samples
        .iter()
        .zip(&grades)
        .filter(|(_, grade)| grade.is_none())
        .map(|(sample, _)| workload.requests[sample.request].class)
        .collect();
    let oracle = oracle(workload, &needed.into_iter().collect::<Vec<_>>());
    for (sample, grade) in samples.iter().zip(&mut grades) {
        if grade.is_some() {
            continue;
        }
        let request = &workload.requests[sample.request];
        let found = oracle.binary_search_by_key(&request.class, |&(class, _)| class);
        let truth = oracle[found.expect("oracle solved every class it was asked for")].1;
        let claimed = sample
            .answer
            .as_ref()
            .is_ok_and(|outcome| outcome.verdict.is_sat());
        *grade = Some(if claimed == truth {
            Grade::Correct
        } else {
            Grade::WrongVerdict
        });
    }
    grades
        .into_iter()
        .map(|grade| grade.expect("every sample graded"))
        .collect()
}

/// Solves the representative of each class with CDCL on two threads and
/// returns `(class, satisfiable)` pairs sorted by class.
fn oracle(workload: &Workload, classes: &[usize]) -> Vec<(usize, bool)> {
    let next = AtomicUsize::new(0);
    let verdicts = Mutex::new(Vec::with_capacity(classes.len()));
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(&class) = classes.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let formula = Formula::parse(&workload.classes[class]).to_cnf();
                    let sat = CdclSolver::new().solve(&formula).is_sat();
                    verdicts
                        .lock()
                        .expect("oracle verdict list poisoned")
                        .push((class, sat));
                }
            });
        }
    });
    let mut verdicts = verdicts.into_inner().expect("oracle verdict list poisoned");
    verdicts.sort_unstable();
    verdicts
}
