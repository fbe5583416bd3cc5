//! Canonical preprocessing for the solve pipeline: deterministic
//! normalization, unit/pure reduction with an invertible [`ReductionTrace`],
//! and a renaming-invariant canonical form usable as a cache key.
//!
//! The NBL engines of the paper scale exponentially in *live* variables, so
//! every variable removed before dispatch widens the range the stack can
//! serve. This module is the front half of that story:
//!
//! 1. [`normalize`] — a deterministic, idempotent cleanup (sort literals
//!    within clauses, drop duplicate literals, duplicate clauses and
//!    tautologies) that never changes the set of models.
//! 2. [`preprocess`] — normalization followed by the unit-propagation /
//!    pure-literal fixpoint of [`mod@crate::simplify`], then a renaming of the
//!    surviving variables to a dense canonical order. The result is either an
//!    outright verdict (with a model in the caller's variable space when
//!    satisfiable) or a reduced formula plus the [`ReductionTrace`] that maps
//!    models and literals back.
//! 3. [`canonicalize`] / [`fingerprint`] — a canonical variable order
//!    computed by iterative signature refinement (with a budgeted
//!    individualize-and-refine tie-break), so two formulas that differ only
//!    by a variable renaming and clause/literal permutations map to the
//!    *same* reduced formula and therefore the same fingerprint. A verdict
//!    cache keyed this way answers renamed resubmissions without a solve.
//!    Refinement runs over flat CSR incidence arrays with reused signature
//!    buffers and stops once the coloring is discrete; the tie-break search
//!    gives up as soon as a lower bound on its leaf count passes the budget.
//!    The output is pinned bit for bit to a reference implementation by
//!    `tests/canonical_oracle.rs`.

use crate::assignment::Assignment;
use crate::clause::Clause;
use crate::formula::CnfFormula;
use crate::simplify::simplify;
use crate::var::{Literal, Variable};

/// Leaf budget of the individualize-and-refine tie-break search: the most
/// leaves (complete candidate orderings) its tree may have before
/// [`canonicalize`] falls back to the deterministic (but not
/// renaming-invariant) input-order tie-break. A tree past the budget is
/// usually recognised from lower bounds on its subtrees long before its
/// leaves are reached, and no leaf is encoded until the tree is known to
/// fit. Highly symmetric formulas are the only way to exceed it, and the
/// fallback only costs cache hit rate, never correctness.
const CANONICAL_LEAF_BUDGET: usize = 64;

/// Returns a deterministic, idempotent normal form of `formula`: literals
/// sorted and deduplicated within each clause, tautological clauses dropped,
/// clauses sorted lexicographically and deduplicated. The variable count is
/// preserved, so `normalize(normalize(f)) == normalize(f)` and the set of
/// satisfying assignments is unchanged.
pub fn normalize(formula: &CnfFormula) -> CnfFormula {
    let mut clauses: Vec<Clause> = formula
        .iter()
        .filter(|clause| !clause.is_tautology())
        .map(Clause::normalized)
        .collect();
    clauses.sort_by(|a, b| {
        a.iter()
            .map(|lit| lit.code())
            .cmp(b.iter().map(|lit| lit.code()))
    });
    clauses.dedup();
    CnfFormula::from_clauses(formula.num_vars(), clauses)
}

/// The invertible record of one [`preprocess`] reduction: which literals were
/// forced (unit propagation, pure literals) in the *original* variable space,
/// and how the surviving variables were renamed to the dense canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionTrace {
    original_vars: usize,
    /// Literals fixed during simplification, in the original variable space.
    forced: Vec<Literal>,
    /// Canonical index → original variable, for every surviving variable.
    kept: Vec<Variable>,
}

impl ReductionTrace {
    /// Number of variables the caller's formula had.
    pub fn original_vars(&self) -> usize {
        self.original_vars
    }

    /// Number of variables surviving in the reduced formula.
    pub fn reduced_vars(&self) -> usize {
        self.kept.len()
    }

    /// How many of the caller's variables the reduction eliminated.
    pub fn vars_removed(&self) -> usize {
        self.original_vars - self.kept.len()
    }

    /// The literals fixed by simplification, in the original variable space.
    pub fn forced(&self) -> &[Literal] {
        &self.forced
    }

    /// The original variable behind a canonical one, or `None` when the
    /// canonical index is out of range.
    pub fn original_variable(&self, canonical: Variable) -> Option<Variable> {
        self.kept.get(canonical.index()).copied()
    }

    /// Maps a literal of the reduced formula back to the caller's variable
    /// space (the polarity is preserved; only variables are renamed).
    pub fn lift_literal(&self, lit: Literal) -> Option<Literal> {
        self.original_variable(lit.variable())
            .map(|var| var.literal(lit.phase()))
    }

    /// Lifts a model of the reduced formula to a complete assignment in the
    /// caller's variable space: forced literals take their forced value,
    /// surviving variables take the model's value, and variables eliminated
    /// as unconstrained default to `false`.
    pub fn lift_model(&self, model: &Assignment) -> Assignment {
        let mut lifted = Assignment::all_false(self.original_vars);
        for &lit in &self.forced {
            lifted.set(lit.variable(), lit.is_positive());
        }
        for (canonical, &original) in self.kept.iter().enumerate() {
            lifted.set(original, model.value(Variable::new(canonical)));
        }
        lifted
    }
}

/// What [`preprocess`] decided about a formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreprocessOutcome {
    /// Simplification satisfied every clause; the model is in the caller's
    /// variable space (unconstrained variables default to `false`).
    Satisfiable(Assignment),
    /// Simplification derived the empty clause: unsatisfiable.
    Unsatisfiable,
    /// A non-trivial residual remains: the reduced formula, renamed to the
    /// dense canonical order, plus the trace mapping back.
    Reduced {
        /// The reduced formula over the dense canonical variables.
        formula: CnfFormula,
        /// The invertible record mapping models and literals back to the
        /// caller's variable space.
        trace: ReductionTrace,
    },
}

/// Size telemetry of one [`preprocess`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreprocessReport {
    /// Variables in the caller's formula.
    pub original_vars: usize,
    /// Clauses in the caller's formula.
    pub original_clauses: usize,
    /// Variables in the reduced formula (0 when solved outright).
    pub reduced_vars: usize,
    /// Clauses in the reduced formula (0 when solved outright).
    pub reduced_clauses: usize,
    /// Literals fixed by unit propagation and pure-literal elimination.
    pub forced_literals: usize,
}

impl PreprocessReport {
    /// Variables eliminated by the reduction.
    pub fn vars_removed(&self) -> usize {
        self.original_vars.saturating_sub(self.reduced_vars)
    }

    /// Clauses eliminated by the reduction.
    pub fn clauses_removed(&self) -> usize {
        self.original_clauses.saturating_sub(self.reduced_clauses)
    }
}

/// The result of [`preprocess`]: the decision plus size telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Preprocessed {
    /// What preprocessing decided.
    pub outcome: PreprocessOutcome,
    /// Size telemetry of the reduction.
    pub report: PreprocessReport,
}

/// Runs the full preprocessing stage: [`normalize`], the unit-propagation /
/// pure-literal fixpoint of [`simplify`], a second normalization of the
/// residual, then [`canonicalize`] to the dense canonical variable order.
///
/// The reduction is verdict-preserving: the reduced formula is satisfiable
/// exactly when the caller's formula is, and
/// [`ReductionTrace::lift_model`] turns any model of the reduced formula
/// into a model of the caller's formula.
pub fn preprocess(formula: &CnfFormula) -> Preprocessed {
    let mut report = PreprocessReport {
        original_vars: formula.num_vars(),
        original_clauses: formula.num_clauses(),
        ..PreprocessReport::default()
    };
    let normalized = normalize(formula);
    if normalized.has_empty_clause() {
        return Preprocessed {
            outcome: PreprocessOutcome::Unsatisfiable,
            report,
        };
    }
    let (residual, simplified) = simplify(&normalized);
    report.forced_literals = simplified.fixed.len();
    if simplified.proved_unsat {
        return Preprocessed {
            outcome: PreprocessOutcome::Unsatisfiable,
            report,
        };
    }
    if simplified.proved_sat {
        let mut model = Assignment::all_false(formula.num_vars());
        for lit in &simplified.fixed {
            model.set(lit.variable(), lit.is_positive());
        }
        return Preprocessed {
            outcome: PreprocessOutcome::Satisfiable(model),
            report,
        };
    }
    // Literal removal can leave equal clauses behind; normalize again so the
    // canonical form never depends on the order simplification visited them.
    // With no literal fixed, the residual is the normalized input unchanged.
    let residual = if simplified.fixed.is_empty() {
        residual
    } else {
        normalize(&residual)
    };
    let (reduced, kept) = canonicalize(&residual);
    report.reduced_vars = reduced.num_vars();
    report.reduced_clauses = reduced.num_clauses();
    let trace = ReductionTrace {
        original_vars: formula.num_vars(),
        forced: simplified.fixed,
        kept,
    };
    Preprocessed {
        outcome: PreprocessOutcome::Reduced {
            formula: reduced,
            trace,
        },
        report,
    }
}

/// Renames the occurring variables of `formula` to a dense canonical order
/// and returns the renamed formula together with the order (new index →
/// original variable).
///
/// The order is computed by iterative signature refinement over the
/// variable–clause incidence structure (a Weisfeiler–Lehman-style coloring
/// that is invariant under variable renaming and clause/literal
/// permutations); remaining ties are broken by a budgeted
/// individualize-and-refine search for the lexicographically minimal
/// encoding. Within the budget, two formulas differing only by a renaming
/// produce the *same* canonical formula. Beyond it (pathologically symmetric
/// inputs), the tie-break degrades to input order — still deterministic,
/// merely not renaming-invariant.
///
/// The incidence structure lives in flat CSR arrays (one array plus start
/// offsets): clause literals as `2·var + phase`, variable occurrences as
/// `2·clause + phase`. Each refinement round writes signatures into reused
/// `u64` buffers as `color << 1 | phase`, which sorts exactly like the
/// `(color, phase)` pair, and ranks them by sorting their indices, keyed
/// by each signature's first two words.
/// Refinement stops as soon as the coloring is discrete, because one more
/// round would return the same colors. The search refines every child of a
/// node before it descends, and a child whose branching class has `s`
/// variables has at least `s` leaves. So once the leaves found plus these
/// lower bounds for the unexplored subtrees exceed the leaf budget, the
/// whole tree is known to exceed it and the search stops. Leaves are encoded
/// only after the whole tree is known to fit; the winner is the first strict
/// minimum in depth-first order.
///
/// The result is bit-identical, for every input, to the straightforward
/// implementation that refines each child just before descending and
/// encodes every leaf it meets: `crates/cnf/tests/canonical_oracle.rs`
/// keeps that implementation and checks the two agree, including on which
/// inputs fall back.
pub fn canonicalize(formula: &CnfFormula) -> (CnfFormula, Vec<Variable>) {
    let vars = formula.occurring_variables();
    if vars.is_empty() {
        return (CnfFormula::new(0), Vec::new());
    }
    let mut local = vec![usize::MAX; formula.num_vars()];
    for (i, var) in vars.iter().enumerate() {
        local[var.index()] = i;
    }
    let mut incidence = Incidence::new(formula, &local, vars.len());
    let mut colors = vec![0; vars.len()];
    let classes = incidence.refine(&mut colors);
    let order = if classes == vars.len() {
        order_by_color(&colors)
    } else {
        match incidence.lex_min_leaf(&colors) {
            Some(leaf) => order_by_color(&leaf),
            // Budget exhausted: deterministic fallback by (color, input
            // index). Loses renaming invariance, never correctness.
            None => order_by_color(&colors),
        }
    };
    // `order[new] = local var index`; build the renamed formula.
    let mut rename = vec![0usize; vars.len()];
    for (new, &old_local) in order.iter().enumerate() {
        rename[old_local] = new;
    }
    let renamed: Vec<Clause> = formula
        .iter()
        .map(|clause| {
            clause
                .iter()
                .map(|lit| {
                    Variable::new(rename[local[lit.variable().index()]]).literal(lit.phase())
                })
                .collect()
        })
        .collect();
    let canonical = normalize(&CnfFormula::from_clauses(vars.len(), renamed));
    let kept: Vec<Variable> = order.iter().map(|&local| vars[local]).collect();
    (canonical, kept)
}

/// A renaming-invariant fingerprint of a formula: FNV-1a over its exact
/// encoding *after* the caller put it in canonical form. Two canonical
/// formulas are equal exactly when their encodings are, so this is a sound
/// cache key as long as entries also compare the formula itself (the cache
/// does: a 64-bit hash alone could collide).
pub fn fingerprint(formula: &CnfFormula) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(formula.num_vars() as u64);
    eat(formula.num_clauses() as u64);
    for clause in formula.iter() {
        eat(clause.len() as u64);
        for lit in clause.iter() {
            eat(lit.code() as u64);
        }
    }
    hash
}

/// Stable variable order sorted by (color, input index).
fn order_by_color(colors: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..colors.len()).collect();
    order.sort_by_key(|&v| (colors[v], v));
    order
}

/// `color << 1 | phase`: orders exactly like the `(color, phase)` pair.
fn signature(color: usize, phase: usize) -> u64 {
    ((color as u64) << 1) | phase as u64
}

/// The variable–clause incidence structure of a formula over its occurring
/// variables (renumbered densely), in flat CSR arrays, plus the signature
/// buffers refinement reuses from round to round.
struct Incidence {
    /// Clause `c`'s literals as `2·var + phase` (phase 1 is positive):
    /// `lits[lit_start[c]..lit_start[c + 1]]`.
    lits: Vec<usize>,
    lit_start: Vec<usize>,
    /// Variable `v`'s occurrences as `2·clause + phase`:
    /// `occs[occ_start[v]..occ_start[v + 1]]`.
    occs: Vec<usize>,
    occ_start: Vec<usize>,
    /// Clause signatures, laid out like `lits`.
    clause_sigs: Vec<u64>,
    clause_colors: Vec<usize>,
    /// Variable `v`'s signature at `occ_start[v] + v..occ_start[v + 1] + v + 1`:
    /// its current color, then its occurrences' signatures.
    var_sigs: Vec<u64>,
    /// Scratch for [`dense_rank`].
    keyed: Vec<(u128, usize)>,
}

impl Incidence {
    /// Builds the incidence structure; `local` maps each occurring variable
    /// of `formula` to its dense index below `num_local`.
    fn new(formula: &CnfFormula, local: &[usize], num_local: usize) -> Self {
        let mut lits = Vec::new();
        let mut lit_start = vec![0];
        let mut occ_start = vec![0usize; num_local + 1];
        for clause in formula.iter() {
            for lit in clause.iter() {
                let v = local[lit.variable().index()];
                lits.push(2 * v + usize::from(lit.phase()));
                occ_start[v + 1] += 1;
            }
            lit_start.push(lits.len());
        }
        for v in 0..num_local {
            occ_start[v + 1] += occ_start[v];
        }
        let mut fill = occ_start.clone();
        let mut occs = vec![0; lits.len()];
        for c in 0..lit_start.len() - 1 {
            for &lit in &lits[lit_start[c]..lit_start[c + 1]] {
                occs[fill[lit >> 1]] = 2 * c + (lit & 1);
                fill[lit >> 1] += 1;
            }
        }
        Incidence {
            clause_sigs: vec![0; lits.len()],
            clause_colors: vec![0; lit_start.len() - 1],
            var_sigs: vec![0; occs.len() + num_local],
            keyed: Vec::new(),
            lits,
            lit_start,
            occs,
            occ_start,
        }
    }

    fn num_clauses(&self) -> usize {
        self.lit_start.len() - 1
    }

    /// Signature refinement to fixpoint. Each round colors clauses by the
    /// multiset of (variable color, phase) pairs, then variables by their old
    /// color plus the multiset of (clause color, phase) pairs. Both ranking
    /// steps use sorted signatures, so the result is invariant under any
    /// renaming of variables or reordering of clauses and literals.
    ///
    /// `colors` must be dense (every color below the class count is used);
    /// it is replaced by the refined dense colors, and the class count is
    /// returned. A discrete coloring is final: one more round would rank
    /// every variable by its own distinct color and return it unchanged.
    fn refine(&mut self, colors: &mut [usize]) -> usize {
        let n = colors.len();
        let mut classes = colors.iter().max().map_or(0, |&c| c + 1);
        if classes == n {
            return classes;
        }
        loop {
            for c in 0..self.num_clauses() {
                let (start, end) = (self.lit_start[c], self.lit_start[c + 1]);
                for i in start..end {
                    let lit = self.lits[i];
                    self.clause_sigs[i] = signature(colors[lit >> 1], lit & 1);
                }
                self.clause_sigs[start..end].sort_unstable();
            }
            let (sigs, starts) = (&self.clause_sigs, &self.lit_start);
            dense_rank(
                |c| &sigs[starts[c]..starts[c + 1]],
                &mut self.keyed,
                &mut self.clause_colors,
            );
            for (v, &color) in colors.iter().enumerate() {
                let (start, end) = (self.occ_start[v], self.occ_start[v + 1]);
                let sig = &mut self.var_sigs[start + v..end + v + 1];
                sig[0] = color as u64;
                for (slot, &occ) in sig[1..].iter_mut().zip(&self.occs[start..end]) {
                    *slot = signature(self.clause_colors[occ >> 1], occ & 1);
                }
                sig[1..].sort_unstable();
            }
            let (sigs, starts) = (&self.var_sigs, &self.occ_start);
            let refined = dense_rank(
                |v| &sigs[starts[v] + v..starts[v + 1] + v + 1],
                &mut self.keyed,
                colors,
            );
            if refined == classes || refined == n {
                return refined;
            }
            classes = refined;
        }
    }

    /// Budgeted individualize-and-refine below the non-discrete refined
    /// coloring `root`: the discrete leaf coloring whose encoding is the
    /// lexicographic minimum (first in depth-first order among equals), or
    /// `None` when the search tree has more than [`CANONICAL_LEAF_BUDGET`]
    /// leaves.
    fn lex_min_leaf(&mut self, root: &[usize]) -> Option<Vec<usize>> {
        let mut counts = Vec::new();
        let (_, size) = split_class(root, &mut counts).expect("root coloring is not discrete");
        let mut bound = size;
        if bound > CANONICAL_LEAF_BUDGET {
            return None;
        }
        let mut leaves = Vec::new();
        self.collect_leaves(root, &mut bound, &mut leaves)?;
        let mut best: Option<(Vec<u64>, Vec<usize>)> = None;
        for leaf in leaves {
            let encoded = self.encode_under(&leaf);
            if best.as_ref().is_none_or(|(min, _)| encoded < *min) {
                best = Some((encoded, leaf));
            }
        }
        best.map(|(_, leaf)| leaf)
    }

    /// Appends the leaves below the non-discrete coloring `colors` to
    /// `leaves` in depth-first order. `bound` is a lower bound on the tree's
    /// leaf count: the leaves found so far plus a lower bound for every
    /// subtree not yet explored, with `colors` counted at the size of its
    /// branching class. Returns `None` as soon as it exceeds the budget.
    fn collect_leaves(
        &mut self,
        colors: &[usize],
        bound: &mut usize,
        leaves: &mut Vec<Vec<usize>>,
    ) -> Option<()> {
        let mut counts = Vec::new();
        let (split, size) = split_class(colors, &mut counts).expect("coloring is not discrete");
        let mut children = Vec::with_capacity(size);
        for v in (0..colors.len()).filter(|&v| colors[v] == split) {
            // Individualize v: give it a color just below its class, shifting
            // everything at or above the class up by one to stay dense.
            let mut child: Vec<usize> = colors
                .iter()
                .map(|&color| if color >= split { color + 1 } else { color })
                .collect();
            child[v] = split;
            let discrete = self.refine(&mut child) == child.len();
            // The child was counted as one leaf; raise that to its branching
            // class size.
            if !discrete {
                *bound += split_class(&child, &mut counts).map_or(0, |(_, s)| s - 1);
                if *bound > CANONICAL_LEAF_BUDGET {
                    return None;
                }
            }
            children.push((child, discrete));
        }
        for (child, discrete) in children {
            if discrete {
                leaves.push(child);
            } else {
                self.collect_leaves(&child, bound, leaves)?;
            }
        }
        Some(())
    }

    /// Encodes the formula renamed by the discrete coloring `rename` (new
    /// index per variable) as a flat word sequence comparable
    /// lexicographically: the sorted, deduplicated renamed clauses, each as
    /// its length followed by its sorted, deduplicated literal codes.
    fn encode_under(&self, rename: &[usize]) -> Vec<u64> {
        let mut codes: Vec<u64> = Vec::with_capacity(self.lits.len());
        let mut starts = Vec::with_capacity(self.lit_start.len());
        starts.push(0);
        for c in 0..self.num_clauses() {
            let start = codes.len();
            codes.extend(
                self.lits[self.lit_start[c]..self.lit_start[c + 1]]
                    .iter()
                    .map(|&lit| {
                        Variable::new(rename[lit >> 1]).literal(lit & 1 == 1).code() as u64
                    }),
            );
            codes[start..].sort_unstable();
            let mut end = start;
            for i in start..codes.len() {
                if end == start || codes[i] != codes[end - 1] {
                    codes[end] = codes[i];
                    end += 1;
                }
            }
            codes.truncate(end);
            starts.push(end);
        }
        let clause = |c: usize| &codes[starts[c]..starts[c + 1]];
        let mut order: Vec<usize> = (0..self.num_clauses()).collect();
        order.sort_unstable_by(|&a, &b| clause(a).cmp(clause(b)));
        order.dedup_by(|a, b| clause(*a) == clause(*b));
        let mut flat = Vec::with_capacity(codes.len() + order.len());
        for c in order {
            flat.push(clause(c).len() as u64);
            flat.extend_from_slice(clause(c));
        }
        flat
    }
}

/// Writes into `ranks` the dense rank of every signature `sig(i)`,
/// `i < ranks.len()`, among the distinct signatures in lexicographic order,
/// and returns how many distinct signatures there are. `keyed` is scratch:
/// the indices sorted by [`prefix_key`], with the rest of the signature
/// compared only between equal keys.
fn dense_rank<'a>(
    sig: impl Fn(usize) -> &'a [u64],
    keyed: &mut Vec<(u128, usize)>,
    ranks: &mut [usize],
) -> usize {
    // Equal keys mean equal first two words, so comparing what follows
    // them orders the whole signatures.
    let tail = |i: usize| sig(i).get(2..).unwrap_or_default();
    keyed.clear();
    keyed.extend((0..ranks.len()).map(|i| (prefix_key(sig(i)), i)));
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| tail(a.1).cmp(tail(b.1))));
    let mut rank = 0;
    for i in 0..keyed.len() {
        let (key, index) = keyed[i];
        if i > 0 && (key != keyed[i - 1].0 || tail(index) != tail(keyed[i - 1].1)) {
            rank += 1;
        }
        ranks[index] = rank;
    }
    if keyed.is_empty() {
        0
    } else {
        rank + 1
    }
}

/// The first two words of a signature, each plus one so that a missing word
/// (0) sorts below any present one: keys order like the signatures' first
/// two words under lexicographic comparison, a shorter prefix first.
fn prefix_key(sig: &[u64]) -> u128 {
    let word = |i: usize| sig.get(i).map_or(0, |&w| u128::from(w) + 1);
    (word(0) << 64) | word(1)
}

/// The branching class of a dense coloring: its smallest color held by more
/// than one variable, with that class's size, or `None` when the coloring is
/// discrete. `counts` is scratch.
fn split_class(colors: &[usize], counts: &mut Vec<usize>) -> Option<(usize, usize)> {
    counts.clear();
    counts.resize(colors.len(), 0);
    for &color in colors {
        counts[color] += 1;
    }
    counts
        .iter()
        .position(|&count| count > 1)
        .map(|split| (split, counts[split]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf_formula;

    /// Applies a variable permutation (old index → new index) to a formula,
    /// keeping polarities.
    fn rename_formula(formula: &CnfFormula, perm: &[usize]) -> CnfFormula {
        let clauses: Vec<Clause> = formula
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|lit| Variable::new(perm[lit.variable().index()]).literal(lit.phase()))
                    .collect()
            })
            .collect();
        CnfFormula::from_clauses(formula.num_vars(), clauses)
    }

    #[test]
    fn normalize_sorts_dedups_and_drops_tautologies() {
        let messy = cnf_formula![[2, 1, 2], [1, -1, 3], [1, 2], [3]];
        let normal = normalize(&messy);
        assert_eq!(normal.num_clauses(), 2);
        assert_eq!(normal, normalize(&normal));
        // Models unchanged: check satisfiability-preserving on all points.
        for assignment in Assignment::enumerate_all(3) {
            assert_eq!(messy.evaluate(&assignment), normal.evaluate(&assignment));
        }
    }

    #[test]
    fn preprocess_decides_trivial_formulas() {
        let unsat = cnf_formula![[1], [-1]];
        assert_eq!(preprocess(&unsat).outcome, PreprocessOutcome::Unsatisfiable);
        let sat = cnf_formula![[1], [1, 2]];
        match preprocess(&sat).outcome {
            PreprocessOutcome::Satisfiable(model) => assert!(sat.evaluate(&model)),
            other => panic!("expected satisfiable, got {other:?}"),
        }
    }

    #[test]
    fn preprocess_reduces_and_lifts_models() {
        // Unit clause [3] fires, pure literal 4 fires; vars 1,2 survive.
        let formula = cnf_formula![[3], [-3, 4], [1, 2], [-1, -2]];
        let pre = preprocess(&formula);
        let PreprocessOutcome::Reduced {
            formula: reduced,
            trace,
        } = pre.outcome
        else {
            panic!("expected a residual, got {:?}", pre.outcome);
        };
        assert_eq!(reduced.num_vars(), 2);
        assert_eq!(trace.vars_removed(), 2);
        assert_eq!(pre.report.vars_removed(), 2);
        // Any model of the residual lifts to a model of the original.
        for candidate in Assignment::enumerate_all(reduced.num_vars()) {
            if reduced.evaluate(&candidate) {
                assert!(formula.evaluate(&trace.lift_model(&candidate)));
            }
        }
    }

    #[test]
    fn preprocess_skips_the_second_normalize_when_nothing_is_fixed() {
        // No unit and no pure literal: simplification fixes nothing, so the
        // second normalization is skipped.
        let formula = cnf_formula![[2, 1], [-1, -2], [1, -2, 3], [-1, 2], [-3, 2], [3, -2]];
        let normalized = normalize(&formula);
        let (residual, simplified) = simplify(&normalized);
        assert!(simplified.fixed.is_empty());
        assert_eq!(residual, normalized);
        // The result equals the pipeline with the second normalization kept.
        let (expected, kept) = canonicalize(&normalize(&residual));
        let expected_trace = ReductionTrace {
            original_vars: formula.num_vars(),
            forced: Vec::new(),
            kept,
        };
        assert_eq!(
            preprocess(&formula).outcome,
            PreprocessOutcome::Reduced {
                formula: expected,
                trace: expected_trace,
            }
        );
    }

    #[test]
    fn renamed_formulas_share_a_canonical_form() {
        let formula = cnf_formula![[1, 2, -3], [-1, 3], [2, 3], [-2, -3]];
        let renamed = rename_formula(&formula, &[2, 0, 1]);
        let a = preprocess(&formula);
        let b = preprocess(&renamed);
        let (fa, fb) = match (a.outcome, b.outcome) {
            (
                PreprocessOutcome::Reduced { formula: fa, .. },
                PreprocessOutcome::Reduced { formula: fb, .. },
            ) => (fa, fb),
            other => panic!("expected residuals, got {other:?}"),
        };
        assert_eq!(fa, fb);
        assert_eq!(fingerprint(&fa), fingerprint(&fb));
    }

    #[test]
    fn automorphic_variables_still_canonicalize() {
        // x1 and x2 are fully symmetric; the individualize-and-refine
        // tie-break must terminate and pick one order deterministically.
        let formula = cnf_formula![[1, 2], [-1, -2]];
        let (canonical, kept) = canonicalize(&formula);
        assert_eq!(canonical.num_vars(), 2);
        assert_eq!(kept.len(), 2);
        let again = canonicalize(&formula);
        assert_eq!(canonical, again.0);
    }

    #[test]
    fn fingerprint_distinguishes_different_formulas() {
        let a = normalize(&cnf_formula![[1, 2], [-1, -2]]);
        let b = normalize(&cnf_formula![[1, 2], [-1, 2]]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }
}
