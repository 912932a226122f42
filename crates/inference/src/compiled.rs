//! Rules compiled for the engine's matcher.
//!
//! [`compile`] runs once per rule at add time. It numbers the rule's
//! variables, so a partial match carries its bindings as a frame — one
//! `Option<Value>` per variable, indexed, never looked up by name — and
//! it resolves each pattern's template symbol and its equality-index
//! probe up front. The probe is the first slot test that pins the slot
//! to a constant or to a variable bound by an earlier positive pattern;
//! which variables are bound before a condition element is fixed by the
//! rule's text, so the choice is static and the store indexes exactly
//! the slots some pattern probes ([`FactStore::index_slot`]).
//!
//! Semantics follow the by-name reference matcher in [`crate::pattern`]
//! exactly: a variable first seen in a positive pattern binds there and
//! is an equality test afterwards; a variable first seen in a negated
//! pattern is local to it; a `test` or action term naming a variable no
//! positive pattern bound resolves to nothing.

use std::sync::Arc;

use crate::fact::{Fact, FactId, FactStore, TemplateId};
use crate::pattern::{Pattern, SlotTest, Term, Test};
use crate::rule::{Action, Ce, Rule};
use crate::value::{CmpOp, Value};

/// Index of a variable in a join frame.
type Var = usize;

/// A compiled slot test.
#[derive(Clone, Debug)]
enum CSlot {
    /// Loosely equal to a constant.
    Const(Value),
    /// Compare against a constant.
    Cmp(CmpOp, Value),
    /// First occurrence: bind the slot value.
    Bind(Var),
    /// Later occurrence: loosely equal to the bound value.
    Join(Var),
}

/// A term resolved against a frame.
#[derive(Clone, Debug)]
pub(crate) enum CTerm {
    Const(Value),
    Var(Var),
    /// Names a variable no positive pattern binds at this point.
    Unbound,
}

impl CTerm {
    #[inline]
    pub(crate) fn resolve<'a>(&'a self, frame: &'a [Option<Value>]) -> Option<&'a Value> {
        match self {
            CTerm::Const(v) => Some(v),
            CTerm::Var(ix) => frame[*ix].as_ref(),
            CTerm::Unbound => None,
        }
    }
}

/// A compiled `test` condition.
#[derive(Clone, Debug)]
pub(crate) enum CTest {
    Cmp(CmpOp, CTerm, CTerm),
    And(Vec<CTest>),
    Or(Vec<CTest>),
    Not(Box<CTest>),
}

impl CTest {
    /// Evaluate under a frame; an unbound term makes a comparison false.
    pub(crate) fn eval(&self, frame: &[Option<Value>]) -> bool {
        match self {
            CTest::Cmp(op, a, b) => match (a.resolve(frame), b.resolve(frame)) {
                (Some(a), Some(b)) => op.apply(a, b),
                _ => false,
            },
            CTest::And(ts) => ts.iter().all(|t| t.eval(frame)),
            CTest::Or(ts) => ts.iter().any(|t| t.eval(frame)),
            CTest::Not(t) => !t.eval(frame),
        }
    }
}

/// A compiled pattern over one template.
#[derive(Clone, Debug)]
pub(crate) struct CPattern {
    pub(crate) tid: TemplateId,
    tests: Vec<(String, CSlot)>,
    /// Equality-index probe: the template's probed-slot position and the
    /// value to probe with.
    probe: Option<(usize, CTerm)>,
}

impl CPattern {
    /// Match `fact` under `frame`, binding first occurrences into it. On
    /// failure the frame may hold partial bindings; callers discard it.
    #[inline]
    pub(crate) fn match_into(&self, fact: &Fact, frame: &mut [Option<Value>]) -> bool {
        for (slot, test) in &self.tests {
            let Some(actual) = fact.get(slot) else {
                return false;
            };
            let ok = match test {
                CSlot::Const(v) => actual.loose_eq(v),
                CSlot::Cmp(op, v) => op.apply(actual, v),
                CSlot::Join(ix) => frame[*ix].as_ref().is_some_and(|b| actual.loose_eq(b)),
                CSlot::Bind(ix) => {
                    frame[*ix] = Some(actual.clone());
                    true
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Bind first occurrences from a fact already known to match.
    fn bind_into(&self, fact: &Fact, frame: &mut [Option<Value>]) {
        for (slot, test) in &self.tests {
            if let CSlot::Bind(ix) = test {
                frame[*ix] = fact.get(slot).cloned();
            }
        }
    }

    /// The candidate facts under `frame`: the equality-index bucket when
    /// the pattern probes one, else the whole alpha memory. Candidates
    /// are always re-verified by [`CPattern::match_into`], so a probe
    /// changes which facts are *examined*, never which activations
    /// result.
    #[inline]
    pub(crate) fn candidates<'f>(
        &self,
        frame: &[Option<Value>],
        facts: &'f FactStore,
    ) -> &'f [FactId] {
        match &self.probe {
            Some((probe, term)) => match term.resolve(frame) {
                Some(v) => facts.ids_probed(self.tid, *probe, v),
                None => &[],
            },
            None => facts.ids_of(self.tid),
        }
    }
}

/// A compiled condition element.
#[derive(Clone, Debug)]
pub(crate) enum CCe {
    Pos(CPattern),
    Neg(CPattern),
    Test(CTest),
}

/// A compiled right-hand-side action.
#[derive(Clone, Debug)]
pub(crate) enum CAction {
    Assert {
        template: String,
        slots: Vec<(String, CTerm)>,
    },
    Retract(usize),
    Modify {
        pos_index: usize,
        slots: Vec<(String, CTerm)>,
    },
    Call {
        command: String,
        args: Vec<CTerm>,
    },
}

/// A rule ready for the engine.
#[derive(Debug)]
pub(crate) struct CompiledRule {
    /// Shared with trace entries, so a firing copies no string.
    pub(crate) name: Arc<str>,
    pub(crate) salience: i32,
    /// Frame width: one slot per numbered variable.
    pub(crate) vars: usize,
    pub(crate) ces: Vec<CCe>,
    pub(crate) actions: Vec<CAction>,
    /// Distinct templates of positive CEs (assert-delta triggers).
    pub(crate) pos_tmpls: Vec<TemplateId>,
    /// Distinct templates of negated CEs (re-evaluation triggers).
    pub(crate) neg_tmpls: Vec<TemplateId>,
}

impl CompiledRule {
    /// Rebuild the bindings of the activation whose positive CEs matched
    /// `ids` into `frame` (cleared first). Facts are immutable while live,
    /// so this yields exactly the bindings the join produced.
    pub(crate) fn bind(&self, facts: &FactStore, ids: &[FactId], frame: &mut Vec<Option<Value>>) {
        frame.clear();
        frame.resize(self.vars, None);
        let pos = self.ces.iter().filter_map(|ce| match ce {
            CCe::Pos(p) => Some(p),
            _ => None,
        });
        for (p, &id) in pos.zip(ids) {
            if let Some(fact) = facts.get(id) {
                p.bind_into(fact, frame);
            }
        }
    }
}

/// Variables bound by positive patterns so far, by name.
type Scope = Vec<(String, Var)>;

fn lookup(scope: &[(String, Var)], name: &str) -> Option<Var> {
    scope.iter().find(|(n, _)| n == name).map(|&(_, ix)| ix)
}

/// Compile `rule` against `facts`, interning its templates and indexing
/// the slots its patterns probe.
pub(crate) fn compile(rule: &Rule, facts: &mut FactStore) -> CompiledRule {
    let mut scope = Scope::new();
    let mut vars = 0;
    let mut ces = Vec::with_capacity(rule.ces.len());
    let (mut pos_tmpls, mut neg_tmpls) = (Vec::new(), Vec::new());
    for ce in &rule.ces {
        ces.push(match ce {
            Ce::Pos(p) => {
                let cp = compile_pattern(p, facts, &mut scope, &mut vars, true);
                if !pos_tmpls.contains(&cp.tid) {
                    pos_tmpls.push(cp.tid);
                }
                CCe::Pos(cp)
            }
            Ce::Neg(p) => {
                let cp = compile_pattern(p, facts, &mut scope, &mut vars, false);
                if !neg_tmpls.contains(&cp.tid) {
                    neg_tmpls.push(cp.tid);
                }
                CCe::Neg(cp)
            }
            Ce::Test(t) => CCe::Test(compile_test(t, &scope)),
        });
    }
    let terms = |slots: &[(String, Term)]| -> Vec<(String, CTerm)> {
        slots
            .iter()
            .map(|(s, t)| (s.clone(), compile_term(t, &scope)))
            .collect()
    };
    let actions = rule
        .actions
        .iter()
        .map(|a| match a {
            Action::Assert { template, slots } => CAction::Assert {
                template: template.clone(),
                slots: terms(slots),
            },
            Action::Retract(n) => CAction::Retract(*n),
            Action::Modify { pos_index, slots } => CAction::Modify {
                pos_index: *pos_index,
                slots: terms(slots),
            },
            Action::Call { command, args } => CAction::Call {
                command: command.clone(),
                args: args.iter().map(|t| compile_term(t, &scope)).collect(),
            },
        })
        .collect();
    CompiledRule {
        name: Arc::from(rule.name.as_str()),
        salience: rule.salience,
        vars,
        ces,
        actions,
        pos_tmpls,
        neg_tmpls,
    }
}

/// Compile one pattern. `scope` holds the variables bound by earlier
/// positive patterns; a positive pattern (`export`) adds its own first
/// occurrences to it, a negated one keeps them local.
fn compile_pattern(
    p: &Pattern,
    facts: &mut FactStore,
    scope: &mut Scope,
    vars: &mut usize,
    export: bool,
) -> CPattern {
    let tid = facts.intern_template(&p.template);
    let mut local = Scope::new();
    let mut probe: Option<(&str, CTerm)> = None;
    let mut tests = Vec::with_capacity(p.tests.len());
    for (slot, test) in &p.tests {
        let (ctest, pin) = match test {
            SlotTest::Const(v) => (CSlot::Const(v.clone()), Some(CTerm::Const(v.clone()))),
            SlotTest::Cmp(CmpOp::Eq, v) => (
                CSlot::Cmp(CmpOp::Eq, v.clone()),
                Some(CTerm::Const(v.clone())),
            ),
            SlotTest::Cmp(op, v) => (CSlot::Cmp(*op, v.clone()), None),
            SlotTest::Var(name) => match lookup(scope, name) {
                Some(ix) => (CSlot::Join(ix), Some(CTerm::Var(ix))),
                None => match lookup(&local, name) {
                    Some(ix) => (CSlot::Join(ix), None),
                    None => {
                        local.push((name.clone(), *vars));
                        *vars += 1;
                        (CSlot::Bind(*vars - 1), None)
                    }
                },
            },
        };
        if probe.is_none() {
            probe = pin.map(|term| (slot.as_str(), term));
        }
        tests.push((slot.clone(), ctest));
    }
    if export {
        scope.extend(local);
    }
    let probe = probe.map(|(slot, term)| (facts.index_slot(tid, slot), term));
    CPattern { tid, tests, probe }
}

fn compile_term(t: &Term, scope: &[(String, Var)]) -> CTerm {
    match t {
        Term::Const(v) => CTerm::Const(v.clone()),
        Term::Var(name) => lookup(scope, name).map_or(CTerm::Unbound, CTerm::Var),
    }
}

fn compile_test(t: &Test, scope: &[(String, Var)]) -> CTest {
    match t {
        Test::Cmp(op, a, b) => CTest::Cmp(*op, compile_term(a, scope), compile_term(b, scope)),
        Test::And(ts) => CTest::And(ts.iter().map(|t| compile_test(t, scope)).collect()),
        Test::Or(ts) => CTest::Or(ts.iter().map(|t| compile_test(t, scope)).collect()),
        Test::Not(t) => CTest::Not(Box::new(compile_test(t, scope))),
    }
}
