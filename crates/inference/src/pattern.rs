//! Patterns: the left-hand-side constraints of rules, matched against
//! facts with variable binding.
//!
//! This is the rule *source* form and its reference semantics: a pattern
//! matched here binds variables by name. The engine does not match
//! these directly; it compiles each rule once (see `compiled`) into
//! patterns whose variables are numbered, and uses the by-name matcher
//! only in its naive oracle ([`crate::rule::Rule::activations`]).

use crate::fact::Fact;
use crate::value::{CmpOp, Value};

/// Variable bindings accumulated while joining a rule's patterns, by
/// name: a short list, since a rule binds a handful of variables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bindings(Vec<(String, Value)>);

impl Bindings {
    /// No bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value bound to `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Bind `name`, replacing any earlier binding.
    pub fn insert(&mut self, name: String, v: Value) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, old)) => *old = v,
            None => self.0.push((name, v)),
        }
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Constraint on one slot of a fact.
#[derive(Clone, Debug, PartialEq)]
pub enum SlotTest {
    /// The slot must equal this constant.
    Const(Value),
    /// Bind the slot value to a variable (or require equality if the
    /// variable is already bound — CLIPS join semantics).
    Var(String),
    /// Compare the slot against a constant.
    Cmp(CmpOp, Value),
}

/// A pattern over one fact template.
#[derive(Clone, Debug, PartialEq)]
pub struct Pattern {
    /// Template the fact must have.
    pub template: String,
    /// Per-slot constraints; slots not mentioned are unconstrained.
    pub tests: Vec<(String, SlotTest)>,
}

impl Pattern {
    /// A pattern matching any fact of `template`.
    pub fn new(template: impl Into<String>) -> Self {
        Pattern {
            template: template.into(),
            tests: Vec::new(),
        }
    }

    /// Require `slot` to equal a constant.
    pub fn slot_const(mut self, slot: impl Into<String>, v: impl Into<Value>) -> Self {
        self.tests.push((slot.into(), SlotTest::Const(v.into())));
        self
    }

    /// Bind `slot` to variable `var`.
    pub fn slot_var(mut self, slot: impl Into<String>, var: impl Into<String>) -> Self {
        self.tests.push((slot.into(), SlotTest::Var(var.into())));
        self
    }

    /// Compare `slot` against a constant.
    pub fn slot_cmp(mut self, slot: impl Into<String>, op: CmpOp, v: impl Into<Value>) -> Self {
        self.tests.push((slot.into(), SlotTest::Cmp(op, v.into())));
        self
    }

    /// Try to match `fact` under existing `bindings`. On success, returns
    /// the extended bindings; the input is unchanged on failure.
    pub fn match_fact(&self, fact: &Fact, bindings: &Bindings) -> Option<Bindings> {
        if fact.template != self.template {
            return None;
        }
        self.match_slots(fact, bindings)
    }

    /// [`Pattern::match_fact`] without the template comparison — for
    /// candidates drawn from a template's alpha memory, where every fact
    /// is already of the right template.
    ///
    /// Verification is allocation-free: joins examine many candidates
    /// and reject most, so the extended binding map is only built once
    /// every test has passed. Variables bound earlier in this same
    /// pattern are visible to later tests, as before.
    pub fn match_slots(&self, fact: &Fact, bindings: &Bindings) -> Option<Bindings> {
        let mut fresh: Vec<(&String, &Value)> = Vec::new();
        for (slot, test) in &self.tests {
            let actual = fact.get(slot)?;
            match test {
                SlotTest::Const(v) => {
                    if !actual.loose_eq(v) {
                        return None;
                    }
                }
                SlotTest::Cmp(op, v) => {
                    if !op.apply(actual, v) {
                        return None;
                    }
                }
                SlotTest::Var(name) => {
                    let bound = fresh
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|&(_, v)| v)
                        .or_else(|| bindings.get(name));
                    match bound {
                        Some(bound) => {
                            if !actual.loose_eq(bound) {
                                return None;
                            }
                        }
                        None => fresh.push((name, actual)),
                    }
                }
            }
        }
        if fresh.is_empty() {
            return Some(bindings.clone());
        }
        let mut out = bindings.clone();
        for (name, v) in fresh {
            out.insert(name.clone(), v.clone());
        }
        Some(out)
    }
}

/// A term in a `test` condition or an action argument: a constant or a
/// bound variable.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// Literal value.
    Const(Value),
    /// Variable reference, resolved against the bindings at fire time.
    Var(String),
}

impl Term {
    /// Resolve against bindings. `None` if an unbound variable is named.
    pub fn resolve(&self, bindings: &Bindings) -> Option<Value> {
        match self {
            Term::Const(v) => Some(v.clone()),
            Term::Var(name) => bindings.get(name).cloned(),
        }
    }

    /// Variable constructor.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Constant constructor.
    pub fn val(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }
}

/// A boolean condition over bound variables (the CLIPS `(test ...)` CE).
#[derive(Clone, Debug, PartialEq)]
pub enum Test {
    /// Binary comparison between two terms.
    Cmp(CmpOp, Term, Term),
    /// Conjunction.
    And(Vec<Test>),
    /// Disjunction.
    Or(Vec<Test>),
    /// Negation.
    Not(Box<Test>),
}

impl Test {
    /// Evaluate under bindings; an unbound variable makes the comparison
    /// false.
    pub fn eval(&self, bindings: &Bindings) -> bool {
        match self {
            Test::Cmp(op, a, b) => match (a.resolve(bindings), b.resolve(bindings)) {
                (Some(a), Some(b)) => op.apply(&a, &b),
                _ => false,
            },
            Test::And(ts) => ts.iter().all(|t| t.eval(bindings)),
            Test::Or(ts) => ts.iter().any(|t| t.eval(bindings)),
            Test::Not(t) => !t.eval(bindings),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact() -> Fact {
        Fact::new("violation")
            .with("pid", 12)
            .with("fps", 18.5)
            .with("host", "alpha")
    }

    #[test]
    fn const_and_cmp_tests() {
        let p = Pattern::new("violation")
            .slot_const("pid", 12)
            .slot_cmp("fps", CmpOp::Lt, 23.0);
        assert!(p.match_fact(&fact(), &Bindings::new()).is_some());

        let p2 = Pattern::new("violation").slot_cmp("fps", CmpOp::Gt, 23.0);
        assert!(p2.match_fact(&fact(), &Bindings::new()).is_none());
    }

    #[test]
    fn wrong_template_or_missing_slot_fails() {
        let p = Pattern::new("cpu-load");
        assert!(p.match_fact(&fact(), &Bindings::new()).is_none());
        let p = Pattern::new("violation").slot_const("nonexistent", 1);
        assert!(p.match_fact(&fact(), &Bindings::new()).is_none());
    }

    #[test]
    fn variable_binds_and_joins() {
        let p = Pattern::new("violation").slot_var("pid", "p");
        let b = p.match_fact(&fact(), &Bindings::new()).unwrap();
        assert_eq!(b.get("p"), Some(&Value::Int(12)));

        // Join: second match must agree with the existing binding.
        let other = Fact::new("violation").with("pid", 13).with("fps", 10.0);
        assert!(
            p.match_fact(&other, &b).is_none(),
            "pid mismatch under join"
        );
        assert!(p.match_fact(&fact(), &b).is_some(), "same pid joins");
    }

    #[test]
    fn failed_match_leaves_input_bindings_unchanged() {
        let p = Pattern::new("violation")
            .slot_var("pid", "p")
            .slot_cmp("fps", CmpOp::Gt, 100.0);
        let empty = Bindings::new();
        assert!(p.match_fact(&fact(), &empty).is_none());
        assert!(empty.is_empty());
    }

    #[test]
    fn test_conditions_evaluate() {
        let mut b = Bindings::new();
        b.insert("x".into(), Value::Float(5.0));
        b.insert("y".into(), Value::Int(10));
        assert!(Test::Cmp(CmpOp::Lt, Term::var("x"), Term::var("y")).eval(&b));
        assert!(Test::And(vec![
            Test::Cmp(CmpOp::Gt, Term::var("x"), Term::val(0)),
            Test::Cmp(CmpOp::Le, Term::var("y"), Term::val(10)),
        ])
        .eval(&b));
        assert!(Test::Or(vec![
            Test::Cmp(CmpOp::Gt, Term::var("x"), Term::val(100)),
            Test::Cmp(CmpOp::Eq, Term::var("y"), Term::val(10)),
        ])
        .eval(&b));
        assert!(Test::Not(Box::new(Test::Cmp(
            CmpOp::Eq,
            Term::var("x"),
            Term::var("y")
        )))
        .eval(&b));
    }

    #[test]
    fn unbound_variable_is_false() {
        let b = Bindings::new();
        assert!(!Test::Cmp(CmpOp::Eq, Term::var("zzz"), Term::val(1)).eval(&b));
    }
}
