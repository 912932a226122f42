//! Rules: condition elements (patterns, negations, tests) plus right-hand
//! side actions, and the join algorithm that produces activations.

use crate::fact::{FactId, FactStore};
use crate::pattern::{Bindings, Pattern, Term, Test};
use crate::value::Value;

/// A condition element on a rule's left-hand side, in CLIPS order.
#[derive(Clone, Debug, PartialEq)]
pub enum Ce {
    /// A fact matching this pattern must exist.
    Pos(Pattern),
    /// No fact matching this pattern may exist (under current bindings).
    Neg(Pattern),
    /// A boolean condition over bound variables.
    Test(Test),
}

/// A right-hand-side action.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Assert a new fact built from terms.
    Assert {
        /// Template of the asserted fact.
        template: String,
        /// Slot values (constants or bound variables).
        slots: Vec<(String, Term)>,
    },
    /// Retract the fact matched by the `n`-th *positive* condition element.
    Retract(usize),
    /// Modify the fact matched by the `n`-th positive condition element:
    /// retract it and re-assert it with the given slots updated (CLIPS
    /// `modify` semantics — the new fact gets a fresh id and re-activates
    /// rules).
    Modify {
        /// Index of the positive condition element.
        pos_index: usize,
        /// Slots to overwrite (terms resolved at fire time).
        slots: Vec<(String, Term)>,
    },
    /// Emit a command invocation to the engine's outbox; the embedding
    /// component (e.g. the QoS Host Manager) interprets it — this is how
    /// rule conclusions reach resource managers.
    Call {
        /// Command name, e.g. `adjust-cpu`.
        command: String,
        /// Arguments resolved at fire time.
        args: Vec<Term>,
    },
}

/// A production rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Unique rule name.
    pub name: String,
    /// Conflict-resolution priority; higher fires first.
    pub salience: i32,
    /// Left-hand side.
    pub ces: Vec<Ce>,
    /// Right-hand side.
    pub actions: Vec<Action>,
}

impl Rule {
    /// New rule with salience 0.
    pub fn new(name: impl Into<String>) -> Self {
        Rule {
            name: name.into(),
            salience: 0,
            ces: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Set salience.
    pub fn salience(mut self, s: i32) -> Self {
        self.salience = s;
        self
    }

    /// Add a positive pattern.
    pub fn when(mut self, p: Pattern) -> Self {
        self.ces.push(Ce::Pos(p));
        self
    }

    /// Add a negated pattern.
    pub fn when_not(mut self, p: Pattern) -> Self {
        self.ces.push(Ce::Neg(p));
        self
    }

    /// Add a test condition.
    pub fn test(mut self, t: Test) -> Self {
        self.ces.push(Ce::Test(t));
        self
    }

    /// Add an assert action.
    pub fn then_assert(mut self, template: impl Into<String>, slots: Vec<(&str, Term)>) -> Self {
        self.actions.push(Action::Assert {
            template: template.into(),
            slots: slots.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        self
    }

    /// Add a retract action for the `n`-th positive pattern.
    pub fn then_retract(mut self, pos_index: usize) -> Self {
        self.actions.push(Action::Retract(pos_index));
        self
    }

    /// Add a modify action for the `n`-th positive pattern.
    pub fn then_modify(mut self, pos_index: usize, slots: Vec<(&str, Term)>) -> Self {
        self.actions.push(Action::Modify {
            pos_index,
            slots: slots.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        self
    }

    /// Add a command invocation action.
    pub fn then_call(mut self, command: impl Into<String>, args: Vec<Term>) -> Self {
        self.actions.push(Action::Call {
            command: command.into(),
            args,
        });
        self
    }

    /// Number of positive condition elements — the number of fact ids an
    /// activation of this rule records.
    pub fn pos_ce_count(&self) -> usize {
        self.ces
            .iter()
            .filter(|ce| matches!(ce, Ce::Pos(_)))
            .count()
    }

    /// Compute all complete matches of this rule against working memory.
    /// Each activation records the ids of the facts matched by positive
    /// condition elements, in order. This is the reference (full
    /// recompute, by-name bindings) join; the engine matches compiled
    /// rules incrementally and uses this one only as its naive oracle.
    pub fn activations(&self, facts: &FactStore) -> Vec<(Vec<FactId>, Bindings)> {
        self.activations_counted(facts, &mut 0)
    }

    /// [`Rule::activations`], counting into `work` every fact visited —
    /// template matches and misses alike, per condition element per
    /// partial match: what the original matcher examined each cycle.
    pub(crate) fn activations_counted(
        &self,
        facts: &FactStore,
        work: &mut u64,
    ) -> Vec<(Vec<FactId>, Bindings)> {
        // Left-to-right join. `partial` holds (matched positive fact ids,
        // bindings) tuples surviving all CEs so far.
        let mut partial: Vec<(Vec<FactId>, Bindings)> = vec![(Vec::new(), Bindings::new())];
        for ce in &self.ces {
            match ce {
                Ce::Pos(p) => {
                    let mut next = Vec::new();
                    for (ids, b) in &partial {
                        for (fid, fact) in facts.iter() {
                            *work += 1;
                            // A fact may not be matched twice by one rule
                            // instantiation.
                            if fact.template != p.template || ids.contains(&fid) {
                                continue;
                            }
                            if let Some(nb) = p.match_slots(fact, b) {
                                let mut nids = ids.clone();
                                nids.push(fid);
                                next.push((nids, nb));
                            }
                        }
                    }
                    partial = next;
                }
                Ce::Neg(p) => {
                    partial.retain(|(_, b)| {
                        let mut blocked = false;
                        for (_, fact) in facts.iter() {
                            *work += 1;
                            if fact.template == p.template && p.match_slots(fact, b).is_some() {
                                blocked = true;
                                break;
                            }
                        }
                        !blocked
                    });
                }
                Ce::Test(t) => partial.retain(|(_, b)| t.eval(b)),
            }
            if partial.is_empty() {
                break;
            }
        }
        partial
    }
}

/// A command emitted by a fired rule, to be interpreted by the embedding
/// component.
#[derive(Clone, Debug, PartialEq)]
pub struct Invocation {
    /// Command name.
    pub command: String,
    /// Resolved arguments.
    pub args: Vec<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Fact;
    use crate::value::CmpOp;

    fn store() -> FactStore {
        let mut s = FactStore::new();
        s.assert_fact(Fact::new("violation").with("pid", 1).with("fps", 15.0));
        s.assert_fact(Fact::new("violation").with("pid", 2).with("fps", 26.0));
        s.assert_fact(Fact::new("buffer").with("pid", 1).with("len", 9000));
        s.assert_fact(Fact::new("buffer").with("pid", 2).with("len", 10));
        s
    }

    #[test]
    fn single_pattern_activations() {
        let r = Rule::new("r").when(Pattern::new("violation").slot_var("pid", "p"));
        let acts = r.activations(&store());
        assert_eq!(acts.len(), 2);
    }

    #[test]
    fn join_on_shared_variable() {
        let r = Rule::new("local-cause")
            .when(Pattern::new("violation").slot_var("pid", "p"))
            .when(
                Pattern::new("buffer")
                    .slot_var("pid", "p")
                    .slot_cmp("len", CmpOp::Gt, 1000),
            );
        let acts = r.activations(&store());
        // Only pid 1 has a big buffer.
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].1.get("p"), Some(&Value::Int(1)));
        assert_eq!(acts[0].0.len(), 2, "two positive facts matched");
    }

    #[test]
    fn negation_excludes() {
        let mut s = store();
        let r = Rule::new("undiagnosed")
            .when(Pattern::new("violation").slot_var("pid", "p"))
            .when_not(Pattern::new("diagnosed").slot_var("pid", "p"));
        assert_eq!(r.activations(&s).len(), 2);
        s.assert_fact(Fact::new("diagnosed").with("pid", 1));
        let acts = r.activations(&s);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].1.get("p"), Some(&Value::Int(2)));
    }

    #[test]
    fn test_ce_filters_joins() {
        let r = Rule::new("low-fps")
            .when(
                Pattern::new("violation")
                    .slot_var("pid", "p")
                    .slot_var("fps", "f"),
            )
            .test(Test::Cmp(CmpOp::Lt, Term::var("f"), Term::val(20.0)));
        let acts = r.activations(&store());
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].1.get("p"), Some(&Value::Int(1)));
    }

    #[test]
    fn same_fact_not_matched_twice() {
        let mut s = FactStore::new();
        s.assert_fact(Fact::new("peer").with("id", 1));
        s.assert_fact(Fact::new("peer").with("id", 2));
        let r = Rule::new("pairs")
            .when(Pattern::new("peer").slot_var("id", "a"))
            .when(Pattern::new("peer").slot_var("id", "b"));
        // 2 ordered pairs (1,2) and (2,1) — never (1,1) or (2,2).
        assert_eq!(r.activations(&s).len(), 2);
    }

    #[test]
    fn empty_lhs_yields_one_activation() {
        let r = Rule::new("boot");
        let acts = r.activations(&FactStore::new());
        assert_eq!(acts.len(), 1, "a rule with no conditions fires once");
    }
}
