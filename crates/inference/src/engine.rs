//! The forward-chaining inference engine: match → conflict-resolve → act,
//! with salience, recency and refraction. A small, faithful subset of the
//! CLIPS shell the paper's prototype embedded in its QoS Host Manager.
//!
//! Matching is **incremental** (Rete-lite): rather than re-joining every
//! rule against every fact on every cycle, the engine keeps a persistent
//! agenda and updates it from the *delta* of each assert/retract —
//! template-triggered seeded joins for positive condition elements,
//! per-rule re-evaluation when a negated template changes. The original
//! full-rematch algorithm is retained behind
//! [`Engine::use_naive_matcher`] as a differential-testing oracle (and
//! as the "before" arm of the scale benchmark); both matchers produce
//! identical firing sequences.
//!
//! The incremental matcher runs on rules compiled at add time (see
//! `compiled`): numbered variables, so a partial match's bindings are a
//! frame in a reused flat buffer, and per-pattern index probes resolved
//! up front. An agenda entry is just its key — the bindings are rebuilt
//! from the matched facts when it fires — and refraction entries are
//! dropped as soon as any of their facts is retracted. One violation's
//! assert → match → fire → retract cycle thus leaves nothing behind and,
//! once the engine's buffers have grown to the working set, allocates
//! only the [`Invocation`]s it emits.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::compiled::{compile, CAction, CCe, CompiledRule};
use crate::fact::{Fact, FactId, FactStore, TemplateId};
use crate::hash::FxHashMap;
use crate::idvec::IdVec;
use crate::rule::{Invocation, Rule};
use crate::value::Value;

/// Default bound on the diagnostic firing trace (ring buffer): a
/// long-lived host manager keeps only the most recent entries.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Outcome of a call to [`Engine::run`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of rule firings.
    pub fired: u64,
    /// Number of match-resolve-act cycles executed.
    pub cycles: u64,
    /// Join work: candidate facts the matcher examined. With the default
    /// incremental matcher this counts only *delta* work — candidates
    /// examined while propagating asserts/retracts since the previous
    /// `run` returned (including propagation triggered between runs by
    /// the embedding component) plus propagation from rules fired during
    /// this run. Under [`Engine::use_naive_matcher`] it counts the full
    /// re-match the naive oracle performs every cycle, fact by fact —
    /// the two modes are directly comparable: both count facts actually
    /// examined while matching.
    pub activations: u64,
    /// Largest agenda observed (unfired activations competing in
    /// conflict resolution): the peak of the persistent agenda since the
    /// previous run with the incremental matcher, the largest per-cycle
    /// agenda with the naive oracle.
    pub peak_agenda: u64,
    /// True if the run stopped because the cycle limit was reached (a
    /// runaway rule set) rather than by quiescence.
    pub hit_limit: bool,
}

/// Per-phase wall-clock breakdown of engine work, accumulated while
/// profiling is enabled ([`Engine::enable_phase_profile`]): where does a
/// violation's budget go — matching candidates, maintaining the agenda,
/// or executing right-hand sides? Nanosecond counters are exclusive:
/// match and agenda work triggered by a fired rule's own asserts and
/// retracts is charged to those phases, not to `fire_ns`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Time joining candidate facts against rule patterns.
    pub match_ns: u64,
    /// Time inserting, diffing and popping agenda activations.
    pub agenda_ns: u64,
    /// Time executing rule right-hand sides (exclusive of the match and
    /// agenda work their actions trigger).
    pub fire_ns: u64,
}

/// Reusable join buffers. A partial match is its matched fact ids plus a
/// frame of `CompiledRule::vars` bindings; frames sit back to back in
/// one flat vector. Engine-owned and cleared between calls, so a steady
/// stream of violation asserts reuses the same heap spines.
#[derive(Debug, Default)]
struct JoinScratch {
    ids: Vec<IdVec>,
    frames: Vec<Option<Value>>,
    next_ids: Vec<IdVec>,
    next_frames: Vec<Option<Value>>,
}

/// Interned rule identifier: the rule's stable definition index. Stable
/// across removals (slots are tombstoned, never compacted), so the
/// earliest-defined-rule conflict-resolution tie-break is preserved.
type RuleIx = u32;

/// Agenda ordering key. Field order gives the conflict-resolution total
/// order lexicographically, so the agenda's largest key is exactly the
/// activation the naive matcher's `max_by_key` picks: highest salience,
/// then most recent matched fact, then earliest-defined rule, then
/// smallest fact-id vector.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct AgendaKey {
    salience: i32,
    recency: FactId,
    rule: Reverse<RuleIx>,
    ids: Reverse<IdVec>,
}

/// Rules to revisit when a fact of one template changes.
#[derive(Debug, Default)]
struct Triggers {
    /// Rules with a positive CE on the template: seeded on assert.
    pos: Vec<RuleIx>,
    /// Rules with a negated CE on it: re-evaluated on assert and retract.
    neg: Vec<RuleIx>,
}

/// A loaded rule: its source (the naive oracle matches it by name) and
/// its compiled form (shared with an in-progress firing).
#[derive(Debug)]
struct Loaded {
    source: Rule,
    compiled: Arc<CompiledRule>,
}

/// Bounded diagnostic trace: a ring buffer of the most recent entries.
/// Rule-name entries share the compiled rule's name.
#[derive(Debug)]
struct TraceBuffer {
    buf: VecDeque<Arc<str>>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer {
            buf: VecDeque::new(),
            capacity: DEFAULT_TRACE_CAPACITY,
            dropped: 0,
        }
    }
}

impl TraceBuffer {
    fn push(&mut self, entry: Arc<str>) {
        while self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(entry);
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.buf.len() > self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
    }

    fn take(&mut self) -> Vec<String> {
        self.dropped = 0;
        self.buf.drain(..).map(|e| e.to_string()).collect()
    }
}

/// The inference engine: rule base + fact repository + persistent agenda.
#[derive(Debug, Default)]
pub struct Engine {
    facts: FactStore,
    /// Rule slots by stable index; removal tombstones (`None`) so
    /// indices — and the definition-order tie-break — never shift.
    rules: Vec<Option<Loaded>>,
    /// Rule name → stable index (O(1) add/remove/replace by name).
    ix_by_name: FxHashMap<String, RuleIx>,
    live_rules: usize,
    /// Delta triggers per template, indexed by `TemplateId`.
    triggers: Vec<Triggers>,
    /// The persistent agenda: pending activations sorted ascending in
    /// conflict-resolution order, so the last entry fires next. It holds
    /// one report's activations in the managers' use, so a retraction
    /// sweeps it rather than maintaining a per-fact index.
    agenda: Vec<AgendaKey>,
    /// Refraction memory: per fact, the (rule, positive fact ids)
    /// combinations that fired with it. An entry is filed under each of
    /// its facts and dropped from all of them when any one is retracted
    /// (fact ids are never reused, so it could never match again) — a
    /// long-lived base fact accumulates nothing.
    fired: FxHashMap<FactId, Vec<(RuleIx, IdVec)>>,
    /// Rules with an empty left-hand side that have fired (their single
    /// activation mentions no fact to file it under).
    fired_empty: Vec<RuleIx>,
    /// Emptied `fired` lists kept for reuse.
    spare_lists: Vec<Vec<(RuleIx, IdVec)>>,
    /// Commands emitted by fired rules, awaiting the embedding component.
    outbox: Vec<Invocation>,
    /// Bounded diagnostic trace of fired rule names (plus warnings).
    trace: TraceBuffer,
    /// Run the naive full-rematch oracle instead of the incremental
    /// matcher.
    naive: bool,
    /// Incremental join work accumulated since the last `run` returned.
    join_work: u64,
    /// Lifetime join work, never reset (benchmark accounting).
    join_work_total: u64,
    /// Peak agenda size observed since the last `run` returned.
    peak_agenda_acc: u64,
    /// Reusable join buffers (see [`JoinScratch`]).
    scratch: JoinScratch,
    /// Reusable activation buffer for seeded joins and reconciliation.
    acts_buf: Vec<IdVec>,
    /// Reusable key buffer for reconciliation.
    keys_buf: Vec<AgendaKey>,
    /// Reusable bindings frame for firing.
    frame: Vec<Option<Value>>,
    /// Per-phase wall-clock accumulators; `None` when profiling is off
    /// (the default — no clock reads on the hot path).
    profile: Option<PhaseProfile>,
}

impl Engine {
    /// An engine with no rules and no facts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule. Replaces any existing rule with the same name in
    /// place (dynamic rule distribution: managers receive updated rules
    /// at run time), keeping its definition order and refraction history.
    pub fn add_rule(&mut self, rule: Rule) {
        let compiled = Arc::new(compile(&rule, &mut self.facts));
        let ix = match self.ix_by_name.get(&rule.name).copied() {
            Some(ix) => {
                self.unregister_triggers(ix);
                self.agenda.retain(|k| k.rule.0 != ix);
                ix
            }
            None => {
                let ix = self.rules.len() as RuleIx;
                self.ix_by_name.insert(rule.name.clone(), ix);
                self.rules.push(None);
                self.live_rules += 1;
                ix
            }
        };
        self.rules[ix as usize] = Some(Loaded {
            source: rule,
            compiled,
        });
        self.register_triggers(ix);
        if !self.naive {
            self.reconcile_rule(ix);
        }
    }

    /// Remove a rule by name; true if it existed. O(name lookup +
    /// pending activations + refraction memory).
    pub fn remove_rule(&mut self, name: &str) -> bool {
        let Some(ix) = self.ix_by_name.remove(name) else {
            return false;
        };
        self.unregister_triggers(ix);
        self.agenda.retain(|k| k.rule.0 != ix);
        self.rules[ix as usize] = None;
        self.live_rules -= 1;
        self.fired_empty.retain(|&r| r != ix);
        let spare = &mut self.spare_lists;
        self.fired.retain(|_, list| {
            list.retain(|(r, _)| *r != ix);
            if list.is_empty() {
                spare.push(std::mem::take(list));
                return false;
            }
            true
        });
        true
    }

    /// Number of rules loaded.
    pub fn rule_count(&self) -> usize {
        self.live_rules
    }

    /// Names of loaded rules, in definition order.
    pub fn rule_names(&self) -> impl Iterator<Item = &str> {
        self.rules
            .iter()
            .filter_map(|r| r.as_ref().map(|r| r.source.name.as_str()))
    }

    /// Assert a fact into working memory; the delta propagates through
    /// every rule whose condition elements mention its template.
    pub fn assert_fact(&mut self, fact: Fact) -> FactId {
        let (id, fresh, tid) = self.facts.assert_fact_interned(fact);
        if fresh && !self.naive {
            self.propagate_assert(id, tid);
        }
        id
    }

    /// Retract a fact: its activations leave the agenda, refraction
    /// entries that reference it are dropped (fact ids are never reused,
    /// so they could never match again), and rules with negated patterns
    /// on its template are re-evaluated (a retraction can *satisfy* a
    /// negation).
    pub fn retract(&mut self, id: FactId) -> Option<Fact> {
        let (fact, tid) = self.facts.retract_interned(id)?;
        self.forget_fired(id);
        if !self.naive {
            if !self.agenda.is_empty() {
                self.agenda.retain(|k| !k.ids.0.contains(id));
            }
            for k in 0..self.triggers.get(tid.0 as usize).map_or(0, |t| t.neg.len()) {
                let ix = self.triggers[tid.0 as usize].neg[k];
                self.reconcile_rule(ix);
            }
        }
        Some(fact)
    }

    /// Retract all facts of a template (e.g. clearing stale telemetry
    /// before asserting a fresh report).
    pub fn retract_template(&mut self, template: &str) -> usize {
        let ids: Vec<FactId> = self.facts.by_template(template).map(|(id, _)| id).collect();
        let n = ids.len();
        for id in ids {
            self.retract(id);
        }
        n
    }

    /// Retract all facts of `template` whose `slot` equals `value`
    /// (e.g. clearing a process's stale telemetry before asserting a
    /// fresh report). Returns how many facts were retracted.
    pub fn retract_matching(&mut self, template: &str, slot: &str, value: &Value) -> usize {
        let ids: Vec<FactId> = self
            .facts
            .by_template(template)
            .filter(|(_, f)| f.get(slot).is_some_and(|v| v.loose_eq(value)))
            .map(|(id, _)| id)
            .collect();
        let n = ids.len();
        for id in ids {
            self.retract(id);
        }
        n
    }

    /// Working-memory access.
    pub fn facts(&self) -> &FactStore {
        &self.facts
    }

    /// Drain the commands emitted by fired rules since the last drain.
    pub fn take_invocations(&mut self) -> Vec<Invocation> {
        std::mem::take(&mut self.outbox)
    }

    /// The retained diagnostic trace (most recent
    /// [`DEFAULT_TRACE_CAPACITY`] entries unless resized), oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &str> {
        self.trace.buf.iter().map(|e| &**e)
    }

    /// Drain the retained trace, resetting the dropped-entry counter.
    pub fn take_trace(&mut self) -> Vec<String> {
        self.trace.take()
    }

    /// Trace entries evicted from the bounded buffer since the last
    /// [`Engine::take_trace`].
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped
    }

    /// Resize the trace ring buffer (minimum 1), evicting the oldest
    /// entries if it shrinks.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// Switch between the incremental matcher (default) and the naive
    /// full-rematch oracle. Switching back to incremental rebuilds the
    /// agenda from scratch, so the toggle is safe at any point; the two
    /// modes produce identical firing sequences.
    pub fn use_naive_matcher(&mut self, on: bool) {
        if self.naive == on {
            return;
        }
        self.naive = on;
        self.agenda.clear();
        if on {
            self.peak_agenda_acc = 0;
        } else {
            for ix in 0..self.rules.len() as RuleIx {
                if self.rules[ix as usize].is_some() {
                    self.reconcile_rule(ix);
                }
            }
        }
    }

    /// Is the naive full-rematch oracle active?
    pub fn naive_matcher(&self) -> bool {
        self.naive
    }

    /// Lifetime join work — candidate facts examined by the matcher
    /// since the engine was created (never reset; the per-run delta is
    /// [`RunStats::activations`]).
    pub fn join_work_total(&self) -> u64 {
        self.join_work_total
    }

    /// Turn per-phase wall-clock profiling on or off. Off (the default)
    /// costs nothing; on, the engine reads the monotonic clock a handful
    /// of times per propagation and firing. Turning it off discards any
    /// accumulated counters.
    pub fn enable_phase_profile(&mut self, on: bool) {
        if on {
            if self.profile.is_none() {
                self.profile = Some(PhaseProfile::default());
            }
        } else {
            self.profile = None;
        }
    }

    /// The per-phase counters accumulated so far (zero when profiling is
    /// disabled).
    pub fn phase_profile(&self) -> PhaseProfile {
        self.profile.unwrap_or_default()
    }

    /// Drain the per-phase counters, resetting them to zero (profiling
    /// stays enabled if it was).
    pub fn take_phase_profile(&mut self) -> PhaseProfile {
        match self.profile.as_mut() {
            Some(p) => std::mem::take(p),
            None => PhaseProfile::default(),
        }
    }

    #[inline]
    fn prof_now(&self) -> Option<std::time::Instant> {
        self.profile.is_some().then(std::time::Instant::now)
    }

    #[inline]
    fn prof_add_match(&mut self, t0: Option<std::time::Instant>) {
        if let (Some(p), Some(t)) = (self.profile.as_mut(), t0) {
            p.match_ns += t.elapsed().as_nanos() as u64;
        }
    }

    #[inline]
    fn prof_add_agenda(&mut self, t0: Option<std::time::Instant>) {
        if let (Some(p), Some(t)) = (self.profile.as_mut(), t0) {
            p.agenda_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// Fire with exclusive `fire_ns` accounting: match and agenda work
    /// triggered by the rule's own asserts/retracts lands in those
    /// counters while firing, so it is subtracted from the wall time
    /// charged to the fire phase.
    fn fire_timed(&mut self, ix: RuleIx, fact_ids: &[FactId]) {
        let Some(before) = self.profile else {
            self.fire(ix, fact_ids);
            return;
        };
        let t = std::time::Instant::now();
        self.fire(ix, fact_ids);
        let elapsed = t.elapsed().as_nanos() as u64;
        if let Some(p) = self.profile.as_mut() {
            let nested = (p.match_ns - before.match_ns) + (p.agenda_ns - before.agenda_ns);
            p.fire_ns += elapsed.saturating_sub(nested);
        }
    }

    /// Run match-resolve-act cycles until quiescence or `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> RunStats {
        if self.naive {
            return self.run_naive(max_cycles);
        }
        let mut stats = RunStats::default();
        self.peak_agenda_acc = self.peak_agenda_acc.max(self.agenda.len() as u64);
        loop {
            if stats.cycles >= max_cycles {
                stats.hit_limit = true;
                break;
            }
            stats.cycles += 1;
            let t_agenda = self.prof_now();
            let Some(key) = self.agenda.pop() else {
                break;
            };
            self.prof_add_agenda(t_agenda);
            let ix = key.rule.0;
            let ids = key.ids.0;
            self.record_fired(ix, &ids);
            stats.fired += 1;
            self.fire_timed(ix, ids.as_slice());
        }
        stats.activations = std::mem::take(&mut self.join_work);
        stats.peak_agenda = std::mem::take(&mut self.peak_agenda_acc);
        stats
    }

    /// The original per-cycle full-rematch loop, kept as the
    /// differential-testing oracle and benchmark baseline: it re-joins
    /// every rule's *source* form by name ([`Rule::activations`]) over
    /// the whole working memory each cycle. Join work counts every fact
    /// examined while re-matching.
    fn run_naive(&mut self, max_cycles: u64) -> RunStats {
        let mut stats = RunStats::default();
        loop {
            if stats.cycles >= max_cycles {
                stats.hit_limit = true;
                return stats;
            }
            stats.cycles += 1;
            let t_match = self.prof_now();
            let mut work = 0u64;
            let mut agenda = 0u64;
            type NaiveKey = (i32, FactId, Reverse<RuleIx>, Reverse<Vec<FactId>>);
            let mut best: Option<NaiveKey> = None;
            for (ix, slot) in self.rules.iter().enumerate() {
                let Some(loaded) = slot else { continue };
                let rule = &loaded.source;
                let ix = ix as RuleIx;
                for (ids, _) in rule.activations_counted(&self.facts, &mut work) {
                    if self.refracted(ix, &ids) {
                        continue;
                    }
                    agenda += 1;
                    let recency = ids.iter().copied().max().unwrap_or(FactId(0));
                    let key = (rule.salience, recency, Reverse(ix), Reverse(ids));
                    if best.as_ref().is_none_or(|bk| key > *bk) {
                        best = Some(key);
                    }
                }
            }
            self.prof_add_match(t_match);
            self.join_work_total += work;
            stats.activations += work;
            stats.peak_agenda = stats.peak_agenda.max(agenda);
            let Some((_, _, Reverse(ix), Reverse(ids))) = best else {
                return stats;
            };
            self.record_fired(ix, &IdVec::from_slice(&ids));
            stats.fired += 1;
            self.fire_timed(ix, &ids);
        }
    }

    // --- Incremental matching internals. ---

    fn register_triggers(&mut self, ix: RuleIx) {
        let c = Arc::clone(compiled_of(&self.rules, ix));
        for (tmpls, neg) in [(&c.pos_tmpls, false), (&c.neg_tmpls, true)] {
            for t in tmpls {
                let t = t.0 as usize;
                if self.triggers.len() <= t {
                    self.triggers.resize_with(t + 1, Triggers::default);
                }
                let list = if neg {
                    &mut self.triggers[t].neg
                } else {
                    &mut self.triggers[t].pos
                };
                if !list.contains(&ix) {
                    list.push(ix);
                }
            }
        }
    }

    fn unregister_triggers(&mut self, ix: RuleIx) {
        for t in &mut self.triggers {
            t.pos.retain(|&r| r != ix);
            t.neg.retain(|&r| r != ix);
        }
    }

    fn agenda_insert(&mut self, key: AgendaKey) {
        if let Err(at) = self.agenda.binary_search(&key) {
            self.agenda.insert(at, key);
            self.peak_agenda_acc = self.peak_agenda_acc.max(self.agenda.len() as u64);
        }
    }

    fn note_work(&mut self, work: u64) {
        self.join_work += work;
        self.join_work_total += work;
    }

    /// A freshly asserted fact: re-evaluate rules negating its template
    /// (an assert can *invalidate* activations), then run seeded joins
    /// for rules with positive patterns on it — only combinations
    /// containing the new fact are examined.
    fn propagate_assert(&mut self, id: FactId, tid: TemplateId) {
        let t = tid.0 as usize;
        let Some(trig) = self.triggers.get(t) else {
            return;
        };
        let (n_neg, n_pos) = (trig.neg.len(), trig.pos.len());
        for k in 0..n_neg {
            let ix = self.triggers[t].neg[k];
            self.reconcile_rule(ix);
        }
        for k in 0..n_pos {
            let ix = self.triggers[t].pos[k];
            if self.triggers[t].neg.contains(&ix) {
                continue; // already fully re-evaluated
            }
            self.seed_rule(ix, tid, id);
        }
    }

    /// Seeded join: compute exactly the activations of `ix` that match
    /// the new fact, once per positive CE of its template (an activation
    /// contains the new fact at exactly one position, so each is
    /// produced exactly once).
    fn seed_rule(&mut self, ix: RuleIx, tid: TemplateId, seed: FactId) {
        let t_match = self.prof_now();
        let mut acts = std::mem::take(&mut self.acts_buf);
        acts.clear();
        let mut work = 0u64;
        let rule = compiled_of(&self.rules, ix);
        let mut pos_ix = 0usize;
        for ce in &rule.ces {
            if let CCe::Pos(p) = ce {
                if p.tid == tid {
                    join(
                        rule,
                        &self.facts,
                        Some((pos_ix, seed)),
                        &mut work,
                        &mut self.scratch,
                        &mut acts,
                    );
                }
                pos_ix += 1;
            }
        }
        let salience = rule.salience;
        self.prof_add_match(t_match);
        self.note_work(work);
        let t_agenda = self.prof_now();
        for ids in acts.drain(..) {
            // The activation contains the brand-new fact, so it can be in
            // neither the refraction memory nor the agenda already.
            self.agenda_insert(make_key(ix, salience, ids));
        }
        self.acts_buf = acts;
        self.prof_add_agenda(t_agenda);
    }

    /// Fully re-evaluate one rule and diff the result against its agenda
    /// entries (the fallback for negated templates, rule replacement and
    /// matcher-mode switches, where a delta is not monotone).
    fn reconcile_rule(&mut self, ix: RuleIx) {
        let t_match = self.prof_now();
        let mut acts = std::mem::take(&mut self.acts_buf);
        acts.clear();
        let mut work = 0u64;
        let rule = compiled_of(&self.rules, ix);
        join(
            rule,
            &self.facts,
            None,
            &mut work,
            &mut self.scratch,
            &mut acts,
        );
        let salience = rule.salience;
        self.prof_add_match(t_match);
        self.note_work(work);
        let t_agenda = self.prof_now();
        let mut fresh = std::mem::take(&mut self.keys_buf);
        fresh.clear();
        fresh.extend(acts.drain(..).map(|ids| make_key(ix, salience, ids)));
        fresh.sort_unstable();
        self.agenda
            .retain(|k| k.rule.0 != ix || fresh.binary_search(k).is_ok());
        for key in fresh.drain(..) {
            if !self.refracted(ix, key.ids.0.as_slice()) {
                self.agenda_insert(key);
            }
        }
        self.keys_buf = fresh;
        self.acts_buf = acts;
        self.prof_add_agenda(t_agenda);
    }

    /// Has this (rule, facts) combination already fired?
    fn refracted(&self, ix: RuleIx, ids: &[FactId]) -> bool {
        match ids.first() {
            None => self.fired_empty.contains(&ix),
            Some(id) => self
                .fired
                .get(id)
                .is_some_and(|list| list.iter().any(|(r, v)| *r == ix && v.as_slice() == ids)),
        }
    }

    fn record_fired(&mut self, ix: RuleIx, ids: &IdVec) {
        if ids.is_empty() {
            self.fired_empty.push(ix);
            return;
        }
        for &id in ids.as_slice() {
            let spare = &mut self.spare_lists;
            self.fired
                .entry(id)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push((ix, ids.clone()));
        }
    }

    /// Drop every refraction entry mentioning a retracted fact, from the
    /// lists of all the facts it was filed under.
    fn forget_fired(&mut self, id: FactId) {
        let Some(mut list) = self.fired.remove(&id) else {
            return;
        };
        for (ix, ids) in list.drain(..) {
            for &other in ids.as_slice() {
                if other == id {
                    continue;
                }
                if let Some(others) = self.fired.get_mut(&other) {
                    if let Some(at) = others.iter().position(|(r, v)| *r == ix && *v == ids) {
                        others.swap_remove(at);
                    }
                    if others.is_empty() {
                        let emptied = self.fired.remove(&other).expect("just seen");
                        self.spare_lists.push(emptied);
                    }
                }
            }
        }
        self.spare_lists.push(list);
    }

    fn fire(&mut self, ix: RuleIx, fact_ids: &[FactId]) {
        let rule = Arc::clone(compiled_of(&self.rules, ix));
        self.trace.push(Arc::clone(&rule.name));
        let mut frame = std::mem::take(&mut self.frame);
        rule.bind(&self.facts, fact_ids, &mut frame);
        for action in &rule.actions {
            match action {
                CAction::Assert { template, slots } => {
                    let mut fact = Fact::new(template.as_str());
                    for (slot, term) in slots {
                        match term.resolve(&frame) {
                            Some(v) => {
                                fact.slots.insert(slot.clone(), v.clone());
                            }
                            None => {
                                // Unbound variable in RHS: record and skip
                                // the slot rather than aborting the run.
                                self.trace.push(Arc::from(format!(
                                    "warning: unbound variable in assert of ({template})"
                                )));
                            }
                        }
                    }
                    self.assert_fact(fact);
                }
                CAction::Retract(pos_ix) => {
                    if let Some(&id) = fact_ids.get(*pos_ix) {
                        self.retract(id);
                    }
                }
                CAction::Modify { pos_index, slots } => {
                    if let Some(&id) = fact_ids.get(*pos_index) {
                        if let Some(mut fact) = self.retract(id) {
                            for (slot, term) in slots {
                                if let Some(v) = term.resolve(&frame) {
                                    fact.slots.insert(slot.clone(), v.clone());
                                }
                            }
                            self.assert_fact(fact);
                        }
                    }
                }
                CAction::Call { command, args } => {
                    let args = args
                        .iter()
                        .filter_map(|t| t.resolve(&frame).cloned())
                        .collect();
                    self.outbox.push(Invocation {
                        command: command.clone(),
                        args,
                    });
                }
            }
        }
        self.frame = frame;
    }
}

/// The compiled form of a live rule (a free function, so callers can
/// borrow other engine fields mutably alongside it).
fn compiled_of(rules: &[Option<Loaded>], ix: RuleIx) -> &Arc<CompiledRule> {
    &rules[ix as usize].as_ref().expect("live rule").compiled
}

fn make_key(ix: RuleIx, salience: i32, ids: IdVec) -> AgendaKey {
    AgendaKey {
        salience,
        recency: ids.recency(),
        rule: Reverse(ix),
        ids: Reverse(ids),
    }
}

/// Left-to-right join of a compiled rule, optionally pinning one
/// positive CE position to a single seed fact. `work` counts every
/// candidate fact examined. Appends the fact ids of complete matches to
/// `out`; the partial matches live in `scratch` and are reused across
/// calls.
fn join(
    rule: &CompiledRule,
    facts: &FactStore,
    seed: Option<(usize, FactId)>,
    work: &mut u64,
    scratch: &mut JoinScratch,
    out: &mut Vec<IdVec>,
) {
    let JoinScratch {
        ids,
        frames,
        next_ids,
        next_frames,
    } = scratch;
    let n = rule.vars;
    ids.clear();
    frames.clear();
    ids.push(IdVec::new());
    frames.resize(n, None);
    let mut pos_ix = 0usize;
    for ce in &rule.ces {
        match ce {
            CCe::Pos(p) => {
                let pinned = seed.and_then(|(s_pos, s_id)| (s_pos == pos_ix).then_some(s_id));
                next_ids.clear();
                next_frames.clear();
                for (r, matched) in ids.iter().enumerate() {
                    let frame = &frames[r * n..(r + 1) * n];
                    let candidates = match &pinned {
                        Some(s_id) => std::slice::from_ref(s_id),
                        None => p.candidates(frame, facts),
                    };
                    for &fid in candidates {
                        *work += 1;
                        if matched.contains(fid) {
                            // A fact may not be matched twice by one rule
                            // instantiation.
                            continue;
                        }
                        let fact = facts.get(fid).expect("candidate ids are live");
                        let start = next_frames.len();
                        next_frames.extend_from_slice(frame);
                        if p.match_into(fact, &mut next_frames[start..]) {
                            let mut extended = matched.clone();
                            extended.push(fid);
                            next_ids.push(extended);
                        } else {
                            next_frames.truncate(start);
                        }
                    }
                }
                std::mem::swap(ids, next_ids);
                std::mem::swap(frames, next_frames);
                pos_ix += 1;
            }
            CCe::Neg(p) => retain_partials(ids, frames, n, |frame| {
                for &fid in p.candidates(frame, facts) {
                    *work += 1;
                    let fact = facts.get(fid).expect("candidate ids are live");
                    if p.match_into(fact, frame) {
                        return false;
                    }
                }
                true
            }),
            CCe::Test(t) => retain_partials(ids, frames, n, |frame| t.eval(frame)),
        }
        if ids.is_empty() {
            return;
        }
    }
    out.append(ids);
}

/// Keep the partial matches whose frame passes `keep`, in order,
/// compacting ids and frames in place (frames move, never clone).
fn retain_partials(
    ids: &mut Vec<IdVec>,
    frames: &mut Vec<Option<Value>>,
    n: usize,
    mut keep: impl FnMut(&mut [Option<Value>]) -> bool,
) {
    let mut kept = 0;
    for r in 0..ids.len() {
        if keep(&mut frames[r * n..(r + 1) * n]) {
            if kept != r {
                ids.swap(kept, r);
                for k in 0..n {
                    frames.swap(kept * n + k, r * n + k);
                }
            }
            kept += 1;
        }
    }
    ids.truncate(kept);
    frames.truncate(kept * n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Pattern, Term, Test};
    use crate::value::CmpOp;

    /// The paper's canonical host-manager rule pair (Section 5.3): a large
    /// communication buffer implies a local CPU problem; a small one
    /// implies the problem is remote.
    fn host_manager_rules() -> Vec<Rule> {
        vec![
            Rule::new("local-cpu-cause")
                .when(
                    Pattern::new("violation")
                        .slot_var("pid", "p")
                        .slot_var("buffer", "b"),
                )
                .test(Test::Cmp(CmpOp::Gt, Term::var("b"), Term::val(1000)))
                .then_call("adjust-cpu", vec![Term::var("p")])
                .then_assert(
                    "diagnosed",
                    vec![("pid", Term::var("p")), ("cause", Term::val("local"))],
                ),
            Rule::new("remote-cause")
                .when(
                    Pattern::new("violation")
                        .slot_var("pid", "p")
                        .slot_var("buffer", "b"),
                )
                .test(Test::Cmp(CmpOp::Le, Term::var("b"), Term::val(1000)))
                .then_call("notify-domain", vec![Term::var("p")])
                .then_assert(
                    "diagnosed",
                    vec![("pid", Term::var("p")), ("cause", Term::val("remote"))],
                ),
        ]
    }

    #[test]
    fn forward_chaining_diagnoses_local_vs_remote() {
        let mut e = Engine::new();
        for r in host_manager_rules() {
            e.add_rule(r);
        }
        e.assert_fact(Fact::new("violation").with("pid", 1).with("buffer", 50_000));
        e.assert_fact(Fact::new("violation").with("pid", 2).with("buffer", 12));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        assert!(!stats.hit_limit);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 2);
        assert!(inv
            .iter()
            .any(|i| i.command == "adjust-cpu" && i.args == vec![Value::Int(1)]));
        assert!(inv
            .iter()
            .any(|i| i.command == "notify-domain" && i.args == vec![Value::Int(2)]));
        // Derived facts exist.
        assert_eq!(e.facts().by_template("diagnosed").count(), 2);
    }

    #[test]
    fn refraction_prevents_refiring() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("a").slot_var("x", "x"))
                .then_call("hit", vec![Term::var("x")]),
        );
        e.assert_fact(Fact::new("a").with("x", 1));
        assert_eq!(e.run(100).fired, 1);
        // Re-running without new facts fires nothing.
        assert_eq!(e.run(100).fired, 0);
        // A new fact re-activates.
        e.assert_fact(Fact::new("a").with("x", 2));
        assert_eq!(e.run(100).fired, 1);
        assert_eq!(e.take_invocations().len(), 2);
    }

    #[test]
    fn retract_reassert_refires() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("a").slot_const("x", 1))
                .then_call("hit", vec![]),
        );
        let id = e.assert_fact(Fact::new("a").with("x", 1));
        assert_eq!(e.run(100).fired, 1);
        e.retract(id);
        e.assert_fact(Fact::new("a").with("x", 1));
        assert_eq!(e.run(100).fired, 1, "fresh fact id clears refraction");
    }

    #[test]
    fn salience_orders_firing() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("low")
                .salience(-10)
                .when(Pattern::new("go"))
                .then_call("low", vec![]),
        );
        e.add_rule(
            Rule::new("high")
                .salience(10)
                .when(Pattern::new("go"))
                .then_call("high", vec![]),
        );
        e.assert_fact(Fact::new("go"));
        e.run(100);
        let order: Vec<String> = e
            .take_invocations()
            .into_iter()
            .map(|i| i.command)
            .collect();
        assert_eq!(order, vec!["high", "low"]);
    }

    #[test]
    fn chained_inference_via_asserted_facts() {
        // a -> b -> c chain: forward chaining derives transitively.
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("a-to-b")
                .when(Pattern::new("a").slot_var("v", "v"))
                .then_assert("b", vec![("v", Term::var("v"))]),
        );
        e.add_rule(
            Rule::new("b-to-c")
                .when(Pattern::new("b").slot_var("v", "v"))
                .then_assert("c", vec![("v", Term::var("v"))]),
        );
        e.assert_fact(Fact::new("a").with("v", 7));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        let c: Vec<_> = e.facts().by_template("c").collect();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].1.get("v"), Some(&Value::Int(7)));
    }

    #[test]
    fn retract_action_consumes_trigger() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("consume")
                .when(Pattern::new("event").slot_var("n", "n"))
                .then_retract(0)
                .then_call("handled", vec![Term::var("n")]),
        );
        e.assert_fact(Fact::new("event").with("n", 1));
        e.assert_fact(Fact::new("event").with("n", 2));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        assert_eq!(e.facts().by_template("event").count(), 0, "events consumed");
    }

    #[test]
    fn cycle_limit_stops_runaway_rules() {
        // A rule that keeps asserting new facts forever.
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("runaway")
                .when(Pattern::new("n").slot_var("v", "v"))
                .then_retract(0)
                .then_assert("n", vec![("v", Term::var("v"))]),
        );
        // retract+assert same content gets a fresh id each cycle -> loops.
        e.assert_fact(Fact::new("n").with("v", 0));
        let stats = e.run(50);
        assert!(stats.hit_limit);
        assert_eq!(stats.cycles, 50);
    }

    #[test]
    fn dynamic_rule_replacement_and_removal() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("go"))
                .then_call("v1", vec![]),
        );
        // Replace in place (same name).
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("go"))
                .then_call("v2", vec![]),
        );
        assert_eq!(e.rule_count(), 1);
        e.assert_fact(Fact::new("go"));
        e.run(10);
        assert_eq!(e.take_invocations()[0].command, "v2");
        assert!(e.remove_rule("r"));
        assert!(!e.remove_rule("r"));
        assert_eq!(e.rule_count(), 0);
    }

    #[test]
    fn run_stats_count_join_work() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("job").slot_var("id", "i"))
                .then_call("work", vec![Term::var("i")]),
        );
        e.assert_fact(Fact::new("job").with("id", 1));
        e.assert_fact(Fact::new("job").with("id", 2));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        // Delta join work: each assert runs one seeded join examining
        // exactly the new fact; firing asserts nothing, so 1 + 1.
        assert_eq!(stats.activations, 2);
        assert_eq!(stats.peak_agenda, 2);
        // Quiescent re-run does no join work.
        let idle = e.run(100);
        assert_eq!(idle.activations, 0);
        assert_eq!(idle.peak_agenda, 0);
        // The lifetime counter keeps the total.
        assert_eq!(e.join_work_total(), 2);
    }

    #[test]
    fn recency_prefers_newer_facts() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("job").slot_var("id", "i"))
                .then_call("work", vec![Term::var("i")]),
        );
        e.assert_fact(Fact::new("job").with("id", 1));
        e.assert_fact(Fact::new("job").with("id", 2));
        e.run(100);
        let order: Vec<Value> = e
            .take_invocations()
            .into_iter()
            .map(|mut i| i.args.remove(0))
            .collect();
        assert_eq!(order, vec![Value::Int(2), Value::Int(1)], "newest first");
    }

    #[test]
    fn empty_lhs_rule_fires_once() {
        let mut e = Engine::new();
        e.add_rule(Rule::new("boot").then_call("boot", vec![]));
        assert_eq!(e.run(10).fired, 1);
        assert_eq!(e.run(10).fired, 0, "refraction holds with no facts");
        assert_eq!(e.take_invocations().len(), 1);
    }

    #[test]
    fn negation_tracks_asserts_and_retracts_incrementally() {
        // Non-monotone deltas: an *assert* can remove an activation and
        // a *retract* can create one.
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("uncovered")
                .when(Pattern::new("task").slot_var("id", "t"))
                .when_not(Pattern::new("done").slot_var("id", "t"))
                .then_call("pending", vec![Term::var("t")]),
        );
        e.assert_fact(Fact::new("task").with("id", 1));
        let done = e.assert_fact(Fact::new("done").with("id", 1));
        assert_eq!(e.run(100).fired, 0, "assert of blocker removed activation");
        e.retract(done);
        assert_eq!(e.run(100).fired, 1, "retract of blocker re-activated");
        // A fresh blocker suppresses the next task before it fires.
        e.assert_fact(Fact::new("done").with("id", 2));
        e.assert_fact(Fact::new("task").with("id", 2));
        assert_eq!(e.run(100).fired, 0);
    }

    #[test]
    fn trace_is_bounded_and_drainable() {
        let mut e = Engine::new();
        e.set_trace_capacity(4);
        e.add_rule(
            Rule::new("consume")
                .when(Pattern::new("event").slot_var("n", "n"))
                .then_retract(0),
        );
        for n in 0..10 {
            e.assert_fact(Fact::new("event").with("n", n));
        }
        assert_eq!(e.run(100).fired, 10);
        assert_eq!(e.trace().count(), 4, "ring buffer keeps the last K");
        assert_eq!(e.trace_dropped(), 6);
        let drained = e.take_trace();
        assert_eq!(drained.len(), 4);
        assert!(drained.iter().all(|t| t == "consume"));
        assert_eq!(e.trace().count(), 0);
        assert_eq!(e.trace_dropped(), 0);
    }

    #[test]
    fn phase_profile_accumulates_and_drains() {
        let mut e = Engine::new();
        e.enable_phase_profile(true);
        for r in host_manager_rules() {
            e.add_rule(r);
        }
        e.assert_fact(Fact::new("violation").with("pid", 1).with("buffer", 5_000));
        e.assert_fact(Fact::new("violation").with("pid", 2).with("buffer", 10));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        let p = e.take_phase_profile();
        assert!(
            p.match_ns + p.agenda_ns + p.fire_ns > 0,
            "profiling accumulated some wall time: {p:?}"
        );
        assert_eq!(e.take_phase_profile(), PhaseProfile::default(), "drained");
        // Disabled profiling reports zeros and costs nothing.
        e.enable_phase_profile(false);
        e.assert_fact(Fact::new("violation").with("pid", 3).with("buffer", 70));
        e.run(100);
        assert_eq!(e.phase_profile(), PhaseProfile::default());
    }

    /// The host manager's shipped rule base and base facts
    /// (`host_rules_fair` + `host_base_facts` in qos-manager).
    const HOST_RULES_FAIR: &str = r#"
        (defrule local-cpu-starvation (declare (salience 10))
          (violation (pid ?p) (fps ?f) (lo ?lo) (buffer ?b) (weight ?w))
          (threshold (name buffer-cutoff) (value ?bt))
          (test (< ?f ?lo)) (test (> ?b ?bt))
          => (call adjust-cpu ?p ?f ?lo 1) (retract 0))
        (defrule remote-cause (declare (salience 10))
          (violation (pid ?p) (fps ?f) (lo ?lo) (buffer ?b) (has-upstream true))
          (threshold (name buffer-cutoff) (value ?bt))
          (test (< ?f ?lo)) (test (<= ?b ?bt))
          => (call notify-domain ?p ?f) (retract 0))
        (defrule local-fallback
          (violation (pid ?p) (fps ?f) (lo ?lo) (has-upstream false))
          (test (< ?f ?lo))
          => (call adjust-cpu ?p ?f ?lo 1) (retract 0))
        (defrule response-time-slow (declare (salience 22))
          (violation (pid ?p) (attr response_time) (fps ?v) (hi ?hi) (weight ?w))
          (test (> ?v ?hi))
          => (call nudge-cpu ?p ?w) (retract 0))
        (defrule over-achieving (declare (salience 20))
          (violation (pid ?p) (fps ?f) (hi ?hi))
          (test (> ?f ?hi))
          => (call relax-cpu ?p ?f ?hi) (retract 0))
        (defrule memory-shortfall (declare (salience 30))
          (mem-deficit (pid ?p) (pages ?n))
          (test (> ?n 0))
          => (call adjust-memory ?p ?n) (retract 0))
        (defrule unhandled-violation (declare (salience -10))
          (violation (pid ?p))
          => (call unhandled-violation ?p) (retract 0))
        (deffacts thresholds (threshold (name buffer-cutoff) (value 1000)))
    "#;

    #[test]
    fn host_rule_churn_keeps_memory_bounded() {
        // The threshold fact is asserted first and stays live forever,
        // and every starvation firing joins it. 100k violations over all
        // four live diagnosis paths must leave the fact storage and the
        // refraction memory as small as they were after the first few.
        let program = crate::clips::parse_program(HOST_RULES_FAIR).unwrap();
        let mut e = Engine::new();
        for r in program.rules {
            e.add_rule(r);
        }
        for f in program.facts {
            e.assert_fact(f);
        }
        let mut seen = std::collections::BTreeMap::new();
        let (mut peak_store, mut peak_fired) = (0, 0);
        for i in 0..100_000u64 {
            // (fps, buffer): starvation, fallback, over-achieving, in-band.
            let (fps, buffer) =
                [(15.0, 5_000.0), (15.0, 10.0), (35.0, 10.0), (25.0, 10.0)][(i % 4) as usize];
            e.assert_fact(
                Fact::new("violation")
                    .with("pid", Value::str(format!("h0:p{}", i % 8)))
                    .with("fps", fps + (i % 3) as f64 * 0.25)
                    .with("lo", 23.0)
                    .with("hi", 27.0)
                    .with("buffer", buffer)
                    .with("weight", 1.0)
                    .with("has-upstream", false),
            );
            assert_eq!(e.run(100).fired, 1, "one diagnosis per violation");
            for inv in e.take_invocations() {
                *seen.entry(inv.command).or_insert(0u64) += 1;
            }
            peak_store = peak_store.max(e.facts.footprint());
            peak_fired =
                peak_fired.max(e.fired.len() + e.fired.values().map(Vec::len).sum::<usize>());
        }
        assert_eq!(seen["adjust-cpu"], 50_000, "starvation + fallback");
        assert_eq!(seen["relax-cpu"], 25_000);
        assert_eq!(seen["unhandled-violation"], 25_000);
        assert_eq!(e.facts().len(), 1, "only the threshold stays");
        assert!(e.agenda.is_empty());
        assert!(
            peak_store <= 64,
            "fact storage peaked at {peak_store} entries"
        );
        assert!(
            peak_fired <= 4,
            "refraction memory peaked at {peak_fired} entries"
        );
        assert!(e.fired.is_empty(), "nothing filed under the threshold");
        assert!(e.spare_lists.len() <= 4);
    }

    /// Mirror of the scenario mix in the differential proptest, as a fast
    /// deterministic check: both matchers must fire identically.
    #[test]
    fn naive_oracle_and_incremental_matcher_agree() {
        let build = |naive: bool| {
            let mut e = Engine::new();
            e.use_naive_matcher(naive);
            e.set_trace_capacity(1024);
            for r in host_manager_rules() {
                e.add_rule(r);
            }
            e.add_rule(
                Rule::new("undiagnosed")
                    .salience(-5)
                    .when(Pattern::new("violation").slot_var("pid", "p"))
                    .when_not(Pattern::new("diagnosed").slot_var("pid", "p"))
                    .then_call("undiagnosed", vec![Term::var("p")]),
            );
            let a = e.assert_fact(Fact::new("violation").with("pid", 1).with("buffer", 9000));
            e.assert_fact(Fact::new("violation").with("pid", 2).with("buffer", 10));
            e.run(100);
            e.retract(a);
            e.assert_fact(Fact::new("violation").with("pid", 3).with("buffer", 2_000));
            e.run(100);
            (
                e.take_trace(),
                e.take_invocations(),
                e.facts().by_template("diagnosed").count(),
            )
        };
        let (naive_trace, naive_inv, naive_facts) = build(true);
        let (rete_trace, rete_inv, rete_facts) = build(false);
        assert_eq!(naive_trace, rete_trace);
        assert_eq!(naive_inv, rete_inv);
        assert_eq!(naive_facts, rete_facts);
    }
}
