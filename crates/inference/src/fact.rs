//! Facts and the working memory (fact repository).
//!
//! The store keeps an **alpha memory** per template — the interned
//! template name maps to the ordered list of live fact ids of that
//! template — so template-scoped access ([`FactStore::by_template`],
//! duplicate detection, the engine's incremental matcher) touches only
//! the facts that can possibly match instead of scanning the whole
//! working memory.
//!
//! Storage is deliberately **flat** and its footprint follows the *live*
//! facts, not the lifetime assert count. Facts live in an id-sorted slab
//! (ids are monotonic and never reused, so appending keeps it sorted and
//! lookup is a binary search); a retraction leaves a tombstone, and once
//! tombstones outnumber live entries the slab is compacted in one pass.
//! A long-lived base fact (a host manager's `threshold`) therefore pins
//! nothing: one violation asserted and retracted per report leaves no
//! trace. Each alpha memory is a sorted `Vec<FactId>` (appending a fresh
//! id keeps it sorted; removal is a binary search plus a contiguous
//! shift), and duplicate detection is a per-template fingerprint index
//! instead of a linear slot-comparison scan.
//!
//! On top of the alpha memories sits an **equality-join index**
//! ([`FactStore::ids_with_slot`]): per template, for each slot that some
//! rule pattern can probe ([`FactStore::index_slot`]), a map from a loose
//! value key to the sorted live ids holding that value. Slots no pattern
//! probes are not indexed at all. The engine probes the index when a
//! condition element pins a slot to a constant or an already-bound
//! variable, shrinking a join from "every fact of the template" to
//! "facts whose slot can satisfy the test". The key hashes Int and Float
//! through the same normalized f64 bits so it agrees with `loose_eq`
//! (probing with `Int(3)` finds `Float(3.0)`); collisions only widen the
//! candidate list, never narrow it, and every candidate is re-verified
//! against the full pattern.
//!
//! Every map here hashes with the crate's Fx hasher, and index buckets
//! hold up to four ids inline, so asserting and retracting a fact does
//! no heap work once the maps have grown to the working set.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::hash::{FxHashMap, FxHasher};
use crate::idvec::IdVec;
use crate::value::Value;

/// Identifies an asserted fact. Monotonically increasing; used for the
/// agenda's recency ordering.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FactId(pub u64);

/// An interned template name: a small integer symbol, stable for the
/// life of the store (templates are never un-interned, even when their
/// last fact is retracted). Rules cache these so matching compares u32s
/// rather than strings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TemplateId(pub u32);

/// A structured fact: a template name plus named slots, e.g.
/// `(violation (pid 12) (frame-rate 18.5))`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fact {
    /// Template (relation) name.
    pub template: String,
    /// Named slot values, kept sorted for deterministic display.
    pub slots: BTreeMap<String, Value>,
}

impl Fact {
    /// Start building a fact for a template.
    pub fn new(template: impl Into<String>) -> Self {
        Fact {
            template: template.into(),
            slots: BTreeMap::new(),
        }
    }

    /// Builder-style slot insertion.
    pub fn with(mut self, slot: impl Into<String>, value: impl Into<Value>) -> Self {
        self.slots.insert(slot.into(), value.into());
        self
    }

    /// Read a slot.
    pub fn get(&self, slot: &str) -> Option<&Value> {
        self.slots.get(slot)
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.template)?;
        for (k, v) in &self.slots {
            write!(f, " ({k} {v})")?;
        }
        write!(f, ")")
    }
}

/// Hash a fact's slots for the duplicate index. Consistent with the
/// derived slot equality used by duplicate suppression: equal slot maps
/// fingerprint equal (floats normalize `-0.0` to `0.0`, which `f64`
/// equality treats as equal).
fn slots_fingerprint(slots: &BTreeMap<String, Value>) -> u64 {
    let mut h = FxHasher::default();
    slots.len().hash(&mut h);
    for (k, v) in slots {
        k.hash(&mut h);
        v.hash_strict(&mut h);
    }
    h.finish()
}

/// A live fact with what retraction needs, computed once at assert.
#[derive(Debug)]
struct Stored {
    tid: TemplateId,
    /// Slot fingerprint (the duplicate-index key).
    fp: u64,
    fact: Fact,
}

/// The memories of one template.
#[derive(Debug, Default)]
struct TemplateMem {
    name: String,
    /// Alpha memory: live fact ids in assertion order (ids are
    /// monotonic, so the list stays sorted).
    alpha: Vec<FactId>,
    /// Duplicate index: slot fingerprint → the live ids carrying it
    /// (almost always one; collisions fall back to a slot comparison).
    dup: FxHashMap<u64, IdVec>,
    /// Equality-join index for the probed slots only: slot name → loose
    /// value key → sorted live ids whose slot carries that value.
    probes: Vec<(String, FxHashMap<u64, IdVec>)>,
}

/// Slab capacity a sweep keeps however few facts are live, so a store
/// that empties and refills does not reallocate.
const MIN_CAPACITY: usize = 16;

/// Working memory: the engine's fact repository, indexed by template.
#[derive(Debug, Default)]
pub struct FactStore {
    /// Fact slab sorted by id: live facts and tombstones (`None`) left by
    /// retraction, swept in bulk by [`FactStore::sweep`].
    slab: Vec<(FactId, Option<Stored>)>,
    /// Tombstones currently in `slab`.
    dead: usize,
    /// The next fresh id.
    next_id: u64,
    /// Live fact count.
    live: usize,
    /// Interner: template name → symbol.
    tmpl_ids: FxHashMap<String, TemplateId>,
    /// Per-template memories, indexed by `TemplateId`.
    tmpls: Vec<TemplateMem>,
}

impl FactStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a template name, creating the symbol (and an empty alpha
    /// memory) on first sight.
    pub fn intern_template(&mut self, name: &str) -> TemplateId {
        if let Some(&tid) = self.tmpl_ids.get(name) {
            return tid;
        }
        let tid = TemplateId(self.tmpls.len() as u32);
        self.tmpl_ids.insert(name.to_string(), tid);
        self.tmpls.push(TemplateMem {
            name: name.to_string(),
            ..TemplateMem::default()
        });
        tid
    }

    /// Look up a template symbol without interning.
    pub fn template_id(&self, name: &str) -> Option<TemplateId> {
        self.tmpl_ids.get(name).copied()
    }

    /// The name behind a template symbol.
    pub fn template_name(&self, tid: TemplateId) -> &str {
        &self.tmpls[tid.0 as usize].name
    }

    /// The alpha memory of a template: live fact ids in assertion order.
    pub fn ids_of(&self, tid: TemplateId) -> &[FactId] {
        self.tmpls
            .get(tid.0 as usize)
            .map_or(&[], |m| m.alpha.as_slice())
    }

    /// Facts of one template by symbol, in assertion order.
    pub fn facts_of(&self, tid: TemplateId) -> impl Iterator<Item = (FactId, &Fact)> {
        self.ids_of(tid)
            .iter()
            .map(move |&id| (id, self.get(id).expect("alpha ids are live")))
    }

    /// Index `slot` of template `tid` for equality probes, backfilling
    /// the index from the facts already live. Idempotent. Returns the
    /// slot's position among the template's probed slots (the engine's
    /// compiled patterns probe by position).
    pub fn index_slot(&mut self, tid: TemplateId, slot: &str) -> usize {
        let mem = &self.tmpls[tid.0 as usize];
        if let Some(pos) = mem.probes.iter().position(|(s, _)| s == slot) {
            return pos;
        }
        let mut by_val: FxHashMap<u64, IdVec> = FxHashMap::default();
        for &id in &mem.alpha {
            let fact = &self.slab[self.pos(id).expect("alpha ids are live")].1;
            if let Some(v) = fact.as_ref().and_then(|s| s.fact.get(slot)) {
                by_val.entry(v.loose_key()).or_default().push(id);
            }
        }
        let probes = &mut self.tmpls[tid.0 as usize].probes;
        probes.push((slot.to_string(), by_val));
        probes.len() - 1
    }

    /// Candidate live ids of `tid` facts whose `slot` holds a value
    /// loosely equal to `v` (numeric coercion applies: probing with
    /// `Int(3)` finds facts holding `Float(3.0)`), in assertion order.
    /// Only slots declared with [`FactStore::index_slot`] are indexed;
    /// any other slot yields nothing. The bucket is keyed by hash, so
    /// rare collisions can surface non-matching ids — callers must
    /// re-verify each candidate against the pattern, exactly as they
    /// would after an alpha-memory scan.
    pub fn ids_with_slot(&self, tid: TemplateId, slot: &str, v: &Value) -> &[FactId] {
        self.tmpls
            .get(tid.0 as usize)
            .and_then(|m| m.probes.iter().position(|(s, _)| s == slot))
            .map_or(&[], |probe| self.ids_probed(tid, probe, v))
    }

    /// [`FactStore::ids_with_slot`] by probe position (as returned by
    /// [`FactStore::index_slot`]) — no slot-name comparison.
    pub(crate) fn ids_probed(&self, tid: TemplateId, probe: usize, v: &Value) -> &[FactId] {
        self.tmpls[tid.0 as usize].probes[probe]
            .1
            .get(&v.loose_key())
            .map_or(&[], IdVec::as_slice)
    }

    /// Assert a fact. Duplicate facts (same template and slots) are not
    /// re-asserted; the existing id is returned, mirroring CLIPS's
    /// duplicate-fact suppression.
    pub fn assert_fact(&mut self, fact: Fact) -> (FactId, bool) {
        let (id, fresh, _) = self.assert_fact_interned(fact);
        (id, fresh)
    }

    /// [`FactStore::assert_fact`], additionally returning the fact's
    /// template symbol (the engine's delta propagation keys on it).
    /// Duplicate detection is one fingerprint lookup, independent of how
    /// many facts of the template are live.
    pub fn assert_fact_interned(&mut self, fact: Fact) -> (FactId, bool, TemplateId) {
        let tid = self.intern_template(&fact.template);
        let fp = slots_fingerprint(&fact.slots);
        if let Some(ids) = self.tmpls[tid.0 as usize].dup.get(&fp) {
            for &id in ids.as_slice() {
                if self.get(id).is_some_and(|f| f.slots == fact.slots) {
                    return (id, false, tid);
                }
            }
        }
        let id = FactId(self.next_id);
        self.next_id += 1;
        let mem = &mut self.tmpls[tid.0 as usize];
        for (slot, by_val) in &mut mem.probes {
            if let Some(v) = fact.slots.get(slot.as_str()) {
                by_val.entry(v.loose_key()).or_default().push(id);
            }
        }
        mem.alpha.push(id);
        mem.dup.entry(fp).or_default().push(id);
        self.slab.push((id, Some(Stored { tid, fp, fact })));
        self.live += 1;
        (id, true, tid)
    }

    /// Retract a fact by id; returns it if present.
    pub fn retract(&mut self, id: FactId) -> Option<Fact> {
        self.retract_interned(id).map(|(fact, _)| fact)
    }

    /// [`FactStore::retract`], additionally returning the template
    /// symbol of the retracted fact.
    pub fn retract_interned(&mut self, id: FactId) -> Option<(Fact, TemplateId)> {
        let pos = self.pos(id)?;
        let Stored { tid, fp, fact } = self.slab[pos].1.take()?;
        self.live -= 1;
        self.dead += 1;
        let mem = &mut self.tmpls[tid.0 as usize];
        if let Ok(at) = mem.alpha.binary_search(&id) {
            mem.alpha.remove(at);
        }
        unindex(&mut mem.dup, fp, id);
        for (slot, by_val) in &mut mem.probes {
            if let Some(v) = fact.slots.get(slot.as_str()) {
                unindex(by_val, v.loose_key(), id);
            }
        }
        self.sweep();
        Some((fact, tid))
    }

    /// Look up a fact.
    pub fn get(&self, id: FactId) -> Option<&Fact> {
        self.slab[self.pos(id)?].1.as_ref().map(|s| &s.fact)
    }

    /// Number of live facts.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no facts are asserted.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate facts in assertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.slab
            .iter()
            .filter_map(|(id, s)| s.as_ref().map(|s| (*id, &s.fact)))
    }

    /// Iterate facts of one template, in assertion order (via the
    /// template's alpha memory — no full-store scan).
    pub fn by_template<'a>(
        &'a self,
        template: &str,
    ) -> impl Iterator<Item = (FactId, &'a Fact)> + 'a {
        self.template_id(template)
            .into_iter()
            .flat_map(move |tid| self.facts_of(tid))
    }

    /// Remove every fact of a template; returns how many were retracted.
    pub fn retract_template(&mut self, template: &str) -> usize {
        let Some(tid) = self.template_id(template) else {
            return 0;
        };
        let mem = &mut self.tmpls[tid.0 as usize];
        let ids = std::mem::take(&mut mem.alpha);
        mem.dup.clear();
        for (_, by_val) in &mut mem.probes {
            by_val.clear();
        }
        for &id in &ids {
            if let Some(pos) = self.pos(id) {
                if self.slab[pos].1.take().is_some() {
                    self.live -= 1;
                    self.dead += 1;
                }
            }
        }
        self.sweep();
        ids.len()
    }

    /// Slab position of a live or tombstoned id.
    fn pos(&self, id: FactId) -> Option<usize> {
        self.slab.binary_search_by_key(&id, |e| e.0).ok()
    }

    /// Drop the tombstones once they outnumber the live entries, so the
    /// slab holds at most about twice the live facts whatever their ids;
    /// release spare capacity left behind by a burst. A sweep costs
    /// O(slab) and follows at least as many retractions, so retraction
    /// stays amortized O(1).
    fn sweep(&mut self) {
        if self.dead * 2 <= self.slab.len() {
            return;
        }
        self.slab.retain(|(_, s)| s.is_some());
        self.dead = 0;
        let floor = 2 * self.slab.len().max(MIN_CAPACITY);
        if self.slab.capacity() > 2 * floor {
            self.slab.shrink_to(floor);
        }
    }

    /// Entries held across the slab and every index — the store's
    /// footprint in units that do not depend on fact size.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        self.slab.len()
            + self
                .tmpls
                .iter()
                .map(|m| {
                    m.alpha.len()
                        + m.dup.len()
                        + m.probes.iter().map(|(_, b)| b.len()).sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// Remove `id` from an index bucket, dropping the bucket once empty.
fn unindex(index: &mut FxHashMap<u64, IdVec>, key: u64, id: FactId) {
    if let Some(ids) = index.get_mut(&key) {
        ids.remove(id);
        if ids.is_empty() {
            index.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(pid: i64, fps: f64) -> Fact {
        Fact::new("violation").with("pid", pid).with("fps", fps)
    }

    #[test]
    fn assert_and_get() {
        let mut s = FactStore::new();
        let (id, fresh) = s.assert_fact(violation(1, 20.0));
        assert!(fresh);
        assert_eq!(s.get(id).unwrap().get("pid"), Some(&Value::Int(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn duplicate_facts_not_reasserted() {
        let mut s = FactStore::new();
        let (a, fresh_a) = s.assert_fact(violation(1, 20.0));
        let (b, fresh_b) = s.assert_fact(violation(1, 20.0));
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn negative_zero_slot_is_a_duplicate_of_zero() {
        // 0.0 == -0.0 under f64 equality, so the fingerprint index must
        // agree with the slot comparison it fronts.
        let mut s = FactStore::new();
        let (a, _) = s.assert_fact(Fact::new("m").with("v", 0.0));
        let (b, fresh) = s.assert_fact(Fact::new("m").with("v", -0.0));
        assert!(!fresh);
        assert_eq!(a, b);
    }

    #[test]
    fn int_and_float_slots_are_distinct_facts() {
        // Duplicate suppression uses strict slot equality: Int(3) and
        // Float(3.0) are different facts even though they loose_eq.
        let mut s = FactStore::new();
        let (_, fresh_a) = s.assert_fact(Fact::new("m").with("v", 3i64));
        let (_, fresh_b) = s.assert_fact(Fact::new("m").with("v", 3.0));
        assert!(fresh_a);
        assert!(fresh_b);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn retract_then_reassert_gets_new_id() {
        let mut s = FactStore::new();
        let (a, _) = s.assert_fact(violation(1, 20.0));
        assert!(s.retract(a).is_some());
        assert!(s.retract(a).is_none());
        let (b, fresh) = s.assert_fact(violation(1, 20.0));
        assert!(fresh);
        assert_ne!(a, b, "ids are never reused");
    }

    #[test]
    fn by_template_filters() {
        let mut s = FactStore::new();
        s.assert_fact(violation(1, 20.0));
        s.assert_fact(violation(2, 25.0));
        s.assert_fact(Fact::new("cpu-load").with("host", "a").with("load", 3.0));
        assert_eq!(s.by_template("violation").count(), 2);
        assert_eq!(s.by_template("cpu-load").count(), 1);
        assert_eq!(s.by_template("nothing").count(), 0);
    }

    #[test]
    fn retract_template_bulk() {
        let mut s = FactStore::new();
        s.assert_fact(violation(1, 20.0));
        s.assert_fact(violation(2, 25.0));
        s.assert_fact(Fact::new("other"));
        assert_eq!(s.retract_template("violation"), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn display_is_clips_like() {
        let f = violation(1, 20.0);
        assert_eq!(f.to_string(), "(violation (fps 20) (pid 1))");
    }

    #[test]
    fn eq_join_index_probes_with_numeric_coercion() {
        // `loose_eq` coerces Int and Float, so the index key must too:
        // probing with Int(1) finds a fact whose slot holds Float(1.0).
        let mut s = FactStore::new();
        let tid = s.intern_template("m");
        s.index_slot(tid, "pid");
        let (a, _) = s.assert_fact(Fact::new("m").with("pid", 1.0).with("x", "p"));
        let (b, _) = s.assert_fact(Fact::new("m").with("pid", 2i64).with("x", "q"));
        assert_eq!(s.ids_with_slot(tid, "pid", &Value::Int(1)), &[a]);
        assert_eq!(s.ids_with_slot(tid, "pid", &Value::Float(2.0)), &[b]);
        assert_eq!(
            s.ids_with_slot(tid, "pid", &Value::Int(3)),
            &[] as &[FactId]
        );
        assert_eq!(
            s.ids_with_slot(tid, "nope", &Value::Int(1)),
            &[] as &[FactId]
        );
    }

    #[test]
    fn eq_join_index_tracks_retract() {
        let mut s = FactStore::new();
        let tid = s.intern_template("violation");
        s.index_slot(tid, "fps");
        s.index_slot(tid, "pid");
        let (a, _) = s.assert_fact(violation(1, 20.0));
        let (b, _) = s.assert_fact(violation(2, 20.0));
        assert_eq!(s.ids_with_slot(tid, "fps", &Value::Float(20.0)), &[a, b]);
        s.retract(a);
        assert_eq!(s.ids_with_slot(tid, "fps", &Value::Float(20.0)), &[b]);
        assert_eq!(
            s.ids_with_slot(tid, "pid", &Value::Int(1)),
            &[] as &[FactId]
        );
        s.retract(b);
        assert_eq!(
            s.ids_with_slot(tid, "fps", &Value::Float(20.0)),
            &[] as &[FactId]
        );
    }

    #[test]
    fn eq_join_index_cleared_by_retract_template() {
        let mut s = FactStore::new();
        let tid = s.intern_template("violation");
        s.index_slot(tid, "pid");
        s.assert_fact(violation(1, 20.0));
        s.assert_fact(violation(2, 25.0));
        s.retract_template("violation");
        assert_eq!(
            s.ids_with_slot(tid, "pid", &Value::Int(1)),
            &[] as &[FactId]
        );
        let (c, _) = s.assert_fact(violation(3, 30.0));
        assert_eq!(s.ids_with_slot(tid, "pid", &Value::Int(3)), &[c]);
    }

    #[test]
    fn alpha_memory_tracks_assert_and_retract() {
        let mut s = FactStore::new();
        let (a, _, tid) = s.assert_fact_interned(violation(1, 20.0));
        let (b, _) = s.assert_fact(violation(2, 25.0));
        assert_eq!(s.template_id("violation"), Some(tid));
        assert_eq!(s.template_name(tid), "violation");
        let ids: Vec<FactId> = s.ids_of(tid).to_vec();
        assert_eq!(ids, vec![a, b], "assertion order preserved");
        s.retract(a);
        assert!(!s.ids_of(tid).contains(&a));
        assert!(s.ids_of(tid).contains(&b));
        // The symbol survives the last retraction.
        s.retract(b);
        assert_eq!(s.template_id("violation"), Some(tid));
        assert_eq!(s.ids_of(tid).len(), 0);
    }

    #[test]
    fn index_slot_backfills_live_facts_and_skips_unprobed_slots() {
        let mut s = FactStore::new();
        let (a, _, tid) = s.assert_fact_interned(violation(1, 20.0));
        let (b, _) = s.assert_fact(violation(2, 20.0));
        // Nothing probes `fps` yet, so nothing indexes it.
        assert_eq!(
            s.ids_with_slot(tid, "fps", &Value::Float(20.0)),
            &[] as &[FactId]
        );
        let probe = s.index_slot(tid, "fps");
        assert_eq!(s.index_slot(tid, "fps"), probe, "idempotent");
        assert_eq!(s.ids_probed(tid, probe, &Value::Int(20)), &[a, b]);
        let (c, _) = s.assert_fact(violation(3, 20.0));
        assert_eq!(s.ids_with_slot(tid, "fps", &Value::Float(20.0)), &[a, b, c]);
    }

    #[test]
    fn slab_reclaims_dead_prefix() {
        // A long-lived assert/retract churn (one violation per report)
        // must not grow the slab with the lifetime assert count.
        let mut s = FactStore::new();
        for i in 0..1_000 {
            let (id, fresh) = s.assert_fact(violation(i, i as f64 + 0.5));
            assert!(fresh);
            s.retract(id);
        }
        assert!(s.is_empty());
        assert!(
            s.slab.len() <= 1,
            "dead prefix reclaimed, slab holds {} slots",
            s.slab.len()
        );
        assert_eq!(s.next_id, 1_000, "the id counter tracks the retired span");
        // Fresh ids continue monotonically after reclamation.
        let (id, _) = s.assert_fact(violation(7, 7.0));
        assert_eq!(id, FactId(1_000));
        assert_eq!(s.get(id).unwrap().get("pid"), Some(&Value::Int(7)));
    }

    #[test]
    fn footprint_stays_bounded_with_a_pinned_base_fact() {
        // A base fact asserted first and never retracted (a host
        // manager's threshold) holds the lowest live id. Churn behind it
        // must still leave the footprint O(live), not O(asserts).
        let mut s = FactStore::new();
        let tid = s.intern_template("violation");
        s.index_slot(tid, "pid");
        let (base, _) = s.assert_fact(Fact::new("threshold").with("value", 1000.0));
        let mut peak = 0;
        for i in 0..100_000 {
            let (id, fresh) = s.assert_fact(violation(i % 7, i as f64 + 0.5));
            assert!(fresh);
            s.retract(id);
            peak = peak.max(s.footprint());
        }
        assert_eq!(s.len(), 1);
        assert!(peak <= 12, "footprint peaked at {peak} entries");
        assert!(s.slab.capacity() <= 4 * MIN_CAPACITY);
        assert_eq!(
            s.get(base).unwrap().get("value"),
            Some(&Value::Float(1000.0))
        );
        let (id, _) = s.assert_fact(violation(7, 7.0));
        assert_eq!(id, FactId(100_001), "ids stay monotonic, never reused");
        assert_eq!(s.iter().map(|(id, _)| id).collect::<Vec<_>>(), [base, id]);
    }
}
