//! Lazy, chunked fault sources — the streaming half of the error
//! model.
//!
//! A [`FaultSource`] is a pull-based producer of [`GeneratedFault`]s:
//! consumers ask for the next *chunk* (a bounded batch) instead of a
//! fully materialized `Vec`, so a campaign's memory stays proportional
//! to the chunk size rather than the fault-space size. Sources compose
//! like iterators — [`chain`](FaultSourceExt::chain),
//! [`take`](FaultSourceExt::take),
//! [`sample`](FaultSourceExt::sample) and the cartesian
//! [`product`](FaultSourceExt::product) — which is what lets a
//! million-fault campaign (e.g. every pair of two plugins' fault
//! loads) be *described* in O(1) memory and *enumerated* lazily by the
//! campaign executor.
//!
//! Every adapter is exactly equivalent to its eager counterpart: a
//! source enumerates the same faults in the same order as collecting
//! the inputs into `Vec`s and transforming those, regardless of the
//! chunk sizes a consumer pulls with (property-tested in
//! `tests/proptest_source.rs`).
//!
//! # Examples
//!
//! ```
//! use conferr_model::{EagerSource, FaultSource, FaultSourceExt, GeneratedFault};
//! # use conferr_model::{ErrorClass, FaultScenario, TypoKind};
//! # fn fault(id: &str) -> GeneratedFault {
//! #     GeneratedFault::Scenario(FaultScenario {
//! #         id: id.to_string(),
//! #         description: String::new(),
//! #         class: ErrorClass::Typo(TypoKind::Omission),
//! #         edits: vec![],
//! #     })
//! # }
//! let a = EagerSource::new(vec![fault("a0"), fault("a1"), fault("a2")]);
//! let b = EagerSource::new(vec![fault("b0")]);
//! // Lazily: a's faults, then b's, capped at 3 — nothing is
//! // materialized until pulled.
//! let mut source = a.chain(b).take(3);
//! assert_eq!(source.size_hint(), (3, Some(3)));
//! let mut out = Vec::new();
//! while source.next_chunk(2, &mut out).unwrap() > 0 {}
//! let ids: Vec<&str> = out.iter().map(|f| f.id()).collect();
//! assert_eq!(ids, ["a0", "a1", "a2"]);
//! ```

use std::fmt;

use crate::{ConfigSet, ErrorGenerator, FaultScenario, GenerateError, GeneratedFault};

/// A pull-based, chunked producer of faults.
///
/// The contract mirrors `Iterator`, batched:
///
/// * `next_chunk(max, out)` appends **at most** `max` faults to `out`
///   and returns how many it appended. `max` is a ceiling, not a
///   demand — a source may return fewer even when more remain.
/// * Returning `0` means the source is exhausted and must keep
///   returning `0` forever.
/// * Enumeration order is fixed: the faults appended across all calls,
///   concatenated, are independent of the `max` values used.
///
/// # Errors
///
/// `next_chunk` fails when the underlying generator fails outright
/// (the streaming analogue of [`ErrorGenerator::generate`] returning
/// `Err`); faults already pulled stay valid.
pub trait FaultSource {
    /// Appends up to `max` faults to `out`, returning the number
    /// appended (`0` = exhausted). `max` is clamped to at least 1.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError`] when fault production itself fails.
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError>;

    /// Bounds on the number of faults remaining, `Iterator`-style:
    /// `(lower, upper)` with `upper = None` meaning unknown.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

impl<S: FaultSource + ?Sized> FaultSource for &mut S {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        (**self).next_chunk(max, out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }
}

impl<S: FaultSource + ?Sized> FaultSource for Box<S> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        (**self).next_chunk(max, out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }
}

/// A boxed, thread-transferable fault source — the shape the campaign
/// executor's streaming batch entries take.
pub type BoxFaultSource = Box<dyn FaultSource + Send>;

/// Combinator methods on every sized [`FaultSource`] (the streaming
/// analogue of the eager template combinators
/// [`crate::Union`]/[`crate::Sample`]/[`crate::Limit`]).
pub trait FaultSourceExt: FaultSource + Sized {
    /// This source's faults, then `other`'s.
    fn chain<B: FaultSource>(self, other: B) -> ChainSource<Self, B> {
        ChainSource {
            a: Some(self),
            b: other,
        }
    }

    /// At most the first `n` faults.
    fn take(self, n: usize) -> TakeSource<Self> {
        TakeSource {
            inner: self,
            remaining: n,
        }
    }

    /// A seeded Bernoulli sample: fault `i` of the inner enumeration
    /// is kept iff [`sample_keeps`]`(seed, i, rate)`. Deterministic
    /// and chunk-size independent — the decision depends only on the
    /// fault's global index.
    fn sample(self, seed: u64, rate: f64) -> SampleSource<Self> {
        SampleSource {
            inner: self,
            seed,
            rate,
            index: 0,
            scratch: Vec::new(),
        }
    }

    /// Everything after the first `n` faults. The skipped prefix is
    /// still *generated* (then discarded), so positions keep their
    /// global meaning — which is exactly what checkpoint resume
    /// needs: re-run the same source with the completed prefix
    /// skipped and the surviving faults line up index-for-index with
    /// the uninterrupted run.
    fn skip(self, n: usize) -> SkipSource<Self> {
        SkipSource {
            inner: self,
            to_skip: n,
            scratch: Vec::new(),
        }
    }

    /// The cartesian product of this source with `right`: for each of
    /// this source's faults `a` (streamed one at a time), every
    /// `right` fault `b` yields [`combine_faults`]`(a, b)` (pairs
    /// involving an inexpressible half are skipped). `right` is
    /// materialized once — memory is O(|right|), never O(|left| ×
    /// |right|).
    fn product<B: FaultSource>(self, right: B) -> ProductSource<Self, B> {
        ProductSource {
            left: self,
            right: Some(right),
            right_faults: Vec::new(),
            current: None,
            right_pos: 0,
        }
    }

    /// Drains the source to a `Vec` — the eager adapter used by
    /// fixed-signature entry points and equivalence tests.
    ///
    /// # Errors
    ///
    /// Propagates the first production failure.
    fn collect_all(mut self) -> Result<Vec<GeneratedFault>, GenerateError> {
        let mut out = Vec::new();
        while self.next_chunk(DEFAULT_PULL, &mut out)? > 0 {}
        Ok(out)
    }
}

impl<S: FaultSource + Sized> FaultSourceExt for S {}

/// Chunk size [`FaultSourceExt::collect_all`] drains with.
const DEFAULT_PULL: usize = 64;

/// An already-materialized fault list as a source — the adapter that
/// keeps every eager entry point working on the streaming path.
#[derive(Debug)]
pub struct EagerSource {
    faults: std::vec::IntoIter<GeneratedFault>,
}

impl EagerSource {
    /// Wraps an eager fault load.
    pub fn new(faults: Vec<GeneratedFault>) -> Self {
        EagerSource {
            faults: faults.into_iter(),
        }
    }
}

impl FaultSource for EagerSource {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        let before = out.len();
        out.extend(self.faults.by_ref().take(max.max(1)));
        Ok(out.len() - before)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.faults.len();
        (n, Some(n))
    }
}

/// Lazily runs an [`ErrorGenerator`] against a baseline: `generate` is
/// deferred until the first chunk is pulled, so a chain of generator
/// sources produces each plugin's load only when the campaign reaches
/// it — generation overlaps injection instead of preceding it.
///
/// The baseline [`ConfigSet`] is cloned into the source (reference
/// bumps on the `Arc`-backed trees, not deep copies), so the source is
/// `'static` and can cross into executor worker threads.
pub struct GeneratorSource<G> {
    state: GeneratorState<G>,
}

enum GeneratorState<G> {
    /// `generate` not yet called.
    Pending { generator: G, baseline: ConfigSet },
    /// The generated load, being drained.
    Draining(std::vec::IntoIter<GeneratedFault>),
    /// Exhausted, or the generator failed (errors are not retried).
    Done,
}

impl<G: ErrorGenerator> GeneratorSource<G> {
    /// Defers `generator.generate(baseline)` until the first pull.
    pub fn new(generator: G, baseline: &ConfigSet) -> Self {
        GeneratorSource {
            state: GeneratorState::Pending {
                generator,
                baseline: baseline.clone(),
            },
        }
    }
}

impl<G> fmt::Debug for GeneratorSource<G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match &self.state {
            GeneratorState::Pending { .. } => "pending",
            GeneratorState::Draining(_) => "draining",
            GeneratorState::Done => "done",
        };
        f.debug_struct("GeneratorSource")
            .field("state", &state)
            .finish()
    }
}

impl<G: ErrorGenerator> FaultSource for GeneratorSource<G> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        if let GeneratorState::Pending { .. } = self.state {
            let GeneratorState::Pending {
                generator,
                baseline,
            } = std::mem::replace(&mut self.state, GeneratorState::Done)
            else {
                unreachable!("matched Pending above");
            };
            self.state = GeneratorState::Draining(generator.generate(&baseline)?.into_iter());
        }
        match &mut self.state {
            GeneratorState::Draining(iter) => {
                let before = out.len();
                out.extend(iter.by_ref().take(max.max(1)));
                let n = out.len() - before;
                if n == 0 {
                    self.state = GeneratorState::Done;
                }
                Ok(n)
            }
            GeneratorState::Done => Ok(0),
            GeneratorState::Pending { .. } => unreachable!("resolved above"),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.state {
            GeneratorState::Pending { .. } => (0, None),
            GeneratorState::Draining(iter) => (iter.len(), Some(iter.len())),
            GeneratorState::Done => (0, Some(0)),
        }
    }
}

/// Turns any sized [`ErrorGenerator`] into a lazy source against a
/// baseline — the blanket adapter every plugin gets for free.
pub trait IntoFaultSource: ErrorGenerator + Sized {
    /// Consumes the generator into a [`GeneratorSource`]; `generate`
    /// runs on the first pull.
    fn into_source(self, baseline: &ConfigSet) -> GeneratorSource<Self> {
        GeneratorSource::new(self, baseline)
    }
}

impl<G: ErrorGenerator + Sized> IntoFaultSource for G {}

/// Debug-build invariant check tying [`FaultSource::size_hint`] to
/// what a pull actually produced: the hint's bounds must be ordered,
/// and a single `next_chunk` can never yield more faults than the
/// hint's upper bound promised were left. Compiled out of release
/// builds; the combinator tests and proptests run debug.
fn debug_check_hint(hint: (usize, Option<usize>), pulled: usize) {
    let (lo, hi) = hint;
    if let Some(hi) = hi {
        debug_assert!(
            lo <= hi,
            "size_hint lower bound {lo} exceeds upper bound {hi}"
        );
        debug_assert!(
            pulled <= hi,
            "next_chunk produced {pulled} faults but size_hint promised at most {hi}"
        );
    }
}

/// See [`FaultSourceExt::chain`].
#[derive(Debug)]
pub struct ChainSource<A, B> {
    /// `None` once exhausted.
    a: Option<A>,
    b: B,
}

impl<A: FaultSource, B: FaultSource> FaultSource for ChainSource<A, B> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        let max = max.max(1);
        let hint = self.size_hint();
        let before = out.len();
        if let Some(a) = &mut self.a {
            a.next_chunk(max, out)?;
            if out.len() > before {
                debug_check_hint(hint, out.len() - before);
                return Ok(out.len() - before);
            }
            self.a = None;
        }
        self.b.next_chunk(max, out)?;
        debug_check_hint(hint, out.len() - before);
        Ok(out.len() - before)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (al, au) = self.a.as_ref().map_or((0, Some(0)), FaultSource::size_hint);
        let (bl, bu) = self.b.size_hint();
        let upper = match (au, bu) {
            (Some(a), Some(b)) => a.checked_add(b),
            _ => None,
        };
        (al.saturating_add(bl), upper)
    }
}

/// See [`FaultSourceExt::take`].
#[derive(Debug)]
pub struct TakeSource<S> {
    inner: S,
    remaining: usize,
}

impl<S: FaultSource> FaultSource for TakeSource<S> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        let max = max.max(1).min(self.remaining);
        if max == 0 {
            return Ok(0);
        }
        let hint = self.size_hint();
        let before = out.len();
        self.inner.next_chunk(max, out)?;
        out.truncate(before + max);
        let n = out.len() - before;
        debug_check_hint(hint, n);
        self.remaining -= n;
        Ok(n)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lower, upper) = self.inner.size_hint();
        (
            lower.min(self.remaining),
            Some(upper.map_or(self.remaining, |u| u.min(self.remaining))),
        )
    }
}

/// See [`FaultSourceExt::skip`].
#[derive(Debug)]
pub struct SkipSource<S> {
    inner: S,
    to_skip: usize,
    /// Reused discard buffer for the prefix drain.
    scratch: Vec<GeneratedFault>,
}

impl<S: FaultSource> FaultSource for SkipSource<S> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        while self.to_skip > 0 {
            self.scratch.clear();
            let pull = self.to_skip.min(DEFAULT_PULL);
            self.inner.next_chunk(pull, &mut self.scratch)?;
            if self.scratch.is_empty() {
                // Inner ran dry inside the prefix: nothing survives.
                self.to_skip = 0;
                return Ok(0);
            }
            self.to_skip -= self.scratch.len().min(self.to_skip);
        }
        let hint = self.size_hint();
        let before = out.len();
        self.inner.next_chunk(max, out)?;
        debug_check_hint(hint, out.len() - before);
        Ok(out.len() - before)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lower, upper) = self.inner.size_hint();
        (
            lower.saturating_sub(self.to_skip),
            upper.map(|u| u.saturating_sub(self.to_skip)),
        )
    }
}

/// `true` iff a [`FaultSourceExt::sample`] source with this `seed` and
/// `rate` keeps the fault at global `index`. Exposed so eager code
/// (and the equivalence proptests) can apply the exact same decision:
/// `faults.iter().enumerate().filter(|(i, _)| sample_keeps(seed, *i as u64, rate))`.
pub fn sample_keeps(seed: u64, index: u64, rate: f64) -> bool {
    // SplitMix64 over (seed, index): a cheap, well-distributed,
    // dependency-free hash, so sampling needs no RNG state and is
    // trivially chunk-independent.
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let threshold = (rate.clamp(0.0, 1.0) * (u64::MAX as f64)) as u64;
    if rate >= 1.0 {
        return true;
    }
    z < threshold
}

/// See [`FaultSourceExt::sample`].
#[derive(Debug)]
pub struct SampleSource<S> {
    inner: S,
    seed: u64,
    rate: f64,
    /// Global index of the next inner fault.
    index: u64,
    scratch: Vec<GeneratedFault>,
}

impl<S: FaultSource> FaultSource for SampleSource<S> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        let max = max.max(1);
        let before = out.len();
        let hint = self.size_hint();
        // Keep pulling inner chunks until at least one fault survives
        // the filter (or the inner source runs dry): returning 0 must
        // mean exhausted.
        loop {
            self.scratch.clear();
            self.inner.next_chunk(max, &mut self.scratch)?;
            if self.scratch.is_empty() {
                debug_check_hint(hint, out.len() - before);
                return Ok(out.len() - before);
            }
            for fault in self.scratch.drain(..) {
                let keep = sample_keeps(self.seed, self.index, self.rate);
                self.index += 1;
                if keep {
                    out.push(fault);
                }
            }
            if out.len() > before {
                debug_check_hint(hint, out.len() - before);
                return Ok(out.len() - before);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.inner.size_hint().1)
    }
}

/// Combines two expressible faults into one compound scenario (edits
/// concatenated, ids joined with `+`) — the pairing rule of
/// [`FaultSourceExt::product`]. Returns `None` when either half is
/// [`GeneratedFault::Inexpressible`]: a compound mistake requires both
/// halves to be writable.
pub fn combine_faults(a: &GeneratedFault, b: &GeneratedFault) -> Option<GeneratedFault> {
    let (a, b) = (a.scenario()?, b.scenario()?);
    let mut edits = Vec::with_capacity(a.edits.len() + b.edits.len());
    edits.extend(a.edits.iter().cloned());
    edits.extend(b.edits.iter().cloned());
    Some(GeneratedFault::Scenario(FaultScenario {
        id: format!("{}+{}", a.id, b.id),
        description: format!("{}; {}", a.description, b.description),
        class: a.class.clone(),
        edits,
    }))
}

/// The eager counterpart of [`FaultSourceExt::product`]: every
/// `(a, b)` pair in row-major order, combined with [`combine_faults`]
/// (inexpressible pairs skipped). The streaming source enumerates
/// exactly this list without ever materializing it.
pub fn product_eager(left: &[GeneratedFault], right: &[GeneratedFault]) -> Vec<GeneratedFault> {
    left.iter()
        .flat_map(|a| right.iter().filter_map(|b| combine_faults(a, b)))
        .collect()
}

/// See [`FaultSourceExt::product`].
#[derive(Debug)]
pub struct ProductSource<A, B> {
    left: A,
    /// The right source, until it is materialized on the first pull.
    right: Option<B>,
    right_faults: Vec<GeneratedFault>,
    /// The left fault currently being paired.
    current: Option<GeneratedFault>,
    /// Next right index to pair `current` with.
    right_pos: usize,
}

impl<A: FaultSource, B: FaultSource> FaultSource for ProductSource<A, B> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        let max = max.max(1);
        if let Some(right) = &mut self.right {
            // Materialize the right side once; the left side streams.
            // A failure mid-materialization is terminal: the partial
            // right list is discarded so a retried pull reports
            // exhaustion instead of silently enumerating a truncated
            // product.
            loop {
                let pulled = self.right_faults.len();
                match right.next_chunk(DEFAULT_PULL, &mut self.right_faults) {
                    Ok(_) if self.right_faults.len() == pulled => break,
                    Ok(_) => {}
                    Err(e) => {
                        self.right = None;
                        self.right_faults.clear();
                        return Err(e);
                    }
                }
            }
            self.right = None;
        }
        let before = out.len();
        if self.right_faults.is_empty() {
            return Ok(0);
        }
        let hint = self.size_hint();
        let mut chunk = Vec::new();
        while out.len() - before < max {
            if self.current.is_none() {
                chunk.clear();
                self.left.next_chunk(1, &mut chunk)?;
                let Some(fault) = chunk.pop() else {
                    break;
                };
                self.current = Some(fault);
                self.right_pos = 0;
            }
            let a = self.current.as_ref().expect("set above");
            while self.right_pos < self.right_faults.len() && out.len() - before < max {
                let b = &self.right_faults[self.right_pos];
                self.right_pos += 1;
                if let Some(combined) = combine_faults(a, b) {
                    out.push(combined);
                }
            }
            if self.right_pos >= self.right_faults.len() {
                self.current = None;
            }
        }
        debug_check_hint(hint, out.len() - before);
        Ok(out.len() - before)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (_, lu) = self.left.size_hint();
        let ru = match &self.right {
            Some(right) => right.size_hint().1,
            None => Some(self.right_faults.len()),
        };
        let in_flight = self
            .current
            .as_ref()
            .map_or(0, |_| self.right_faults.len() - self.right_pos);
        let upper = match (lu, ru) {
            (Some(l), Some(r)) => l.checked_mul(r).and_then(|p| p.checked_add(in_flight)),
            _ => None,
        };
        (0, upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorClass, TypoKind};

    fn fault(id: &str) -> GeneratedFault {
        GeneratedFault::Scenario(FaultScenario {
            id: id.to_string(),
            description: format!("do {id}"),
            class: ErrorClass::Typo(TypoKind::Omission),
            edits: vec![],
        })
    }

    fn inexpressible(id: &str) -> GeneratedFault {
        GeneratedFault::Inexpressible {
            id: id.to_string(),
            description: String::new(),
            class: ErrorClass::Typo(TypoKind::Omission),
            reason: "n/a".to_string(),
        }
    }

    fn ids(faults: &[GeneratedFault]) -> Vec<&str> {
        faults.iter().map(GeneratedFault::id).collect()
    }

    #[test]
    fn eager_source_drains_in_order_with_exact_hint() {
        let mut s = EagerSource::new(vec![fault("a"), fault("b"), fault("c")]);
        assert_eq!(s.size_hint(), (3, Some(3)));
        let mut out = Vec::new();
        assert_eq!(s.next_chunk(2, &mut out).unwrap(), 2);
        assert_eq!(s.size_hint(), (1, Some(1)));
        assert_eq!(s.next_chunk(2, &mut out).unwrap(), 1);
        assert_eq!(s.next_chunk(2, &mut out).unwrap(), 0);
        assert_eq!(ids(&out), ["a", "b", "c"]);
    }

    #[test]
    fn chain_concatenates() {
        let s = EagerSource::new(vec![fault("a")])
            .chain(EagerSource::new(vec![fault("b"), fault("c")]));
        let out = s.collect_all().unwrap();
        assert_eq!(ids(&out), ["a", "b", "c"]);
    }

    #[test]
    fn take_truncates_and_bounds_hint() {
        let s = EagerSource::new(vec![fault("a"), fault("b"), fault("c")]).take(2);
        assert_eq!(s.size_hint(), (2, Some(2)));
        assert_eq!(ids(&s.collect_all().unwrap()), ["a", "b"]);
        let empty = EagerSource::new(vec![fault("a")]).take(0);
        assert!(empty.collect_all().unwrap().is_empty());
    }

    #[test]
    fn skip_drops_the_prefix_and_adjusts_hint() {
        let s = EagerSource::new(vec![fault("a"), fault("b"), fault("c"), fault("d")]).skip(2);
        assert_eq!(s.size_hint(), (2, Some(2)));
        assert_eq!(ids(&s.collect_all().unwrap()), ["c", "d"]);
    }

    #[test]
    fn skip_is_chunk_independent() {
        let faults: Vec<GeneratedFault> = (0..200).map(|i| fault(&format!("f{i}"))).collect();
        let expected: Vec<String> = (137..200).map(|i| format!("f{i}")).collect();
        for chunk in [1, 3, 64, 1000] {
            let mut s = EagerSource::new(faults.clone()).skip(137);
            let mut out = Vec::new();
            while s.next_chunk(chunk, &mut out).unwrap() > 0 {}
            assert_eq!(ids(&out), expected, "chunk = {chunk}");
        }
    }

    #[test]
    fn skip_past_the_end_is_empty_not_an_error() {
        let s = EagerSource::new(vec![fault("a")]).skip(10);
        assert!(s.collect_all().unwrap().is_empty());
        let zero = EagerSource::new(vec![fault("a")]).skip(0);
        assert_eq!(ids(&zero.collect_all().unwrap()), ["a"]);
    }

    #[test]
    fn skip_composes_with_other_combinators() {
        let faults: Vec<GeneratedFault> = (0..20).map(|i| fault(&format!("f{i}"))).collect();
        let out = EagerSource::new(faults)
            .skip(5)
            .take(3)
            .collect_all()
            .unwrap();
        assert_eq!(ids(&out), ["f5", "f6", "f7"]);
    }

    #[test]
    fn sample_matches_eager_filter_and_is_chunk_independent() {
        let faults: Vec<GeneratedFault> = (0..40).map(|i| fault(&format!("f{i}"))).collect();
        let eager: Vec<&str> = faults
            .iter()
            .enumerate()
            .filter(|(i, _)| sample_keeps(7, *i as u64, 0.4))
            .map(|(_, f)| f.id())
            .collect();
        for chunk in [1, 3, 64] {
            let mut s = EagerSource::new(faults.clone()).sample(7, 0.4);
            let mut out = Vec::new();
            while s.next_chunk(chunk, &mut out).unwrap() > 0 {}
            assert_eq!(ids(&out), eager, "chunk = {chunk}");
        }
    }

    #[test]
    fn sample_rate_extremes() {
        let faults: Vec<GeneratedFault> = (0..10).map(|i| fault(&format!("f{i}"))).collect();
        let all = EagerSource::new(faults.clone())
            .sample(1, 1.0)
            .collect_all()
            .unwrap();
        assert_eq!(all.len(), 10, "rate 1.0 keeps everything");
        let none = EagerSource::new(faults)
            .sample(1, 0.0)
            .collect_all()
            .unwrap();
        assert!(none.is_empty(), "rate 0.0 keeps nothing");
    }

    #[test]
    fn product_is_row_major_and_skips_inexpressible_pairs() {
        let left = vec![fault("a"), inexpressible("x"), fault("b")];
        let right = vec![fault("0"), fault("1")];
        let eager = product_eager(&left, &right);
        assert_eq!(ids(&eager), ["a+0", "a+1", "b+0", "b+1"]);
        for chunk in [1, 3, 16] {
            let mut s = EagerSource::new(left.clone()).product(EagerSource::new(right.clone()));
            let mut out = Vec::new();
            while s.next_chunk(chunk, &mut out).unwrap() > 0 {}
            assert_eq!(ids(&out), ids(&eager), "chunk = {chunk}");
        }
    }

    #[test]
    fn product_concatenates_edits() {
        use conferr_tree::TreePath;
        let mk = |id: &str| {
            GeneratedFault::Scenario(FaultScenario {
                id: id.to_string(),
                description: id.to_string(),
                class: ErrorClass::Typo(TypoKind::Omission),
                edits: vec![crate::TreeEdit::Delete {
                    file: format!("{id}.conf"),
                    path: TreePath::from(vec![0]),
                }],
            })
        };
        let combined = combine_faults(&mk("a"), &mk("b")).unwrap();
        let scenario = combined.scenario().unwrap();
        assert_eq!(scenario.edits.len(), 2);
        assert_eq!(combined.id(), "a+b");
    }

    #[test]
    fn product_against_empty_right_is_empty() {
        let s = EagerSource::new(vec![fault("a")]).product(EagerSource::new(vec![]));
        assert!(s.collect_all().unwrap().is_empty());
    }

    #[test]
    fn product_right_failure_is_terminal_not_a_truncated_product() {
        /// Yields one fault, then fails — a right side that dies
        /// mid-materialization.
        #[derive(Debug)]
        struct OneThenFail(Option<GeneratedFault>);
        impl FaultSource for OneThenFail {
            fn next_chunk(
                &mut self,
                _max: usize,
                out: &mut Vec<GeneratedFault>,
            ) -> Result<usize, GenerateError> {
                match self.0.take() {
                    Some(f) => {
                        out.push(f);
                        Ok(1)
                    }
                    None => Err(GenerateError::new("right", "boom")),
                }
            }
        }

        let mut s =
            EagerSource::new(vec![fault("a"), fault("b")]).product(OneThenFail(Some(fault("r"))));
        let mut out = Vec::new();
        assert!(s.next_chunk(8, &mut out).is_err(), "the failure surfaces");
        // A retry must NOT enumerate pairs against the partial right
        // side — the source is exhausted, not truncated.
        assert_eq!(s.next_chunk(8, &mut out).unwrap(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn generator_source_defers_generation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        #[derive(Debug)]
        struct Counting(Arc<AtomicUsize>);
        impl ErrorGenerator for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn generate(&self, _set: &ConfigSet) -> Result<Vec<GeneratedFault>, GenerateError> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(vec![
                    GeneratedFault::Scenario(FaultScenario {
                        id: "g0".to_string(),
                        description: String::new(),
                        class: ErrorClass::Typo(TypoKind::Omission),
                        edits: vec![],
                    });
                    3
                ])
            }
        }

        let calls = Arc::new(AtomicUsize::new(0));
        let mut source = Counting(Arc::clone(&calls)).into_source(&ConfigSet::new());
        assert_eq!(calls.load(Ordering::Relaxed), 0, "generation is deferred");
        let mut out = Vec::new();
        assert_eq!(source.next_chunk(2, &mut out).unwrap(), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(source.size_hint(), (1, Some(1)));
        assert_eq!(source.next_chunk(2, &mut out).unwrap(), 1);
        assert_eq!(source.next_chunk(2, &mut out).unwrap(), 0);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "generate runs once");
    }

    #[test]
    fn generator_source_propagates_errors() {
        #[derive(Debug)]
        struct Failing;
        impl ErrorGenerator for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn generate(&self, _set: &ConfigSet) -> Result<Vec<GeneratedFault>, GenerateError> {
                Err(GenerateError::new("failing", "boom"))
            }
        }
        let mut source = Failing.into_source(&ConfigSet::new());
        let mut out = Vec::new();
        assert!(source.next_chunk(8, &mut out).is_err());
        // After a failure the source reports exhaustion, not a retry.
        assert_eq!(source.next_chunk(8, &mut out).unwrap(), 0);
    }

    #[test]
    fn boxed_sources_compose() {
        let boxed: BoxFaultSource = Box::new(EagerSource::new(vec![fault("a"), fault("b")]));
        let out = boxed.take(1).collect_all().unwrap();
        assert_eq!(ids(&out), ["a"]);
    }
}
