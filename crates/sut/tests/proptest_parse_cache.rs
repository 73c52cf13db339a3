//! Property tests for the startup memo.
//!
//! The soundness claims (see `conferr_sut::payload`):
//!
//! * **Mutated files always take the full startup path first**: a
//!   fresh `FileText` starts with an empty startup slot, whatever its
//!   bytes, so its first start runs the full parse-and-validate path;
//!   only a start from that same file, or a clone of it, may hit, on
//!   any simulator instance.
//! * A hit is observationally identical to a cold parse: the
//!   `StartOutcome` matches a caching-disabled simulator fed the same
//!   payload.
//! * `ParseCache` builds each file's value exactly once, however many
//!   clones and caches look it up.

use std::cell::RefCell;
use std::collections::BTreeSet;

use conferr_sut::{
    default_configs, default_payload, ConfigPayload, Deadline, FileText, ParseCache, PostgresSim,
    SystemUnderTest,
};
use proptest::prelude::*;

/// Applies one small human-style edit to `text`: delete, duplicate,
/// or substitute the character at `pos` (scaled into range).
fn mutate(text: &str, pos: usize, op: u8, sub: char) -> String {
    let chars: Vec<char> = text.chars().collect();
    let i = pos % chars.len();
    let mut out: Vec<char> = chars.clone();
    match op % 3 {
        0 => {
            out.remove(i);
        }
        1 => out.insert(i, chars[i]),
        _ => out[i] = sub,
    }
    out.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_files_always_bypass_the_cache(
        pos in 0usize..100_000,
        op in 0u8..3,
        sub in prop::char::range('a', 'z'),
    ) {
        let baseline_text = default_configs(&PostgresSim::new())["postgresql.conf"].clone();
        let mut mutated_text = mutate(&baseline_text, pos, op, sub);
        if mutated_text == baseline_text {
            // The edit was an identity (e.g. substituting the same
            // character); force a visible mutation instead.
            mutated_text.push('#');
        }
        let mutated = |text: &str| {
            let mut payload = ConfigPayload::new();
            payload.insert("postgresql.conf", FileText::mutated(text));
            payload
        };

        // Warm simulator: started from the defaults first.
        let mut warm = PostgresSim::new();
        warm.start(&default_payload(&warm), &Deadline::unlimited());
        let before = warm.parse_cache_stats().unwrap();

        // First start from the mutated file: the miss counter proves
        // the full parse-and-validate path ran.
        let payload = mutated(&mutated_text);
        let outcome = warm.start(&payload, &Deadline::unlimited());
        let after = warm.parse_cache_stats().unwrap();
        prop_assert_eq!(after.misses, before.misses + 1);
        prop_assert_eq!(after.hits, before.hits);

        // And the outcome is exactly what a cache-less cold parse
        // produces.
        let mut cold = PostgresSim::new();
        cold.set_parse_caching(false);
        let reference = cold.start(&payload, &Deadline::unlimited());
        prop_assert_eq!(&outcome, &reference);

        // A start from the same file hits, on this simulator and on
        // another, and the memoized outcome is unchanged.
        let replay = warm.start(&payload, &Deadline::unlimited());
        prop_assert_eq!(warm.parse_cache_stats().unwrap().hits, after.hits + 1);
        prop_assert_eq!(&replay, &reference);
        let mut other = PostgresSim::new();
        prop_assert_eq!(&other.start(&payload.clone(), &Deadline::unlimited()), &reference);
        prop_assert_eq!(other.parse_cache_stats().unwrap().hits, 1);

        // A fresh file of the same bytes takes the full path again.
        let fresh = warm.start(&mutated(&mutated_text), &Deadline::unlimited());
        prop_assert_eq!(warm.parse_cache_stats().unwrap().misses, after.misses + 1);
        prop_assert_eq!(&fresh, &reference);
    }

    #[test]
    fn parse_cache_parses_each_distinct_content_exactly_once(
        texts in prop::collection::vec("[a-c]{0,4}", 1..6),
        picks in prop::collection::vec((0usize..6, any::<bool>()), 1..24),
    ) {
        // One file per text, equal texts included; each pick looks a
        // clone of one file up through one of two caches.
        let files: Vec<FileText> = texts.iter().map(|t| FileText::mutated(t.as_str())).collect();
        let runs = RefCell::new(vec![0usize; files.len()]);
        let mut caches = [ParseCache::new(), ParseCache::new()];
        let mut picked = BTreeSet::new();
        for &(pick, second) in &picks {
            let i = pick % files.len();
            picked.insert(i);
            let cache = &mut caches[usize::from(second)];
            let value = cache.get_or_parse("f", &files[i].clone(), |f| {
                runs.borrow_mut()[i] += 1;
                f.text().len()
            });
            prop_assert_eq!(*value, texts[i].len());
        }
        for (i, &count) in runs.borrow().iter().enumerate() {
            prop_assert_eq!(count, usize::from(picked.contains(&i)), "file {}", i);
        }
        let (hits, misses) = caches
            .iter()
            .map(ParseCache::stats)
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        prop_assert_eq!(misses as usize, picked.len());
        prop_assert_eq!(hits as usize, picks.len() - picked.len());
    }
}
