//! Property tests for the startup parse cache.
//!
//! The soundness claims (see `conferr_sut::payload`):
//!
//! * **Mutated files always bypass the cache**: text that differs
//!   from anything parsed before — in particular from the pinned
//!   baseline — is never served from a memoized entry; its first
//!   sighting runs the full parse-and-validate path, and only
//!   byte-identical re-sightings may hit.
//! * A cache hit is observationally identical to a cold parse: the
//!   `StartOutcome` matches a caching-disabled simulator fed the same
//!   payload.
//! * `ParseCache` itself parses each distinct content exactly once
//!   and returns the memoized value thereafter.

use std::cell::RefCell;
use std::collections::HashMap;

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

        // Warm simulator: baseline parsed and pinned first.
        let mut warm = PostgresSim::new();
        warm.start(&default_payload(&warm), &Deadline::unlimited());
        let before = warm.parse_cache_stats().unwrap();
        prop_assert_eq!(before.pinned, 1);

        // First sighting of the mutated text: must NOT be served from
        // the baseline entry — the miss counter proves the full
        // parse-and-validate path ran.
        let mut payload = ConfigPayload::new();
        payload.insert("postgresql.conf", FileText::mutated(mutated_text.as_str()));
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

        // Only a byte-identical re-sighting may hit, and the memoized
        // outcome is unchanged.
        let replay = warm.start(&payload, &Deadline::unlimited());
        let replay_stats = warm.parse_cache_stats().unwrap();
        prop_assert_eq!(replay_stats.hits, after.hits + 1);
        prop_assert_eq!(&replay, &reference);
    }

    #[test]
    fn parse_cache_parses_each_distinct_content_exactly_once(
        texts in prop::collection::vec("[a-c]{0,4}", 1..12),
    ) {
        let runs: RefCell<HashMap<String, usize>> = RefCell::new(HashMap::new());
        let mut cache: ParseCache<usize> = ParseCache::new();
        for text in &texts {
            let file = FileText::mutated(text.as_str());
            let value = cache.get_or_parse("f", &file, |f| {
                *runs.borrow_mut().entry(f.text().to_string()).or_insert(0) += 1;
                f.text().len()
            });
            prop_assert_eq!(*value, text.len());
        }
        for (text, count) in runs.borrow().iter() {
            prop_assert_eq!(*count, 1, "{} parsed more than once", text);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses as usize, runs.borrow().len());
        prop_assert_eq!(
            stats.hits as usize,
            texts.len() - runs.borrow().len()
        );
    }
}
