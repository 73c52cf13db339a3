//! Configuration payloads and the startup memo.
//!
//! A campaign's hot loop is inject → serialize → **start** → test, and
//! the paper-faithful `start` re-parses configuration text exactly as
//! the real system's startup path would. Re-parsing is also where the
//! campaign's wall-clock goes: most injections mutate one file and
//! leave every other file byte-identical to the baseline, and repeated
//! fault loads (bench reruns, Table 2 variation probes) present the
//! very same mutated file over and over.
//!
//! Two types remove that redundancy without changing a single
//! outcome:
//!
//! * [`ConfigPayload`] — what [`SystemUnderTest::start`] consumes
//!   instead of a fresh `BTreeMap<String, String>`: per-file shared
//!   text (`Arc<str>`, no clone per injection) plus a [`TextOrigin`]
//!   tag. The campaign engine derives the tag from its baseline
//!   pointer-equality check: a file whose tree is still `Arc`-shared
//!   with the baseline provably carries no edit and is handed out as
//!   [`TextOrigin::Baseline`]; everything else is serialized fresh and
//!   tagged [`TextOrigin::Mutated`].
//! * [`ParseCache`] — a simulator's switch and counters for the one
//!   startup slot each [`FileText`] carries. The first start from a
//!   file runs the full parse-and-validate path and leaves its result
//!   in that slot; every clone of the file shares the slot, so a later
//!   start from the same file — on any simulator instance, on any
//!   thread — reads it back instead of parsing again. Nothing looks
//!   text up by content: a fresh `FileText` starts with an empty
//!   slot, even when its bytes equal another's, so the first sighting
//!   of every serialized text takes the full path. The campaign engine
//!   hands out its baseline files and its fault memo's payload files
//!   as clones, which is what makes their starts repeat.
//!
//! A [`FileText`] can also carry a parse of its own bytes
//! ([`FileText::with_parse`]), or a tree its maker knows to be that
//! parse ([`FileText::with_known_parse`], asserted in debug builds),
//! and beside the parse a dialect check of it
//! ([`FileText::with_check`], asserted in debug builds too). The
//! campaign engine gives each freshly prepared mutated file one of
//! the two parses, judges that parse statically, attaches the judge's
//! check to the edited file, and hands both to the start, where an
//! empty slot is filled from them instead of parsing and validating
//! the bytes again ([`FileText::parse_with`],
//! [`FileText::check_with`]). The slot keeps only the derived value,
//! never the carried parse or check, and a disabled cache ignores
//! both: the reference path always parses and validates the bytes
//! itself.
//!
//! [`SystemUnderTest::start`]: crate::SystemUnderTest::start

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use conferr_analysis::{Dialect, DialectCheck};
use conferr_formats::{ConfigFormat, ParseError};
use conferr_tree::ConfTree;

/// Where a payload file's text came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextOrigin {
    /// The campaign's pristine baseline text for this file — the
    /// engine proved (by baseline pointer equality) that the injection
    /// did not touch it.
    Baseline,
    /// Freshly serialized, potentially fault-carrying text.
    Mutated,
}

/// One configuration file's text, shared by `Arc`, with one startup
/// slot that all its clones share (see [`ParseCache`]).
///
/// # Examples
///
/// ```
/// use conferr_sut::{FileText, TextOrigin};
///
/// let file = FileText::mutated("port = 5432\n");
/// assert_eq!(file.text(), "port = 5432\n");
/// assert_eq!(file.origin(), TextOrigin::Mutated);
/// ```
#[derive(Debug, Clone)]
pub struct FileText {
    text: Arc<str>,
    origin: TextOrigin,
    parsed: Option<Arc<CarriedParse>>,
    check: Option<Arc<DialectCheck>>,
    startup: Arc<OnceLock<Startup>>,
}

/// A parse of a [`FileText`]'s own bytes, tagged with the name of the
/// format that produced it.
struct CarriedParse {
    format: String,
    tree: Result<ConfTree, ParseError>,
}

impl fmt::Debug for CarriedParse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CarriedParse")
            .field("format", &self.format)
            .field("ok", &self.tree.is_ok())
            .finish()
    }
}

/// The value a [`ParseCache::get_or_parse`] built from a
/// [`FileText`], keyed by the file name it was built for and, through
/// the `Any`, by its type.
#[derive(Debug)]
struct Startup {
    file_name: Box<str>,
    value: Arc<dyn Any + Send + Sync>,
}

impl Startup {
    /// The value, when it was built for `file_name` as a `T`.
    fn get<T: Send + Sync + 'static>(&self, file_name: &str) -> Option<Arc<T>> {
        if *self.file_name != *file_name {
            return None;
        }
        Arc::clone(&self.value).downcast().ok()
    }
}

impl FileText {
    fn new(text: impl Into<Arc<str>>, origin: TextOrigin) -> Self {
        FileText {
            text: text.into(),
            origin,
            parsed: None,
            check: None,
            startup: Arc::default(),
        }
    }

    /// Wraps baseline text.
    pub fn baseline(text: impl Into<Arc<str>>) -> Self {
        Self::new(text, TextOrigin::Baseline)
    }

    /// Wraps freshly serialized, potentially mutated text.
    pub fn mutated(text: impl Into<Arc<str>>) -> Self {
        Self::new(text, TextOrigin::Mutated)
    }

    /// The file's text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// A shared handle on the text (a reference-count bump, never a
    /// copy of the bytes).
    pub fn shared_text(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }

    /// Where this text came from.
    pub fn origin(&self) -> TextOrigin {
        self.origin
    }

    /// This text, carrying its parse by `format`. The parse runs here,
    /// once; clones share it, and [`FileText::parse_with`] hands it to
    /// every caller asking for a format of the same name.
    ///
    /// # Examples
    ///
    /// ```
    /// use conferr_formats::KvFormat;
    /// use conferr_sut::FileText;
    /// use conferr_tree::Node;
    ///
    /// let file = FileText::mutated("port = 5432\n").with_parse(&KvFormat::new());
    /// let a = file.parse_with(&KvFormat::new()).unwrap();
    /// let b = file.parse_with(&KvFormat::new()).unwrap();
    /// assert!(Node::ptr_eq(a.root(), b.root()), "one parse, shared");
    /// ```
    #[must_use]
    pub fn with_parse(mut self, format: &dyn ConfigFormat) -> Self {
        self.parsed = Some(Arc::new(CarriedParse {
            format: format.name().to_string(),
            tree: format.parse(&self.text),
        }));
        self.check = None;
        self
    }

    /// This text, carrying `tree` as its parse by `format` without
    /// parsing anything: the caller vouches that `tree` equals
    /// `format.parse(self.text())`, and debug builds assert it. The
    /// campaign engine attaches the mutated tree this way when that
    /// tree is provably the parse of its own serialization (see
    /// [`ConfigFormat::parses_in_place`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use conferr_formats::{ConfigFormat, KvFormat};
    /// use conferr_sut::FileText;
    /// use conferr_tree::Node;
    ///
    /// let tree = KvFormat::new().parse("port = 5432\n").unwrap();
    /// let file = FileText::mutated("port = 5432\n").with_known_parse(&KvFormat::new(), tree.clone());
    /// let carried = file.parse_with(&KvFormat::new()).unwrap();
    /// assert!(Node::ptr_eq(carried.root(), tree.root()), "no parse ran");
    /// ```
    #[must_use]
    pub fn with_known_parse(mut self, format: &dyn ConfigFormat, tree: ConfTree) -> Self {
        debug_assert!(
            format.parse(&self.text).as_ref() == Ok(&tree),
            "the known {} parse differs from the parse of {:?}",
            format.name(),
            self.text
        );
        self.parsed = Some(Arc::new(CarriedParse {
            format: format.name().to_string(),
            tree: Ok(tree),
        }));
        self.check = None;
        self
    }

    /// Parses the text with `format`: the carried parse when
    /// [`FileText::with_parse`] or [`FileText::with_known_parse`]
    /// attached one by a format of the same name, a fresh parse of the
    /// bytes otherwise. Either way the result equals
    /// `format.parse(self.text())`; for a known parse that is the
    /// attaching caller's promise.
    ///
    /// # Errors
    ///
    /// The format's [`ParseError`] when the text does not parse.
    pub fn parse_with(&self, format: &dyn ConfigFormat) -> Result<ConfTree, ParseError> {
        match &self.parsed {
            Some(parsed) if parsed.format == format.name() => parsed.tree.clone(),
            _ => format.parse(&self.text),
        }
    }

    /// This text, carrying `check` as the check of its carried parse
    /// without running it: the caller vouches that `check` equals
    /// `DialectCheck::run(check.dialect, ..)` on the carried tree, and
    /// debug builds assert it. The campaign engine attaches the check
    /// its linter ran on the parse the file carries. A later
    /// [`FileText::with_parse`] or [`FileText::with_known_parse`]
    /// drops it.
    #[must_use]
    pub fn with_check(mut self, check: DialectCheck) -> Self {
        debug_assert!(
            self.parsed
                .as_ref()
                .and_then(|parsed| parsed.tree.as_ref().ok())
                .and_then(|tree| DialectCheck::run(check.dialect, tree.root()))
                .as_ref()
                == Some(&check),
            "the carried {:?} check differs from a check of the carried parse of {:?}",
            check.dialect,
            self.text
        );
        self.check = Some(Arc::new(check));
        self
    }

    /// Checks the text's parse by `format` under `dialect`: the
    /// carried check when [`FileText::with_check`] attached one of the
    /// same dialect to a parse by a format of the same name, a fresh
    /// [`DialectCheck::run`] on [`FileText::parse_with`]'s tree
    /// otherwise. Either way the result equals a check of
    /// `format.parse(self.text())`; for a carried check that is the
    /// attaching caller's promise.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use conferr_analysis::{Dialect, DialectCheck};
    /// use conferr_formats::{ConfigFormat, KvFormat};
    /// use conferr_sut::FileText;
    ///
    /// let tree = KvFormat::new().parse("port = 5432\n").unwrap();
    /// let check = DialectCheck::run(Dialect::PostgresKv, tree.root()).unwrap();
    /// let file = FileText::mutated("port = 5432\n")
    ///     .with_known_parse(&KvFormat::new(), tree)
    ///     .with_check(check);
    /// let a = file.check_with(&KvFormat::new(), Dialect::PostgresKv).unwrap();
    /// let b = file.check_with(&KvFormat::new(), Dialect::PostgresKv).unwrap();
    /// assert!(Arc::ptr_eq(&a, &b), "no validation ran");
    /// assert!(a.result.is_ok());
    /// ```
    ///
    /// # Errors
    ///
    /// The format's [`ParseError`] when the text does not parse.
    ///
    /// # Panics
    ///
    /// When `dialect` is not [fully modeled](Dialect::is_fully_modeled).
    pub fn check_with(
        &self,
        format: &dyn ConfigFormat,
        dialect: Dialect,
    ) -> Result<Arc<DialectCheck>, ParseError> {
        match (&self.parsed, &self.check) {
            (Some(parsed), Some(check))
                if parsed.format == format.name() && check.dialect == dialect =>
            {
                Ok(Arc::clone(check))
            }
            _ => {
                let tree = self.parse_with(format)?;
                let check = DialectCheck::run(dialect, tree.root())
                    .unwrap_or_else(|| panic!("{dialect:?} has no validator"));
                Ok(Arc::new(check))
            }
        }
    }

    /// The same text without any carried parse or check.
    fn without_parse(&self) -> FileText {
        FileText {
            parsed: None,
            check: None,
            ..self.clone()
        }
    }
}

/// The serialized configuration set handed to
/// [`SystemUnderTest::start`]: file name → [`FileText`].
///
/// The campaign engine builds one payload per injection; files the
/// fault did not touch are clones of the engine's baseline files, so
/// they share its `Arc<str>` text and its startup slot instead of
/// cloning `String`s.
///
/// # Examples
///
/// ```
/// use conferr_sut::{default_payload, ConfigPayload, Deadline, FileText, PostgresSim, SystemUnderTest};
///
/// // Defaults, as the engine would hand them out (baseline origin):
/// let mut sut = PostgresSim::new();
/// let payload = default_payload(&sut);
/// let deadline = Deadline::unlimited();
/// assert!(sut.start(&payload, &deadline).is_running());
///
/// // Hand-built text, e.g. in a test (mutated origin):
/// let mut payload = ConfigPayload::new();
/// payload.insert("postgresql.conf", FileText::mutated("bogus = 1\n"));
/// assert!(!sut.start(&payload, &deadline).is_running());
/// ```
///
/// [`SystemUnderTest::start`]: crate::SystemUnderTest::start
#[derive(Debug, Clone, Default)]
pub struct ConfigPayload {
    files: BTreeMap<String, FileText>,
}

impl ConfigPayload {
    /// Creates an empty payload.
    pub fn new() -> Self {
        ConfigPayload::default()
    }

    /// Builds a payload from plain per-file text, tagging every file
    /// [`TextOrigin::Mutated`] (no baseline identity is known). This
    /// is the drop-in bridge for callers that assemble configuration
    /// maps by hand.
    pub fn from_texts(texts: &BTreeMap<String, String>) -> Self {
        texts
            .iter()
            .map(|(name, text)| (name.clone(), FileText::mutated(text.as_str())))
            .collect()
    }

    /// Inserts (or replaces) one file.
    pub fn insert(&mut self, name: impl Into<String>, file: FileText) {
        self.files.insert(name.into(), file);
    }

    /// The named file, when present.
    pub fn get(&self, name: &str) -> Option<&FileText> {
        self.files.get(name)
    }

    /// The named file's text, when present.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.files.get(name).map(FileText::text)
    }

    /// Iterates files in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FileText)> {
        self.files.iter().map(|(name, file)| (name.as_str(), file))
    }

    /// Number of files in the payload.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` iff the payload holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

impl FromIterator<(String, FileText)> for ConfigPayload {
    fn from_iter<I: IntoIterator<Item = (String, FileText)>>(iter: I) -> Self {
        ConfigPayload {
            files: iter.into_iter().collect(),
        }
    }
}

/// Aggregate [`ParseCache`] counters, exposed through
/// [`SystemUnderTest::parse_cache_stats`].
///
/// [`SystemUnderTest::parse_cache_stats`]: crate::SystemUnderTest::parse_cache_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a file's startup slot.
    pub hits: u64,
    /// Lookups that ran the full parse-and-validate path.
    pub misses: u64,
    /// Parses performed while the cache was disabled
    /// ([`ParseCache::set_enabled`]); these never touch a startup
    /// slot.
    pub bypassed: u64,
}

/// Memoization of a simulator's startup parse-and-validate path in
/// the startup slot of each [`FileText`] it starts from.
///
/// A simulator derives some deterministic representation from one
/// file's text — typically a `Result<Blueprint, String>` capturing
/// either the validated startup state or the exact startup
/// diagnostic. Because simulators are deterministic functions of their
/// configuration text and file name, a value built once per file is
/// observationally invisible: a hit returns precisely what the full
/// parse would have produced (asserted end-to-end by
/// `tests/parse_cache.rs`). The slot is shared by every clone of the
/// file, so one build serves every simulator instance that starts from
/// it. It holds one value, keyed by file name and type; a lookup under
/// another key builds its value without storing it.
///
/// # Examples
///
/// ```
/// use conferr_sut::{FileText, ParseCache};
///
/// let mut cache = ParseCache::new();
/// let conf = FileText::baseline("listen 80\n");
///
/// let parsed = cache.get_or_parse("app.conf", &conf, |file| file.text().len());
/// assert_eq!(*parsed, 10);
///
/// // The same file, or a clone of it: memoized, the closure does not
/// // run again, whichever cache asks.
/// let memoized = ParseCache::new().get_or_parse("app.conf", &conf.clone(), |_| unreachable!());
/// assert_eq!(parsed, memoized);
/// assert_eq!(cache.get_or_parse("app.conf", &conf, |_| 0), parsed);
/// assert_eq!(cache.stats().hits, 1);
///
/// // Another file, even of equal text: full parse.
/// let edited = FileText::mutated("listen 80\n");
/// assert_eq!(*cache.get_or_parse("app.conf", &edited, |file| file.text().len()), 10);
/// assert_eq!(cache.stats().misses, 2);
/// ```
#[derive(Debug, Default)]
pub struct ParseCache {
    disabled: bool,
    stats: CacheStats,
}

impl ParseCache {
    /// Creates an enabled cache.
    pub fn new() -> Self {
        ParseCache::default()
    }

    /// Enables or disables memoization. While disabled every lookup
    /// runs `parse` on the file stripped of any carried parse and
    /// check, and nothing is stored — the reference cold path used by
    /// benches and equivalence tests.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.disabled = !enabled;
    }

    /// `true` iff memoization is active.
    pub fn enabled(&self) -> bool {
        !self.disabled
    }

    /// Returns the value `file`'s startup slot holds for `file_name`,
    /// running `parse` (the full paper-faithful parse-and-validate
    /// path) on the file when the slot holds none. An empty slot keeps
    /// the result; a slot holding another file name's or type's value
    /// is left as it is. Concurrent lookups of one empty slot run
    /// `parse` once, and the others wait for its result. `parse` may
    /// take the parse and check the file carries (see
    /// [`FileText::parse_with`] and [`FileText::check_with`]); a
    /// disabled cache hands it the bare text instead.
    pub fn get_or_parse<T, F>(&mut self, file_name: &str, file: &FileText, parse: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce(&FileText) -> T,
    {
        if self.disabled {
            self.stats.bypassed += 1;
            return Arc::new(parse(&file.without_parse()));
        }
        let mut parse = Some(parse);
        let stored = file.startup.get_or_init(|| {
            let parse = parse.take().expect("the slot is filled once");
            Startup {
                file_name: file_name.into(),
                value: Arc::new(parse(file)),
            }
        });
        if let Some(value) = stored.get(file_name) {
            match parse {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
            return value;
        }
        self.stats.misses += 1;
        let parse = parse.expect("a slot this lookup filled holds its key");
        Arc::new(parse(file))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemUnderTest;
    use conferr_analysis::DialectModel;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn payload_from_texts_round_trips() {
        let mut texts = BTreeMap::new();
        texts.insert("a.conf".to_string(), "x = 1\n".to_string());
        let payload = ConfigPayload::from_texts(&texts);
        assert_eq!(payload.len(), 1);
        assert!(!payload.is_empty());
        assert_eq!(payload.text("a.conf"), Some("x = 1\n"));
        assert_eq!(payload.get("a.conf").unwrap().origin(), TextOrigin::Mutated);
        assert_eq!(payload.iter().count(), 1);
    }

    #[test]
    fn identical_content_is_parsed_once() {
        // One file and its clones, looked up by two caches on two
        // threads at once: one parse, one shared value.
        let runs = AtomicUsize::new(0);
        let file = FileText::mutated("abc");
        let lookup = |file: FileText| {
            let mut cache = ParseCache::new();
            let value = cache.get_or_parse("f", &file, |f| {
                runs.fetch_add(1, Ordering::Relaxed);
                f.text().to_uppercase()
            });
            let again = cache.get_or_parse::<String, _>("f", &file, |_| unreachable!());
            assert!(Arc::ptr_eq(&value, &again));
            (value, cache.stats())
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| lookup(file.clone()));
            let b = s.spawn(|| lookup(file.clone()));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(*a.0, "ABC");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!((a.1.hits + b.1.hits, a.1.misses + b.1.misses), (3, 1));
    }

    #[test]
    fn one_file_text_starts_two_simulators_from_one_build() {
        let (mut a, mut b) = (crate::MySqlSim::new(), crate::MySqlSim::new());
        let payload = crate::default_payload(&a);
        let deadline = crate::Deadline::unlimited();
        let first = a.start(&payload, &deadline);
        assert!(first.is_running());
        assert_eq!(b.start(&payload.clone(), &deadline), first);
        assert_eq!(a.start(&payload, &deadline), first);
        let (a, b) = (
            a.parse_cache_stats().unwrap(),
            b.parse_cache_stats().unwrap(),
        );
        assert_eq!((a.hits, a.misses, b.hits, b.misses), (1, 1, 1, 0));
    }

    #[test]
    fn a_fresh_file_text_with_equal_text_builds_again() {
        let runs = Cell::new(0);
        let parse = |file: &FileText| {
            runs.set(runs.get() + 1);
            file.text().len()
        };
        let mut cache = ParseCache::new();
        let a = cache.get_or_parse("f", &FileText::mutated("abc"), parse);
        let b = cache.get_or_parse("f", &FileText::mutated("abc"), parse);
        assert_eq!((*a, *b), (3, 3));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(runs.get(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }

    #[test]
    fn another_file_name_or_startup_type_builds_without_replacing_the_stored_value() {
        let mut cache = ParseCache::new();
        let file = FileText::mutated("abc");
        let stored = cache.get_or_parse("a.conf", &file, |_| 1_usize);
        // Another name: built on every lookup, never stored.
        assert_eq!(*cache.get_or_parse("b.conf", &file, |_| 2_usize), 2);
        assert_eq!(*cache.get_or_parse("b.conf", &file, |_| 3_usize), 3);
        // Another type under the same name: likewise.
        assert_eq!(*cache.get_or_parse("a.conf", &file, |_| 'x'), 'x');
        assert_eq!(*cache.get_or_parse("a.conf", &file, |_| 'y'), 'y');
        // The stored value still answers its own key.
        let again = cache.get_or_parse::<usize, _>("a.conf", &file, |_| unreachable!());
        assert!(Arc::ptr_eq(&stored, &again));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 5));
    }

    #[test]
    fn same_content_under_different_names_is_parsed_per_name() {
        // Diagnostics may embed the file name, so the memo key
        // includes it.
        let mut cache = ParseCache::new();
        let file = FileText::baseline("x");
        cache.get_or_parse("a.conf", &file, |_| 1);
        let b = cache.get_or_parse("b.conf", &file, |_| 2);
        assert_eq!(*b, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disabled_cache_always_parses_and_stores_nothing() {
        let mut cache = ParseCache::new();
        cache.set_enabled(false);
        assert!(!cache.enabled());
        let file = FileText::baseline("x");
        cache.get_or_parse("f", &file, |_| 1);
        cache.get_or_parse("f", &file, |_| 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.bypassed), (0, 0, 2));
        // Re-enabling starts cold.
        cache.set_enabled(true);
        assert_eq!(*cache.get_or_parse("f", &file, |_| 3), 3);
        assert_eq!(cache.stats().misses, 1);
    }

    /// Two `parse_with` calls that share one root: the file carries
    /// its parse by `format`.
    fn carries_parse(file: &FileText, format: &dyn ConfigFormat) -> bool {
        let (a, b) = (file.parse_with(format), file.parse_with(format));
        conferr_tree::Node::ptr_eq(a.unwrap().root(), b.unwrap().root())
    }

    #[test]
    fn carried_parse_serves_its_own_format_only() {
        use conferr_formats::{IniFormat, KvFormat};
        let file = FileText::mutated("port = 5432\n").with_parse(&KvFormat::new());
        assert!(carries_parse(&file, &KvFormat::new()));
        assert!(carries_parse(&file.clone(), &KvFormat::new()));
        // Another format parses the bytes afresh.
        assert!(!carries_parse(&file, &IniFormat::new()));
        assert!(!carries_parse(
            &FileText::mutated("port = 5432\n"),
            &KvFormat::new()
        ));
        // A parse error is carried as well.
        let bad = FileText::mutated("[mysqld\n").with_parse(&IniFormat::new());
        assert_eq!(
            bad.parse_with(&IniFormat::new()),
            IniFormat::new().parse("[mysqld\n")
        );
    }

    #[test]
    fn a_known_parse_is_carried_as_given() {
        use conferr_formats::{IniFormat, KvFormat};
        let tree = KvFormat::new().parse("port = 5432\n").unwrap();
        let file = FileText::mutated("port = 5432\n").with_known_parse(&KvFormat::new(), tree);
        assert!(carries_parse(&file, &KvFormat::new()));
        assert!(!carries_parse(&file, &IniFormat::new()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the known kv parse differs")]
    fn a_wrong_known_parse_fails_in_debug_builds() {
        use conferr_formats::KvFormat;
        let tree = KvFormat::new().parse("port = 5432\n").unwrap();
        let _ = FileText::mutated("port = 5433\n").with_known_parse(&KvFormat::new(), tree);
    }

    #[test]
    fn only_an_enabled_cache_hands_over_the_carried_parse() {
        use conferr_formats::KvFormat;
        let file = FileText::mutated("port = 5432\n").with_parse(&KvFormat::new());
        let mut cache = ParseCache::new();
        let miss = cache.get_or_parse("f", &file, |f| carries_parse(f, &KvFormat::new()));
        assert!(*miss, "a miss builds from the carried parse");
        cache.set_enabled(false);
        let bypass = cache.get_or_parse("f", &file, |f| carries_parse(f, &KvFormat::new()));
        assert!(!*bypass, "the reference path parses the bytes itself");
    }

    /// `port = 5432` parsed by kv, carrying its Postgres check.
    fn checked_postgres_file() -> FileText {
        use conferr_formats::KvFormat;
        let tree = KvFormat::new().parse("port = 5432\n").unwrap();
        let check = DialectCheck::run(Dialect::PostgresKv, tree.root()).unwrap();
        FileText::mutated("port = 5432\n")
            .with_known_parse(&KvFormat::new(), tree)
            .with_check(check)
    }

    /// Two `check_with` calls that share one check: the file carries
    /// its check under `dialect`, of a parse by `format`.
    fn carries_check(file: &FileText, format: &dyn ConfigFormat, dialect: Dialect) -> bool {
        let (a, b) = (
            file.check_with(format, dialect),
            file.check_with(format, dialect),
        );
        Arc::ptr_eq(&a.unwrap(), &b.unwrap())
    }

    #[test]
    fn a_carried_check_serves_its_own_dialect_and_format_only() {
        use conferr_formats::{IniFormat, KvFormat};
        let file = checked_postgres_file();
        assert!(carries_check(&file, &KvFormat::new(), Dialect::PostgresKv));
        assert!(carries_check(
            &file.clone(),
            &KvFormat::new(),
            Dialect::PostgresKv
        ));
        // Another dialect validates afresh, and its own way.
        assert!(!carries_check(&file, &KvFormat::new(), Dialect::MySqlIni));
        let mysql = file
            .check_with(&KvFormat::new(), Dialect::MySqlIni)
            .unwrap();
        assert_eq!(mysql.dialect, Dialect::MySqlIni);
        assert!(matches!(mysql.result, Ok(DialectModel::MySql(_))));
        // So does another format, and a new parse drops the check.
        assert!(!carries_check(
            &file,
            &IniFormat::new(),
            Dialect::PostgresKv
        ));
        let reparsed = file.with_parse(&KvFormat::new());
        assert!(!carries_check(
            &reparsed,
            &KvFormat::new(),
            Dialect::PostgresKv
        ));
    }

    #[test]
    fn only_an_enabled_cache_hands_over_the_carried_check() {
        use conferr_formats::KvFormat;
        let file = checked_postgres_file();
        let carried = |f: &FileText| carries_check(f, &KvFormat::new(), Dialect::PostgresKv);
        let mut cache = ParseCache::new();
        assert!(
            *cache.get_or_parse("f", &file, carried),
            "a miss builds from the carried check"
        );
        cache.set_enabled(false);
        assert!(
            !*cache.get_or_parse("f", &file, carried),
            "the reference path validates the bytes itself"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the carried PostgresKv check differs")]
    fn a_wrong_check_fails_in_debug_builds() {
        use conferr_formats::KvFormat;
        let tree = KvFormat::new().parse("port = 5433\n").unwrap();
        let check = DialectCheck::run(Dialect::PostgresKv, tree.root()).unwrap();
        let _ = FileText::mutated("port = 5432\n")
            .with_parse(&KvFormat::new())
            .with_check(check);
    }
}
