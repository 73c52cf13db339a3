//! Configuration payloads and the startup parse cache.
//!
//! A campaign's hot loop is inject → serialize → **start** → test, and
//! the paper-faithful `start` re-parses configuration text exactly as
//! the real system's startup path would. Re-parsing is also where the
//! campaign's wall-clock goes: most injections mutate one file and
//! leave every other file byte-identical to the baseline, and repeated
//! fault loads (bench reruns, Table 2 variation probes) present the
//! very same mutated text over and over.
//!
//! Two types remove that redundancy without changing a single
//! outcome:
//!
//! * [`ConfigPayload`] — what [`SystemUnderTest::start`] now consumes
//!   instead of a fresh `BTreeMap<String, String>`: per-file shared
//!   text (`Arc<str>`, no clone per injection) plus a stable
//!   [`ContentId`] identity and a [`TextOrigin`] tag. The campaign
//!   engine derives the tag from its baseline pointer-equality check:
//!   a file whose tree is still `Arc`-shared with the baseline
//!   provably carries no edit and is handed out as
//!   [`TextOrigin::Baseline`]; everything else is serialized fresh and
//!   tagged [`TextOrigin::Mutated`].
//! * [`ParseCache`] — a content-addressed memo table each simulator
//!   keeps from `(file name, ContentId)` to its parsed/validated
//!   startup representation. A hit requires **byte-identical text**
//!   (verified by comparison, never by hash alone), so a memoized
//!   start is provably indistinguishable from a cold parse; the first
//!   sighting of any mutated text always runs the full
//!   parse-and-validate path, keeping failure semantics unchanged.
//!   Baseline-origin entries are pinned for the simulator's lifetime;
//!   mutated-origin entries live in a FIFO-bounded window so unbounded
//!   campaigns cannot grow the cache without limit.
//!
//! A [`FileText`] can also carry a parse of its own bytes
//! ([`FileText::with_parse`]), or a tree its maker knows to be that
//! parse ([`FileText::with_known_parse`], asserted in debug builds),
//! and beside the parse a dialect check of it
//! ([`FileText::with_check`], asserted in debug builds too). The
//! campaign engine gives each freshly prepared mutated file one of
//! the two parses, judges that parse statically, attaches the judge's
//! check to the edited file, and hands both to the start, where a
//! cache miss uses them instead of parsing and validating the bytes
//! again ([`FileText::parse_with`], [`FileText::check_with`]). Cache
//! entries keep only the text and the derived value, never the
//! carried parse or check, and a disabled cache ignores both: the
//! reference path always parses and validates the bytes itself.
//!
//! [`SystemUnderTest::start`]: crate::SystemUnderTest::start

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use conferr_analysis::{Dialect, DialectCheck};
use conferr_formats::{ConfigFormat, ParseError};
use conferr_tree::ConfTree;

/// Stable identity of one exact configuration text: a 64-bit
/// FNV-style hash that takes the bytes one little-endian 8-byte word
/// per step, the tail one byte per step, and the length last.
///
/// Each step XORs a value into the running hash and multiplies by the
/// odd FNV prime, a bijection of the hash, so two texts of one length
/// that differ in a single byte never share an identity.
///
/// Identities index the [`ParseCache`]; equality of identities is
/// necessary but *not* sufficient for a cache hit — the cache always
/// confirms byte equality of the underlying text, so a hash collision
/// degrades to a cold parse instead of a wrong answer. Nothing
/// persists an identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentId(u64);

impl ContentId {
    /// Computes the identity of `text`.
    pub fn of(text: &str) -> Self {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let step = |hash: u64, value: u64| (hash ^ value).wrapping_mul(FNV_PRIME);
        let bytes = text.as_bytes();
        let mut words = bytes.chunks_exact(8);
        let mut hash = FNV_OFFSET;
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("chunks of 8 bytes");
            hash = step(hash, u64::from_le_bytes(word));
        }
        for &byte in words.remainder() {
            hash = step(hash, u64::from(byte));
        }
        let len = u64::try_from(bytes.len()).expect("lengths fit in 64 bits");
        ContentId(step(hash, len))
    }
}

/// Where a payload file's text came from, which decides its cache
/// retention class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextOrigin {
    /// The campaign's pristine baseline text for this file — the
    /// engine proved (by baseline pointer equality) that the injection
    /// did not touch it. Parsed representations are pinned in the
    /// cache for the simulator's lifetime.
    Baseline,
    /// Freshly serialized, potentially fault-carrying text. Its first
    /// sighting always takes the full parse-and-validate path; the
    /// memoized result lives in the FIFO-bounded transient window.
    Mutated,
}

/// One configuration file's text, shared by `Arc` and carrying its
/// [`ContentId`] identity.
///
/// # Examples
///
/// ```
/// use conferr_sut::{ContentId, FileText, TextOrigin};
///
/// let file = FileText::mutated("port = 5432\n");
/// assert_eq!(file.text(), "port = 5432\n");
/// assert_eq!(file.origin(), TextOrigin::Mutated);
/// assert_eq!(file.content_id(), ContentId::of("port = 5432\n"));
/// ```
#[derive(Debug, Clone)]
pub struct FileText {
    text: Arc<str>,
    id: ContentId,
    origin: TextOrigin,
    parsed: Option<Arc<CarriedParse>>,
    check: Option<Arc<DialectCheck>>,
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

impl FileText {
    fn new(text: impl Into<Arc<str>>, origin: TextOrigin) -> Self {
        let text = text.into();
        let id = ContentId::of(&text);
        FileText {
            text,
            id,
            origin,
            parsed: None,
            check: None,
        }
    }

    /// Wraps baseline text (pinned when cached).
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

    /// The text's stable content identity.
    pub fn content_id(&self) -> ContentId {
        self.id
    }

    /// The retention class this text was tagged with.
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
            text: Arc::clone(&self.text),
            id: self.id,
            origin: self.origin,
            parsed: None,
            check: None,
        }
    }
}

/// The serialized configuration set handed to
/// [`SystemUnderTest::start`]: file name → [`FileText`].
///
/// The campaign engine builds one payload per injection; files the
/// fault did not touch reuse the engine's cached baseline `Arc<str>`
/// (and its precomputed [`ContentId`]) instead of cloning `String`s.
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
    /// Lookups served from a memoized representation (byte-identical
    /// text, verified).
    pub hits: u64,
    /// Lookups that ran the full parse-and-validate path.
    pub misses: u64,
    /// Parses performed while the cache was disabled
    /// ([`ParseCache::set_enabled`]); these never touch the memo
    /// table.
    pub bypassed: u64,
    /// Memoized representations currently held (pinned + transient).
    pub entries: usize,
    /// Pinned (baseline-origin) representations currently held.
    pub pinned: usize,
}

struct Entry<T> {
    text: Arc<str>,
    value: Arc<T>,
}

impl<T> Clone for Entry<T> {
    fn clone(&self) -> Self {
        Entry {
            text: Arc::clone(&self.text),
            value: Arc::clone(&self.value),
        }
    }
}

/// Per-file memo table: pinned baseline entries plus a FIFO-bounded
/// window of mutated-text entries.
struct FileCache<T> {
    pinned: HashMap<ContentId, Entry<T>>,
    recent: HashMap<ContentId, Entry<T>>,
    order: VecDeque<ContentId>,
}

impl<T> Default for FileCache<T> {
    fn default() -> Self {
        FileCache {
            pinned: HashMap::new(),
            recent: HashMap::new(),
            order: VecDeque::new(),
        }
    }
}

impl<T> FileCache<T> {
    fn lookup(&self, file: &FileText) -> Option<Arc<T>> {
        let id = file.content_id();
        let entry = self.pinned.get(&id).or_else(|| self.recent.get(&id))?;
        // Identity is an index, not a proof: a hit requires the exact
        // bytes, so a hash collision costs a re-parse, never a wrong
        // outcome.
        (*entry.text == *file.text()).then(|| Arc::clone(&entry.value))
    }

    fn store(&mut self, file: &FileText, value: Arc<T>) {
        let id = file.content_id();
        let entry = Entry {
            text: file.shared_text(),
            value,
        };
        match file.origin() {
            TextOrigin::Baseline => {
                self.pinned.insert(id, entry);
            }
            TextOrigin::Mutated => {
                if self.recent.contains_key(&id) || self.pinned.contains_key(&id) {
                    // A collision under the same id keeps the older
                    // entry; the newer text simply stays uncached (a
                    // pinned-id collision in particular must not park
                    // an unreachable entry in the FIFO window —
                    // lookups check `pinned` first).
                    return;
                }
                while self.recent.len() >= CAPACITY_PER_FILE {
                    let Some(oldest) = self.order.pop_front() else {
                        break;
                    };
                    self.recent.remove(&oldest);
                }
                self.recent.insert(id, entry);
                self.order.push_back(id);
            }
        }
    }

    fn len(&self) -> usize {
        self.pinned.len() + self.recent.len()
    }
}

/// Content-addressed memoization of a simulator's startup
/// parse-and-validate path.
///
/// `T` is whatever deterministic representation the simulator derives
/// from one file's text — typically a `Result<Blueprint, String>`
/// capturing either the validated startup state or the exact
/// startup diagnostic. Because simulators are deterministic functions
/// of their configuration text, memoizing by byte-identical content is
/// observationally invisible: a cache hit returns precisely what the
/// full parse would have produced (asserted end-to-end by
/// `tests/parse_cache.rs`).
///
/// # Examples
///
/// ```
/// use conferr_sut::{FileText, ParseCache};
///
/// let mut cache: ParseCache<usize> = ParseCache::new();
/// let conf = FileText::baseline("listen 80\n");
///
/// let parsed = cache.get_or_parse("app.conf", &conf, |file| file.text().len());
/// assert_eq!(*parsed, 10);
///
/// // Same content: memoized, the closure does not run again.
/// let memoized = cache.get_or_parse("app.conf", &conf, |_| unreachable!());
/// assert_eq!(parsed, memoized);
/// assert_eq!(cache.stats().hits, 1);
///
/// // Different content under the same name: full parse.
/// let edited = FileText::mutated("listen 8080\n");
/// assert_eq!(*cache.get_or_parse("app.conf", &edited, |file| file.text().len()), 12);
/// assert_eq!(cache.stats().misses, 2);
/// ```
pub struct ParseCache<T> {
    files: HashMap<String, FileCache<T>>,
    enabled: bool,
    hits: u64,
    misses: u64,
    bypassed: u64,
}

/// Transient (mutated-origin) entries retained per file. Sized to
/// hold several full Table 1 fault loads' worth of distinct texts;
/// beyond that, the oldest entries are evicted first.
const CAPACITY_PER_FILE: usize = 1024;

impl<T> Default for ParseCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for ParseCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParseCache")
            .field("enabled", &self.enabled)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<T> ParseCache<T> {
    /// Creates an enabled cache. Each file keeps a bounded FIFO
    /// window of mutated-origin entries; baseline-origin entries are
    /// always pinned and not counted against it.
    pub fn new() -> Self {
        ParseCache {
            files: HashMap::new(),
            enabled: true,
            hits: 0,
            misses: 0,
            bypassed: 0,
        }
    }

    /// Enables or disables memoization. While disabled every lookup
    /// runs `parse` on the file stripped of any carried parse and
    /// check, and nothing is stored — the reference cold path used by
    /// benches and equivalence tests.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// `true` iff memoization is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the memoized representation of `file`'s exact text
    /// under `file_name`, running `parse` (the full paper-faithful
    /// parse-and-validate path) on the file when no byte-identical
    /// entry exists. `parse` may take the parse and check the file
    /// carries (see [`FileText::parse_with`] and
    /// [`FileText::check_with`]); a disabled cache hands it the bare
    /// text instead.
    pub fn get_or_parse<F>(&mut self, file_name: &str, file: &FileText, parse: F) -> Arc<T>
    where
        F: FnOnce(&FileText) -> T,
    {
        if !self.enabled {
            self.bypassed += 1;
            return Arc::new(parse(&file.without_parse()));
        }
        if let Some(hit) = self.files.get(file_name).and_then(|fc| fc.lookup(file)) {
            self.hits += 1;
            return hit;
        }
        self.misses += 1;
        let value = Arc::new(parse(file));
        self.files
            .entry(file_name.to_string())
            .or_default()
            .store(file, Arc::clone(&value));
        value
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            bypassed: self.bypassed,
            entries: self.files.values().map(FileCache::len).sum(),
            pinned: self.files.values().map(|fc| fc.pinned.len()).sum(),
        }
    }

    /// Drops every memoized representation (counters are kept).
    pub fn clear(&mut self) {
        self.files.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conferr_analysis::DialectModel;
    use std::cell::Cell;

    #[test]
    fn content_id_is_stable_and_discriminating() {
        assert_eq!(ContentId::of("a"), ContentId::of("a"));
        assert_ne!(ContentId::of("a"), ContentId::of("b"));
        assert_ne!(ContentId::of(""), ContentId::of("\0"));
        assert_ne!(ContentId::of("12345678"), ContentId::of("1234567"));
    }

    #[test]
    fn no_single_byte_substitution_of_a_default_config_keeps_its_id() {
        let sims: [&dyn crate::SystemUnderTest; 3] = [
            &crate::MySqlSim::new(),
            &crate::PostgresSim::new(),
            &crate::ApacheSim::new(),
        ];
        for sim in sims {
            for (name, text) in crate::default_configs(sim) {
                // An ASCII text stays a text under exactly the ASCII
                // substitutions.
                assert!(text.is_ascii(), "{name}");
                let original = ContentId::of(&text);
                let mut bytes = text.into_bytes();
                for at in 0..bytes.len() {
                    let kept = bytes[at];
                    for byte in (0..=0x7f).filter(|&b| b != kept) {
                        bytes[at] = byte;
                        let edited = std::str::from_utf8(&bytes).expect("ASCII");
                        assert_ne!(
                            ContentId::of(edited),
                            original,
                            "{name}: byte {at} = {byte}"
                        );
                    }
                    bytes[at] = kept;
                }
            }
        }
    }

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
        let mut cache: ParseCache<String> = ParseCache::new();
        let runs = Cell::new(0);
        let parse = |file: &FileText| {
            runs.set(runs.get() + 1);
            file.text().to_uppercase()
        };
        let file = FileText::mutated("abc");
        let a = cache.get_or_parse("f", &file, parse);
        let b = cache.get_or_parse("f", &file, parse);
        // Same content under a *fresh* FileText (new Arc) still hits.
        let c = cache.get_or_parse("f", &FileText::mutated("abc"), parse);
        assert_eq!(runs.get(), 1);
        assert_eq!(*a, "ABC");
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&b, &c));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn same_content_under_different_names_is_parsed_per_name() {
        // Diagnostics may embed the file name, so the memo key
        // includes it.
        let mut cache: ParseCache<usize> = ParseCache::new();
        let file = FileText::baseline("x");
        cache.get_or_parse("a.conf", &file, |_| 1);
        let b = cache.get_or_parse("b.conf", &file, |_| 2);
        assert_eq!(*b, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disabled_cache_always_parses_and_stores_nothing() {
        let mut cache: ParseCache<usize> = ParseCache::new();
        cache.set_enabled(false);
        assert!(!cache.enabled());
        let file = FileText::baseline("x");
        cache.get_or_parse("f", &file, |_| 1);
        cache.get_or_parse("f", &file, |_| 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.bypassed), (0, 0, 2));
        assert_eq!(stats.entries, 0);
        // Re-enabling starts cold.
        cache.set_enabled(true);
        cache.get_or_parse("f", &file, |_| 3);
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
        let mut cache: ParseCache<bool> = ParseCache::new();
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
        let mut cache: ParseCache<bool> = ParseCache::new();
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

    #[test]
    fn mutated_entries_are_evicted_fifo_and_pinned_entries_are_not() {
        let mut cache: ParseCache<usize> = ParseCache::new();
        let base = FileText::baseline("base");
        cache.get_or_parse("f", &base, |_| 0);
        // One mutated text more than the window holds.
        let texts: Vec<String> = (0..=CAPACITY_PER_FILE).map(|i| format!("m{i}")).collect();
        for (i, text) in texts.iter().enumerate() {
            cache.get_or_parse("f", &FileText::mutated(text.as_str()), move |_| i + 1);
        }
        let stats = cache.stats();
        assert_eq!(stats.pinned, 1);
        assert_eq!(
            stats.entries,
            CAPACITY_PER_FILE + 1,
            "full window + 1 pinned"
        );
        // m0 (oldest) was evicted; base and the newest text still hit.
        cache.get_or_parse("f", &base, |_| unreachable!());
        let newest = FileText::mutated(texts[CAPACITY_PER_FILE].as_str());
        cache.get_or_parse("f", &newest, |_| unreachable!());
        let evicted = cache.get_or_parse("f", &FileText::mutated("m0"), |_| 0);
        assert_eq!(*evicted, 0, "m0 is parsed afresh");
    }

    #[test]
    fn clear_drops_entries() {
        let mut cache: ParseCache<usize> = ParseCache::new();
        cache.get_or_parse("f", &FileText::baseline("x"), |_| 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        cache.get_or_parse("f", &FileText::baseline("x"), |_| 2);
        assert_eq!(cache.stats().misses, 2);
    }
}
