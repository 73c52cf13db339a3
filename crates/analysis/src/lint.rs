//! The fault linter: static verdicts and touch maps for prepared
//! faults, plus whole-file surveys for the `conferr-lint` CLI.
//!
//! A verdict is judged on the bytes the simulator starts from: the
//! edited file serialized with its real format and parsed again with
//! the real parser. [`FaultLinter::judge`] takes that parse (or its
//! `ParseError`), runs the extracted dialect validator over it (a
//! [`DialectCheck`]) and compares the typed model the validator
//! returns (the dialect's `fingerprint`: resolved values, service
//! shape, warnings) with the baseline's model by `==`. The injection
//! engine hands it the parse it makes once per fault, and passes that
//! parse and the judge's check on to the SUT's start, whose simulator
//! builds its startup state from the check instead of validating
//! again. When that parse is the engine's *known parse* (the baseline
//! tree with one in-place edit applied), the judge patches Apache's
//! check from the baseline's model instead of running it whole (see
//! [`DialectModel::patched`]). [`FaultLinter::lint`] is the standalone
//! entry point: it runs
//! the round trip itself (apply to the baseline, serialize, parse) and
//! judges the result. Because every stage reuses the exact code the
//! simulator runs at startup, `WillFailParse`/`WillFailValidate`
//! verdicts are sound by construction — the dynamic start cannot
//! disagree.

use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

use conferr_formats::{format_by_name, ConfigFormat, ParseError};
use conferr_model::{ConfigSet, ErrorClass, FaultScenario, TreeEdit, TypoKind};
use conferr_tree::{ConfTree, Node};

use crate::schema::{Dialect, DirectiveSchema};
use crate::touch::{edit_parses_in_place, touch_of_edit, FileTouch, TouchMap};
use crate::value::RegistryValues;
use crate::verdict::{StaticVerdict, Violation};

static EMPTY_TOUCH: LazyLock<Arc<TouchMap>> = LazyLock::new(|| Arc::new(TouchMap::new()));

/// The linter's answer for one fault: a verdict about the start
/// outcome and a touch map bounding what the edit can affect.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Predicted start behaviour.
    pub verdict: StaticVerdict,
    /// Files/directives the fault can affect (shared: many callers
    /// hold the same lint).
    pub touch: Arc<TouchMap>,
    /// For the two `WillFail*` verdicts: the *exact* startup
    /// diagnostic the simulator would emit, captured from the shared
    /// deciders so a static-triage campaign can synthesize the
    /// `DetectedAtStartup` outcome without paying for the start.
    /// `None` whenever the verdict makes no start-failure claim.
    pub diagnostic: Option<Arc<str>>,
}

impl Lint {
    /// The lint of an empty edit list: byte-identical to the
    /// baseline, touching nothing.
    pub fn identity() -> Lint {
        Lint {
            verdict: StaticVerdict::SemanticallySilent,
            touch: Arc::clone(&EMPTY_TOUCH),
            diagnostic: None,
        }
    }

    /// No prediction, bounded by `touch`.
    fn undecided(touch: TouchMap) -> Lint {
        Lint {
            verdict: StaticVerdict::Unknown,
            touch: Arc::new(touch),
            diagnostic: None,
        }
    }
}

/// Pre-flight linter for one system's fault space.
///
/// Construction captures the baseline [`ConfigSet`] and computes each
/// modeled file's baseline model (its dialect's typed fingerprint)
/// through the same serialize→re-parse round trip later applied to
/// edited trees, so model comparisons never see formatting noise; a
/// file its caller knows to round-trip is modeled on its baseline tree
/// directly (see [`FaultLinter::with_round_trips`]). A fault whose
/// edited file validates to a model `==` the baseline's is
/// `SemanticallySilent`. The linter is `Sync` and keeps no per-fault
/// state; campaigns share one across worker threads.
pub struct FaultLinter {
    schema: &'static DirectiveSchema,
    baseline: ConfigSet,
    formats: BTreeMap<&'static str, Box<dyn ConfigFormat>>,
    baseline_models: BTreeMap<&'static str, BaselineModel>,
}

/// One schema file's baseline model.
struct BaselineModel {
    /// The dialect's model of the baseline, `None` when the baseline
    /// does not serialize, parse or validate.
    model: Option<DialectModel>,
    /// The model was computed on the baseline tree itself, so it can be
    /// patched into the model of that tree with one edit applied.
    of_tree: bool,
}

impl std::fmt::Debug for FaultLinter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultLinter")
            .field("system", &self.schema.system)
            .finish_non_exhaustive()
    }
}

impl FaultLinter {
    /// Builds a linter for `schema` over the given baseline, modeling
    /// every baseline file through the serialize→re-parse round trip.
    ///
    /// # Errors
    ///
    /// When a schema file names a format the registry does not
    /// provide (a schema bug, not a user error).
    pub fn new(schema: &'static DirectiveSchema, baseline: ConfigSet) -> Result<Self, String> {
        Self::with_round_trips(schema, baseline, |_| false)
    }

    /// [`FaultLinter::new`] for a caller that knows which baseline
    /// files round-trip: `round_trips(file)` promises that `baseline`'s
    /// tree for `file` is the parse of its own serialization. Such a
    /// file is modeled on that tree without the round trip, which
    /// would give the same tree back, and only such a model lets
    /// [`FaultLinter::judge`] patch the check of a known parse instead
    /// of running it whole.
    ///
    /// # Errors
    ///
    /// When a schema file names a format the registry does not
    /// provide (a schema bug, not a user error).
    pub fn with_round_trips(
        schema: &'static DirectiveSchema,
        baseline: ConfigSet,
        round_trips: impl Fn(&str) -> bool,
    ) -> Result<Self, String> {
        let mut formats = BTreeMap::new();
        for fs in schema.files {
            let format = format_by_name(fs.format)
                .ok_or_else(|| format!("{}: unknown format '{}'", schema.system, fs.format))?;
            formats.insert(fs.file, format);
        }
        let mut baseline_models = BTreeMap::new();
        for fs in schema.files {
            let of_tree = round_trips(fs.file);
            let model = baseline.get(fs.file).and_then(|tree| {
                let check = if of_tree {
                    DialectCheck::run(fs.dialect, tree.root())
                } else {
                    let format = formats.get(fs.file)?;
                    let text = format.serialize(tree).ok()?;
                    let reparsed = format.parse(&text).ok()?;
                    DialectCheck::run(fs.dialect, reparsed.root())
                };
                check?.result.ok()
            });
            baseline_models.insert(fs.file, BaselineModel { model, of_tree });
        }
        Ok(FaultLinter {
            schema,
            baseline,
            formats,
            baseline_models,
        })
    }

    /// The schema this linter enforces.
    pub fn schema(&self) -> &'static DirectiveSchema {
        self.schema
    }

    /// Lints a fault's edit list on its own: applies it to the
    /// baseline, serializes the edited file with the schema's format,
    /// asks [`edit_parses_in_place`] about the edit, parses those
    /// bytes again and [judges](FaultLinter::judge) the parse. Nothing
    /// is memoized; the injection engine judges the parse it already
    /// made instead, under its fault memo.
    pub fn lint(&self, edits: &[TreeEdit]) -> Lint {
        let [edit] = edits else {
            return self.judge(edits, false, false, None).0;
        };
        let file = edit.file();
        let probe = FaultScenario {
            id: String::new(),
            description: String::new(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: edits.to_vec(),
        };
        let mut in_place = false;
        let reparsed = self.formats.get(file).and_then(|format| {
            let edited = probe.apply(&self.baseline).ok()?;
            let tree = edited.get(file)?;
            let text = format.serialize(tree).ok()?;
            in_place = edit_parses_in_place(format.as_ref(), self.baseline.get(file)?, tree, edit);
            Some(format.parse(&text))
        });
        self.judge(
            edits,
            in_place,
            false,
            reparsed.as_ref().map(Result::as_ref),
        )
        .0
    }

    /// Judges a fault from the parse of its edited file, and returns
    /// the [`DialectCheck`] it ran on that parse beside the verdict.
    ///
    /// `in_place` is the [`edit_parses_in_place`] answer for a single
    /// edit, which decides its touch map (see [`touch_of_edit`]); it
    /// is ignored for any other edit list. `reparsed` is what the
    /// schema's format parses the edited file's serialized bytes into
    /// — the bytes the simulator starts from. `None` means there are
    /// no such bytes: the edits did not apply (the campaign skips the
    /// fault) or the edited tree cannot be expressed in the format
    /// (the campaign reports it without starting the SUT). Empty and
    /// compound edit lists are judged without looking at `reparsed`.
    ///
    /// The check is the validation of a single edit's parsed file, the
    /// one the simulator's start runs on the same tree. It is `None`
    /// when nothing was validated: no tree, several edits, or a
    /// dialect that is not [fully modeled](Dialect::is_fully_modeled).
    ///
    /// `known` says that the parse is the *known parse*: the edit's
    /// own tree, the baseline with that one edit applied, which the
    /// injection engine hands over instead of parsing when the edited
    /// node parses in place. The check of such a tree can be patched
    /// from the baseline's model ([`DialectModel::patched`]) when that
    /// model is of the baseline tree itself (see
    /// [`FaultLinter::with_round_trips`]): for Apache, only the written
    /// node is validated, and the service construction is replayed only
    /// when it reads that node. Every other check runs whole, and both
    /// are equal to [`DialectCheck::run`] on the tree.
    pub fn judge(
        &self,
        edits: &[TreeEdit],
        in_place: bool,
        known: bool,
        reparsed: Option<Result<&ConfTree, &ParseError>>,
    ) -> (Lint, Option<DialectCheck>) {
        let [edit] = edits else {
            if edits.is_empty() {
                return (Lint::identity(), None);
            }
            // Compound faults: per-edit path refinement against the
            // baseline is unsound (later edits see shifted paths), so
            // bound them by their edited files only.
            let touch = edits
                .iter()
                .map(|e| (e.file().to_string(), FileTouch::WholeFile))
                .collect();
            return (Lint::undecided(touch), None);
        };
        let file = edit.file();
        let refined = || touch_of_edit(self.schema, &self.baseline, edit, in_place);
        let (Some(fs), Some(reparsed)) = (self.schema.file(file), reparsed) else {
            return (Lint::undecided(refined()), None);
        };
        let tree = match reparsed {
            Ok(tree) => tree,
            Err(e) => {
                // The simulator will hit the same parser on the same
                // bytes; its wrapper comes from the shared dialect
                // formatter, so this diagnostic is the dynamic one.
                let diagnostic = fs.dialect.parse_failure_diagnostic(&e.to_string());
                let lint = Lint {
                    verdict: StaticVerdict::WillFailParse,
                    touch: Arc::new(whole_file_touch(file)),
                    diagnostic: Some(diagnostic.into()),
                };
                return (lint, None);
            }
        };

        let base = self.baseline_models.get(file);
        let patched = base
            .filter(|base| known && base.of_tree)
            .and_then(|base| {
                let before = self.baseline.get(file)?;
                base.model.as_ref()?.patched(before, tree, edit)
            })
            .map(|result| DialectCheck {
                dialect: fs.dialect,
                result,
            });
        let Some(check) = patched.or_else(|| DialectCheck::run(fs.dialect, tree.root())) else {
            return (Lint::undecided(refined()), None);
        };
        let lint = match &check.result {
            Err(violation) => Lint {
                verdict: violation.clone().into_verdict(),
                touch: Arc::new(whole_file_touch(file)),
                // The shared decider's message *is* the simulator's
                // startup diagnostic, verbatim.
                diagnostic: Some(Arc::from(violation.message.as_str())),
            },
            Ok(model) => {
                let silent = base
                    .and_then(|base| base.model.as_ref())
                    .is_some_and(|base| base == model);
                Lint {
                    verdict: if silent {
                        StaticVerdict::SemanticallySilent
                    } else {
                        StaticVerdict::Unknown
                    },
                    touch: Arc::new(refined()),
                    diagnostic: None,
                }
            }
        };
        (lint, Some(check))
    }
}

fn whole_file_touch(file: &str) -> TouchMap {
    let mut map = TouchMap::new();
    map.insert(file.to_string(), FileTouch::WholeFile);
    map
}

/// A fully modeled dialect's typed fingerprint of one file:
/// everything its functional tests can observe. The linter compares
/// models with `==`; the simulators build their startup state from
/// them.
#[derive(Debug, PartialEq)]
pub enum DialectModel {
    /// `my.cnf`: [`crate::mysql::fingerprint`].
    MySql(crate::mysql::ServerModel),
    /// `postgresql.conf`: [`crate::postgres::fingerprint`], shared
    /// with the simulator's startup state built from it.
    Postgres(Arc<RegistryValues>),
    /// `httpd.conf`: [`crate::apache::fingerprint`], shared with the
    /// baseline's model by a check patched from it.
    Apache(Arc<crate::apache::StartupModel>),
    /// tinydns `data`: [`crate::tinydns::fingerprint`].
    TinyDns(Vec<(String, String)>),
}

impl DialectModel {
    /// The model of `after`, the tree `before` that `self` models with
    /// `edit` applied, derived from `self` instead of validating all of
    /// `after`, or `None` when the dialect derives none for that edit.
    /// Only Apache does, for a `SetText`, `SetAttr` or `Delete`: it
    /// validates the written node alone, since every other node passed
    /// in `before`, and replays [`crate::apache::startup_model`] only
    /// when that reads the old or the new node
    /// ([`crate::apache::startup_reads`]); otherwise the model shares
    /// `self`'s by `Arc`.
    ///
    /// # Errors
    ///
    /// The [`Violation`] a [`DialectCheck::run`] on `after` would
    /// report.
    pub fn patched(
        &self,
        before: &ConfTree,
        after: &ConfTree,
        edit: &TreeEdit,
    ) -> Option<Result<DialectModel, Violation>> {
        match self {
            DialectModel::Apache(base) => {
                crate::apache::patched_fingerprint(base, before, after, edit)
                    .map(|result| result.map(DialectModel::Apache))
            }
            _ => None,
        }
    }
}

/// One run of a dialect's startup validator over one parsed file: the
/// typed model, or the first violation in the order the simulator
/// reports it, tagged with the dialect that ran.
#[derive(Debug, PartialEq)]
pub struct DialectCheck {
    /// The dialect whose validator ran.
    pub dialect: Dialect,
    /// What it returned.
    pub result: Result<DialectModel, Violation>,
}

impl DialectCheck {
    /// Runs `dialect`'s validator over `root`, or returns `None` when
    /// the dialect is not [fully modeled](Dialect::is_fully_modeled).
    pub fn run(dialect: Dialect, root: &Node) -> Option<DialectCheck> {
        let result = match dialect {
            Dialect::MySqlIni => crate::mysql::fingerprint(root).map(DialectModel::MySql),
            Dialect::PostgresKv => crate::postgres::fingerprint(root)
                .map(|vars| DialectModel::Postgres(Arc::new(vars))),
            Dialect::ApacheHttpd => {
                crate::apache::fingerprint(root).map(|model| DialectModel::Apache(Arc::new(model)))
            }
            Dialect::TinyDns => crate::tinydns::fingerprint(root).map(DialectModel::TinyDns),
            Dialect::BindZone | Dialect::AppServerXml => return None,
        };
        Some(DialectCheck { dialect, result })
    }
}

/// Per-file node statistics for the `conferr-lint` CLI: how much of a
/// real configuration the dialect model understands, and any outright
/// violations it detects.
#[derive(Debug, Clone)]
pub struct FileSurvey {
    /// File name the survey ran over.
    pub file: String,
    /// Nodes surveyed (directives, records, data lines).
    pub total: usize,
    /// Nodes whose semantics the dialect model captures.
    pub known: usize,
    /// Violations the static model detects in the file as-is.
    pub violations: Vec<Violation>,
}

impl FileSurvey {
    /// Fraction of surveyed nodes the model cannot classify.
    pub fn unknown_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                (self.total - self.known) as f64 / self.total as f64
            }
        }
    }
}

/// Surveys one configuration file against a system's schema.
///
/// # Errors
///
/// When the schema does not declare `file_name`, the format registry
/// lacks the declared format, or the file does not parse.
pub fn survey(
    schema: &DirectiveSchema,
    file_name: &str,
    contents: &str,
) -> Result<FileSurvey, String> {
    let fs = schema
        .file(file_name)
        .ok_or_else(|| format!("{}: schema declares no file '{file_name}'", schema.system))?;
    let format = format_by_name(fs.format)
        .ok_or_else(|| format!("{}: unknown format '{}'", schema.system, fs.format))?;
    let tree = format
        .parse(contents)
        .map_err(|e| format!("{file_name}: parse error: {e}"))?;

    let mut total = 0usize;
    let mut known = 0usize;
    let mut violations = Vec::new();
    match fs.dialect {
        Dialect::MySqlIni => {
            for section in tree.root().children() {
                if section.kind() != "section" {
                    continue;
                }
                let in_server = section.attr("name") == Some("mysqld");
                for node in section.children() {
                    if node.kind() != "directive" {
                        continue;
                    }
                    total += 1;
                    if !in_server {
                        // Non-[mysqld] sections are inert to the
                        // server: fully understood by the model.
                        known += 1;
                        continue;
                    }
                    let raw = node.attr("name").unwrap_or("");
                    let name = crate::mysql::normalize_name(raw);
                    if crate::value::resolve_prefix(
                        crate::mysql::SERVER_REGISTRY.iter().map(|s| s.name),
                        &name,
                    )
                    .is_ok()
                    {
                        known += 1;
                    }
                }
            }
            if let Err(v) = crate::mysql::fingerprint(tree.root()) {
                violations.push(v);
            }
        }
        Dialect::PostgresKv => {
            for node in tree.root().children() {
                if node.kind() != "directive" {
                    continue;
                }
                total += 1;
                let name = crate::postgres::canonical_name(node.attr("name").unwrap_or(""));
                if crate::postgres::REGISTRY.iter().any(|s| s.name == name) {
                    known += 1;
                }
            }
            if let Err(v) = crate::postgres::fingerprint(tree.root()) {
                violations.push(v);
            }
        }
        Dialect::ApacheHttpd => {
            survey_apache_nodes(tree.root(), &mut total, &mut known);
            if let Err(v) = crate::apache::fingerprint(tree.root()) {
                violations.push(v);
            }
        }
        Dialect::TinyDns => {
            for node in tree.root().children() {
                if node.kind() != "line" {
                    continue;
                }
                total += 1;
                let ty = node.attr("type").unwrap_or("");
                if crate::tinydns::IP_CHECKED_TYPES.contains(&ty)
                    || crate::tinydns::UNCHECKED_TYPES.contains(&ty)
                {
                    known += 1;
                }
            }
            if let Err(v) = crate::tinydns::check_file(tree.root()) {
                violations.push(v);
            }
        }
        Dialect::BindZone | Dialect::AppServerXml => {
            // No dialect model: every substantive node is unknown.
            total = count_substantive(tree.root());
        }
    }
    Ok(FileSurvey {
        file: file_name.to_string(),
        total,
        known,
        violations,
    })
}

fn survey_apache_nodes(node: &Node, total: &mut usize, known: &mut usize) {
    for child in node.children() {
        match child.kind() {
            "directive" => {
                *total += 1;
                let name = crate::apache::canonical_name(child.attr("name").unwrap_or(""));
                if crate::apache::rule_for(&name).is_some() {
                    *known += 1;
                }
            }
            "section" => {
                *total += 1;
                let name = child.attr("name").unwrap_or("");
                if crate::apache::SECTIONS
                    .iter()
                    .any(|s| s.eq_ignore_ascii_case(name))
                {
                    *known += 1;
                }
                survey_apache_nodes(child, total, known);
            }
            _ => {}
        }
    }
}

fn count_substantive(node: &Node) -> usize {
    node.children()
        .iter()
        .map(|c| {
            let own = usize::from(!matches!(c.kind(), "comment" | "blank"));
            own + count_substantive(c)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{schema_for, MYSQL_SCHEMA};
    use conferr_formats::IniFormat;
    use conferr_tree::TreePath;

    fn mysql_baseline() -> ConfigSet {
        let text = "[mysqld]\nport=3306\nsort_buffer_size=2097152\n# notes\n";
        let tree = IniFormat::new().parse(text).expect("fixture parses");
        let mut set = ConfigSet::new();
        set.insert("my.cnf", tree);
        set
    }

    fn linter() -> FaultLinter {
        FaultLinter::new(&MYSQL_SCHEMA, mysql_baseline()).expect("formats resolve")
    }

    #[test]
    fn unknown_variable_is_will_fail_validate() {
        let l = linter();
        let lint = l.lint(&[TreeEdit::SetAttr {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(0),
            key: "name".into(),
            value: "prot".into(),
        }]);
        assert!(matches!(
            lint.verdict,
            StaticVerdict::WillFailValidate { ref directive, .. } if directive == "prot"
        ));
        assert_eq!(lint.touch.get("my.cnf"), Some(&FileTouch::WholeFile));
    }

    #[test]
    fn comment_churn_is_semantically_silent() {
        let l = linter();
        let lint = l.lint(&[TreeEdit::SetText {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(2),
            text: Some("# different notes".into()),
        }]);
        assert_eq!(lint.verdict, StaticVerdict::SemanticallySilent);
    }

    #[test]
    fn value_change_within_registry_is_unknown_with_refined_touch() {
        let l = linter();
        let lint = l.lint(&[TreeEdit::SetText {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(1),
            text: Some("4194304".into()),
        }]);
        assert_eq!(lint.verdict, StaticVerdict::Unknown);
        let FileTouch::Directives(touched) = lint.touch.get("my.cnf").expect("touched") else {
            panic!("expected refined touch");
        };
        assert!(touched.contains("sort_buffer_size"));
    }

    #[test]
    fn empty_and_compound_edit_lists_take_the_cheap_paths() {
        let l = linter();
        let lint = l.lint(&[]);
        assert_eq!(lint.verdict, StaticVerdict::SemanticallySilent);
        assert!(lint.touch.is_empty());

        let e = TreeEdit::Delete {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(2),
        };
        let lint = l.lint(&[e.clone(), e]);
        assert_eq!(lint.verdict, StaticVerdict::Unknown);
        assert_eq!(lint.touch.get("my.cnf"), Some(&FileTouch::WholeFile));
    }

    #[test]
    fn will_fail_verdicts_capture_the_startup_diagnostic() {
        let l = linter();
        let lint = l.lint(&[TreeEdit::SetAttr {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(0),
            key: "name".into(),
            value: "prot".into(),
        }]);
        let diag = lint
            .diagnostic
            .expect("validate failures carry the simulator diagnostic");
        assert!(
            diag.contains("prot"),
            "diagnostic names the directive: {diag}"
        );
        // Verdicts that make no start-failure claim carry none.
        assert!(l.lint(&[]).diagnostic.is_none());
        let silent = l.lint(&[TreeEdit::SetText {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(2),
            text: Some("# other notes".into()),
        }]);
        assert!(silent.diagnostic.is_none());
    }

    #[test]
    fn judge_decides_from_the_parse_it_is_given() {
        let l = linter();
        let edits = [TreeEdit::SetAttr {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(0),
            key: "name".into(),
            value: "prot".into(),
        }];
        let bytes = "[mysqld]\nprot=3306\nsort_buffer_size=2097152\n# notes\n";
        let tree = IniFormat::new().parse(bytes).unwrap();
        let (judged, check) = l.judge(&edits, true, false, Some(Ok(&tree)));
        assert_eq!(judged.verdict, l.lint(&edits).verdict);
        assert!(matches!(
            judged.verdict,
            StaticVerdict::WillFailValidate { .. }
        ));
        // The check it hands back is the simulator's validation of
        // that tree.
        assert_eq!(check, DialectCheck::run(Dialect::MySqlIni, tree.root()));
        assert!(check.is_some_and(|c| c.result.is_err()));

        let error = IniFormat::new().parse("[mysqld\n").unwrap_err();
        let (judged, check) = l.judge(&edits, true, false, Some(Err(&error)));
        assert_eq!(judged.verdict, StaticVerdict::WillFailParse);
        assert!(check.is_none(), "nothing parsed, nothing checked");
        assert_eq!(
            judged.diagnostic.as_deref(),
            Some(
                Dialect::MySqlIni
                    .parse_failure_diagnostic(&error.to_string())
                    .as_str()
            )
        );

        // No bytes to judge: no prediction, no check.
        let (judged, check) = l.judge(&edits, false, false, None);
        assert_eq!(judged.verdict, StaticVerdict::Unknown);
        assert!(check.is_none());
    }

    #[test]
    fn survey_rates_default_like_configs() {
        let schema = schema_for("mysql").unwrap();
        let s = survey(
            schema,
            "my.cnf",
            "[client]\nport=3306\n[mysqld]\nport=3306\n",
        )
        .unwrap();
        assert_eq!((s.total, s.known), (2, 2));
        assert!(s.violations.is_empty());
        assert!(s.unknown_rate().abs() < f64::EPSILON);

        let s = survey(schema, "my.cnf", "[mysqld]\nnot_a_variable=1\n").unwrap();
        assert_eq!((s.total, s.known), (1, 0));
        assert_eq!(s.violations.len(), 1);
        assert!((s.unknown_rate() - 1.0).abs() < f64::EPSILON);
    }
}
