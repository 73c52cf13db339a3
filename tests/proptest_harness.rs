//! Cross-crate property tests: arbitrary injections must never break
//! the pipeline's invariants.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use conferr::{
    sut_factory, Campaign, CampaignExecutor, CollectingSink, ExecutorCampaign, InjectionOutcome,
    InjectionResult, CHUNK_SIZE,
};
use conferr_analysis::{
    edit_parses_in_place, touch_of_edit, DirectiveSchema, FileTouch, APACHE_SCHEMA, MYSQL_SCHEMA,
    POSTGRES_SCHEMA,
};
use conferr_formats::{child_offsets, format_by_name, splice_child};
use conferr_keyboard::Keyboard;
use conferr_model::{
    ConfigSet, EagerSource, ErrorClass, ErrorGenerator, FaultScenario, GeneratedFault, TreeEdit,
    TypoKind,
};
use conferr_plugins::{TokenClass, TypoPlugin};
use conferr_sut::{MySqlSim, PostgresSim};
use conferr_tree::{ConfTree, Node, NodeQuery, TreePath};
use proptest::prelude::*;

/// Arbitrary printable-ASCII value strings, including empty and
/// whitespace-bearing ones.
fn arb_value() -> impl Strategy<Value = String> {
    "[ -~]{0,24}"
}

/// Edit strings: printable ASCII mixed with line breaks, tabs and the
/// line-based formats' comment, section and separator characters.
fn arb_edit_string() -> impl Strategy<Value = String> {
    "[ -~\n\r\t#;\\[\\]<>/=\n\r#<>]{0,12}"
}

/// Renders generated lines `(kind, word, text)` as a `format`
/// document: directives, `#` comments, blanks and, where the format
/// has them, sections (INI headers; nested Apache blocks, all closed
/// by the end). Every line ends in `\r\n` or `\n`.
fn render_doc(format: &str, lines: &[(u8, String, String)], crlf: bool) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut out = String::new();
    let mut open: Vec<&str> = Vec::new();
    for (kind, word, text) in lines {
        let line = match (format, kind) {
            (_, 1) => format!("# {text}"),
            (_, 2) => String::new(),
            ("ini", 3) => format!("[{word}]"),
            ("apache", 3) => {
                open.push(word);
                format!("<{word} {}>", text.replace('>', ""))
            }
            ("apache", 4) => match open.pop() {
                Some(name) => format!("</{name}>"),
                None => continue,
            },
            ("kv", _) => format!("{word} = {text}"),
            ("ini", _) => format!("{word}={text}"),
            _ => format!("{word} {text}"),
        };
        out.push_str(&line);
        out.push_str(eol);
    }
    while let Some(name) = open.pop() {
        out.push_str(&format!("</{name}>{eol}"));
    }
    out
}

/// A small shared workload for the scheduler properties: one
/// Postgres campaign, a modest typo load, and its serial reference
/// outcomes — built once, reused by every proptest case.
struct SchedulerFixture {
    campaign: ExecutorCampaign,
    faults: Vec<GeneratedFault>,
    reference: Vec<InjectionOutcome>,
}

fn scheduler_fixture() -> &'static SchedulerFixture {
    static FIXTURE: OnceLock<SchedulerFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).expect("campaign");
        let plugin = TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveNames)
            .with_kinds([TypoKind::Omission, TypoKind::Transposition]);
        let faults: Vec<GeneratedFault> = plugin
            .generate(campaign.baseline())
            .expect("generate")
            .into_iter()
            .take(48)
            .collect();
        let reference = {
            let mut sut = PostgresSim::new();
            let mut serial = Campaign::new(&mut sut).expect("campaign");
            serial
                .run_faults(faults.clone())
                .expect("serial run")
                .outcomes()
                .to_vec()
        };
        SchedulerFixture {
            campaign,
            faults,
            reference,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever value string lands in a Postgres directive, the
    /// campaign must classify it without panicking, and the outcome
    /// is never "skipped" (the scenario always applies).
    #[test]
    fn postgres_classifies_arbitrary_values(value in arb_value(), idx in 0usize..8) {
        let mut sut = PostgresSim::new();
        let mut campaign = Campaign::new(&mut sut).unwrap();
        let query: NodeQuery = "//directive".parse().unwrap();
        let tree = campaign.baseline().get("postgresql.conf").unwrap();
        let paths = query.select(tree);
        let path = paths[idx % paths.len()].clone();
        let faults = vec![GeneratedFault::Scenario(FaultScenario {
            id: "prop".into(),
            description: "arbitrary value".into(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![TreeEdit::SetText {
                file: "postgresql.conf".into(),
                path,
                text: Some(value),
            }],
        })];
        let profile = campaign.run_faults(faults).unwrap();
        prop_assert_eq!(profile.len(), 1);
        let skipped = matches!(
            profile.outcomes()[0].result,
            InjectionResult::Skipped { .. }
        );
        prop_assert!(!skipped);
    }

    /// Same for MySQL, whose leniency must never turn into a crash,
    /// and whose silently-absorbed values must leave the server in a
    /// startable state.
    #[test]
    fn mysql_classifies_arbitrary_values(value in arb_value(), idx in 0usize..8) {
        let mut sut = MySqlSim::new();
        let mut campaign = Campaign::new(&mut sut).unwrap();
        let query: NodeQuery = "//section[@name='mysqld']/directive".parse().unwrap();
        let tree = campaign.baseline().get("my.cnf").unwrap();
        let paths = query.select(tree);
        let path = paths[idx % paths.len()].clone();
        let faults = vec![GeneratedFault::Scenario(FaultScenario {
            id: "prop".into(),
            description: "arbitrary value".into(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![TreeEdit::SetText {
                file: "my.cnf".into(),
                path,
                text: Some(value),
            }],
        })];
        let profile = campaign.run_faults(faults).unwrap();
        prop_assert_eq!(profile.len(), 1);
    }

    /// Arbitrary *name* corruption is always either detected at
    /// startup or absorbed — never a functional-test surprise for
    /// Postgres (names are checked before the server comes up).
    #[test]
    fn postgres_name_corruption_never_reaches_functional_tests(
        name in "[a-zA-Z_]{1,20}",
    ) {
        let mut sut = PostgresSim::new();
        let mut campaign = Campaign::new(&mut sut).unwrap();
        let query: NodeQuery = "//directive[@name='port']".parse().unwrap();
        let tree = campaign.baseline().get("postgresql.conf").unwrap();
        let path = query.select(tree).into_iter().next().unwrap();
        let faults = vec![GeneratedFault::Scenario(FaultScenario {
            id: "prop-name".into(),
            description: "arbitrary name".into(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![TreeEdit::SetAttr {
                file: "postgresql.conf".into(),
                path,
                key: "name".into(),
                value: name,
            }],
        })];
        let profile = campaign.run_faults(faults).unwrap();
        let functional = matches!(
            profile.outcomes()[0].result,
            InjectionResult::DetectedByFunctionalTest { .. }
        );
        prop_assert!(!functional);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The node check behind the engine's parse splice is sound: in a
    /// kv, INI or Apache document that serializes back to itself and
    /// ends in `\n`, one `SetText`, `SetAttr` or `Delete` whose node
    /// parses in place leaves a tree that is the parse of its own
    /// serialization. That serialization is also the document's text
    /// with the edited top-level node's own lines spliced in, which is
    /// how the engine builds it.
    #[test]
    fn an_edit_whose_node_parses_in_place_needs_no_parse(
        format in prop::sample::select(vec!["kv", "ini", "apache"]),
        lines in prop::collection::vec((0u8..5, "[A-Za-z_]{1,8}", "[ -~]{0,10}"), 1..14),
        crlf in any::<bool>(),
        (op, idx) in (0u8..3, 0usize..64),
        key in prop::sample::select(vec!["name", "sep", "trailing", "indent", "args", "bare"]),
        value in arb_edit_string(),
    ) {
        let fmt = format_by_name(format).unwrap();
        let text = render_doc(format, &lines, crlf);
        let mut baseline = ConfigSet::new();
        baseline.insert("doc", fmt.parse(&text).unwrap());
        let tree = baseline.get("doc").unwrap();
        prop_assert_eq!(fmt.serialize(tree).unwrap(), text.clone());
        let offsets = child_offsets(fmt.as_ref(), tree, &text);
        prop_assert!(offsets.is_some(), "{} document {:?} has no child offsets", format, text);
        let offsets = offsets.unwrap();
        let paths: Vec<TreePath> = tree.iter().skip(1).map(|(path, _)| path).collect();
        if let Some(path) = paths.get(idx % paths.len().max(1)).cloned() {
            let file = "doc".to_string();
            let edit = match op {
                0 => TreeEdit::SetText { file, path: path.clone(), text: Some(value) },
                1 => TreeEdit::SetAttr { file, path: path.clone(), key: key.to_string(), value },
                _ => TreeEdit::Delete { file, path: path.clone() },
            };
            let deleted = matches!(edit, TreeEdit::Delete { .. });
            let scenario = FaultScenario {
                id: "prop-splice".into(),
                description: "one edit".into(),
                class: ErrorClass::Typo(TypoKind::Substitution),
                edits: vec![edit],
            };
            let mutated = scenario.apply(&baseline).unwrap();
            let mutated = mutated.get("doc").unwrap();
            let node = if deleted { tree } else { mutated }.node_at(&path).unwrap();
            if fmt.parses_in_place(node) {
                let bytes = fmt.serialize(mutated).unwrap();
                prop_assert_eq!(
                    fmt.parse(&bytes).as_ref(),
                    Ok(mutated),
                    "{} document {:?} edited to {:?}",
                    format, text, bytes
                );
                let top = path.indices()[0];
                let lines = (!deleted || path.depth() > 1).then(|| &mutated.root().children()[top]);
                prop_assert_eq!(
                    splice_child(fmt.as_ref(), &text, &offsets, top, lines).unwrap(),
                    bytes,
                    "{} document {:?} spliced at {}",
                    format, text, path
                );
            }
        }
    }
}

/// A dialect's directive-name resolution: the canonical names a raw
/// spelling can stand for.
type Canonical = fn(&str) -> Vec<String>;

/// The schema, file name and directive-name resolution that govern a
/// generated document of `format`.
fn linted_as(format: &str) -> (&'static DirectiveSchema, &'static str, Canonical) {
    match format {
        "kv" => (&POSTGRES_SCHEMA, "postgresql.conf", |raw| {
            vec![conferr_analysis::postgres::canonical_name(raw)]
        }),
        "ini" => (
            &MYSQL_SCHEMA,
            "my.cnf",
            conferr_analysis::mysql::canonical_names,
        ),
        _ => (&APACHE_SCHEMA, "httpd.conf", |raw| {
            vec![conferr_analysis::apache::canonical_name(raw)]
        }),
    }
}

/// Every directive of `node`'s subtree whose canonical names all lie
/// outside `touched`, in document order, with the sections around it.
fn untouched_directives(
    node: &Node,
    sections: &mut Vec<Node>,
    canonical: Canonical,
    touched: &BTreeSet<String>,
    out: &mut Vec<(Vec<Node>, Node)>,
) {
    for child in node.children() {
        match child.kind() {
            "directive" => {
                let names = canonical(child.attr("name").unwrap_or(""));
                if !names.iter().any(|n| touched.contains(n)) {
                    out.push((sections.clone(), child.clone()));
                }
            }
            "section" => {
                let mut header = child.clone();
                header.children_mut().clear();
                sections.push(header);
                untouched_directives(child, sections, canonical, touched, out);
                sections.pop();
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Touch maps are sound: in a kv, INI or Apache document, LF or
    /// CRLF, one edit of any kind whose touch map names directives `S`
    /// leaves every directive whose canonical names lie outside `S`
    /// parsing as before — same node, same order, same sections.
    #[test]
    fn a_directives_touch_map_bounds_what_an_edit_changes(
        format in prop::sample::select(vec!["kv", "ini", "apache"]),
        lines in prop::collection::vec((0u8..5, "[A-Za-z_]{1,8}", "[ -~]{0,10}"), 1..14),
        crlf in any::<bool>(),
        (op, at, to) in (0u8..8, 0usize..64, 0usize..64),
        key in prop::sample::select(vec!["name", "sep", "trailing", "indent", "args", "bare"]),
        value in arb_edit_string(),
        (line, retext) in ((0u8..5, "[A-Za-z_]{1,8}", "[ -~]{0,10}"), any::<bool>()),
    ) {
        let fmt = format_by_name(format).unwrap();
        let (_, file, _) = linted_as(format);
        let text = render_doc(format, &lines, crlf);
        let mut baseline = ConfigSet::new();
        baseline.insert(file, fmt.parse(&text).unwrap());
        let tree = baseline.get(file).unwrap();
        let paths: Vec<TreePath> = tree.iter().skip(1).map(|(path, _)| path).collect();
        let parents: Vec<TreePath> = tree
            .iter()
            .filter(|(_, node)| matches!(node.kind(), "config" | "section"))
            .map(|(path, _)| path)
            .collect();
        let pick = |list: &[TreePath], i: usize| list.get(i % list.len().max(1)).cloned();
        // A node to insert: one rendered line as the format parses it,
        // sometimes with arbitrary text that may not parse back.
        let mut inserted = fmt
            .parse(&render_doc(format, &[line], crlf))
            .unwrap()
            .root()
            .children()
            .first()
            .cloned()
            .unwrap_or_else(|| Node::new("blank"));
        if retext {
            inserted.set_text(Some(value.clone()));
        }
        let file = file.to_string();
        let edit = match (op, pick(&paths, at), pick(&parents, to)) {
            (0, Some(path), _) => Some(TreeEdit::SetText { file, path, text: Some(value) }),
            (1, Some(path), _) => {
                Some(TreeEdit::SetAttr { file, path, key: key.to_string(), value })
            }
            (2, Some(path), _) => Some(TreeEdit::Delete { file, path }),
            (3, Some(path), _) => Some(TreeEdit::DuplicateAfter { file, path }),
            (4, Some(from), Some(to_parent)) => {
                Some(TreeEdit::Move { file, from, to_parent, index: to % 4 })
            }
            (5, _, Some(parent)) => {
                Some(TreeEdit::Insert { file, parent, index: at % 6, node: inserted })
            }
            (6, _, Some(parent)) => {
                Some(TreeEdit::SwapChildren { file, parent, i: at % 5, j: to % 5 })
            }
            (7, _, _) => {
                let tree = ConfTree::new(Node::new("config"));
                Some(TreeEdit::ReplaceTree { file, tree })
            }
            _ => None,
        };
        if let Some(edit) = edit {
            assert_touch_is_sound(format, &baseline, edit);
        }
    }
}

/// The touch-soundness property for one edit of the generated
/// `format` document in `baseline`: when the edit applies and its
/// touch map names directives `S`, every directive whose canonical
/// names lie outside `S` parses as before. The touch map is the
/// linter's rule before any verdict widens it, so the property holds
/// whether or not the edited file validates.
fn assert_touch_is_sound(format: &str, baseline: &ConfigSet, edit: TreeEdit) {
    let fmt = format_by_name(format).unwrap();
    let (schema, file, canonical) = linted_as(format);
    let scenario = FaultScenario {
        id: "prop-touch".into(),
        description: "one edit".into(),
        class: ErrorClass::Typo(TypoKind::Substitution),
        edits: vec![edit.clone()],
    };
    let Ok(mutated) = scenario.apply(baseline) else {
        return;
    };
    let (before, edited) = (baseline.get(file).unwrap(), mutated.get(file).unwrap());
    // An inexpressible tree has no bytes for a SUT to read.
    let Ok(bytes) = fmt.serialize(edited) else {
        return;
    };
    let in_place = edit_parses_in_place(fmt.as_ref(), before, edited, &edit);
    let touch = touch_of_edit(schema, baseline, &edit, in_place);
    let Some(FileTouch::Directives(touched)) = touch.get(file) else {
        return;
    };
    let doc = fmt.serialize(before).unwrap();
    let after = fmt
        .parse(&bytes)
        .unwrap_or_else(|e| panic!("{format} document {doc:?} edited by {edit:?}: {e}"));
    let (mut kept, mut now) = (Vec::new(), Vec::new());
    untouched_directives(
        before.root(),
        &mut Vec::new(),
        canonical,
        touched,
        &mut kept,
    );
    untouched_directives(after.root(), &mut Vec::new(), canonical, touched, &mut now);
    assert!(
        kept == now,
        "{format} document {doc:?} edited by {edit:?} to {bytes:?} touches only {touched:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Completion batching is a pure lock-traffic optimisation: for
    /// ANY load length and thread count — partial last chunks and
    /// partial completion batches included — a streamed run delivers
    /// its outcomes to the sink in fault order, identical to the
    /// serial campaign's, and the reorder buffer never exceeds the
    /// per-entry `CHUNK_SIZE × threads` window. Loads hold at least
    /// two faults, so every case takes the pooled path.
    #[test]
    fn completion_batching_preserves_sink_order_and_window_bound(
        len in 2usize..=48,
        threads in 2usize..=4,
    ) {
        let fixture = scheduler_fixture();
        let executor = CampaignExecutor::new(threads);
        let mut sink = CollectingSink::new();
        let stats = executor
            .run_source(
                &fixture.campaign,
                Box::new(EagerSource::new(fixture.faults[..len].to_vec())),
                &mut sink,
            )
            .expect("streamed run");
        prop_assert_eq!(stats.outcomes, len);
        prop_assert!(
            stats.peak_buffered <= CHUNK_SIZE * threads,
            "peak {} exceeds window {} (len = {}, threads = {})",
            stats.peak_buffered, CHUNK_SIZE * threads, len, threads
        );
        prop_assert_eq!(
            sink.into_outcomes().as_slice(),
            &fixture.reference[..len],
            "diverged at len = {}, threads = {}",
            len, threads
        );
    }
}
