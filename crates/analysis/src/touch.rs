//! Touch maps: which directives of which files a fault can affect.
//!
//! Test-impact pruning skips a functional test when its declared
//! read-set ([`crate::schema::TestImpact`]) is disjoint from the
//! fault's *touch map* — the statically-derived overestimate of what
//! the edit can change. Soundness runs in one direction only: a touch
//! map may be **wider** than the true effect (costing a wasted test
//! run) but must never be narrower (which would skip a test whose
//! outcome the edit can change).
//!
//! Whether one edit stays on its own lines is a property of the file
//! format, so the format decides it: [`edit_parses_in_place`] asks
//! [`ConfigFormat::parses_in_place`] about every node the edit writes.
//! A yes bounds the edit to those nodes' lines, and
//! [`touch_of_edit`] names their directives; anything else touches
//! the whole file, as does every fault of more than one edit.

use std::collections::{BTreeMap, BTreeSet};

use conferr_formats::ConfigFormat;
use conferr_model::{ConfigSet, TreeEdit};
use conferr_tree::{ConfTree, Node, TreePath};

use crate::schema::{Dialect, DirectiveSchema, ReadScope};

/// The statically-derived overestimate of what an edit can change in
/// one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileTouch {
    /// The edit may change anything in the file.
    WholeFile,
    /// The edit can only affect these directives (canonical names).
    /// An empty set means the file's bytes changed but no modeled
    /// directive did (comment or whitespace churn).
    Directives(BTreeSet<String>),
}

/// Per-file touches of one fault. Files absent from the map are
/// byte-identical to the baseline.
pub type TouchMap = BTreeMap<String, FileTouch>;

/// Whether a test's declared read scope can observe a file's touch.
///
/// A [`ReadScope::WholeFile`] scope observes *any* touch of that file
/// (even pure comment churn changes the bytes a whole-file reader
/// sees), while a directive scope observes a touch only when the
/// canonical-name sets intersect.
pub fn scope_intersects(scope: &ReadScope, touch: &FileTouch) -> bool {
    match (scope, touch) {
        (ReadScope::WholeFile, _) => true,
        (ReadScope::Directives(_), FileTouch::WholeFile) => true,
        (ReadScope::Directives(reads), FileTouch::Directives(touched)) => {
            reads.iter().any(|r| touched.contains(*r))
        }
    }
}

/// A pre-computed pruning plan: which functional tests impact pruning
/// can ever skip, with their read scopes pre-widened so the per-fault
/// disjointness check is as cheap as possible.
///
/// Widening a read scope only makes pruning *more* conservative — it
/// skips fewer tests, never more — so both simplifications below are
/// free of soundness obligations:
///
/// * A directive scope covering (nearly) the whole file — at least
///   half of the distinct canonical directive names appearing in the
///   file's baseline — is widened to [`ReadScope::WholeFile`]: the
///   directive-set intersection on such a scope almost always answers
///   "impacted", so checking it costs more than the rare prune it
///   enables.
/// * A test whose (widened) scopes read every schema file whole can
///   never be pruned — a fault's touch map always names at least the
///   file it edits — so it is dropped from the plan entirely and the
///   campaign runs it with no per-fault check at all. On single-file
///   systems this removes whole-file readers (djbdns's two probes,
///   the mysqldump re-read, the app-server deploy walk) from the
///   pruning hot path, which is what guarantees pruning can never
///   cost more than it saves.
#[derive(Debug)]
pub struct PrunePlan {
    tests: Vec<(&'static str, Vec<(&'static str, ReadScope)>)>,
}

impl PrunePlan {
    /// Builds the plan for `schema` against the parsed baseline.
    pub fn new(schema: &'static DirectiveSchema, baseline: &ConfigSet) -> PrunePlan {
        let mut tests = Vec::new();
        for test in schema.tests {
            let scopes: Vec<(&'static str, ReadScope)> = test
                .reads
                .iter()
                .map(|(file, scope)| {
                    let widened = match scope {
                        ReadScope::Directives(reads)
                            if covers_most(baseline, schema, file, reads) =>
                        {
                            ReadScope::WholeFile
                        }
                        other => *other,
                    };
                    (*file, widened)
                })
                .collect();
            let never_prunable = schema.files.iter().all(|fs| {
                scopes
                    .iter()
                    .any(|(file, scope)| *file == fs.file && matches!(scope, ReadScope::WholeFile))
            });
            if !never_prunable {
                tests.push((test.test, scopes));
            }
        }
        PrunePlan { tests }
    }

    /// True when no test can ever be pruned — callers should skip the
    /// per-fault machinery entirely.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// The pre-widened read scopes to check for `test`, or `None` when
    /// pruning can never skip it (the caller should just run it).
    pub fn scopes(&self, test: &str) -> Option<&[(&'static str, ReadScope)]> {
        self.tests
            .iter()
            .find(|(name, _)| *name == test)
            .map(|(_, scopes)| scopes.as_slice())
    }

    /// Whether a fault with touch map `touch` can change the outcome
    /// of a test with the given pre-widened scopes: whether any scope
    /// intersects the touch of the file it reads.
    pub fn impacted(scopes: &[(&'static str, ReadScope)], touch: &TouchMap) -> bool {
        scopes
            .iter()
            .any(|(file, scope)| touch.get(*file).is_some_and(|t| scope_intersects(scope, t)))
    }
}

/// Whether a directive read-set covers at least half of the distinct
/// canonical directive names in the file's baseline.
fn covers_most(baseline: &ConfigSet, schema: &DirectiveSchema, file: &str, reads: &[&str]) -> bool {
    let Some(tree) = baseline.get(file) else {
        return false;
    };
    let dialect = match schema.file(file) {
        Some(fs) => fs.dialect,
        None => return false,
    };
    let mut names = BTreeSet::new();
    distinct_directive_names(dialect, tree.root(), &mut names);
    !names.is_empty() && reads.len() * 2 >= names.len()
}

fn distinct_directive_names(dialect: Dialect, node: &Node, names: &mut BTreeSet<String>) {
    for child in node.children() {
        if child.kind() == "directive" {
            if let Some(name) = child.attr("name") {
                names.extend(canonical(dialect, name));
            }
        }
        distinct_directive_names(dialect, child, names);
    }
}

/// Whether every node `edit` writes parses in place under `format`
/// ([`ConfigFormat::parses_in_place`]): the new node of a `SetText` or
/// `SetAttr`, the node a `Delete`, `DuplicateAfter` or `Move` removes,
/// copies or moves, the node an `Insert` adds, or both nodes a
/// `SwapChildren` exchanges. `before` and `after` are the edited file's
/// tree without and with the edit. The root, a path that does not
/// resolve and a `ReplaceTree` answer `false`.
///
/// A yes bounds the edit to the written nodes' own lines: every other
/// line of the file keeps its meaning. [`touch_of_edit`] then names the
/// written directives, and the injection engine takes the mutated tree
/// of a `SetText`, `SetAttr` or `Delete` on a file that parses back to
/// its own text as that file's parse.
pub fn edit_parses_in_place(
    format: &dyn ConfigFormat,
    before: &ConfTree,
    after: &ConfTree,
    edit: &TreeEdit,
) -> bool {
    let in_place = |tree: &ConfTree, path: &TreePath| {
        !path.is_root()
            && tree
                .node_at(path)
                .is_ok_and(|node| format.parses_in_place(node))
    };
    match edit {
        TreeEdit::SetText { path, .. } | TreeEdit::SetAttr { path, .. } => in_place(after, path),
        TreeEdit::Delete { path, .. }
        | TreeEdit::DuplicateAfter { path, .. }
        | TreeEdit::Move { from: path, .. } => in_place(before, path),
        TreeEdit::Insert { node, .. } => format.parses_in_place(node),
        TreeEdit::SwapChildren { parent, i, j, .. } => {
            in_place(before, &parent.child(*i)) && in_place(before, &parent.child(*j))
        }
        TreeEdit::ReplaceTree { .. } => false,
    }
}

/// The touch map of one edit, given its [`edit_parses_in_place`]
/// answer: the canonical names of the leaf directives it writes, old
/// and new (none for comments and blank lines), or the whole edited
/// file when the answer is no or the edit writes any other node.
pub fn touch_of_edit(
    schema: &DirectiveSchema,
    baseline: &ConfigSet,
    edit: &TreeEdit,
    in_place: bool,
) -> TouchMap {
    let file = edit.file();
    let names = match (in_place, schema.file(file), baseline.get(file)) {
        (true, Some(fs), Some(tree)) => written_names(fs.dialect, tree, edit),
        _ => None,
    };
    let touch = names.map_or(FileTouch::WholeFile, FileTouch::Directives);
    TouchMap::from([(file.to_string(), touch)])
}

/// The canonical names of the leaf directives `edit` writes into the
/// baseline `tree`, old and new, or `None` when it writes any node that
/// is not a leaf directive, a comment or a blank line.
fn written_names(dialect: Dialect, tree: &ConfTree, edit: &TreeEdit) -> Option<BTreeSet<String>> {
    let at = |path: &TreePath| tree.node_at(path).ok();
    let (nodes, renamed) = match edit {
        TreeEdit::SetText { path, .. }
        | TreeEdit::Delete { path, .. }
        | TreeEdit::DuplicateAfter { path, .. }
        | TreeEdit::Move { from: path, .. } => (vec![at(path)?], None),
        TreeEdit::SetAttr {
            path, key, value, ..
        } => (vec![at(path)?], (key == "name").then_some(value)),
        TreeEdit::Insert { node, .. } => (vec![node], None),
        TreeEdit::SwapChildren { parent, i, j, .. } => {
            (vec![at(&parent.child(*i))?, at(&parent.child(*j))?], None)
        }
        TreeEdit::ReplaceTree { .. } => return None,
    };
    let mut names = BTreeSet::new();
    for node in nodes {
        match node.kind() {
            _ if !node.children().is_empty() => return None,
            "directive" => names.extend(canonical(dialect, node.attr("name")?)),
            "comment" | "blank" => {}
            _ => return None,
        }
    }
    if let Some(name) = renamed {
        names.extend(canonical(dialect, name));
    }
    Some(names)
}

/// Canonical directive names a raw spelling can resolve to under the
/// dialect's name resolution (several for ambiguous MySQL prefixes).
fn canonical(dialect: Dialect, raw: &str) -> Vec<String> {
    match dialect {
        Dialect::MySqlIni => crate::mysql::canonical_names(raw),
        Dialect::PostgresKv => vec![crate::postgres::canonical_name(raw)],
        Dialect::ApacheHttpd => vec![crate::apache::canonical_name(raw)],
        _ => vec![raw.to_string()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DJBDNS_SCHEMA, MYSQL_SCHEMA};
    use conferr_formats::{format_by_name, IniFormat};
    use conferr_model::{ErrorClass, FaultScenario, TypoKind};
    use conferr_tree::TreePath;

    fn mysql_baseline() -> ConfigSet {
        let text = "[mysqld]\nport=3306\nsort_buffer_size=2M\n# tuning notes\n";
        let tree = IniFormat::new().parse(text).expect("fixture parses");
        let mut set = ConfigSet::new();
        set.insert("my.cnf", tree);
        set
    }

    fn directives(names: &[&str]) -> FileTouch {
        FileTouch::Directives(names.iter().map(|s| (*s).to_string()).collect())
    }

    /// The touch map of one edit to `baseline`, as the linter derives
    /// it: the format's in-place answer, then the written names.
    fn touch_of(schema: &DirectiveSchema, baseline: &ConfigSet, edit: TreeEdit) -> TouchMap {
        let file = edit.file().to_string();
        let scenario = FaultScenario {
            id: String::new(),
            description: String::new(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![edit.clone()],
        };
        let mutated = scenario.apply(baseline).expect("the edit applies");
        let format = format_by_name(schema.file(&file).expect("declared").format).unwrap();
        let before = baseline.get(&file).unwrap();
        let in_place =
            edit_parses_in_place(format.as_ref(), before, mutated.get(&file).unwrap(), &edit);
        touch_of_edit(schema, baseline, &edit, in_place)
    }

    fn mysql_touch(edit: TreeEdit) -> Option<FileTouch> {
        touch_of(&MYSQL_SCHEMA, &mysql_baseline(), edit).remove("my.cnf")
    }

    #[test]
    fn directive_edits_touch_their_canonical_name() {
        // [mysqld] is child 0; port is its child 0.
        let edit = TreeEdit::SetText {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(0),
            text: Some("9999".into()),
        };
        assert_eq!(mysql_touch(edit), Some(directives(&["port"])));
    }

    #[test]
    fn comment_churn_touches_nothing_but_marks_the_file() {
        let edit = TreeEdit::SetText {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(2),
            text: Some("# different notes".into()),
        };
        let map = touch_of(&MYSQL_SCHEMA, &mysql_baseline(), edit);
        assert_eq!(map.get("my.cnf"), Some(&directives(&[])));

        // A directive-scope test is unaffected; a whole-file reader
        // still sees the byte change.
        let smoke = MYSQL_SCHEMA.test("connect-and-query").unwrap();
        let dump = MYSQL_SCHEMA.test("mysqldump-tool").unwrap();
        assert!(!PrunePlan::impacted(smoke.reads, &map));
        assert!(PrunePlan::impacted(dump.reads, &map));
    }

    #[test]
    fn newlines_and_renames_escalate_conservatively() {
        let port = TreePath::root().child(0).child(0);
        let newline = TreeEdit::SetText {
            file: "my.cnf".into(),
            path: port.clone(),
            text: Some("3306\n[client]".into()),
        };
        assert_eq!(mysql_touch(newline), Some(FileTouch::WholeFile));

        // `;port=3306` re-parses as a comment: the directive is gone.
        let rename = |value: &str| TreeEdit::SetAttr {
            file: "my.cnf".into(),
            path: port.clone(),
            key: "name".into(),
            value: value.into(),
        };
        assert_eq!(mysql_touch(rename(";port")), Some(FileTouch::WholeFile));
        // `po[rt=3306` still parses as one directive, named `po[rt`.
        assert_eq!(
            mysql_touch(rename("po[rt")),
            Some(directives(&["po[rt", "port"]))
        );
    }

    #[test]
    fn rename_touches_both_old_and_new_names() {
        let rename = TreeEdit::SetAttr {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(1),
            key: "name".into(),
            value: "sort_buffer_siez".into(),
        };
        assert_eq!(
            mysql_touch(rename),
            Some(directives(&["sort_buffer_size", "sort_buffer_siez"]))
        );
    }

    #[test]
    fn structural_edits_touch_the_nodes_they_write() {
        let section = TreePath::root().child(0);
        let insert = |node: Node| TreeEdit::Insert {
            file: "my.cnf".into(),
            parent: section.clone(),
            index: 1,
            node,
        };
        let parsed = IniFormat::new().parse("user=mysql\n").unwrap();
        let user = parsed.root().children()[0].clone();
        assert_eq!(mysql_touch(insert(user)), Some(directives(&["user"])));
        let header = Node::new("section").with_attr("name", "client");
        assert_eq!(mysql_touch(insert(header)), Some(FileTouch::WholeFile));

        let swap = TreeEdit::SwapChildren {
            file: "my.cnf".into(),
            parent: section.clone(),
            i: 0,
            j: 2,
        };
        assert_eq!(mysql_touch(swap), Some(directives(&["port"])));
        let duplicate = TreeEdit::DuplicateAfter {
            file: "my.cnf".into(),
            path: section.child(1),
        };
        assert_eq!(
            mysql_touch(duplicate),
            Some(directives(&["sort_buffer_size"]))
        );
        let moved = TreeEdit::Move {
            file: "my.cnf".into(),
            from: section.child(0),
            to_parent: TreePath::root(),
            index: 0,
        };
        assert_eq!(mysql_touch(moved), Some(directives(&["port"])));
        // A whole section is more than named directives.
        let omitted = TreeEdit::Delete {
            file: "my.cnf".into(),
            path: section,
        };
        assert_eq!(mysql_touch(omitted), Some(FileTouch::WholeFile));
    }

    #[test]
    fn whole_file_scope_intersects_any_touch() {
        assert!(scope_intersects(
            &ReadScope::WholeFile,
            &FileTouch::Directives(BTreeSet::new())
        ));
        assert!(scope_intersects(
            &ReadScope::Directives(&["port"]),
            &FileTouch::WholeFile
        ));
        assert!(!scope_intersects(
            &ReadScope::Directives(&["port"]),
            &directives(&["sort_buffer_size"])
        ));
    }

    #[test]
    fn prune_plan_drops_whole_file_readers_and_widens_broad_scopes() {
        // Rich baseline: the smoke test's three directives are a small
        // fraction of the file, so its scope stays directive-level;
        // the dump tool reads the whole (only) file and can never be
        // pruned, so it is dropped from the plan outright.
        let text = "[mysqld]\nport=3306\na=1\nb=1\nc=1\nd=1\ne=1\nf=1\n";
        let tree = IniFormat::new().parse(text).expect("fixture parses");
        let mut set = ConfigSet::new();
        set.insert("my.cnf", tree);
        let plan = PrunePlan::new(&MYSQL_SCHEMA, &set);
        assert!(plan.scopes("mysqldump-tool").is_none());
        let scopes = plan.scopes("connect-and-query").expect("smoke test stays");
        assert!(matches!(scopes[0].1, ReadScope::Directives(_)));

        let port_touch: TouchMap = [("my.cnf".to_string(), directives(&["port"]))]
            .into_iter()
            .collect();
        let inert_touch: TouchMap = [("my.cnf".to_string(), directives(&["a"]))]
            .into_iter()
            .collect();
        assert!(PrunePlan::impacted(scopes, &port_touch));
        assert!(!PrunePlan::impacted(scopes, &inert_touch));

        // Against a two-directive baseline the smoke test's scope
        // covers most of the file: it widens to WholeFile, every test
        // becomes unprunable, and the plan empties.
        let plan = PrunePlan::new(&MYSQL_SCHEMA, &mysql_baseline());
        assert!(plan.is_empty());
    }

    #[test]
    fn unrefinable_dialects_and_replace_tree_are_whole_file() {
        let replace = TreeEdit::ReplaceTree {
            file: "my.cnf".into(),
            tree: ConfTree::new(Node::new("config")),
        };
        assert_eq!(mysql_touch(replace), Some(FileTouch::WholeFile));

        // No tinydns line parses in place, so no data edit refines.
        let tree = format_by_name("tinydns")
            .unwrap()
            .parse("+www.example.com:192.0.2.10:86400\n# note\n")
            .unwrap();
        let mut data = ConfigSet::new();
        data.insert("data", tree);
        let churn = TreeEdit::SetText {
            file: "data".into(),
            path: TreePath::root().child(1),
            text: Some("# other".into()),
        };
        let map = touch_of(&DJBDNS_SCHEMA, &data, churn);
        assert_eq!(map.get("data"), Some(&FileTouch::WholeFile));
    }
}
