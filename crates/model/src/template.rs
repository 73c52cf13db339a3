//! Base error templates: parameterised generators of fault scenarios.
//!
//! A template describes *one kind* of transformation (delete,
//! duplicate, move, modify, insert, swap) plus the conditions under
//! which it applies — the paper's "simplest class of templates
//! describ\[ing\] mutations of nodes and subtrees" (§3.3). Evaluating a
//! template against a [`ConfigSet`] yields the full set of fault
//! scenarios it can produce, which combinators (see [`crate::Union`],
//! [`crate::Sample`]) then compose or subsample.

use std::fmt;
use std::sync::Arc;

use conferr_tree::{Node, NodeQuery, TreePath};

use crate::{ConfigSet, ErrorClass, FaultScenario, TreeEdit};

/// Which files of the set a template applies to.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FileSelector {
    /// Every file in the set.
    #[default]
    All,
    /// Only the named file.
    Named(String),
}

impl FileSelector {
    fn matches(&self, name: &str) -> bool {
        match self {
            FileSelector::All => true,
            FileSelector::Named(n) => n == name,
        }
    }
}

/// A generator of fault scenarios.
///
/// Implementations must be deterministic: the same template evaluated
/// against the same set yields the same scenarios in the same order.
/// Randomised *selection* belongs in the [`crate::Sample`] combinator,
/// which takes an explicit seed.
pub trait Template: fmt::Debug {
    /// Evaluates the template, producing every scenario it describes.
    fn generate(&self, set: &ConfigSet) -> Vec<FaultScenario>;
}

fn selected_targets(
    set: &ConfigSet,
    selector: &FileSelector,
    query: &NodeQuery,
) -> Vec<(String, TreePath, String)> {
    let mut out = Vec::new();
    for (name, tree) in set.iter() {
        if !selector.matches(name) {
            continue;
        }
        for path in query.select(tree) {
            let desc = tree
                .node_at(&path)
                .map(conferr_tree::Node::describe)
                .unwrap_or_default();
            out.push((name.to_string(), path, desc));
        }
    }
    out
}

/// Deletes each node matched by the query — the paper's *node deletion
/// template*, modelling omissions.
#[derive(Debug, Clone)]
pub struct DeleteTemplate {
    query: NodeQuery,
    selector: FileSelector,
    class: ErrorClass,
}

impl DeleteTemplate {
    /// One deletion scenario per node matching `query`, in any file.
    pub fn new(query: NodeQuery, class: ErrorClass) -> Self {
        DeleteTemplate {
            query,
            selector: FileSelector::All,
            class,
        }
    }

    /// Restricts the template to one file.
    #[must_use]
    pub fn in_file(mut self, name: impl Into<String>) -> Self {
        self.selector = FileSelector::Named(name.into());
        self
    }
}

impl Template for DeleteTemplate {
    fn generate(&self, set: &ConfigSet) -> Vec<FaultScenario> {
        selected_targets(set, &self.selector, &self.query)
            .into_iter()
            .map(|(file, path, desc)| FaultScenario {
                id: format!("delete:{file}:{path}"),
                description: format!("omit {desc} from {file}"),
                class: self.class.clone(),
                edits: vec![TreeEdit::Delete { file, path }],
            })
            .collect()
    }
}

/// Duplicates each node matched by the query — the paper's
/// *duplication template*, modelling copy-paste repetition.
#[derive(Debug, Clone)]
pub struct DuplicateTemplate {
    query: NodeQuery,
    selector: FileSelector,
    class: ErrorClass,
}

impl DuplicateTemplate {
    /// One duplication scenario per node matching `query`.
    pub fn new(query: NodeQuery, class: ErrorClass) -> Self {
        DuplicateTemplate {
            query,
            selector: FileSelector::All,
            class,
        }
    }

    /// Restricts the template to one file.
    #[must_use]
    pub fn in_file(mut self, name: impl Into<String>) -> Self {
        self.selector = FileSelector::Named(name.into());
        self
    }
}

impl Template for DuplicateTemplate {
    fn generate(&self, set: &ConfigSet) -> Vec<FaultScenario> {
        selected_targets(set, &self.selector, &self.query)
            .into_iter()
            .map(|(file, path, desc)| FaultScenario {
                id: format!("duplicate:{file}:{path}"),
                description: format!("duplicate {desc} in {file}"),
                class: self.class.clone(),
                edits: vec![TreeEdit::DuplicateAfter { file, path }],
            })
            .collect()
    }
}

/// Moves each candidate node into each admissible destination — the
/// paper's *move template*, modelling misplacement. A scenario is
/// produced for every (candidate, destination) pair where the
/// destination differs from the candidate's current parent and does
/// not lie inside the candidate's own subtree.
#[derive(Debug, Clone)]
pub struct MoveTemplate {
    candidates: NodeQuery,
    destinations: NodeQuery,
    selector: FileSelector,
    class: ErrorClass,
}

impl MoveTemplate {
    /// Creates a move template from candidate and destination queries.
    pub fn new(candidates: NodeQuery, destinations: NodeQuery, class: ErrorClass) -> Self {
        MoveTemplate {
            candidates,
            destinations,
            selector: FileSelector::All,
            class,
        }
    }

    /// Restricts the template to one file.
    #[must_use]
    pub fn in_file(mut self, name: impl Into<String>) -> Self {
        self.selector = FileSelector::Named(name.into());
        self
    }
}

impl Template for MoveTemplate {
    fn generate(&self, set: &ConfigSet) -> Vec<FaultScenario> {
        let mut out = Vec::new();
        for (name, tree) in set.iter() {
            if !self.selector.matches(name) {
                continue;
            }
            let candidates = self.candidates.select(tree);
            let destinations = self.destinations.select(tree);
            for cand in &candidates {
                let cand_desc = tree
                    .node_at(cand)
                    .map(conferr_tree::Node::describe)
                    .unwrap_or_default();
                for dest in &destinations {
                    if Some(dest) == cand.parent().as_ref()
                        || cand.is_ancestor_of(dest)
                        || cand == dest
                    {
                        continue;
                    }
                    let dest_desc = tree
                        .node_at(dest)
                        .map(conferr_tree::Node::describe)
                        .unwrap_or_default();
                    out.push(FaultScenario {
                        id: format!("move:{name}:{cand}->{dest}"),
                        description: format!("misplace {cand_desc} into {dest_desc} in {name}"),
                        class: self.class.clone(),
                        edits: vec![TreeEdit::Move {
                            file: name.to_string(),
                            from: cand.clone(),
                            to_parent: dest.clone(),
                            index: 0,
                        }],
                    });
                }
            }
        }
        out
    }
}

/// The mutator signature used by [`ModifyTemplate`]: maps the current
/// string to `(new_value, label)` variants.
pub type ModifyMutator = Arc<dyn Fn(&str) -> Vec<(String, String)> + Send + Sync>;

/// What part of a node a [`ModifyTemplate`] rewrites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModifyTarget {
    /// The node's text content (e.g. a directive *value*).
    Text,
    /// A named attribute (e.g. a directive *name*, stored under the
    /// `name` attribute by every built-in format).
    Attr(String),
}

/// The *abstract modify template* (paper §3.3): applies a caller-
/// supplied mutator to the text or an attribute of each matched node.
/// The mutator receives the current string and returns any number of
/// `(new_value, label)` variants per node; each becomes one scenario.
/// The spelling-mistake plugin builds all five of its typo submodels
/// on top of this template.
#[derive(Clone)]
pub struct ModifyTemplate {
    query: NodeQuery,
    selector: FileSelector,
    class: ErrorClass,
    op: String,
    target: ModifyTarget,
    mutator: ModifyMutator,
}

impl fmt::Debug for ModifyTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModifyTemplate")
            .field("query", &self.query.to_string())
            .field("selector", &self.selector)
            .field("class", &self.class)
            .field("op", &self.op)
            .finish_non_exhaustive()
    }
}

impl ModifyTemplate {
    /// Creates a modify template over node *text* (directive values).
    /// `op` names the operation (used in scenario ids); `mutator` maps
    /// the current string to `(new_value, label)` variants.
    pub fn new(
        query: NodeQuery,
        class: ErrorClass,
        op: impl Into<String>,
        mutator: impl Fn(&str) -> Vec<(String, String)> + Send + Sync + 'static,
    ) -> Self {
        ModifyTemplate {
            query,
            selector: FileSelector::All,
            class,
            op: op.into(),
            target: ModifyTarget::Text,
            mutator: Arc::new(mutator),
        }
    }

    /// Creates a modify template over a node *attribute* (directive or
    /// section names, which every built-in format stores under
    /// `name`).
    pub fn new_attr(
        query: NodeQuery,
        attr: impl Into<String>,
        class: ErrorClass,
        op: impl Into<String>,
        mutator: impl Fn(&str) -> Vec<(String, String)> + Send + Sync + 'static,
    ) -> Self {
        ModifyTemplate {
            query,
            selector: FileSelector::All,
            class,
            op: op.into(),
            target: ModifyTarget::Attr(attr.into()),
            mutator: Arc::new(mutator),
        }
    }

    /// Restricts the template to one file.
    #[must_use]
    pub fn in_file(mut self, name: impl Into<String>) -> Self {
        self.selector = FileSelector::Named(name.into());
        self
    }
}

impl Template for ModifyTemplate {
    fn generate(&self, set: &ConfigSet) -> Vec<FaultScenario> {
        let mut out = Vec::new();
        for (name, tree) in set.iter() {
            if !self.selector.matches(name) {
                continue;
            }
            for (path, node) in self.query.select_nodes(tree) {
                let current = match &self.target {
                    ModifyTarget::Text => node.text(),
                    ModifyTarget::Attr(key) => node.attr(key),
                };
                let Some(current) = current else { continue };
                for (variant_idx, (new_value, label)) in
                    (self.mutator)(current).into_iter().enumerate()
                {
                    let edit = match &self.target {
                        ModifyTarget::Text => TreeEdit::SetText {
                            file: name.to_string(),
                            path: path.clone(),
                            text: Some(new_value),
                        },
                        ModifyTarget::Attr(key) => TreeEdit::SetAttr {
                            file: name.to_string(),
                            path: path.clone(),
                            key: key.clone(),
                            value: new_value,
                        },
                    };
                    out.push(FaultScenario {
                        id: format!("{}:{name}:{path}#{variant_idx}", self.op),
                        description: label,
                        class: self.class.clone(),
                        edits: vec![edit],
                    });
                }
            }
        }
        out
    }
}

/// Inserts a fixed node under each matched parent — used for
/// rule-based "foreign directive" errors where a directive from a
/// different program's configuration is borrowed.
#[derive(Debug, Clone)]
pub struct InsertTemplate {
    parents: NodeQuery,
    selector: FileSelector,
    class: ErrorClass,
    node: Node,
    label: String,
}

impl InsertTemplate {
    /// One insertion scenario per parent matching `parents`.
    pub fn new(
        parents: NodeQuery,
        node: Node,
        label: impl Into<String>,
        class: ErrorClass,
    ) -> Self {
        InsertTemplate {
            parents,
            selector: FileSelector::All,
            class,
            node,
            label: label.into(),
        }
    }

    /// Restricts the template to one file.
    #[must_use]
    pub fn in_file(mut self, name: impl Into<String>) -> Self {
        self.selector = FileSelector::Named(name.into());
        self
    }
}

impl Template for InsertTemplate {
    fn generate(&self, set: &ConfigSet) -> Vec<FaultScenario> {
        selected_targets(set, &self.selector, &self.parents)
            .into_iter()
            .map(|(file, path, desc)| FaultScenario {
                id: format!("insert:{file}:{path}:{}", self.label),
                description: format!("insert {} into {desc} in {file}", self.label),
                class: self.class.clone(),
                edits: vec![TreeEdit::Insert {
                    file,
                    parent: path,
                    index: 0,
                    node: self.node.clone(),
                }],
            })
            .collect()
    }
}

/// Swaps each adjacent pair of children of the matched parents —
/// used for reordering variations (Table 2).
#[derive(Debug, Clone)]
pub struct SwapTemplate {
    parents: NodeQuery,
    selector: FileSelector,
    class: ErrorClass,
    child_kind: Option<String>,
}

impl SwapTemplate {
    /// One swap scenario per adjacent pair of children (optionally
    /// restricted to children of `child_kind`) under each matched
    /// parent.
    pub fn new(parents: NodeQuery, child_kind: Option<String>, class: ErrorClass) -> Self {
        SwapTemplate {
            parents,
            selector: FileSelector::All,
            class,
            child_kind,
        }
    }

    /// Restricts the template to one file.
    #[must_use]
    pub fn in_file(mut self, name: impl Into<String>) -> Self {
        self.selector = FileSelector::Named(name.into());
        self
    }
}

impl Template for SwapTemplate {
    fn generate(&self, set: &ConfigSet) -> Vec<FaultScenario> {
        let mut out = Vec::new();
        for (name, tree) in set.iter() {
            if !self.selector.matches(name) {
                continue;
            }
            for parent in self.parents.select(tree) {
                let Ok(parent_node) = tree.node_at(&parent) else {
                    continue;
                };
                let eligible: Vec<usize> = parent_node
                    .children()
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| self.child_kind.as_deref().is_none_or(|k| c.kind() == k))
                    .map(|(i, _)| i)
                    .collect();
                for pair in eligible.windows(2) {
                    let (i, j) = (pair[0], pair[1]);
                    out.push(FaultScenario {
                        id: format!("swap:{name}:{parent}:{i}-{j}"),
                        description: format!("swap children {i} and {j} of {parent} in {name}"),
                        class: self.class.clone(),
                        edits: vec![TreeEdit::SwapChildren {
                            file: name.to_string(),
                            parent: parent.clone(),
                            i,
                            j,
                        }],
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StructuralKind, TypoKind};
    use conferr_tree::ConfTree;

    fn set() -> ConfigSet {
        let mut s = ConfigSet::new();
        s.insert(
            "a.conf",
            ConfTree::new(
                Node::new("config")
                    .with_child(
                        Node::new("section")
                            .with_attr("name", "s1")
                            .with_child(
                                Node::new("directive").with_attr("name", "x").with_text("1"),
                            )
                            .with_child(
                                Node::new("directive").with_attr("name", "y").with_text("2"),
                            ),
                    )
                    .with_child(Node::new("section").with_attr("name", "s2")),
            ),
        );
        s.insert(
            "b.conf",
            ConfTree::new(
                Node::new("config")
                    .with_child(Node::new("directive").with_attr("name", "z").with_text("3")),
            ),
        );
        s
    }

    fn structural() -> ErrorClass {
        ErrorClass::Structural(StructuralKind::DirectiveOmission)
    }

    #[test]
    fn delete_template_covers_all_files() {
        let t = DeleteTemplate::new("//directive".parse().unwrap(), structural());
        let scenarios = t.generate(&set());
        assert_eq!(scenarios.len(), 3);
        // Deterministic order and ids.
        assert!(scenarios[0].id.starts_with("delete:a.conf:"));
        assert!(scenarios[2].id.starts_with("delete:b.conf:"));
        for s in &scenarios {
            s.apply(&set()).unwrap();
        }
    }

    #[test]
    fn delete_template_file_restriction() {
        let t = DeleteTemplate::new("//directive".parse().unwrap(), structural()).in_file("b.conf");
        assert_eq!(t.generate(&set()).len(), 1);
    }

    #[test]
    fn duplicate_template_generates_applicable_scenarios() {
        let t = DuplicateTemplate::new("//directive".parse().unwrap(), structural());
        let scenarios = t.generate(&set());
        assert_eq!(scenarios.len(), 3);
        let out = scenarios[0].apply(&set()).unwrap();
        let sec = out
            .get("a.conf")
            .unwrap()
            .node_at(&TreePath::from(vec![0]))
            .unwrap();
        assert_eq!(sec.children().len(), 3);
    }

    #[test]
    fn move_template_excludes_own_parent_and_subtree() {
        let t = MoveTemplate::new(
            "//directive".parse().unwrap(),
            "//section".parse().unwrap(),
            ErrorClass::Structural(StructuralKind::Misplacement),
        );
        let scenarios = t.generate(&set());
        // a.conf: x and y can each move only to s2 (not own parent s1);
        // b.conf: z has no section destinations in its own file.
        assert_eq!(scenarios.len(), 2);
        for s in &scenarios {
            let out = s.apply(&set()).unwrap();
            let s2 = out
                .get("a.conf")
                .unwrap()
                .node_at(&TreePath::from(vec![1]))
                .unwrap();
            assert_eq!(s2.children().len(), 1);
        }
    }

    #[test]
    fn modify_template_generates_variant_per_mutation() {
        let t = ModifyTemplate::new(
            "//directive".parse().unwrap(),
            ErrorClass::Typo(TypoKind::Substitution),
            "typo",
            |text| {
                vec![
                    (format!("{text}0"), format!("append zero to {text}")),
                    (String::new(), "clear value".to_string()),
                ]
            },
        );
        let scenarios = t.generate(&set());
        assert_eq!(scenarios.len(), 6);
        let out = scenarios[0].apply(&set()).unwrap();
        let d = out
            .get("a.conf")
            .unwrap()
            .node_at(&TreePath::from(vec![0, 0]))
            .unwrap();
        assert_eq!(d.text(), Some("10"));
    }

    #[test]
    fn modify_template_attr_target_edits_names() {
        let t = ModifyTemplate::new_attr(
            "//directive".parse().unwrap(),
            "name",
            ErrorClass::Typo(TypoKind::Omission),
            "name-typo",
            |name| {
                if name.len() < 2 {
                    return Vec::new();
                }
                vec![(
                    name[..name.len() - 1].to_string(),
                    format!("truncate {name}"),
                )]
            },
        )
        .in_file("a.conf");
        let scenarios = t.generate(&set());
        // Directives x and y are single-char, so no variants; only from
        // a.conf (z in b.conf excluded by file filter anyway).
        assert!(scenarios.is_empty());
        let t2 = ModifyTemplate::new_attr(
            "//section".parse().unwrap(),
            "name",
            ErrorClass::Typo(TypoKind::Omission),
            "name-typo",
            |name| {
                vec![(
                    name[..name.len() - 1].to_string(),
                    format!("truncate {name}"),
                )]
            },
        );
        let scenarios = t2.generate(&set());
        assert_eq!(scenarios.len(), 2);
        let out = scenarios[0].apply(&set()).unwrap();
        let sec = out
            .get("a.conf")
            .unwrap()
            .node_at(&TreePath::from(vec![0]))
            .unwrap();
        assert_eq!(sec.attr("name"), Some("s"));
    }

    #[test]
    fn modify_template_skips_nodes_without_target() {
        // Nodes lacking text are skipped rather than treated as "".
        let t = ModifyTemplate::new(
            "//section".parse().unwrap(),
            ErrorClass::Typo(TypoKind::Insertion),
            "typo",
            |text| vec![(format!("{text}!"), "bang".to_string())],
        );
        assert!(t.generate(&set()).is_empty());
    }

    #[test]
    fn insert_template_adds_foreign_node() {
        let t = InsertTemplate::new(
            "//section".parse().unwrap(),
            Node::new("directive")
                .with_attr("name", "foreign")
                .with_text("1"),
            "foreign",
            ErrorClass::Structural(StructuralKind::ForeignDirective),
        );
        let scenarios = t.generate(&set());
        assert_eq!(scenarios.len(), 2);
        let out = scenarios[0].apply(&set()).unwrap();
        let s1 = out
            .get("a.conf")
            .unwrap()
            .node_at(&TreePath::from(vec![0]))
            .unwrap();
        assert_eq!(s1.children()[0].attr("name"), Some("foreign"));
    }

    #[test]
    fn swap_template_pairs_adjacent_children() {
        let t = SwapTemplate::new(
            "//section".parse().unwrap(),
            Some("directive".to_string()),
            ErrorClass::Structural(StructuralKind::Variation),
        );
        let scenarios = t.generate(&set());
        assert_eq!(scenarios.len(), 1);
        let out = scenarios[0].apply(&set()).unwrap();
        let s1 = out
            .get("a.conf")
            .unwrap()
            .node_at(&TreePath::from(vec![0]))
            .unwrap();
        assert_eq!(s1.children()[0].attr("name"), Some("y"));
    }

    #[test]
    fn templates_are_deterministic() {
        let t = DeleteTemplate::new("//directive".parse().unwrap(), structural());
        assert_eq!(t.generate(&set()), t.generate(&set()));
    }
}
