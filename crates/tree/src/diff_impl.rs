//! Structural diffing between two configuration trees.
//!
//! Resilience reports describe each injected error as the edit it
//! performed on the original configuration. [`diff`] recovers that
//! description by comparing the pristine and mutated trees.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::{ConfTree, Node, TreePath};

/// One observed difference between two trees.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiffOp {
    /// A node present in the old tree is missing from the new one.
    Deleted {
        /// Path in the *old* tree.
        path: TreePath,
        /// Description of the deleted node.
        node: String,
    },
    /// A node present in the new tree has no counterpart in the old
    /// one.
    Inserted {
        /// Path in the *new* tree.
        path: TreePath,
        /// Description of the inserted node.
        node: String,
    },
    /// Kind, attributes or text changed in place.
    Changed {
        /// Path (valid in both trees).
        path: TreePath,
        /// Description of the node before.
        before: String,
        /// Description of the node after.
        after: String,
    },
}

impl fmt::Display for DiffOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffOp::Deleted { path, node } => write!(f, "- {path} {node}"),
            DiffOp::Inserted { path, node } => write!(f, "+ {path} {node}"),
            DiffOp::Changed {
                path,
                before,
                after,
            } => {
                write!(f, "~ {path} {before} -> {after}")
            }
        }
    }
}

/// Computes the differences between `old` and `new`.
///
/// Children are aligned with a longest-common-subsequence match on
/// node *signatures* (kind plus `name` attribute), so a single
/// insertion or deletion in a long child list is reported as exactly
/// one op rather than a cascade of changes. Unaligned nodes are
/// reported as deleted/inserted; aligned nodes with differing
/// kind/attrs/text are reported as changed and their children compared
/// recursively.
///
/// The walk descends only into aligned pairs whose new side is not a
/// handle on the old node ([`Node::ptr_eq`]): a shared subtree is the
/// old one and holds no difference. A copy-on-write edit detaches just
/// the nodes on its root-to-edit path, so diffing an edited tree
/// against its baseline costs those nodes and their child lists, not
/// the configuration. Unshared but equal subtrees, such as two
/// independent parses of one text, are walked and emit nothing.
pub fn diff(old: &ConfTree, new: &ConfTree) -> Vec<DiffOp> {
    let mut differ = Differ::default();
    if !Node::ptr_eq(old.root(), new.root()) {
        differ.nodes(old.root(), new.root());
    }
    differ.ops
}

/// Materializes a path stack plus a final child index into a
/// [`TreePath`] — only called when an op is actually emitted, so the
/// all-equal hot path allocates nothing per node.
fn path_at(stack: &[usize], index: usize) -> TreePath {
    let mut segments = Vec::with_capacity(stack.len() + 1);
    segments.extend_from_slice(stack);
    segments.push(index);
    TreePath::from(segments)
}

fn signature(n: &Node) -> (&str, Option<&str>) {
    (n.kind(), n.attr("name"))
}

/// Whether `a` and `b` have one signature. Handles on one node do
/// without the attribute lookups: a single-point edit leaves every
/// untouched sibling shared with the baseline.
fn same_signature(a: &Node, b: &Node) -> bool {
    Node::ptr_eq(a, b) || signature(a) == signature(b)
}

fn shallow_equal(a: &Node, b: &Node) -> bool {
    a.kind() == b.kind() && a.text() == b.text() && a.attrs().eq(b.attrs())
}

/// The diff walk's state: the current node's path in each tree and
/// the ops emitted so far.
#[derive(Default)]
struct Differ {
    old_path: Vec<usize>,
    new_path: Vec<usize>,
    ops: Vec<DiffOp>,
}

impl Differ {
    /// Diffs one aligned, detached pair: its own fields, then its
    /// children.
    ///
    /// Fault scenarios are single-point edits, so the two child lists
    /// almost always share a long head and tail of equal signatures.
    /// Those are always part of an optimal matching, so they pair up
    /// index by index and the quadratic [`lcs_pairs`] runs only on the
    /// usually tiny window between them.
    fn nodes(&mut self, old: &Node, new: &Node) {
        if !shallow_equal(old, new) {
            self.ops.push(DiffOp::Changed {
                path: TreePath::from(self.new_path.clone()),
                before: old.describe(),
                after: new.describe(),
            });
        }
        let a = old.children();
        let b = new.children();
        let (n, m) = (a.len(), b.len());
        let mut head = 0;
        while head < n && head < m && same_signature(&a[head], &b[head]) {
            head += 1;
        }
        let mut tail = 0;
        while tail < n - head
            && tail < m - head
            && same_signature(&a[n - 1 - tail], &b[m - 1 - tail])
        {
            tail += 1;
        }
        let (a_end, b_end) = (n - tail, m - tail);

        for i in 0..head {
            self.pair(a, b, i, i);
        }
        let (mut ai, mut bi) = (head, head);
        for (pa, pb) in lcs_pairs(&a[head..a_end], &b[head..b_end]) {
            let (pa, pb) = (head + pa, head + pb);
            self.deleted(a, ai..pa);
            self.inserted(b, bi..pb);
            self.pair(a, b, pa, pb);
            ai = pa + 1;
            bi = pb + 1;
        }
        self.deleted(a, ai..a_end);
        self.inserted(b, bi..b_end);
        for k in 0..tail {
            self.pair(a, b, a_end + k, b_end + k);
        }
    }

    /// Descends into the aligned children `a[pa]` and `b[pb]` unless
    /// they are one shared node.
    fn pair(&mut self, a: &[Node], b: &[Node], pa: usize, pb: usize) {
        if Node::ptr_eq(&a[pa], &b[pb]) {
            return;
        }
        self.old_path.push(pa);
        self.new_path.push(pb);
        self.nodes(&a[pa], &b[pb]);
        self.old_path.pop();
        self.new_path.pop();
    }

    fn deleted(&mut self, a: &[Node], range: Range<usize>) {
        for i in range {
            self.ops.push(DiffOp::Deleted {
                path: path_at(&self.old_path, i),
                node: a[i].describe(),
            });
        }
    }

    fn inserted(&mut self, b: &[Node], range: Range<usize>) {
        for i in range {
            self.ops.push(DiffOp::Inserted {
                path: path_at(&self.new_path, i),
                node: b[i].describe(),
            });
        }
    }
}

/// Longest common subsequence over the signatures of two child
/// windows (the children left between the signature-equal head and
/// tail); returns the matched index pairs, relative to the windows, in
/// increasing order. Allocates nothing when either window is empty,
/// as it is for a single deletion, insertion or text change.
fn lcs_pairs(a: &[Node], b: &[Node]) -> Vec<(usize, usize)> {
    let (an, bm) = (a.len(), b.len());
    let mut pairs = Vec::new();
    if an == 0 || bm == 0 {
        return pairs;
    }
    let sig_a: Vec<_> = a.iter().map(signature).collect();
    let sig_b: Vec<_> = b.iter().map(signature).collect();
    // dp[i * (bm + 1) + j] = LCS length of the windows' suffixes
    // a[i..], b[j..] (one flat buffer, no per-row allocations).
    let width = bm + 1;
    let mut dp = vec![0usize; (an + 1) * width];
    for i in (0..an).rev() {
        for j in (0..bm).rev() {
            dp[i * width + j] = if sig_a[i] == sig_b[j] {
                dp[(i + 1) * width + j + 1] + 1
            } else {
                dp[(i + 1) * width + j].max(dp[i * width + j + 1])
            };
        }
    }
    let (mut i, mut j) = (0, 0);
    while i < an && j < bm {
        if sig_a[i] == sig_b[j] {
            pairs.push((i, j));
            i += 1;
            j += 1;
        } else if dp[(i + 1) * width + j] >= dp[i * width + j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ConfTree {
        ConfTree::new(
            Node::new("config")
                .with_child(Node::new("directive").with_attr("name", "a").with_text("1"))
                .with_child(Node::new("directive").with_attr("name", "b").with_text("2"))
                .with_child(Node::new("directive").with_attr("name", "c").with_text("3")),
        )
    }

    #[test]
    fn identical_trees_have_no_diff() {
        assert!(diff(&base(), &base()).is_empty());
    }

    #[test]
    fn single_deletion_is_one_op() {
        let mut new = base();
        new.delete(&TreePath::from(vec![1])).unwrap();
        let ops = diff(&base(), &new);
        assert_eq!(ops.len(), 1);
        match &ops[0] {
            DiffOp::Deleted { path, node } => {
                assert_eq!(*path, TreePath::from(vec![1]));
                assert!(node.contains("name=b"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_insertion_is_one_op() {
        let mut new = base();
        new.insert(
            &TreePath::root(),
            1,
            Node::new("directive").with_attr("name", "x").with_text("9"),
        )
        .unwrap();
        let ops = diff(&base(), &new);
        assert_eq!(ops.len(), 1);
        assert!(
            matches!(&ops[0], DiffOp::Inserted { path, .. } if *path == TreePath::from(vec![1]))
        );
    }

    #[test]
    fn text_change_is_reported_as_changed() {
        let mut new = base();
        new.set_text_at(&TreePath::from(vec![2]), Some("30".into()))
            .unwrap();
        let ops = diff(&base(), &new);
        assert_eq!(ops.len(), 1);
        match &ops[0] {
            DiffOp::Changed { before, after, .. } => {
                assert!(before.contains("\"3\""));
                assert!(after.contains("\"30\""));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplication_shows_as_insertion() {
        let mut new = base();
        new.duplicate(&TreePath::from(vec![0])).unwrap();
        let ops = diff(&base(), &new);
        assert_eq!(ops.len(), 1);
        assert!(matches!(&ops[0], DiffOp::Inserted { .. }));
    }

    /// A config of `len` directives, built afresh (nothing shared).
    fn long(len: usize) -> ConfTree {
        let mut root = Node::new("config");
        for i in 0..len {
            let name = format!("d{i}");
            root = root.with_child(
                Node::new("directive")
                    .with_attr("name", &name)
                    .with_text("1"),
            );
        }
        ConfTree::new(root)
    }

    #[test]
    fn shared_siblings_diff_like_unshared_ones() {
        let baseline = long(40);
        let rename = |tree: &mut ConfTree| {
            tree.set_attr_at(&TreePath::from(vec![17]), "name", "x17")
                .unwrap();
        };
        let delete = |tree: &mut ConfTree| {
            tree.delete(&TreePath::from(vec![23])).unwrap();
        };
        // A rename changes the signature: one deletion plus one
        // insertion.
        for (edit, count) in [(&rename as &dyn Fn(&mut ConfTree), 2), (&delete, 1)] {
            // Copy-on-write: the edited tree shares every untouched
            // sibling with `baseline`.
            let mut shared = baseline.clone();
            edit(&mut shared);
            assert!(Node::ptr_eq(
                &shared.root().children()[0],
                &baseline.root().children()[0]
            ));
            let mut unshared = long(40);
            edit(&mut unshared);
            let ops = diff(&baseline, &shared);
            assert_eq!(ops, diff(&long(40), &unshared));
            assert_eq!(ops.len(), count, "{ops:?}");
        }
    }

    /// Deleting the first of two same-named siblings: the head trim
    /// pairs the survivor with the first old node by signature, so the
    /// diff reads as a change at /0 and a deletion at /1. Trimming by
    /// shared handles first would report a deletion at /0 instead.
    #[test]
    fn deleting_the_first_same_named_sibling_keeps_the_signature_alignment() {
        let add_type = |text| {
            Node::new("directive")
                .with_attr("name", "AddType")
                .with_text(text)
        };
        let baseline = ConfTree::new(
            Node::new("config")
                .with_child(add_type("a"))
                .with_child(add_type("b")),
        );
        let mut edited = baseline.clone();
        edited.delete(&TreePath::from(vec![0])).unwrap();
        let ops: Vec<String> = diff(&baseline, &edited)
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            ops,
            [
                "~ /0 directive(name=AddType)=\"a\" -> directive(name=AddType)=\"b\"",
                "- /1 directive(name=AddType)=\"b\"",
            ]
        );
    }

    #[test]
    fn display_renders_ops() {
        let mut new = base();
        new.delete(&TreePath::from(vec![0])).unwrap();
        let ops = diff(&base(), &new);
        let s = ops[0].to_string();
        assert!(s.starts_with("- /0"), "{s}");
    }
}
