//! Property-based tests for the configuration tree: path round-trips,
//! edit safety, diff minimality and query-language round-trips.

use conferr_tree::{diff, ConfTree, Node, NodeQuery, TreePath};
use proptest::prelude::*;

/// Strategy producing an arbitrary small node tree.
fn arb_node(depth: u32) -> impl Strategy<Value = Node> {
    let leaf = (
        prop::sample::select(vec!["directive", "comment", "blank", "word"]),
        prop::option::of("[a-z]{1,8}"),
        prop::option::of("[a-zA-Z0-9_ ]{0,12}"),
    )
        .prop_map(|(kind, name, text)| {
            let mut n = Node::new(kind);
            if let Some(name) = name {
                n.set_attr("name", name);
            }
            n.set_text(text);
            n
        });
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (
            prop::sample::select(vec!["section", "config", "zone"]),
            prop::option::of("[a-z]{1,8}"),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(kind, name, children)| {
                let mut n = Node::new(kind);
                if let Some(name) = name {
                    n.set_attr("name", name);
                }
                n.with_children(children)
            })
    })
}

fn arb_tree() -> impl Strategy<Value = ConfTree> {
    arb_node(3).prop_map(ConfTree::new)
}

/// One random edit: which of set text, rename, delete, insert and
/// duplicate (`op % 5`), a node picked by `target`, and a short word
/// (few letters, so renames and inserts often collide with sibling
/// signatures).
fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, String)>> {
    prop::collection::vec((0u8..5, 0usize..64, "[a-c]{1,2}"), 1..4)
}

/// Applies `edits` copy-on-write to a clone of `tree`, skipping an
/// edit that needs a non-root node when the tree has none.
fn edited(tree: &ConfTree, edits: &[(u8, usize, String)]) -> ConfTree {
    let mut t = tree.clone();
    for (op, target, word) in edits {
        let paths: Vec<TreePath> = t.iter().map(|(p, _)| p).collect();
        let node = &paths[target % paths.len()];
        if *op == 3 {
            let len = t.node_at(node).unwrap().children().len();
            let new = Node::new("directive").with_attr("name", word.as_str());
            t.insert(node, target % (len + 1), new).unwrap();
            continue;
        }
        if node.is_root() {
            continue;
        }
        match op {
            0 => {
                t.set_text_at(node, Some(word.clone())).unwrap();
            }
            1 => {
                t.set_attr_at(node, "name", word.as_str()).unwrap();
            }
            2 => {
                t.delete(node).unwrap();
            }
            _ => {
                t.duplicate(node).unwrap();
            }
        }
    }
    t
}

/// A deep copy sharing no node with `n`.
fn rebuild(n: &Node) -> Node {
    let mut copy = Node::new(n.kind());
    for (k, v) in n.attrs() {
        copy.set_attr(k, v);
    }
    copy.set_text(n.text().map(String::from));
    copy.with_children(n.children().iter().map(rebuild))
}

proptest! {
    #[test]
    fn path_display_parse_round_trip(segments in prop::collection::vec(0usize..50, 0..6)) {
        let p = TreePath::from(segments);
        let back: TreePath = p.to_string().parse().unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn every_iterated_path_resolves(tree in arb_tree()) {
        for (path, node) in tree.iter() {
            let resolved = tree.node_at(&path).unwrap();
            prop_assert_eq!(resolved.kind(), node.kind());
        }
    }

    #[test]
    fn len_matches_subtree_len(tree in arb_tree()) {
        prop_assert_eq!(tree.len(), tree.root().subtree_len());
    }

    #[test]
    fn delete_reduces_len_by_subtree(tree in arb_tree()) {
        let paths: Vec<TreePath> = tree.iter().map(|(p, _)| p).filter(|p| !p.is_root()).collect();
        if let Some(victim) = paths.first() {
            let mut t = tree.clone();
            let before = t.len();
            let removed = t.delete(victim).unwrap();
            prop_assert_eq!(t.len(), before - removed.subtree_len());
        }
    }

    #[test]
    fn duplicate_increases_len_by_subtree(tree in arb_tree()) {
        let paths: Vec<TreePath> = tree.iter().map(|(p, _)| p).filter(|p| !p.is_root()).collect();
        if let Some(target) = paths.last() {
            let mut t = tree.clone();
            let before = t.len();
            let sub = t.node_at(target).unwrap().subtree_len();
            t.duplicate(target).unwrap();
            prop_assert_eq!(t.len(), before + sub);
        }
    }

    #[test]
    fn diff_of_identical_trees_is_empty(tree in arb_tree()) {
        prop_assert!(diff(&tree, &tree).is_empty());
    }

    #[test]
    fn diff_detects_any_single_deletion(tree in arb_tree()) {
        let paths: Vec<TreePath> = tree.iter().map(|(p, _)| p).filter(|p| !p.is_root()).collect();
        for victim in paths.iter().take(4) {
            let mut t = tree.clone();
            t.delete(victim).unwrap();
            prop_assert!(!diff(&tree, &t).is_empty());
        }
    }

    /// The diff skips shared subtrees; deep, unshared rebuilds of both
    /// trees make every aligned pair take the recursion path instead,
    /// and must diff the same.
    #[test]
    fn diff_is_invariant_under_sharing(tree in arb_tree(), edits in arb_edits()) {
        let new = edited(&tree, &edits);
        let unshared_old = ConfTree::new(rebuild(tree.root()));
        let unshared_new = ConfTree::new(rebuild(new.root()));
        prop_assert!(!Node::ptr_eq(unshared_old.root(), tree.root()));
        prop_assert_eq!(diff(&tree, &new), diff(&unshared_old, &unshared_new));
    }

    #[test]
    fn query_select_paths_always_resolve(tree in arb_tree()) {
        for q in ["//directive", "//section", "/*", "//word[@name]"] {
            let query: NodeQuery = q.parse().unwrap();
            for p in query.select(&tree) {
                prop_assert!(tree.node_at(&p).is_ok());
            }
        }
    }

    #[test]
    fn query_display_round_trip(kind in "[a-z]{1,6}", attr in "[a-z]{1,6}", value in "[a-z0-9]{0,6}") {
        let q: NodeQuery = format!("//{kind}[@{attr}='{value}']").parse().unwrap();
        let reparsed: NodeQuery = q.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, q);
    }

    #[test]
    fn descendant_query_counts_match_iteration(tree in arb_tree()) {
        let q: NodeQuery = "//directive".parse().unwrap();
        let by_query = q.select(&tree).len();
        let by_iter = tree.iter().filter(|(_, n)| n.kind() == "directive").count();
        prop_assert_eq!(by_query, by_iter);
    }
}
