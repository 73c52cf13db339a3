//! The [`Node`] type: one information item of a configuration tree.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::TreePath;

/// The owned payload of one node. Kept behind an [`Arc`] inside
/// [`Node`] so that cloning a node — and therefore a whole subtree —
/// is a reference-count bump. `Clone` here is *shallow* in the
/// children: the child `Vec` is copied, but every child is itself an
/// `Arc` handle, so detaching one node from a shared tree costs that
/// node's own fields plus one refcount bump per direct child.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NodeData {
    kind: String,
    attrs: BTreeMap<String, String>,
    text: Option<String>,
    children: Vec<Node>,
}

/// One node of a configuration tree.
///
/// A node mirrors an XML-infoset *information item*: it has a `kind`
/// (the element name, e.g. `"directive"`, `"section"`, `"comment"`),
/// an ordered map of string attributes, optional text content, and an
/// ordered list of children.
///
/// # Structural sharing
///
/// `Node` is a copy-on-write handle: the payload lives behind an
/// [`Arc`], so `clone` shares the entire subtree instead of deep
/// copying it, and the first mutation through any `&mut` accessor
/// detaches only the node being mutated (its children stay shared
/// with the original). Walking [`crate::ConfTree::node_at_mut`] down
/// to an edit site therefore copies exactly the root-to-edit path —
/// the cost of [applying a fault scenario] is proportional to the
/// *depth* of the edit, not the size of the configuration. Use
/// [`Node::ptr_eq`] to observe sharing.
///
/// [applying a fault scenario]: crate::ConfTree
///
/// Construction follows a lightweight builder style:
///
/// ```
/// use conferr_tree::Node;
///
/// let n = Node::new("directive")
///     .with_attr("name", "Listen")
///     .with_text("80");
/// assert_eq!(n.kind(), "directive");
/// assert_eq!(n.attr("name"), Some("Listen"));
/// assert_eq!(n.text(), Some("80"));
///
/// // Clones share the subtree until one side is mutated.
/// let copy = n.clone();
/// assert!(Node::ptr_eq(&n, &copy));
/// let mut edited = copy.clone();
/// edited.set_attr("name", "Port");
/// assert!(!Node::ptr_eq(&n, &edited));
/// assert_eq!(n.attr("name"), Some("Listen"));
/// ```
#[derive(Clone)]
pub struct Node {
    data: Arc<NodeData>,
}

impl Node {
    /// Creates a node of the given kind with no attributes, text or
    /// children.
    pub fn new(kind: impl Into<String>) -> Self {
        Node {
            data: Arc::new(NodeData {
                kind: kind.into(),
                attrs: BTreeMap::new(),
                text: None,
                children: Vec::new(),
            }),
        }
    }

    /// Copy-on-write access to the payload: detaches this node from
    /// any sharers (cloning its own fields, refcount-bumping its
    /// children) exactly once.
    fn make_mut(&mut self) -> &mut NodeData {
        Arc::make_mut(&mut self.data)
    }

    /// `true` iff `a` and `b` are handles on *the same* node payload
    /// (pointer equality, not structural equality). A `true` result
    /// proves neither subtree has been mutated since the handles
    /// diverged; `false` says nothing — structurally equal nodes in
    /// distinct allocations also return `false`.
    pub fn ptr_eq(a: &Node, b: &Node) -> bool {
        Arc::ptr_eq(&a.data, &b.data)
    }

    /// The node kind (element name).
    pub fn kind(&self) -> &str {
        &self.data.kind
    }

    /// Replaces the node kind.
    pub fn set_kind(&mut self, kind: impl Into<String>) {
        self.make_mut().kind = kind.into();
    }

    /// Builder-style: sets an attribute and returns `self`.
    #[must_use]
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.make_mut().attrs.insert(key.into(), value.into());
        self
    }

    /// Builder-style: sets the text content and returns `self`.
    #[must_use]
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.make_mut().text = Some(text.into());
        self
    }

    /// Builder-style: appends a child and returns `self`.
    #[must_use]
    pub fn with_child(mut self, child: Node) -> Self {
        self.make_mut().children.push(child);
        self
    }

    /// Builder-style: appends every child from the iterator.
    #[must_use]
    pub fn with_children(mut self, children: impl IntoIterator<Item = Node>) -> Self {
        self.make_mut().children.extend(children);
        self
    }

    /// Looks up an attribute value.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.data.attrs.get(key).map(String::as_str)
    }

    /// Sets an attribute, returning the previous value if any.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) -> Option<String> {
        self.make_mut().attrs.insert(key.into(), value.into())
    }

    /// Removes an attribute, returning its value if it was present.
    pub fn remove_attr(&mut self, key: &str) -> Option<String> {
        self.make_mut().attrs.remove(key)
    }

    /// All attributes in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.data
            .attrs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.data.attrs.len()
    }

    /// The text content, if any.
    pub fn text(&self) -> Option<&str> {
        self.data.text.as_deref()
    }

    /// Sets (or clears, with `None`) the text content, returning the
    /// previous value.
    pub fn set_text(&mut self, text: Option<String>) -> Option<String> {
        std::mem::replace(&mut self.make_mut().text, text)
    }

    /// Shared access to the children.
    pub fn children(&self) -> &[Node] {
        &self.data.children
    }

    /// Exclusive access to the children. Detaches this node (one
    /// level only — the children themselves stay shared until they
    /// are mutated in turn).
    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        &mut self.make_mut().children
    }

    /// Appends a child.
    pub fn push_child(&mut self, child: Node) {
        self.make_mut().children.push(child);
    }

    /// First child of the given kind, if any.
    pub fn first_child_of_kind(&self, kind: &str) -> Option<&Node> {
        self.data.children.iter().find(|c| c.kind() == kind)
    }

    /// All direct children of the given kind.
    pub fn children_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Node> + 'a {
        self.data.children.iter().filter(move |c| c.kind() == kind)
    }

    /// Depth-first count of all nodes in this subtree, including
    /// `self`.
    pub fn subtree_len(&self) -> usize {
        1 + self
            .data
            .children
            .iter()
            .map(Node::subtree_len)
            .sum::<usize>()
    }

    /// A compact single-line description used in diagnostics, e.g.
    /// `directive(name=Listen)="80"`: the kind, the attributes in key
    /// order in parentheses (none when there are no attributes), and
    /// the first 40 characters of the text, `Debug`-quoted. Written
    /// into one `String` sized for the unescaped description.
    pub fn describe(&self) -> String {
        let data = &*self.data;
        let text = data
            .text
            .as_deref()
            .map(|t| &t[..t.char_indices().nth(40).map_or(t.len(), |(at, _)| at)]);
        let attrs_len: usize = data.attrs.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
        let mut s = String::with_capacity(
            data.kind.len() + attrs_len + 1 + text.map_or(0, |t| t.len() + 3),
        );
        s.push_str(&data.kind);
        let mut open = '(';
        for (key, value) in &data.attrs {
            s.push(open);
            s.push_str(key);
            s.push('=');
            s.push_str(value);
            open = ',';
        }
        if !data.attrs.is_empty() {
            s.push(')');
        }
        if let Some(text) = text {
            let _ = write!(s, "={text:?}");
        }
        s
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        // Shared handles are equal without a walk; the deep comparison
        // only runs for detached (or independently built) subtrees.
        Arc::ptr_eq(&self.data, &other.data) || self.data == other.data
    }
}

impl Eq for Node {}

impl Hash for Node {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.data.kind)
            .field("attrs", &self.data.attrs)
            .field("text", &self.data.text)
            .field("children", &self.data.children)
            .finish()
    }
}

// The workspace's offline `serde` shim only declares marker traits;
// these impls keep `Node` usable inside derived containers
// (`TreeEdit`, `ConfTree`, …). Restoring the real serde crates would
// replace them with impls delegating to the payload fields.
impl serde::Serialize for Node {}
impl<'de> serde::Deserialize<'de> for Node {}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Depth-first iterator over `(path, node)` pairs of a subtree.
///
/// Produced by [`crate::ConfTree::iter`]. The root is yielded first
/// with the empty path.
#[derive(Debug)]
pub struct NodeIter<'a> {
    stack: Vec<(TreePath, &'a Node)>,
}

impl<'a> NodeIter<'a> {
    pub(crate) fn new(root: &'a Node) -> Self {
        NodeIter {
            stack: vec![(TreePath::root(), root)],
        }
    }
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = (TreePath, &'a Node);

    fn next(&mut self) -> Option<Self::Item> {
        let (path, node) = self.stack.pop()?;
        for (i, child) in node.children().iter().enumerate().rev() {
            self.stack.push((path.child(i), child));
        }
        Some((path, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors_round_trip() {
        let mut n = Node::new("directive")
            .with_attr("name", "port")
            .with_text("80");
        assert_eq!(n.attr("name"), Some("port"));
        assert_eq!(n.set_attr("name", "Port"), Some("port".to_string()));
        assert_eq!(n.remove_attr("name"), Some("Port".to_string()));
        assert_eq!(n.attr("name"), None);
        assert_eq!(n.set_text(None), Some("80".to_string()));
        assert_eq!(n.text(), None);
    }

    #[test]
    fn children_of_kind_filters() {
        let n = Node::new("section")
            .with_child(Node::new("directive"))
            .with_child(Node::new("comment"))
            .with_child(Node::new("directive"));
        assert_eq!(n.children_of_kind("directive").count(), 2);
        assert_eq!(n.first_child_of_kind("comment").unwrap().kind(), "comment");
        assert!(n.first_child_of_kind("blank").is_none());
    }

    #[test]
    fn subtree_len_counts_recursively() {
        let n = Node::new("a")
            .with_child(Node::new("b").with_child(Node::new("c")))
            .with_child(Node::new("d"));
        assert_eq!(n.subtree_len(), 4);
    }

    #[test]
    fn describe_is_compact_and_nonempty() {
        let n = Node::new("directive").with_attr("name", "x").with_text("y");
        assert_eq!(n.describe(), "directive(name=x)=\"y\"");
        assert_eq!(Node::new("blank").describe(), "blank");
        assert_eq!(format!("{n}"), n.describe());
    }

    /// Descriptions the diff output of the paper loads never shows:
    /// no attributes, empty attribute values, and a 40-character cut
    /// next to multibyte characters and escapes.
    #[test]
    fn describe_pins_its_corner_cases() {
        let cases = [
            (
                Node::new("comment").with_text("# no attrs"),
                "comment=\"# no attrs\"",
            ),
            (
                Node::new("directive")
                    .with_attr("name", "")
                    .with_attr("arg", "")
                    .with_text(""),
                "directive(arg=,name=)=\"\"",
            ),
            (
                Node::new("directive")
                    .with_attr("name", "x")
                    .with_text(format!("{}é🦀tail", "a".repeat(39))),
                "directive(name=x)=\"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaé\"",
            ),
            (
                Node::new("directive")
                    .with_attr("name", "x")
                    .with_text(format!("{}é🦀tail", "a".repeat(38))),
                "directive(name=x)=\"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaé🦀\"",
            ),
            (
                Node::new("directive").with_text(format!("{}\"\\\n\t\u{1}\u{7f}é", "é".repeat(34))),
                "directive=\"éééééééééééééééééééééééééééééééééé\\\"\\\\\\n\\t\\u{1}\\u{7f}\"",
            ),
        ];
        for (node, pinned) in cases {
            assert_eq!(node.describe(), pinned);
        }
    }

    #[test]
    fn clone_shares_until_mutated() {
        let original = Node::new("section")
            .with_child(Node::new("directive").with_attr("name", "a"))
            .with_child(Node::new("directive").with_attr("name", "b"));
        let copy = original.clone();
        assert!(Node::ptr_eq(&original, &copy));

        // Mutating the copy detaches only the copy's own payload; the
        // *untouched* child is still the very same allocation.
        let mut copy = copy;
        copy.children_mut()[1].set_attr("name", "c");
        assert!(!Node::ptr_eq(&original, &copy));
        assert!(Node::ptr_eq(&original.children()[0], &copy.children()[0]));
        assert!(!Node::ptr_eq(&original.children()[1], &copy.children()[1]));
        assert_eq!(original.children()[1].attr("name"), Some("b"));
        assert_eq!(copy.children()[1].attr("name"), Some("c"));
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::hash_map::DefaultHasher;
        let a = Node::new("directive").with_attr("name", "x").with_text("1");
        let b = Node::new("directive").with_attr("name", "x").with_text("1");
        assert_eq!(a, b);
        assert!(!Node::ptr_eq(&a, &b));
        let hash = |n: &Node| {
            let mut h = DefaultHasher::new();
            n.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        let c = b.clone().with_text("2");
        assert_ne!(a, c);
    }
}
