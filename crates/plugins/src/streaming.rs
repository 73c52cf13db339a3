//! Lazy composition of plugin fault loads.
//!
//! The plugins in this crate generate eagerly — each `generate` call
//! returns one `Vec` — which is fine per plugin but multiplies badly:
//! a campaign over *every pair* of two plugins' faults (the
//! double-fault workloads motivated by the storage-system human-error
//! study in PAPERS.md) would materialize a cross-product `Vec` of
//! |A| × |B| scenarios before injecting the first one. The helpers
//! here keep composition lazy instead: plugins become
//! [`GeneratorSource`]s (generation deferred to first pull, one
//! plugin at a time) and compose through the [`FaultSourceExt`]
//! combinators, so the campaign executor pulls faults chunk by chunk
//! and the cross-product never exists in memory.

use conferr_model::{
    BoxFaultSource, ConfigSet, EagerSource, ErrorGenerator, FaultSourceExt, GeneratorSource,
    IntoFaultSource, ProductSource,
};

/// Chains any number of boxed plugins into one lazy fault source over
/// `baseline`: each plugin's `generate` runs only when the stream
/// reaches it, so generation overlaps injection instead of preceding
/// it. The enumeration order is exactly
/// [`conferr::Campaign::run`](../conferr/struct.Campaign.html#method.run)'s:
/// every fault of the first plugin, then the second, and so on.
pub fn plugin_source(
    generators: Vec<Box<dyn ErrorGenerator + Send>>,
    baseline: &ConfigSet,
) -> BoxFaultSource {
    let mut source: BoxFaultSource = Box::new(EagerSource::new(Vec::new()));
    for generator in generators {
        source = Box::new(source.chain(generator.into_source(baseline)));
    }
    source
}

/// The lazy double-fault space of two plugins: every `(a, b)` pair of
/// `first`'s and `second`'s faults over `baseline`, combined into one
/// compound scenario (`a`'s edits then `b`'s; see
/// [`conferr_model::combine_faults`]). Memory is O(|second|) — the
/// right side is materialized once, the left side streams — while the
/// enumerated space is O(|first| × |second|).
pub fn double_fault_source<A, B>(
    first: A,
    second: B,
    baseline: &ConfigSet,
) -> ProductSource<GeneratorSource<A>, GeneratorSource<B>>
where
    A: ErrorGenerator,
    B: ErrorGenerator,
{
    first
        .into_source(baseline)
        .product(second.into_source(baseline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StructuralPlugin;
    use conferr_model::{product_eager, FaultSource, GeneratedFault, StructuralKind};
    use conferr_tree::{ConfTree, Node};

    fn set() -> ConfigSet {
        let mut s = ConfigSet::new();
        let mut root = Node::new("config");
        for i in 0..4 {
            root.push_child(
                Node::new("directive")
                    .with_attr("name", format!("d{i}"))
                    .with_text(i.to_string()),
            );
        }
        s.insert("a.conf", ConfTree::new(root));
        s
    }

    fn omission() -> StructuralPlugin {
        StructuralPlugin::new().with_kinds([StructuralKind::DirectiveOmission])
    }

    fn duplication() -> StructuralPlugin {
        StructuralPlugin::new().with_kinds([StructuralKind::Duplication])
    }

    #[test]
    fn plugin_source_matches_sequential_generate() {
        let set = set();
        let mut eager = Vec::new();
        eager.extend(omission().generate(&set).unwrap());
        eager.extend(duplication().generate(&set).unwrap());

        let source = plugin_source(vec![Box::new(omission()), Box::new(duplication())], &set);
        let streamed = source.collect_all().unwrap();
        let ids = |faults: &[GeneratedFault]| {
            faults
                .iter()
                .map(|f| f.id().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&streamed), ids(&eager));
    }

    #[test]
    fn empty_plugin_source_is_empty() {
        let source = plugin_source(Vec::new(), &set());
        assert!(source.collect_all().unwrap().is_empty());
    }

    #[test]
    fn double_fault_source_matches_eager_cross_product() {
        let set = set();
        let left = omission().generate(&set).unwrap();
        let right = duplication().generate(&set).unwrap();
        let eager = product_eager(&left, &right);
        assert_eq!(eager.len(), left.len() * right.len());

        let mut source = double_fault_source(omission(), duplication(), &set);
        let mut streamed = Vec::new();
        while source.next_chunk(3, &mut streamed).unwrap() > 0 {}
        assert_eq!(streamed, eager);
        // Each compound fault carries both halves' edits.
        let first = streamed[0].scenario().unwrap();
        assert_eq!(first.edits.len(), 2);
    }
}
