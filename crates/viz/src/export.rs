//! Saving and loading network views.
//!
//! The paper: "The visualization graph can be saved as an XML file and be
//! loaded in future." The XML schema round-trips every field of
//! [`PostReplyNetwork`], including layout positions and the node detail
//! records. DOT and GraphML emitters let external tools render the same
//! view.

use crate::network::{NetworkEdge, NetworkNode, PostReplyNetwork};
use mass_types::BloggerId;
use mass_xml::{Element, Error, Result, XmlWriter};

/// Serialises a network view to XML.
pub fn to_xml_string(net: &PostReplyNetwork) -> String {
    let mut w = XmlWriter::new();
    w.declaration();
    match net.focus {
        Some(f) => w.open_with_attrs("network", &[("focus", &f.index().to_string())]),
        None => w.open("network"),
    }
    for node in &net.nodes {
        let blogger = node.blogger.index().to_string();
        let influence = node.influence.to_string();
        let posts = node.post_count.to_string();
        w.open_with_attrs(
            "node",
            &[
                ("blogger", blogger.as_str()),
                ("name", node.name.as_str()),
                ("influence", influence.as_str()),
                ("posts", posts.as_str()),
            ],
        );
        if let Some((x, y)) = node.position {
            w.leaf_with_attrs("pos", &[("x", &x.to_string()), ("y", &y.to_string())]);
        }
        if !node.domain_influence.is_empty() {
            w.open("domains");
            for (idx, &v) in node.domain_influence.iter().enumerate() {
                w.leaf_with_attrs("d", &[("idx", &idx.to_string()), ("v", &v.to_string())]);
            }
            w.close();
        }
        w.close();
    }
    for e in &net.edges {
        w.leaf_with_attrs(
            "edge",
            &[
                ("from", &e.from.to_string()),
                ("to", &e.to.to_string()),
                ("comments", &e.comments.to_string()),
            ],
        );
    }
    w.close();
    w.finish()
}

/// Loads a network view saved by [`to_xml_string`].
pub fn from_xml_str(xml: &str) -> Result<PostReplyNetwork> {
    let root = Element::parse(xml)?;
    if root.name != "network" {
        return Err(Error::Schema(format!(
            "expected <network>, found <{}>",
            root.name
        )));
    }
    let focus = match root.attr("focus") {
        Some(f) => Some(BloggerId::new(f.parse::<usize>().map_err(|_| {
            Error::Schema(format!("focus is not an integer: {f:?}"))
        })?)),
        None => None,
    };

    let mut nodes = Vec::new();
    for n in root.elements_named("node") {
        let mut node = NetworkNode {
            blogger: BloggerId::new(n.require_usize("blogger")?),
            name: n.require_attr("name")?.to_string(),
            influence: n.require_f64("influence")?,
            domain_influence: Vec::new(),
            post_count: n.require_usize("posts")?,
            position: None,
        };
        if let Some(pos) = n.child("pos") {
            node.position = Some((pos.require_f64("x")?, pos.require_f64("y")?));
        }
        if let Some(domains) = n.child("domains") {
            let mut entries: Vec<(usize, f64)> = Vec::new();
            for d in domains.elements_named("d") {
                entries.push((d.require_usize("idx")?, d.require_f64("v")?));
            }
            entries.sort_by_key(|(i, _)| *i);
            for (expect, (idx, v)) in entries.into_iter().enumerate() {
                if idx != expect {
                    return Err(Error::Schema(format!(
                        "domain vector indices must be dense; expected {expect}, found {idx}"
                    )));
                }
                node.domain_influence.push(v);
            }
        }
        nodes.push(node);
    }

    let mut edges = Vec::new();
    for e in root.elements_named("edge") {
        let edge = NetworkEdge {
            from: e.require_usize("from")?,
            to: e.require_usize("to")?,
            comments: e.require_usize("comments")? as u32,
        };
        if edge.from >= nodes.len() || edge.to >= nodes.len() {
            return Err(Error::Schema(format!(
                "edge {}→{} references a missing node",
                edge.from, edge.to
            )));
        }
        edges.push(edge);
    }
    Ok(PostReplyNetwork {
        nodes,
        edges,
        focus,
    })
}

/// Emits Graphviz DOT: node labels are blogger names, edge labels the
/// comment counts (the Fig. 4 view, renderable with `dot -Tsvg`).
pub fn to_dot(net: &PostReplyNetwork) -> String {
    let mut out = String::from("digraph postreply {\n");
    out.push_str("  node [shape=ellipse];\n");
    for (i, node) in net.nodes.iter().enumerate() {
        let label = node.name.replace('"', "\\\"");
        let peripheries = if net.focus == Some(node.blogger) {
            2
        } else {
            1
        };
        out.push_str(&format!(
            "  n{i} [label=\"{label}\", peripheries={peripheries}];\n"
        ));
    }
    for e in &net.edges {
        out.push_str(&format!(
            "  n{} -> n{} [label=\"{}\"];\n",
            e.from, e.to, e.comments
        ));
    }
    out.push_str("}\n");
    out
}

/// Emits GraphML with influence and position attributes.
pub fn to_graphml(net: &PostReplyNetwork) -> String {
    let mut w = XmlWriter::new();
    w.declaration();
    w.open_with_attrs(
        "graphml",
        &[("xmlns", "http://graphml.graphdrawing.org/xmlns")],
    );
    w.leaf_with_attrs(
        "key",
        &[
            ("id", "name"),
            ("for", "node"),
            ("attr.name", "name"),
            ("attr.type", "string"),
        ],
    );
    w.leaf_with_attrs(
        "key",
        &[
            ("id", "influence"),
            ("for", "node"),
            ("attr.name", "influence"),
            ("attr.type", "double"),
        ],
    );
    w.leaf_with_attrs(
        "key",
        &[
            ("id", "comments"),
            ("for", "edge"),
            ("attr.name", "comments"),
            ("attr.type", "int"),
        ],
    );
    w.open_with_attrs("graph", &[("id", "postreply"), ("edgedefault", "directed")]);
    for (i, node) in net.nodes.iter().enumerate() {
        w.open_with_attrs("node", &[("id", &format!("n{i}"))]);
        w.text_element_with_attrs("data", &[("key", "name")], &node.name);
        w.text_element_with_attrs("data", &[("key", "influence")], &node.influence.to_string());
        w.close();
    }
    for (i, e) in net.edges.iter().enumerate() {
        w.open_with_attrs(
            "edge",
            &[
                ("id", &format!("e{i}")),
                ("source", &format!("n{}", e.from)),
                ("target", &format!("n{}", e.to)),
            ],
        );
        w.text_element_with_attrs("data", &[("key", "comments")], &e.comments.to_string());
        w.close();
    }
    w.close();
    w.close();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{apply_layout, LayoutParams};
    use mass_types::{DatasetBuilder, Sentiment};

    fn network() -> PostReplyNetwork {
        let mut b = DatasetBuilder::new();
        let a = b.blogger("Amery \"The Ace\"");
        let c = b.blogger("Bob & Co");
        let p = b.post(a, "t", "x");
        b.comment(p, c, "agree", Some(Sentiment::Positive));
        b.comment(p, c, "more", None);
        let ds = b.build().unwrap();
        let mut net = PostReplyNetwork::around(&ds, mass_types::BloggerId::new(0), 2);
        net.attach_scores(&[0.75, 0.25], &[vec![0.1, 0.9], vec![0.5, 0.5]]);
        apply_layout(&mut net, &LayoutParams::default());
        net
    }

    #[test]
    fn xml_roundtrip_is_exact() {
        let net = network();
        let xml = to_xml_string(&net);
        let back = from_xml_str(&xml).unwrap();
        assert_eq!(net, back);
    }

    #[test]
    fn roundtrip_without_positions_or_scores() {
        let mut b = DatasetBuilder::new();
        let a = b.blogger("x");
        let c = b.blogger("y");
        let p = b.post(a, "t", "w");
        b.comment(p, c, "hi", None);
        let net = PostReplyNetwork::build(&b.build().unwrap());
        let back = from_xml_str(&to_xml_string(&net)).unwrap();
        assert_eq!(net, back);
        assert_eq!(back.focus, None);
        assert_eq!(back.nodes[0].position, None);
    }

    #[test]
    fn special_characters_survive() {
        let net = network();
        let back = from_xml_str(&to_xml_string(&net)).unwrap();
        assert_eq!(back.nodes[0].name, "Amery \"The Ace\"");
        assert_eq!(back.nodes[1].name, "Bob & Co");
    }

    #[test]
    fn bad_edge_reference_rejected() {
        let xml = r#"<network><node blogger="0" name="a" influence="0" posts="0"/>
                     <edge from="0" to="5" comments="1"/></network>"#;
        assert!(from_xml_str(xml).is_err());
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(from_xml_str("<nope/>").is_err());
    }

    #[test]
    fn a_million_nested_elements_are_an_error_not_an_abort() {
        let depth = 1_000_000;
        let doc = format!(
            "<network>{}{}</network>",
            "<n>".repeat(depth),
            "</n>".repeat(depth)
        );
        assert!(matches!(from_xml_str(&doc), Err(Error::Syntax { .. })));
    }

    #[test]
    fn dot_contains_labels_and_weights() {
        let dot = to_dot(&network());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("label=\"Amery \\\"The Ace\\\"\""));
        assert!(dot.contains("[label=\"2\"]"), "edge weight missing: {dot}");
        assert!(
            dot.contains("peripheries=2"),
            "focus node should be highlighted"
        );
    }

    #[test]
    fn graphml_is_parseable_xml() {
        let g = to_graphml(&network());
        let root = Element::parse(&g).unwrap();
        assert_eq!(root.name, "graphml");
        let graph = root.child("graph").unwrap();
        assert_eq!(graph.elements_named("node").count(), 2);
        assert_eq!(graph.elements_named("edge").count(), 1);
    }
}
