//! A minimal DOM built on the pull parser.
//!
//! Schema loaders for small documents (visualisation graphs, crawler
//! checkpoints and hosts) are much clearer over a tree than a raw event
//! stream. The dataset loader, whose files are the large ones, reads the
//! event stream directly instead (`dataset_io`).

use crate::error::{Error, Result};
use crate::parser::{Event, Parser};
use std::borrow::Cow;

/// A child of an [`Element`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// Nested element.
    Element(Element),
    /// Character data (adjacent text is merged).
    Text(String),
}

/// An XML element: name, attributes and children.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Parses a complete document and returns its root element.
    ///
    /// Errors if the document is empty, has trailing content after the root,
    /// or is malformed.
    pub fn parse(input: &str) -> Result<Element> {
        let mut parser = Parser::new(input);
        let root = match parser.next_event()? {
            Event::Start {
                name,
                attributes,
                self_closing,
            } => build_element(&mut parser, name, attributes, self_closing)?,
            Event::Text(_) => {
                return Err(Error::schema("document has text before the root element"))
            }
            Event::Eof => return Err(Error::schema("document has no root element")),
            Event::End { .. } => unreachable!("parser rejects dangling end tags"),
        };
        match parser.next_event()? {
            Event::Eof => Ok(root),
            _ => Err(Error::schema("content after the root element")),
        }
    }

    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Attribute value, or a schema error naming the element.
    pub fn require_attr(&self, name: &str) -> Result<&str> {
        self.attr(name)
            .ok_or_else(|| Error::schema(format!("<{}> missing attribute {name:?}", self.name)))
    }

    /// Parses a required attribute as `usize`.
    pub fn require_usize(&self, name: &str) -> Result<usize> {
        let raw = self.require_attr(name)?;
        raw.parse().map_err(|_| {
            Error::schema(format!(
                "<{}> attribute {name:?} is not an integer: {raw:?}",
                self.name
            ))
        })
    }

    /// Parses a required attribute as `f64`.
    pub fn require_f64(&self, name: &str) -> Result<f64> {
        let raw = self.require_attr(name)?;
        raw.parse().map_err(|_| {
            Error::schema(format!(
                "<{}> attribute {name:?} is not a number: {raw:?}",
                self.name
            ))
        })
    }

    /// Child elements (ignoring text nodes).
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Child elements with a given tag name.
    pub fn elements_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements().filter(move |e| e.name == name)
    }

    /// First child element with the given name.
    pub fn child<'a>(&'a self, name: &str) -> Option<&'a Element> {
        self.elements().find(|e| e.name == name)
    }

    /// First child element with the given name, or a schema error.
    pub fn require_child(&self, name: &str) -> Result<&Element> {
        self.child(name)
            .ok_or_else(|| Error::schema(format!("<{}> missing child <{name}>", self.name)))
    }

    /// Concatenated text content of this element (direct text children only).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }
}

fn build_element(
    parser: &mut Parser<'_>,
    name: &str,
    attributes: Vec<(&str, Cow<'_, str>)>,
    self_closing: bool,
) -> Result<Element> {
    let mut el = Element {
        name: name.to_string(),
        attributes: attributes
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.into_owned()))
            .collect(),
        children: Vec::new(),
    };
    if self_closing {
        return Ok(el);
    }
    loop {
        match parser.next_event()? {
            Event::Start {
                name,
                attributes,
                self_closing,
            } => {
                let child = build_element(parser, name, attributes, self_closing)?;
                el.children.push(Node::Element(child));
            }
            Event::Text(t) => match el.children.last_mut() {
                Some(Node::Text(prev)) => prev.push_str(&t),
                _ => el.children.push(Node::Text(t.into_owned())),
            },
            Event::End { .. } => return Ok(el), // parser already verified the name
            Event::Eof => unreachable!("parser reports unclosed elements as errors"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_navigate() {
        let e =
            Element::parse("<root v=\"1\"><item id=\"a\">x</item><item id=\"b\"/><other/></root>")
                .unwrap();
        assert_eq!(e.name, "root");
        assert_eq!(e.attr("v"), Some("1"));
        assert_eq!(e.attr("missing"), None);
        assert_eq!(e.elements_named("item").count(), 2);
        assert_eq!(e.child("other").unwrap().name, "other");
        assert_eq!(e.child("item").unwrap().text(), "x");
        assert!(e.child("nope").is_none());
    }

    #[test]
    fn require_helpers_error_with_context() {
        let e = Element::parse("<p n=\"12\" f=\"2.5\" bad=\"x\"/>").unwrap();
        assert_eq!(e.require_usize("n").unwrap(), 12);
        assert!((e.require_f64("f").unwrap() - 2.5).abs() < 1e-12);
        assert!(e
            .require_attr("gone")
            .unwrap_err()
            .to_string()
            .contains("<p>"));
        assert!(e
            .require_usize("bad")
            .unwrap_err()
            .to_string()
            .contains("not an integer"));
        assert!(e
            .require_f64("bad")
            .unwrap_err()
            .to_string()
            .contains("not a number"));
        assert!(e
            .require_child("kid")
            .unwrap_err()
            .to_string()
            .contains("missing child"));
    }

    #[test]
    fn text_merges_across_cdata() {
        let e = Element::parse("<t>a<![CDATA[ & ]]>b</t>").unwrap();
        assert_eq!(e.text(), "a & b");
    }

    #[test]
    fn empty_document_rejected() {
        assert!(Element::parse("").is_err());
        assert!(Element::parse("   ").is_err());
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(Element::parse("<a/><b/>").is_err());
    }

    #[test]
    fn leading_text_rejected() {
        assert!(Element::parse("oops<a/>").is_err());
    }

    #[test]
    fn deep_nesting() {
        let depth = 1000;
        let mut doc = String::new();
        for _ in 0..depth {
            doc.push_str("<d>");
        }
        for _ in 0..depth {
            doc.push_str("</d>");
        }
        let mut e = &Element::parse(&doc).unwrap();
        let mut seen = 1;
        while let Some(c) = e.child("d") {
            e = c;
            seen += 1;
        }
        assert_eq!(seen, depth);
    }

    #[test]
    fn a_million_levels_is_an_error_not_an_abort() {
        let depth = 1_000_000;
        let doc = format!("{}{}", "<d>".repeat(depth), "</d>".repeat(depth));
        match Element::parse(&doc) {
            Err(Error::Syntax { offset, message }) => {
                assert_eq!(offset, 3 * crate::parser::MAX_DEPTH, "{message}");
                assert!(message.contains("deeper than 1024"), "{message}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }
}
