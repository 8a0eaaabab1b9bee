//! A pull parser for the XML subset MASS reads and writes.
//!
//! Supported: the XML declaration, comments, CDATA sections, elements with
//! single- or double-quoted attributes, self-closing tags, character data
//! with entity references. Not supported (never emitted by MASS and rejected
//! loudly): DOCTYPE/internal subsets and processing instructions other than
//! the declaration.

use crate::error::{Error, Result};
use crate::escape::unescape;
use std::borrow::Cow;

/// Most elements that may be open at once. A deeper document is refused
/// with a syntax error at the start tag that would exceed it, so no
/// consumer — the DOM builder recurses per level — can run out of stack.
pub const MAX_DEPTH: usize = 1024;

/// One parse event. Names borrow the input; text and attribute values
/// borrow it too, unless an entity reference had to be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v">` — `self_closing` is true for `<name/>`.
    Start {
        /// Element name.
        name: &'a str,
        /// Attributes in document order, values entity-decoded.
        attributes: Vec<(&'a str, Cow<'a, str>)>,
        /// Whether the tag was `<name …/>`.
        self_closing: bool,
    },
    /// `</name>`.
    End {
        /// Element name.
        name: &'a str,
    },
    /// Character data (entity-decoded; CDATA passed through verbatim).
    /// Whitespace-only text between elements is skipped.
    Text(Cow<'a, str>),
    /// End of input.
    Eof,
}

/// Pull parser; call [`Parser::next_event`] until [`Event::Eof`].
///
/// The parser checks tag balance: mismatched or dangling end tags are syntax
/// errors, so a fully-consumed document is well-formed with respect to
/// nesting. It also refuses more than [`MAX_DEPTH`] open elements.
#[derive(Debug)]
pub struct Parser<'a> {
    src: &'a str,
    input: &'a [u8],
    pos: usize,
    stack: Vec<&'a str>,
}

impl<'a> Parser<'a> {
    /// Creates a parser over a complete document.
    pub fn new(input: &'a str) -> Self {
        Parser {
            src: input,
            input: input.as_bytes(),
            pos: 0,
            stack: Vec::new(),
        }
    }

    /// Current byte offset, for error reporting by callers.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Advances to the next event.
    pub fn next_event(&mut self) -> Result<Event<'a>> {
        loop {
            if self.pos >= self.input.len() {
                if let Some(open) = self.stack.pop() {
                    return Err(Error::syntax(
                        self.pos,
                        format!("unclosed element <{open}>"),
                    ));
                }
                return Ok(Event::Eof);
            }
            if self.peek() == b'<' {
                match self.input.get(self.pos + 1) {
                    Some(b'?') => self.skip_declaration()?,
                    Some(b'!') => {
                        if self.lookahead(b"<!--") {
                            self.skip_comment()?;
                        } else if self.lookahead(b"<![CDATA[") {
                            return self.read_cdata();
                        } else {
                            return Err(Error::syntax(
                                self.pos,
                                "DOCTYPE and other <! constructs are not supported",
                            ));
                        }
                    }
                    Some(b'/') => return self.read_end_tag(),
                    Some(_) => return self.read_start_tag(),
                    None => return Err(Error::syntax(self.pos, "dangling '<' at end of input")),
                }
            } else {
                let text = self.read_text();
                if !text.trim().is_empty() {
                    return Ok(Event::Text(unescape(text)));
                }
                // Skip inter-element whitespace and continue.
            }
        }
    }

    /// Parses all remaining events (testing/diagnostics convenience).
    pub fn into_events(mut self) -> Result<Vec<Event<'a>>> {
        let mut events = Vec::new();
        loop {
            let e = self.next_event()?;
            let eof = e == Event::Eof;
            events.push(e);
            if eof {
                return Ok(events);
            }
        }
    }

    fn peek(&self) -> u8 {
        self.input[self.pos]
    }

    fn lookahead(&self, prefix: &[u8]) -> bool {
        self.input[self.pos..].starts_with(prefix)
    }

    /// The input between two byte offsets. Every offset the parser stops
    /// at is an ASCII byte or the end, so it is always a char boundary.
    fn slice(&self, start: usize, end: usize) -> &'a str {
        &self.src[start..end]
    }

    fn skip_declaration(&mut self) -> Result<()> {
        let start = self.pos;
        match find(self.input, self.pos, b"?>") {
            Some(end) => {
                self.pos = end + 2;
                Ok(())
            }
            None => Err(Error::syntax(start, "unterminated <?…?> declaration")),
        }
    }

    fn skip_comment(&mut self) -> Result<()> {
        let start = self.pos;
        match find(self.input, self.pos + 4, b"-->") {
            Some(end) => {
                self.pos = end + 3;
                Ok(())
            }
            None => Err(Error::syntax(start, "unterminated comment")),
        }
    }

    fn read_cdata(&mut self) -> Result<Event<'a>> {
        let start = self.pos;
        let body_start = self.pos + 9; // len("<![CDATA[")
        match find(self.input, body_start, b"]]>") {
            Some(end) => {
                self.pos = end + 3;
                Ok(Event::Text(Cow::Borrowed(self.slice(body_start, end))))
            }
            None => Err(Error::syntax(start, "unterminated CDATA section")),
        }
    }

    fn read_text(&mut self) -> &'a str {
        let start = self.pos;
        self.pos = memchr(b'<', self.input, self.pos).unwrap_or(self.input.len());
        self.slice(start, self.pos)
    }

    fn read_end_tag(&mut self) -> Result<Event<'a>> {
        let start = self.pos;
        self.pos += 2; // consume "</"
        let name = self.read_name()?;
        self.skip_whitespace();
        if self.pos >= self.input.len() || self.peek() != b'>' {
            return Err(Error::syntax(start, format!("malformed end tag </{name}")));
        }
        self.pos += 1;
        match self.stack.pop() {
            Some(open) if open == name => Ok(Event::End { name }),
            Some(open) => Err(Error::syntax(
                start,
                format!("expected </{open}>, found </{name}>"),
            )),
            None => Err(Error::syntax(start, format!("unmatched end tag </{name}>"))),
        }
    }

    fn read_start_tag(&mut self) -> Result<Event<'a>> {
        let start = self.pos;
        self.pos += 1; // consume '<'
        let name = self.read_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            if self.pos >= self.input.len() {
                return Err(Error::syntax(
                    start,
                    format!("unterminated start tag <{name}"),
                ));
            }
            match self.peek() {
                b'>' => {
                    if self.stack.len() >= MAX_DEPTH {
                        return Err(Error::syntax(
                            start,
                            format!("<{name}> nests deeper than {MAX_DEPTH} elements"),
                        ));
                    }
                    self.pos += 1;
                    self.stack.push(name);
                    return Ok(Event::Start {
                        name,
                        attributes,
                        self_closing: false,
                    });
                }
                b'/' => {
                    if self.input.get(self.pos + 1) == Some(&b'>') {
                        self.pos += 2;
                        return Ok(Event::Start {
                            name,
                            attributes,
                            self_closing: true,
                        });
                    }
                    return Err(Error::syntax(self.pos, "expected '/>'"));
                }
                _ => {
                    let attr_name = self.read_name()?;
                    self.skip_whitespace();
                    if self.pos >= self.input.len() || self.peek() != b'=' {
                        return Err(Error::syntax(
                            self.pos,
                            format!("attribute {attr_name} missing '='"),
                        ));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let value = self.read_quoted_value()?;
                    attributes.push((attr_name, value));
                }
            }
        }
    }

    fn read_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        while self.pos < self.input.len() {
            let c = self.peek();
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(Error::syntax(start, "expected a name"));
        }
        let name = self.slice(start, self.pos);
        if name.as_bytes()[0].is_ascii_digit() || name.starts_with('-') || name.starts_with('.') {
            return Err(Error::syntax(
                start,
                format!("invalid name start in {name:?}"),
            ));
        }
        Ok(name)
    }

    fn read_quoted_value(&mut self) -> Result<Cow<'a, str>> {
        if self.pos >= self.input.len() {
            return Err(Error::syntax(self.pos, "expected attribute value"));
        }
        let quote = self.peek();
        if quote != b'"' && quote != b'\'' {
            return Err(Error::syntax(self.pos, "attribute value must be quoted"));
        }
        self.pos += 1;
        let start = self.pos;
        let Some(end) = memchr(quote, self.input, start) else {
            self.pos = self.input.len();
            return Err(Error::syntax(start, "unterminated attribute value"));
        };
        self.pos = end + 1;
        Ok(unescape(self.slice(start, end)))
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.input.len() && self.peek().is_ascii_whitespace() {
            self.pos += 1;
        }
    }
}

/// Offset of the first `needle` byte at or after `from`.
fn memchr(needle: u8, haystack: &[u8], from: usize) -> Option<usize> {
    haystack[from..]
        .iter()
        .position(|&b| b == needle)
        .map(|i| i + from)
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| i + from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(xml: &str) -> Vec<Event<'_>> {
        Parser::new(xml).into_events().unwrap()
    }

    #[test]
    fn simple_document() {
        let evs = events("<a><b x=\"1\">hi</b></a>");
        assert_eq!(
            evs,
            vec![
                Event::Start {
                    name: "a",
                    attributes: vec![],
                    self_closing: false
                },
                Event::Start {
                    name: "b",
                    attributes: vec![("x", "1".into())],
                    self_closing: false
                },
                Event::Text("hi".into()),
                Event::End { name: "b" },
                Event::End { name: "a" },
                Event::Eof,
            ]
        );
    }

    #[test]
    fn declaration_and_comments_skipped() {
        let evs = events("<?xml version=\"1.0\"?><!-- note --><r/>");
        assert_eq!(
            evs,
            vec![
                Event::Start {
                    name: "r",
                    attributes: vec![],
                    self_closing: true
                },
                Event::Eof
            ]
        );
    }

    #[test]
    fn self_closing_with_attrs() {
        let evs = events("<x a='1' b=\"two\"/>");
        assert_eq!(
            evs[0],
            Event::Start {
                name: "x",
                attributes: vec![("a", "1".into()), ("b", "two".into())],
                self_closing: true
            }
        );
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let evs = events("<t v=\"a&amp;b\">x &lt; y</t>");
        assert_eq!(
            evs[0],
            Event::Start {
                name: "t",
                attributes: vec![("v", "a&b".into())],
                self_closing: false
            }
        );
        assert_eq!(evs[1], Event::Text("x < y".into()));
    }

    #[test]
    fn cdata_passes_verbatim() {
        let evs = events("<t><![CDATA[a <b> & c]]></t>");
        assert_eq!(evs[1], Event::Text("a <b> & c".into()));
    }

    #[test]
    fn whitespace_between_elements_skipped() {
        let evs = events("<a>\n  <b/>\n</a>");
        assert_eq!(evs.len(), 4); // a, b, /a, eof
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = Parser::new("<a></b>").into_events().unwrap_err();
        assert!(err.to_string().contains("expected </a>"));
    }

    #[test]
    fn unclosed_element_rejected() {
        let err = Parser::new("<a><b></b>").into_events().unwrap_err();
        assert!(err.to_string().contains("unclosed element <a>"));
    }

    #[test]
    fn dangling_end_tag_rejected() {
        let err = Parser::new("</a>").into_events().unwrap_err();
        assert!(err.to_string().contains("unmatched end tag"));
    }

    #[test]
    fn doctype_rejected() {
        let err = Parser::new("<!DOCTYPE html><a/>")
            .into_events()
            .unwrap_err();
        assert!(err.to_string().contains("not supported"));
    }

    #[test]
    fn unterminated_constructs_rejected() {
        assert!(Parser::new("<a").into_events().is_err());
        assert!(Parser::new("<!-- no end").into_events().is_err());
        assert!(Parser::new("<a x=\"1>").into_events().is_err());
        assert!(Parser::new("<a x=1>").into_events().is_err());
        assert!(Parser::new("<![CDATA[x").into_events().is_err());
        assert!(Parser::new("<?xml").into_events().is_err());
        assert!(Parser::new("a <").into_events().is_err());
    }

    #[test]
    fn attribute_missing_equals_rejected() {
        let err = Parser::new("<a x>").into_events().unwrap_err();
        assert!(err.to_string().contains("missing '='"));
    }

    #[test]
    fn offsets_reported() {
        let mut p = Parser::new("<a></a>");
        let _ = p.next_event().unwrap();
        assert!(p.offset() > 0);
    }

    #[test]
    fn empty_input_is_eof() {
        assert_eq!(events(""), vec![Event::Eof]);
        assert_eq!(events("   \n "), vec![Event::Eof]);
    }
}
