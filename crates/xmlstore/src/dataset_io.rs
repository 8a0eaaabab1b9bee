//! The `<blogosphere>` schema: serialising [`Dataset`] to the XML files the
//! paper's crawler module produces, and loading them back.
//!
//! Layout (ids are the dense dataset indices, so files are self-describing):
//!
//! ```xml
//! <?xml version="1.0" encoding="UTF-8"?>
//! <blogosphere>
//!   <domains>
//!     <domain id="0" name="Travel"/>
//!   </domains>
//!   <bloggers>
//!     <blogger id="0" name="Amery">
//!       <profile>…</profile>
//!       <friends><friend ref="2"/></friends>
//!     </blogger>
//!   </bloggers>
//!   <posts>
//!     <post id="0" author="0" domain="1">
//!       <title>…</title>
//!       <text>…</text>
//!       <links><link ref="3"/></links>
//!       <comments>
//!         <comment commenter="2" sentiment="positive">…</comment>
//!       </comments>
//!     </post>
//!   </posts>
//! </blogosphere>
//! ```
//!
//! Loading re-validates referential integrity through
//! [`Dataset::validate`](mass_types::Dataset::validate), so a hand-edited or
//! corrupted file cannot produce an inconsistent in-memory dataset.

use crate::error::{Error, Result};
use crate::parser::{Event, Parser};
use crate::writer::XmlWriter;
use mass_obs::field;
use mass_types::{
    Blogger, BloggerId, Comment, Dataset, DomainId, DomainSet, Post, PostId, Sentiment,
};
use std::borrow::Cow;
use std::path::Path;

/// Serialises a dataset to an XML string.
pub fn to_xml_string(ds: &Dataset) -> String {
    let mut w = XmlWriter::new();
    w.declaration();
    w.open("blogosphere");

    w.open("domains");
    for (id, name) in ds.domains.iter() {
        w.leaf_with_attrs("domain", &[("id", &id.index().to_string()), ("name", name)]);
    }
    w.close();

    w.open("bloggers");
    for (id, blogger) in ds.bloggers_enumerated() {
        w.open_with_attrs(
            "blogger",
            &[("id", &id.index().to_string()), ("name", &blogger.name)],
        );
        if !blogger.profile.is_empty() {
            w.text_element("profile", &blogger.profile);
        }
        if !blogger.friends.is_empty() {
            w.open("friends");
            for f in &blogger.friends {
                w.leaf_with_attrs("friend", &[("ref", &f.index().to_string())]);
            }
            w.close();
        }
        w.close();
    }
    w.close();

    w.open("posts");
    for (id, post) in ds.posts_enumerated() {
        let id_s = id.index().to_string();
        let author_s = post.author.index().to_string();
        let mut attrs = vec![("id", id_s.as_str()), ("author", author_s.as_str())];
        let domain_s = post.true_domain.map(|d| d.index().to_string());
        if let Some(ref d) = domain_s {
            attrs.push(("domain", d.as_str()));
        }
        // Tick 0 is the timeless default; omitting it keeps pre-temporal
        // files byte-identical.
        let ts_s = post.ts.to_string();
        if post.ts != 0 {
            attrs.push(("ts", ts_s.as_str()));
        }
        w.open_with_attrs("post", &attrs);
        w.text_element("title", &post.title);
        w.text_element("text", &post.text);
        if !post.links_to.is_empty() {
            w.open("links");
            for l in &post.links_to {
                w.leaf_with_attrs("link", &[("ref", &l.index().to_string())]);
            }
            w.close();
        }
        if !post.comments.is_empty() {
            w.open("comments");
            for c in &post.comments {
                let commenter = c.commenter.index().to_string();
                let mut cattrs = vec![("commenter", commenter.as_str())];
                if let Some(s) = c.sentiment {
                    cattrs.push(("sentiment", s.as_str()));
                }
                let cts_s = c.ts.to_string();
                if c.ts != 0 {
                    cattrs.push(("ts", cts_s.as_str()));
                }
                w.text_element_with_attrs("comment", &cattrs, &c.text);
            }
            w.close();
        }
        w.close();
    }
    w.close();

    w.close();
    w.finish()
}

/// A start tag, as the loader sees it.
struct Tag<'a> {
    name: &'a str,
    attributes: Vec<(&'a str, Cow<'a, str>)>,
    self_closing: bool,
}

impl Tag<'_> {
    /// The first attribute with this name.
    fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_ref())
    }

    fn require_attr(&self, name: &str) -> Result<&str> {
        self.attr(name)
            .ok_or_else(|| Error::schema(format!("<{}> missing attribute {name:?}", self.name)))
    }

    fn require_usize(&self, name: &str) -> Result<usize> {
        let raw = self.require_attr(name)?;
        raw.parse().map_err(|_| {
            Error::schema(format!(
                "<{}> attribute {name:?} is not an integer: {raw:?}",
                self.name
            ))
        })
    }
}

/// Calls `child` for each child element of the element whose start tag was
/// just read, up to its end tag. `child` must consume the child's content,
/// by reading it or passing it to [`skip`]. Text between children is
/// ignored.
fn for_each_child<'a>(
    p: &mut Parser<'a>,
    self_closing: bool,
    mut child: impl FnMut(&mut Parser<'a>, Tag<'a>) -> Result<()>,
) -> Result<()> {
    if self_closing {
        return Ok(());
    }
    loop {
        match p.next_event()? {
            Event::Start {
                name,
                attributes,
                self_closing,
            } => child(
                p,
                Tag {
                    name,
                    attributes,
                    self_closing,
                },
            )?,
            Event::Text(_) => {}
            Event::End { .. } => return Ok(()),
            Event::Eof => unreachable!("parser reports unclosed elements as errors"),
        }
    }
}

/// Consumes the content of an element the schema does not read. The parser
/// still checks it for well-formedness.
fn skip(p: &mut Parser<'_>, self_closing: bool) -> Result<()> {
    let mut depth = usize::from(!self_closing);
    while depth > 0 {
        match p.next_event()? {
            Event::Start {
                self_closing: false,
                ..
            } => depth += 1,
            Event::End { .. } => depth -= 1,
            Event::Start { .. } | Event::Text(_) => {}
            Event::Eof => unreachable!("parser reports unclosed elements as errors"),
        }
    }
    Ok(())
}

/// The element's text: its direct text and CDATA children, concatenated.
/// Text inside child elements is not part of it.
fn read_text(p: &mut Parser<'_>, self_closing: bool) -> Result<String> {
    let mut out = String::new();
    if self_closing {
        return Ok(out);
    }
    loop {
        match p.next_event()? {
            Event::Text(t) if out.is_empty() => out = t.into_owned(),
            Event::Text(t) => out.push_str(&t),
            Event::Start { self_closing, .. } => skip(p, self_closing)?,
            Event::End { .. } => return Ok(out),
            Event::Eof => unreachable!("parser reports unclosed elements as errors"),
        }
    }
}

fn read_domains(p: &mut Parser<'_>, tag: &Tag<'_>) -> Result<DomainSet> {
    // Collect (id, name) and insert in id order so indices survive.
    let mut entries: Vec<(usize, String)> = Vec::new();
    for_each_child(p, tag.self_closing, |p, d| {
        if d.name == "domain" {
            entries.push((d.require_usize("id")?, d.require_attr("name")?.to_string()));
        }
        skip(p, d.self_closing)
    })?;
    entries.sort_by_key(|(id, _)| *id);
    let mut domains = DomainSet::new(Vec::<String>::new());
    for (expect, (id, name)) in entries.into_iter().enumerate() {
        if id != expect {
            return Err(Error::schema(format!(
                "domain ids must be dense; expected {expect}, found {id}"
            )));
        }
        domains.insert(name);
    }
    Ok(domains)
}

fn read_bloggers(p: &mut Parser<'_>, tag: &Tag<'_>) -> Result<Vec<Blogger>> {
    let mut bloggers: Vec<Blogger> = Vec::new();
    for_each_child(p, tag.self_closing, |p, b| {
        if b.name != "blogger" {
            return skip(p, b.self_closing);
        }
        let expect = bloggers.len();
        let id = b.require_usize("id")?;
        if id != expect {
            return Err(Error::schema(format!(
                "blogger ids must be dense; expected {expect}, found {id}"
            )));
        }
        let mut blogger = Blogger::new(b.require_attr("name")?);
        let (mut profile, mut friends) = (false, false);
        for_each_child(p, b.self_closing, |p, c| match c.name {
            "profile" if !profile => {
                profile = true;
                blogger.profile = read_text(p, c.self_closing)?;
                Ok(())
            }
            "friends" if !friends => {
                friends = true;
                for_each_child(p, c.self_closing, |p, f| {
                    if f.name == "friend" {
                        blogger
                            .friends
                            .push(BloggerId::new(f.require_usize("ref")?));
                    }
                    skip(p, f.self_closing)
                })
            }
            _ => skip(p, c.self_closing),
        })?;
        bloggers.push(blogger);
        Ok(())
    })?;
    Ok(bloggers)
}

fn read_posts(p: &mut Parser<'_>, tag: &Tag<'_>) -> Result<Vec<Post>> {
    let mut posts: Vec<Post> = Vec::new();
    for_each_child(p, tag.self_closing, |p, el| {
        if el.name != "post" {
            return skip(p, el.self_closing);
        }
        let expect = posts.len();
        let id = el.require_usize("id")?;
        if id != expect {
            return Err(Error::schema(format!(
                "post ids must be dense; expected {expect}, found {id}"
            )));
        }
        let mut post = Post::new(
            BloggerId::new(el.require_usize("author")?),
            String::new(),
            String::new(),
        );
        if let Some(d) = el.attr("domain") {
            let idx: usize = d
                .parse()
                .map_err(|_| Error::schema(format!("post {id} has non-integer domain {d:?}")))?;
            post.true_domain = Some(DomainId::new(idx));
        }
        if let Some(t) = el.attr("ts") {
            post.ts = t
                .parse()
                .map_err(|_| Error::schema(format!("post {id} has non-integer ts {t:?}")))?;
        }
        let (mut title, mut text, mut links, mut comments) = (false, false, false, false);
        for_each_child(p, el.self_closing, |p, c| match c.name {
            "title" if !title => {
                title = true;
                post.title = read_text(p, c.self_closing)?;
                Ok(())
            }
            "text" if !text => {
                text = true;
                post.text = read_text(p, c.self_closing)?;
                Ok(())
            }
            "links" if !links => {
                links = true;
                for_each_child(p, c.self_closing, |p, l| {
                    if l.name == "link" {
                        post.links_to.push(PostId::new(l.require_usize("ref")?));
                    }
                    skip(p, l.self_closing)
                })
            }
            "comments" if !comments => {
                comments = true;
                for_each_child(p, c.self_closing, |p, cm| {
                    if cm.name != "comment" {
                        return skip(p, cm.self_closing);
                    }
                    let commenter = BloggerId::new(cm.require_usize("commenter")?);
                    let sentiment = match cm.attr("sentiment") {
                        Some(s) => Some(Sentiment::parse(s).ok_or_else(|| {
                            Error::schema(format!("unknown sentiment {s:?} on post {id}"))
                        })?),
                        None => None,
                    };
                    let ts = match cm.attr("ts") {
                        Some(t) => t.parse().map_err(|_| {
                            Error::schema(format!("comment on post {id} has non-integer ts {t:?}"))
                        })?,
                        None => 0,
                    };
                    post.comments.push(Comment {
                        commenter,
                        text: read_text(p, cm.self_closing)?,
                        sentiment,
                        ts,
                    });
                    Ok(())
                })
            }
            _ => skip(p, c.self_closing),
        })?;
        posts.push(post);
        Ok(())
    })?;
    Ok(posts)
}

/// Parses a dataset from an XML string and validates it.
///
/// The parser's events are read straight into the dataset; no DOM is
/// built. Of the root's children, the first `<domains>`, `<bloggers>` and
/// `<posts>` are read, in any order; so are the first `<profile>`,
/// `<friends>`, `<title>`, `<text>`, `<links>` and `<comments>` of each
/// blogger or post. Other elements and attributes are skipped, but still
/// checked for well-formedness. A document with several defects reports
/// the first one in document order.
pub fn from_xml_str(xml: &str) -> Result<Dataset> {
    let mut p = Parser::new(xml);
    let root = match p.next_event()? {
        Event::Start {
            name,
            attributes,
            self_closing,
        } => Tag {
            name,
            attributes,
            self_closing,
        },
        Event::Text(_) => return Err(Error::schema("document has text before the root element")),
        Event::Eof => return Err(Error::schema("document has no root element")),
        Event::End { .. } => unreachable!("parser rejects dangling end tags"),
    };
    if root.name != "blogosphere" {
        return Err(Error::schema(format!(
            "expected <blogosphere>, found <{}>",
            root.name
        )));
    }
    let (mut domains, mut bloggers, mut posts) = (None, None, None);
    for_each_child(&mut p, root.self_closing, |p, section| {
        match section.name {
            "domains" if domains.is_none() => domains = Some(read_domains(p, &section)?),
            "bloggers" if bloggers.is_none() => bloggers = Some(read_bloggers(p, &section)?),
            "posts" if posts.is_none() => posts = Some(read_posts(p, &section)?),
            _ => skip(p, section.self_closing)?,
        }
        Ok(())
    })?;
    if p.next_event()? != Event::Eof {
        return Err(Error::schema("content after the root element"));
    }

    let ds = Dataset {
        bloggers: bloggers.unwrap_or_default(),
        posts: posts.unwrap_or_default(),
        domains: domains.unwrap_or_else(|| DomainSet::new(Vec::<String>::new())),
    };
    ds.validate()?;
    Ok(ds)
}

/// Saves a dataset to a file.
pub fn save(ds: &Dataset, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, to_xml_string(ds))?;
    Ok(())
}

/// Loads and validates a dataset from a file.
///
/// Records the `xml.load` span: `bytes` when it opens, and the `bloggers`,
/// `posts` and `comments` loaded when it closes.
pub fn load(path: impl AsRef<Path>) -> Result<Dataset> {
    let xml = std::fs::read_to_string(path)?;
    let mut span = mass_obs::span_with("xml.load", vec![field("bytes", xml.len())]);
    let ds = from_xml_str(&xml)?;
    let comments: usize = ds.posts.iter().map(|p| p.comments.len()).sum();
    span.record(field("bloggers", ds.bloggers.len()));
    span.record(field("posts", ds.posts.len()));
    span.record(field("comments", comments));
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mass_types::DatasetBuilder;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        let amery = b.blogger_with_profile("Amery", "CS & economics blogger");
        let bob = b.blogger("Bob");
        let cary = b.blogger("Cary <the critic>");
        let p1 = b.post_in_domain(
            amery,
            "Post1",
            "programming \"skills\" & tips",
            DomainId::new(1),
        );
        let p2 = b.post(amery, "Post2", "economic depression trends");
        let p3 = b.post(bob, "Post3", "more computer science");
        b.comment(p1, bob, "I agree & support this", Some(Sentiment::Positive));
        b.comment(p1, cary, "not sure", None);
        b.comment(p2, cary, "disagree strongly", Some(Sentiment::Negative));
        b.link_posts(p3, p1);
        b.friend(bob, amery);
        b.friend(cary, amery);
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = sample();
        let xml = to_xml_string(&ds);
        let back = from_xml_str(&xml).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn output_is_well_formed_and_escaped() {
        let xml = to_xml_string(&sample());
        assert!(xml.starts_with("<?xml"));
        assert!(xml.contains("Cary &lt;the critic&gt;"));
        assert!(xml.contains("&quot;skills&quot; &amp; tips"));
        assert!(!xml.contains("<the critic>"));
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = DatasetBuilder::new().build().unwrap();
        let back = from_xml_str(&to_xml_string(&ds)).unwrap();
        assert_eq!(ds, back);
        assert_eq!(back.domains.len(), 10);
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(matches!(
            from_xml_str("<nope/>").unwrap_err(),
            Error::Schema(_)
        ));
    }

    #[test]
    fn non_dense_ids_rejected() {
        let xml = r#"<blogosphere><bloggers>
            <blogger id="1" name="x"/>
        </bloggers></blogosphere>"#;
        let err = from_xml_str(xml).unwrap_err();
        assert!(err.to_string().contains("dense"));
    }

    #[test]
    fn unknown_sentiment_rejected() {
        let xml = r#"<blogosphere>
          <bloggers><blogger id="0" name="a"/><blogger id="1" name="b"/></bloggers>
          <posts><post id="0" author="0"><title>t</title><text>x</text>
            <comments><comment commenter="1" sentiment="angry">g</comment></comments>
          </post></posts></blogosphere>"#;
        let err = from_xml_str(xml).unwrap_err();
        assert!(err.to_string().contains("unknown sentiment"));
    }

    #[test]
    fn invalid_references_fail_validation() {
        let xml = r#"<blogosphere>
          <bloggers><blogger id="0" name="a"/></bloggers>
          <posts><post id="0" author="5"><title>t</title><text>x</text></post></posts>
        </blogosphere>"#;
        assert!(matches!(
            from_xml_str(xml).unwrap_err(),
            Error::Validation(_)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mass_xml_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.xml");
        let ds = sample();
        save(&ds, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(ds, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load("/nonexistent/mass.xml").unwrap_err(),
            Error::Io(_)
        ));
    }

    #[test]
    fn timestamps_roundtrip_and_timeless_files_stay_unchanged() {
        let mut ds = sample();
        let timeless_xml = to_xml_string(&ds);
        assert!(
            !timeless_xml.contains("ts="),
            "tick-0 corpora must not grow ts attributes"
        );
        ds.posts[0].ts = 17;
        ds.posts[0].comments[0].ts = 19;
        let xml = to_xml_string(&ds);
        assert!(xml.contains("ts=\"17\""));
        assert!(xml.contains("ts=\"19\""));
        let back = from_xml_str(&xml).unwrap();
        assert_eq!(ds, back);
        assert_eq!(back.posts[0].ts, 17);
        assert_eq!(back.posts[0].comments[0].ts, 19);
        assert_eq!(back.posts[0].comments[1].ts, 0);
        assert_eq!(back.posts[1].ts, 0);
    }

    #[test]
    fn non_integer_ts_rejected() {
        let xml = r#"<blogosphere>
          <bloggers><blogger id="0" name="a"/></bloggers>
          <posts><post id="0" author="0" ts="soon"><title>t</title><text>x</text></post></posts>
        </blogosphere>"#;
        let err = from_xml_str(xml).unwrap_err();
        assert!(err.to_string().contains("non-integer ts"));
    }

    #[test]
    fn untagged_comment_sentiment_stays_none() {
        let ds = sample();
        let back = from_xml_str(&to_xml_string(&ds)).unwrap();
        assert_eq!(back.posts[0].comments[1].sentiment, None);
        assert_eq!(
            back.posts[0].comments[0].sentiment,
            Some(Sentiment::Positive)
        );
    }
}
