//! Differential tests: the streaming dataset loader against the DOM loader
//! it replaced.
//!
//! `dom_from_xml_str` below is that loader: parse the whole document into
//! an [`Element`] tree, then walk the tree. The streaming
//! [`dataset_io::from_xml_str`] must accept exactly the documents it
//! accepts and build an equal dataset. When a document has several
//! defects the two may report different ones (the streaming loader
//! reports the first in document order), so for rejected documents only
//! the `Err` itself is compared.

use mass_synth::{generate, SynthConfig};
use mass_types::{
    Blogger, BloggerId, Comment, Dataset, DomainId, DomainSet, Post, PostId, Sentiment,
};
use mass_xml::{dataset_io, Element, Error, Result};

/// The DOM loader, as it was before the streaming one replaced it.
fn dom_from_xml_str(xml: &str) -> Result<Dataset> {
    let root = Element::parse(xml)?;
    if root.name != "blogosphere" {
        return Err(schema(format!(
            "expected <blogosphere>, found <{}>",
            root.name
        )));
    }

    let mut domains = DomainSet::new(Vec::<String>::new());
    if let Some(doms) = root.child("domains") {
        let mut entries: Vec<(usize, String)> = Vec::new();
        for d in doms.elements_named("domain") {
            entries.push((d.require_usize("id")?, d.require_attr("name")?.to_string()));
        }
        entries.sort_by_key(|(id, _)| *id);
        for (expect, (id, name)) in entries.into_iter().enumerate() {
            if id != expect {
                return Err(schema(format!(
                    "domain ids must be dense; expected {expect}, found {id}"
                )));
            }
            domains.insert(name);
        }
    }

    let mut bloggers: Vec<Blogger> = Vec::new();
    if let Some(bs) = root.child("bloggers") {
        for (expect, b) in bs.elements_named("blogger").enumerate() {
            let id = b.require_usize("id")?;
            if id != expect {
                return Err(schema(format!(
                    "blogger ids must be dense; expected {expect}, found {id}"
                )));
            }
            let mut blogger = Blogger::new(b.require_attr("name")?);
            if let Some(p) = b.child("profile") {
                blogger.profile = p.text();
            }
            if let Some(fr) = b.child("friends") {
                for f in fr.elements_named("friend") {
                    blogger
                        .friends
                        .push(BloggerId::new(f.require_usize("ref")?));
                }
            }
            bloggers.push(blogger);
        }
    }

    let mut posts: Vec<Post> = Vec::new();
    if let Some(ps) = root.child("posts") {
        for (expect, p) in ps.elements_named("post").enumerate() {
            let id = p.require_usize("id")?;
            if id != expect {
                return Err(schema(format!(
                    "post ids must be dense; expected {expect}, found {id}"
                )));
            }
            let author = BloggerId::new(p.require_usize("author")?);
            let title = p.child("title").map(|t| t.text()).unwrap_or_default();
            let text = p.child("text").map(|t| t.text()).unwrap_or_default();
            let mut post = Post::new(author, title, text);
            if let Some(d) = p.attr("domain") {
                let idx: usize = d
                    .parse()
                    .map_err(|_| schema(format!("post {id} has non-integer domain {d:?}")))?;
                post.true_domain = Some(DomainId::new(idx));
            }
            if let Some(t) = p.attr("ts") {
                post.ts = t
                    .parse()
                    .map_err(|_| schema(format!("post {id} has non-integer ts {t:?}")))?;
            }
            if let Some(links) = p.child("links") {
                for l in links.elements_named("link") {
                    post.links_to.push(PostId::new(l.require_usize("ref")?));
                }
            }
            if let Some(comments) = p.child("comments") {
                for c in comments.elements_named("comment") {
                    let commenter = BloggerId::new(c.require_usize("commenter")?);
                    let sentiment = match c.attr("sentiment") {
                        Some(s) => Some(Sentiment::parse(s).ok_or_else(|| {
                            schema(format!("unknown sentiment {s:?} on post {id}"))
                        })?),
                        None => None,
                    };
                    let ts = match c.attr("ts") {
                        Some(t) => t.parse().map_err(|_| {
                            schema(format!("comment on post {id} has non-integer ts {t:?}"))
                        })?,
                        None => 0,
                    };
                    post.comments.push(Comment {
                        commenter,
                        text: c.text(),
                        sentiment,
                        ts,
                    });
                }
            }
            posts.push(post);
        }
    }

    let ds = Dataset {
        bloggers,
        posts,
        domains,
    };
    ds.validate()?;
    Ok(ds)
}

fn schema(message: String) -> Error {
    Error::Schema(message)
}

/// Both loaders accept `xml` and agree, or both reject it.
fn assert_agree(xml: &str, what: &str) {
    match (dataset_io::from_xml_str(xml), dom_from_xml_str(xml)) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: datasets differ"),
        (Err(_), Err(_)) => {}
        (a, b) => panic!(
            "{what}: streaming gave {:?}, DOM gave {:?}\n{xml}",
            a.map(|_| "Ok"),
            b.map(|_| "Ok")
        ),
    }
}

fn synth_xml(bloggers: usize, seed: u64, time_span: u64) -> String {
    let out = generate(&SynthConfig {
        bloggers,
        seed,
        time_span,
        ..SynthConfig::tiny(seed)
    });
    dataset_io::to_xml_string(&out.dataset)
}

#[test]
fn synth_corpora_load_equal_with_and_without_timestamps() {
    for seed in [1u64, 7, 23] {
        for time_span in [0u64, 1000] {
            let xml = synth_xml(40, seed, time_span);
            assert_eq!(time_span > 0, xml.contains(" ts=\""), "seed {seed}");
            let streamed = dataset_io::from_xml_str(&xml).unwrap();
            assert_eq!(streamed, dom_from_xml_str(&xml).unwrap(), "seed {seed}");
            assert_eq!(dataset_io::to_xml_string(&streamed), xml, "seed {seed}");
        }
    }
}

const EDGE_DOCUMENTS: &[(&str, &str)] = &[
    (
        "duplicate sections: the first of each wins",
        r#"<blogosphere>
          <domains><domain id="0" name="A"/></domains>
          <domains><domain id="5" name="B"/></domains>
          <bloggers><blogger id="0" name="a"/><blogger id="1" name="b"/></bloggers>
          <bloggers><blogger id="9" name="z"/></bloggers>
          <posts><post id="0" author="0" domain="0"><title>first</title><title>second</title>
            <text>one</text><text>two</text>
            <links/><links><link ref="7"/></links>
            <comments><comment commenter="1">c</comment></comments>
            <comments><comment commenter="0">self</comment></comments>
          </post></posts>
          <posts><post id="3" author="0"/></posts>
        </blogosphere>"#,
    ),
    (
        "sections in any order",
        r#"<blogosphere>
          <posts><post id="0" author="1"><text>x</text></post></posts>
          <bloggers><blogger id="0" name="a"><friends><friend ref="1"/></friends>
            <profile>p</profile></blogger><blogger id="1" name="b"/></bloggers>
          <domains><domain id="1" name="B"/><domain id="0" name="A"/></domains>
        </blogosphere>"#,
    ),
    (
        "unknown elements and attributes",
        r#"<?xml version="1.0"?><!-- lead --><blogosphere version="2" x='y'>
          <meta><deep><deeper a="1">text</deeper></deep></meta>
          <bloggers extra="1"><note/><blogger id="0" name="a" mood="ok">
            <avatar src="x"/><profile>hi <b>bold</b> there</profile></blogger>
            <blogger id="1" name="b"><friends><friend ref="0" since="2009"/><enemy ref="0"/>
            </friends></blogger></bloggers>
          <posts><post id="0" author="0" colour="red"><title>t</title><text>body</text>
            <tags><tag>x</tag></tags>
            <comments><comment commenter="1" sentiment="positive" mood="x">ok</comment>
              <reply commenter="0">ignored</reply></comments></post></posts>
          <trailer/>
        </blogosphere><!-- tail -->"#,
    ),
    (
        "CDATA mixed with entities",
        r#"<blogosphere><bloggers><blogger id="0" name="a &amp; b"/></bloggers>
          <posts><post id="0" author="0"><title>x &lt; y<![CDATA[ & <z> ]]>&#65;&#x42;</title>
          <text><![CDATA[]]>a<![CDATA[ b ]]>&unknown;c</text></post></posts></blogosphere>"#,
    ),
    (
        "a self-closing title and empty elements",
        r#"<blogosphere><bloggers><blogger id="0" name="a"><profile/><friends/></blogger>
          </bloggers><posts><post id="0" author="0"><title/><text></text><links/>
          <comments/></post><post id="1" author="0"/></posts></blogosphere>"#,
    ),
    (
        "whitespace-only text",
        "<blogosphere><bloggers><blogger id=\"0\" name=\"a\"><profile>  \n\t </profile>\
         </blogger><blogger id=\"1\" name=\"b\"/></bloggers><posts><post id=\"0\" author=\"0\"><title> </title>\
         <text>  lead <![CDATA[  ]]> tail  </text><comments><comment commenter=\"1\">\
         \n</comment></comments></post></posts></blogosphere>",
    ),
    ("a self-closing root", "<blogosphere/>"),
    ("an empty root", "<blogosphere>\n</blogosphere>"),
    ("the wrong root", "<nope/>"),
    ("no root", "  <!-- nothing -->  "),
    ("text before the root", "oops<blogosphere/>"),
    ("content after the root", "<blogosphere/><extra/>"),
    ("text after the root", "<blogosphere/>tail"),
    (
        "a defect in an ignored section",
        r#"<blogosphere><domains/><domains><domain id="x"/></domains></blogosphere>"#,
    ),
    (
        "a syntax error in an unknown element",
        r#"<blogosphere><meta><a></b></meta></blogosphere>"#,
    ),
    (
        "non-dense domain ids",
        r#"<blogosphere><domains><domain id="1" name="B"/></domains></blogosphere>"#,
    ),
    (
        "a duplicate attribute: the first wins",
        r#"<blogosphere><bloggers><blogger id="0" id="3" name="a" name="b"/></bloggers>
        </blogosphere>"#,
    ),
    (
        "a dangling reference",
        r#"<blogosphere><bloggers><blogger id="0" name="a"/></bloggers>
          <posts><post id="0" author="0"><links><link ref="4"/></links></post></posts>
        </blogosphere>"#,
    ),
    (
        "a bad comment timestamp",
        r#"<blogosphere><bloggers><blogger id="0" name="a"/><blogger id="1" name="b"/>
          </bloggers><posts><post id="0" author="0"><comments>
          <comment commenter="1" ts="-3">x</comment></comments></post></posts></blogosphere>"#,
    ),
];

#[test]
fn hand_written_edge_documents_load_equal() {
    for (what, xml) in EDGE_DOCUMENTS {
        assert_agree(xml, what);
    }
    // Spot-check what the accepted ones hold.
    let ds = dataset_io::from_xml_str(EDGE_DOCUMENTS[0].1).unwrap();
    assert_eq!(ds.domains.len(), 1);
    assert_eq!(ds.bloggers.len(), 2);
    assert_eq!(
        (ds.posts[0].title.as_str(), ds.posts[0].text.as_str()),
        ("first", "one")
    );
    assert!(ds.posts[0].links_to.is_empty());
    assert_eq!(ds.posts[0].comments.len(), 1);
    let ds = dataset_io::from_xml_str(EDGE_DOCUMENTS[2].1).unwrap();
    assert_eq!(ds.bloggers[0].profile, "hi  there");
    assert_eq!(ds.bloggers[1].friends, vec![BloggerId::new(0)]);
    assert_eq!(ds.posts[0].comments.len(), 1);
    let ds = dataset_io::from_xml_str(EDGE_DOCUMENTS[3].1).unwrap();
    assert_eq!(ds.bloggers[0].name, "a & b");
    assert_eq!(ds.posts[0].title, "x < y & <z> AB");
    assert_eq!(ds.posts[0].text, "a b &unknown;c");
    let ds = dataset_io::from_xml_str(EDGE_DOCUMENTS[5].1).unwrap();
    assert_eq!(ds.bloggers[0].profile, "");
    assert_eq!(ds.posts[0].title, "");
    assert_eq!(ds.posts[0].text, "  lead    tail  ");
    assert_eq!(ds.posts[0].comments[0].text, "");
}

/// SplitMix64: a seeded stream for the mutation fuzz.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Fragments worth splicing in: markup that shifts structure, and
/// values that break ids, references and entities.
const SPLICES: &[&str] = &[
    "<",
    ">",
    "/",
    "\"",
    "'",
    "=",
    "&",
    ";",
    "&amp;",
    "&#",
    "<![CDATA[",
    "]]>",
    "<!--",
    "-->",
    "<x/>",
    "</post>",
    "<post id=\"0\" author=\"0\">",
    "<domains>",
    "</domains>",
    "<title>",
    "<comments>",
    " ts=\"9\"",
    " id=\"1\"",
    " ref=\"999\"",
    "-1",
    "\u{e9}",
    "\n",
];

/// One to three random edits: a byte flip, a splice, a deletion or a
/// truncation.
fn mutate(base: &[u8], rng: &mut Rng) -> String {
    let mut bytes = base.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => {
                let splice = SPLICES[rng.below(SPLICES.len())].as_bytes();
                bytes.splice(at..at, splice.iter().copied());
            }
            2 => {
                let end = (at + 1 + rng.below(16)).min(bytes.len());
                bytes.drain(at.min(end)..end);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn fuzz(cases: usize) {
    let bases = [
        synth_xml(6, 3, 0),
        synth_xml(6, 4, 500),
        EDGE_DOCUMENTS[2].1.to_string(),
    ];
    let mut rng = Rng(0x5eed_fa11);
    let mut accepted = 0;
    for case in 0..cases {
        let xml = mutate(bases[case % bases.len()].as_bytes(), &mut rng);
        assert_agree(&xml, &format!("mutation case {case}"));
        accepted += usize::from(dataset_io::from_xml_str(&xml).is_ok());
    }
    // The fuzz must exercise both outcomes to mean anything.
    assert!(accepted > 0 && accepted < cases, "{accepted} of {cases}");
}

#[test]
fn byte_mutations_load_equal_or_fail_on_both_sides() {
    fuzz(500);
}

/// Release-only: `cargo test --release -p mass-xml --test dataset_differential -- --ignored`.
#[test]
#[ignore = "release-only fuzz; run with --ignored"]
fn byte_mutations_load_equal_or_fail_on_both_sides_at_scale() {
    fuzz(20_000);
}

/// A million nested elements must come back as an error, not a stack
/// overflow.
#[test]
fn a_million_nested_elements_are_refused() {
    let depth = 1_000_000;
    let mut doc = String::with_capacity(depth * 7 + 32);
    doc.push_str("<blogosphere>");
    for _ in 0..depth {
        doc.push_str("<d>");
    }
    for _ in 0..depth {
        doc.push_str("</d>");
    }
    doc.push_str("</blogosphere>");
    assert!(matches!(
        dataset_io::from_xml_str(&doc),
        Err(Error::Syntax { .. })
    ));
    // The limit is the parser's: 1 024 open elements load fine.
    let mut ok = String::from("<blogosphere>");
    ok.push_str(&"<d>".repeat(1023));
    ok.push_str(&"</d>".repeat(1023));
    ok.push_str("</blogosphere>");
    assert_eq!(
        dataset_io::from_xml_str(&ok).unwrap(),
        dom_from_xml_str(&ok).unwrap()
    );
}
