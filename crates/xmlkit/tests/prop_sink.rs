//! Property test: for arbitrary well-nested event sequences cut into rows,
//! `StreamWriter` output is byte-for-byte identical to the concatenated
//! serialization of the documents a row-sealing `TreeSink` builds — the
//! invariant that makes streaming emission a drop-in replacement for
//! materialise-then-serialize.

use proptest::prelude::*;
use xsltdb_xml::{to_string, Guard, QName, SinkError, StreamWriter, TreeSink, XmlSink};

/// One XML construction event tree, replayed identically into both sinks.
#[derive(Debug, Clone)]
enum Ev {
    Element { name: String, attrs: Vec<(String, String)>, children: Vec<Ev> },
    Text(String),
    Comment(String),
    Pi(String, String),
}

/// One result row: complete event trees, then elements opened (each with
/// some content) and left open for the row boundary to close.
#[derive(Debug, Clone)]
struct Row {
    events: Vec<Ev>,
    left_open: Vec<(String, Ev)>,
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}"
}

/// Text including every escaping edge case: the five specials, CR/LF/TAB,
/// quotes, and the empty string (which must not flush a pending tag).
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\r\n\t]{0,12}").expect("valid regex")
}

/// Comment/PI content: no `--` / `?>` validity concerns at the sink level,
/// but keep to benign characters so the serializer comparison is the only
/// thing under test.
fn markup_text_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9 ]{0,8}").expect("valid regex")
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    let leaf = prop_oneof![
        text_strategy().prop_map(Ev::Text),
        markup_text_strategy().prop_map(Ev::Comment),
        (name_strategy(), markup_text_strategy()).prop_map(|(t, d)| Ev::Pi(t, d)),
        (name_strategy(), proptest::collection::vec((name_strategy(), text_strategy()), 0..3))
            .prop_map(|(name, attrs)| Ev::Element { name, attrs, children: vec![] }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| Ev::Element { name, attrs, children })
    })
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        proptest::collection::vec(ev_strategy(), 0..3),
        proptest::collection::vec((name_strategy(), ev_strategy()), 0..3),
    )
        .prop_map(|(events, left_open)| Row { events, left_open })
}

/// Replay an event tree into any sink. Duplicate attribute names are kept
/// deliberately: both sinks must agree on last-write-wins placement.
fn replay(ev: &Ev, sink: &mut dyn XmlSink) -> Result<(), SinkError> {
    match ev {
        Ev::Text(t) => sink.text(t),
        Ev::Comment(c) => sink.comment(c),
        Ev::Pi(t, d) => sink.pi(t, d),
        Ev::Element { name, attrs, children } => {
            sink.start_element(QName::local(name))?;
            for (n, v) in attrs {
                sink.attribute(QName::local(n), v)?;
            }
            for c in children {
                replay(c, sink)?;
            }
            sink.end_element()
        }
    }
}

/// Replay a row and mark its end.
fn replay_row(row: &Row, sink: &mut dyn XmlSink) -> Result<(), SinkError> {
    for ev in &row.events {
        replay(ev, sink)?;
    }
    for (name, inner) in &row.left_open {
        sink.start_element(QName::local(name))?;
        replay(inner, sink)?;
    }
    sink.end_row()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stream_writer_matches_tree_serialization(rows in proptest::collection::vec(row_strategy(), 0..4)) {
        let mut tree = TreeSink::new(Guard::unlimited());
        for row in &rows {
            replay_row(row, &mut tree).expect("tree sink accepts well-nested rows");
        }
        let docs = tree.into_documents();
        prop_assert_eq!(docs.len(), rows.len(), "one sealed document per row");
        let via_tree: String = docs.iter().map(to_string).collect();

        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        for row in &rows {
            replay_row(row, &mut sw).expect("stream writer accepts well-nested rows");
        }
        prop_assert_eq!(sw.depth(), 0, "every row boundary closes what its row left open");
        let bytes = sw.finish().expect("finish succeeds");
        let streamed = String::from_utf8(bytes).expect("output is UTF-8");

        prop_assert_eq!(streamed, via_tree);
    }

    #[test]
    fn stream_writer_finish_matches_lenient_tree(
        name in name_strategy(),
        inner in ev_strategy(),
    ) {
        // Leave an element open with no row boundary; finish() must agree
        // with the tree sink's lenient close of the unsealed row.
        let mut tree = TreeSink::new(Guard::unlimited());
        tree.start_element(QName::local(&name)).unwrap();
        replay(&inner, &mut tree).unwrap();
        let via_tree: String = tree.into_documents().iter().map(to_string).collect();

        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        sw.start_element(QName::local(&name)).unwrap();
        replay(&inner, &mut sw).unwrap();
        let streamed = String::from_utf8(sw.finish().unwrap()).unwrap();

        prop_assert_eq!(streamed, via_tree);
    }
}
