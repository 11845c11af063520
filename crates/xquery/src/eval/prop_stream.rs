//! Property tests for sink-mode XQuery evaluation: for arbitrary
//! FLWOR/constructor/predicate nests, streaming the query through a
//! `StreamWriter` is byte-for-byte identical to serializing the
//! materialised evaluation — including forced-spill shapes (predicates
//! over fresh elements, function results) — and an output-byte cap trips
//! mid-stream leaving only a bounded prefix on the wire.

use super::{evaluate_query_to_sink, materialised_output, NodeHandle};
use crate::ast::{AttrValuePart, Clause, OrderSpec, PathStart, XQuery, XqExpr, XqStep};
use proptest::prelude::*;
use xsltdb_xml::{Guard, Limits, QName, StreamWriter};
use xsltdb_xpath::{Axis, NodeTest};

const INPUT_XML: &str = "<r><i>bb</i><i>a</i><i>ccc</i></r>";

fn input() -> NodeHandle {
    NodeHandle::document(xsltdb_xml::parse::parse(INPUT_XML).unwrap())
}

fn child_step(name: &str) -> XqStep {
    XqStep {
        axis: Axis::Child,
        test: NodeTest::Name { prefix: None, local: name.to_string() },
        predicates: Vec::new(),
    }
}

/// `/r/i` — the input-node source every generated query draws from.
fn input_path() -> XqExpr {
    XqExpr::Path {
        start: PathStart::Root,
        steps: vec![child_step("r"), child_step("i")],
    }
}

fn leaf_strategy() -> impl Strategy<Value = XqExpr> {
    prop_oneof![
        // Atomic literals, including characters the serializer escapes.
        "[a-z <&\"]{0,6}".prop_map(XqExpr::StrLit),
        (0u32..50).prop_map(|n| XqExpr::NumLit(n as f64)),
        Just(XqExpr::Empty),
        // Input nodes in emission position: streamed copy-out.
        Just(input_path()),
        // An atomized re-inspection of the input.
        Just(XqExpr::call("fn:count", vec![input_path()])),
    ]
}

fn expr_strategy() -> impl Strategy<Value = XqExpr> {
    leaf_strategy().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            // Comma sequence: atomic space-joining across the flattened run.
            proptest::collection::vec(inner.clone(), 0..3).prop_map(XqExpr::Seq),
            // Direct constructor with an AVT attribute and mixed content.
            ("[a-z]{1,4}", proptest::collection::vec(inner.clone(), 0..3), any::<bool>())
                .prop_map(|(name, content, with_attr)| {
                    let attrs = if with_attr {
                        vec![(
                            QName::local("k"),
                            vec![AttrValuePart::Expr(XqExpr::call(
                                "fn:count",
                                vec![input_path()],
                            ))],
                        )]
                    } else {
                        Vec::new()
                    };
                    XqExpr::DirectElem { name: QName::local(&name), attrs, content }
                }),
            // Computed element.
            ("[a-z]{1,4}", inner.clone()).prop_map(|(name, content)| XqExpr::CompElem {
                name: Box::new(XqExpr::StrLit(name)),
                content: Box::new(content),
            }),
            // Computed text (empty content exercises the empty-sequence rule).
            inner.clone().prop_map(|c| XqExpr::CompText(Box::new(c))),
            // Comment and PI constructors.
            "[a-z ]{0,5}".prop_map(|s| XqExpr::CompComment(Box::new(XqExpr::StrLit(s)))),
            "[a-z ]{0,5}".prop_map(|s| XqExpr::CompPi {
                target: "tgt".to_string(),
                content: Box::new(XqExpr::StrLit(s)),
            }),
            // Conditional: branches inherit emission position.
            (inner.clone(), inner.clone()).prop_map(|(then, els)| XqExpr::If {
                cond: Box::new(input_path()),
                then: Box::new(then),
                els: Box::new(els),
            }),
            // FLWOR over the input, optionally sorted, emitting per tuple.
            (inner.clone(), any::<bool>(), any::<bool>()).prop_map(|(ret, sorted, desc)| {
                XqExpr::Flwor {
                    clauses: vec![Clause::For {
                        var: "v".to_string(),
                        at: None,
                        source: input_path(),
                    }],
                    where_clause: None,
                    order_by: if sorted {
                        vec![OrderSpec { key: XqExpr::var("v"), descending: desc }]
                    } else {
                        Vec::new()
                    },
                    ret: Box::new(XqExpr::Seq(vec![
                        XqExpr::DirectElem {
                            name: QName::local("o"),
                            attrs: Vec::new(),
                            content: vec![XqExpr::var("v")],
                        },
                        ret,
                    ])),
                }
            }),
            // Forced spill: a positional predicate over a fresh element.
            inner.clone().prop_map(|c| XqExpr::Filter {
                base: Box::new(XqExpr::DirectElem {
                    name: QName::local("p"),
                    attrs: Vec::new(),
                    content: vec![c],
                }),
                predicates: vec![XqExpr::NumLit(1.0)],
            }),
        ]
    })
}

/// Materialised reference: evaluate, build the result document, serialize.
fn reference_output(q: &XQuery) -> String {
    materialised_output(q, Some(input())).expect("materialised eval succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Sink-mode output == serialize(materialised eval), byte for byte.
    #[test]
    fn sink_mode_matches_materialised(body in expr_strategy()) {
        let q = XQuery::of(body);
        let reference = reference_output(&q);

        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        evaluate_query_to_sink(&q, Some(input()), Vec::new(), Guard::unlimited(), &mut sw)
            .expect("sink-mode eval succeeds");
        let streamed = String::from_utf8(sw.finish().expect("finish")).unwrap();

        prop_assert_eq!(streamed, reference);
    }

    /// With an output-byte cap below the full result, the stream trips
    /// mid-emission: what reached the wire is a bounded prefix of the
    /// reference output, never more than the cap.
    #[test]
    fn sink_mode_byte_cap_leaves_bounded_prefix(body in expr_strategy()) {
        let q = XQuery::of(body);
        let reference = reference_output(&q);
        if reference.len() <= 1 {
            // Nothing to cap; the identity property already covers it.
            return;
        }

        let cap = (reference.len() / 2) as u64;
        let guard = Guard::new(Limits::UNLIMITED.with_max_output_bytes(cap));
        // Stream into a borrowed buffer so the bytes survive the failure.
        let mut buf: Vec<u8> = Vec::new();
        let outcome = {
            let mut sw = StreamWriter::new(&mut buf, guard.clone());
            match evaluate_query_to_sink(&q, Some(input()), Vec::new(), guard.clone(), &mut sw) {
                Ok(_) => sw.finish().map(|_| ()).map_err(|e| e.to_string()),
                Err(e) => Err(e.0),
            }
        };

        match outcome {
            Ok(()) => {
                // The cap is strictly below the reference length, so total
                // charged bytes must exceed it: success is unreachable
                // unless the outputs diverged.
                prop_assert_eq!(String::from_utf8(buf).unwrap(), reference);
            }
            Err(msg) => {
                prop_assert!(
                    guard.trip().is_some(),
                    "failed without a recorded guard trip: {}", msg
                );
                prop_assert!(buf.len() as u64 <= cap, "bytes on the wire exceed the cap");
                prop_assert!(
                    reference.as_bytes().starts_with(&buf),
                    "streamed bytes are not a prefix of the reference"
                );
            }
        }
    }
}
