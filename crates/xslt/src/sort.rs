//! `<xsl:sort>` evaluation.

use crate::ast::SortKey;
use crate::error::XsltError;
use std::cmp::Ordering;
use xsltdb_xml::NodeId;
use xsltdb_xpath::functions::number_order;

/// One evaluated sort key value.
#[derive(Debug, Clone)]
enum KeyVal {
    Num(f64),
    Str(String),
}

impl KeyVal {
    fn cmp_key(&self, other: &KeyVal) -> Ordering {
        match (self, other) {
            (KeyVal::Num(a), KeyVal::Num(b)) => number_order(*a, *b),
            (KeyVal::Str(a), KeyVal::Str(b)) => a.cmp(b),
            _ => Ordering::Equal,
        }
    }
}

/// Sort `nodes` by `keys`, where `eval_key` evaluates one key expression in
/// the context of one node (position/size per the pre-sort order).
pub fn sort_nodes(
    nodes: &mut Vec<NodeId>,
    keys: &[SortKey],
    mut eval_key: impl FnMut(&SortKey, NodeId, usize, usize) -> Result<String, XsltError>,
) -> Result<(), XsltError> {
    if keys.is_empty() {
        return Ok(());
    }
    let size = nodes.len();
    let mut decorated: Vec<(Vec<KeyVal>, NodeId)> = Vec::with_capacity(nodes.len());
    for (i, &n) in nodes.iter().enumerate() {
        let mut kvs = Vec::with_capacity(keys.len());
        for k in keys {
            let s = eval_key(k, n, i + 1, size)?;
            kvs.push(if k.data_type_number {
                KeyVal::Num(xsltdb_xpath::value::str_to_num(&s))
            } else {
                KeyVal::Str(s)
            });
        }
        kvs.shrink_to_fit();
        decorated.push((kvs, n));
    }
    decorated.sort_by(|(ka, _), (kb, _)| {
        for (i, k) in keys.iter().enumerate() {
            let mut ord = ka[i].cmp_key(&kb[i]);
            if k.descending {
                ord = ord.reverse();
            }
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal // stable sort preserves document order for ties
    });
    *nodes = decorated.into_iter().map(|(_, n)| n).collect();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_xpath::parse_expr;

    fn key(numeric: bool, descending: bool) -> SortKey {
        SortKey {
            select: parse_expr(".").unwrap(),
            data_type_number: numeric,
            descending,
        }
    }

    #[test]
    fn text_ascending() {
        let mut nodes = vec![NodeId(1), NodeId(2), NodeId(3)];
        let names = ["banana", "apple", "cherry"];
        sort_nodes(&mut nodes, &[key(false, false)], |_, n, _, _| {
            Ok(names[n.0 as usize - 1].to_string())
        })
        .unwrap();
        assert_eq!(nodes, vec![NodeId(2), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn numeric_descending() {
        let mut nodes = vec![NodeId(1), NodeId(2), NodeId(3)];
        let vals = ["10", "9", "100"];
        sort_nodes(&mut nodes, &[key(true, true)], |_, n, _, _| {
            Ok(vals[n.0 as usize - 1].to_string())
        })
        .unwrap();
        assert_eq!(nodes, vec![NodeId(3), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn numeric_vs_text_ordering_differs() {
        let mut a = vec![NodeId(1), NodeId(2)];
        let vals = ["10", "9"];
        sort_nodes(&mut a, &[key(false, false)], |_, n, _, _| {
            Ok(vals[n.0 as usize - 1].to_string())
        })
        .unwrap();
        // Text order: "10" < "9".
        assert_eq!(a, vec![NodeId(1), NodeId(2)]);
        let mut b = vec![NodeId(1), NodeId(2)];
        sort_nodes(&mut b, &[key(true, false)], |_, n, _, _| {
            Ok(vals[n.0 as usize - 1].to_string())
        })
        .unwrap();
        assert_eq!(b, vec![NodeId(2), NodeId(1)]);
    }

    #[test]
    fn multiple_keys_with_tie() {
        let mut nodes = vec![NodeId(1), NodeId(2), NodeId(3)];
        let primary = ["a", "a", "b"];
        let secondary = ["2", "1", "0"];
        let keys = [key(false, false), key(true, false)];
        sort_nodes(&mut nodes, &keys, |k, n, _, _| {
            let i = n.0 as usize - 1;
            Ok(if k.data_type_number { secondary[i] } else { primary[i] }.to_string())
        })
        .unwrap();
        assert_eq!(nodes, vec![NodeId(2), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn nan_sorts_first() {
        let mut nodes = vec![NodeId(1), NodeId(2)];
        let vals = ["5", "oops"];
        sort_nodes(&mut nodes, &[key(true, false)], |_, n, _, _| {
            Ok(vals[n.0 as usize - 1].to_string())
        })
        .unwrap();
        assert_eq!(nodes, vec![NodeId(2), NodeId(1)]);
    }

    #[test]
    fn empty_keys_is_noop() {
        let mut nodes = vec![NodeId(3), NodeId(1)];
        sort_nodes(&mut nodes, &[], |_, _, _, _| unreachable!()).unwrap();
        assert_eq!(nodes, vec![NodeId(3), NodeId(1)]);
    }
}
