//! `<xsl:sort>` evaluation.

use crate::ast::SortKey;
use crate::error::XsltError;
use xsltdb_xml::NodeId;
use xsltdb_xpath::value::{sort_rows, str_to_num, SortValue};

/// Sort `nodes` by `keys`, where `eval_key` evaluates one key expression in
/// the context of one node (position/size per the pre-sort order). Ties
/// keep document order.
pub fn sort_nodes(
    nodes: &mut Vec<NodeId>,
    keys: &[SortKey],
    mut eval_key: impl FnMut(&SortKey, NodeId, usize, usize) -> Result<String, XsltError>,
) -> Result<(), XsltError> {
    if keys.is_empty() {
        return Ok(());
    }
    let size = nodes.len();
    let mut decorated = Vec::with_capacity(size);
    for (i, &n) in nodes.iter().enumerate() {
        let mut vals = Vec::with_capacity(keys.len());
        for k in keys {
            let s = eval_key(k, n, i + 1, size)?;
            vals.push(if k.data_type_number {
                SortValue::Num(str_to_num(&s))
            } else {
                SortValue::Str(s)
            });
        }
        decorated.push((vals, n));
    }
    let descending: Vec<bool> = keys.iter().map(|k| k.descending).collect();
    *nodes = sort_rows(decorated, &descending);
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
