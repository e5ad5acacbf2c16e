//! Pretty-printing serializer for XML trees.
//!
//! Output convention matches the paper's figures: two-space indentation,
//! attributes on one line, leaf elements whose only child is a single text
//! node are written inline (`<Value>16</Value>`).

use crate::node::{Element, Node};

/// Serializes a whole document (XML declaration + root element).
pub fn to_string_pretty(root: &Element) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    write_element(root, 0, &mut out);
    out.push('\n');
    out
}

/// Serializes a single element (no declaration), e.g. for embedding.
pub fn element_to_string(root: &Element) -> String {
    let mut out = String::new();
    write_element(root, 0, &mut out);
    out
}

fn write_element(el: &Element, depth: usize, out: &mut String) {
    indent(depth, out);
    out.push('<');
    out.push_str(&el.name);
    for (k, v) in &el.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape_attr(v, out);
        out.push('"');
    }

    if el.children.is_empty() {
        out.push_str("/>");
        return;
    }

    // Inline form for a single text child.
    if el.children.len() == 1 {
        if let Node::Text(t) = &el.children[0] {
            out.push('>');
            escape_text(t, out);
            out.push_str("</");
            out.push_str(&el.name);
            out.push('>');
            return;
        }
    }

    out.push('>');
    for child in &el.children {
        out.push('\n');
        match child {
            Node::Element(c) => write_element(c, depth + 1, out),
            Node::Text(t) => {
                indent(depth + 1, out);
                escape_text(t.trim(), out);
            }
            Node::Comment(c) => {
                indent(depth + 1, out);
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
        }
    }
    out.push('\n');
    indent(depth, out);
    out.push_str("</");
    out.push_str(&el.name);
    out.push('>');
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    #[test]
    fn leaf_elements_are_inline() {
        let el = Element::new("Value").with_text("4294967295");
        assert_eq!(element_to_string(&el), "<Value>4294967295</Value>");
    }

    #[test]
    fn empty_elements_self_close() {
        let el = Element::new("Parameter").with_attr("Name", "p");
        assert_eq!(element_to_string(&el), "<Parameter Name=\"p\"/>");
    }

    #[test]
    fn nested_pretty_output() {
        let el = Element::new("TestValues")
            .with_child(Element::new("Value").with_text("0"))
            .with_child(Element::new("Value").with_text("1"));
        let s = element_to_string(&el);
        assert_eq!(s, "<TestValues>\n  <Value>0</Value>\n  <Value>1</Value>\n</TestValues>");
    }

    #[test]
    fn escaping_round_trips() {
        let el = Element::new("V").with_attr("a", "x\"<&>'y").with_text("a<b&c>d");
        let s = to_string_pretty(&el);
        let back = parse_document(&s).unwrap();
        assert_eq!(back.attr("a"), Some("x\"<&>'y"));
        assert_eq!(back.text(), "a<b&c>d");
    }

    #[test]
    fn document_round_trip_structural() {
        let src = r#"<Function Name="XM_set_timer" ReturnType="xm_s32_t" IsPointer="NO">
  <ParametersList>
    <Parameter Name="clockId" Type="xm_u32_t" IsPointer="NO"/>
    <Parameter Name="absTime" Type="xmTime_t" IsPointer="NO"/>
    <Parameter Name="interval" Type="xmTime_t" IsPointer="NO"/>
  </ParametersList>
</Function>"#;
        let tree = parse_document(src).unwrap();
        let printed = to_string_pretty(&tree);
        let reparsed = parse_document(&printed).unwrap();
        assert_eq!(tree, reparsed);
    }

    #[test]
    fn comments_preserved() {
        let tree = parse_document("<a><!-- keep me --><b/></a>").unwrap();
        let printed = to_string_pretty(&tree);
        assert!(printed.contains("<!-- keep me -->"), "{printed}");
        assert_eq!(parse_document(&printed).unwrap(), tree);
    }
}
