//! XML document tree: elements, text and comments.

/// A node in an XML tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data. Entity references are already resolved; surrounding
    /// whitespace is preserved by the parser and trimmed only by accessors
    /// that ask for it.
    Text(String),
    /// A `<!-- ... -->` comment (kept so spec files can round-trip).
    Comment(String),
}

impl Node {
    /// Returns the element if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Returns the text content if this node is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// An XML element: name, ordered attributes, ordered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name (no namespace handling — the spec files use none).
    pub name: String,
    /// Attributes in document order. Duplicate names are rejected by the
    /// parser, so lookup by name is unambiguous.
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Builder-style attribute addition.
    pub fn with_attr(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.attrs.push((k.into(), v.into()));
        self
    }

    /// Builder-style child addition.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style text child addition.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Iterates over child elements (skipping text and comments).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Returns the first child element with the given tag name.
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Returns every child element with the given tag name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Concatenated, whitespace-trimmed text content of direct children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            if let Node::Text(t) = c {
                out.push_str(t);
            }
        }
        out.trim().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("Function")
            .with_attr("Name", "XM_reset_partition")
            .with_attr("ReturnType", "xm_s32_t")
            .with_child(
                Element::new("ParametersList")
                    .with_child(Element::new("Parameter").with_attr("Name", "partitionId")),
            )
            .with_text("  trailing  ")
    }

    #[test]
    fn attr_lookup() {
        let e = sample();
        assert_eq!(e.attr("Name"), Some("XM_reset_partition"));
        assert_eq!(e.attr("ReturnType"), Some("xm_s32_t"));
        assert_eq!(e.attr("Missing"), None);
    }

    #[test]
    fn find_child() {
        let e = sample();
        let pl = e.find("ParametersList").expect("child present");
        assert_eq!(pl.find_all("Parameter").count(), 1);
        assert!(e.find("Nope").is_none());
    }

    #[test]
    fn text_is_trimmed_concat() {
        let e = sample();
        assert_eq!(e.text(), "trailing");
        let multi = Element::new("V").with_text("  a").with_text("b  ");
        assert_eq!(multi.text(), "ab");
    }

    #[test]
    fn node_accessors() {
        let el = Node::Element(Element::new("x"));
        let tx = Node::Text("hello".into());
        let cm = Node::Comment("c".into());
        assert!(el.as_element().is_some());
        assert!(el.as_text().is_none());
        assert_eq!(tx.as_text(), Some("hello"));
        assert!(tx.as_element().is_none());
        assert!(cm.as_element().is_none() && cm.as_text().is_none());
    }

    #[test]
    fn child_elements_skips_text_and_comments() {
        let e = Element::new("root")
            .with_text("t")
            .with_child(Element::new("a"))
            .with_child(Element::new("b"));
        assert_eq!(e.child_elements().count(), 2);
    }
}
