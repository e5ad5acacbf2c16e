//! Recursive-descent parser for the XML subset used by the spec files.
//!
//! Supported syntax: one root element, nested elements with attributes
//! (single- or double-quoted), text content with the five predefined
//! entities (`&lt; &gt; &amp; &apos; &quot;`) and decimal/hex character
//! references, comments, and an optional leading `<?xml ...?>` declaration.
//! DOCTYPE, CDATA, processing instructions and namespaces are rejected —
//! the toolset's spec files never use them, and silence would be riskier
//! than an error.

use crate::error::ParseError;
use crate::node::{Element, Node};

/// Parses a complete XML document, returning its root element.
///
/// ```
/// let root = specxml::parse_document(
///     r#"<DataType Name="xm_u32_t"><BasicType>unsigned int</BasicType></DataType>"#,
/// ).unwrap();
/// assert_eq!(root.name, "DataType");
/// assert_eq!(root.attr("Name"), Some("xm_u32_t"));
/// assert_eq!(root.find("BasicType").unwrap().text(), "unsigned int");
/// ```
pub fn parse_document(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser::new(input);
    p.skip_bom();
    p.skip_misc()?;
    p.maybe_decl()?;
    p.skip_misc()?;
    let root = p.element()?;
    p.skip_misc()?;
    if !p.at_end() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { bytes: input.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.col, msg)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        match self.bump() {
            Some(b) if b == expected => Ok(()),
            Some(b) => {
                Err(self.err(format!("expected '{}', found '{}'", expected as char, b as char)))
            }
            None => Err(self.err(format!("expected '{}', found end of input", expected as char))),
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn eat_str(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}'")))
        }
    }

    fn skip_bom(&mut self) {
        if self.bytes[self.pos..].starts_with(&[0xEF, 0xBB, 0xBF]) {
            self.pos += 3;
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Skips whitespace and comments between markup at the document level.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.comment()?;
            } else {
                return Ok(());
            }
        }
    }

    fn maybe_decl(&mut self) -> Result<(), ParseError> {
        if self.starts_with("<?xml") {
            self.eat_str("<?xml")?;
            while !self.starts_with("?>") {
                if self.bump().is_none() {
                    return Err(self.err("unterminated xml declaration"));
                }
            }
            self.eat_str("?>")?;
        } else if self.starts_with("<?") {
            return Err(self.err("processing instructions are not supported"));
        }
        Ok(())
    }

    fn comment(&mut self) -> Result<Node, ParseError> {
        self.eat_str("<!--")?;
        let start = self.pos;
        while !self.starts_with("-->") {
            if self.bump().is_none() {
                return Err(self.err("unterminated comment"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("comment is not valid utf-8"))?
            .to_string();
        self.eat_str("-->")?;
        Ok(Node::Comment(text))
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
                self.bump();
            }
            _ => return Err(self.err("expected a name")),
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
        {
            self.bump();
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap().to_string())
    }

    fn attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(q) if q == quote => {
                    self.bump();
                    return Ok(out);
                }
                Some(b'<') => return Err(self.err("'<' not allowed in attribute value")),
                Some(b'&') => out.push(self.entity()?),
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != quote && b != b'&' && b != b'<') {
                        self.bump();
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("attribute value is not valid utf-8"))?,
                    );
                }
            }
        }
    }

    fn entity(&mut self) -> Result<char, ParseError> {
        self.eat(b'&')?;
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b != b';') {
            self.bump();
            if self.pos - start > 10 {
                return Err(self.err("entity reference too long"));
            }
        }
        let name = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap().to_string();
        self.eat(b';')?;
        match name.as_str() {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let code = u32::from_str_radix(&name[2..], 16)
                    .map_err(|_| self.err(format!("bad character reference '&{name};'")))?;
                char::from_u32(code)
                    .ok_or_else(|| self.err(format!("invalid character code {code}")))
            }
            _ if name.starts_with('#') => {
                let code: u32 = name[1..]
                    .parse()
                    .map_err(|_| self.err(format!("bad character reference '&{name};'")))?;
                char::from_u32(code)
                    .ok_or_else(|| self.err(format!("invalid character code {code}")))
            }
            _ => Err(self.err(format!("unknown entity '&{name};'"))),
        }
    }

    fn element(&mut self) -> Result<Element, ParseError> {
        self.eat(b'<')?;
        let name = self.name()?;
        let mut el = Element::new(&name);

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.bump();
                    self.eat(b'>')?;
                    return Ok(el); // self-closing
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    let aname = self.name()?;
                    if el.attrs.iter().any(|(k, _)| *k == aname) {
                        return Err(self.err(format!("duplicate attribute '{aname}'")));
                    }
                    self.skip_ws();
                    self.eat(b'=')?;
                    self.skip_ws();
                    let v = self.attr_value()?;
                    el.attrs.push((aname, v));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }

        // Content until matching close tag.
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unterminated element <{name}>"))),
                Some(b'<') => {
                    if self.starts_with("<!--") {
                        let c = self.comment()?;
                        el.children.push(c);
                    } else if self.peek2() == Some(b'/') {
                        self.eat_str("</")?;
                        let close = self.name()?;
                        if close != name {
                            return Err(self.err(format!(
                                "mismatched close tag: expected </{name}>, found </{close}>"
                            )));
                        }
                        self.skip_ws();
                        self.eat(b'>')?;
                        return Ok(el);
                    } else if self.starts_with("<!") || self.starts_with("<?") {
                        return Err(self.err("DOCTYPE/CDATA/PI are not supported"));
                    } else {
                        let child = self.element()?;
                        el.children.push(Node::Element(child));
                    }
                }
                Some(_) => {
                    let text = self.text_run()?;
                    if !text.is_empty() {
                        el.children.push(Node::Text(text));
                    }
                }
            }
        }
    }

    /// Reads character data up to the next `<`. Pure-whitespace runs are
    /// returned as empty strings (ignorable formatting whitespace).
    fn text_run(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => break,
                Some(b'&') => out.push(self.entity()?),
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'<' && b != b'&') {
                        self.bump();
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("text is not valid utf-8"))?,
                    );
                }
            }
        }
        if out.trim().is_empty() {
            Ok(String::new())
        } else {
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig3_example() {
        // Reproduced from the paper's Fig. 3 (XtratuM case study).
        let src = r#"
<DataType Name="xm_u32_t">
  <BasicType>unsigned int</BasicType>
  <TestValues>
    <Value>0</Value>
    <Value>1</Value>
    <Value>2</Value>
    <Value>16</Value>
    <Value>4294967295</Value>
  </TestValues>
</DataType>"#;
        let root = parse_document(src).unwrap();
        assert_eq!(root.name, "DataType");
        assert_eq!(root.attr("Name"), Some("xm_u32_t"));
        assert_eq!(root.find("BasicType").unwrap().text(), "unsigned int");
        let values: Vec<String> =
            root.find("TestValues").unwrap().find_all("Value").map(|v| v.text()).collect();
        assert_eq!(values, ["0", "1", "2", "16", "4294967295"]);
    }

    #[test]
    fn parses_fig2_example() {
        // Reproduced from the paper's Fig. 2.
        let src = r#"<Function Name="XM_reset_partition" ReturnType="xm_s32_t" IsPointer="NO">
  <ParametersList>
    <Parameter Name="partitionId" Type="xm_s32_t" IsPointer="NO"/>
    <Parameter Name="resetMode" Type="xm_u32_t" IsPointer="NO"/>
    <Parameter Name="status" Type="xm_u32_t" IsPointer="NO" />
  </ParametersList>
</Function>"#;
        let root = parse_document(src).unwrap();
        assert_eq!(root.name, "Function");
        assert_eq!(root.attr("IsPointer"), Some("NO"));
        let params: Vec<&str> = root
            .find("ParametersList")
            .unwrap()
            .find_all("Parameter")
            .map(|p| p.attr("Name").unwrap())
            .collect();
        assert_eq!(params, ["partitionId", "resetMode", "status"]);
    }

    #[test]
    fn declaration_and_comments_ok() {
        let src =
            "<?xml version=\"1.0\"?>\n<!-- spec -->\n<A><!-- inner --><B/></A>\n<!-- after -->";
        let root = parse_document(src).unwrap();
        assert_eq!(root.name, "A");
        assert_eq!(root.child_elements().count(), 1);
    }

    #[test]
    fn entities_resolved() {
        let root = parse_document("<V a='&lt;&amp;&gt;'>x &quot;y&quot; &#65;&#x42;</V>").unwrap();
        assert_eq!(root.attr("a"), Some("<&>"));
        assert_eq!(root.text(), "x \"y\" AB");
    }

    #[test]
    fn self_closing_and_nested() {
        let root = parse_document("<a><b/><c><d/></c></a>").unwrap();
        assert_eq!(root.child_elements().count(), 2);
        assert_eq!(root.find("c").unwrap().find("d").unwrap().name, "d");
    }

    #[test]
    fn rejects_mismatched_tags() {
        let e = parse_document("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn rejects_trailing_content() {
        assert!(parse_document("<a/><b/>").is_err());
    }

    #[test]
    fn rejects_duplicate_attrs() {
        let e = parse_document("<a x='1' x='2'/>").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn rejects_doctype_and_cdata() {
        assert!(parse_document("<!DOCTYPE a><a/>").is_err());
        assert!(parse_document("<a><![CDATA[x]]></a>").is_err());
    }

    #[test]
    fn rejects_unknown_entity() {
        assert!(parse_document("<a>&nope;</a>").is_err());
    }

    #[test]
    fn rejects_unterminated() {
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a b=>").is_err());
        assert!(parse_document("<a b='x>").is_err());
        assert!(parse_document("<!-- never closed").is_err());
    }

    #[test]
    fn error_position_is_tracked() {
        let e = parse_document("<a>\n  <b x='1' x='2'/>\n</a>").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let root = parse_document("<a>\n   <b/>\n</a>").unwrap();
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn single_quoted_attrs() {
        let root = parse_document("<a name='v a l'/>").unwrap();
        assert_eq!(root.attr("name"), Some("v a l"));
    }
}
