//! Error types for XML parsing and typed-document decoding.

use std::fmt;

/// A low-level XML syntax error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub col: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(line: usize, col: usize, message: impl Into<String>) -> Self {
        Self { line, col, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Errors raised when interpreting a parsed XML tree as one of the typed
/// spec documents (API header / data types).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Underlying XML was malformed.
    Xml(ParseError),
    /// The root element had an unexpected name.
    WrongRoot { expected: &'static str, found: String },
    /// A required attribute was missing on an element.
    MissingAttr { element: String, attr: &'static str },
    /// An element that must appear was absent.
    MissingChild { element: String, child: &'static str },
    /// An attribute had a value outside its allowed set.
    BadAttrValue { element: String, attr: &'static str, value: String },
    /// Free-form structural problem.
    Structure(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Xml(e) => write!(f, "{e}"),
            SpecError::WrongRoot { expected, found } => {
                write!(f, "expected root element <{expected}>, found <{found}>")
            }
            SpecError::MissingAttr { element, attr } => {
                write!(f, "element <{element}> is missing required attribute '{attr}'")
            }
            SpecError::MissingChild { element, child } => {
                write!(f, "element <{element}> is missing required child <{child}>")
            }
            SpecError::BadAttrValue { element, attr, value } => {
                write!(f, "element <{element}> attribute '{attr}' has invalid value '{value}'")
            }
            SpecError::Structure(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::Xml(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_display_includes_position() {
        let e = ParseError::new(3, 14, "unexpected '<'");
        let s = e.to_string();
        assert!(s.contains("3:14"), "{s}");
        assert!(s.contains("unexpected '<'"), "{s}");
    }

    #[test]
    fn spec_error_display_variants() {
        let cases: Vec<(SpecError, &str)> = vec![
            (
                SpecError::WrongRoot { expected: "ApiHeader", found: "Nope".into() },
                "expected root element <ApiHeader>",
            ),
            (
                SpecError::MissingAttr { element: "Function".into(), attr: "Name" },
                "missing required attribute 'Name'",
            ),
            (
                SpecError::MissingChild { element: "DataType".into(), child: "TestValues" },
                "missing required child <TestValues>",
            ),
            (
                SpecError::BadAttrValue {
                    element: "Parameter".into(),
                    attr: "IsPointer",
                    value: "MAYBE".into(),
                },
                "invalid value 'MAYBE'",
            ),
            (SpecError::Structure("boom".into()), "boom"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn parse_error_converts_to_spec_error() {
        let pe = ParseError::new(1, 1, "bad");
        let se: SpecError = pe.clone().into();
        assert_eq!(se, SpecError::Xml(pe));
    }
}
