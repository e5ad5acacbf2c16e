//! Typed **Data Type XML** document (paper Fig. 3).
//!
//! Associates every kernel data type with its ANSI C basic type and the
//! "dictionary" of interesting test values used by the data type fault
//! model:
//!
//! ```xml
//! <DataTypes Kernel="XtratuM">
//!   <DataType Name="xm_u32_t">
//!     <BasicType>unsigned int</BasicType>
//!     <TestValues>
//!       <Value>0</Value>
//!       <Value>1</Value>
//!       <Value>2</Value>
//!       <Value>16</Value>
//!       <Value>4294967295</Value>
//!     </TestValues>
//!   </DataType>
//! </DataTypes>
//! ```
//!
//! Values are kept as strings at this layer (they may be decimal, negative,
//! or symbolic); the `skrt` dictionary layer parses them into typed raw
//! words.

use crate::error::SpecError;
use crate::node::Element;
use crate::parse::parse_document;
use crate::write::to_string_pretty;

/// One `<DataType>` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataTypeSpec {
    /// XM type name, e.g. `xm_u32_t`.
    pub name: String,
    /// ANSI C declaration, e.g. `unsigned int`.
    pub basic_type: String,
    /// The test-value dictionary, in document order, as written.
    pub test_values: Vec<String>,
}

/// The whole data-type document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataTypeDoc {
    /// Kernel name attribute.
    pub kernel: String,
    /// All data types in document order.
    pub types: Vec<DataTypeSpec>,
}

impl DataTypeDoc {
    /// Parses a data-type document from XML text.
    pub fn from_xml(src: &str) -> Result<Self, SpecError> {
        let root = parse_document(src)?;
        Self::from_element(&root)
    }

    /// Interprets an already-parsed element tree.
    pub fn from_element(root: &Element) -> Result<Self, SpecError> {
        if root.name != "DataTypes" {
            return Err(SpecError::WrongRoot { expected: "DataTypes", found: root.name.clone() });
        }
        let mut doc = DataTypeDoc {
            kernel: root.attr("Kernel").unwrap_or_default().to_string(),
            types: Vec::new(),
        };
        for dt in root.find_all("DataType") {
            let name = dt
                .attr("Name")
                .ok_or_else(|| SpecError::MissingAttr { element: dt.name.clone(), attr: "Name" })?
                .to_string();
            let basic_type = dt
                .find("BasicType")
                .ok_or_else(|| SpecError::MissingChild {
                    element: format!("DataType Name=\"{name}\""),
                    child: "BasicType",
                })?
                .text();
            let tv = dt.find("TestValues").ok_or_else(|| SpecError::MissingChild {
                element: format!("DataType Name=\"{name}\""),
                child: "TestValues",
            })?;
            let test_values: Vec<String> = tv.find_all("Value").map(|v| v.text()).collect();
            if test_values.is_empty() {
                return Err(SpecError::Structure(format!(
                    "DataType '{name}' has an empty <TestValues> list"
                )));
            }
            doc.types.push(DataTypeSpec { name, basic_type, test_values });
        }
        Ok(doc)
    }

    /// Builds the element tree for this document.
    pub fn to_element(&self) -> Element {
        let mut root = Element::new("DataTypes").with_attr("Kernel", &self.kernel);
        for dt in &self.types {
            let mut tv = Element::new("TestValues");
            for v in &dt.test_values {
                tv = tv.with_child(Element::new("Value").with_text(v.clone()));
            }
            root = root.with_child(
                Element::new("DataType")
                    .with_attr("Name", &dt.name)
                    .with_child(Element::new("BasicType").with_text(dt.basic_type.clone()))
                    .with_child(tv),
            );
        }
        root
    }

    /// Serializes to pretty XML.
    pub fn to_xml(&self) -> String {
        to_string_pretty(&self.to_element())
    }

    /// Looks a data type up by name.
    pub fn data_type(&self, name: &str) -> Option<&DataTypeSpec> {
        self.types.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_doc() -> DataTypeDoc {
        DataTypeDoc {
            kernel: "XtratuM".into(),
            types: vec![DataTypeSpec {
                name: "xm_u32_t".into(),
                basic_type: "unsigned int".into(),
                test_values: vec![
                    "0".into(),
                    "1".into(),
                    "2".into(),
                    "16".into(),
                    "4294967295".into(),
                ],
            }],
        }
    }

    #[test]
    fn round_trip() {
        let doc = fig3_doc();
        let back = DataTypeDoc::from_xml(&doc.to_xml()).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn parses_fig3_with_wrapper() {
        let src = r#"<DataTypes Kernel="XtratuM">
          <DataType Name="xm_u32_t">
            <BasicType>unsigned int</BasicType>
            <TestValues>
              <Value>0</Value><Value>1</Value><Value>2</Value>
              <Value>16</Value><Value>4294967295</Value>
            </TestValues>
          </DataType>
        </DataTypes>"#;
        let doc = DataTypeDoc::from_xml(src).unwrap();
        let dt = doc.data_type("xm_u32_t").unwrap();
        assert_eq!(dt.basic_type, "unsigned int");
        assert_eq!(dt.test_values.len(), 5);
        assert_eq!(dt.test_values[4], "4294967295");
    }

    #[test]
    fn negative_values_supported() {
        let doc = DataTypeDoc {
            kernel: "XM".into(),
            types: vec![DataTypeSpec {
                name: "xm_s32_t".into(),
                basic_type: "signed int".into(),
                test_values: vec!["-2147483648".into(), "-16".into(), "-1".into()],
            }],
        };
        let back = DataTypeDoc::from_xml(&doc.to_xml()).unwrap();
        assert_eq!(back.types[0].test_values[0], "-2147483648");
    }

    #[test]
    fn missing_basic_type_rejected() {
        let src = r#"<DataTypes Kernel="X">
          <DataType Name="t"><TestValues><Value>0</Value></TestValues></DataType>
        </DataTypes>"#;
        let e = DataTypeDoc::from_xml(src).unwrap_err();
        assert!(matches!(e, SpecError::MissingChild { child: "BasicType", .. }));
    }

    #[test]
    fn missing_test_values_rejected() {
        let src = r#"<DataTypes Kernel="X">
          <DataType Name="t"><BasicType>int</BasicType></DataType>
        </DataTypes>"#;
        let e = DataTypeDoc::from_xml(src).unwrap_err();
        assert!(matches!(e, SpecError::MissingChild { child: "TestValues", .. }));
    }

    #[test]
    fn empty_test_values_rejected() {
        let src = r#"<DataTypes Kernel="X">
          <DataType Name="t"><BasicType>int</BasicType><TestValues/></DataType>
        </DataTypes>"#;
        let e = DataTypeDoc::from_xml(src).unwrap_err();
        assert!(matches!(e, SpecError::Structure(_)));
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(matches!(
            DataTypeDoc::from_xml("<ApiHeader/>").unwrap_err(),
            SpecError::WrongRoot { expected: "DataTypes", .. }
        ));
    }
}
