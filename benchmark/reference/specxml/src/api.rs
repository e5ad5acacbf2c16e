//! Typed **API Header XML** document (paper Fig. 2).
//!
//! The API header lists all hypercalls of the separation kernel under test
//! together with the data type of every parameter. The on-disk format is:
//!
//! ```xml
//! <ApiHeader Kernel="XtratuM" Version="3.x">
//!   <Function Name="XM_reset_partition" ReturnType="xm_s32_t" IsPointer="NO">
//!     <ParametersList>
//!       <Parameter Name="partitionId" Type="xm_s32_t" IsPointer="NO"/>
//!       ...
//!     </ParametersList>
//!   </Function>
//!   ...
//! </ApiHeader>
//! ```

use crate::error::SpecError;
use crate::node::Element;
use crate::parse::parse_document;
use crate::write::to_string_pretty;

/// One parameter of a hypercall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name as it appears in the kernel API, e.g. `partitionId`.
    pub name: String,
    /// Data type name, e.g. `xm_s32_t` (keys into the Data Type XML).
    pub ty: String,
    /// Whether the parameter is a pointer (`IsPointer="YES"`).
    pub is_pointer: bool,
}

/// One hypercall entry in the API header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSpec {
    /// Hypercall name, e.g. `XM_set_timer`.
    pub name: String,
    /// Return type name, e.g. `xm_s32_t`.
    pub return_type: String,
    /// Whether the return value is a pointer.
    pub return_is_pointer: bool,
    /// Ordered parameter list (empty for parameter-less hypercalls).
    pub params: Vec<ParamSpec>,
}

/// The whole API header document.
///
/// ```
/// use specxml::ApiHeaderDoc;
/// let doc = ApiHeaderDoc::from_xml(r#"
///   <ApiHeader Kernel="XtratuM" Version="3.x">
///     <Function Name="XM_reset_system" ReturnType="xm_s32_t" IsPointer="NO">
///       <ParametersList>
///         <Parameter Name="mode" Type="xm_u32_t" IsPointer="NO"/>
///       </ParametersList>
///     </Function>
///   </ApiHeader>"#).unwrap();
/// let f = doc.function("XM_reset_system").unwrap();
/// assert_eq!(f.params[0].ty, "xm_u32_t");
/// assert_eq!(doc, ApiHeaderDoc::from_xml(&doc.to_xml()).unwrap()); // round-trip
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ApiHeaderDoc {
    /// Kernel name attribute, e.g. `XtratuM`.
    pub kernel: String,
    /// Free-form kernel version attribute.
    pub version: String,
    /// All hypercalls, in document order.
    pub functions: Vec<FunctionSpec>,
}

fn parse_yes_no(element: &str, attr: &'static str, v: &str) -> Result<bool, SpecError> {
    match v {
        "YES" => Ok(true),
        "NO" => Ok(false),
        _ => Err(SpecError::BadAttrValue { element: element.into(), attr, value: v.into() }),
    }
}

fn req_attr<'a>(el: &'a Element, attr: &'static str) -> Result<&'a str, SpecError> {
    el.attr(attr).ok_or_else(|| SpecError::MissingAttr { element: el.name.clone(), attr })
}

impl ApiHeaderDoc {
    /// Parses an API header document from XML text.
    pub fn from_xml(src: &str) -> Result<Self, SpecError> {
        let root = parse_document(src)?;
        Self::from_element(&root)
    }

    /// Interprets an already-parsed element tree.
    pub fn from_element(root: &Element) -> Result<Self, SpecError> {
        if root.name != "ApiHeader" {
            return Err(SpecError::WrongRoot { expected: "ApiHeader", found: root.name.clone() });
        }
        let mut doc = ApiHeaderDoc {
            kernel: root.attr("Kernel").unwrap_or_default().to_string(),
            version: root.attr("Version").unwrap_or_default().to_string(),
            functions: Vec::new(),
        };
        for f in root.find_all("Function") {
            let name = req_attr(f, "Name")?.to_string();
            let return_type = req_attr(f, "ReturnType")?.to_string();
            let return_is_pointer =
                parse_yes_no(&f.name, "IsPointer", f.attr("IsPointer").unwrap_or("NO"))?;
            let mut params = Vec::new();
            if let Some(pl) = f.find("ParametersList") {
                for p in pl.find_all("Parameter") {
                    params.push(ParamSpec {
                        name: req_attr(p, "Name")?.to_string(),
                        ty: req_attr(p, "Type")?.to_string(),
                        is_pointer: parse_yes_no(
                            &p.name,
                            "IsPointer",
                            p.attr("IsPointer").unwrap_or("NO"),
                        )?,
                    });
                }
            }
            doc.functions.push(FunctionSpec { name, return_type, return_is_pointer, params });
        }
        Ok(doc)
    }

    /// Builds the element tree for this document.
    pub fn to_element(&self) -> Element {
        let mut root = Element::new("ApiHeader")
            .with_attr("Kernel", &self.kernel)
            .with_attr("Version", &self.version);
        for f in &self.functions {
            let mut fe = Element::new("Function")
                .with_attr("Name", &f.name)
                .with_attr("ReturnType", &f.return_type)
                .with_attr("IsPointer", if f.return_is_pointer { "YES" } else { "NO" });
            let mut pl = Element::new("ParametersList");
            for p in &f.params {
                pl = pl.with_child(
                    Element::new("Parameter")
                        .with_attr("Name", &p.name)
                        .with_attr("Type", &p.ty)
                        .with_attr("IsPointer", if p.is_pointer { "YES" } else { "NO" }),
                );
            }
            fe = fe.with_child(pl);
            root = root.with_child(fe);
        }
        root
    }

    /// Serializes to pretty XML.
    pub fn to_xml(&self) -> String {
        to_string_pretty(&self.to_element())
    }

    /// Looks a function up by name.
    pub fn function(&self, name: &str) -> Option<&FunctionSpec> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_doc() -> ApiHeaderDoc {
        ApiHeaderDoc {
            kernel: "XtratuM".into(),
            version: "3.x".into(),
            functions: vec![FunctionSpec {
                name: "XM_reset_partition".into(),
                return_type: "xm_s32_t".into(),
                return_is_pointer: false,
                params: vec![
                    ParamSpec {
                        name: "partitionId".into(),
                        ty: "xm_s32_t".into(),
                        is_pointer: false,
                    },
                    ParamSpec {
                        name: "resetMode".into(),
                        ty: "xm_u32_t".into(),
                        is_pointer: false,
                    },
                    ParamSpec { name: "status".into(), ty: "xm_u32_t".into(), is_pointer: false },
                ],
            }],
        }
    }

    #[test]
    fn round_trip() {
        let doc = fig2_doc();
        let xml = doc.to_xml();
        let back = ApiHeaderDoc::from_xml(&xml).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn parses_handwritten_fig2_style() {
        let src = r#"<ApiHeader Kernel="XtratuM" Version="3.x">
          <Function Name="XM_reset_partition" ReturnType="xm_s32_t" IsPointer="NO">
            <ParametersList>
              <Parameter Name="partitionId" Type="xm_s32_t" IsPointer="NO"/>
              <Parameter Name="resetMode" Type="xm_u32_t" IsPointer="NO"/>
              <Parameter Name="status" Type="xm_u32_t" IsPointer="NO" />
            </ParametersList>
          </Function>
        </ApiHeader>"#;
        let doc = ApiHeaderDoc::from_xml(src).unwrap();
        assert_eq!(doc.functions.len(), 1);
        let f = doc.function("XM_reset_partition").unwrap();
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[1].name, "resetMode");
        assert_eq!(f.params[1].ty, "xm_u32_t");
        assert!(!f.return_is_pointer);
    }

    #[test]
    fn parameterless_function_round_trips() {
        let doc = ApiHeaderDoc {
            kernel: "XM".into(),
            version: "1".into(),
            functions: vec![FunctionSpec {
                name: "XM_halt_system".into(),
                return_type: "xm_s32_t".into(),
                return_is_pointer: false,
                params: vec![],
            }],
        };
        let back = ApiHeaderDoc::from_xml(&doc.to_xml()).unwrap();
        assert_eq!(doc, back);
        assert!(back.functions[0].params.is_empty());
    }

    #[test]
    fn pointer_flags_parse() {
        let src = r#"<ApiHeader Kernel="XM" Version="1">
          <Function Name="XM_multicall" ReturnType="xm_s32_t" IsPointer="NO">
            <ParametersList>
              <Parameter Name="startAddr" Type="xmAddress_t" IsPointer="YES"/>
              <Parameter Name="endAddr" Type="xmAddress_t" IsPointer="YES"/>
            </ParametersList>
          </Function>
        </ApiHeader>"#;
        let doc = ApiHeaderDoc::from_xml(src).unwrap();
        assert!(doc.functions[0].params.iter().all(|p| p.is_pointer));
    }

    #[test]
    fn wrong_root_rejected() {
        let e = ApiHeaderDoc::from_xml("<Nope/>").unwrap_err();
        assert!(matches!(e, SpecError::WrongRoot { .. }));
    }

    #[test]
    fn missing_name_rejected() {
        let e = ApiHeaderDoc::from_xml(
            r#"<ApiHeader Kernel="x" Version="1"><Function ReturnType="t"/></ApiHeader>"#,
        )
        .unwrap_err();
        assert!(matches!(e, SpecError::MissingAttr { attr: "Name", .. }));
    }

    #[test]
    fn bad_is_pointer_rejected() {
        let e = ApiHeaderDoc::from_xml(
            r#"<ApiHeader Kernel="x" Version="1">
                 <Function Name="f" ReturnType="t" IsPointer="MAYBE"/>
               </ApiHeader>"#,
        )
        .unwrap_err();
        assert!(matches!(e, SpecError::BadAttrValue { attr: "IsPointer", .. }));
    }

    #[test]
    fn function_lookup() {
        let doc = fig2_doc();
        assert!(doc.function("XM_reset_partition").is_some());
        assert!(doc.function("XM_missing").is_none());
    }
}
