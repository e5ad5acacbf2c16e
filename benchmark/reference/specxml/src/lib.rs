//! `specxml` — a minimal, dependency-free XML subset used by the robustness
//! testing toolset to describe kernel APIs and data-type test dictionaries.
//!
//! The paper's toolset (Section III.B) is driven by two kernel-specific XML
//! files, a technique borrowed from Critical Software's Xception toolset:
//!
//! * the **API Header XML** (Fig. 2) lists every hypercall with its
//!   parameter names and data types;
//! * the **Data Type XML** (Fig. 3) lists the test values associated with
//!   each data type.
//!
//! This crate implements:
//!
//! * a small XML parser/writer ([`parse`], [`node`], [`mod@write`]) covering the
//!   subset those documents need (elements, attributes, text, comments, an
//!   optional XML declaration, and the five predefined entities);
//! * typed documents: [`api::ApiHeaderDoc`] and [`datatypes::DataTypeDoc`]
//!   with lossless round-trips (property-tested).
//!
//! The parser is deliberately strict: unknown syntax is an error rather than
//! being skipped, because a silently misread spec file would corrupt a whole
//! test campaign.

pub mod api;
pub mod datatypes;
pub mod error;
pub mod node;
pub mod parse;
pub mod write;

pub use api::{ApiHeaderDoc, FunctionSpec, ParamSpec};
pub use datatypes::{DataTypeDoc, DataTypeSpec};
pub use error::{ParseError, SpecError};
pub use node::{Element, Node};
pub use parse::parse_document;
pub use write::to_string_pretty;
