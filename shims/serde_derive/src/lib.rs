//! Offline derive macros for the vendored `serde` shim.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! item shapes the workspace actually uses, parsing the raw token stream
//! directly (the registry-free build cannot depend on `syn`/`quote`):
//!
//! * structs with named fields (any visibility, attributes/doc comments);
//! * tuple structs (newtypes serialize transparently, wider tuples as
//!   arrays);
//! * enums with unit and newtype variants (externally tagged, matching
//!   upstream serde's default representation).
//!
//! Generic parameters and `#[serde(...)]` attributes are rejected with a
//! compile error rather than silently mishandled.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;
use std::iter::Peekable;

/// Derives `serde::Serialize` (writes through `serde::Writer`).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derives `serde::Deserialize` (reads through `serde::Reader`).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, ser: bool) -> TokenStream {
    match Item::parse(input) {
        Ok(item) => {
            let code = if ser {
                item.impl_serialize()
            } else {
                item.impl_deserialize()
            };
            code.parse().expect("serde_derive generated invalid Rust")
        }
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

enum Shape {
    /// Named fields, in declaration order.
    Struct(Vec<String>),
    /// Tuple struct with this many fields.
    TupleStruct(usize),
    /// Variants: name + whether the variant carries one payload field.
    Enum(Vec<(String, bool)>),
}

struct Item {
    name: String,
    shape: Shape,
}

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

fn skip_attrs_and_vis(it: &mut Tokens) -> Result<(), String> {
    loop {
        match it.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                it.next();
                match it.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        let text = g.stream().to_string();
                        if text.starts_with("serde") {
                            return Err(format!("serde shim derive does not support #[{text}]"));
                        }
                    }
                    _ => return Err("malformed attribute".into()),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                it.next();
                if let Some(TokenTree::Group(g)) = it.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        it.next();
                    }
                }
            }
            _ => return Ok(()),
        }
    }
}

fn expect_ident(it: &mut Tokens, what: &str) -> Result<String, String> {
    match it.next() {
        Some(TokenTree::Ident(id)) => Ok(id.to_string()),
        other => Err(format!("expected {what}, found {other:?}")),
    }
}

/// Consumes type tokens until a top-level `,` (angle-bracket aware).
/// Returns `true` when a comma was consumed, `false` at end of stream.
fn skip_type(it: &mut Tokens) -> bool {
    let mut depth = 0i32;
    for tt in it.by_ref() {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return true,
                _ => {}
            }
        }
    }
    false
}

impl Item {
    fn parse(input: TokenStream) -> Result<Item, String> {
        let mut it: Tokens = input.into_iter().peekable();
        skip_attrs_and_vis(&mut it)?;
        let kw = expect_ident(&mut it, "`struct` or `enum`")?;
        let name = expect_ident(&mut it, "item name")?;
        if matches!(&it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            return Err(format!(
                "serde shim derive does not support generic type `{name}`"
            ));
        }
        let body = it.next();
        match (kw.as_str(), body) {
            ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
                Ok(Item {
                    name,
                    shape: Shape::Struct(parse_named_fields(g.stream())?),
                })
            }
            ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Item {
                    name,
                    shape: Shape::TupleStruct(parse_tuple_arity(g.stream())?),
                })
            }
            ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => Ok(Item {
                name,
                shape: Shape::Enum(parse_variants(g.stream())?),
            }),
            (kw, body) => Err(format!("unsupported item: {kw} with body {body:?}")),
        }
    }

    fn impl_serialize(&self) -> String {
        let name = &self.name;
        let body = match &self.shape {
            Shape::Struct(fields) => {
                let mut body = String::from("__w.begin_object();");
                for f in fields {
                    let _ = write!(
                        body,
                        "__w.field({f:?}); ::serde::Serialize::serialize(&self.{f}, __w);"
                    );
                }
                body.push_str("__w.end_object();");
                body
            }
            Shape::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __w);".to_string(),
            Shape::TupleStruct(n) => {
                let mut body = String::from("__w.begin_array();");
                for i in 0..*n {
                    let _ = write!(
                        body,
                        "__w.element(); ::serde::Serialize::serialize(&self.{i}, __w);"
                    );
                }
                body.push_str("__w.end_array();");
                body
            }
            Shape::Enum(variants) => {
                let mut arms = String::new();
                for (v, payload) in variants {
                    if *payload {
                        let _ = write!(
                            arms,
                            "{name}::{v}(__x) => {{ __w.begin_object(); __w.field({v:?}); \
                             ::serde::Serialize::serialize(__x, __w); __w.end_object(); }}"
                        );
                    } else {
                        let _ = write!(arms, "{name}::{v} => __w.write_str({v:?}),");
                    }
                }
                format!("match self {{ {arms} }}")
            }
        };
        format!(
            "#[automatically_derived]\n\
             impl ::serde::Serialize for {name} {{\n\
                 fn serialize(&self, __w: &mut ::serde::Writer<'_>) {{ {body} }}\n\
             }}"
        )
    }

    fn impl_deserialize(&self) -> String {
        let name = &self.name;
        let body = match &self.shape {
            Shape::Struct(fields) => {
                let mut slots = String::new();
                let mut arms = String::new();
                let mut entries = String::new();
                for (i, f) in fields.iter().enumerate() {
                    let _ = write!(slots, "let mut __f{i} = ::std::option::Option::None;");
                    let _ = write!(arms, "{f:?} => __r.field(&mut __f{i})?,");
                    let _ = write!(
                        entries,
                        "{f}: __f{i}.ok_or_else(|| ::serde::Error::missing_field({f:?}, {name:?}))?,"
                    );
                }
                format!(
                    "{slots}\n\
                     __r.begin_object()?;\n\
                     while let ::std::option::Option::Some(__k) = __r.next_key()? {{\n\
                         match &*__k {{ {arms} _ => __r.skip_value()?, }}\n\
                     }}\n\
                     ::std::result::Result::Ok({name} {{ {entries} }})"
                )
            }
            Shape::TupleStruct(1) => {
                format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__r)?))"
                )
            }
            Shape::TupleStruct(n) => {
                let mut entries = String::new();
                for _ in 0..*n {
                    let _ = write!(
                        entries,
                        "{{ __r.fixed_element({n})?; ::serde::Deserialize::deserialize(__r)? }},"
                    );
                }
                format!(
                    "__r.begin_array()?;\n\
                     let __value = {name}({entries});\n\
                     __r.end_fixed({n})?;\n\
                     ::std::result::Result::Ok(__value)"
                )
            }
            Shape::Enum(variants) => {
                let mut arms = String::new();
                for (v, payload) in variants {
                    if *payload {
                        let _ = write!(
                            arms,
                            "({v:?}, true) => {{\n\
                                 let __x = ::serde::Deserialize::deserialize(__r)?;\n\
                                 __r.end_variant()?;\n\
                                 ::std::result::Result::Ok({name}::{v}(__x))\n\
                             }}"
                        );
                    } else {
                        let _ = write!(
                            arms,
                            "({v:?}, false) => ::std::result::Result::Ok({name}::{v}),"
                        );
                    }
                }
                format!(
                    "let (__tag, __payload) = __r.begin_variant()?;\n\
                     match (&*__tag, __payload) {{\n\
                         {arms}\n\
                         _ => ::std::result::Result::Err(__r.invalid(\
                             format_args!(\"unrecognized {name} variant `{{}}`\", __tag))),\n\
                     }}"
                )
            }
        };
        format!(
            "#[automatically_derived]\n\
             impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(__r: &mut ::serde::Reader<'_>) \
                 -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
             }}"
        )
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut it: Tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut it)?;
        if it.peek().is_none() {
            return Ok(fields);
        }
        let field = expect_ident(&mut it, "field name")?;
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field, found {other:?}")),
        }
        fields.push(field);
        if !skip_type(&mut it) {
            return Ok(fields);
        }
    }
}

fn parse_tuple_arity(stream: TokenStream) -> Result<usize, String> {
    let mut it: Tokens = stream.into_iter().peekable();
    let mut arity = 0usize;
    loop {
        skip_attrs_and_vis(&mut it)?;
        if it.peek().is_none() {
            return Ok(arity);
        }
        arity += 1;
        if !skip_type(&mut it) {
            return Ok(arity);
        }
    }
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, bool)>, String> {
    let mut it: Tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut it)?;
        if it.peek().is_none() {
            return Ok(variants);
        }
        let variant = expect_ident(&mut it, "variant name")?;
        let mut payload = false;
        match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Tokens = g.stream().into_iter().peekable();
                let mut count_it = inner;
                skip_attrs_and_vis(&mut count_it)?;
                let mut arity = 0usize;
                if count_it.peek().is_some() {
                    arity = 1;
                    while skip_type(&mut count_it) {
                        skip_attrs_and_vis(&mut count_it)?;
                        if count_it.peek().is_some() {
                            arity += 1;
                        }
                    }
                }
                if arity != 1 {
                    return Err(format!(
                        "variant `{variant}`: only unit and newtype variants supported"
                    ));
                }
                payload = true;
                it.next();
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                return Err(format!(
                    "variant `{variant}`: struct variants are not supported"
                ));
            }
            _ => {}
        }
        variants.push((variant, payload));
        match it.next() {
            None => return Ok(variants),
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            other => return Err(format!("expected `,` between variants, found {other:?}")),
        }
    }
}
