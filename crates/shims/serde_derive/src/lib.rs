//! Offline `#[derive(Serialize)]` for the serde shim.
//!
//! Implemented directly on `proc_macro::TokenStream` (no `syn`/`quote` —
//! the environment has no registry access). Supports the shapes the MBS
//! crates write:
//!
//! - structs with named fields,
//! - enums whose variants are all unit.
//!
//! Generics, data-carrying enum variants and `#[serde(...)]` attributes are
//! unsupported and produce a compile error naming the offending item.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Body {
    /// Field names of a named-field struct.
    Struct(Vec<String>),
    /// Variant names of an all-unit enum.
    Enum(Vec<String>),
}

struct Parsed {
    name: String,
    body: Body,
}

/// Derives `serde::Serialize` for named-field structs and unit-variant enums.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse(input);
    gen_serialize(&parsed)
        .parse()
        .expect("generated Serialize impl must parse")
}

fn parse(input: TokenStream) -> Parsed {
    let mut iter = input.into_iter().peekable();
    while let Some(tt) = iter.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // Attribute (incl. doc comments): skip the bracket group,
                // and the `!` of inner attributes if present.
                if let Some(TokenTree::Punct(q)) = iter.peek() {
                    if q.as_char() == '!' {
                        iter.next();
                    }
                }
                iter.next();
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next(); // pub(crate) / pub(super)
                    }
                }
            }
            TokenTree::Ident(id) if id.to_string() == "struct" || id.to_string() == "enum" => {
                let is_enum = id.to_string() == "enum";
                let name = match iter.next() {
                    Some(TokenTree::Ident(n)) => n.to_string(),
                    other => panic!("expected type name after `struct`/`enum`, got {other:?}"),
                };
                match iter.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        let body = if is_enum {
                            Body::Enum(parse_variants(&name, g.stream()))
                        } else {
                            Body::Struct(parse_fields(g.stream()))
                        };
                        return Parsed { name, body };
                    }
                    Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                        panic!("serde shim derive does not support generics (type `{name}`)")
                    }
                    other => panic!(
                        "serde shim derive supports only brace-bodied structs/enums \
                         (type `{name}`, got {other:?})"
                    ),
                }
            }
            _ => {}
        }
    }
    panic!("serde shim derive: no struct or enum found in input");
}

/// Parses `name: Type, ...` field lists, returning the field names.
/// Tracks angle-bracket depth so commas inside `HashMap<K, V>` don't split.
fn parse_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut iter);
        let name = match iter.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("expected field name, got {other:?}"),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, got {other:?}"),
        }
        skip_type(&mut iter);
        fields.push(name);
    }
    fields
}

/// Skips one type (until a top-level `,` or end of stream).
fn skip_type(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    let mut angle_depth = 0usize;
    for tt in iter.by_ref() {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
    }
}

fn skip_attrs_and_vis(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                iter.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next();
                    }
                }
            }
            _ => return,
        }
    }
}

/// Parses an enum body, returning the variant names; a variant that
/// carries data panics, naming the enum and the variant.
fn parse_variants(enum_name: &str, stream: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut iter);
        let name = match iter.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("expected variant name, got {other:?}"),
        };
        if let Some(TokenTree::Group(_)) = iter.peek() {
            panic!(
                "serde shim derive supports only unit enum variants \
                 (type `{enum_name}`, variant `{name}`)"
            );
        }
        // Skip to the next variant (also consumes `= discriminant`).
        skip_type(&mut iter);
        variants.push(name);
    }
    variants
}

fn gen_serialize(p: &Parsed) -> String {
    let name = &p.name;
    let body = match &p.body {
        Body::Struct(fields) => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "__fields.push(({f:?}.to_string(), \
                         ::serde::Serialize::to_value(&self.{f})));"
                    )
                })
                .collect();
            format!(
                "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> \
                 = ::std::vec::Vec::new(); {pushes} ::serde::Value::Obj(__fields)"
            )
        }
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|vn| format!("{name}::{vn} => {vn:?},"))
                .collect();
            format!("::serde::Value::Str(match self {{ {arms} }}.to_string())")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
         fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
    )
}
