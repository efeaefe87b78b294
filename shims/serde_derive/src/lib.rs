//! Offline shim for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! proc macros implemented directly over `proc_macro::TokenStream` (the
//! environment has no `syn`/`quote`).
//!
//! Supported input shapes — exactly what this workspace uses:
//! structs with named fields, tuple structs, unit structs, and enums with
//! unit / tuple / struct variants (explicit discriminants are skipped).
//! Not supported: generics, lifetimes, `#[serde(...)]` attributes.
//!
//! Generated code targets the `serde` shim's traits:
//! `Serialize::serialize` streams into a `serde::ser::Sink`, and
//! `Deserialize::from_value` reads a `serde::value::Value`.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

#[derive(Debug)]
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

fn skip_attributes(it: &mut Tokens) {
    while let Some(TokenTree::Punct(p)) = it.peek() {
        if p.as_char() != '#' {
            break;
        }
        it.next();
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
            other => panic!("serde derive shim: malformed attribute near {other:?}"),
        }
    }
}

fn skip_visibility(it: &mut Tokens) {
    if let Some(TokenTree::Ident(id)) = it.peek() {
        if id.to_string() == "pub" {
            it.next();
            if let Some(TokenTree::Group(g)) = it.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    it.next();
                }
            }
        }
    }
}

fn expect_ident(it: &mut Tokens, what: &str) -> String {
    match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive shim: expected {what}, found {other:?}"),
    }
}

/// Consumes tokens up to (and including) the next comma at angle-bracket
/// depth zero. Returns `false` when the stream ended instead.
fn skip_to_toplevel_comma(it: &mut Tokens) -> bool {
    let mut depth = 0usize;
    for tok in it.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => return true,
                _ => {}
            }
        }
    }
    false
}

fn parse_named_fields(ts: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut it = ts.into_iter().peekable();
    loop {
        skip_attributes(&mut it);
        if it.peek().is_none() {
            break;
        }
        skip_visibility(&mut it);
        fields.push(expect_ident(&mut it, "field name"));
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde derive shim: expected `:` after field, found {other:?}"),
        }
        if !skip_to_toplevel_comma(&mut it) {
            break;
        }
    }
    fields
}

fn count_tuple_fields(ts: TokenStream) -> usize {
    let mut it = ts.into_iter().peekable();
    let mut count = 0usize;
    loop {
        skip_attributes(&mut it);
        if it.peek().is_none() {
            break;
        }
        count += 1;
        if !skip_to_toplevel_comma(&mut it) {
            break;
        }
    }
    count
}

fn parse_variants(ts: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut it = ts.into_iter().peekable();
    loop {
        skip_attributes(&mut it);
        if it.peek().is_none() {
            break;
        }
        let name = expect_ident(&mut it, "variant name");
        let fields = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.stream();
                it.next();
                Fields::Tuple(count_tuple_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.stream();
                it.next();
                Fields::Named(parse_named_fields(g))
            }
            _ => Fields::Unit,
        };
        variants.push(Variant { name, fields });
        // Skips any `= discriminant` and the trailing comma.
        if !skip_to_toplevel_comma(&mut it) {
            break;
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    loop {
        skip_attributes(&mut it);
        skip_visibility(&mut it);
        match it.next() {
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {
                let name = expect_ident(&mut it, "struct name");
                return match it.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        Item::Struct {
                            name,
                            fields: Fields::Named(parse_named_fields(g.stream())),
                        }
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        Item::Struct {
                            name,
                            fields: Fields::Tuple(count_tuple_fields(g.stream())),
                        }
                    }
                    Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item::Struct {
                        name,
                        fields: Fields::Unit,
                    },
                    other => panic!(
                        "serde derive shim: unsupported struct body for `{name}` \
                         (generics are not supported): {other:?}"
                    ),
                };
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                let name = expect_ident(&mut it, "enum name");
                return match it.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                        name,
                        variants: parse_variants(g.stream()),
                    },
                    other => panic!(
                        "serde derive shim: unsupported enum body for `{name}` \
                         (generics are not supported): {other:?}"
                    ),
                };
            }
            Some(TokenTree::Ident(_)) => continue, // e.g. `union` would fall through below
            other => panic!("serde derive shim: expected struct or enum, found {other:?}"),
        }
    }
}

fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(s); // identifiers never need escaping
    out.push('"');
}

/// Code emitting the named fields `fields` (bound as `{prefix}{field}`)
/// as one map.
fn gen_named_map(fields: &[String], prefix: &str) -> String {
    let mut b = String::from("__s.begin_map();");
    for f in fields {
        b.push_str("::serde::ser::entry(__s, ");
        push_str_lit(&mut b, f);
        b.push_str(&format!(", {prefix}{f});"));
    }
    b.push_str("__s.end_map();");
    b
}

/// Code emitting the expressions `items` as one sequence.
fn gen_seq(items: &[String]) -> String {
    let mut b = String::from("__s.begin_seq();");
    for item in items {
        b.push_str(&format!("::serde::Serialize::serialize({item}, __s);"));
    }
    b.push_str("__s.end_seq();");
    b
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "__s.null();".to_string(),
                Fields::Tuple(1) => "::serde::Serialize::serialize(&self.0, __s);".to_string(),
                Fields::Tuple(n) => {
                    gen_seq(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
                }
                Fields::Named(fields) => gen_named_map(fields, "&self."),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut b = String::from("match self {");
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => {
                        b.push_str(&format!("{name}::{vn} => __s.str("));
                        push_str_lit(&mut b, vn);
                        b.push_str("),");
                    }
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        b.push_str(&format!(
                            "{name}::{vn}({}) => {{ __s.begin_map(); __s.key(",
                            binds.join(",")
                        ));
                        push_str_lit(&mut b, vn);
                        b.push_str(");");
                        if *n == 1 {
                            b.push_str("::serde::Serialize::serialize(__f0, __s);");
                        } else {
                            b.push_str(&gen_seq(&binds));
                        }
                        b.push_str("__s.end_map(); }");
                    }
                    Fields::Named(fields) => {
                        b.push_str(&format!(
                            "{name}::{vn} {{ {} }} => {{ __s.begin_map(); __s.key(",
                            fields.join(",")
                        ));
                        push_str_lit(&mut b, vn);
                        b.push_str(");");
                        b.push_str(&gen_named_map(fields, ""));
                        b.push_str("__s.end_map(); }");
                    }
                }
            }
            b.push('}');
            (name, b)
        }
    };
    format!(
        "#[automatically_derived] #[allow(unused, clippy::all)] \
         impl ::serde::Serialize for {name} {{ \
           fn serialize(&self, __s: &mut dyn ::serde::ser::Sink) {{ {body} }} \
         }}"
    )
}

fn gen_tuple_from_seq(path: &str, n: usize, seq_expr: &str) -> String {
    let mut b = format!(
        "{{ let __s = {seq_expr}.as_seq().ok_or_else(|| \
           ::serde::de::Error::expected(\"sequence for {path}\"))?; \
         if __s.len() != {n} {{ \
           return ::core::result::Result::Err(::serde::de::Error::custom(format!( \
             \"expected {n} elements for {path}, got {{}}\", __s.len()))); }} \
         ::core::result::Result::Ok({path}("
    );
    for i in 0..n {
        b.push_str(&format!("::serde::Deserialize::from_value(&__s[{i}])?,"));
    }
    b.push_str(")) }");
    b
}

fn gen_named_from_map(path: &str, fields: &[String], map_expr: &str) -> String {
    let mut b = format!(
        "{{ let __m = {map_expr}.as_map().ok_or_else(|| \
           ::serde::de::Error::expected(\"map for {path}\"))?; \
         ::core::result::Result::Ok({path} {{"
    );
    for f in fields {
        b.push_str(&format!(
            "{f}: ::serde::Deserialize::from_value(::serde::de::field(__m, "
        ));
        push_str_lit(&mut b, f);
        b.push_str(")?)?,");
    }
    b.push_str("}) }");
    b
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => format!("::core::result::Result::Ok({name})"),
                Fields::Tuple(1) => format!(
                    "::core::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))"
                ),
                Fields::Tuple(n) => gen_tuple_from_seq(name, *n, "__v"),
                Fields::Named(fields) => gen_named_from_map(name, fields, "__v"),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut b = String::from(
                "if let ::core::option::Option::Some(__s) = __v.as_str() { return match __s {",
            );
            for v in variants {
                if matches!(v.fields, Fields::Unit) {
                    push_str_lit(&mut b, &v.name);
                    b.push_str(&format!(
                        " => ::core::result::Result::Ok({name}::{}),",
                        v.name
                    ));
                }
            }
            b.push_str(&format!(
                "_ => ::core::result::Result::Err(::serde::de::Error::custom(format!( \
                   \"unknown variant `{{}}` of {name}\", __s))), }}; }}"
            ));
            b.push_str(
                "if let ::core::option::Option::Some((__tag, __inner)) = __v.as_tagged() { \
                 return match __tag {",
            );
            for v in variants {
                let path = format!("{name}::{}", v.name);
                match &v.fields {
                    Fields::Unit => {}
                    Fields::Tuple(1) => {
                        push_str_lit(&mut b, &v.name);
                        b.push_str(&format!(
                            " => ::core::result::Result::Ok({path}( \
                               ::serde::Deserialize::from_value(__inner)?)),"
                        ));
                    }
                    Fields::Tuple(n) => {
                        push_str_lit(&mut b, &v.name);
                        b.push_str(" => ");
                        b.push_str(&gen_tuple_from_seq(&path, *n, "__inner"));
                        b.push(',');
                    }
                    Fields::Named(fields) => {
                        push_str_lit(&mut b, &v.name);
                        b.push_str(" => ");
                        b.push_str(&gen_named_from_map(&path, fields, "__inner"));
                        b.push(',');
                    }
                }
            }
            b.push_str(&format!(
                "_ => ::core::result::Result::Err(::serde::de::Error::custom(format!( \
                   \"unknown variant `{{}}` of {name}\", __tag))), }}; }}"
            ));
            b.push_str(&format!(
                "::core::result::Result::Err(::serde::de::Error::expected(\"enum {name}\"))"
            ));
            (name, b)
        }
    };
    format!(
        "#[automatically_derived] #[allow(unused, clippy::all)] \
         impl ::serde::Deserialize for {name} {{ \
           fn from_value(__v: &::serde::value::Value) \
             -> ::core::result::Result<Self, ::serde::de::Error> {{ {body} }} \
         }}"
    )
}

/// Derives the shim's `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde derive shim: generated Serialize impl failed to parse")
}

/// Derives the shim's `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde derive shim: generated Deserialize impl failed to parse")
}
