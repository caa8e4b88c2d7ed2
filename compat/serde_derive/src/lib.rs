//! Derive macros for the vendored serde shim, plus the binary wire codec.
//!
//! * `Serialize` / `Deserialize` build and read the shim's JSON-shaped
//!   `Value` tree.
//! * `Wire` implements `gridband_serve::wire::Wire`, the daemon's binary
//!   frame codec: fields in declaration order, an enum's tag is its
//!   variant index as one byte, and an unknown tag decodes to
//!   `WireError::UnknownTag`. Its one attribute, `#[wire(trailing)]`,
//!   marks a field an older frame may omit; trailing fields must form
//!   the tail of their field list, and any other `#[wire(...)]` key is
//!   a compile error. The generated impl names the trait by its
//!   absolute path, so the deriving crate must be able to see
//!   `::gridband_serve`.
//!
//! The offline build has no `syn`/`quote`, so the item is parsed directly
//! from the raw `proc_macro` token stream. Only the shapes this workspace
//! actually derives on are supported: non-generic structs (named, tuple,
//! unit) and non-generic enums whose variants are unit, tuple, or struct
//! shaped. Field *types* never need parsing — generated code lets type
//! inference pick the right impl — so the parser only extracts names,
//! arities and `#[wire(...)]` keys.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The shape of the deriving item.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// The shape of a struct body or enum variant payload.
enum Fields {
    Unit,
    Named(Vec<Field>),
    Tuple(Vec<Field>),
}

/// One field: its name (`0`, `1`, … in a tuple) and its `#[wire(...)]` keys.
struct Field {
    name: String,
    wire: Vec<String>,
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

#[proc_macro_derive(Wire, attributes(wire))]
pub fn derive_wire(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_wire(&item).parse().expect("generated impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    no_wire_keys(take_attrs_and_vis(&tokens, &mut i));
    let kw = ident_at(&tokens, i).unwrap_or_else(|| panic!("expected struct/enum"));
    i += 1;
    let name = ident_at(&tokens, i)
        .unwrap_or_else(|| panic!("expected a name after `{kw}`"))
        .trim_start_matches("r#")
        .to_string();
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    match kw.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(parse_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("unsupported struct body for `{name}`: {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("unsupported enum body for `{name}`: {other:?}"),
            };
            Item::Enum {
                name,
                variants: parse_variants(body),
            }
        }
        other => panic!("serde shim derive supports struct/enum, got `{other}`"),
    }
}

fn ident_at(tokens: &[TokenTree], i: usize) -> Option<String> {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

/// Advance past `#[...]` attributes and a `pub` / `pub(...)` visibility,
/// returning the keys of any `#[wire(...)]` among the attributes.
fn take_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) -> Vec<String> {
    let mut wire = Vec::new();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
                    wire.extend(wire_keys(g.stream()));
                }
                *i += 2; // '#' + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return wire,
        }
    }
}

/// `wire(a, b = 1)` → `["a", "b=1"]`. Any other `wire` form is returned
/// whole, so it fails as an unknown key; other attributes yield nothing.
fn wire_keys(attr: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    let joined = |ts: &[TokenTree]| ts.iter().map(|t| t.to_string()).collect::<String>();
    match tokens.as_slice() {
        [TokenTree::Ident(id), TokenTree::Group(args)]
            if id.to_string() == "wire" && args.delimiter() == Delimiter::Parenthesis =>
        {
            let args: Vec<TokenTree> = args.stream().into_iter().collect();
            args.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ','))
                .filter(|key| !key.is_empty())
                .map(joined)
                .collect()
        }
        [TokenTree::Ident(id), ..] if id.to_string() == "wire" => vec![joined(&tokens)],
        _ => Vec::new(),
    }
}

/// `#[wire(...)]` belongs on fields; on an item or a variant it is an error.
fn no_wire_keys(keys: Vec<String>) {
    if let Some(key) = keys.first() {
        panic!("#[wire({key})] is a field attribute");
    }
}

/// `{ a: T, b: U }` → fields. Commas inside `<...>` belong to types.
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let wire = take_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = ident_at(&tokens, i)
            .unwrap_or_else(|| panic!("expected field name, got {:?}", tokens[i]));
        let name = name.trim_start_matches("r#").to_string();
        fields.push(Field { name, wire });
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("expected `:` after field name, got {other:?}"),
        }
        skip_type_to_comma(&tokens, &mut i);
    }
    fields
}

/// `(pub T, U)` → fields named by position.
fn parse_tuple_fields(body: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let wire = take_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = fields.len().to_string();
        fields.push(Field { name, wire });
        skip_type_to_comma(&tokens, &mut i);
    }
    fields
}

/// Consume type tokens up to (and past) the next comma at angle-depth 0.
fn skip_type_to_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while *i < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[*i] {
            match p.as_char() {
                ',' if angle_depth == 0 => {
                    *i += 1;
                    return;
                }
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                '-' => {
                    // `->` in fn-pointer types: skip the '>' too.
                    if matches!(tokens.get(*i + 1), Some(TokenTree::Punct(q)) if q.as_char() == '>')
                    {
                        *i += 1;
                    }
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_variants(body: TokenStream) -> Vec<(String, Fields)> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        no_wire_keys(take_attrs_and_vis(&tokens, &mut i));
        if i >= tokens.len() {
            break;
        }
        let name = ident_at(&tokens, i)
            .unwrap_or_else(|| panic!("expected variant name, got {:?}", tokens[i]));
        let name = name.trim_start_matches("r#").to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(parse_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            panic!("serde shim derive: explicit discriminants are not supported");
        }
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push((name, fields));
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation (as source strings, then re-parsed)
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "::serde::Value::Null".to_string(),
                Fields::Named(fs) => object_expr(fs.iter().map(|f| {
                    (
                        f.name.clone(),
                        format!("::serde::Serialize::to_value(&self.{})", f.name),
                    )
                })),
                Fields::Tuple(fs) if fs.len() == 1 => {
                    "::serde::Serialize::to_value(&self.0)".to_string()
                }
                Fields::Tuple(fs) => array_expr(
                    fs.iter()
                        .map(|f| format!("::serde::Serialize::to_value(&self.{})", f.name)),
                ),
            };
            impl_serialize(name, &body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{v} => ::serde::Value::String(::std::string::String::from(\"{v}\")),\n"
                    )),
                    Fields::Tuple(fs) if fs.len() == 1 => arms.push_str(&format!(
                        "{name}::{v}(__f0) => {},\n",
                        tagged(v, "::serde::Serialize::to_value(__f0)")
                    )),
                    Fields::Tuple(fs) => {
                        let binds: Vec<String> = (0..fs.len()).map(|k| format!("__f{k}")).collect();
                        let payload = array_expr(
                            binds.iter().map(|b| format!("::serde::Serialize::to_value({b})")),
                        );
                        arms.push_str(&format!(
                            "{name}::{v}({}) => {},\n",
                            binds.join(", "),
                            tagged(v, &payload)
                        ));
                    }
                    Fields::Named(fs) => {
                        let names: Vec<&str> = fs.iter().map(|f| f.name.as_str()).collect();
                        let payload = object_expr(names.iter().map(|f| {
                            (f.to_string(), format!("::serde::Serialize::to_value({f})"))
                        }));
                        arms.push_str(&format!(
                            "{name}::{v} {{ {} }} => {},\n",
                            names.join(", "),
                            tagged(v, &payload)
                        ));
                    }
                }
            }
            impl_serialize(name, &format!("match self {{\n{arms}\n}}"))
        }
    }
}

fn impl_serialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

/// `{"Variant": payload}`
fn tagged(variant: &str, payload: &str) -> String {
    object_expr(std::iter::once((variant.to_string(), payload.to_string())))
}

fn object_expr(entries: impl Iterator<Item = (String, String)>) -> String {
    let inner: Vec<String> = entries
        .map(|(k, v)| format!("(::std::string::String::from(\"{k}\"), {v})"))
        .collect();
    format!(
        "::serde::Value::Object(<[_]>::into_vec(::std::boxed::Box::new([{}])))",
        inner.join(", ")
    )
}

fn array_expr(items: impl Iterator<Item = String>) -> String {
    let inner: Vec<String> = items.collect();
    format!(
        "::serde::Value::Array(<[_]>::into_vec(::std::boxed::Box::new([{}])))",
        inner.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => format!(
                    "match __v {{\n\
                         ::serde::Value::Null => ::std::result::Result::Ok({name}),\n\
                         __other => ::std::result::Result::Err(::serde::Error::ty(\"null\", __other, \"{name}\")),\n\
                     }}"
                ),
                Fields::Named(fs) => {
                    let fields_src: Vec<String> = fs.iter().map(de_field).collect();
                    format!(
                        "let __o = __v.as_object().ok_or_else(|| ::serde::Error::ty(\"object\", __v, \"{name}\"))?;\n\
                         ::std::result::Result::Ok({name} {{ {} }})",
                        fields_src.join("\n")
                    )
                }
                Fields::Tuple(fs) if fs.len() == 1 => format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))"
                ),
                Fields::Tuple(fs) => tuple_from_array(name, fs.len()),
            };
            impl_deserialize(name, &body)
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => unit_arms.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}),\n"
                    )),
                    Fields::Tuple(fs) if fs.len() == 1 => data_arms.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}(::serde::Deserialize::from_value(__val)?)),\n"
                    )),
                    Fields::Tuple(fs) => {
                        let n = fs.len();
                        let elems: Vec<String> = (0..n)
                            .map(|k| format!("::serde::Deserialize::from_value(&__a[{k}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{v}\" => {{\n\
                                 let __a = __val.as_array().ok_or_else(|| ::serde::Error::ty(\"array\", __val, \"{name}::{v}\"))?;\n\
                                 if __a.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::msg(\"wrong tuple arity for {name}::{v}\")); }}\n\
                                 ::std::result::Result::Ok({name}::{v}({}))\n\
                             }},\n",
                            elems.join(", ")
                        ));
                    }
                    Fields::Named(fs) => {
                        let fields_src: Vec<String> = fs.iter().map(de_field).collect();
                        data_arms.push_str(&format!(
                            "\"{v}\" => {{\n\
                                 let __o = __val.as_object().ok_or_else(|| ::serde::Error::ty(\"object\", __val, \"{name}::{v}\"))?;\n\
                                 ::std::result::Result::Ok({name}::{v} {{ {} }})\n\
                             }},\n",
                            fields_src.join("\n")
                        ));
                    }
                }
            }
            let body = format!(
                "match __v {{\n\
                     ::serde::Value::String(__s) => match __s.as_str() {{\n\
                         {unit_arms}\n\
                         __other => ::std::result::Result::Err(::serde::Error::msg(\
                             ::std::format!(\"unknown unit variant `{{__other}}` for {name}\"))),\n\
                     }},\n\
                     ::serde::Value::Object(__entries) if __entries.len() == 1 => {{\n\
                         let (__tag, __val) = &__entries[0];\n\
                         match __tag.as_str() {{\n\
                             {data_arms}\n\
                             __other => ::std::result::Result::Err(::serde::Error::msg(\
                                 ::std::format!(\"unknown variant `{{__other}}` for {name}\"))),\n\
                         }}\n\
                     }},\n\
                     __other => ::std::result::Result::Err(::serde::Error::ty(\"variant\", __other, \"{name}\")),\n\
                 }}"
            );
            impl_deserialize(name, &body)
        }
    }
}

/// `name: ::serde::de_field(__o, "name")?,`
fn de_field(f: &Field) -> String {
    format!("{0}: ::serde::de_field(__o, \"{0}\")?,", f.name)
}

fn tuple_from_array(name: &str, n: usize) -> String {
    let elems: Vec<String> = (0..n)
        .map(|k| format!("::serde::Deserialize::from_value(&__a[{k}])?"))
        .collect();
    format!(
        "let __a = __v.as_array().ok_or_else(|| ::serde::Error::ty(\"array\", __v, \"{name}\"))?;\n\
         if __a.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::msg(\"wrong tuple arity for {name}\")); }}\n\
         ::std::result::Result::Ok({name}({}))",
        elems.join(", ")
    )
}

fn impl_deserialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

// ---------------------------------------------------------------------------
// The binary wire codec (`gridband_serve::wire`)
// ---------------------------------------------------------------------------

const WIRE: &str = "::gridband_serve::wire";

fn gen_wire(item: &Item) -> String {
    let (name, put, get) = match item {
        Item::Struct { name, fields } => {
            let (pat, put, value) = wire_fields(name, fields);
            let put = format!("let {pat} = self;\n{put}");
            (name, put, format!("::std::result::Result::Ok({value})"))
        }
        Item::Enum { name, variants } => {
            assert!(
                variants.len() <= 256,
                "`{name}` has more variants than a tag byte holds"
            );
            let mut put_arms = String::new();
            let mut get_arms = String::new();
            for (tag, (v, fields)) in variants.iter().enumerate() {
                let (pat, put, value) = wire_fields(&format!("{name}::{v}"), fields);
                put_arms.push_str(&format!("{pat} => {{ __out.push({tag}u8);\n{put} }}\n"));
                get_arms.push_str(&format!("{tag}u8 => ::std::result::Result::Ok({value}),\n"));
            }
            let get = format!(
                "match <u8 as {WIRE}::Wire>::get(__r)? {{\n\
                     {get_arms}\
                     __tag => ::std::result::Result::Err({WIRE}::WireError::UnknownTag(__tag)),\n\
                 }}"
            );
            (name, format!("match self {{\n{put_arms}}}"), get)
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl {WIRE}::Wire for {name} {{\n\
             fn put(&self, __out: &mut ::std::vec::Vec<u8>) {{ {put} }}\n\
             fn get(__r: &mut {WIRE}::Reader<'_>) -> ::std::result::Result<Self, {WIRE}::WireError> {{\n\
                 {get}\n\
             }}\n\
         }}"
    )
}

/// For the struct or variant at `path`: the pattern binding its fields,
/// the statements writing them in order, and the expression reading them
/// back, all in braced form (`T { 0: x }` names a tuple field too).
/// Enforces the attribute rules: `trailing` is the only key, and
/// trailing fields form the tail of the list.
fn wire_fields(path: &str, fields: &Fields) -> (String, String, String) {
    let fs: &[Field] = match fields {
        Fields::Unit => &[],
        Fields::Named(fs) | Fields::Tuple(fs) => fs,
    };
    let (mut binds, mut put, mut get) = (Vec::new(), String::new(), Vec::new());
    let mut in_tail = false;
    for (k, f) in fs.iter().enumerate() {
        if let Some(key) = f.wire.iter().find(|key| *key != "trailing") {
            panic!("unknown attribute #[wire({key})] on `{path}`; the only key is `trailing`");
        }
        let trailing = !f.wire.is_empty();
        if in_tail && !trailing {
            panic!(
                "#[wire(trailing)] fields must come last in `{path}`, but `{}` follows one",
                f.name
            );
        }
        in_tail = trailing;
        let (put_fn, get_fn) = if trailing {
            ("put_trailing", "get_trailing")
        } else {
            ("put", "get")
        };
        put.push_str(&format!("{WIRE}::Wire::{put_fn}(__f{k}, __out);\n"));
        binds.push(format!("{}: __f{k}", f.name));
        get.push(format!("{}: {WIRE}::Wire::{get_fn}(__r)?", f.name));
    }
    let list = |items: Vec<String>| format!("{path} {{ {} }}", items.join(", "));
    (list(binds), put, list(get))
}
