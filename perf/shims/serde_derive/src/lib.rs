//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! (no `syn`, no `quote`: neither resolves without a registry).
//!
//! It handles what the paxi crates derive on: structs (named, tuple, unit)
//! and enums (unit, newtype, tuple and struct variants), with type
//! parameters, and no `#[serde(...)]` attributes. The generated code calls
//! the same `Serializer` / `Deserializer` methods in the same order as the
//! published derive does for a non-self-describing format, so `paxi-codec`
//! sees the call sequence it was written for.

extern crate proc_macro;

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Named(Vec<(String, String)>),
    Tuple(Vec<String>),
    Unit,
}

enum Data {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct Input {
    name: String,
    /// Parameter list as declared, bounds included: `M: Clone, 'a`.
    params: Vec<Param>,
    where_clause: String,
    data: Data,
}

struct Param {
    /// `M`, `'a` or `const N: usize`.
    decl: String,
    /// `M`, `'a` or `N`.
    name: String,
    is_type: bool,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Input) -> String) -> TokenStream {
    let code = match parse(input) {
        Ok(parsed) => gen(&parsed),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse()
        .expect("serde_derive stand-in generated unparsable code")
}

// ---- parsing ----------------------------------------------------------------

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(tt: Option<&TokenTree>, ch: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == ch)
}

/// Skips `#[...]` attributes (doc comments included) and a `pub(...)`.
fn skip_attrs_and_vis(tokens: &mut Tokens) {
    loop {
        if is_punct(tokens.peek(), '#') {
            tokens.next();
            tokens.next();
            continue;
        }
        if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
            tokens.next();
            if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                tokens.next();
            }
            continue;
        }
        return;
    }
}

/// Collects tokens up to a `,` outside any `<...>`, consuming the comma.
fn take_until_comma(tokens: &mut Tokens) -> String {
    let mut depth = 0i32;
    let mut out = Vec::new();
    while let Some(tt) = tokens.peek() {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                ',' if depth == 0 => {
                    tokens.next();
                    break;
                }
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
        }
        out.push(tokens.next().expect("peeked"));
    }
    out.into_iter().collect::<TokenStream>().to_string()
}

fn parse_named(body: TokenStream) -> Result<Vec<(String, String)>, String> {
    let mut tokens = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut tokens);
        let name = match tokens.next() {
            None => return Ok(fields),
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => return Err(format!("expected a field name, found `{other}`")),
        };
        if !is_punct(tokens.next().as_ref(), ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        fields.push((name, take_until_comma(&mut tokens)));
    }
}

fn parse_tuple(body: TokenStream) -> Vec<String> {
    let mut tokens = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut tokens);
        if tokens.peek().is_none() {
            return fields;
        }
        fields.push(take_until_comma(&mut tokens));
    }
}

fn parse_variants(body: TokenStream) -> Result<Vec<(String, Fields)>, String> {
    let mut tokens = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut tokens);
        let name = match tokens.next() {
            None => return Ok(variants),
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => return Err(format!("expected a variant name, found `{other}`")),
        };
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let stream = g.stream();
                tokens.next();
                Fields::Named(parse_named(stream)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let stream = g.stream();
                tokens.next();
                Fields::Tuple(parse_tuple(stream))
            }
            _ => Fields::Unit,
        };
        // An explicit discriminant (`= 3`) and the separating comma.
        take_until_comma(&mut tokens);
        variants.push((name, fields));
    }
}

fn parse_params(tokens: &mut Tokens) -> Result<Vec<Param>, String> {
    if !is_punct(tokens.peek(), '<') {
        return Ok(Vec::new());
    }
    tokens.next();
    let mut depth = 1i32;
    let mut inner = Vec::new();
    for tt in tokens.by_ref() {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
        }
        if depth == 0 {
            break;
        }
        inner.push(tt);
    }
    let mut inner = inner
        .into_iter()
        .collect::<TokenStream>()
        .into_iter()
        .peekable();
    let mut params = Vec::new();
    while inner.peek().is_some() {
        let decl_tokens: TokenStream = take_until_comma(&mut inner)
            .parse()
            .map_err(|_| "unparsable generic parameter".to_string())?;
        // Drop a default (`= T`): it may not be repeated on an impl.
        let mut decl = Vec::new();
        for tt in decl_tokens {
            if is_punct(Some(&tt), '=') {
                break;
            }
            decl.push(tt);
        }
        let (name, is_type) = match decl.as_slice() {
            [TokenTree::Punct(p), TokenTree::Ident(i), ..] if p.as_char() == '\'' => {
                (format!("'{i}"), false)
            }
            [TokenTree::Ident(kw), TokenTree::Ident(i), ..] if kw.to_string() == "const" => {
                (i.to_string(), false)
            }
            [TokenTree::Ident(i), ..] => (i.to_string(), true),
            _ => return Err("unsupported generic parameter".to_string()),
        };
        let decl = decl.into_iter().collect::<TokenStream>().to_string();
        params.push(Param {
            decl,
            name,
            is_type,
        });
    }
    Ok(params)
}

fn parse(input: TokenStream) -> Result<Input, String> {
    let mut tokens = input.into_iter().peekable();
    skip_attrs_and_vis(&mut tokens);
    let kind = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected `struct` or `enum`".to_string()),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected a type name".to_string()),
    };
    let params = parse_params(&mut tokens)?;

    // Whatever stands between the generics and the body is a where clause; a
    // tuple struct carries it after the body.
    let mut where_tokens = Vec::new();
    let mut body = None;
    for tt in tokens {
        match tt {
            TokenTree::Group(g)
                if body.is_none()
                    && matches!(g.delimiter(), Delimiter::Brace | Delimiter::Parenthesis) =>
            {
                body = Some(g)
            }
            TokenTree::Punct(p) if p.as_char() == ';' => {}
            other => where_tokens.push(other),
        }
    }
    let where_clause = where_tokens
        .into_iter()
        .collect::<TokenStream>()
        .to_string();

    let data = match (kind.as_str(), body) {
        ("struct", None) => Data::Struct(Fields::Unit),
        ("struct", Some(g)) if g.delimiter() == Delimiter::Brace => {
            Data::Struct(Fields::Named(parse_named(g.stream())?))
        }
        ("struct", Some(g)) => Data::Struct(Fields::Tuple(parse_tuple(g.stream()))),
        ("enum", Some(g)) if g.delimiter() == Delimiter::Brace => {
            Data::Enum(parse_variants(g.stream())?)
        }
        _ => return Err(format!("cannot derive serde traits for this `{kind}`")),
    };
    Ok(Input {
        name,
        params,
        where_clause,
        data,
    })
}

// ---- shared code generation -------------------------------------------------

impl Input {
    /// `<'de, M: Clone + BOUND, 'a>`: declared parameters, each type
    /// parameter additionally bounded by `bound`, after an optional leading
    /// lifetime.
    fn impl_generics(&self, lead: Option<&str>, bound: &str) -> String {
        let mut parts: Vec<String> = lead.map(str::to_string).into_iter().collect();
        for p in &self.params {
            parts.push(match (p.is_type, p.decl.contains(':')) {
                (false, _) => p.decl.clone(),
                (true, true) => format!("{} + {bound}", p.decl),
                (true, false) => format!("{}: {bound}", p.decl),
            });
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("<{}>", parts.join(", "))
        }
    }

    /// `<M, 'a>`: parameter names only.
    fn ty_generics(&self) -> String {
        if self.params.is_empty() {
            return String::new();
        }
        let names: Vec<&str> = self.params.iter().map(|p| p.name.as_str()).collect();
        format!("<{}>", names.join(", "))
    }
}

/// The `'de` declaration for a `Deserialize` impl: `'de` must outlive every
/// lifetime a field type names (`category: &'static str` borrows from the
/// input for `'static`), as the published derive arranges for `&str` fields.
fn de_lifetime(input: &Input) -> String {
    let all_fields: Vec<&Fields> = match &input.data {
        Data::Struct(fields) => vec![fields],
        Data::Enum(variants) => variants.iter().map(|(_, fields)| fields).collect(),
    };
    let mut outlived: Vec<String> = Vec::new();
    for fields in all_fields {
        let tys: Vec<&String> = match fields {
            Fields::Named(named) => named.iter().map(|(_, ty)| ty).collect(),
            Fields::Tuple(tys) => tys.iter().collect(),
            Fields::Unit => Vec::new(),
        };
        for ty in tys {
            for (at, _) in ty.match_indices('\'') {
                let name: String = ty[at + 1..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                let lifetime = format!("'{name}");
                // `'x'` is a char literal (in a const expression), not a lifetime.
                let is_char = ty[at + 1 + name.len()..].starts_with('\'');
                if !name.is_empty() && !is_char && !outlived.contains(&lifetime) {
                    outlived.push(lifetime);
                }
            }
        }
    }
    if outlived.is_empty() {
        "'de".to_string()
    } else {
        format!("'de: {}", outlived.join(" + "))
    }
}

fn str_list(items: impl Iterator<Item = impl AsRef<str>>) -> String {
    let quoted: Vec<String> = items.map(|s| format!("{:?}", s.as_ref())).collect();
    format!("&[{}]", quoted.join(", "))
}

// ---- Serialize ----------------------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.data {
        Data::Struct(Fields::Unit) => {
            format!("::serde::Serializer::serialize_unit_struct(__serializer, {name:?})")
        }
        Data::Struct(Fields::Tuple(tys)) if tys.len() == 1 => format!(
            "::serde::Serializer::serialize_newtype_struct(__serializer, {name:?}, &self.0)"
        ),
        Data::Struct(Fields::Tuple(tys)) => {
            let mut s = format!(
                "let mut __state = ::serde::Serializer::serialize_tuple_struct(__serializer, {name:?}, {})?;\n",
                tys.len()
            );
            for i in 0..tys.len() {
                s += &format!(
                    "::serde::ser::SerializeTupleStruct::serialize_field(&mut __state, &self.{i})?;\n"
                );
            }
            s + "::serde::ser::SerializeTupleStruct::end(__state)"
        }
        Data::Struct(Fields::Named(fields)) => {
            let mut s = format!(
                "let mut __state = ::serde::Serializer::serialize_struct(__serializer, {name:?}, {})?;\n",
                fields.len()
            );
            for (f, _) in fields {
                s += &format!(
                    "::serde::ser::SerializeStruct::serialize_field(&mut __state, {f:?}, &self.{f})?;\n"
                );
            }
            s + "::serde::ser::SerializeStruct::end(__state)"
        }
        Data::Enum(variants) => {
            let mut s = "match *self {\n".to_string();
            for (idx, (v, fields)) in variants.iter().enumerate() {
                s += &match fields {
                    Fields::Unit => format!(
                        "{name}::{v} => ::serde::Serializer::serialize_unit_variant(__serializer, {name:?}, {idx}u32, {v:?}),\n"
                    ),
                    Fields::Tuple(tys) if tys.len() == 1 => format!(
                        "{name}::{v}(ref __f0) => ::serde::Serializer::serialize_newtype_variant(__serializer, {name:?}, {idx}u32, {v:?}, __f0),\n"
                    ),
                    Fields::Tuple(tys) => {
                        let binds: Vec<String> =
                            (0..tys.len()).map(|i| format!("ref __f{i}")).collect();
                        let mut arm = format!(
                            "{name}::{v}({}) => {{\nlet mut __state = ::serde::Serializer::serialize_tuple_variant(__serializer, {name:?}, {idx}u32, {v:?}, {})?;\n",
                            binds.join(", "),
                            tys.len()
                        );
                        for i in 0..tys.len() {
                            arm += &format!(
                                "::serde::ser::SerializeTupleVariant::serialize_field(&mut __state, __f{i})?;\n"
                            );
                        }
                        arm + "::serde::ser::SerializeTupleVariant::end(__state)\n}\n"
                    }
                    Fields::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|(f, _)| format!("ref {f}")).collect();
                        let mut arm = format!(
                            "{name}::{v} {{ {} }} => {{\nlet mut __state = ::serde::Serializer::serialize_struct_variant(__serializer, {name:?}, {idx}u32, {v:?}, {})?;\n",
                            binds.join(", "),
                            fields.len()
                        );
                        for (f, _) in fields {
                            arm += &format!(
                                "::serde::ser::SerializeStructVariant::serialize_field(&mut __state, {f:?}, {f})?;\n"
                            );
                        }
                        arm + "::serde::ser::SerializeStructVariant::end(__state)\n}\n"
                    }
                };
            }
            s + "}"
        }
    };
    format!(
        "#[automatically_derived]
impl{impl_generics} ::serde::Serialize for {name}{ty_generics} {where_clause} {{
    fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S)
        -> ::core::result::Result<__S::Ok, __S::Error>
    {{
        {body}
    }}
}}",
        impl_generics = input.impl_generics(None, "::serde::Serialize"),
        ty_generics = input.ty_generics(),
        where_clause = input.where_clause,
    )
}

// ---- Deserialize --------------------------------------------------------------

/// A visitor type `visitor` whose `visit_seq` reads `fields` in order and
/// builds `ctor` (a struct or variant path).
fn gen_seq_visitor(
    input: &Input,
    visitor: &str,
    ctor: &str,
    what: &str,
    fields: &Fields,
) -> String {
    let (tys, build): (Vec<&String>, String) = match fields {
        Fields::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, (f, _))| format!("{f}: __f{i}"))
                .collect();
            (
                fields.iter().map(|(_, t)| t).collect(),
                format!("{ctor} {{ {} }}", inits.join(", ")),
            )
        }
        Fields::Tuple(tys) => {
            let inits: Vec<String> = (0..tys.len()).map(|i| format!("__f{i}")).collect();
            (
                tys.iter().collect(),
                format!("{ctor}({})", inits.join(", ")),
            )
        }
        Fields::Unit => (Vec::new(), ctor.to_string()),
    };
    let expecting = format!("{what} with {} elements", tys.len());
    let mut reads = String::new();
    for (i, ty) in tys.iter().enumerate() {
        reads += &format!(
            "let __f{i} = match ::serde::de::SeqAccess::next_element::<{ty}>(&mut __seq)? {{
                ::core::option::Option::Some(__value) => __value,
                ::core::option::Option::None => return ::core::result::Result::Err(
                    ::serde::de::Error::invalid_length({i}usize, &{expecting:?})),
            }};\n"
        );
    }
    let name = &input.name;
    format!(
        "struct {visitor}{ty_generics}(::core::marker::PhantomData<fn() -> {name}{ty_generics}>);
impl{impl_generics} ::serde::de::Visitor<'de> for {visitor}{ty_generics} {where_clause} {{
    type Value = {name}{ty_generics};
    fn expecting(&self, __f: &mut ::core::fmt::Formatter) -> ::core::fmt::Result {{
        ::core::fmt::Formatter::write_str(__f, {what:?})
    }}
    #[inline]
    fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)
        -> ::core::result::Result<Self::Value, __A::Error>
    {{
        {reads}
        ::core::result::Result::Ok({build})
    }}
}}\n",
        impl_generics = input.impl_generics(Some(&de_lifetime(input)), "::serde::Deserialize<'de>"),
        ty_generics = input.ty_generics(),
        where_clause = input.where_clause,
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let impl_generics = input.impl_generics(Some(&de_lifetime(input)), "::serde::Deserialize<'de>");
    let ty_generics = input.ty_generics();
    let where_clause = &input.where_clause;
    let marker = "::core::marker::PhantomData";

    let body = match &input.data {
        Data::Struct(Fields::Unit) => format!(
            "struct __Visitor{ty_generics}({marker}<fn() -> {name}{ty_generics}>);
impl{impl_generics} ::serde::de::Visitor<'de> for __Visitor{ty_generics} {where_clause} {{
    type Value = {name}{ty_generics};
    fn expecting(&self, __f: &mut ::core::fmt::Formatter) -> ::core::fmt::Result {{
        ::core::fmt::Formatter::write_str(__f, \"unit struct {name}\")
    }}
    fn visit_unit<__E: ::serde::de::Error>(self) -> ::core::result::Result<Self::Value, __E> {{
        ::core::result::Result::Ok({name})
    }}
}}
::serde::Deserializer::deserialize_unit_struct(__deserializer, {name:?}, __Visitor({marker}))"
        ),
        Data::Struct(Fields::Tuple(tys)) if tys.len() == 1 => {
            let ty = &tys[0];
            format!(
                "struct __Visitor{ty_generics}({marker}<fn() -> {name}{ty_generics}>);
impl{impl_generics} ::serde::de::Visitor<'de> for __Visitor{ty_generics} {where_clause} {{
    type Value = {name}{ty_generics};
    fn expecting(&self, __f: &mut ::core::fmt::Formatter) -> ::core::fmt::Result {{
        ::core::fmt::Formatter::write_str(__f, \"tuple struct {name}\")
    }}
    #[inline]
    fn visit_newtype_struct<__D: ::serde::Deserializer<'de>>(self, __d: __D)
        -> ::core::result::Result<Self::Value, __D::Error>
    {{
        ::core::result::Result::Ok({name}(<{ty} as ::serde::Deserialize>::deserialize(__d)?))
    }}
    #[inline]
    fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)
        -> ::core::result::Result<Self::Value, __A::Error>
    {{
        match ::serde::de::SeqAccess::next_element::<{ty}>(&mut __seq)? {{
            ::core::option::Option::Some(__value) => ::core::result::Result::Ok({name}(__value)),
            ::core::option::Option::None => ::core::result::Result::Err(
                ::serde::de::Error::invalid_length(0usize, &\"tuple struct {name} with 1 element\")),
        }}
    }}
}}
::serde::Deserializer::deserialize_newtype_struct(__deserializer, {name:?}, __Visitor({marker}))"
            )
        }
        Data::Struct(fields @ Fields::Tuple(tys)) => {
            gen_seq_visitor(input, "__Visitor", name, &format!("tuple struct {name}"), fields)
                + &format!(
                    "::serde::Deserializer::deserialize_tuple_struct(__deserializer, {name:?}, {}, __Visitor({marker}))",
                    tys.len()
                )
        }
        Data::Struct(fields @ Fields::Named(named)) => {
            gen_seq_visitor(input, "__Visitor", name, &format!("struct {name}"), fields)
                + &format!(
                    "::serde::Deserializer::deserialize_struct(__deserializer, {name:?}, {}, __Visitor({marker}))",
                    str_list(named.iter().map(|(f, _)| f))
                )
        }
        Data::Enum(variants) => {
            let count = variants.len();
            let mut helpers = format!(
                "struct __Field(u32);
struct __FieldVisitor;
impl<'de> ::serde::de::Visitor<'de> for __FieldVisitor {{
    type Value = __Field;
    fn expecting(&self, __f: &mut ::core::fmt::Formatter) -> ::core::fmt::Result {{
        ::core::fmt::Formatter::write_str(__f, \"variant identifier\")
    }}
    #[inline]
    fn visit_u64<__E: ::serde::de::Error>(self, __value: u64)
        -> ::core::result::Result<__Field, __E>
    {{
        if __value < {count}u64 {{
            ::core::result::Result::Ok(__Field(__value as u32))
        }} else {{
            ::core::result::Result::Err(::serde::de::Error::custom(::core::format_args!(
                \"invalid value: variant index {{}}, expected variant index 0 <= i < {count}\",
                __value)))
        }}
    }}
}}
impl<'de> ::serde::Deserialize<'de> for __Field {{
    #[inline]
    fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D)
        -> ::core::result::Result<Self, __D::Error>
    {{
        ::serde::Deserializer::deserialize_identifier(__d, __FieldVisitor)
    }}
}}\n"
            );
            let mut arms = String::new();
            for (idx, (v, fields)) in variants.iter().enumerate() {
                let what = format!("variant {name}::{v}");
                arms += &match fields {
                    Fields::Unit => format!(
                        "{idx}u32 => {{
                            ::serde::de::VariantAccess::unit_variant(__variant)?;
                            ::core::result::Result::Ok({name}::{v})
                        }}\n"
                    ),
                    Fields::Tuple(tys) if tys.len() == 1 => format!(
                        "{idx}u32 => ::core::result::Result::map(
                            ::serde::de::VariantAccess::newtype_variant::<{}>(__variant),
                            {name}::{v}),\n",
                        tys[0]
                    ),
                    Fields::Tuple(tys) => {
                        helpers += &gen_seq_visitor(
                            input,
                            &format!("__Variant{idx}"),
                            &format!("{name}::{v}"),
                            &what,
                            fields,
                        );
                        format!(
                            "{idx}u32 => ::serde::de::VariantAccess::tuple_variant(__variant, {}, __Variant{idx}({marker})),\n",
                            tys.len()
                        )
                    }
                    Fields::Named(named) => {
                        helpers += &gen_seq_visitor(
                            input,
                            &format!("__Variant{idx}"),
                            &format!("{name}::{v}"),
                            &what,
                            fields,
                        );
                        format!(
                            "{idx}u32 => ::serde::de::VariantAccess::struct_variant(__variant, {}, __Variant{idx}({marker})),\n",
                            str_list(named.iter().map(|(f, _)| f))
                        )
                    }
                };
            }
            format!(
                "{helpers}
struct __Visitor{ty_generics}({marker}<fn() -> {name}{ty_generics}>);
impl{impl_generics} ::serde::de::Visitor<'de> for __Visitor{ty_generics} {where_clause} {{
    type Value = {name}{ty_generics};
    fn expecting(&self, __f: &mut ::core::fmt::Formatter) -> ::core::fmt::Result {{
        ::core::fmt::Formatter::write_str(__f, \"enum {name}\")
    }}
    #[inline]
    fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A)
        -> ::core::result::Result<Self::Value, __A::Error>
    {{
        let (__Field(__index), __variant) = ::serde::de::EnumAccess::variant::<__Field>(__data)?;
        match __index {{
            {arms}
            _ => ::core::unreachable!(\"__FieldVisitor bounds the variant index\"),
        }}
    }}
}}
::serde::Deserializer::deserialize_enum(__deserializer, {name:?}, {variant_names}, __Visitor({marker}))",
                variant_names = str_list(variants.iter().map(|(v, _)| v)),
            )
        }
    };
    format!(
        "#[automatically_derived]
impl{impl_generics} ::serde::Deserialize<'de> for {name}{ty_generics} {where_clause} {{
    fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D)
        -> ::core::result::Result<Self, __D::Error>
    {{
        {body}
    }}
}}"
    )
}
