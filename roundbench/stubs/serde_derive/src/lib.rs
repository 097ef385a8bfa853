//! No-op `Serialize` / `Deserialize` derives for the offline `serde`
//! stand-in: they register the `#[serde(..)]` helper attribute and emit no
//! code.

use proc_macro::TokenStream;

/// Accepts the input and emits nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts the input and emits nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
