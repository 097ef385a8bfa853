//! # fedsu-tensor
//!
//! A deliberately small, dependency-light CPU tensor library backing the
//! FedSU reproduction. It provides exactly what the neural-network substrate
//! (`fedsu-nn`) needs: owned `f32` n-d arrays, elementwise arithmetic,
//! reductions, 2-D matrix multiplication, convolution helpers (direct
//! kernels for stride-1 "same" convolutions, `im2col`/`col2im` lowering
//! for the rest), and a Kaiming initializer.
//!
//! The library favours explicitness over cleverness: every operation
//! validates shapes and returns a [`TensorError`] on mismatch (or provides a
//! `_unchecked`-free panicking convenience documented as such).
//!
//! ```
//! use fedsu_tensor::Tensor;
//!
//! # fn main() -> Result<(), fedsu_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::full(&[2, 2], 0.5);
//! let c = a.add(&b)?;
//! assert_eq!(c.data(), &[1.5, 2.5, 3.5, 4.5]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// No panic paths in library code: an index, `expect`, `panic!` or
// `unreachable!` fails `cargo clippy` (test code is exempt, see clippy.toml).
#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod alloc_stats;
mod conv;
mod error;
mod init;
pub mod invariant;
mod matmul;
pub mod par;
pub mod pool;
pub mod simd;
mod tensor;

pub use conv::{
    col2im_into, conv_same_forward, conv_same_input_grad, conv_same_weight_grad, im2col_into,
    ConvDims, SameConvScratch,
};
pub use error::TensorError;
pub use init::kaiming_uniform;
pub use matmul::{
    matmul, matmul_into, matmul_transpose_a, matmul_transpose_a_into, matmul_transpose_b,
    matmul_transpose_b_into, reference,
};
pub use par::{hardware_threads, kernel_threads};
pub use simd::{hardware_simd_level, set_simd_level, simd_level, SimdLevel};
pub use pool::BufferPool;
pub use tensor::Tensor;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
