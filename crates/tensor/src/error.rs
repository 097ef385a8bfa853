use std::fmt;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Shape of the left/first operand.
        left: Vec<usize>,
        /// Shape of the right/second operand.
        right: Vec<usize>,
        /// Operation that was attempted.
        op: &'static str,
    },
    /// A buffer's length did not match the product of the requested shape.
    LengthMismatch {
        /// Length of the provided buffer.
        len: usize,
        /// Shape requested.
        shape: Vec<usize>,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// Offending flat index.
        index: usize,
        /// Number of elements in the tensor.
        len: usize,
    },
    /// The operation requires a tensor of a specific rank.
    RankMismatch {
        /// Rank the operation expected.
        expected: usize,
        /// Rank of the tensor provided.
        actual: usize,
        /// Operation that was attempted.
        op: &'static str,
    },
    /// An argument was invalid (e.g. zero-sized dimension where forbidden).
    InvalidArgument(String),
}

impl TensorError {
    /// Cold constructor for [`TensorError::ShapeMismatch`]; keeps the
    /// owned-shape copies off the hot paths that report the error.
    pub fn new_shape_mismatch(left: &[usize], right: &[usize], op: &'static str) -> TensorError {
        TensorError::ShapeMismatch { left: left.to_vec(), right: right.to_vec(), op }
    }

    /// Cold constructor for [`TensorError::LengthMismatch`].
    pub fn new_length_mismatch(len: usize, shape: &[usize]) -> TensorError {
        TensorError::LengthMismatch { len, shape: shape.to_vec() }
    }

}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { left, right, op } => {
                write!(f, "shape mismatch in `{op}`: {left:?} vs {right:?}")
            }
            TensorError::LengthMismatch { len, shape } => {
                write!(f, "buffer of length {len} cannot be viewed as shape {shape:?}")
            }
            TensorError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for tensor of {len} elements")
            }
            TensorError::RankMismatch { expected, actual, op } => {
                write!(f, "`{op}` expects rank-{expected} tensor, got rank {actual}")
            }
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TensorError::ShapeMismatch {
            left: vec![2, 3],
            right: vec![3, 2],
            op: "add",
        };
        let msg = e.to_string();
        assert!(msg.contains("add"));
        assert!(msg.contains("[2, 3]"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn length_mismatch_display() {
        let e = TensorError::LengthMismatch { len: 5, shape: vec![2, 3] };
        assert!(e.to_string().contains("length 5"));
    }
}
