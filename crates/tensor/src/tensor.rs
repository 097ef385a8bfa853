use crate::{pool, Result, TensorError};
use rand::Rng;

/// An owned, contiguous, row-major `f32` n-dimensional array.
///
/// `Tensor` is the single data container used throughout the FedSU
/// reproduction. Convolutional activations use the `NCHW` layout. Both of
/// its buffers come from [`crate::pool`], and dropping the tensor gives
/// them back.
///
/// ```
/// use fedsu_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor::pooled(&self.shape, |data| data.extend_from_slice(&self.data))
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        pool::global().give_back(std::mem::take(&mut self.data), std::mem::take(&mut self.shape));
    }
}

impl Tensor {
    /// A tensor of `shape` whose pooled data buffer `fill` writes, from
    /// empty, to exactly the shape's element count.
    fn pooled(shape: &[usize], fill: impl FnOnce(&mut Vec<f32>)) -> Self {
        let (mut data, shape) = pool::global().checkout(shape.iter().product(), shape);
        fill(&mut data);
        debug_assert_eq!(data.len(), shape.iter().product::<usize>());
        Tensor { data, shape }
    }

    /// A tensor of `shape` around `data`, which goes to the pool when the
    /// tensor drops; the caller guarantees `data.len()` equals the product
    /// of `shape`.
    fn adopt(data: Vec<f32>, shape: &[usize]) -> Self {
        debug_assert_eq!(data.len(), shape.iter().product::<usize>());
        let (_, shape) = pool::global().checkout(0, shape);
        Tensor { data, shape }
    }

    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor::pooled(shape, |data| data.resize(len, value))
    }

    /// Creates a tensor from an existing buffer, which goes to the pool
    /// when the tensor is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch { len: data.len(), shape: shape.to_vec() });
        }
        Ok(Tensor::adopt(data, shape))
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::pooled(&[data.len()], |buf| buf.extend_from_slice(data))
    }

    /// Creates a tensor with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let len: usize = shape.iter().product();
        Tensor::pooled(shape, |data| data.extend((0..len).map(|_| rng.gen_range(lo..hi))))
    }

    /// Creates a tensor with entries drawn from a standard normal
    /// distribution scaled by `std`, using a Box–Muller transform so only
    /// `rand`'s uniform sampling is required.
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let len: usize = shape.iter().product();
        Tensor::pooled(shape, |data| {
            while data.len() < len {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f32::consts::PI * u2;
                data.push(r * theta.cos() * std);
                if data.len() < len {
                    data.push(r * theta.sin() * std);
                }
            }
        })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::new_length_mismatch(self.data.len(), shape));
        }
        Ok(Tensor::pooled(shape, |data| data.extend_from_slice(&self.data)))
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::new_shape_mismatch(&self.shape, &other.shape, op));
        }
        Ok(())
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        let sums = self.data.iter().zip(&other.data).map(|(a, b)| a + b);
        Ok(Tensor::pooled(&self.shape, |data| data.extend(sums)))
    }

    /// Elementwise subtraction `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        let diffs = self.data.iter().zip(&other.data).map(|(a, b)| a - b);
        Ok(Tensor::pooled(&self.shape, |data| data.extend(diffs)))
    }

    /// In-place `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        Tensor::pooled(&self.shape, |data| data.extend(self.data.iter().map(|a| a * scalar)))
    }

    /// In-place scalar multiplication.
    pub fn scale_in_place(&mut self, scalar: f32) {
        for a in &mut self.data {
            *a *= scalar;
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        for a in &mut self.data {
            *a = value;
        }
    }

    /// Applies a function to every element in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Row `i` of a rank-2 tensor, as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 tensors and
    /// [`TensorError::IndexOutOfBounds`] when the row is out of range.
    pub fn row(&self, i: usize) -> Result<&[f32]> {
        let [rows, cols] = *self.shape else {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape.len(), op: "row" });
        };
        let row = if i < rows { self.data.get(i * cols..(i + 1) * cols) } else { None };
        row.ok_or(TensorError::IndexOutOfBounds { index: i, len: rows })
    }
}

impl From<Vec<f32>> for Tensor {
    fn from(data: Vec<f32>) -> Self {
        let len = data.len();
        Tensor::adopt(data, &[len])
    }
}

impl AsRef<[f32]> for Tensor {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        Tensor::from(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.data().iter().all(|&v| v == 1.0));
        let f = Tensor::full(&[2, 2], 7.5);
        assert!(f.data().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let b = a.reshape(&[2, 2]).unwrap();
        assert_eq!(b.shape(), &[2, 2]);
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(&[3, 2]).is_err());
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(a.sum(), 2.0);
        assert_eq!(Tensor::zeros(&[0]).sum(), 0.0);
    }

    #[test]
    fn randn_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn row_access() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(a.row(1).unwrap(), &[4.0, 5.0, 6.0]);
        assert!(a.row(2).is_err());
        let v = Tensor::from_slice(&[1.0]);
        assert!(v.row(0).is_err());
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Tensor::zeros(&[3]);
        assert!(!a.has_non_finite());
        a.data_mut()[1] = f32::NAN;
        assert!(a.has_non_finite());
    }

    #[test]
    fn map_and_fill() {
        let mut a = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        a.map_in_place(|v| v.max(0.0));
        assert_eq!(a.data(), &[0.0, 2.0]);
        a.fill(3.0);
        assert_eq!(a.data(), &[3.0, 3.0]);
    }

    #[test]
    fn conversions() {
        let t: Tensor = vec![1.0f32, 2.0].into();
        assert_eq!(t.shape(), &[2]);
        let s: &[f32] = t.as_ref();
        assert_eq!(s, &[1.0, 2.0]);
        let c: Tensor = [1.0f32, 2.0, 3.0].into_iter().collect();
        assert_eq!(c.len(), 3);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0]);
    }
}
