//! Flat-vector views of a model's parameters.
//!
//! Federated synchronization — and especially FedSU's per-scalar
//! predictability mask — treats the whole model as one `Vec<f32>`. These
//! helpers convert between a [`Layer`] tree and that flat representation
//! using the stable parameter visit order.

use crate::layer::Layer;
use crate::{NnError, Result};

/// Total number of scalar parameters in `model`.
pub fn param_count(model: &dyn Layer) -> usize {
    let mut n = 0;
    model.visit_params(&mut |p| n += p.len());
    n
}

/// Copies every parameter into one flat vector (visit order).
pub fn flatten_params(model: &dyn Layer) -> Vec<f32> {
    let mut out = Vec::with_capacity(param_count(model));
    model.visit_params(&mut |p| out.extend_from_slice(p.value.data()));
    out
}

/// Copies every parameter into `out` (visit order), reusing its allocation.
///
/// The steady-round counterpart of [`flatten_params`]: callers that stage
/// uploads every round keep one buffer alive and refill it here.
pub fn flatten_params_into(model: &dyn Layer, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(param_count(model));
    model.visit_params(&mut |p| out.extend_from_slice(p.value.data()));
}

/// Loads a flat vector back into the model's parameters.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] when `flat.len()` does not match the
/// model's parameter count.
pub fn load_params(model: &mut dyn Layer, flat: &[f32]) -> Result<()> {
    let expected = param_count(model);
    if flat.len() != expected {
        return Err(NnError::BadConfig(format!(
            "flat vector has {} values but model has {} parameters",
            flat.len(),
            expected
        )));
    }
    let mut rest = flat;
    model.visit_params_mut(&mut |p| {
        // The counts match, so every parameter finds its values.
        if let Some((values, tail)) = rest.split_at_checked(p.len()) {
            p.value.data_mut().copy_from_slice(values);
            rest = tail;
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::sequential::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> Sequential {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Sequential::new("m");
        s.push(Dense::new(2, 3, &mut rng).unwrap());
        s.push(Dense::new(3, 2, &mut rng).unwrap());
        s
    }

    #[test]
    fn flatten_load_roundtrip() {
        let mut m = model();
        let flat = flatten_params(&m);
        assert_eq!(flat.len(), param_count(&m));
        let modified: Vec<f32> = flat.iter().map(|v| v + 1.0).collect();
        load_params(&mut m, &modified).unwrap();
        assert_eq!(flatten_params(&m), modified);
    }

    #[test]
    fn load_rejects_wrong_length() {
        let mut m = model();
        assert!(load_params(&mut m, &[0.0; 3]).is_err());
    }

    #[test]
    fn identical_models_flatten_identically() {
        let a = model();
        let b = model();
        assert_eq!(flatten_params(&a), flatten_params(&b));
    }
}
