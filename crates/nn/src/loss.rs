//! Softmax cross-entropy loss and classification accuracy.

use crate::{NnError, Result};
use fedsu_tensor::{pool, Tensor};

/// Computes mean softmax cross-entropy over a batch and its gradient with
/// respect to the logits.
///
/// `logits` is `[batch, classes]`; `labels` holds one class index per row.
/// Returns `(mean_loss, dL/dlogits)` where the gradient is
/// `(softmax - onehot) / batch` — ready to feed into
/// [`crate::Layer::backward`].
///
/// # Errors
///
/// Returns [`NnError::BadInput`] when shapes disagree and
/// [`NnError::BadLabel`] when a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let (batch, classes) = match *logits.shape() {
        [batch, classes] if batch == labels.len() && classes > 0 => (batch, classes),
        _ => {
            return Err(NnError::new_bad_input(
                "softmax_cross_entropy",
                format_args!("[{}, classes > 0] logits", labels.len()),
                logits.shape(),
            ))
        }
    };
    let mut grad = pool::pooled_zeros(&[batch, classes]);
    let mut loss = 0.0f64;
    let inv_batch = 1.0 / batch as f32;

    let rows = logits.data().chunks_exact(classes).zip(grad.data_mut().chunks_exact_mut(classes));
    for ((row, g), &label) in rows.zip(labels) {
        let Some(&target) = row.get(label) else {
            return Err(NnError::BadLabel { label, classes });
        };
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &v in row {
            denom += (v - max).exp();
        }
        let log_denom = denom.ln();
        loss += f64::from(log_denom - (target - max));
        for (k, (gk, &v)) in g.iter_mut().zip(row).enumerate() {
            let p = (v - max).exp() / denom;
            *gk = (p - if k == label { 1.0 } else { 0.0 }) * inv_batch;
        }
    }
    Ok(((loss / batch as f64) as f32, grad))
}

/// Fraction of rows whose argmax matches the label.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] when shapes disagree.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let classes = match *logits.shape() {
        [batch, classes] if batch == labels.len() => classes,
        _ => {
            return Err(NnError::new_bad_input(
                "accuracy",
                format_args!("[{}, classes] logits", labels.len()),
                logits.shape(),
            ))
        }
    };
    if labels.is_empty() || classes == 0 {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for (row, &label) in logits.data().chunks_exact(classes).zip(labels) {
        // The first maximum wins; a NaN is never greater.
        let mut best = (0usize, row.first().copied().unwrap_or_default());
        for (k, &v) in row.iter().enumerate() {
            if v > best.1 {
                best = (k, v);
            }
        }
        if best.0 == label {
            correct += 1;
        }
    }
    Ok(correct as f32 / labels.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k_loss() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to 0 and the true-class entry is negative.
        for n in 0..2 {
            let row = &grad.data()[n * 4..(n + 1) * 4];
            assert!(row.iter().sum::<f32>().abs() < 1e-6);
        }
        assert!(grad.data()[0] < 0.0);
        assert!(grad.data()[7] < 0.0);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0], &[1, 2]).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 1e-3);
        let (bad_loss, _) = softmax_cross_entropy(&logits, &[1]).unwrap();
        assert!(bad_loss > 10.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.0, -0.5], &[2, 3]).unwrap();
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let (loss_p, _) = softmax_cross_entropy(&lp, &labels).unwrap();
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (loss_m, _) = softmax_cross_entropy(&lm, &labels).unwrap();
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[idx]).abs() < 1e-3,
                "idx {idx}: {numeric} vs {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn large_logits_are_stable() {
        let logits = Tensor::from_vec(vec![1000.0, 999.0], &[1, 2]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss.is_finite());
        assert!(!grad.has_non_finite());
    }

    #[test]
    fn bad_label_rejected() {
        let logits = Tensor::zeros(&[1, 3]);
        assert!(matches!(
            softmax_cross_entropy(&logits, &[3]),
            Err(NnError::BadLabel { label: 3, classes: 3 })
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
        assert!(accuracy(&logits, &[0]).is_err());
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.2, 0.1], &[3, 2]).unwrap();
        let acc = accuracy(&logits, &[0, 1, 1]).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&Tensor::zeros(&[0, 2]), &[]).unwrap(), 0.0);
    }
}
