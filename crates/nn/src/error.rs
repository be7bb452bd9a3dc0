use std::fmt;

/// Errors produced by layers, losses and optimizers.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying matrix operation failed.
    Matrix(sigma_matrix::MatrixError),
    /// `backward` was called before `forward` cached its inputs.
    MissingForwardCache {
        /// Layer or model that was asked to backpropagate.
        layer: &'static str,
    },
    /// `backward` was asked for the input gradient of a layer whose input was
    /// sparse. With respect to an adjacency matrix that gradient is a dense
    /// `n × n` matrix nothing reads; use `backward_params`.
    NoSparseInputGradient {
        /// Layer that was asked to backpropagate.
        layer: &'static str,
    },
    /// A label or index array is inconsistent with the logits shape.
    InvalidLabels {
        /// Explanation of the inconsistency.
        reason: String,
    },
    /// A hyper-parameter is outside its valid range.
    InvalidHyperParameter {
        /// Name of the parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Matrix(e) => write!(f, "matrix error: {e}"),
            NnError::MissingForwardCache { layer } => {
                write!(f, "backward called on `{layer}` before forward")
            }
            NnError::NoSparseInputGradient { layer } => write!(
                f,
                "`{layer}` has a sparse input and so no input gradient; call backward_params"
            ),
            NnError::InvalidLabels { reason } => write!(f, "invalid labels: {reason}"),
            NnError::InvalidHyperParameter { name, value } => {
                write!(f, "invalid hyper-parameter {name} = {value}")
            }
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Matrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sigma_matrix::MatrixError> for NnError {
    fn from(e: sigma_matrix::MatrixError) -> Self {
        NnError::Matrix(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_context() {
        let e = NnError::MissingForwardCache { layer: "Linear" };
        assert!(e.to_string().contains("Linear"));
        let e = NnError::NoSparseInputGradient { layer: "Linear" };
        assert!(e.to_string().contains("backward_params"));
        let e = NnError::InvalidHyperParameter {
            name: "lr",
            value: -1.0,
        };
        assert!(e.to_string().contains("lr"));
        let e = NnError::InvalidLabels {
            reason: "too short".into(),
        };
        assert!(e.to_string().contains("too short"));
    }

    #[test]
    fn matrix_error_source_preserved() {
        let e: NnError = sigma_matrix::MatrixError::NonFiniteValue { op: "softmax" }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
