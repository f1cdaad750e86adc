//! Calculus errors.

use std::fmt;

/// Errors raised by expression validation and the event formulas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalculusError {
    /// An instance-oriented operator was applied to a sub-expression built
    /// with set-oriented operators (§3.2 forbids this: instance operators
    /// have higher priority and "cannot be applied to event sub-expressions
    /// obtained by means of set-oriented operators").
    SetInsideInstance,
    /// `at` was asked to enumerate occurrences of an expression containing
    /// negation. Negation is active *by absence* and has no discrete
    /// occurrence instants, so enumeration is undefined.
    NegationInAt,
    /// `occurred`/`at` require an instance-oriented expression (§3.3: "the
    /// occurred predicate now supports event expressions limited to
    /// instance-oriented operators").
    SetOrientedFormula,
}

impl fmt::Display for CalculusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalculusError::SetInsideInstance => write!(
                f,
                "instance-oriented operators cannot contain set-oriented sub-expressions"
            ),
            CalculusError::NegationInAt => write!(
                f,
                "`at` cannot enumerate occurrences of an expression containing negation"
            ),
            CalculusError::SetOrientedFormula => write!(
                f,
                "event formulas accept instance-oriented expressions only"
            ),
        }
    }
}

impl std::error::Error for CalculusError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(CalculusError::SetInsideInstance.to_string().contains("instance"));
        assert!(CalculusError::NegationInAt.to_string().contains("negation"));
        assert!(CalculusError::SetOrientedFormula.to_string().contains("formulas"));
    }
}
