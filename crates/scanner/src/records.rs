//! Probe outcome classification.

use netsim::HttpOutcome;
use ocsp::{ResponseError, ValidatedResponse};

/// The §5.3 error taxonomy for responses that arrived over HTTP 200 but
/// cannot be used (Figure 5's three curves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorClass {
    /// Not parseable ASN.1 ("ASN.1 Unparseable" in Figure 5).
    Asn1Unparseable,
    /// Parsed, but no entry matches the requested serial ("SerialUnmatch").
    SerialUnmatch,
    /// Parsed and matched, but the signature fails ("Signature").
    Signature,
}

impl ErrorClass {
    /// Figure 5 legend label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Asn1Unparseable => "ASN.1 Unparseable",
            ErrorClass::SerialUnmatch => "SerialUnmatch",
            ErrorClass::Signature => "Signature",
        }
    }

    /// This class's position in [`ErrorClass::ALL`].
    pub(crate) fn index(self) -> usize {
        match self {
            ErrorClass::Asn1Unparseable => 0,
            ErrorClass::SerialUnmatch => 1,
            ErrorClass::Signature => 2,
        }
    }

    /// All classes, in the figure's legend order.
    pub const ALL: [ErrorClass; 3] = [
        ErrorClass::Asn1Unparseable,
        ErrorClass::SerialUnmatch,
        ErrorClass::Signature,
    ];
}

/// The complete classification of one probe.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// HTTP 200 and a fully valid OCSP response.
    Valid(ValidatedResponse),
    /// HTTP 200 but the body is unusable (Figure 5).
    Unusable(ErrorClass),
    /// HTTP 200, parseable, but an OCSP error status or a time-window
    /// failure (counted as "successful request" by §5.2's HTTP-200
    /// criterion, but not a usable answer).
    OtherInvalid(ResponseError),
    /// The HTTP request itself failed (§5.2's unsuccessful requests).
    TransportFailure(HttpOutcome),
}

impl ProbeOutcome {
    /// §5.2's "successful request": the server answered HTTP 200.
    pub fn http_success(&self) -> bool {
        !matches!(self, ProbeOutcome::TransportFailure(_))
    }

    /// Whether the response is fully usable by a client.
    pub fn usable(&self) -> bool {
        matches!(self, ProbeOutcome::Valid(_))
    }

    /// The Figure 5 class, if any.
    pub fn error_class(&self) -> Option<ErrorClass> {
        match self {
            ProbeOutcome::Unusable(class) => Some(*class),
            _ => None,
        }
    }
}

/// Map a validation error into the probe classification.
pub fn classify_validation_error(err: ResponseError) -> ProbeOutcome {
    match err {
        ResponseError::MalformedStructure => ProbeOutcome::Unusable(ErrorClass::Asn1Unparseable),
        ResponseError::SerialMismatch => ProbeOutcome::Unusable(ErrorClass::SerialUnmatch),
        ResponseError::SignatureInvalid | ResponseError::UntrustedDelegate => {
            ProbeOutcome::Unusable(ErrorClass::Signature)
        }
        other => ProbeOutcome::OtherInvalid(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_mapping() {
        assert_eq!(
            classify_validation_error(ResponseError::MalformedStructure).error_class(),
            Some(ErrorClass::Asn1Unparseable)
        );
        assert_eq!(
            classify_validation_error(ResponseError::SerialMismatch).error_class(),
            Some(ErrorClass::SerialUnmatch)
        );
        assert_eq!(
            classify_validation_error(ResponseError::SignatureInvalid).error_class(),
            Some(ErrorClass::Signature)
        );
        assert_eq!(
            classify_validation_error(ResponseError::Expired { late_by: 5 }).error_class(),
            None
        );
    }

    #[test]
    fn http_success_criterion() {
        let transport = ProbeOutcome::TransportFailure(HttpOutcome::DnsFailure);
        assert!(!transport.http_success());
        assert!(!transport.usable());
        let unusable = ProbeOutcome::Unusable(ErrorClass::Signature);
        assert!(unusable.http_success());
        assert!(!unusable.usable());
    }

    #[test]
    fn labels() {
        assert_eq!(ErrorClass::ALL.len(), 3);
        assert_eq!(ErrorClass::Asn1Unparseable.label(), "ASN.1 Unparseable");
    }

    #[test]
    fn each_class_indexes_its_place_in_all() {
        for (i, class) in ErrorClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }
}
