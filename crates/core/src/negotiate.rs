//! Protocol selection.
//!
//! The paper leaves dynamic negotiation to future work (§3.2) but notes that
//! applications already implement simple schemes — e.g. "try UDP, fall back
//! to TCP". This module captures that logic as a deterministic chooser:
//! given the application's needs and what the path supports, pick the best
//! Minion protocol. Outside its own tests, only `tests/end_to_end.rs` calls
//! it; the examples and the figure harness name their protocol directly.

use crate::config::Protocol;

/// What the application needs from its transport.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppRequirements {
    /// The application's data must be encrypted end to end.
    pub needs_security: bool,
    /// The application benefits from unordered delivery (latency-sensitive).
    pub wants_unordered: bool,
    /// Datagrams must be delivered reliably (retransmitted on loss).
    pub needs_reliability: bool,
}

/// What the network path between the endpoints permits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathCapabilities {
    /// UDP flows are not blocked by middleboxes on this path.
    pub udp_allowed: bool,
    /// TCP flows work (essentially always true).
    pub tcp_allowed: bool,
    /// Middleboxes on this path inspect TCP payloads, so only traffic that
    /// looks like TLS (e.g. HTTPS on port 443) survives.
    pub requires_tls_appearance: bool,
}

impl Default for PathCapabilities {
    fn default() -> Self {
        PathCapabilities {
            udp_allowed: true,
            tcp_allowed: true,
            requires_tls_appearance: false,
        }
    }
}

/// Choose the most suitable protocol, or `None` if nothing fits.
///
/// The preference order mirrors the paper's reasoning: use an OS-level
/// unordered transport (UDP) when it works and security is not required at
/// the transport; otherwise fall back to a TCP substrate, choosing uTLS when
/// either security or middlebox TLS-appearance is required, uCOBS when only
/// unordered delivery matters, and the conventional TCP baseline otherwise.
pub fn choose_protocol(app: &AppRequirements, path: &PathCapabilities) -> Option<Protocol> {
    // Reliability rules out plain UDP (no retransmission in the shim).
    let udp_ok = path.udp_allowed
        && !app.needs_security
        && !app.needs_reliability
        && !path.requires_tls_appearance;
    if udp_ok && app.wants_unordered {
        return Some(Protocol::Udp);
    }
    if !path.tcp_allowed {
        return if udp_ok { Some(Protocol::Udp) } else { None };
    }
    if app.needs_security || path.requires_tls_appearance {
        return Some(Protocol::Utls);
    }
    if app.wants_unordered {
        return Some(Protocol::Ucobs);
    }
    Some(Protocol::TcpTlv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sensitive_app_prefers_udp_when_available() {
        let app = AppRequirements {
            wants_unordered: true,
            ..Default::default()
        };
        assert_eq!(
            choose_protocol(&app, &PathCapabilities::default()),
            Some(Protocol::Udp)
        );
    }

    #[test]
    fn udp_blocked_falls_back_to_ucobs() {
        let app = AppRequirements {
            wants_unordered: true,
            ..Default::default()
        };
        let path = PathCapabilities {
            udp_allowed: false,
            ..Default::default()
        };
        assert_eq!(choose_protocol(&app, &path), Some(Protocol::Ucobs));
    }

    #[test]
    fn security_or_dpi_selects_utls() {
        let secure_app = AppRequirements {
            needs_security: true,
            wants_unordered: true,
            ..Default::default()
        };
        assert_eq!(
            choose_protocol(&secure_app, &PathCapabilities::default()),
            Some(Protocol::Utls)
        );
        let dpi_path = PathCapabilities {
            requires_tls_appearance: true,
            ..Default::default()
        };
        let plain_app = AppRequirements {
            wants_unordered: true,
            ..Default::default()
        };
        assert_eq!(choose_protocol(&plain_app, &dpi_path), Some(Protocol::Utls));
    }

    #[test]
    fn reliability_requires_a_tcp_substrate() {
        let app = AppRequirements {
            wants_unordered: true,
            needs_reliability: true,
            ..Default::default()
        };
        assert_eq!(
            choose_protocol(&app, &PathCapabilities::default()),
            Some(Protocol::Ucobs)
        );
    }

    #[test]
    fn ordered_app_gets_the_plain_baseline() {
        let app = AppRequirements::default();
        assert_eq!(
            choose_protocol(&app, &PathCapabilities::default()),
            Some(Protocol::TcpTlv)
        );
    }

    #[test]
    fn nothing_available_returns_none() {
        let app = AppRequirements {
            needs_security: true,
            ..Default::default()
        };
        let path = PathCapabilities {
            udp_allowed: false,
            tcp_allowed: false,
            requires_tls_appearance: false,
        };
        assert_eq!(choose_protocol(&app, &path), None);
    }
}
