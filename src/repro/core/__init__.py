"""The MyProxy online credential repository — the paper's contribution (§4).

Layout:

- :mod:`repro.core.protocol` — the client↔server wire protocol (the
  ``MYPROXYv2``-style ``KEY=value`` message format).
- :mod:`repro.core.policy` — server-side policy: pass-phrase rules (length
  and dictionary checks, §4.1), lifetime caps (one week stored / hours
  delegated, §4.3).
- :mod:`repro.core.repository` — encrypted credential storage (§5.1: "the
  repository encrypts the credentials that it holds with the pass phrase
  provided by the user").
- :mod:`repro.core.server` — the repository server with its two ACLs and
  pluggable authentication: static pass phrase, one-time passwords
  (§5.1/§6.3), local site security (§6.3).
- :mod:`repro.core.client` — ``myproxy-init``, ``myproxy-get-delegation``,
  ``myproxy-destroy``, ``myproxy-info``, ``myproxy-change-pass-phrase``
  and the §6.1 ``store``/``retrieve`` operations, as a Python API.
- :mod:`repro.core.otp` — the S/KEY-style one-time-password chains.
- :mod:`repro.core.siteauth` — the toy Kerberos-style site login service.
- :mod:`repro.core.wallet` — the §6.2 electronic wallet.
- :mod:`repro.core.renewal` — the §6.6 credential-renewal agent (secret- or
  possession-based).
- :mod:`repro.core.httpbinding` — the §6.4 HTTP binding of the protocol.
- :mod:`repro.core.segments` — the durable segment-file store.
- :mod:`repro.core.migration` — read-only spool/SQLite sources for
  ``myproxy-admin migrate``.
- :mod:`repro.core.admin` — ``myproxy-admin``-style repository administration.
- :mod:`repro.core.config` — the ``myproxy-server.config`` parser.
"""

from repro.core.client import MyProxyClient
from repro.core.policy import PassphrasePolicy, ServerPolicy
from repro.core.protocol import Command, Request, Response
from repro.core.repository import CredentialRepository, RepositoryEntry
from repro.core.server import MyProxyServer

__all__ = [
    "Command",
    "CredentialRepository",
    "MyProxyClient",
    "MyProxyServer",
    "PassphrasePolicy",
    "Request",
    "RepositoryEntry",
    "Response",
    "ServerPolicy",
]
