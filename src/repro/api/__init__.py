"""``repro-api/1`` — the versioned wire protocol of the synthesis server.

This package defines the typed documents exchanged between the scheduler
core (:class:`~repro.service.engine.SynthesisService`) and its front-ends:
the HTTP server (:mod:`repro.service.server`), the thin client
(:mod:`repro.service.client`), and the CLI's ``--server`` mode.  See
:mod:`repro.api.schema` for the document shapes and
``docs/ARCHITECTURE.md`` for the endpoint table.
"""

from repro.api.schema import (
    API_VERSION,
    ErrorEnvelope,
    JobView,
    SynthesisDelta,
    SynthesisRequest,
    SynthesisResponse,
    check_api_version,
    is_delta_document,
    options_from_dict,
    options_to_dict,
)

__all__ = [
    "API_VERSION",
    "ErrorEnvelope",
    "JobView",
    "SynthesisDelta",
    "SynthesisRequest",
    "SynthesisResponse",
    "check_api_version",
    "is_delta_document",
    "options_from_dict",
    "options_to_dict",
]
