"""Always-on service mode: the repro daemon and its control plane.

ECOSCALE's runtime is a *persistent* machine -- a PGAS-backed rack whose
reconfiguration daemon and scheduler serve a continuous task stream --
while the rest of this repo exposes batch ``run_*_experiment`` calls
that build, run and discard.  This package closes that gap:

- :mod:`repro.service.protocol` -- the line-delimited-JSON control
  protocol (commands, replies, validation).
- :mod:`repro.service.session` -- :class:`ServiceSession`, the
  synchronous heart: one live machine, windowed execution, a command
  journal, and snapshot/restore by deterministic replay.
- :mod:`repro.service.daemon` -- the asyncio shell: unix-socket NDJSON
  server, minimal HTTP (``GET /metrics`` for Prometheus scrapes),
  SIGINT/SIGTERM as graceful drain.
- :mod:`repro.service.client` -- a small synchronous client the CLI,
  tests and the CI smoke job share.

Determinism contract: a scripted session (fixed command sequence, fixed
seeds) produces canonical reports byte-identical to the equivalent
batch experiment, and ``snapshot`` -> ``restore`` -> continue matches an
uninterrupted session byte for byte (commands replay against the same
seeds at the same window boundaries).

The name ``repro.service`` deliberately avoids colliding with
:class:`repro.core.runtime.daemon.ReconfigurationDaemon`, the on-machine
Fig. 5 reconfiguration loop -- that daemon manages fabric regions; this
one manages the whole machine's lifecycle.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": "ServiceClient",
    "protocol": (
        "COMMANDS PROTOCOL_VERSION ProtocolError decode_frame encode_frame error_reply "
        "ok_reply"
    ),
    "session": "ServiceError ServiceSession",
})
