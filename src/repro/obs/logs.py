"""Structured JSON logging under the ``repro`` logger hierarchy.

Every module logs through ``get_logger("harness.suite")`` and the like,
which hangs off one ``repro`` root logger.  Until :func:`configure_logging`
runs, that hierarchy stays silent — a ``NullHandler`` parked on the root
keeps ``logging.lastResort`` out of the picture — so library use of the
package never spams stderr.  The CLI's ``--log-level`` flag turns it on, emitting
one JSON object per line — trivially greppable and ingestible.

Stdlib-only, like everything under :mod:`repro.obs`.
"""

from __future__ import annotations

import datetime
import json
import logging
from typing import Any

ROOT_LOGGER = "repro"

#: LogRecord attributes that are bookkeeping, not user-supplied context.
_RECORD_FIELDS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, message, extras."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = datetime.datetime.fromtimestamp(
            record.created, tz=datetime.timezone.utc
        )
        payload: dict[str, Any] = {
            "ts": stamp.isoformat(timespec="milliseconds"),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key not in _RECORD_FIELDS and not key.startswith("_"):
                payload[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


# Without any handler in the chain, warnings from an unconfigured library
# would reach logging.lastResort and print to stderr.
logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())


def get_logger(name: str = "") -> logging.Logger:
    """The ``repro`` logger, or a child such as ``repro.harness.suite``."""
    if not name:
        return logging.getLogger(ROOT_LOGGER)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def configure_logging(level: int | str = "info") -> logging.Logger:
    """Attach one JSON-lines handler (on stderr) to the ``repro`` root at ``level``.

    Idempotent: reconfiguring replaces the handler rather than stacking
    another, so repeated CLI invocations in one process stay single-voiced.
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    root = get_logger()
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler()
    handler.setFormatter(JsonLineFormatter())
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root
