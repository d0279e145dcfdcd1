"""The on-disk checkpoint format: versioned, fingerprinted, checksummed.

A checkpoint file is one JSON document (the *envelope*) wrapping the
snapshot *payload* produced by :mod:`repro.checkpoint.snapshot`:

.. code-block:: json

    {
      "magic": "repro-checkpoint",
      "schema_version": 1,
      "fingerprint": "<sha256 of the run's config/seed/topology identity>",
      "tick_index": 1234,
      "sim_time_s": 12.34,
      "payload_sha256": "<sha256 of the canonical payload JSON>",
      "payload": { ... }
    }

The payload is stored in canonical form (:func:`canonical_json`: sorted
keys, compact separators) and serialised once per save: the same text is
hashed for ``payload_sha256`` and written into the file.  The tick
history in ``payload["metrics"]["samples"]`` may arrive already encoded
(the checkpoint manager encodes each tick once per run) and is spliced
into that text.  Readers parse the whole document and re-canonicalise
the payload to verify it, so files whose payload is laid out any other
way -- as earlier versions wrote them -- still load.

Restore refuses to proceed -- with a descriptive, actionable error --
when the schema version is unknown, the payload checksum does not match
(torn or bit-rotted file), or the fingerprint differs from the run being
resumed (different config, seed, workload or governor).  Writes are
atomic (see :mod:`repro.checkpoint.atomicio`), so a crash mid-write can
never produce a file that *parses* but lies.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .atomicio import atomic_write_text

#: Bump on any incompatible change to the payload layout.
CHECKPOINT_SCHEMA_VERSION = 1

_MAGIC = "repro-checkpoint"

#: Checkpoint file name pattern: an optional stream label (e.g. the
#: campaign's governor index) followed by the zero-padded tick, so plain
#: lexicographic order equals chronological order within a run.
CHECKPOINT_GLOB_RE = re.compile(r"^ckpt_(?:(?P<stream>[A-Za-z0-9-]+)_)?(?P<tick>\d{10})\.json$")


class CheckpointError(RuntimeError):
    """Base class for every checkpoint read/validation failure."""


class CheckpointCorruptError(CheckpointError):
    """The file is unreadable, truncated, or fails its payload checksum."""


class CheckpointSchemaError(CheckpointError):
    """The file was written by an incompatible checkpoint schema."""


class CheckpointFingerprintError(CheckpointError):
    """The checkpoint belongs to a different run configuration."""


def canonical_json(payload: Any) -> str:
    """Deterministic JSON serialisation used for checksumming."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def checkpoint_filename(tick_index: int, stream: Optional[str] = None) -> str:
    if stream:
        return f"ckpt_{stream}_{tick_index:010d}.json"
    return f"ckpt_{tick_index:010d}.json"


@dataclass
class CheckpointEnvelope:
    """A parsed-and-validated checkpoint."""

    path: str
    fingerprint: str
    tick_index: int
    sim_time_s: float
    payload: Dict[str, Any]


def _canonical_around(obj: Dict[str, Any], key: str) -> Tuple[str, str]:
    """The canonical JSON of ``obj`` before and after the value at ``key``.

    ``before + canonical_json(value) + after`` equals
    ``canonical_json(dict(obj, **{key: value}))``.
    """
    members = sorted(
        (k, json.dumps(k) + ":" + canonical_json(v)) for k, v in obj.items() if k != key
    )
    before = "".join(m + "," for k, m in members if k < key)
    after = "".join("," + m for k, m in members if k > key)
    return "{" + before + json.dumps(key) + ":", after + "}"


def write_checkpoint(
    path: str,
    payload: Dict[str, Any],
    fingerprint: str,
    tick_index: int,
    sim_time_s: float,
    samples_json: Optional[str] = None,
) -> str:
    """Atomically write one checkpoint file; returns ``path``.

    ``samples_json``, when given, is the canonical JSON of the tick
    history and stands in for ``payload["metrics"]["samples"]``; the file
    is byte-identical to writing the payload with the history in place.
    """
    if samples_json is None:
        parts = [canonical_json(payload)]
    else:
        outer = _canonical_around(payload, "metrics")
        inner = _canonical_around(payload["metrics"], "samples")
        parts = [outer[0] + inner[0], samples_json, inner[1] + outer[1]]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
    head = json.dumps(
        {
            "magic": _MAGIC,
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "tick_index": tick_index,
            "sim_time_s": sim_time_s,
            "payload_sha256": digest.hexdigest(),
        }
    )
    return atomic_write_text(path, "".join([head[:-1], ', "payload": ', *parts, "}"]))


def read_checkpoint(
    path: str, expected_fingerprint: Optional[str] = None
) -> CheckpointEnvelope:
    """Read and validate one checkpoint file.

    Raises:
        CheckpointCorruptError: unreadable JSON, missing envelope fields,
            or a payload checksum mismatch.
        CheckpointSchemaError: schema version this code does not speak.
        CheckpointFingerprintError: ``expected_fingerprint`` given and
            different from the file's -- the checkpoint belongs to a
            different configuration/seed and must not be restored.
    """
    try:
        with open(path, "r") as handle:
            envelope = json.load(handle)
    except OSError as exc:
        raise CheckpointCorruptError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is not valid JSON ({exc}); the file is "
            "corrupt -- delete it and resume from an earlier checkpoint"
        ) from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != _MAGIC:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is missing the {_MAGIC!r} magic marker; "
            "this is not a repro checkpoint file"
        )
    version = envelope.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointSchemaError(
            f"checkpoint {path!r} uses schema version {version!r}, but this "
            f"build speaks version {CHECKPOINT_SCHEMA_VERSION}; re-run the "
            "original experiment or use a matching repro version"
        )
    missing = [
        key
        for key in ("fingerprint", "tick_index", "sim_time_s", "payload_sha256", "payload")
        if key not in envelope
    ]
    if missing:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is missing envelope fields {missing}; the "
            "file is corrupt"
        )
    actual = payload_checksum(envelope["payload"])
    if actual != envelope["payload_sha256"]:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} fails its payload checksum (expected "
            f"{envelope['payload_sha256'][:12]}..., got {actual[:12]}...); the "
            "payload is corrupt -- resume from an earlier checkpoint"
        )
    if (
        expected_fingerprint is not None
        and envelope["fingerprint"] != expected_fingerprint
    ):
        raise CheckpointFingerprintError(
            f"checkpoint {path!r} was taken from a different run: its "
            f"config/seed fingerprint is {envelope['fingerprint'][:12]}... but "
            f"the run being resumed has {expected_fingerprint[:12]}....  "
            "Rebuild the simulation with the exact same config, seed, "
            "workload and governor, or point at the matching checkpoint "
            "directory"
        )
    return CheckpointEnvelope(
        path=path,
        fingerprint=envelope["fingerprint"],
        tick_index=int(envelope["tick_index"]),
        sim_time_s=float(envelope["sim_time_s"]),
        payload=envelope["payload"],
    )


def list_checkpoints(directory: str) -> List[str]:
    """Checkpoint paths under ``directory``, oldest first."""
    if not os.path.isdir(directory):
        return []
    names = sorted(
        name for name in os.listdir(directory) if CHECKPOINT_GLOB_RE.match(name)
    )
    return [os.path.join(directory, name) for name in names]


def latest_checkpoint(directory: str) -> Optional[str]:
    """The newest checkpoint in ``directory`` (lexicographic = newest)."""
    paths = list_checkpoints(directory)
    return paths[-1] if paths else None
