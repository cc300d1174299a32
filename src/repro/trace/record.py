"""Address-trace recording: a versioned, digest-checked trace format.

Every coprocessor memory access crosses the IMU, which makes the IMU
the natural tap point for *recording* a workload: the per-access
stream ``(tenant, read/write, object, virtual address, size)`` plus
the initial object images is everything needed to replay the run —
deterministically, on any platform configuration — through the
``trace`` app (:mod:`repro.apps.tracefile`).  A recorded trace turns
any run into a shareable, re-runnable repro artifact.

File format
-----------
A trace file is a gzip stream (written with a zeroed mtime so the
bytes are a pure function of the content) containing:

* one JSON *header* line: format marker, format version, the SHA-256
  *digest* of the body, and summary counts — readable without
  decompressing the rest of the stream;
* the JSON *body*: free-form metadata, the object table (per-object
  tenant, id, name, size, direction and base64 initial image), and the
  op list (``[tenant, "r"|"w", obj, addr, size]`` per access).

The digest is the trace's *identity*: :func:`load_trace` recomputes it
and fails loudly on any mismatch, and the sweep layer folds it — not
the file path — into ``config_hash``, so a cached ``trace`` cell can
never silently describe a different trace than the one on disk.

Layering: this module is pure format + sink; it imports nothing above
the trace layer.  The driver that runs a grid cell under a recorder
lives in :mod:`repro.exp.record`.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError


class TraceError(ReproError):
    """Raised on malformed, truncated or digest-mismatched trace files."""


#: Format marker of the header line.
TRACE_FORMAT = "repro-trace"

#: Current trace format version; readers reject anything newer.
TRACE_VERSION = 1

#: Object directions a trace records (mirrors os.vim.objects.Direction
#: names without importing upward).
_DIRECTIONS = ("in", "out", "inout")


@dataclass(frozen=True)
class TraceOp:
    """One recorded coprocessor access (virtual addresses only)."""

    #: Tenant index (position in the recorded run's workload list).
    tenant: int
    #: True for a write, False for a read.
    write: bool
    #: CP_OBJ value (the tenant-local 8-bit object id, untagged).
    obj: int
    #: Byte address within the object (virtual — no physical layout).
    addr: int
    #: Access width in bytes (1, 2 or 4).
    size: int


@dataclass(frozen=True)
class TraceObject:
    """One mapped object of the recorded run, with its initial image."""

    tenant: int
    obj: int
    name: str
    size: int
    #: Recorded direction ("in", "out" or "inout"); informational —
    #: replay maps every object INOUT over the recorded image.
    direction: str
    #: Initial contents (OUT objects record their zeroed allocation).
    data: bytes


@dataclass(frozen=True)
class TraceFile:
    """A loaded (or just-written) trace: metadata, objects and ops."""

    meta: dict
    objects: tuple[TraceObject, ...]
    ops: tuple[TraceOp, ...]
    #: SHA-256 hex digest of the canonical body — the trace identity.
    digest: str

    @property
    def tenant_count(self) -> int:
        """Number of distinct tenants appearing in the object table."""
        return len({obj.tenant for obj in self.objects})


class TraceRecorder:
    """The IMU-side sink: collects raw per-access records.

    Installed as ``imu.trace_sink``; the IMU calls :meth:`record` once
    per *completed* access (after fault service — the retried access
    records on its hit), with the raw ASID the hardware saw.  The
    recording driver later remaps ASIDs to stable tenant indices via
    :meth:`ops_for`, because pids are an artifact of spawn order while
    tenant indices are part of the workload definition.
    """

    def __init__(self) -> None:
        self._records: list[tuple[int, bool, int, int, int]] = []

    def record(
        self, asid: int, write: bool, obj: int, addr: int, size: int
    ) -> None:
        """Append one completed access (called by the IMU on a hit)."""
        self._records.append((asid, write, obj, addr, size))

    def __len__(self) -> int:
        return len(self._records)

    def ops_for(self, asid_to_tenant: dict[int, int]) -> list[TraceOp]:
        """The recorded ops with ASIDs remapped to tenant indices."""
        ops = []
        for asid, write, obj, addr, size in self._records:
            tenant = asid_to_tenant.get(asid)
            if tenant is None:
                raise TraceError(
                    f"recorded access under unknown ASID {asid} "
                    f"(known: {sorted(asid_to_tenant)})"
                )
            ops.append(TraceOp(tenant, write, obj, addr, size))
        return ops


def _body_bytes(meta: dict, objects, ops) -> bytes:
    """The canonical body encoding the digest is computed over."""
    payload = {
        "meta": meta,
        "objects": [
            {
                "tenant": obj.tenant,
                "obj": obj.obj,
                "name": obj.name,
                "size": obj.size,
                "direction": obj.direction,
                "data": base64.b64encode(obj.data).decode("ascii"),
            }
            for obj in objects
        ],
        "ops": [
            [op.tenant, "w" if op.write else "r", op.obj, op.addr, op.size]
            for op in ops
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _validate(objects, ops) -> None:
    table: dict[tuple[int, int], TraceObject] = {}
    for obj in objects:
        if obj.direction not in _DIRECTIONS:
            raise TraceError(
                f"object {obj.name!r}: direction {obj.direction!r} not in "
                f"{_DIRECTIONS}"
            )
        if len(obj.data) != obj.size:
            raise TraceError(
                f"object {obj.name!r}: image is {len(obj.data)} bytes, "
                f"declared size {obj.size}"
            )
        key = (obj.tenant, obj.obj)
        if key in table:
            raise TraceError(
                f"duplicate object id {obj.obj} for tenant {obj.tenant}"
            )
        table[key] = obj
    for index, op in enumerate(ops):
        owner = table.get((op.tenant, op.obj))
        if owner is None:
            raise TraceError(
                f"op {index} touches unknown object {op.obj} of tenant "
                f"{op.tenant}"
            )
        if op.size not in (1, 2, 4):
            raise TraceError(f"op {index}: unsupported access size {op.size}")
        if op.addr < 0 or op.addr + op.size > owner.size:
            raise TraceError(
                f"op {index}: access [{op.addr}, {op.addr + op.size}) "
                f"outside object {owner.name!r} of {owner.size} bytes"
            )


def write_trace(
    path: str | Path,
    meta: dict,
    objects,
    ops,
    force: bool = False,
) -> TraceFile:
    """Write a trace file and return it (with its computed digest).

    *meta* must be JSON-serialisable and deterministic (no timestamps,
    no hostnames): the digest covers it, and recording the same cell
    twice must produce byte-identical files so config hashes agree
    across machines and CI runs.
    """
    path = Path(path)
    if path.exists() and not force:
        raise TraceError(f"{path} exists; pass force=True to overwrite")
    objects = tuple(objects)
    ops = tuple(ops)
    _validate(objects, ops)
    body = _body_bytes(meta, objects, ops)
    digest = hashlib.sha256(body).hexdigest()
    header = json.dumps(
        {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "digest": digest,
            "ops": len(ops),
            "objects": len(objects),
            "tenants": len({obj.tenant for obj in objects}),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as raw:
        # Zeroed mtime and an empty embedded filename keep the gzip
        # stream a pure function of the content: recording the same
        # cell to any path yields byte-identical files.
        with gzip.GzipFile(
            filename="", fileobj=raw, mode="wb", mtime=0
        ) as out:
            out.write(header + b"\n" + body)
    return TraceFile(meta=meta, objects=objects, ops=ops, digest=digest)


def _read_header(stream, path: Path) -> dict:
    line = stream.readline()
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise TraceError(f"{path}: not a repro trace (bad header)") from exc
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise TraceError(f"{path}: not a repro trace (bad format marker)")
    version = header.get("version")
    if version != TRACE_VERSION:
        raise TraceError(
            f"{path}: trace format version {version} not supported "
            f"(this build reads version {TRACE_VERSION})"
        )
    digest = header.get("digest")
    if not isinstance(digest, str) or len(digest) != 64:
        raise TraceError(f"{path}: header carries no valid digest")
    return header


def trace_digest_of(path: str | Path) -> str:
    """The digest from a trace file's header (no full decompression)."""
    path = Path(path)
    if not path.is_file():
        raise TraceError(f"trace file {path} does not exist")
    try:
        with gzip.open(path, "rb") as stream:
            return _read_header(stream, path)["digest"]
    except (OSError, EOFError, zlib.error) as exc:
        raise TraceError(f"{path}: cannot read trace header: {exc}") from exc


def load_trace(path: str | Path) -> TraceFile:
    """Load and digest-check a trace file.

    Raises :class:`TraceError` on any structural problem — including a
    body whose recomputed SHA-256 differs from the header's digest,
    which means the file was corrupted or hand-edited after recording.
    """
    path = Path(path)
    if not path.is_file():
        raise TraceError(f"trace file {path} does not exist")
    try:
        with gzip.open(path, "rb") as stream:
            header = _read_header(stream, path)
            body = stream.read()
    except (OSError, EOFError, zlib.error) as exc:
        raise TraceError(f"{path}: cannot read trace: {exc}") from exc
    digest = hashlib.sha256(body).hexdigest()
    if digest != header["digest"]:
        raise TraceError(
            f"{path}: body digest {digest[:16]}... does not match the "
            f"header's {header['digest'][:16]}... — the file is corrupt "
            "or was modified after recording"
        )
    try:
        payload = json.loads(body)
        objects = tuple(
            TraceObject(
                tenant=int(entry["tenant"]),
                obj=int(entry["obj"]),
                name=str(entry["name"]),
                size=int(entry["size"]),
                direction=str(entry["direction"]),
                data=base64.b64decode(entry["data"]),
            )
            for entry in payload["objects"]
        )
        ops = tuple(
            TraceOp(
                tenant=int(tenant),
                write={"w": True, "r": False}[kind],
                obj=int(obj),
                addr=int(addr),
                size=int(size),
            )
            for tenant, kind, obj, addr, size in payload["ops"]
        )
        meta = payload["meta"]
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"{path}: malformed trace body: {exc}") from exc
    _validate(objects, ops)
    return TraceFile(meta=meta, objects=objects, ops=ops, digest=digest)
