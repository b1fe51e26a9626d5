"""Stable content fingerprints for tasks, platforms, policies and requests.

The evaluation service (:mod:`repro.service.facade`) memoises results in a
byte-capped LRU keyed on *what the engines actually read*, so that two
requests asking the same question -- regardless of how their task objects
were constructed -- share one cache entry.  Every fingerprint is a SHA-256
hex digest over a canonical JSON document, except the graph part:

* **graph** -- :func:`repro.core.compiled.graph_digest`, a SHA-256 digest
  over a binary form of the content: the sorted node names, their WCETs in
  name order as packed doubles, and the sorted edge list as pairs of name
  ranks.  A built task reaches it through (and caches it on)
  :meth:`repro.core.compiled.CompiledTask.fingerprint`; because the compile
  is stamp-cached on the graph's ``(structure, weights)`` generation, an
  unmutated task is hashed exactly once.  A decoded task document
  (:class:`repro.io.json_io.TaskDocument`, what the HTTP transport hands
  the facade) goes straight to the digest without building a graph, so a
  cache hit from the wire costs the JSON decode and one digest.  Both
  paths hash equal for equal content, and two structurally identical DAGs
  built in different node-insertion orders hash equal;
* **task** -- the graph fingerprint together with the behavioural fields of
  the :func:`~repro.io.json_io.task_to_dict` form (``offloaded_node``,
  ``period``, ``deadline``).  The task *name* and free-form ``metadata``
  are deliberately excluded: no engine reads them, and excluding them lets
  e.g. a sweep of generated tasks that only differ in their labels share
  results;
* **platform** -- host-core and accelerator counts;
* **policy** -- the declarative policy spec the service accepts (name +
  seed + explicit priority table), *not* a policy instance: live instances
  may carry consumed RNG state that no stable hash can capture;
* **request** -- the kind tag plus every part above and the remaining
  request parameters.

Every fingerprint but the graph digest goes through :func:`canonical_bytes`,
which serialises with sorted keys and no whitespace so that semantically
equal documents produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Union

from ..core.compiled import CompiledTask, compile_task, graph_digest
from ..core.graph import DirectedAcyclicGraph
from ..core.task import DagTask
from ..io.json_io import TaskDocument
from ..simulation.platform import Platform

__all__ = [
    "canonical_bytes",
    "fingerprint_document",
    "graph_fingerprint",
    "task_fingerprint",
    "platform_fingerprint",
    "policy_fingerprint",
    "request_fingerprint",
]


def canonical_bytes(document: object) -> bytes:
    """Serialise ``document`` to canonical JSON bytes.

    Keys are sorted and separators minimal, so two dictionaries with the
    same content produce identical bytes regardless of insertion order.
    Values that JSON cannot represent fall back to ``repr`` (node
    identifiers are stringified before they reach this point, so the
    fallback only fires for exotic metadata).
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), default=repr
    ).encode("utf-8")


def fingerprint_document(document: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``document``."""
    return hashlib.sha256(canonical_bytes(document)).hexdigest()


def graph_fingerprint(
    source: Union[DagTask, DirectedAcyclicGraph, CompiledTask]
) -> str:
    """Content hash of a weighted graph (structure + WCETs).

    Accepts a task, a bare graph or an already-compiled view; the hash is
    computed (and cached) on the :class:`~repro.core.compiled.CompiledTask`
    view, so repeated calls between mutations cost a dictionary lookup.
    """
    compiled = source if isinstance(source, CompiledTask) else compile_task(source)
    return compiled.fingerprint()


def task_fingerprint(task: Union[DagTask, TaskDocument]) -> str:
    """Content hash of a task: graph content + behavioural timing fields.

    Derived from the :func:`~repro.io.json_io.task_to_dict` JSON form minus
    the purely descriptive fields (``name``, ``metadata``), which no engine
    reads -- see the module docstring.  A decoded task document hashes
    without building a graph and equals the hash of the task
    :func:`~repro.io.json_io.task_from_dict` builds from it.
    """
    if isinstance(task, TaskDocument):
        graph = graph_digest(task.names, task.wcets, task.edges)
    else:
        graph = graph_fingerprint(task)
    offloaded = task.offloaded_node
    return fingerprint_document(
        [
            "task",
            graph,
            None if offloaded is None else str(offloaded),
            task.period,
            task.deadline,
        ]
    )


def platform_fingerprint(platform: Union[Platform, int]) -> str:
    """Content hash of a platform (host cores + accelerator count)."""
    if isinstance(platform, int):
        platform = Platform(host_cores=platform)
    return fingerprint_document(
        ["platform", platform.host_cores, platform.accelerators]
    )


def policy_fingerprint(
    name: str,
    seed: Optional[int] = None,
    priorities: Optional[dict] = None,
) -> str:
    """Content hash of a declarative policy spec (name + params + seed).

    ``priorities`` (the explicit table of a ``fixed-priority`` policy) is
    canonicalised by sorting, so two tables with different insertion
    orders hash equal.  Keys are rendered with ``repr`` -- *not* ``str``
    -- because the policy looks nodes up by their raw identity
    (``priorities.get(node)``): a table keyed ``{3: 0.0}`` and one keyed
    ``{"3": 0.0}`` behave differently on an int-noded graph and must not
    share a cache entry (mirroring the ``repr``-keyed oracle memo of
    :mod:`repro.ilp.batch`).
    """
    table = (
        None
        if priorities is None
        else sorted((repr(node), float(value)) for node, value in priorities.items())
    )
    return fingerprint_document(["policy", name, seed, table])


def request_fingerprint(kind: str, *parts: object) -> str:
    """Content hash of a full service request (kind tag + ordered parts)."""
    return fingerprint_document([kind, *parts])
