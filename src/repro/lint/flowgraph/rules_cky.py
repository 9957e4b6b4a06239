"""CKY0xx — cache-key completeness for cached producer functions.

PR 3 and PR 5 each patched the same bug class by hand: a new knob
(calibration digest, kernel backend identity) changed results but was
not part of the cache key, so stale artifacts kept hitting until
someone noticed numbers that could not have come from the current
code. These rules turn that into a checked invariant: for every
*cached producer* (a function whose output is stored under a content
key), **every instance attribute it reads that can change its result
must be incorporated into the key**.

The check is specification-driven: a :class:`CacheKeySpec` names the
producer methods, the key-derivation methods, and an explicit
allowlist of attributes that genuinely cannot change results
(fault-tolerance knobs, perf counters, memo slots) — every allowlist
entry is a reviewed claim, visible in one place, instead of an
implicit assumption spread across the codebase.

* ``CKY001`` (error) — a producer reads ``self.X`` but no key method
  does, and ``X`` is not allowlisted: the bug class above, for every
  future knob.
* ``CKY002`` (warning) — a key method reads ``self.X`` but no producer
  does: a dead key component, usually a leftover from a removed knob;
  it fragments the cache for no reason.
* ``CKY003`` (warning) — ``content_key(..., versioned=False)``: the
  caller opts out of the version salt; legitimate only for keys that
  must survive releases, so each use deserves an explicit suppression
  arguing why.

Attribute reads are collected transitively through same-class helper
calls (``self._fit_wire()`` → its reads count toward the producer), so
splitting a producer into helpers cannot hide a read.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.core import Diagnostic, Rule, Severity, register_rule

register_rule(Rule(
    "CKY001", "flow", Severity.ERROR,
    "cached producer reads an instance attribute that is not part of its "
    "cache key (and not allowlisted as result-neutral)",
    "a result-affecting knob outside the key means changing it replays "
    "stale cached artifacts — the PR3/PR5 calibration-digest and "
    "kernel-identity bugs, generalized",
))
register_rule(Rule(
    "CKY002", "flow", Severity.WARNING,
    "cache-key component never read by any cached producer",
    "a dead key component fragments the cache (new key, same bytes) and "
    "usually marks a removed knob whose cleanup was forgotten",
))
register_rule(Rule(
    "CKY003", "flow", Severity.WARNING,
    "content_key(..., versioned=False) bypasses the version salt",
    "unversioned keys let artifacts produced by older physics survive a "
    "release; every opt-out needs an explicit justification",
))


@dataclass(frozen=True)
class CacheKeySpec:
    """Declares one class whose producers are cache-key checked.

    Attributes
    ----------
    class_name:
        Class to check (matched by bare name in any module).
    producers:
        Methods whose results are stored under the cache key.
    key_methods:
        Methods that derive the key; every ``self.X`` they read counts
        as *incorporated*.
    allowed:
        Attributes exempt from CKY001 — reviewed as result-neutral.
        Keep the reason next to each entry in the spec definition.
    constructors:
        Methods whose reads count as *consumption* for CKY002 (but do
        not make them producers for CKY001): a key component consumed
        while building a derived object in ``__init__`` — e.g. a
        kernel name handed to an engine — is live, not dead.
    """

    class_name: str
    producers: Tuple[str, ...]
    key_methods: Tuple[str, ...]
    allowed: FrozenSet[str] = frozenset()
    constructors: Tuple[str, ...] = ("__init__",)


#: The shipped specs. Allowlist rationale (one claim per entry):
#: - engine/library: constructed in __init__ purely from salted knobs
#:   (tech, variation, seed, kernel) — their identity is the knobs'.
#: - perf: observability side-channel (counters and the journal
#:   attached to them); never feeds results.
#: - workers/max_retries/task_timeout/quarantine_budget/resume:
#:   fault-tolerance and fan-out knobs; results are bit-identical for
#:   any value by the PR1/PR4 worker-count-invariance contract.
#: - cache: where artifacts live, not what they contain.
#: - _charac/_models: memo slots for the producers' own outputs.
#: - nsigma_fit_samples: incorporated via the _cache_key("models") suffix.
DEFAULT_SPECS: Tuple[CacheKeySpec, ...] = (
    CacheKeySpec(
        class_name="DelayCalibrationFlow",
        producers=("characterize", "fit_models"),
        key_methods=("_cache_key",),
        allowed=frozenset({
            "engine", "library", "perf",
            "workers", "max_retries", "task_timeout",
            "quarantine_budget", "resume", "cache",
            "_charac", "_models",
        }),
    ),
)


# ----------------------------------------------------------------------
def _self_attr_reads(func: ast.AST) -> Dict[str, int]:
    """``self.X`` attribute loads in a function: attr → first line."""
    reads: Dict[str, int] = {}
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            reads.setdefault(node.attr, node.lineno)
    return reads


def _self_method_calls(func: ast.AST) -> Set[str]:
    """Names of same-class methods invoked (or referenced) via ``self``."""
    called: Set[str] = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            called.add(node.attr)
    return called


def _transitive_reads(
    start: str, methods: Dict[str, ast.AST], stop: Set[str]
) -> Dict[str, int]:
    """Attribute reads of ``start`` plus every same-class helper it
    reaches (depth-first, cycle-safe), excluding methods in ``stop``."""
    seen: Set[str] = set()
    reads: Dict[str, int] = {}
    stack = [start]
    while stack:
        name = stack.pop()
        if name in seen or name in stop:
            continue
        seen.add(name)
        func = methods.get(name)
        if func is None:
            continue
        for attr, line in _self_attr_reads(func).items():
            if attr in methods:
                if attr not in seen:
                    stack.append(attr)
                continue
            reads.setdefault(attr, line)
        for callee in _self_method_calls(func):
            if callee in methods and callee not in seen:
                stack.append(callee)
    return reads


# ----------------------------------------------------------------------
def check_module(
    tree: ast.Module,
    rel_path: str,
    specs: Sequence[CacheKeySpec] = DEFAULT_SPECS,
) -> List[Diagnostic]:
    """Run the CKY rules over one module's AST."""
    diags: List[Diagnostic] = []
    by_name = {spec.class_name: spec for spec in specs}

    for node in ast.walk(tree):
        # CKY003 applies everywhere, spec or not.
        if isinstance(node, ast.Call):
            fname = node.func
            callee = (
                fname.id if isinstance(fname, ast.Name)
                else fname.attr if isinstance(fname, ast.Attribute) else ""
            )
            if callee == "content_key":
                for kw in node.keywords:
                    if (kw.arg == "versioned"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is False):
                        diags.append(Diagnostic.of(
                            "CKY003",
                            "content_key(versioned=False) bypasses the "
                            "version salt; justify with a suppression if "
                            "the key must survive releases",
                            file=rel_path, line=node.lineno,
                        ))
        if not isinstance(node, ast.ClassDef) or node.name not in by_name:
            continue
        spec = by_name[node.name]
        methods: Dict[str, ast.AST] = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        incorporated: Dict[str, int] = {}
        for key_method in spec.key_methods:
            func = methods.get(key_method)
            if func is None:
                continue
            for attr, line in _self_attr_reads(func).items():
                if attr not in methods:
                    incorporated.setdefault(attr, line)

        producer_reads: Dict[str, Dict[str, int]] = {}
        for producer in spec.producers:
            if producer not in methods:
                continue
            producer_reads[producer] = _transitive_reads(
                producer, methods, stop=set(spec.key_methods)
            )

        # CKY001: read by a producer, absent from the key, not allowed.
        for producer, reads in sorted(producer_reads.items()):
            for attr, line in sorted(reads.items(), key=lambda kv: kv[1]):
                if attr in incorporated or attr in spec.allowed:
                    continue
                diags.append(Diagnostic.of(
                    "CKY001",
                    f"{node.name}.{producer} reads self.{attr}, which is "
                    f"not incorporated into "
                    f"{'/'.join(spec.key_methods)} and not allowlisted "
                    f"as result-neutral",
                    file=rel_path, line=line,
                ))

        # CKY002: in the key, never read by any producer — nor consumed
        # at construction time (deriving engine/library from key knobs).
        all_reads: Set[str] = set()
        for reads in producer_reads.values():
            all_reads |= set(reads)
        for ctor in spec.constructors:
            func = methods.get(ctor)
            if func is not None:
                all_reads |= set(_self_attr_reads(func))
        for attr, line in sorted(incorporated.items(), key=lambda kv: kv[1]):
            if attr in all_reads or attr in spec.allowed:
                continue
            diags.append(Diagnostic.of(
                "CKY002",
                f"cache-key component self.{attr} of {node.name} is never "
                f"read by any cached producer "
                f"({', '.join(spec.producers)}); dead key component?",
                file=rel_path, line=line,
            ))
    return diags
