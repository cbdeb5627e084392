"""Decode API conformance rules (REPRO13x).

The batched Monte-Carlo engines call ``decode_batch`` wherever the scalar
path calls ``decode``, and the two must agree row by row
(``decode_batch(W).row(i) == decode(W[i])``).  The
static side of that contract - backed by the ``typing.Protocol``s in
:mod:`repro.codes.protocols` - is enforced here:

* REPRO131 - a ``Code`` subclass that defines ``decode`` must also define
  ``decode_batch``.  :class:`~repro.codes.base.BlockCode` declares both
  abstract, so a concrete code missing one fails at instantiation; the
  rule reports it statically, and also covers subclasses of a concrete
  code that override ``decode`` without thinking about the batch path -
  exactly how the scalar/batched paths drift apart.
* REPRO132 - ``decode`` and ``decode_batch`` signatures must be
  compatible: every extra parameter of ``decode`` (after the received
  word) must exist on ``decode_batch`` under the same name, and any extra
  ``decode_batch``-only parameters must carry defaults, so the engines can
  forward arguments positionally.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from .core import Checker, FileContext, Rule, Violation

MISSING_DECODE_BATCH = Rule(
    code="REPRO131",
    name="missing-decode-batch",
    summary="Code subclasses defining decode must define decode_batch",
    hint="implement decode_batch (see repro.codes.protocols.BatchDecoder) "
    "or derive the scalar decode from a one-row batch",
    rationale=(
        "the batched engines call decode_batch for every codeword the "
        "scalar path decodes; a decode override without a matching "
        "decode_batch lets the two paths diverge unseen"
    ),
)

SIGNATURE_MISMATCH = Rule(
    code="REPRO132",
    name="decode-signature-mismatch",
    summary="decode and decode_batch signatures must be compatible",
    hint="mirror decode's extra parameters on decode_batch (same names); "
    "batch-only parameters need defaults",
    rationale=(
        "engines forward decode arguments to decode_batch verbatim; a "
        "mismatched signature turns the batch path into a TypeError or, "
        "worse, a silently different decode"
    ),
)

#: base-class names that mark a class as a block code implementation.
_CODE_BASE = re.compile(r"(^|\.)(BlockCode|[A-Za-z0-9_]*Code|[A-Za-z0-9_]*RS)$")

#: the abstract base, which declares decode and decode_batch abstract.
_ABSTRACT_BASES = frozenset({"BlockCode"})


class ConformanceChecker(Checker):
    rules = (MISSING_DECODE_BATCH, SIGNATURE_MISMATCH)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node, ctx)

    def _check_class(self, node: ast.ClassDef, ctx: FileContext) -> Iterator[Violation]:
        if node.name in _ABSTRACT_BASES or not _is_code_class(node):
            return
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        decode = methods.get("decode")
        batch = methods.get("decode_batch")
        if decode is not None and batch is None:
            yield Violation(
                rule=MISSING_DECODE_BATCH,
                path=ctx.path,
                line=decode.lineno,
                col=decode.col_offset,
                message=f"{node.name} defines decode but not decode_batch",
            )
            return
        if decode is not None and batch is not None:
            yield from _check_signatures(node.name, decode, batch, ctx)


def _is_code_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = _base_name(base)
        if name and _CODE_BASE.search(name):
            return True
    return False


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _base_name(node.value)
        return f"{inner}.{node.attr}" if inner else node.attr
    return None


def _extra_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[dict[str, bool], bool]:
    """Parameters after (self, word): name -> has_default, plus **kwargs flag."""
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    defaults_start = len(positional) - len(args.defaults)
    extras: dict[str, bool] = {}
    for i, arg in enumerate(positional[2:], start=2):  # skip self + received/words
        extras[arg.arg] = i >= defaults_start
    for i, arg in enumerate(args.kwonlyargs):
        extras[arg.arg] = args.kw_defaults[i] is not None
    return extras, args.kwarg is not None


def _check_signatures(
    class_name: str,
    decode: ast.FunctionDef | ast.AsyncFunctionDef,
    batch: ast.FunctionDef | ast.AsyncFunctionDef,
    ctx: FileContext,
) -> Iterator[Violation]:
    decode_extras, _ = _extra_params(decode)
    batch_extras, batch_kwargs = _extra_params(batch)
    for name in decode_extras:
        if name not in batch_extras and not batch_kwargs:
            yield Violation(
                rule=SIGNATURE_MISMATCH,
                path=ctx.path,
                line=batch.lineno,
                col=batch.col_offset,
                message=(
                    f"{class_name}.decode_batch is missing decode's "
                    f"parameter {name!r}"
                ),
            )
    for name, has_default in batch_extras.items():
        if name not in decode_extras and not has_default:
            yield Violation(
                rule=SIGNATURE_MISMATCH,
                path=ctx.path,
                line=batch.lineno,
                col=batch.col_offset,
                message=(
                    f"{class_name}.decode_batch parameter {name!r} is not on "
                    f"decode and has no default"
                ),
            )
