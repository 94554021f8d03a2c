"""A minimal IDL layer: interfaces and typed operations.

Real ORBs generate stubs and skeletons from IDL; here an
:class:`Interface` is declared programmatically with typed
:class:`Operation` signatures, and the ORB uses it to marshal arguments and
results (client stub role) and to dispatch onto servant methods (skeleton
role).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.middleware.corba.cdr import (
    CdrError,
    CdrInputStream,
    CdrOutputStream,
    TC_VOID,
    TypeCode,
)


@dataclass(frozen=True)
class Operation:
    """One IDL operation: name, typed in-parameters, result type."""

    name: str
    params: Tuple[Tuple[str, TypeCode], ...] = ()
    result: TypeCode = TC_VOID
    oneway: bool = False

    def encode_args(self, out: CdrOutputStream, args: Sequence) -> None:
        if len(args) != len(self.params):
            raise CdrError(
                f"operation {self.name!r} expects {len(self.params)} argument(s), got {len(args)}"
            )
        for (pname, tc), value in zip(self.params, args):
            tc.encode(out, value)

    def decode_args(self, inp: CdrInputStream) -> List:
        # a loop, not a comprehension: Python 3.12 inlines comprehensions
        # (PEP 709), and the per-round-trip call pins must not depend on it
        args = []
        for _pname, tc in self.params:
            args.append(tc.decode(inp))
        return args

    def encode_result(self, out: CdrOutputStream, value) -> None:
        self.result.encode(out, value)

    def decode_result(self, inp: CdrInputStream):
        return self.result.decode(inp)


class Interface:
    """A named collection of operations (the IDL ``interface``)."""

    def __init__(self, repo_id: str, operations: Sequence[Operation] = ()):
        self.repo_id = repo_id
        self._operations: Dict[str, Operation] = {}
        for op in operations:
            self.add_operation(op)

    def add_operation(self, op: Operation) -> Operation:
        if op.name in self._operations:
            raise ValueError(f"operation {op.name!r} already declared on {self.repo_id}")
        self._operations[op.name] = op
        return op

    def operation(self, name: str) -> Operation:
        try:
            return self._operations[name]
        except KeyError:
            raise LookupError(
                f"interface {self.repo_id} has no operation {name!r}; "
                f"declared: {sorted(self._operations)}"
            ) from None

    def operation_names(self) -> List[str]:
        return sorted(self._operations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interface {self.repo_id} ops={self.operation_names()}>"
