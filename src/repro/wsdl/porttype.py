"""PortType / Operation / Parameter model.

Wire types use the names of :class:`repro.soap.encoding.XsdType`
(``"xsd:string"``, ``"xsd:int"``, ...) plus the conventions:

* ``"xsd:string[]"`` — array of strings (the thesis's ubiquitous return
  type);
* ``"void"`` — no return value;
* a trailing ``[]`` on any scalar type denotes an array of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.soap.encoding import SoapEncodingError, XsdType

_SCALARS = {t.value for t in XsdType}


def validate_wire_type(name: str) -> None:
    """Check a declared wire type string; raises on unknown names."""
    base = name[:-2] if name.endswith("[]") else name
    if base == "void":
        if name != "void":
            raise SoapEncodingError("void cannot be an array type")
        return
    if base not in _SCALARS:
        raise SoapEncodingError(f"unknown wire type {name!r}")


@dataclass(frozen=True)
class Parameter:
    """One named, typed operation parameter."""

    name: str
    wire_type: str

    def __post_init__(self) -> None:
        validate_wire_type(self.wire_type)
        if self.wire_type == "void":
            raise SoapEncodingError("a parameter cannot be void")


@dataclass(frozen=True)
class Operation:
    """One operation: name, parameters, return type, documentation.

    ``doc`` holds the "Operation Semantics" column of Tables 1–3.
    """

    name: str
    parameters: tuple[Parameter, ...] = ()
    returns: str = "void"
    doc: str = ""

    def __post_init__(self) -> None:
        validate_wire_type(self.returns)
        seen: set[str] = set()
        for p in self.parameters:
            if p.name in seen:
                raise SoapEncodingError(f"duplicate parameter {p.name!r} in {self.name}")
            seen.add(p.name)

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def signature(self) -> str:
        params = ", ".join(f"{p.wire_type} {p.name}" for p in self.parameters)
        return f"{self.returns} {self.name}({params})"


@dataclass(frozen=True)
class PortType:
    """A named set of operations in a namespace.

    ``extends`` lists PortTypes whose operations are inherited — the OGSI
    pattern where every Grid service also implements GridService.
    """

    name: str
    namespace: str
    operations: tuple[Operation, ...] = ()
    extends: tuple["PortType", ...] = ()
    doc: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for op in self.all_operations():
            if op.name in seen:
                raise SoapEncodingError(
                    f"duplicate operation {op.name!r} in PortType {self.name!r}"
                )
            seen.add(op.name)

    def all_operations(self) -> list[Operation]:
        """Own operations plus inherited ones (own first)."""
        ops = list(self.operations)
        for base in self.extends:
            ops.extend(base.all_operations())
        return ops

    def operation(self, name: str) -> Operation:
        for op in self.all_operations():
            if op.name == name:
                return op
        raise KeyError(f"PortType {self.name!r} has no operation {name!r}")

    def has_operation(self, name: str) -> bool:
        return any(op.name == name for op in self.all_operations())
