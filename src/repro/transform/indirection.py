"""Source-level rendering of indirection (Figure 2b).

The record field is re-typed to a pointer into the owning process's data
area; every access gains one dereference: ``p->f`` becomes ``*(p->f)``.
The per-process areas themselves are installed by generated setup code
at the start of the parallel phase (in this reproduction, by the
runtime's install/migrate protocol — see
:meth:`repro.runtime.interpreter.Interpreter._lower_field`), so the
rendered program documents the access rewrite but is not executable
stand-alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import ctypes as T
from repro.lang.checker import CheckedProgram
from repro.lang.printer import format_decl
from repro.transform.plan import TransformPlan


@dataclass(slots=True)
class IndirectionRendering:
    #: (struct, field) pairs whose accesses gain a dereference
    fields: set[tuple[str, str]]
    #: rewritten struct definitions, per struct name
    struct_lines: dict[str, list[str]]
    notes: list[str]

    def struct_lines_for(self, name: str) -> list[str]:
        return self.struct_lines.get(name, [])


def render_indirections(
    checked: CheckedProgram,
    plan: TransformPlan,
) -> IndirectionRendering:
    fields = {(i.struct, i.field) for i in plan.indirections}
    struct_lines: dict[str, list[str]] = {}
    notes: list[str] = []
    for sname in sorted({s for s, _f in fields}):
        st = checked.symtab.structs.get(sname)
        if not isinstance(st, T.StructType):  # pragma: no cover
            notes.append(f"unknown struct {sname!r}")
            continue
        lines = [f"struct {sname} {{"]
        for fld in st.fields:
            fty = fld.type
            if (sname, fld.name) in fields:
                lines.append(
                    f"    {format_decl(fld.name, T.PointerType(fty))};"
                    "  // -> per-process arena slot"
                )
            else:
                lines.append(f"    {format_decl(fld.name, fty)};")
        lines.append("};")
        struct_lines[sname] = lines
    if fields:
        notes.append(
            "per-process arena areas are installed by generated setup code "
            "at the start of the parallel phase"
        )
    return IndirectionRendering(fields=fields, struct_lines=struct_lines, notes=notes)
