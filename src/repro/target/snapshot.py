"""Checkpoint and rollback for the simulated inferior.

``take`` captures everything a failed or side-effecting query could
disturb — region contents (and the region map itself, so an injected
unmap is undone), heap bookkeeping, globals, functions, frames, type
tables, interned strings, and output — and ``restore`` puts it back in
place, leaving the same :class:`~repro.target.program.TargetProgram`
object usable by every session already attached to it.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass

from repro.target.program import TargetProgram

#: Serialized-snapshot magic prefix (bump on incompatible changes).
SNAP_MAGIC = b"DUELSNAP1"


@dataclass
class Snapshot:
    """An opaque captured program state (pass back to :func:`restore`)."""

    regions: list
    heap: tuple
    stack: tuple
    globals: dict
    functions: dict
    function_symbols: dict
    types: tuple
    interned: dict
    output: list
    data_next: int
    text_next: int

    def serialize(self) -> bytes:
        """A durable byte encoding of this snapshot.

        Everything pickles except ``functions``: the mini-C function
        implementations are closures over their interpreter, so only
        the *names* travel — :meth:`deserialize` rebinds each name to
        the implementation a freshly rebuilt program provides.  That
        is sound because the serving layer always reconstructs the
        target from the same program source before restoring.  Region
        contents are mostly zeros, so the pickle is zlib-compressed
        (level 1: the win is ~100x, the speed cost negligible).
        """
        payload = {
            "regions": self.regions,
            "heap": self.heap,
            "stack": self.stack,
            "globals": self.globals,
            "function_names": sorted(self.functions),
            "function_symbols": self.function_symbols,
            "types": self.types,
            "interned": self.interned,
            "output": self.output,
            "data_next": self.data_next,
            "text_next": self.text_next,
        }
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return SNAP_MAGIC + zlib.compress(body, 1)

    @classmethod
    def deserialize(cls, data: bytes, program: TargetProgram) -> "Snapshot":
        """Rebuild a snapshot from :meth:`serialize` output.

        ``program`` must be a freshly built instance of the same
        target program — it supplies the function implementations the
        encoding deliberately left out.  Raises :class:`ValueError`
        on bad magic, corrupt payload, or a function name the program
        no longer defines.
        """
        if not data.startswith(SNAP_MAGIC):
            raise ValueError("not a serialized DUEL snapshot")
        try:
            payload = pickle.loads(zlib.decompress(data[len(SNAP_MAGIC):]))
        except (zlib.error, pickle.UnpicklingError, EOFError,
                AttributeError, ValueError) as error:
            raise ValueError(
                f"corrupt serialized snapshot: {error}") from error
        functions = {}
        for name in payload["function_names"]:
            entry = program.functions.get(name)
            if entry is None:
                raise ValueError(
                    f"snapshot references function {name!r} the rebuilt "
                    "program does not define")
            functions[name] = entry.impl
        return cls(
            regions=payload["regions"],
            heap=payload["heap"],
            stack=payload["stack"],
            globals=payload["globals"],
            functions=functions,
            function_symbols=payload["function_symbols"],
            types=payload["types"],
            interned=payload["interned"],
            output=payload["output"],
            data_next=payload["data_next"],
            text_next=payload["text_next"],
        )


def take(program: TargetProgram) -> Snapshot:
    """Capture ``program``'s full state."""
    types = program.types
    return Snapshot(
        regions=[(r.name, r.base, r.size, bytes(r.data))
                 for r in program.memory.regions],
        heap=program.heap.copy_state(),
        stack=program.stack.copy_state(),
        globals=program.globals.copy_state(),
        functions={name: entry.impl
                   for name, entry in program.functions.items()},
        function_symbols={name: entry.symbol
                          for name, entry in program.functions.items()},
        types=(dict(types.structs), dict(types.unions), dict(types.enums),
               dict(types.typedefs), dict(types.enum_constants)),
        interned=dict(program._interned),
        output=list(program.output),
        data_next=program._data_next,
        text_next=program._text_next,
    )


def restore(program: TargetProgram, snapshot: Snapshot) -> None:
    """Rewind ``program`` to a previously taken :class:`Snapshot`."""
    memory = program.memory
    # Rebuild the region map exactly (an unmapped region comes back,
    # a newly mapped one goes away), then the contents.
    for region in list(memory.regions):
        memory.unmap(region.name)
    for name, base, size, data in snapshot.regions:
        region = memory.map_new(name, base, size)
        region.data[:] = data
    program.heap.restore_state(snapshot.heap)
    program.stack.restore_state(snapshot.stack)
    program.globals.restore_state(snapshot.globals)

    program.functions = {}
    program._functions_by_address = {}
    for name, symbol in snapshot.function_symbols.items():
        from repro.target.program import TargetFunction
        entry = TargetFunction(symbol, snapshot.functions[name])
        program.functions[name] = entry
        program._functions_by_address[symbol.address] = entry

    structs, unions, enums, typedefs, enum_constants = snapshot.types
    types = program.types
    types.structs.clear(); types.structs.update(structs)
    types.unions.clear(); types.unions.update(unions)
    types.enums.clear(); types.enums.update(enums)
    types.typedefs.clear(); types.typedefs.update(typedefs)
    types.enum_constants.clear(); types.enum_constants.update(enum_constants)

    program._interned = dict(snapshot.interned)
    program.output[:] = snapshot.output
    program._data_next = snapshot.data_next
    program._text_next = snapshot.text_next
