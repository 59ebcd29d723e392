"""Seeded inputs, query mixes and reference outputs for the benchmark.

Every workload's data comes from ``random.Random(f"{workload}:{seed}")``
so the same seed always gives the same target and the same queries.
The expected output of every query is computed here in plain Python
from that data, never by DUEL; the display rules it reproduces are the
paper's (``sym = value`` lines, bare reductions, ``-->`` chains folded
into ``-->f[[k]]`` from depth 4, lowered to depth 2 under ``[[...]]``).

Nothing here imports ``repro`` at module level: the reference side must
stay independent of the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: The chain-fold depth of the paper's display (``L-->next[[4]]``).
FOLD = 4
#: Fold depth of values passed through a ``[[...]]`` select.
SELECT_FOLD = 2


@dataclass(frozen=True)
class Query:
    """One query of a mix: its text, expected lines, and whether it writes."""

    text: str
    expected: tuple
    writes: bool = False


@dataclass
class Workload:
    """Generated data plus the fixed query mix of one workload."""

    name: str
    data: dict = field(default_factory=dict)
    #: In-process workloads: the single caller's mix, in pass order.
    mix: list = field(default_factory=list)
    #: ``serve``: one fixed query sequence per client connection.
    clients: list = field(default_factory=list)
    #: ``serve``: the generated mini-C program the server runs.
    source: str = ""


# -- reference display rules -------------------------------------------------
def fmt_double(value: float) -> str:
    """A double as the session's default ``%.3f`` display prints it."""
    return "%.3f" % value


def chain(base: str, name: str, count: int, fold: int = FOLD) -> str:
    """``base`` followed by ``count`` ``->name`` hops, folded at ``fold``."""
    if count == 0:
        return base
    if count >= fold:
        return f"{base}-->{name}[[{count}]]"
    return base + "->" + "->".join([name] * count)


def expansion_path(base: str, path, fold: int = FOLD) -> str:
    """The symbolic of a ``base-->(f, g, ...)`` node reached via ``path``.

    Runs of one field build a foldable chain; switching field appends
    one plain ``->field`` and starts a new chain on top of it.
    """
    text, name, count = base, None, 0
    for step in path:
        if name is None:
            name, count = step, 1
        elif step == name:
            count += 1
        else:
            text, name = chain(text, name, count, fold) + "->" + step, None
    return chain(text, name, count, fold) if name is not None else text


def line(sym: str, value) -> str:
    return f"{sym} = {value}"


def reduced(total, text: str) -> str:
    """A reduction's line: its symbolic is ``str(total)``, shown only
    when it reads differently from the displayed value."""
    return text if str(total) == text else line(total, text)


# -- seeded data with fixed selectivity ------------------------------------------
# Filters match a fixed number of planted elements, the first of them at
# a fixed index, so that each query's cost and its time to first value
# do not depend on the seed; only the values and positions do.  The
# first indices are staggered so that the filters' first-value times
# form separate clusters and the median lands inside one of them.
def planted(rng: random.Random, n: int, first: int, count: int,
            hit, miss) -> list:
    """``n`` values: ``hit()`` at ``first`` and ``count - 1`` random
    later positions, ``miss()`` everywhere else."""
    hits = {first, *rng.sample(range(first + 1, n), count - 1)}
    return [hit() if i in hits else miss() for i in range(n)]


def _hash_entries(rng: random.Random, fill: int, lengths, deep: int) -> dict:
    """``fill`` non-empty buckets, the first at index 2; chain lengths
    are the multiset ``lengths``; ``deep`` heads have scope above 5,
    bucket 2's being 9."""
    buckets = [2, *sorted(rng.sample(range(3, HASH_BUCKETS), fill - 1))]
    lengths = list(lengths)
    rng.shuffle(lengths)
    deep_heads = {2, *rng.sample(buckets[1:], deep - 1)}
    entries = {}
    for bucket, length in zip(buckets, lengths):
        head = 9 if bucket == 2 else rng.randint(6, 9) \
            if bucket in deep_heads else rng.randint(0, 5)
        entries[bucket] = [(f"s{bucket}_0", head)] + [
            (f"s{bucket}_{i}", rng.randint(0, 9)) for i in range(1, length)]
    return entries


# -- scan ----------------------------------------------------------------------
SCAN_N = 2000
SCAN_RECS = 1000
HASH_BUCKETS = 1024


def scan(seed: int) -> Workload:
    rng = random.Random(f"scan:{seed}")
    n, nrec = SCAN_N, SCAN_RECS
    # x: 500 zeros (never x[0]), 200 values above 700 (first at
    # x[200]), 550 in 1..700 and 750 negatives.
    big = {200, *rng.sample(range(201, n), 199)}
    rest = [i for i in range(1, n) if i not in big]
    zeros = set(rng.sample(rest, 500))
    rest = [i for i in range(n) if i not in big and i not in zeros]
    small = set(rng.sample(rest, 550))
    x = [rng.randint(701, 1000) if i in big else 0 if i in zeros
         else rng.randint(1, 700) if i in small else rng.randint(-1000, -1)
         for i in range(n)]
    s = planted(rng, n, 50, 200, lambda: rng.randint(-32768, -30001),
                lambda: rng.randint(-30000, 32767))
    d = planted(rng, n, 20, 100, lambda: rng.randint(6001, 8000) / 8,
                lambda: rng.randint(-8000, 6000) / 8)
    score = planted(rng, nrec, 100, 50, lambda: rng.randint(901, 1000),
                    lambda: rng.randint(0, 900))
    hashes = _hash_entries(rng, 300, [1, 2, 3, 4] * 75, deep=100)
    poke = rng.randrange(n)
    negative = sum(2 * v for v in d if v < 0)

    mix = [
        Query(f"x[..{n}] !=? 0",
              tuple(line(f"x[{i}]", v) for i, v in enumerate(x) if v != 0)),
        Query(f"#/(x[..{n}] >? 0)", (str(sum(1 for v in x if v > 0)),)),
        Query(f"+/s[..{n}]", (str(sum(s)),)),
        Query(f"s[..{n}] <? -30000",
              tuple(line(f"s[{i}]", v) for i, v in enumerate(s)
                    if v < -30000)),
        Query(f"d[..{n}] >? 750",
              tuple(line(f"d[{i}]", fmt_double(v)) for i, v in enumerate(d)
                    if v > 750)),
        Query(f"x[..{n}]*3+1 >? 2101",
              tuple(line(f"x[{i}]*3+1", v * 3 + 1) for i, v in enumerate(x)
                    if v * 3 + 1 > 2101)),
        Query(f"recs[..{nrec}].score >? 900",
              tuple(line(f"recs[{i}].score", v) for i, v in enumerate(score)
                    if v > 900)),
        Query(f"(hash[..{HASH_BUCKETS}] !=? 0)->scope >? 5",
              tuple(line(f"hash[{b}]->scope", chain_[0][1])
                    for b, chain_ in sorted(hashes.items())
                    if chain_[0][1] > 5)),
        Query(f"+/(d[..{n}]*2 <? 0)",
              (reduced(negative, fmt_double(negative)),)),
        Query(f"+/recs[..{nrec}].score", (str(sum(score)),)),
        # Stores the value already there, so the data stays as generated.
        Query(f"x[{poke}] = {x[poke]}", (f"x[{poke}]={x[poke]} = {x[poke]}",),
              writes=True),
    ]
    data = {"x": x, "s": s, "d": d, "score": score, "hash": hashes}
    return Workload("scan", data=data, mix=mix)


# -- chase ---------------------------------------------------------------------
CHASE_LIST = 2000
CHASE_TREE = 1000


def _bst_preorder(keys):
    """(key, path) pairs of the BST built by inserting ``keys`` in order."""
    nodes = {}                        # key -> [left, right]
    root = None
    for key in keys:
        if root is None:
            root = key
            nodes[key] = [None, None]
            continue
        current = root
        while True:
            side = 0 if key < current else 1
            child = nodes[current][side]
            if child is None:
                nodes[current][side] = key
                nodes[key] = [None, None]
                break
            current = child
    out = []
    stack = [(root, ())]
    while stack:
        key, path = stack.pop()
        out.append((key, path))
        left, right = nodes[key]
        if right is not None:
            stack.append((right, path + ("right",)))
        if left is not None:
            stack.append((left, path + ("left",)))
    return out


def chase(seed: int) -> Workload:
    rng = random.Random(f"chase:{seed}")
    n = CHASE_LIST
    values = planted(rng, n, 60, 180, lambda: rng.randint(9001, 9999),
                     lambda: rng.randint(0, 9000))
    keys = rng.sample(range(100 * CHASE_TREE), CHASE_TREE)
    ordered = sorted(keys)
    k_cut = ordered[-331]
    k_low = ordered[100]
    # The root (first key inserted) is among the 330 keys above the cut,
    # so the filtered walk yields its first value at once.
    top = keys.index(rng.choice(ordered[-330:]))
    keys[0], keys[top] = keys[top], keys[0]
    hashes = _hash_entries(rng, 200, list(range(1, 7)) * 33 + [4, 4],
                           deep=60)
    preorder = _bst_preorder(keys)
    # The first and last picks are fixed: they set the select's time to
    # first value and its walk length.
    picks = [200, 500 + rng.randrange(200), 1000]
    hop = 1200 + rng.randrange(10)

    def node(j: int, fold: int = FOLD) -> str:
        return chain("L", "next", j, fold) + "->value"

    mix = [
        Query("L-->next->value",
              tuple(line(node(j), v) for j, v in enumerate(values))),
        Query("#/(L-->next)", (str(len(values)),)),
        Query("L-->next->value >? 9000",
              tuple(line(node(j), v) for j, v in enumerate(values)
                    if v > 9000)),
        Query("(L-->next->value)[[%s]]" % ",".join(map(str, picks)),
              tuple(line(node(j, SELECT_FOLD), values[j]) for j in picks)),
        Query(f"L-->next[[{hop}]]->value",
              (line(node(hop, SELECT_FOLD), values[hop]),)),
        Query(f"root-->(left,right)->key >? {k_cut}",
              tuple(line(expansion_path("root", path) + "->key", key)
                    for key, path in preorder if key > k_cut)),
        Query("#/(root-->(left,right))", (str(len(keys)),)),
        Query(f"(hash[..{HASH_BUCKETS}] !=? 0)-->next->scope",
              tuple(line(chain(f"hash[{b}]", "next", j) + "->scope", scope)
                    for b, chain_ in sorted(hashes.items())
                    for j, (_, scope) in enumerate(chain_))),
        Query("L-->next->value <? 500",
              tuple(line(node(j), v) for j, v in enumerate(values)
                    if v < 500)),
        Query(f"+/(root-->(left,right)->key <? {k_low})",
              (str(sum(k for k in keys if k < k_low)),)),
        # Stores the value already there, so the data stays as generated.
        Query(f"L->next->value = {values[1]}",
              (f"L->next->value={values[1]} = {values[1]}",), writes=True),
    ]
    data = {"values": values, "keys": keys, "hash": hashes}
    return Workload("chase", data=data, mix=mix)


# -- serve ---------------------------------------------------------------------
SERVE_X = 1024
SERVE_LIST = 256
#: One fixed sequence per client connection: (reads, writes, write
#: period).  Only the first client writes, every ``period``-th query, so
#: a write never queues behind the other client's write: the slow
#: samples are one mode (a write, or a read that waited for one), not
#: two whose mix drifts with the clients' alignment.  The second client
#: only reads.  Writes are 8 of 64 queries per round.
SERVE_CLIENTS = (
    (["point"] * 5 + ["chain"] * 5 + ["range"] * 5 + ["select"] * 5
     + ["alias"] * 4, ["assign"] * 4 + ["increment"] * 4, 4),
    (["point"] * 7 + ["chain"] * 7 + ["range"] * 6 + ["select"] * 6
     + ["alias"] * 6, [], 0),
)
#: List depths of the ``chain`` reads, cycled.
CHAIN_DEPTHS = (1, 2, 3, 4, 5, 3)


def _c_array(name: str, values) -> str:
    body = ",\n    ".join(", ".join(str(v) for v in values[i:i + 16])
                          for i in range(0, len(values), 16))
    return f"int {name}[{len(values)}] = {{\n    {body}\n}};\n"


def serve_source(x, lv) -> str:
    """A mini-C program that leaves ``x`` and the list ``L`` in memory."""
    return (
        "struct node { int value; struct node *next; };\n"
        "struct node *L;\n"
        + _c_array("x", x) + _c_array("lv", lv) +
        "int main(void) {\n"
        "    int i;\n"
        "    struct node *n, *tail;\n"
        "    L = 0;\n"
        "    tail = 0;\n"
        f"    for (i = 0; i < {len(lv)}; i++) {{\n"
        "        n = (struct node *) malloc(sizeof(struct node));\n"
        "        n->value = lv[i];\n"
        "        n->next = 0;\n"
        "        if (tail) tail->next = n; else L = n;\n"
        "        tail = n;\n"
        "    }\n"
        "    return 0;\n"
        "}\n")


def _serve_query(rng: random.Random, kind: str, alias: str, depth: int,
                 x, lv) -> Query:
    if kind == "point":
        i = rng.randrange(len(x))
        return Query(f"x[{i}]", (line(f"x[{i}]", x[i]),))
    if kind == "chain":
        sym = "L" + "->next" * depth + "->value"
        return Query(sym, (line(sym, lv[depth]),))
    if kind == "range":
        a = rng.randrange(len(x) - 4)
        return Query(f"x[{a}..{a + 4}]",
                     tuple(line(f"x[{i}]", x[i]) for i in range(a, a + 5)))
    if kind == "select":
        picks = [rng.randrange(8), 16 + rng.randrange(8)]
        return Query("(L-->next->value)[[%s]]" % ",".join(map(str, picks)),
                     tuple(line(chain("L", "next", j, SELECT_FOLD) + "->value",
                                lv[j]) for j in picks))
    if kind == "alias":
        i = rng.randrange(len(x))
        return Query(f"{alias} := x[{i}]", (line(alias, x[i]),))
    if kind == "assign":
        i = rng.randrange(len(x))
        v = rng.randint(1, 999)
        return Query(f"x[{i}] = {v}", (f"x[{i}]={v} = {v}",), writes=True)
    a = rng.randrange(len(x) - 2)
    return Query(f"x[{a}..{a + 2}]++",
                 tuple(line(f"x[{i}]++", x[i]) for i in range(a, a + 3)),
                 writes=True)


def serve(seed: int) -> Workload:
    rng = random.Random(f"serve:{seed}")
    x = [rng.randint(-1000, 1000) for _ in range(SERVE_X)]
    lv = [rng.randint(0, 9999) for _ in range(SERVE_LIST)]
    clients = []
    for client, (read_kinds, write_kinds, period) in \
            enumerate(SERVE_CLIENTS):
        reads = list(read_kinds)
        writes = list(write_kinds)
        depths = [CHAIN_DEPTHS[k % len(CHAIN_DEPTHS)]
                  for k in range(reads.count("chain"))]
        rng.shuffle(reads)
        rng.shuffle(writes)
        rng.shuffle(depths)
        sequence = []
        for slot in range(len(reads) + len(writes)):
            if period and slot % period == period - 1:
                kind = writes.pop()
            else:
                kind = reads.pop()
            depth = depths.pop() if kind == "chain" else 0
            sequence.append(_serve_query(rng, kind, f"a{client}_{slot}",
                                         depth, x, lv))
        clients.append(sequence)
    return Workload("serve", data={"x": x, "lv": lv},
                    clients=clients, source=serve_source(x, lv))


BUILDERS = {"scan": scan, "chase": chase, "serve": serve}


def make(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


# -- building the in-process target ---------------------------------------------
def build_target(workload: Workload):
    """The workload's data placed into a fresh simulated target.

    Uses only the public program-building API: ``TargetProgram.declare``
    / ``write_value`` and the ``repro.target.builder`` structure makers.
    """
    from repro.ctype.types import DOUBLE, INT, SHORT
    from repro.target import builder
    from repro.target.program import TargetProgram
    from repro.target.stdlib import install_stdlib

    program = TargetProgram()
    install_stdlib(program)
    data = workload.data
    if workload.name == "scan":
        builder.int_array(program, "x", data["x"])
        (s,) = program.declare(f"short s[{len(data['s'])}];")
        for i, v in enumerate(data["s"]):
            program.write_value(s.address + 2 * i, SHORT, v)
        (d,) = program.declare(f"double d[{len(data['d'])}];")
        for i, v in enumerate(data["d"]):
            program.write_value(d.address + 8 * i, DOUBLE, v)
        (recs,) = program.declare(
            "struct rec { int id; int score; double w; } "
            f"recs[{len(data['score'])}];")
        record = program.types.struct_tag("rec")
        id_off = record.field("id").offset
        score_off = record.field("score").offset
        for i, v in enumerate(data["score"]):
            base = recs.address + i * record.size
            program.write_value(base + id_off, INT, i)
            program.write_value(base + score_off, INT, v)
        builder.symbol_hash_table(program, HASH_BUCKETS, data["hash"])
    elif workload.name == "chase":
        builder.linked_list(program, "L", data["values"])
        builder.bst_insert_all(program, "root", data["keys"])
        builder.symbol_hash_table(program, HASH_BUCKETS, data["hash"])
    else:
        raise ValueError(f"{workload.name} runs its target in a server")
    return program
