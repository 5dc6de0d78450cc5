"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same inputs, byte for byte, in any process.  Each generated item carries
the answer it must produce, derived apart from the prover:

* corpus pairs carry their rule's hand-written ``Expectation``;
* respellings and left/right swaps carry their source rule's expectation
  (respelling changes only keyword case and adds a trailing comment;
  equivalence is symmetric);
* novel pairs and cluster spellings are equivalent or non-equivalent by
  construction: every base shape carries constants no other shape uses.

Run as a script to write the generated inputs and their expected answers
as JSON Lines (see ``perfbench/README.md``)::

    python3 perfbench/inputs.py --seed 1 --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.sql.lexer import tokenize  # noqa: E402

#: The catalog of novel serve-zipf pairs and of the cluster stream.
SHAPE_PROGRAM = """schema rs(a:int, b:int);
table r(rs);
table s(rs);
"""

#: serve-zipf requests per class in every block of the stream.  The
#: shares are an assumption, not a measurement: the repository holds no
#: request log to take them from.  Repeats are the majority because the
#: workload stands for a warm service that is asked about the same
#: rewrites again and again; respellings (new text, same denotation) and
#: swaps each get a share of their own so that both verdict-cache tiers,
#: exact text and structural, answer some requests; novel pairs keep the
#: decision kernel on the path.  Novel pairs cover each shape family
#: once proved and once not proved.  Runs also report the p50 of every
#: class, so a change that helps one class can be judged on that class
#: and not only on this blend.
CLASS_COUNTS = (
    ("repeat", 34),
    ("respell", 16),
    ("swap", 6),
    ("novel", 8),
)

#: Requests per block of the serve-zipf stream; a run attempts whole blocks.
BLOCK = sum(count for _, count in CLASS_COUNTS)

#: serve-zipf requests the script writes (the stream itself is endless).
WRITTEN_REQUESTS = 50 * BLOCK

#: cluster-flood make-up: base shapes per family, spellings per shape.
SHAPES_PER_FAMILY = 8
SPELLINGS_PER_SHAPE = 16

_ALIASES = ("x", "y", "z", "w", "u", "v")
FAMILIES = ("select", "join", "selfjoin", "distinct")


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pair:
    """One verification request and the verdict it must produce."""

    klass: str
    source: str
    program: str
    left: str
    right: str
    expected: str

    def request(self) -> Dict[str, str]:
        return {"left": self.left, "right": self.right, "program": self.program}


def corpus_rules():
    """The 91 corpus rules, ordered by id."""
    from repro.corpus import all_rules

    return all_rules()


def corpus_pairs(rules=None) -> List[Pair]:
    """Every corpus rule as a pair, with its paper expectation."""
    rules = corpus_rules() if rules is None else rules
    return [
        Pair("corpus", r.rule_id, r.program, r.left, r.right, r.expectation.value)
        for r in rules
    ]


# ---------------------------------------------------------------------------
# Respelling: keyword case and a trailing comment
# ---------------------------------------------------------------------------


def respell(sql: str, rng: random.Random, tag: str) -> str:
    """``sql`` with every keyword re-cased and a trailing ``--`` comment.

    Keyword positions come from the lexer, so identifiers (case-sensitive
    here) and string literals are never touched.
    """
    starts = [0]
    for index, ch in enumerate(sql):
        if ch == "\n":
            starts.append(index + 1)
    chars = list(sql)
    for token in tokenize(sql):
        if token.kind != "KEYWORD":
            continue
        offset = starts[token.line - 1] + token.column - 1
        word = sql[offset : offset + len(token.value)]
        style = rng.randrange(3)
        new = word.upper() if style == 0 else word.lower() if style == 1 else word.title()
        chars[offset : offset + len(word)] = list(new)
    return "".join(chars) + f" -- {tag}"


# ---------------------------------------------------------------------------
# Base shapes and their equivalent spellings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """One base query shape: a family and its own constants."""

    family: str
    c1: int
    c2: int

    @property
    def label(self) -> str:
        return f"{self.family}:{self.c1}:{self.c2}"


def _pick_aliases(rng: random.Random, k: int) -> List[str]:
    return rng.sample(_ALIASES, k)


def _eq(rng: random.Random, lhs: str, rhs: str) -> str:
    """``lhs = rhs`` in a random orientation."""
    return f"{lhs} = {rhs}" if rng.random() < 0.5 else f"{rhs} = {lhs}"


def _conj(rng: random.Random, parts: Sequence[str]) -> str:
    parts = list(parts)
    rng.shuffle(parts)
    return " AND ".join(parts)


def spell(shape: Shape, rng: random.Random) -> str:
    """One random equivalent spelling of ``shape``.

    Spellings vary alias names, conjunct order, predicate orientation,
    subquery nesting and FROM order; each is equivalent to the shape's
    plain form under bag semantics.
    """
    c1, c2 = shape.c1, shape.c2
    if shape.family == "select":
        x, y = _pick_aliases(rng, 2)
        if rng.random() < 0.5:
            where = _conj(rng, [_eq(rng, f"{x}.a", c1), _eq(rng, f"{x}.b", c2)])
            return f"SELECT * FROM r {x} WHERE {where}"
        inner, outer = (c1, c2) if rng.random() < 0.5 else (c2, c1)
        inner_col, outer_col = ("a", "b") if inner == c1 else ("b", "a")
        return (
            f"SELECT * FROM (SELECT * FROM r {y} WHERE "
            f"{_eq(rng, f'{y}.{inner_col}', inner)}) {x} "
            f"WHERE {_eq(rng, f'{x}.{outer_col}', outer)}"
        )
    if shape.family == "join":
        x, y = _pick_aliases(rng, 2)
        tables = [f"r {x}", f"s {y}"]
        rng.shuffle(tables)
        where = _conj(
            rng, [_eq(rng, f"{x}.b", f"{y}.a"), _eq(rng, f"{x}.a", c1)]
        )
        return f"SELECT {x}.a, {y}.b FROM {', '.join(tables)} WHERE {where}"
    if shape.family == "selfjoin":
        # Two copies of r; the alias that projects is chosen at random,
        # so alias roles permute between spellings.
        x, y = _pick_aliases(rng, 2)
        tables = [f"r {x}", f"r {y}"]
        rng.shuffle(tables)
        where = _conj(
            rng,
            [
                _eq(rng, f"{x}.a", f"{y}.a"),
                _eq(rng, f"{y}.b", c1),
                _eq(rng, f"{x}.b", c2),
            ],
        )
        return f"SELECT {x}.b FROM {', '.join(tables)} WHERE {where}"
    if shape.family == "distinct":
        x, y = _pick_aliases(rng, 2)
        if rng.random() < 0.5:
            where = _conj(rng, [_eq(rng, f"{x}.b", c1), _eq(rng, f"{x}.a", c2)])
            return f"SELECT DISTINCT {x}.a FROM r {x} WHERE {where}"
        return (
            f"SELECT DISTINCT {x}.a FROM (SELECT * FROM r {y} WHERE "
            f"{_eq(rng, f'{y}.b', c1)}) {x} WHERE {_eq(rng, f'{x}.a', c2)}"
        )
    raise ValueError(f"unknown family {shape.family!r}")


def make_shapes(rng: random.Random, count: int, low: int, high: int) -> List[Shape]:
    """``count`` shapes cycling through the families, with constants
    drawn without replacement from ``[low, high)`` — no two shapes share
    a constant, so distinct shapes are non-equivalent by construction."""
    constants = rng.sample(range(low, high), 2 * count)
    return [
        Shape(FAMILIES[i % len(FAMILIES)], constants[2 * i], constants[2 * i + 1])
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# cluster-flood
# ---------------------------------------------------------------------------


def cluster_stream(seed: int) -> List[Tuple[str, str]]:
    """The shuffled cluster stream: ``(query, shape label)`` pairs.

    ``SHAPES_PER_FAMILY`` shapes per family, ``SPELLINGS_PER_SHAPE``
    distinct spellings of each, shuffled together.
    """
    rng = random.Random(f"cluster-flood/{seed}")
    shapes = make_shapes(rng, SHAPES_PER_FAMILY * len(FAMILIES), 1, 100000)
    stream: List[Tuple[str, str]] = []
    for shape in shapes:
        seen = set()
        while len(seen) < SPELLINGS_PER_SHAPE:
            text = spell(shape, rng)
            if text not in seen:
                seen.add(text)
                stream.append((text, shape.label))
    rng.shuffle(stream)
    return stream


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------


def zipf_weights(n: int) -> List[float]:
    return [1.0 / rank for rank in range(1, n + 1)]


def warmup_pairs(rules=None) -> List[Pair]:
    """What fills the caches before timing: every rule, both ways."""
    pairs = corpus_pairs(rules)
    return pairs + [
        Pair("swap", p.source, p.program, p.right, p.left, p.expected)
        for p in pairs
    ]


def serve_stream(seed: int, rules=None) -> Iterator[Pair]:
    """The endless serve-zipf request stream for ``seed``, block by block.

    Every block of ``BLOCK`` requests holds ``CLASS_COUNTS`` of each class
    in a seeded order: exact repeats, respellings, left/right swaps and
    novel generated pairs.  Rules are drawn with weight 1/rank.  The
    ranking is part of the workload, the same for every seed (a fixed
    shuffle of the rule ids), so seeds differ only in their draws and
    not in which rules are hot.  Respellings and novel pairs carry a
    running counter, so each is new text.
    """
    rng = random.Random(f"serve-zipf/{seed}")
    rules = list(corpus_rules() if rules is None else rules)
    random.Random("serve-zipf/ranking").shuffle(rules)
    weights = zipf_weights(len(rules))
    counter = 0
    while True:
        classes = [name for name, count in CLASS_COUNTS for _ in range(count)]
        rng.shuffle(classes)
        novel = [(family, proved) for family in FAMILIES for proved in (True, False)]
        rng.shuffle(novel)
        for klass in classes:
            counter += 1
            if klass == "novel":
                yield novel_pair(rng, counter, *novel.pop())
                continue
            rule = rng.choices(rules, weights)[0]
            left, right = rule.left, rule.right
            if klass == "swap":
                left, right = right, left
            elif klass == "respell":
                left = respell(left, rng, f"l{counter}")
                right = respell(right, rng, f"r{counter}")
            yield Pair(
                klass, rule.rule_id, rule.program, left, right,
                rule.expectation.value,
            )


def novel_pair(rng: random.Random, counter: int, family: str, proved: bool) -> Pair:
    """A generated pair over ``SHAPE_PROGRAM``: two spellings of one
    shape (proved), or spellings of two shapes of ``family`` that differ
    in a constant (not proved).  Constants grow with ``counter``, so the
    pair is new to every cache."""
    base = 1000000 + 10 * counter
    shape = Shape(family, base, base + 1)
    left = spell(shape, rng)
    if proved:
        right, expected = spell(shape, rng), "proved"
    else:
        other = Shape(family, base + 2, base + 3)
        right, expected = spell(other, rng), "not_proved"
    return Pair("novel", shape.label, SHAPE_PROGRAM, left, right, expected)


def take(iterator: Iterator[Pair], n: int) -> List[Pair]:
    return [next(iterator) for _ in range(n)]


# ---------------------------------------------------------------------------
# Script mode: write the generated inputs and their expected answers
# ---------------------------------------------------------------------------


def _write_jsonl(path: str, records) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(HERE, "out", "inputs"))
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    written = {
        "corpus-cold.jsonl": _write_jsonl(
            os.path.join(args.out, "corpus-cold.jsonl"),
            (vars(p) for p in corpus_pairs()),
        ),
        "serve-zipf.jsonl": _write_jsonl(
            os.path.join(args.out, "serve-zipf.jsonl"),
            (vars(p) for p in take(serve_stream(args.seed), WRITTEN_REQUESTS)),
        ),
        "cluster-flood.jsonl": _write_jsonl(
            os.path.join(args.out, "cluster-flood.jsonl"),
            ({"query": q, "label": label} for q, label in cluster_stream(args.seed)),
        ),
    }
    for name, count in written.items():
        print(f"{os.path.join(args.out, name)}: {count} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
