"""Command-line front end.

Subcommands: enumerate, apply, biject, graph, verify, dim, string-datum.
Streams are line-delimited JSON; graphs and reports are single JSON or DOT
documents.  ``enumerate`` and ``graph`` render their JSON from one
%-template per crystal, made from its first element by ``render_key`` (the
key) and ``json.dumps`` (a graph's vertex and edge), and filled from each
element's rows.  They write their output as they make it, after every
check, and never hold a whole document.  Both read one element stream,
``_elements``: ``enumerate`` reads it lazily, so its first line goes out
after one element is made.  ``graph`` holds each vertex once and no
operator image: it lowers each element along each label itself, looks the
image up once and keeps only the label and vertex numbers.  Exit codes: 0
for success (including an absent operator image, printed as the literal
``none``), 1 for a verification failure, 2 for an input error, such as a
payload nested too deeply or a ``--report`` file that cannot be written
(found before any shape is verified), 3 for any other exception: an
internal error, such as a guard rejecting an operator image, a lowering
image outside the crystal in ``graph``, or a repeated element in ``graph``
or ``verify``; an exception with an empty message, such as ``MemoryError``,
is reported by its type name.
NO_COLOR suppresses color.

A process builds one parser: ``build_parser`` is cached, and every ``main``
call parses with it, so an op pays only for its own work.  The parser holds
no handler.  ``main`` picks the ``cmd_*`` function for the subcommand from a
table it makes on each call, so each handler is read from the module when
it runs, and a rebinding of a ``cmd_*`` name (a test's patch, a tracer's
wrapper) takes effect on the next call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Optional, Sequence, TextIO

from . import bijection, crystal, gtpattern, ssyt
from .crystal import render_key
from .core import Partition, ShapeError, as_partition, partitions_up_to, quote, weyl_dimension

_PALETTE = ("blue", "red", "forestgreen", "darkorange", "purple", "teal", "maroon", "goldenrod")


def _parse_partition(text: str) -> Partition:
    try:
        parts = [int(piece) for piece in text.split(",")] if text.strip() else []
    except ValueError:
        raise ShapeError(f"shape {quote(text)} must be comma-separated integers") from None
    return as_partition(parts)


def _load_payload(text: str) -> Any:
    """Inline JSON when the value starts with '{' or '[', otherwise a file path."""
    if not text.lstrip().startswith(("{", "[")):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise OSError(f"cannot read payload file {quote(text)}: {exc.strerror}") from None
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("payload nests too deeply") from None


def _open_report(path: str) -> TextIO:
    """The ``--report`` file, opened for writing; the error names the path as ``core.quote`` shows it."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report file {quote(path)}: {exc.strerror}") from None


def _element_from_args(args: argparse.Namespace):
    """Return ('gtp', pattern) or ('ssyt', tableau) from the payload options."""
    if getattr(args, "gtp", None) is not None:
        return "gtp", gtpattern.GTPattern.from_dict(_load_payload(args.gtp))
    return "ssyt", ssyt.Tableau.from_dict(_load_payload(args.ssyt))


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _status(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _color_enabled():
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return word


def _placeholder(first: Any) -> dict:
    """``first.to_dict()`` with each row entry replaced by the marker ``"%d"``.

    Every element of one crystal has the n, shape and row lengths of its
    first, so the JSON of this placeholder, made by ``render_key`` or
    ``json.dumps`` and passed through ``_unmark``, is a %-template of the
    JSON of each element, filled by ``_entries``.
    """
    data = first.to_dict()
    data["rows"] = [["%d"] * len(row) for row in data["rows"]]
    return data


def _unmark(text: str) -> str:
    """Turn the quoted markers ``"%d"`` and ``"%s"`` into %-fields; nothing else in the JSON holds a ``%``."""
    return text.replace('"%d"', "%d").replace('"%s"', "%s")


def _entries(element: Any) -> tuple[int, ...]:
    """The row entries in reading order (``chain``, not ``sum(rows, ())``, which is quadratic in the rows)."""
    return tuple(chain.from_iterable(element.rows))


def _item(doc: dict) -> str:
    """The %-template of ``doc`` as ``json.dumps(indent=2, sort_keys=True)`` lays out an item of a top-level array."""
    return _unmark("    " + json.dumps(doc, indent=2, sort_keys=True).replace("\n", "\n    "))


def _write_array(template: str, fills: Iterable[tuple]) -> None:
    """Write the ``template % fill`` items as the array value of a top-level field, laid out as by ``json.dumps``."""
    write = sys.stdout.write
    sep = "["
    for fill in fills:
        write(f"{sep}\n{template % fill}")
        sep = ","
    write("[]" if sep == "[" else "\n  ]")


def _elements(args: argparse.Namespace) -> Iterator[Any]:
    """The crystal of ``-n`` and ``-l``, lazily, in pattern order: its patterns, or with ``--model ssyt`` their tableaux.

    The tableaux come from ``bijection.enumerate_pattern_tableaux``, which
    fills them letter by letter down the pattern walk and calls no map of
    the bijection.
    """
    lam = _parse_partition(args.shape)
    if args.model == "ssyt":
        return bijection.enumerate_pattern_tableaux(args.n, lam)
    return gtpattern.enumerate_patterns(args.n, lam)


def cmd_enumerate(args: argparse.Namespace) -> int:
    # Each element is made as its line is due, so the first line waits for one pattern or tableau.
    elements = _elements(args)
    if args.format == "text":
        for element in elements:
            print(element.pretty())
            print()
        return 0
    first = next(elements)
    line = _unmark(render_key(_placeholder(first))) + "\n"
    write = sys.stdout.write
    for element in chain((first,), elements):
        write(line % _entries(element))
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    kind, element = _element_from_args(args)
    model = crystal.pattern_model(element.n) if kind == "gtp" else crystal.tableau_model(element.n)
    result = (model.lower if args.op == "f" else model.raise_)(element, args.i)
    if result is None:
        print("none")
    elif args.format == "text":
        print(result.pretty())
    else:
        print(render_key(result.to_dict()))
    return 0


def cmd_biject(args: argparse.Namespace) -> int:
    kind, element = _element_from_args(args)
    image = bijection.pattern_to_tableau(element) if kind == "gtp" else bijection.tableau_to_pattern(element)
    print(render_key(image.to_dict()))
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    elements = list(_elements(args))
    model = crystal.tableau_model(args.n) if args.model == "ssyt" else crystal.pattern_model(args.n)
    placeholder = _placeholder(elements[0])
    key = _unmark(render_key(placeholder))
    keys = [key % _entries(e) for e in elements]
    number = {e: k for k, e in enumerate(elements)}
    if len(number) != len(elements):
        raise RuntimeError("elements are not distinct")
    # Each lowering image is looked up once, as the walk makes it, and then
    # dropped: only vertex numbers are kept.  Vertices keep element order;
    # edges are sorted by (source key, label), a pair that no two edges share.
    numbered = []
    for a, u in enumerate(elements):
        for i in model.labels:
            v = model.lower(u, i)
            if v is None:
                continue
            b = number.get(v)
            if b is None:
                raise RuntimeError(f"lowering {keys[a]} along {i} escapes the crystal: {render_key(v.to_dict())}")
            numbered.append((keys[a], i, a, b))
    numbered.sort()
    write = sys.stdout.write
    if args.format == "json":
        names = [encode_basestring_ascii(k) for k in keys]
        write('{\n  "edges": ')
        edge = _item({"from": "%s", "i": "%d", "to": "%s"})
        _write_array(edge, ((names[a], i, names[b]) for _, i, a, b in numbered))
        write(f',\n  "n": {args.n},\n  "vertices": ')
        vertex = _item({"element": placeholder, "key": "%s"})
        _write_array(vertex, ((*_entries(e), name) for e, name in zip(elements, names)))
        write("\n}\n")
        return 0
    write('digraph crystal {\n  rankdir=TB;\n  node [shape=box, fontname="monospace"];\n')
    for k, e in enumerate(elements):
        write(f'  v{k} [label="{e.compact()}"];\n')
    for _, i, a, b in numbered:
        write(f'  v{a} -> v{b} [label="{i}", color="{_PALETTE[(i - 1) % len(_PALETTE)]}"];\n')
    write("}\n")
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    lam = _parse_partition(args.shape)
    print(weyl_dimension(args.n, lam))
    return 0


def cmd_string_datum(args: argparse.Namespace) -> int:
    pattern = gtpattern.GTPattern.from_dict(_load_payload(args.gtp))
    datum = gtpattern.string_datum(pattern)
    doc = {
        "n": pattern.n,
        "entries": [{"i": i, "j": j, "value": v} for (i, j), v in datum.items()],
        "word": list(gtpattern.reduced_long_word(pattern.n)),
        "along_word": list(gtpattern.along_word(datum, pattern.n)),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.gtp is not None or args.ssyt is not None:
        element = _element_from_args(args)[1]
        n = element.n
        if args.n is not None and args.n != n:
            raise ValueError(f"-n {args.n} disagrees with the payload's n={n}")
        shapes = [(n, element.shape)]
    elif args.all_upto is not None:
        if args.n is None:
            raise ValueError("--all-upto requires -n")
        if args.all_upto < 0:
            raise ValueError("--all-upto must be non-negative")
        shapes = [(args.n, lam) for lam in partitions_up_to(args.all_upto, args.n)]
    else:
        if args.n is None or args.shape is None:
            raise ValueError("verify needs -n and -l, or --all-upto, or an element payload")
        shapes = [(args.n, _parse_partition(args.shape))]

    # The report file is opened before the first shape, so a bad path fails at once.
    with _open_report(args.report) if args.report else nullcontext() as handle:
        records = [crystal.verify_shape(n, lam) for n, lam in shapes]
        all_pass = all(record["pass"] for record in records)
        report = {"shapes": records, "pass": all_pass}
        text = json.dumps(report, indent=2, sort_keys=True) if args.json or args.report else ""
        if handle is not None:
            handle.write(text + "\n")
    if args.json:
        print(text)
    else:
        for record in records:
            failed = sorted(name for name, entry in record["checks"].items() if not entry["pass"])
            status = _status(not failed)
            lam_text = ",".join(str(x) for x in record["lambda"]) or "-"
            detail = f" failing: {', '.join(failed)}" if failed else ""
            print(f"{status} n={record['n']} shape={lam_text} elements={record['elements']}{detail}")
        print(f"{_status(all_pass)} {len(records)} shape(s) verified")
    return 0 if all_pass else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every caller, so no caller changes it."""
    parser = argparse.ArgumentParser(
        prog="gtcrystal", description="Crystals on Gelfand-Tsetlin patterns and tableaux, checked against each other."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape(p: argparse.ArgumentParser, required: bool = True, shape_group: Any = None) -> None:
        p.add_argument("-n", type=int, required=required, help="number of pattern rows / alphabet bound")
        (shape_group or p).add_argument("-l", "--shape", required=required, help="comma-separated top row, e.g. 3,1,0")

    def add_payload(group: Any, purpose: str = "payload (inline JSON or file path)") -> None:
        group.add_argument("--gtp", help=f"pattern {purpose}")
        group.add_argument("--ssyt", help=f"tableau {purpose}")

    p_enum = sub.add_parser("enumerate", help="stream all elements of one crystal")
    add_shape(p_enum)
    p_enum.add_argument("--model", choices=("gtp", "ssyt"), default="gtp")
    p_enum.add_argument("--format", choices=("json", "text"), default="json")

    p_apply = sub.add_parser("apply", help="apply a crystal operator to one element")
    p_apply.add_argument("op", choices=("f", "e"), help="f lowers, e raises")
    p_apply.add_argument("i", type=int, help="operator label")
    add_payload(p_apply.add_mutually_exclusive_group(required=True))
    p_apply.add_argument("--format", choices=("json", "text"), default="json")

    p_biject = sub.add_parser("biject", help="map a pattern to its tableau or back")
    add_payload(p_biject.add_mutually_exclusive_group(required=True))

    p_graph = sub.add_parser("graph", help="export one crystal graph")
    add_shape(p_graph)
    p_graph.add_argument("--model", choices=("gtp", "ssyt"), default="gtp")
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    source = p_verify.add_mutually_exclusive_group()
    add_shape(p_verify, required=False, shape_group=source)
    source.add_argument("--all-upto", type=int, help="sweep all shapes with at most this many boxes")
    add_payload(source, "payload to take the shape from")
    p_verify.add_argument("--json", action="store_true", help="print the JSON report instead of the summary")
    p_verify.add_argument("--report", help="also write the JSON report to this file")

    p_dim = sub.add_parser("dim", help="dimension of the crystal of one shape")
    add_shape(p_dim)

    p_sd = sub.add_parser("string-datum", help="closed-form string exponents of a pattern")
    p_sd.add_argument("--gtp", required=True, help="pattern payload (inline JSON or file path)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handlers = {
            "enumerate": cmd_enumerate,
            "apply": cmd_apply,
            "biject": cmd_biject,
            "graph": cmd_graph,
            "verify": cmd_verify,
            "dim": cmd_dim,
            "string-datum": cmd_string_datum,
        }
        return handlers[args.command](args)
    except SystemExit as exc:  # argparse: usage error or --help
        return int(exc.code or 0)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
