"""Command line front end: instance files, generators, and JSON reports.

Three line-oriented instance formats, all with '#' comments and blank
lines allowed anywhere, all indices 1-based in files (0-based in code):

  qspp                          bqp                       qap
  n m                           rows m                    n
  s t                           <rows lines of B>         <n rows of flows>
  <m lines: tail head>          <one line: b>             <n rows of dists>
  nnz                           nnz
  <nnz lines: i j value>        <nnz lines: i j value>
                                linear        (optional)
                                <m values>

Values are integers, fractions like 3/4, or decimals like 1.5; a decimal
anywhere float-tags the instance (exact-only operations then refuse it).
A qspp file names at most 2m + 2 vertices (source, target, arc ends).
Every format is capped at MAX_VARIABLES binary variables (arcs for qspp,
columns for bqp, n^2 placements for qap), checked before Q is allocated.
Serialization inverts parsing exactly, float tag included, so the sha256
digest of the canonical serialization identifies an instance regardless
of comments or whitespace in the source file.

Reports are JSON on stdout: a deterministic ``payload`` (exact values as
fraction strings, stable key order) plus a ``runtime_s`` field outside
it.  Exit codes: 0 ok, 2 unreadable or malformed file, 3 semantic
validation failure, 4 enumeration cap exceeded (paths, permutations or
binary vectors), 5 LP failure, 6 bound chain violation or a certificate
that verify_report rejects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from quadlin.bounds import (
    MAX_ITER,
    BoundComputationError,
    ChainViolation,
    SkewStrategy,
    gl_bound,
    ggl_bound,
    lbb_prime,
    lbb_star,
    rlt1,
    verify_chain,
    verify_report,
)
from quadlin.exactnum import ZERO, RationalMatrix
from quadlin.graph import Dag, GraphError, PathExplosion
from quadlin.lpsolve import LpError
from quadlin.model import (
    BqpInstance,
    EnumerationTooLarge,
    FloatTaggedError,
    QsppInstance,
    brute_force_opt,
    generate_tournament,
    qap_to_bqp,
)
from quadlin.qspplin import linearize_qspp, spanning_set

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EXPLOSION = 4
EXIT_LP = 5
EXIT_CHAIN = 6

MAX_VARIABLES = 1000  # Q is m x m; no bound gets near this size anyway

# what brute_force_opt raises past its cap: paths, or permutations and
# binary vectors
_CAP_EXCEEDED = (PathExplosion, EnumerationTooLarge)


class ParseError(ValueError):
    """Malformed instance text; the message carries the line number."""


@dataclass(frozen=True)
class ParsedInstance:
    """An instance plus what is needed to write it back to text.

    qap files keep their flow/distance matrices here because the encoded
    BqpInstance only stores their Kronecker product.
    """

    format: str  # "qspp" | "bqp" | "qap"
    instance: object
    qap_flows: RationalMatrix = None
    qap_dists: RationalMatrix = None

    @property
    def float_tagged(self) -> bool:
        return self.instance.float_tagged


# ---------------------------------------------------------------------------
# value and line scanning

def _parse_value(tok: str, lineno: int):
    """Value token -> (Fraction, came_from_float)."""
    try:
        if "." in tok or "e" in tok or "E" in tok:
            f = float(tok)
            if f != f or f in (float("inf"), float("-inf")):
                raise ValueError
            return Fraction(f), True
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num), int(den)), False
        return Fraction(int(tok)), False
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"line {lineno}: bad value {tok!r}") from None


def _parse_int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: expected integer, got {tok!r}") \
            from None


class _Lines:
    """Comment-stripping line scanner that remembers line numbers."""

    def __init__(self, text: str):
        self.rows = []
        for no, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.rows.append((no, body.split()))
        self.pos = 0

    def take(self, count: int = None, what: str = "") -> tuple:
        if self.pos >= len(self.rows):
            raise ParseError(f"unexpected end of file ({what or 'more input'}"
                             " expected)")
        no, toks = self.rows[self.pos]
        self.pos += 1
        if count is not None and len(toks) != count:
            raise ParseError(
                f"line {no}: expected {count} fields for {what}, "
                f"got {len(toks)}")
        return no, toks

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def done(self, what: str):
        if self.pos < len(self.rows):
            no, _ = self.rows[self.pos]
            raise ParseError(f"line {no}: unexpected content after {what}")


def _index(tok: str, upper: int, lineno: int, what: str) -> int:
    v = _parse_int(tok, lineno)
    if not 1 <= v <= upper:
        raise ParseError(
            f"line {lineno}: {what} {v} out of range 1..{upper}")
    return v - 1


def _check_variables(m: int, lineno: int) -> None:
    """Refuse an instance over MAX_VARIABLES before anything is m x m."""
    if m > MAX_VARIABLES:
        raise ParseError(f"line {lineno}: {m} variables, more than the "
                         f"cap of {MAX_VARIABLES}")


def _matrix_from_triplets(lines: _Lines, m: int):
    """The m x m matrix of an entry count and that many ``i j value``
    lines, and whether a value was written as a float.  An integer value
    is read by ``int`` alone, and each distinct one becomes one shared
    Fraction; anything else goes through ``_parse_value``."""
    no, toks = lines.take(1, "entry count")
    nnz = _parse_int(toks[0], no)
    if nnz < 0:
        raise ParseError(f"line {no}: negative entry count")
    flat = [ZERO] * (m * m)
    seen = set()
    shared = {0: ZERO}
    tagged = False
    for _ in range(nnz):
        no, toks = lines.take(3, "matrix entry")
        i = _index(toks[0], m, no, "row index")
        j = _index(toks[1], m, no, "column index")
        if (i, j) in seen:
            raise ParseError(f"line {no}: duplicate entry ({i + 1}, {j + 1})")
        seen.add((i, j))
        try:
            x = int(toks[2])
        except ValueError:
            flat[i * m + j], was_float = _parse_value(toks[2], no)
            tagged = tagged or was_float
            continue
        v = shared.get(x)
        if v is None:
            v = shared[x] = Fraction(x)
        flat[i * m + j] = v
    return RationalMatrix(m, m, tuple(flat)), tagged


def _dense_rows(lines: _Lines, count: int, width: int, what: str):
    rows = []
    tagged = False
    for _ in range(count):
        no, toks = lines.take(width, what)
        row = []
        for tok in toks:
            v, was_float = _parse_value(tok, no)
            row.append(v)
            tagged = tagged or was_float
        rows.append(row)
    return rows, tagged


# ---------------------------------------------------------------------------
# parse / serialize

def parse_instance(text: str) -> ParsedInstance:
    lines = _Lines(text)
    no, toks = lines.take(None, "format header")
    fmt = toks[0].lower()
    if len(toks) != 1 or fmt not in ("qspp", "bqp", "qap"):
        raise ParseError(f"line {no}: expected format header qspp, bqp or "
                         f"qap, got {' '.join(toks)!r}")
    if fmt == "qspp":
        no, toks = lines.take(2, "vertex and arc counts")
        n = _parse_int(toks[0], no)
        m = _parse_int(toks[1], no)
        if n < 1 or m < 0:
            raise ParseError(f"line {no}: bad sizes")
        if n > 2 * m + 2:  # checked before the graph allocates per vertex
            raise ParseError(f"line {no}: {n} vertices, but the source, "
                             f"the target and {m} arcs name at most "
                             f"{2 * m + 2}")
        _check_variables(m, no)
        no, toks = lines.take(2, "source and target")
        s = _index(toks[0], n, no, "source")
        t = _index(toks[1], n, no, "target")
        arcs = []
        for _ in range(m):
            no, toks = lines.take(2, "arc")
            arcs.append((_index(toks[0], n, no, "tail"),
                         _index(toks[1], n, no, "head")))
        q, tagged = _matrix_from_triplets(lines, m)
        lines.done("the cost entries")
        g = Dag(n, arcs, s, t)
        return ParsedInstance("qspp",
                              QsppInstance(g, q, float_tagged=tagged))
    if fmt == "bqp":
        no, toks = lines.take(2, "row and variable counts")
        nrows = _parse_int(toks[0], no)
        m = _parse_int(toks[1], no)
        if nrows < 1 or m < 1:
            raise ParseError(f"line {no}: bad sizes")
        _check_variables(m, no)
        b_rows, tag_b = _dense_rows(lines, nrows, m, "constraint row")
        (rhs,), tag_rhs = _dense_rows(lines, 1, nrows, "right-hand side")
        q, tag_q = _matrix_from_triplets(lines, m)
        linear = (ZERO,) * m
        tag_l = False
        nxt = lines.peek()
        if nxt is not None and nxt[1] == ["linear"]:
            lines.take()
            (linear,), tag_l = _dense_rows(lines, 1, m, "linear term")
        lines.done("the instance body")
        inst = BqpInstance(
            B=RationalMatrix.from_rows(b_rows), b=tuple(rhs), Q=q,
            linear=linear,
            float_tagged=tag_b or tag_rhs or tag_q or tag_l)
        return ParsedInstance("bqp", inst)
    # qap
    no, toks = lines.take(1, "size")
    n = _parse_int(toks[0], no)
    if n < 2:
        raise ParseError(f"line {no}: qap needs size >= 2")
    _check_variables(n * n, no)
    a_rows, tag_a = _dense_rows(lines, n, n, "flow row")
    d_rows, tag_d = _dense_rows(lines, n, n, "distance row")
    lines.done("the matrices")
    a = RationalMatrix.from_rows(a_rows)
    d = RationalMatrix.from_rows(d_rows)
    inst = qap_to_bqp(a, d)
    if tag_a or tag_d:
        inst = replace(inst, float_tagged=True)
    return ParsedInstance("qap", inst, qap_flows=a, qap_dists=d)


def _file_value(v: Fraction, tagged: bool) -> str:
    if tagged:
        return repr(float(v))
    return str(v)


def _triplet_lines(q: RationalMatrix, tagged: bool) -> list:
    out = []
    for i in range(q.rows):
        for j in range(q.cols):
            v = q.at(i, j)
            if v != 0:
                out.append(f"{i + 1} {j + 1} {_file_value(v, tagged)}")
    return [str(len(out))] + out


def serialize_instance(parsed: ParsedInstance) -> str:
    tagged = parsed.float_tagged
    if parsed.format == "qspp":
        inst = parsed.instance
        g = inst.graph
        out = ["qspp", f"{g.n} {g.m}", f"{g.source + 1} {g.target + 1}"]
        out += [f"{u + 1} {v + 1}" for u, v in g.arcs]
        out += _triplet_lines(inst.Q, tagged)
        return "\n".join(out) + "\n"
    if parsed.format == "bqp":
        inst = parsed.instance
        out = ["bqp", f"{inst.B.rows} {inst.m}"]
        out += [" ".join(_file_value(v, tagged) for v in inst.B.row(i))
                for i in range(inst.B.rows)]
        out.append(" ".join(_file_value(v, tagged) for v in inst.b))
        out += _triplet_lines(inst.Q, tagged)
        if any(v != 0 for v in inst.linear):
            out.append("linear")
            out.append(" ".join(_file_value(v, tagged)
                                for v in inst.linear))
        return "\n".join(out) + "\n"
    if parsed.format == "qap":
        n = parsed.qap_flows.rows
        out = ["qap", str(n)]
        out += [" ".join(_file_value(v, tagged)
                         for v in parsed.qap_flows.row(i)) for i in range(n)]
        out += [" ".join(_file_value(v, tagged)
                         for v in parsed.qap_dists.row(i)) for i in range(n)]
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {parsed.format!r}")


def instance_digest(parsed: ParsedInstance) -> str:
    return hashlib.sha256(
        serialize_instance(parsed).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# JSON plumbing

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):  # -0.0 == 0.0, so both are written 0.0
        return obj or 0.0
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, RationalMatrix):
        return [_jsonable(list(obj.row(i))) for i in range(obj.rows)]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _certificate_digest(cert: dict) -> str:
    blob = json.dumps(_jsonable(cert), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _instance_meta(parsed: ParsedInstance) -> dict:
    meta = {"format": parsed.format, "digest": instance_digest(parsed),
            "float_tagged": parsed.float_tagged}
    if parsed.format == "qspp":
        g = parsed.instance.graph
        meta["vertices"] = g.n
        meta["arcs"] = g.m
    elif parsed.format == "qap":
        meta["size"] = parsed.qap_flows.rows
        meta["variables"] = parsed.instance.m
    else:
        meta["rows"] = parsed.instance.B.rows
        meta["variables"] = parsed.instance.m
    return meta


def _emit(payload: dict, started: float, stream) -> None:
    report = {"payload": payload,
              "runtime_s": round(time.monotonic() - started, 6)}
    json.dump(report, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _load(path: str) -> ParsedInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_generate(args, out) -> int:
    if args.kind != "tournament":
        raise ValueError(f"unknown generator {args.kind!r}")
    arcs = args.n * (args.n - 1) // 2
    if args.n >= 2 and arcs > MAX_VARIABLES:  # before Q is arcs x arcs
        raise ValueError(f"tournament --n {args.n} has {arcs} arcs, more "
                         f"than the cap of {MAX_VARIABLES}")
    inst = generate_tournament(args.n)
    text = serialize_instance(ParsedInstance("qspp", inst))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def _require_qspp(parsed: ParsedInstance, command: str) -> QsppInstance:
    if parsed.format != "qspp":
        raise ValueError(
            f"{command} needs a shortest-path (qspp) instance, "
            f"got {parsed.format}")
    return parsed.instance


def _cmd_linearize(args, out) -> int:
    started = time.monotonic()
    parsed = _load(args.file)
    inst = _require_qspp(parsed, "linearize")
    outcome = linearize_qspp(inst)
    payload = {"command": "linearize", "instance": _instance_meta(parsed),
               "linearizable": outcome.linearizable}
    if outcome.linearizable:
        payload["linearization"] = _jsonable(outcome.linearization)
    else:
        w = outcome.witness
        payload["witness"] = {
            "arc": w.arc + 1,
            "tail": w.tail + 1,
            "head": w.head + 1,
            "corridor_arcs": [a + 1 for a in w.arc_labels],
            "expected": _jsonable(w.expected),
            "actual": _jsonable(w.actual),
        }
    _emit(payload, started, out)
    return EXIT_OK


def _cmd_spanning_set(args, out) -> int:
    """Payload: the symmetric ``members`` with their linearizations, and
    a ``dimension`` that also counts the m(m-1)/2 implied skew ones."""
    started = time.monotonic()
    parsed = _load(args.file)
    inst = _require_qspp(parsed, "spanning-set")
    span = spanning_set(inst.graph)
    members = []
    for q, c in span.members:
        triplets = [[i + 1, j + 1, _jsonable(q.at(i, j))]
                    for i in range(q.rows) for j in range(q.cols)
                    if q.at(i, j) != 0]
        members.append({"matrix": triplets,
                        "linearization": _jsonable(c)})
    payload = {"command": "spanning-set",
               "instance": _instance_meta(parsed),
               "dimension": span.dimension,
               "members": members}
    _emit(payload, started, out)
    return EXIT_OK


_METHODS = {"gl": "gl", "ggl": "ggl", "lbbp": "lbb_prime",
            "rlt1": "rlt1", "lbbstar": "lbb_star"}
_STRATEGIES = {"none": SkewStrategy.NONE,
               "upper": SkewStrategy.UPPER_TRIANGULAR,
               "sym": SkewStrategy.SYMMETRIZE}


def _run_bound(parsed: ParsedInstance, method: str, strategy: str,
               mode: str, max_iter: int):
    inst = parsed.instance
    if method == "gl":
        return gl_bound(inst, mode=mode)
    if method == "ggl":
        return ggl_bound(inst, strategy=_STRATEGIES[strategy],
                         max_iter=max_iter, mode=mode)
    if method == "lbb_prime":
        return lbb_prime(inst, mode=mode)
    if method == "rlt1":
        return rlt1(inst, mode=mode)
    if method == "lbb_star":
        _require_qspp(parsed, "the spanning-set bound")
        return lbb_star(inst, mode=mode)
    raise ValueError(f"unknown method {method!r}")


def _bound_payload(report) -> dict:
    payload = {
        "method": report.name,
        "value": _jsonable(report.value),
        "mode": report.mode,
        "relaxation_only": report.relaxation_only,
        "pivots": report.pivots,
        "certificate_digest": _certificate_digest(report.certificate),
    }
    if report.trace:
        payload["trace"] = _jsonable(report.trace)
    if report.name == "lbb_star":
        payload["canonical_family"] = report.canonical_family
    return payload


def _cmd_bound(args, out) -> int:
    started = time.monotonic()
    parsed = _load(args.file)
    report = _run_bound(parsed, _METHODS[args.method], args.strategy,
                        args.mode, args.max_iter)
    payload = {"command": "bound", "instance": _instance_meta(parsed)}
    payload.update(_bound_payload(report))
    _emit(payload, started, out)
    return EXIT_OK


def _cmd_opt(args, out) -> int:
    started = time.monotonic()
    parsed = _load(args.file)
    value, argmin = brute_force_opt(parsed.instance, cap=args.cap)
    payload = {"command": "opt", "instance": _instance_meta(parsed),
               "value": _jsonable(value),
               "argmin": [int(v) for v in argmin]}
    _emit(payload, started, out)
    return EXIT_OK


def _cmd_verify_chain(args, out) -> int:
    started = time.monotonic()
    parsed = _load(args.file)
    inst = parsed.instance
    runs = [("gl", gl_bound(inst, mode=args.mode))]
    for tag, strat in (("ggl_upper", SkewStrategy.UPPER_TRIANGULAR),
                       ("ggl_sym", SkewStrategy.SYMMETRIZE)):
        runs.append((tag, ggl_bound(inst, strategy=strat, mode=args.mode)))
    runs.append(("lbb_prime", lbb_prime(inst, mode=args.mode)))
    runs.append(("rlt1", rlt1(inst, mode=args.mode)))
    if parsed.format == "qspp":
        runs.append(("lbb_star", lbb_star(inst, mode=args.mode)))
    opt = None
    try:
        opt, _ = brute_force_opt(inst, cap=args.cap)
    except _CAP_EXCEEDED:
        pass  # chain is still checkable without the optimum
    payload = {"command": "verify-chain",
               "instance": _instance_meta(parsed),
               "values": {tag: _jsonable(rep.value)
                          for tag, rep in runs},
               "optimum": _jsonable(opt)}
    problems = []
    for tag, rep in runs:
        ok, messages = verify_report(inst, rep)
        if not ok:
            problems.append(f"{tag} certificate rejected: "
                            + "; ".join(messages))
    try:
        relations = verify_chain([rep for _, rep in runs], opt=opt)
    except ChainViolation as exc:
        problems.append(str(exc))
    if problems:
        payload["verdict"] = "violated"
        payload["detail"] = " | ".join(problems)
        _emit(payload, started, out)
        return EXIT_CHAIN
    payload["verdict"] = "ok"
    payload["relations"] = list(relations)
    _emit(payload, started, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quadlin",
        description="Linearization and lower bounds for binary quadratic "
                    "programs over shortest-path and assignment structure.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("generate", help="emit a built-in instance")
    g.add_argument("kind", choices=["tournament"])
    g.add_argument("--n", type=int, required=True,
                   help="number of vertices")
    g.add_argument("-o", "--output", help="write to a file instead of "
                                          "stdout")
    g.set_defaults(func=_cmd_generate)

    li = sub.add_parser("linearize",
                        help="decide exact linearizability of a qspp file")
    li.add_argument("file")
    li.set_defaults(func=_cmd_linearize)

    sp = sub.add_parser("spanning-set",
                        help="symmetric basis of the linearizable cost "
                        "matrices (skew ones implied)")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_spanning_set)

    bd = sub.add_parser("bound", help="compute one lower bound")
    bd.add_argument("file")
    bd.add_argument("--method", required=True, choices=sorted(_METHODS))
    bd.add_argument("--strategy", choices=sorted(_STRATEGIES),
                    default="none", help="skew reshuffle for ggl")
    bd.add_argument("--mode", choices=["auto", "exact", "float"],
                    default="auto")
    bd.add_argument("--max-iter", type=int, default=50,
                    help=f"ggl iteration cap, 1 to {MAX_ITER}")
    bd.set_defaults(func=_cmd_bound)

    op = sub.add_parser("opt", help="exact optimum by enumeration")
    op.add_argument("file")
    op.add_argument("--cap", type=int, default=1_000_000,
                    help="enumeration size cap")
    op.set_defaults(func=_cmd_opt)

    vc = sub.add_parser("verify-chain",
                        help="run the bound ladder, replay every "
                             "certificate and check the ordering")
    vc.add_argument("file")
    vc.add_argument("--mode", choices=["auto", "exact", "float"],
                    default="auto")
    vc.add_argument("--cap", type=int, default=1_000_000,
                    help="enumeration cap for the optimum")
    vc.set_defaults(func=_cmd_verify_chain)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _CAP_EXCEEDED as exc:
        print(f"error: enumeration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_EXPLOSION
    except (LpError, BoundComputationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LP
    except (FloatTaggedError, GraphError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
