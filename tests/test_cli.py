import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlin

from quadlin import cli
from quadlin.bounds import (
    MAX_ITER,
    SkewStrategy,
    ggl_bound,
    gl_bound,
    lbb_prime,
    lbb_star,
    rlt1,
)
from quadlin.cli import (
    _METHODS,
    EXIT_CHAIN,
    EXIT_EXPLOSION,
    EXIT_LP,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ParsedInstance,
    ParseError,
    instance_digest,
    main,
    parse_instance,
    serialize_instance,
)
from quadlin.exactnum import RationalMatrix
from quadlin.graph import GraphError
from quadlin.model import (
    BqpInstance,
    FloatTaggedError,
    QsppInstance,
    brute_force_opt,
    generate_tournament,
    qap_to_bqp,
)

from helpers import rand_rational, random_corridor_dag

F = Fraction

DIAMOND = """\
# two parallel two-arc routes
qspp
4 4
1 4
1 2
1 3
2 4
3 4
2
1 3 5
2 4 -1
"""

# cross-diamond interaction: no arc-cost vector reproduces it
DOUBLE_DIAMOND_BAD = """\
qspp
7 8
1 7
1 2
1 3
2 4
3 4
4 5
4 6
5 7
6 7
1
1 7 1
"""

BQP_SMALL = """\
bqp
1 2
1 1
1
1
1 2 3/2
linear
-1 1/2
"""

QAP3 = """\
qap
3
0 1 2
1 0 3
2 3 0
0 4 5
4 0 6
5 6 0
"""


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out: str) -> dict:
    report = json.loads(out)
    assert set(report) == {"payload", "runtime_s"}
    return report["payload"]


# ---------------------------------------------------------------------------
# parsing and round trips

def test_qspp_round_trip_ignores_comments_and_blank_lines():
    parsed = parse_instance(DIAMOND)
    canonical = serialize_instance(parsed)
    again = parse_instance(canonical)
    assert serialize_instance(again) == canonical
    assert instance_digest(parsed) == instance_digest(again)
    assert parsed.instance.graph.arcs == again.instance.graph.arcs
    assert parsed.instance.Q.to_rows() == again.instance.Q.to_rows()


def test_bqp_round_trip_keeps_fractions_and_linear_term():
    parsed = parse_instance(BQP_SMALL)
    inst = parsed.instance
    assert inst.Q.at(0, 1) == F(3, 2)
    assert inst.linear == (F(-1), F(1, 2))
    again = parse_instance(serialize_instance(parsed))
    assert serialize_instance(again) == serialize_instance(parsed)
    assert again.instance.linear == inst.linear


def test_qap_round_trip_preserves_both_matrices():
    parsed = parse_instance(QAP3)
    assert parsed.qap_flows.at(1, 2) == F(3)
    assert parsed.qap_dists.at(0, 2) == F(5)
    again = parse_instance(serialize_instance(parsed))
    assert again.qap_flows.to_rows() == parsed.qap_flows.to_rows()
    assert again.qap_dists.to_rows() == parsed.qap_dists.to_rows()
    # the encoded instance is the product form
    assert parsed.instance.m == 9
    assert parsed.instance.Q.at(1, 5) == F(1) * F(6)


def test_decimal_values_float_tag_the_instance():
    parsed = parse_instance("qspp\n3 2\n1 3\n1 2\n2 3\n1\n1 2 1.5\n")
    assert parsed.float_tagged
    assert parsed.instance.Q.at(0, 1) == F(1.5)
    text = serialize_instance(parsed)
    assert "1.5" in text
    assert parse_instance(text).float_tagged


def test_round_trip_on_random_instances():
    rng = random.Random(20260819)
    for _ in range(25):
        g = random_corridor_dag(rng, n_min=3, n_max=7)
        rows = [[rand_rational(rng) if rng.random() < 0.4 else F(0)
                 for _ in range(g.m)] for _ in range(g.m)]
        from quadlin.model import QsppInstance
        parsed = ParsedInstance(
            "qspp", QsppInstance(g, RationalMatrix.from_rows(rows)))
        text = serialize_instance(parsed)
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert again.instance.Q.to_rows() == rows


@pytest.mark.parametrize("text,fragment", [
    ("qsp\n", "format header"),
    ("qspp\n3\n", "expected 2 fields"),
    ("qspp\n3 2\n1 3\n1 2\n2 9\n0\n", "line 5"),
    ("qspp\n3 2\n1 3\n1 2\n2 3\n2\n1 2 1\n1 2 4\n", "duplicate"),
    ("qspp\n3 2\n1 3\n1 2\n2 3\n1\n1 2 x\n", "bad value"),
    ("qspp\n3 2\n1 3\n1 2\n2 3\n0\nextra\n", "unexpected content"),
    ("qspp\n3 2\n1 3\n1 2\n", "end of file"),
    ("bqp\n1 2\n1 1\n1\n1\n1 2 1/0\n", "bad value"),
    ("qspp\n3 2\n1 3\n1 2\n2 3\n1\n1 2 inf\n", "bad value"),
])
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_instance(text)


def test_qspp_vertex_count_is_capped_by_the_arcs():
    # s, t and the two ends of each arc name at most 2m + 2 vertices
    parse_instance("qspp\n4 1\n1 4\n2 3\n0\n")
    with pytest.raises(ParseError, match="line 2: 5 vertices"):
        parse_instance("qspp\n5 1\n1 4\n2 3\n0\n")


def test_variable_count_is_capped_in_every_format():
    def bqp(m):
        return f"bqp\n1 {m}\n" + "1 " * m + "\n1\n0\n"

    assert parse_instance(bqp(cli.MAX_VARIABLES)).instance.m \
        == cli.MAX_VARIABLES
    with pytest.raises(ParseError, match=f"{cli.MAX_VARIABLES + 1} var"):
        parse_instance(bqp(cli.MAX_VARIABLES + 1))
    with pytest.raises(ParseError, match="1024 variables"):
        parse_instance("qap\n32\n")
    with pytest.raises(ParseError, match=f"{cli.MAX_VARIABLES + 1} var"):
        parse_instance(f"qspp\n2 {cli.MAX_VARIABLES + 1}\n")


def test_oversized_vertex_count_exits_2_without_allocating(tmp_path):
    # a huge vertex count, and variable counts whose m x m matrix (Q, or
    # the Kronecker product of a qap) would not fit under the cap below
    cases = {
        "huge.qspp": ("qspp\n99999999999 6\n1 4\n1 2\n1 3\n2 4\n3 4\n2 3\n"
                      "1 4\n0\n", "99999999999 vertices"),
        "wide.bqp": ("bqp\n1 30000\n" + "1 " * 30000 + "\n1\n0\n",
                     "30000 variables"),
        "big.qap": ("qap\n120\n" + ("1 " * 120 + "\n") * 240,
                    "14400 variables"),
        "long.qspp": ("qspp\n20001 20000\n1 20001\n"
                      + "".join(f"{v} {v + 1}\n" for v in range(1, 20001))
                      + "0\n", "20000 variables"),
    }
    # an address-space cap turns an oversized allocation into a
    # MemoryError traceback instead of exhausting the machine
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (500 << 20, 500 << 20))\n"
        "from quadlin.cli import main\n"
        "sys.exit(main(['opt', sys.argv[1]]))\n")
    src = os.path.dirname(os.path.dirname(quadlin.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for name, (text, message) in cases.items():
        f = tmp_path / name
        f.write_text(text)
        proc = subprocess.run([sys.executable, "-c", script, str(f)],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == EXIT_PARSE, (name, proc.stderr)
        assert "Traceback" not in proc.stderr, name
        assert message in proc.stderr, (name, proc.stderr)


def _generated_texts():
    rng = random.Random(5)
    g = random_corridor_dag(rng, n_min=5, n_max=6)
    q = RationalMatrix.from_rows(
        [[rand_rational(rng) for _ in range(g.m)] for _ in range(g.m)])
    bqp = BqpInstance(
        B=RationalMatrix.from_rows([[1, 1, 0], [0, 1, 1]]), b=(1, 1),
        Q=RationalMatrix.from_rows(
            [[rand_rational(rng) for _ in range(3)] for _ in range(3)]),
        linear=(F(1, 2), F(-3), F(0)))
    a, d = (RationalMatrix.from_rows(
        [[rng.randint(0, 4) for _ in range(2)] for _ in range(2)])
        for _ in range(2))
    return tuple(serialize_instance(p) for p in (
        ParsedInstance("qspp", QsppInstance(g, q)),
        ParsedInstance("bqp", bqp),
        ParsedInstance("qap", qap_to_bqp(a, d), qap_flows=a, qap_dists=d)))


_FUZZ_TOKENS = ("nan", "1e999", "-1e999", "1/0", "3/-2", "0", "-1", "2",
                "1.5", "99999999999", str(10 ** 40), "-" + str(10 ** 40),
                "9" * 5000, "linear", "qspp", "x")


_FUZZ_EDITS = st.lists(
    st.tuples(st.sampled_from(  # replace keeps the layout
        ("replace", "replace", "replace", "add", "drop")),
        st.integers(0, 10 ** 6), st.sampled_from(_FUZZ_TOKENS)),
    min_size=1, max_size=4)


def _mutated(base, edits):
    lines = [line.split() for line in base.splitlines()]
    for kind, pos, token in edits:
        spots = [(r, c) for r, line in enumerate(lines)
                 for c in range(len(line) + (kind == "add"))]
        r, c = spots[pos % len(spots)]
        if kind == "replace":
            lines[r][c] = token
        elif kind == "add":
            lines[r].insert(c, token)
        else:
            del lines[r][c]
    return "\n".join(" ".join(line) for line in lines)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(_generated_texts()), edits=_FUZZ_EDITS)
def test_parse_instance_survives_mutated_tokens(base, edits):
    try:
        parse_instance(_mutated(base, edits))
    except (ParseError, ValueError, TypeError, GraphError, FloatTaggedError):
        pass


# Every subcommand that reads an instance, each kept bounded: opt and
# verify-chain enumerate at most 500 solutions, ggl stops after 5 rounds
# and verify-chain runs in float mode.
_FUZZ_COMMANDS = (
    ["linearize"], ["spanning-set"], ["opt", "--cap", "500"],
    ["bound", "--method", "gl"], ["bound", "--method", "lbbp"],
    ["bound", "--method", "ggl", "--max-iter", "5"],
    ["bound", "--method", "rlt1"], ["bound", "--method", "lbbstar"],
    ["verify-chain", "--mode", "float", "--cap", "500"],
)
_DOCUMENTED_EXITS = {0, EXIT_PARSE, EXIT_VALIDATION, EXIT_EXPLOSION, EXIT_LP,
                     EXIT_CHAIN}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(_generated_texts()), edits=_FUZZ_EDITS)
def test_every_subcommand_exits_with_a_documented_code(tmp_path_factory,
                                                        base, edits):
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_text(_mutated(base, edits))
    for command in _FUZZ_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command[0], str(path)] + command[1:])
        assert code in _DOCUMENTED_EXITS, (command, code)


# ---------------------------------------------------------------------------
# subcommands

def test_generate_round_trips_and_is_deterministic(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["generate", "tournament", "--n", "6"])
    assert code == 0
    parsed = parse_instance(out)
    direct = generate_tournament(6)
    assert parsed.instance.graph.arcs == direct.graph.arcs
    assert parsed.instance.Q.to_rows() == direct.Q.to_rows()
    assert serialize_instance(parsed) == out

    target = tmp_path / "t6.qspp"
    code, out2, _ = run_cli(
        capsys, ["generate", "tournament", "--n", "6", "-o", str(target)])
    assert code == 0 and out2 == ""
    assert target.read_text() == out


def test_linearize_reports_a_vector(capsys, tmp_path):
    f = tmp_path / "dia.qspp"
    f.write_text(DIAMOND)
    code, out, _ = run_cli(capsys, ["linearize", str(f)])
    assert code == 0
    payload = payload_of(out)
    assert payload["linearizable"] is True
    assert payload["linearization"] == ["5", "-1", "0", "0"]
    assert payload["instance"]["digest"] == instance_digest(
        parse_instance(DIAMOND))


def test_linearize_reports_a_witness(capsys, tmp_path):
    f = tmp_path / "dd.qspp"
    f.write_text(DOUBLE_DIAMOND_BAD)
    code, out, _ = run_cli(capsys, ["linearize", str(f)])
    assert code == 0
    payload = payload_of(out)
    assert payload["linearizable"] is False
    w = payload["witness"]
    assert w["expected"] != w["actual"]
    # 1-based file labels
    assert 1 <= w["arc"] <= 8
    assert all(1 <= a <= 8 for a in w["corridor_arcs"])


def test_spanning_set_on_the_diamond(capsys, tmp_path):
    f = tmp_path / "dia.qspp"
    f.write_text(DIAMOND)
    code, out, _ = run_cli(capsys, ["spanning-set", str(f)])
    assert code == 0
    payload = payload_of(out)
    # zero-diagonal 4x4 matrices are all linearizable here; 6 symmetric
    # members are listed, the 6 skew directions are implied
    assert payload["dimension"] == 12
    assert len(payload["members"]) == 6
    member = payload["members"][0]
    assert len(member["linearization"]) == 4
    for i, j, v in member["matrix"]:
        assert 1 <= i <= 4 and 1 <= j <= 4
        Fraction(v)  # parses back


def test_bound_values_match_the_library(capsys, tmp_path):
    f = tmp_path / "t5.qspp"
    run_cli(capsys, ["generate", "tournament", "--n", "5",
                     "-o", str(f)])
    inst = parse_instance(f.read_text()).instance

    for method, direct in [
        ("gl", gl_bound(inst).value),
        ("lbbp", lbb_prime(inst).value),
        ("rlt1", rlt1(inst).value),
    ]:
        code, out, _ = run_cli(capsys, ["bound", str(f),
                                        "--method", method])
        assert code == 0
        payload = payload_of(out)
        assert payload["value"] == str(direct)
        assert payload["mode"] == "exact"
        assert len(payload["certificate_digest"]) == 64

    direct = ggl_bound(inst, strategy=SkewStrategy.UPPER_TRIANGULAR)
    code, out, _ = run_cli(capsys, ["bound", str(f), "--method", "ggl",
                                    "--strategy", "upper"])
    payload = payload_of(out)
    assert payload["value"] == str(direct.value)
    assert payload["trace"] == [str(v) for v in direct.trace]


def test_bound_lbbstar_reports_its_canonical_family(capsys, tmp_path):
    f = tmp_path / "dia.qspp"
    f.write_text(DIAMOND)
    code, out, err = run_cli(capsys, ["bound", str(f), "--method", "lbbstar"])
    assert (code, err) == (0, "")
    payload = payload_of(out)
    assert (payload["method"], payload["canonical_family"]) == (
        "lbb_star", True)
    assert payload["value"] == str(
        lbb_star(parse_instance(DIAMOND).instance).value)


def test_bound_rlt1_on_tournament_6_is_13(capsys, tmp_path):
    # the lifting LP leaves out the structural zeros by itself; the
    # paper's tournament n = 6 has rlt1 exactly 13
    f = tmp_path / "t6.qspp"
    run_cli(capsys, ["generate", "tournament", "--n", "6", "-o", str(f)])
    code, out, err = run_cli(capsys, ["bound", str(f), "--method", "rlt1"])
    assert (code, err) == (0, "")
    payload = payload_of(out)
    assert (payload["method"], payload["mode"], payload["value"]) == (
        "rlt1", "exact", "13")


def test_opt_matches_brute_force(capsys, tmp_path):
    f = tmp_path / "q3.qap"
    f.write_text(QAP3)
    inst = parse_instance(QAP3).instance
    value, _ = brute_force_opt(inst)
    code, out, _ = run_cli(capsys, ["opt", str(f)])
    assert code == 0
    payload = payload_of(out)
    assert payload["value"] == str(value)
    assert sorted(set(payload["argmin"])) in ([0, 1], [1])


def test_verify_chain_ok_on_qspp_and_qap(capsys, tmp_path):
    for name, text in [("dia.qspp", DIAMOND), ("q3.qap", QAP3)]:
        f = tmp_path / name
        f.write_text(text)
        code, out, _ = run_cli(capsys, ["verify-chain", str(f)])
        assert code == 0
        payload = payload_of(out)
        assert payload["verdict"] == "ok"
        assert "gl" in payload["values"]
        assert "lbb_prime" in payload["values"]
        if name.endswith("qspp"):
            assert "lbb_star" in payload["values"]
        else:
            assert "lbb_star" not in payload["values"]
        assert payload["optimum"] is not None
        assert payload["relations"]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_bound_ggl_on_a_qap_solves_no_lp_and_verify_chain_replays_it(
        capsys, tmp_path, mode):
    # a QAP's fits and minima are Hungarian assignments, so gl and ggl
    # report 0 pivots, and verify-chain replays the same values
    f = tmp_path / "q3.qap"
    f.write_text(QAP3)
    values = {}
    for tag, method in (("gl", ["--method", "gl"]),
                        ("ggl_upper", ["--method", "ggl", "--strategy",
                                       "upper"]),
                        ("ggl_sym", ["--method", "ggl", "--strategy",
                                     "sym"])):
        code, out, err = run_cli(capsys, ["bound", str(f), "--mode", mode]
                                 + method)
        assert (code, err) == (0, ""), tag
        payload = payload_of(out)
        assert (payload["mode"], payload["pivots"]) == (mode, 0), tag
        values[tag] = payload["value"]
    code, out, err = run_cli(capsys, ["verify-chain", str(f), "--mode", mode])
    assert (code, err) == (0, "")
    payload = payload_of(out)
    assert payload["verdict"] == "ok"
    assert {tag: payload["values"][tag] for tag in values} == values


def test_source_equal_to_target_is_the_empty_path_everywhere(capsys,
                                                             tmp_path):
    # one vertex, no arcs: the only path is the empty one, of cost 0
    f = tmp_path / "point.qspp"
    f.write_text("qspp\n1 0\n1 1\n0\n")
    for mode in ("exact", "float"):
        for method in [["--method", m] for m in sorted(_METHODS)] + [
                ["--method", "ggl", "--strategy", s] for s in ("upper", "sym")]:
            code, out, err = run_cli(capsys, ["bound", str(f), "--mode", mode]
                                     + method)
            assert (code, err) == (0, ""), (method, mode)
            assert payload_of(out)["value"] in ("0", 0.0), (method, mode)
        code, out, err = run_cli(capsys, ["verify-chain", str(f), "--mode",
                                          mode])
        assert (code, err) == (0, ""), mode
        payload = payload_of(out)
        assert (payload["verdict"], payload["optimum"]) == ("ok", "0"), mode


def test_verify_chain_replays_every_certificate(capsys, tmp_path,
                                               monkeypatch):
    f = tmp_path / "dia.qspp"
    f.write_text(DIAMOND)
    honest = lbb_prime(parse_instance(DIAMOND).instance, mode="exact")

    def forged(inst, mode="auto"):
        # same value, but y no longer achieves it (b[0] = 1 at the source)
        rep = lbb_prime(inst, mode=mode)
        cert = dict(rep.certificate)
        cert["y"] = (cert["y"][0] + 1,) + tuple(cert["y"][1:])
        return replace(rep, certificate=cert)

    monkeypatch.setattr(cli, "lbb_prime", forged)
    code, out, _ = run_cli(capsys, ["verify-chain", str(f)])
    assert code == EXIT_CHAIN
    payload = payload_of(out)
    assert payload["values"]["lbb_prime"] == str(honest.value)
    assert payload["verdict"] == "violated"
    assert payload["detail"].startswith("lbb_prime certificate rejected")
    assert "objective" in payload["detail"]


def test_verify_chain_without_the_optimum_still_checks_the_chain(
        capsys, tmp_path):
    # past the enumeration cap the optimum is left out, not an error
    f = tmp_path / "t5.qspp"
    run_cli(capsys, ["generate", "tournament", "--n", "5", "-o", str(f)])
    code, out, err = run_cli(capsys, ["verify-chain", str(f), "--cap", "1"])
    assert (code, err) == (0, "")
    payload = payload_of(out)
    assert set(payload) == {"command", "instance", "values", "optimum",
                            "verdict", "relations"}
    assert (payload["optimum"], payload["verdict"]) == (None, "ok")
    assert payload["relations"] and "all <= opt" not in payload["relations"]


def test_reports_are_deterministic(capsys, tmp_path):
    f = tmp_path / "t5.qspp"
    run_cli(capsys, ["generate", "tournament", "--n", "5", "-o", str(f)])
    _, out1, _ = run_cli(capsys, ["verify-chain", str(f)])
    _, out2, _ = run_cli(capsys, ["verify-chain", str(f)])
    assert payload_of(out1) == payload_of(out2)


# ---------------------------------------------------------------------------
# failure exit codes

def test_unreadable_or_malformed_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["opt", str(tmp_path / "missing")])
    assert code == EXIT_PARSE and "cannot read" in err
    f = tmp_path / "bad.qspp"
    f.write_text("qspp\n3 2\n1 3\n1 2\n2 9\n0\n")
    code, _, err = run_cli(capsys, ["opt", str(f)])
    assert code == EXIT_PARSE and "line 5" in err


def test_semantic_failures_exit_3(capsys, tmp_path):
    cyc = tmp_path / "cyc.qspp"
    cyc.write_text("qspp\n2 2\n1 2\n1 2\n2 1\n0\n")
    code, _, err = run_cli(capsys, ["opt", str(cyc)])
    assert code == EXIT_VALIDATION and "cycle" in err

    bqp = tmp_path / "small.bqp"
    bqp.write_text(BQP_SMALL)
    code, _, err = run_cli(capsys, ["bound", str(bqp),
                                    "--method", "lbbstar"])
    assert code == EXIT_VALIDATION and "qspp" in err

    tagged = tmp_path / "f.qspp"
    tagged.write_text("qspp\n3 2\n1 3\n1 2\n2 3\n1\n1 2 1.5\n")
    code, _, err = run_cli(capsys, ["bound", str(tagged), "--method", "gl",
                                    "--mode", "exact"])
    assert code == EXIT_VALIDATION and "float" in err


def test_enumeration_cap_exits_4(capsys, tmp_path):
    f = tmp_path / "t5.qspp"
    run_cli(capsys, ["generate", "tournament", "--n", "5", "-o", str(f)])
    code, out, err = run_cli(capsys, ["opt", str(f), "--cap", "1"])
    assert (code, out) == (EXIT_EXPLOSION, "")
    assert "8 paths exceed cap 1" in err and "Traceback" not in err


@pytest.mark.parametrize("name, text, err_text", [
    ("q3.qap", QAP3, "6 permutations"),
    ("small.bqp", BQP_SMALL, "2^2 binary vectors")], ids=["qap", "bqp"])
def test_enumeration_cap_exits_4_on_qap_and_bqp(capsys, tmp_path, name, text,
                                                err_text):
    f = tmp_path / name
    f.write_text(text)
    code, out, err = run_cli(capsys, ["opt", str(f), "--cap", "1"])
    assert (code, out) == (EXIT_EXPLOSION, "")
    assert f"enumeration cap exceeded: {err_text}" in err
    assert "Traceback" not in err
    # verify-chain leaves the optimum out past the cap, as on a qspp file
    code, out, err = run_cli(capsys, ["verify-chain", str(f), "--cap", "1"])
    assert (code, err) == (0, "")
    payload = payload_of(out)
    assert (payload["optimum"], payload["verdict"]) == (None, "ok")


def test_generate_refuses_a_tournament_over_the_variable_cap(capsys,
                                                             tmp_path):
    # n = 46 has 1035 arcs, which every other subcommand would refuse
    target = tmp_path / "t46.qspp"
    code, out, err = run_cli(
        capsys, ["generate", "tournament", "--n", "46", "-o", str(target)])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "1035 arcs" in err and not target.exists()


def test_ggl_iteration_budget_outside_its_range_exits_3(capsys, tmp_path):
    # exact SYMMETRIZE rarely stops before max_iter, so a huge budget is
    # an unbounded run; both ends of the range are refused before any fit
    f = tmp_path / "t5.qspp"
    run_cli(capsys, ["generate", "tournament", "--n", "5", "-o", str(f)])
    for budget in (0, MAX_ITER + 1, 100_000_000):
        code, out, err = run_cli(capsys, [
            "bound", str(f), "--method", "ggl", "--strategy", "sym",
            "--mode", "exact", "--max-iter", str(budget)])
        assert (code, out) == (EXIT_VALIDATION, ""), budget
        assert f"max_iter must be between 1 and {MAX_ITER}" in err
        assert "Traceback" not in err


def test_an_unbounded_fitting_program_exits_5(capsys, tmp_path):
    # the second arc, 1 -> 2 (column 1, counted from 0), lies on no path
    # from 1 to 3
    f = tmp_path / "dangling.qspp"
    f.write_text("qspp\n3 2\n1 3\n1 3\n1 2\n0\n")
    code, out, err = run_cli(capsys, ["bound", str(f), "--method", "gl"])
    assert (code, out) == (EXIT_LP, "")
    assert "column 1 fitting program: LP is unbounded" in err
    assert "Traceback" not in err


def test_mode_flag_and_environment_control_arithmetic(capsys, tmp_path,
                                                      monkeypatch):
    f = tmp_path / "dia.qspp"
    f.write_text(DIAMOND)
    _, out, _ = run_cli(capsys, ["bound", str(f), "--method", "gl",
                                 "--mode", "float"])
    payload = payload_of(out)
    assert payload["mode"] == "float"
    assert isinstance(payload["value"], float)

    monkeypatch.setenv("QUADLIN_MODE", "float")
    _, out, _ = run_cli(capsys, ["bound", str(f), "--method", "gl"])
    assert payload_of(out)["mode"] == "float"
    # explicit flag beats the environment
    _, out, _ = run_cli(capsys, ["bound", str(f), "--method", "gl",
                                 "--mode", "exact"])
    payload = payload_of(out)
    assert payload["mode"] == "exact"
    assert payload["value"] == str(gl_bound(
        parse_instance(DIAMOND).instance, mode="exact").value)


def test_chain_violation_exit_code_is_distinct():
    assert EXIT_CHAIN == 6
    assert EXIT_CHAIN not in (EXIT_PARSE, EXIT_VALIDATION)
