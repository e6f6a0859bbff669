import io
import json

import pytest

from enclosure import Point, evaluate_solution, make_walk
from enclosure.cli import run
from enclosure.errors import SchemaError
from enclosure.instance import parse_instance, validate_and_subdivide
from conftest import opt, req, square


def _write(tmp_path, data, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _basic(tmp_path):
    return _write(tmp_path, {"polygons": [req("A", square(0, 0, 3))]})


def test_exit_zero_and_cost(tmp_path, capsys):
    code = run(["--input", _basic(tmp_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cost"] == pytest.approx(12.0)
    assert out["feasible"] is True
    assert len(out["walk"]) == 4


def test_exit_one_on_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["--input", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_one_on_missing_input(capsys):
    assert run([]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_infeasible_invert(tmp_path, capsys):
    # An unbounded optional region with infinite penalty can never be
    # enclosed by a bounded curve, so no finite-cost solution exists.
    path = _write(tmp_path, {
        "mode": "invert",
        "polygons": [
            opt("B", square(0, 0, 2), 1),
            {"id": "out", "kind": "optional", "penalty": "inf",
             "unbounded": True,
             "vertices": [[-9, -9], [20, -9], [20, 20], [-9, 20]]}]})
    assert run(["--input", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["cost"] == "inf"


def test_solver_choices_agree(tmp_path, capsys):
    path = _write(tmp_path, {"polygons": [req("A", square(0, 0, 2)),
                                          opt("B", square(4, 0, 2), 1)]})
    costs = {}
    for solver in ("dp", "dijkstra", "oracle"):
        assert run(["--input", path, "--solver", solver]) == 0
        costs[solver] = json.loads(capsys.readouterr().out)["cost"]
    assert costs["dp"] == pytest.approx(costs["dijkstra"])
    assert costs["oracle"] == pytest.approx(costs["dijkstra"])


def test_generate_flag(capsys):
    assert run(["--gen", "3,1", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasible"] is True and out["cost"] > 0


def test_generate_flag_bad_format(capsys):
    assert run(["--gen", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_generate_flag_negative_k(capsys):
    assert run(["--gen=2,-1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_flag_reports_checks(tmp_path, capsys):
    assert run(["--input", _basic(tmp_path), "--verify"]) == 0
    out = json.loads(capsys.readouterr().out)
    checks = out["checks"]
    assert checks["cost_matches_solver"] is True
    assert checks["weakly_simple"] is True


def test_oracle_check_flag(tmp_path, capsys):
    assert run(["--input", _basic(tmp_path), "--oracle-check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle"]["agrees"] is True
    assert out["oracle"]["exhausted"] is True


def test_debug_freespace_flag(tmp_path, capsys):
    assert run(["--input", _basic(tmp_path), "--debug-freespace"]) == 0
    out = json.loads(capsys.readouterr().out)
    fs = out["free_space"]
    assert len(fs["vertices"]) == 4 and len(fs["edges"]) == 4


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "sol.json"
    assert run(["--input", _basic(tmp_path), "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    out = json.loads(dest.read_text())
    assert out["cost"] == pytest.approx(12.0)


def test_mode_override(tmp_path, capsys):
    path = _write(tmp_path, {"polygons": [opt("B", square(0, 0, 2), 3)]})
    assert run(["--input", path, "--mode", "invert"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "invert" and out["cost"] == pytest.approx(3.0)


def test_walk_round_trip(tmp_path, capsys):
    data = {"polygons": [req("A", square(0, 0, 2)), opt("B", square(5, 0, 2), 1)]}
    assert run(["--input", _write(tmp_path, data)]) == 0
    out = json.loads(capsys.readouterr().out)
    inst = validate_and_subdivide(parse_instance(data))
    walk = make_walk(inst, [Point(x, y) for x, y in out["walk"]])
    sol = evaluate_solution(inst, walk)
    assert sol.feasible
    assert sol.cost == pytest.approx(out["cost"])


def test_input_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"polygons": [req("A", square(0, 0, 3))]})))
    assert run(["--input", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == pytest.approx(12.0)


def test_svg_draws_a_point_walk(tmp_path, capsys):
    # With nothing required the answer is a point walk, drawn as one dot.
    svg = tmp_path / "point.svg"
    doc = {"polygons": [opt("B", square(0, 0, 2), 5)]}
    assert run(["--input", _write(tmp_path, doc), "--svg", str(svg)]) == 0
    assert len(json.loads(capsys.readouterr().out)["walk"]) == 1
    text = svg.read_text()
    assert text.count('fill="#1f4fd8"') == 1 and 'stroke="#1f4fd8"' not in text


def test_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(["--input", _basic(tmp_path), "--svg", str(a)]) == 0
    assert run(["--input", _basic(tmp_path), "--svg", str(b)]) == 0
    text = a.read_text()
    assert text == b.read_text()
    assert text.startswith("<svg") or "<svg" in text
    assert "polygon" in text or "path" in text


def test_verify_flag_accepts_clockwise_inverted_solution(tmp_path, capsys):
    # The inverted solver returns the square clockwise; the verifier must
    # judge such a walk by its reversal, not reject it for winding -1.
    path = _write(tmp_path, {"mode": "invert",
                             "polygons": [opt("B", square(0, 0, 4), 40)]})
    assert run(["--input", path, "--verify"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["walk"]) == 4
    assert out["cost"] == pytest.approx(16.0)
    assert out["checks"]["weakly_simple"] is True
    assert out["checks"]["cost_matches_solver"] is True


_TRIANGLE_GRAPH = {"vertices": [[0, 0], [6, 0], [0, 6]],
                   "edges": [[0, 1, 2], [1, 2, 3], [2, 0, 4]]}
# A square whose right wall (4,0)-(4,4) is split at (4,2) by two squares beside it.
_SPLIT_WALL = [req("A", square(0, 0, 4)), opt("B1", square(4, 0, 2), 1),
               opt("B2", square(4, 2, 2), 1)]


def _squeezed(*edges):
    return {"polygons": _SPLIT_WALL, "squeezed_edges": list(edges)}


@pytest.mark.parametrize("document", [
    {"points": [{"kind": "required", "at": 5}]},
    {"points": [{"kind": "required", "at": [1]}]},
    {"points": [{"kind": "required", "at": {}}]},
    {"points": 5},
    {"polygons": 5},
    {"polygons": None},
    {"polygons": [{"id": [1], "kind": "required", "vertices": square(0, 0, 2)}]},
    {"squeezed_edges": 5},
    {"graph": {**_TRIANGLE_GRAPH, "edges": 5}},
    {"graph": {**_TRIANGLE_GRAPH, "faces": 5}},
    [{"polygons": []}],
    {"polygons": [5]},
    {"polygons": [opt("B", square(0, 0, 2), "lots")]},
    {"polygons": [req("A", [[0, 0], [2, 0], [2, 0], [0, 2]])]},
    _squeezed({"a": [4, 0], "b": [4, 4]}),
    _squeezed({"a": [4, 0], "b": [4, 0], "weight": 1}),
    _squeezed({"a": [4, 0], "b": [4, 4], "weight": 1},
              {"a": [4, 4], "b": [4, 0], "weight": 2}),
    _squeezed({"a": [4, 0], "b": [4, 4], "weight": 1},
              {"a": [4, 0], "b": [4, 2], "weight": 2}),
], ids=["at-number", "at-short", "at-object", "points-number", "polygons-number",
        "polygons-null", "id-list", "squeezed-number", "graph-edges-number",
        "graph-faces-number", "top-level-list", "polygon-number", "penalty-word",
        "repeated-vertex", "squeezed-no-weight", "squeezed-one-point",
        "squeezed-duplicate", "squeezed-piece-twice"])
def test_malformed_document_is_a_schema_error(tmp_path, capsys, document):
    with pytest.raises(SchemaError):
        validate_and_subdivide(parse_instance(document))
    assert run(["--input", _write(tmp_path, document)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("solver", ["dp", "dijkstra"])
def test_invert_mode_reports_the_inverted_solver(solver, capsys):
    # Invert mode runs solve_inverted whichever of dp and dijkstra is asked.
    assert run(["--gen", "4,0", "--mode", "invert", "--seed", "3",
                "--solver", solver]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "invert" and out["solver"] == "inverted"
